"""The command-line build driver (python -m repro.cm)."""

import json
import os
import shutil
import subprocess
import sys

import pytest

from repro.cm import (
    BinStore,
    CutoffBuilder,
    Project,
    SupervisePolicy,
    Supervisor,
)
from repro.cm.__main__ import main
from repro.units.pipeline import source_digest
from repro.workload import generate_workload
from repro.workload.shapes import chain

from tests.helpers import kill_at_save, store_files

REPO = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


@pytest.fixture
def srcdir(tmp_path):
    d = tmp_path / "proj"
    d.mkdir()
    (d / "base.sml").write_text(
        "structure Base = struct fun triple x = 3 * x end\n")
    (d / "main.sml").write_text(
        "structure Main = struct val answer = Base.triple 14 end\n")
    return str(d)


class TestCli:
    def test_build_and_print(self, srcdir, capsys):
        assert main([srcdir, "--print", "Main.answer"]) == 0
        out = capsys.readouterr().out
        assert "2 compiled" in out
        assert "Main.answer = 42" in out

    def test_bins_reused_on_second_run(self, srcdir, capsys):
        assert main([srcdir, "--no-link"]) == 0
        capsys.readouterr()
        assert main([srcdir, "--no-link"]) == 0
        out = capsys.readouterr().out
        assert "0 compiled, 2 loaded" in out
        assert os.path.isdir(os.path.join(srcdir, ".bin"))

    def test_manager_choice(self, srcdir, capsys):
        assert main([srcdir, "--manager", "make", "--no-link"]) == 0
        assert "2 compiled" in capsys.readouterr().out

    def test_stats_flag(self, srcdir, capsys):
        assert main([srcdir, "--stats", "--no-link"]) == 0
        assert "total build time" in capsys.readouterr().out

    def test_type_error_reported(self, srcdir, capsys):
        with open(os.path.join(srcdir, "bad.sml"), "w") as f:
            f.write('structure Bad = struct val x = 1 + "s" end\n')
        assert main([srcdir, "--no-link"]) == 1
        assert "error" in capsys.readouterr().err

    def test_parallel_compile_error_fails_fast(self, tmp_path, capsys):
        d = tmp_path / "broken"
        d.mkdir()
        (d / "u000.sml").write_text(
            "structure U0 = struct val v = 1 end\n")
        (d / "u001.sml").write_text(
            "structure Broken = struct val x = no_such_thing end\n")
        (d / "u002.sml").write_text(
            "structure U2 = struct val w = U0.v end\n")
        assert main([str(d), "--jobs", "2"]) == 1
        err = capsys.readouterr().err
        assert "u001" in err and "ElabError" in err

    def test_missing_binding_reported(self, srcdir, capsys):
        assert main([srcdir, "--print", "Main.missing"]) == 1
        assert "not found" in capsys.readouterr().err

    def test_bad_directory(self, capsys):
        assert main(["/nonexistent/dir"]) == 2

    def test_empty_directory(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main([str(empty)]) == 2

    def test_incremental_after_edit(self, srcdir, capsys):
        assert main([srcdir, "--no-link"]) == 0
        capsys.readouterr()
        with open(os.path.join(srcdir, "main.sml"), "w") as f:
            f.write("structure Main = struct val answer = "
                    "Base.triple 10 end\n")
        assert main([srcdir, "--print", "Main.answer"]) == 0
        out = capsys.readouterr().out
        assert "1 compiled, 1 loaded" in out
        assert "Main.answer = 30" in out


    def test_deleted_source_drops_its_record(self, srcdir, capsys):
        assert main([srcdir, "--no-link"]) == 0
        os.remove(os.path.join(srcdir, "main.sml"))
        assert main([srcdir, "--no-link"]) == 0
        assert "0 compiled, 1 loaded" in capsys.readouterr().out
        bin_dir = os.path.join(srcdir, ".bin")
        with open(os.path.join(bin_dir, "MANIFEST.json")) as f:
            assert list(json.load(f)["records"].values()) == ["base"]
        assert not [e for e in os.listdir(bin_dir)
                    if e.startswith("main.")]
        health = BinStore.fsck(bin_dir)
        assert health.ok and health.loaded == ["base"]

    def test_trace_format_is_not_an_option(self, srcdir, tmp_path,
                                           capsys):
        """``--trace-out`` writes Chrome trace JSON only; there is no
        format to choose."""
        with pytest.raises(SystemExit) as excinfo:
            main([srcdir, "--trace-out", str(tmp_path / "t.json"),
                  "--trace-format", "otlp"])
        assert excinfo.value.code == 2
        assert "--trace-format" in capsys.readouterr().err
        assert not os.path.exists(os.path.join(srcdir, ".bin"))


class TestCmFiles:
    def test_cm_file_build(self, tmp_path, capsys):
        lib = tmp_path / "lib"
        lib.mkdir()
        (lib / "s.sml").write_text(
            "structure S = struct val v = 7 end")
        (lib / "lib.cm").write_text("group lib\nmembers\n  s.sml\n")
        app = tmp_path / "app"
        app.mkdir()
        (app / "m.sml").write_text(
            "structure M = struct val out = S.v * 6 end")
        (app / "app.cm").write_text(
            "group app\nmembers\n  m.sml\nimports\n  ../lib/lib.cm\n")
        assert main([str(app / "app.cm"), "--print", "M.out"]) == 0
        out = capsys.readouterr().out
        assert "group lib" in out and "group app" in out
        assert "M.out = 42" in out

    def test_bad_cm_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.cm"
        bad.write_text("members\n x.sml\n")
        assert main([str(bad)]) == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("flags, named", [
        (["--jobs", "2"], "--jobs 2"),
        (["--retries", "3"], "--retries"),
        (["--jobs", "2", "--timeout", "5"], "--timeout"),
        (["--store-url", "rbs://127.0.0.1:1"], "--store-url"),
        (["--stats"], "--stats"),
        (["--explain-diff"], "--explain-diff"),
        (["--fsck"], "--fsck"),
    ], ids=["jobs", "retries", "timeout", "store-url", "stats",
            "explain-diff", "fsck"])
    def test_cm_target_refuses_flags_it_ignores(self, tmp_path, capsys,
                                                flags, named):
        """A group builds serially into an in-memory store and keeps no
        build history, so these flags would be silently ignored (and
        ``--fsck`` would check ``g.cm/.bin``, which never holds a
        store)."""
        (tmp_path / "s.sml").write_text(
            "structure S = struct val v = 7 end")
        desc = tmp_path / "g.cm"
        desc.write_text("group g\nmembers\n  s.sml\n")
        with pytest.raises(SystemExit) as excinfo:
            main([str(desc), *flags])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert named in captured.err and ".cm target" in captured.err
        assert "group g" not in captured.out  # nothing was built

    def test_stale_format_bins_ignored(self, srcdir, capsys):
        import json

        assert main([srcdir, "--no-link"]) == 0
        capsys.readouterr()
        # Corrupt a payload and rewrite another header with an old
        # format tag: both must be treated as cache misses.
        bin_dir = os.path.join(srcdir, ".bin")
        with open(os.path.join(bin_dir, "base.bin"), "wb") as f:
            f.write(b"garbage")
        header_path = os.path.join(bin_dir, "main.bin.json")
        with open(header_path) as f:
            header = json.load(f)
        header["format"] = 1
        with open(header_path, "w") as f:
            json.dump(header, f)
        assert main([srcdir, "--print", "Main.answer"]) == 0
        out = capsys.readouterr().out
        assert "Main.answer = 42" in out


#: Supervision flags out of range, and the usage error each one gets.
#: (``--retries 0`` is in range: TestServeFlags builds with it.)
OUT_OF_RANGE = [
    pytest.param(["--retries", "-1"], "--retries must be at least 0",
                 id="retries-negative"),
    pytest.param(["--timeout", "0"], "--timeout must be greater than 0",
                 id="timeout-zero"),
    pytest.param(["--timeout", "-1"], "--timeout must be greater than 0",
                 id="timeout-negative"),
    pytest.param(["--timeout", "nan"], "--timeout must be greater than 0",
                 id="timeout-nan"),
]


class TestSupervisedCli:
    def test_retries_flag_builds_supervised(self, srcdir, capsys):
        assert main([srcdir, "--retries", "1", "--jobs", "2",
                     "--print", "Main.answer"]) == 0
        out = capsys.readouterr().out
        assert "Main.answer = 42" in out
        assert "2 jobs" in out

    @staticmethod
    def chain_tree(directory):
        workload = generate_workload(chain(3), helpers_per_unit=1)
        os.makedirs(directory)
        for name in workload.project.names():
            with open(os.path.join(directory, name + ".sml"), "w",
                      encoding="utf-8") as fh:
                fh.write(workload.project.source(name))
        return sorted(workload.project.names())

    def test_killed_build_resumes_on_a_plain_rerun(self, tmp_path,
                                                   capsys):
        """A supervised build killed after its first checkpoint leaves
        the finished units in .bin; the next CLI run loads them and
        compiles only the rest, ending with a clean build's bytes."""
        srcdir = str(tmp_path / "killed")
        names = self.chain_tree(srcdir)
        killed = kill_at_save(
            Supervisor(jobs=2, policy=SupervisePolicy()),
            CutoffBuilder(Project.from_directory(srcdir),
                          store=BinStore.load_directory(
                              os.path.join(srcdir, ".bin"))), 1)
        finished = set(killed.compiled)
        assert 0 < len(finished) < len(names)

        command = ["--jobs", "2", "--no-link"]
        assert main([srcdir, *command]) == 0
        out = capsys.readouterr().out
        for name in names:
            action = "loaded" if name in finished else "compiled"
            assert f"[{action:>8}] {name}" in out

        clean = str(tmp_path / "clean")
        self.chain_tree(clean)
        assert main([clean, *command]) == 0
        assert (store_files(os.path.join(srcdir, ".bin"))
                == store_files(os.path.join(clean, ".bin")))

    @pytest.mark.parametrize("flags, message", OUT_OF_RANGE)
    def test_out_of_range_flag_is_refused(self, srcdir, capsys, flags,
                                          message):
        """A negative retry count, or a deadline that every attempt
        has already missed, is a usage error, not a failed build."""
        with pytest.raises(SystemExit) as excinfo:
            main([srcdir, "--jobs", "2", "--no-link", *flags])
        assert excinfo.value.code == 2
        assert message in capsys.readouterr().err
        assert not os.path.exists(os.path.join(srcdir, ".bin"))

    def test_timeout_needs_jobs(self, srcdir, capsys):
        """The inline tier runs each compile at submit time, so a
        deadline could never fire: --timeout without --jobs N > 1 is
        refused instead of ignored."""
        with pytest.raises(SystemExit) as excinfo:
            main([srcdir, "--timeout", "5", "--no-link"])
        assert excinfo.value.code == 2
        assert "--jobs" in capsys.readouterr().err
        assert main([srcdir, "--timeout", "5", "--jobs", "2",
                     "--no-link"]) == 0
        assert "2 compiled" in capsys.readouterr().out

    def test_failed_unit_reports_incomplete(self, srcdir, capsys):
        # An elaboration error is deterministic: never retried, the
        # unit is poisoned and the exit code + ledger say so.
        with open(os.path.join(srcdir, "bad.sml"), "w") as f:
            f.write("structure Bad = struct val x = no_such_thing end\n")
        assert main([srcdir, "--retries", "2", "--no-link",
                     "--explain"]) == 1
        captured = capsys.readouterr()
        assert "build incomplete: 1 unit(s) failed" in captured.err
        assert "see --explain" in captured.err
        assert "failed-after-retries" in captured.out
        # The healthy units were still built and saved.
        assert os.path.isdir(os.path.join(srcdir, ".bin"))


class TestPoolFallback:
    def test_jobs_run_on_threads_where_process_pools_fail(
            self, srcdir, tmp_path, capsys, broken_process_pools):
        """The one path into threads outside the degradation ladder:
        the build says so and leaves a serial build's bytes."""
        serial = str(tmp_path / "serial")
        shutil.copytree(srcdir, serial)
        assert main([serial, "--no-link"]) == 0
        assert main([srcdir, "--jobs", "2", "--no-link"]) == 0
        assert "parallel build: 2 jobs (thread pool)" \
            in capsys.readouterr().out
        assert len(broken_process_pools) == 1
        assert (store_files(os.path.join(srcdir, ".bin"))
                == store_files(os.path.join(serial, ".bin")))


class TestGroupPrintArgument:
    @staticmethod
    def make_group(tmp_path):
        (tmp_path / "s.sml").write_text(
            "structure S = struct val v = 7 end")
        desc = tmp_path / "g.cm"
        desc.write_text("group g\nmembers\n  s.sml\n")
        return str(desc)

    def test_malformed_print_is_a_usage_error_not_a_crash(self, tmp_path,
                                                          capsys):
        # Used to die with an unhandled ValueError: the directory path
        # validated STRUCTURE.NAME, the group path did not.
        desc = self.make_group(tmp_path)
        assert main([desc, "--print", "NoDotHere"]) == 2
        assert "STRUCTURE.NAME" in capsys.readouterr().err

    def test_wellformed_print_still_works(self, tmp_path, capsys):
        desc = self.make_group(tmp_path)
        assert main([desc, "--print", "S.v"]) == 0
        assert "S.v = 7" in capsys.readouterr().out


class TestScheduleAndServe:
    def test_ready_schedule_builds(self, srcdir, capsys):
        assert main([srcdir, "--jobs", "2", "--no-link"]) == 0
        assert "2 compiled" in capsys.readouterr().out

    def test_ready_schedule_incremental(self, srcdir, capsys):
        assert main([srcdir, "--jobs", "2", "--no-link"]) == 0
        capsys.readouterr()
        assert main([srcdir, "--jobs", "2", "--no-link"]) == 0
        assert "0 compiled, 2 loaded" in capsys.readouterr().out

    def test_serve_speaks_the_wire_protocol(self, srcdir, capsys,
                                            monkeypatch):
        import io
        import json
        import sys as _sys

        requests = "\n".join([
            json.dumps({"op": "ping"}),
            json.dumps({"op": "build"}),
            json.dumps({"op": "shutdown"}),
        ]) + "\n"
        monkeypatch.setattr(_sys, "stdin", io.StringIO(requests))
        assert main(["--serve", srcdir]) == 0
        lines = capsys.readouterr().out.splitlines()
        ping, build, bye = [json.loads(l) for l in lines]
        assert ping["result"]["manager"] == "cutoff"
        assert build["ok"] is True
        assert build["result"]["stats"]["compiled"] == 2
        assert bye["result"] == {"bye": True}

    def test_serve_without_srcdir_requires_group_per_request(
            self, capsys, monkeypatch):
        import io
        import json
        import sys as _sys

        monkeypatch.setattr(
            _sys, "stdin", io.StringIO(json.dumps({"op": "build"}) + "\n"))
        assert main(["--serve"]) == 0
        response = json.loads(capsys.readouterr().out)
        assert response["ok"] is False
        assert "group" in response["error"]["message"]

    def test_no_srcdir_without_serve_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit):
            main([])


class TestQualifierFlags:
    @pytest.mark.parametrize("flags, needed", [
        (["--json"], "--fsck"),
        (["--quarantine"], "--fsck"),
        (["--strict"], "--analyze"),
    ], ids=["json", "quarantine", "strict"])
    def test_flag_without_the_flag_it_qualifies_is_a_usage_error(
            self, srcdir, capsys, flags, needed):
        """A flag that only qualifies another would be silently ignored
        without it: the build is refused, naming both flags."""
        with pytest.raises(SystemExit) as excinfo:
            main([srcdir, *flags, "--no-link"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert f"{flags[0]} needs {needed}" in err
        assert not os.path.exists(os.path.join(srcdir, ".bin"))


class TestServeFlags:
    """``--serve`` honours the flags that configure its builds and
    refuses the ones that shape a single batch build's output."""

    @staticmethod
    def feed(monkeypatch):
        import io

        requests = "\n".join([json.dumps({"op": "build"}),
                              json.dumps({"op": "shutdown"})]) + "\n"
        monkeypatch.setattr(sys, "stdin", io.StringIO(requests))

    @pytest.mark.parametrize("flags, named", [
        (["--print", "Main.answer"], "--print"),
        (["--no-link"], "--no-link"),
        (["--stats"], "--stats"),
        (["--analyze"], "--analyze"),
        (["--analyze", "--strict"], "--strict"),
        (["--fsck"], "--fsck"),
        (["--fsck", "--json"], "--json"),
        (["--fsck", "--quarantine"], "--quarantine"),
        (["--explain"], "--explain"),
        (["--explain-diff"], "--explain-diff"),
        (["--trace"], "--trace"),
        (["--trace-out", "t.json"], "--trace-out"),
    ], ids=["print", "no-link", "stats", "analyze", "strict", "fsck",
            "json", "quarantine", "explain", "explain-diff", "trace",
            "trace-out"])
    def test_batch_only_flag_is_refused(self, srcdir, capsys, monkeypatch,
                                        flags, named):
        self.feed(monkeypatch)
        with pytest.raises(SystemExit) as excinfo:
            main(["--serve", srcdir, *flags])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert named in captured.err and "--serve" in captured.err
        assert captured.out == ""  # no request was served
        assert not os.path.exists(os.path.join(srcdir, ".bin"))

    @pytest.mark.parametrize("flags, message", OUT_OF_RANGE)
    def test_out_of_range_flag_is_refused(self, srcdir, capsys,
                                          monkeypatch, flags, message):
        self.feed(monkeypatch)
        with pytest.raises(SystemExit) as excinfo:
            main(["--serve", srcdir, "--jobs", "2", *flags])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert message in captured.err
        assert captured.out == ""  # no request was served
        assert not os.path.exists(os.path.join(srcdir, ".bin"))

    def test_timeout_needs_jobs(self, srcdir, capsys, monkeypatch):
        self.feed(monkeypatch)
        with pytest.raises(SystemExit) as excinfo:
            main(["--serve", srcdir, "--timeout", "1"])
        assert excinfo.value.code == 2
        assert "--timeout needs --jobs N > 1" in capsys.readouterr().err

    @pytest.mark.parametrize("flags, policy", [
        ([], SupervisePolicy()),
        (["--retries", "5"], SupervisePolicy(retries=5)),
        (["--jobs", "2", "--timeout", "30"],
         SupervisePolicy(timeout=30.0)),
        (["--jobs", "2", "--retries", "0", "--timeout", "30"],
         SupervisePolicy(retries=0, timeout=30.0)),
    ], ids=["default", "retries", "timeout", "both"])
    def test_retries_and_timeout_set_the_daemon_policy(
            self, srcdir, capsys, monkeypatch, flags, policy):
        from repro.cm import daemon as daemon_mod

        made = []

        class RecordingDaemon(daemon_mod.BuildDaemon):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                made.append(self)

        monkeypatch.setattr(daemon_mod, "BuildDaemon", RecordingDaemon)
        self.feed(monkeypatch)
        assert main(["--serve", srcdir, *flags]) == 0
        build, _bye = [json.loads(line) for line
                       in capsys.readouterr().out.splitlines()]
        assert build["ok"] and build["result"]["stats"]["compiled"] == 2
        assert [d.policy for d in made] == [policy]


class TestStoreUrl:
    """``--store-url`` is checked once, before any build, fsck or
    daemon start: a malformed URL is a usage error."""

    @pytest.mark.parametrize("mode", ["build", "fsck", "serve"])
    @pytest.mark.parametrize("url", ["bogus://x", "rbs://nohost",
                                     "rbs://h:notaport"])
    def test_malformed_url_is_a_usage_error(self, srcdir, capsys,
                                            monkeypatch, url, mode):
        import io

        argv = {"build": [srcdir],
                "fsck": [srcdir, "--fsck"],
                "serve": ["--serve", srcdir]}[mode]
        monkeypatch.setattr(sys, "stdin", io.StringIO(""))
        with pytest.raises(SystemExit) as excinfo:
            main([*argv, "--store-url", url])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert url in captured.err
        assert "Traceback" not in captured.err
        assert not os.path.exists(os.path.join(srcdir, ".bin"))

    def test_unreachable_server_latches_offline(self, srcdir, capsys):
        import socket

        with socket.socket() as sock:  # a port nothing listens on
            sock.bind(("127.0.0.1", 0))
            port = sock.getsockname()[1]
        url = f"rbs://127.0.0.1:{port}"
        assert main([srcdir, "--store-url", url, "--no-link"]) == 0
        assert "2 compiled" in capsys.readouterr().out
        assert main([srcdir, "--fsck", "--store-url", url]) == 0
        out = capsys.readouterr().out
        assert "HEALTHY" in out and f"remote store {url} offline" in out


class TestOldShardedStore:
    """A store written by an older checkout's sharded layout (pairs
    under ``.bin/shards/<hh>/``, ``MANIFEST.json`` at the root) has no
    special case: its records are missing, so one build recompiles
    everything into the ``.bin`` directory and leaves ``shards/``."""

    @staticmethod
    def shard_the_store(bin_dir):
        from repro.pids.crc128 import crc128_hex

        for entry in sorted(os.listdir(bin_dir)):
            for suffix in (".bin.json", ".bin"):
                if entry.endswith(suffix):
                    stem = entry[:-len(suffix)]
                    shard = os.path.join(bin_dir, "shards",
                                         crc128_hex(stem.encode())[:2])
                    os.makedirs(shard, exist_ok=True)
                    os.replace(os.path.join(bin_dir, entry),
                               os.path.join(shard, entry))
                    break

    def test_old_sharded_store_recompiles_once_into_the_bin_dir(
            self, srcdir, capsys):
        bin_dir = os.path.join(srcdir, ".bin")
        assert main([srcdir, "--no-link"]) == 0
        flat = store_files(bin_dir)
        self.shard_the_store(bin_dir)
        shards = os.path.join(bin_dir, "shards")
        sharded = sorted(os.path.join(d, f)
                         for d, _dirs, files in os.walk(shards)
                         for f in files)
        assert len(sharded) == 4
        capsys.readouterr()

        assert main([srcdir, "--no-link", "--explain"]) == 0
        captured = capsys.readouterr()
        assert "quarantined 2 damaged bin record(s)" in captured.err
        assert "2 compiled, 0 loaded" in captured.out
        for unit in ("base", "main"):
            assert (f"{unit}: recompiled (quarantined) -- damage: "
                    f"missing-record -- builder says: bin file "
                    f"quarantined (missing-record)") in captured.out
        assert store_files(bin_dir) == flat

        assert main([srcdir, "--no-link"]) == 0
        assert "0 compiled, 2 loaded" in capsys.readouterr().out

        assert main([srcdir, "--fsck", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["ok"] and report["loaded"] == ["base", "main"]
        assert report["notes"] == ["ignoring unrecognized file shards"]
        assert sorted(os.path.join(d, f)
                      for d, _dirs, files in os.walk(shards)
                      for f in files) == sharded


class TestOldCacheIndex:
    """An older checkout's remote cache kept an LRU index,
    ``CACHE_INDEX.json``, next to its records.  It gets no special
    case: builds leave it alone and fsck notes it like any other
    stranger in the store directory."""

    def test_old_cache_index_is_an_unrecognized_file(self, srcdir,
                                                     tmp_path, capsys):
        from repro.cm import (
            StoreServer,
            register_loopback,
            unregister_loopback,
        )

        url = register_loopback("old-cache-index",
                                StoreServer(str(tmp_path / "server")))
        try:
            assert main([srcdir, "--store-url", url, "--no-link"]) == 0
            assert "2 compiled" in capsys.readouterr().out
            index = os.path.join(srcdir, ".bin", "CACHE_INDEX.json")
            with open(index, "w", encoding="utf-8") as fh:
                fh.write(json.dumps({"order": ["base", "main"]},
                                    indent=1))
            with open(index, "rb") as fh:
                written = fh.read()

            assert main([srcdir, "--store-url", url, "--no-link"]) == 0
            assert "0 compiled, 2 loaded" in capsys.readouterr().out
            with open(index, "rb") as fh:
                assert fh.read() == written
        finally:
            unregister_loopback("old-cache-index")

        assert main([srcdir, "--fsck", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["ok"] and report["loaded"] == ["base", "main"]
        assert report["notes"] == [
            "ignoring unrecognized file CACHE_INDEX.json"]


class TestSourceEncoding:
    """The batch front end reads sources as UTF-8 whatever the locale,
    as the daemon does: source digests key bin records and their
    dependency summaries, so both must decode a file the same way."""

    NON_ASCII = "(* caf\u00e9 *)\nstructure A = struct val x = 20 end\n"

    @pytest.mark.parametrize("target", ["dir", "group"])
    def test_non_ascii_source_builds_under_the_c_locale(self, tmp_path,
                                                        target):
        proj = tmp_path / "proj"
        proj.mkdir()
        (proj / "a.sml").write_text(self.NON_ASCII, encoding="utf-8")
        (proj / "b.sml").write_text(
            "structure B = struct val y = A.x + 22 end\n")
        (proj / "all.cm").write_text(
            "group all\nmembers\n  a.sml\n  b.sml\n")
        env = dict(os.environ, PYTHONPATH=os.path.join(REPO, "src"),
                   PYTHONCOERCECLOCALE="0", PYTHONUTF8="0", LC_ALL="C")
        built = str(proj if target == "dir" else proj / "all.cm")
        run = subprocess.run(
            [sys.executable, "-m", "repro.cm", built, "--print", "B.y"],
            env=env, capture_output=True, timeout=120)
        assert run.returncode == 0, run.stderr.decode("utf-8", "replace")
        assert b"B.y = 42" in run.stdout
        if target == "dir":
            with open(proj / ".bin" / "a.bin.json", encoding="utf-8") as f:
                header = json.load(f)
            assert header["source_digest"] == source_digest(self.NON_ASCII)
