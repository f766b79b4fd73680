"""``python -m repro.cm <dir> --fsck``: health checking from the CLI."""

import json
import os

import pytest

from repro.cm.__main__ import main
from repro.cm.faults import bit_flip, delete_file, payload_path


@pytest.fixture
def srcdir(tmp_path):
    d = tmp_path / "proj"
    d.mkdir()
    (d / "base.sml").write_text(
        "structure Base = struct fun triple x = 3 * x end\n")
    (d / "main.sml").write_text(
        "structure Main = struct val answer = Base.triple 14 end\n")
    return str(d)


@pytest.fixture
def built(srcdir, capsys):
    assert main([srcdir, "--no-link"]) == 0
    capsys.readouterr()
    return srcdir


class TestFsckCli:
    def test_healthy_store_exits_zero(self, built, capsys):
        assert main([built, "--fsck"]) == 0
        out = capsys.readouterr().out
        assert "HEALTHY" in out

    def test_damaged_store_exits_nonzero_with_listing(self, built, capsys):
        bin_dir = os.path.join(built, ".bin")
        bit_flip(payload_path(bin_dir, "base"), offset=2)
        assert main([built, "--fsck"]) == 1
        out = capsys.readouterr().out
        assert "DAMAGED" in out
        assert "base" in out and "payload-checksum-mismatch" in out

    def test_json_report(self, built, capsys):
        bin_dir = os.path.join(built, ".bin")
        delete_file(payload_path(bin_dir, "main"))
        assert main([built, "--fsck", "--json"]) == 1
        data = json.loads(capsys.readouterr().out)
        assert data["ok"] is False
        assert data["corrupt"][0]["kind"] == "orphaned-header"
        assert data["corrupt"][0]["name"] == "main"

    def test_build_history_is_not_an_unrecognized_file(self, built,
                                                        capsys):
        """Every CLI build records a profile under ``.bin/profiles/``;
        the store's own directory is not noted as foreign."""
        assert os.path.isdir(os.path.join(built, ".bin", "profiles"))
        assert main([built, "--fsck", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["notes"] == []

    def test_bin_dir_direct_target(self, built, capsys):
        assert main([os.path.join(built, ".bin"), "--fsck"]) == 0

    def test_missing_store_is_trivially_healthy(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main([str(empty), "--fsck"]) == 0

    def test_nonexistent_path_never_raises(self, capsys):
        assert main(["/nonexistent/dir", "--fsck"]) == 0
        assert "no store directory" in capsys.readouterr().out

    def test_json_output_is_key_sorted_and_stable(self, built, capsys):
        """Machine consumers diff fsck output: the JSON must be emitted
        with sorted keys so identical stores give identical bytes."""
        bin_dir = os.path.join(built, ".bin")
        delete_file(payload_path(bin_dir, "main"))
        assert main([built, "--fsck", "--json"]) == 1
        first = capsys.readouterr().out
        assert (json.dumps(json.loads(first), indent=1, sort_keys=True)
                == first.rstrip("\n"))
        assert main([built, "--fsck", "--json"]) == 1
        assert capsys.readouterr().out == first

    def test_json_golden(self):
        """The serialized shape is a contract: a synthetic report must
        render to exactly this document."""
        from repro.cm.store import StoreHealthReport

        report = StoreHealthReport(path="/store/.bin", scanned=3)
        report.loaded = ["base", "mid"]
        report.stale = ["old"]
        report.add("main", "orphaned-header",
                   path="/store/.bin/main.payload", detail="missing")
        report.notes = ["removed stale lock"]
        golden = "\n".join([
            '{',
            ' "corrupt": [',
            '  {',
            '   "detail": "missing",',
            '   "kind": "orphaned-header",',
            '   "name": "main",',
            '   "path": "/store/.bin/main.payload"',
            '  }',
            ' ],',
            ' "loaded": [',
            '  "base",',
            '  "mid"',
            ' ],',
            ' "notes": [',
            '  "removed stale lock"',
            ' ],',
            ' "ok": false,',
            ' "path": "/store/.bin",',
            ' "scanned": 3,',
            ' "stale": [',
            '  "old"',
            ' ]',
            '}',
        ])
        assert (json.dumps(report.to_json(), indent=1, sort_keys=True)
                == golden)

    def test_build_warns_on_quarantine_then_fsck_clean(self, built,
                                                       capsys):
        bin_dir = os.path.join(built, ".bin")
        bit_flip(payload_path(bin_dir, "base"), offset=2)
        assert main([built, "--no-link"]) == 0
        captured = capsys.readouterr()
        assert "quarantined" in captured.err
        assert "base" in captured.err
        # The rebuild + save healed the store.
        assert main([built, "--fsck"]) == 0


class TestQuarantineFlag:
    def test_quarantine_moves_damage_aside(self, built, capsys):
        bin_dir = os.path.join(built, ".bin")
        bit_flip(payload_path(bin_dir, "base"), offset=2)
        assert main([built, "--fsck", "--quarantine"]) == 1
        assert "DAMAGED" in capsys.readouterr().out

        # The damaged pair now sits in .bin/quarantine/, so the next
        # fsck is healthy and the next build just recompiles the miss.
        qdir = os.path.join(bin_dir, "quarantine")
        assert os.path.isdir(qdir)
        assert any(e.startswith("base") for e in os.listdir(qdir))
        capsys.readouterr()
        assert main([built, "--fsck"]) == 0
        assert "HEALTHY" in capsys.readouterr().out
        assert main([built, "--print", "Main.answer"]) == 0
        out = capsys.readouterr().out
        assert "1 compiled, 1 loaded" in out
        assert "Main.answer = 42" in out

    def test_fsck_without_flag_leaves_damage_in_place(self, built, capsys):
        bin_dir = os.path.join(built, ".bin")
        bit_flip(payload_path(bin_dir, "base"), offset=2)
        assert main([built, "--fsck"]) == 1
        assert not os.path.isdir(os.path.join(bin_dir, "quarantine"))
        # Still damaged on the second look: --fsck alone only reports.
        capsys.readouterr()
        assert main([built, "--fsck"]) == 1
