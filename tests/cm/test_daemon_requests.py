"""Multi-client daemon behaviour and the wire protocol.

Three contracts:

- **Turn-taking**: concurrent requests for one group take turns on the
  group's lock -- two replies, two reports, and every unit compiled
  exactly once across them.
- **Isolation**: requests for disjoint groups run concurrently (both
  builds are in flight at once) and never cross-talk stores.
- **Wire format**: the stdio protocol (``serve`` / ``wire_encode``) is
  golden-tested byte-for-byte -- compact key-sorted JSON, stable
  response envelopes, per-request error envelopes that never kill the
  daemon.
"""

import io
import json
import os
import threading

import pytest

from repro.basis import BASIS_PID
from repro.cm import BinStore, BuildDaemon, SupervisePolicy
from repro.cm.daemon import PROTOCOL_VERSION, reply_to_wire, serve, wire_encode
from repro.obs import Tracer
from repro.workload import generate_workload
from repro.workload.shapes import chain, diamond, fanout

POLICY = SupervisePolicy(retries=1)


def write_tree(srcdir, project):
    os.makedirs(srcdir, exist_ok=True)
    for name in project.names():
        with open(os.path.join(srcdir, name + ".sml"), "w",
                  encoding="utf-8") as fh:
            fh.write(project.source(name))


def make_group(srcdir, shape=None):
    workload = generate_workload(shape if shape is not None
                                 else diamond(2, 2), helpers_per_unit=1)
    write_tree(srcdir, workload.project)
    return workload


class TestSameGroup:
    def test_duplicate_requests_take_turns(self, tmp_path):
        """Two concurrent requests for one group: the first build holds
        the group lock until the second request has arrived, which
        then waits its turn and finds every unit already compiled."""
        srcdir = str(tmp_path / "grp")
        workload = make_group(srcdir)
        tracer = Tracer()
        daemon = BuildDaemon(jobs=2, policy=POLICY, meter=tracer)
        arrivals = []
        both_arrived = threading.Event()
        state_for, build = daemon._state_for, daemon._build

        def counting_state_for(srcdir):
            arrivals.append(srcdir)
            if len(arrivals) == 2:
                both_arrived.set()
            return state_for(srcdir)

        def build_once_both_arrived(*args):
            # The first build waits here, holding the group lock, until
            # the second request is in flight too.
            assert both_arrived.wait(timeout=10.0)
            return build(*args)

        daemon._state_for = counting_state_for
        daemon._build = build_once_both_arrived
        replies = []
        errors = []

        def client():
            try:
                replies.append(daemon.request(srcdir))
            except BaseException as err:  # surface in the test thread
                errors.append(err)

        try:
            threads = [threading.Thread(target=client) for _ in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30.0)
        finally:
            daemon.shutdown()
        assert not errors
        assert len(replies) == 2
        first, second = sorted(replies,
                               key=lambda r: len(r.report.compiled),
                               reverse=True)
        assert first.report is not second.report
        names = sorted(workload.project.names())
        assert sorted(first.report.compiled) == names
        assert second.report.compiled == []
        assert sorted(second.report.cached) == names
        assert tracer.counters["daemon.requests"] == 2
        assert tracer.counters["daemon.builds"] == 2
        assert len(tracer.spans_named("daemon-request")) == 2


class TestDisjointGroups:
    def test_disjoint_groups_build_concurrently(self, tmp_path):
        """Two different groups' builds must be in flight at the same
        time (a shared barrier in the build would deadlock under a
        global build lock), and their stores must not cross-talk."""
        a_dir = str(tmp_path / "a")
        b_dir = str(tmp_path / "b")
        wl_a = make_group(a_dir, chain(3))
        wl_b = make_group(b_dir, diamond(2, 2))
        barrier = threading.Barrier(2)
        daemon = BuildDaemon(jobs=2, policy=POLICY)
        build = daemon._build

        def build_at_rendezvous(*args):
            barrier.wait(timeout=10.0)  # both groups, concurrently
            return build(*args)

        daemon._build = build_at_rendezvous
        replies = {}
        errors = []

        def client(srcdir):
            try:
                replies[srcdir] = daemon.request(srcdir)
            except BaseException as err:
                errors.append(err)

        try:
            threads = [threading.Thread(target=client, args=(d,))
                       for d in (a_dir, b_dir)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30.0)
        finally:
            daemon.shutdown()
        assert not errors
        assert len(replies[a_dir].report.compiled) == len(wl_a.project)
        assert len(replies[b_dir].report.compiled) == len(wl_b.project)
        # No cross-talk: each bin dir holds exactly its own units.
        for srcdir, workload in ((a_dir, wl_a), (b_dir, wl_b)):
            headers = sorted(
                e[:-len(".bin.json")]
                for e in os.listdir(os.path.join(srcdir, ".bin"))
                if e.endswith(".bin.json"))
            assert headers == sorted(workload.project.names())


class TestDeletedSources:
    def test_first_request_after_a_deletion_prunes_the_unit(self,
                                                             tmp_path):
        srcdir = str(tmp_path / "grp")
        make_group(srcdir)
        bin_dir = os.path.join(srcdir, ".bin")
        daemon = BuildDaemon()
        try:
            daemon.request(srcdir)
            builder = daemon._state_for(srcdir).builder
            gone = builder.units["u005"].export_pid
            os.remove(os.path.join(srcdir, "u005.sml"))
            reply = daemon.request(srcdir)
        finally:
            daemon.shutdown()
        assert reply.report.compiled == []
        assert "u005" not in builder.units
        assert gone not in builder.session.pids()
        assert builder.session.pids() == (
            {u.export_pid for u in builder.units.values()} | {BASIS_PID})
        store = BinStore.load_directory(bin_dir)
        assert store.health.ok and "u005" not in store.names()
        assert not [e for e in os.listdir(bin_dir)
                    if e.startswith("u005.")]


class TestWireFormat:
    def serve_lines(self, daemon, requests, default_group=None):
        out = io.StringIO()
        rc = serve(daemon, [json.dumps(r) if isinstance(r, dict) else r
                            for r in requests],
                   out, default_group=default_group)
        return rc, out.getvalue().splitlines()

    def test_ping_golden_bytes(self, tmp_path):
        daemon = BuildDaemon(jobs=1)
        rc, lines = self.serve_lines(daemon, [{"op": "ping", "id": "c1"}])
        assert rc == 0
        assert lines == [
            '{"id":"c1","ok":true,"op":"ping","result":'
            '{"manager":"cutoff","protocol":4}}'
        ]
        assert PROTOCOL_VERSION == 4

    def test_build_response_golden(self, tmp_path):
        """The whole build envelope, byte-stable modulo wall clock."""
        srcdir = str(tmp_path / "grp")
        make_group(srcdir, chain(3))
        daemon = BuildDaemon(jobs=1, policy=POLICY)
        rc, lines = self.serve_lines(daemon, [{"op": "build"}],
                                     default_group=srcdir)
        assert rc == 0 and len(lines) == 1
        response = json.loads(lines[0])
        # Re-encoding the parsed object reproduces the wire bytes
        # exactly: compact separators, sorted keys, nothing volatile
        # about the encoding itself.
        assert wire_encode(response) == lines[0]
        result = response.pop("result")
        assert response == {"id": 1, "ok": True, "op": "build"}
        assert isinstance(result.pop("wall_seconds"), float)
        assert result == {
            "group": srcdir,
            "store_reloaded": False,
            "sources_refreshed": 3,
            "jobs": 1,
            "pool": "inline",
            "stats": {
                "compiled": 3,
                "loaded": 0,
                "cached": 0,
                "cache_hits": 0,
                "cutoff_stops": 0,
                "causes": {"store-miss": 3},
            },
            "outcomes": [
                {"name": "u000", "action": "compiled",
                 "reason": "no bin file"},
                {"name": "u001", "action": "compiled",
                 "reason": "no bin file"},
                {"name": "u002", "action": "compiled",
                 "reason": "no bin file"},
            ],
        }

    def test_wire_encode_is_insertion_order_independent(self):
        a = wire_encode({"b": 1, "a": {"d": 2, "c": 3}})
        b = wire_encode({"a": {"c": 3, "d": 2}, "b": 1})
        assert a == b == '{"a":{"c":3,"d":2},"b":1}'

    def test_reply_to_wire_matches_request_object(self, tmp_path):
        """The object API and the wire agree: serializing a DaemonReply
        gives the same payload the server would have written."""
        srcdir = str(tmp_path / "grp")
        make_group(srcdir, chain(3))
        daemon = BuildDaemon(jobs=1, policy=POLICY)
        try:
            reply = daemon.request(srcdir)
        finally:
            daemon.shutdown()
        wired = reply_to_wire(reply)
        assert wired["group"] == os.path.abspath(srcdir)
        assert wired["stats"]["compiled"] == 3
        assert [o["name"] for o in wired["outcomes"]] == \
            ["u000", "u001", "u002"]

    def test_errors_are_per_request_not_fatal(self, tmp_path):
        """Bad line, unknown op, missing group: each gets an ok:false
        envelope and the daemon keeps serving (the ping after them
        still answers)."""
        srcdir = str(tmp_path / "grp")
        make_group(srcdir, chain(3))
        daemon = BuildDaemon(jobs=1, policy=POLICY)
        rc, lines = self.serve_lines(daemon, [
            "this is not json",
            {"op": "frobnicate", "id": 7},
            {"op": "build"},  # no group, no default
            {"op": "explain", "group": srcdir},  # no build yet
            {"op": "ping"},
        ])
        assert rc == 0 and len(lines) == 5
        bad_json, bad_op, no_group, no_build, ping = \
            [json.loads(l) for l in lines]
        assert bad_json["ok"] is False
        assert bad_json["id"] == 1  # ordinal fallback
        assert bad_op == {"id": 7, "ok": False,
                          "error": {"type": "DaemonError",
                                    "message": "unknown op 'frobnicate'"}}
        assert no_group["ok"] is False
        assert "group" in no_group["error"]["message"]
        assert no_build["ok"] is False
        assert no_build["error"]["type"] == "DaemonError"
        assert ping["ok"] is True

    @pytest.mark.parametrize("key,value,flag", [
        ("manager", "smart", "--manager"),
        ("jobs", 2, "--jobs"),
        ("pool", "thread", "--jobs"),
    ], ids=["manager", "jobs", "pool"])
    @pytest.mark.parametrize("op", ["build", "explain", "explain-diff"])
    def test_requests_cannot_reconfigure_the_daemon(self, tmp_path, op,
                                                    key, value, flag):
        """The daemon's start-up flags fix the manager, the jobs count
        and with it the pool kind: a request naming one is
        refused, naming the key and the flag, and never builds."""
        srcdir = str(tmp_path / "grp")
        make_group(srcdir, chain(3))
        daemon = BuildDaemon(jobs=1, policy=POLICY)
        rc, lines = self.serve_lines(daemon, [
            {"op": op, "id": "r", key: value},
            {"op": "ping", "id": "p"},
        ], default_group=srcdir)
        assert rc == 0
        refused, ping = [json.loads(line) for line in lines]
        assert refused == {
            "id": "r", "ok": False,
            "error": {"type": "DaemonError",
                      "message": f"request key {key!r} is not accepted "
                                 f"(protocol 4): {flag} sets it when "
                                 f"the daemon starts"}}
        assert ping["ok"] is True
        assert daemon.stats()["requests_served"] == 0

    def test_refused_values_never_reach_a_build(self, tmp_path):
        """Values a build could misread -- a string, fractional, zero,
        negative or boolean jobs count, an unknown pool -- get the same
        typed refusal, and the daemon builds only the plain request."""
        srcdir = str(tmp_path / "grp")
        make_group(srcdir, chain(3))
        daemon = BuildDaemon(jobs=1, policy=POLICY)
        refused = [("jobs", "2"), ("jobs", 2.5), ("jobs", 0),
                   ("jobs", -3), ("jobs", True), ("pool", "bogus")]
        rc, lines = self.serve_lines(
            daemon, [{"op": "build", key: value}
                     for key, value in refused] + [{"op": "build"}],
            default_group=srcdir)
        assert rc == 0
        responses = [json.loads(line) for line in lines]
        for (key, _value), response in zip(refused, responses):
            assert response["ok"] is False
            assert response["error"]["type"] == "DaemonError"
            assert repr(key) in response["error"]["message"]
        built = responses[-1]["result"]
        assert (built["jobs"], built["pool"]) == (1, "inline")
        assert built["stats"]["compiled"] == 3
        assert daemon.stats()["requests_served"] == 1

    def test_shutdown_op_stops_serving(self, tmp_path):
        srcdir = str(tmp_path / "grp")
        make_group(srcdir, chain(3))
        daemon = BuildDaemon(jobs=1, policy=POLICY)
        rc, lines = self.serve_lines(daemon, [
            {"op": "shutdown"},
            {"op": "ping"},  # after shutdown: must never be served
        ], default_group=srcdir)
        assert rc == 0
        assert len(lines) == 1
        assert json.loads(lines[0])["result"] == {"bye": True}
        # The daemon is really down, not just out of the loop.
        try:
            daemon.request(srcdir)
            raise AssertionError("shut-down daemon served a request")
        except Exception as err:
            assert "shut down" in str(err)

    def test_explain_over_the_wire(self, tmp_path):
        srcdir = str(tmp_path / "grp")
        make_group(srcdir, chain(3))
        daemon = BuildDaemon(jobs=1, policy=POLICY)
        rc, lines = self.serve_lines(daemon, [
            {"op": "build"},
            {"op": "explain", "unit": "u000"},
        ], default_group=srcdir)
        assert rc == 0
        explain = json.loads(lines[1])
        assert explain["ok"] is True
        assert "u000" in explain["result"]["text"]
        assert "recompiled" in explain["result"]["text"]


class TestTelemetryOps:
    def test_explain_diff_trace_and_stats_over_the_wire(self, tmp_path):
        """One daemon session: build, edit an interface on disk, build
        again with an inline trace, then ask what changed and for the
        rolled-up stats, which a daemon given no meter always counts."""
        srcdir = str(tmp_path / "grp")
        workload = make_group(srcdir, chain(3))
        daemon = BuildDaemon(jobs=2, policy=POLICY)

        def requests():
            yield json.dumps({"op": "build", "id": "b1"})
            # Edit between requests: the generator runs interleaved
            # with serving, so the second build sees the new source.
            workload.edit_interface("u000")
            write_tree(srcdir, workload.project)
            yield json.dumps({"op": "build", "id": "b2", "trace": True})
            yield json.dumps({"op": "explain-diff", "id": "d"})
            yield json.dumps({"op": "explain-diff", "id": "d1",
                              "unit": "u000"})
            yield json.dumps({"op": "stats", "id": "s"})
            yield json.dumps({"op": "shutdown", "id": "q"})

        out = io.StringIO()
        rc = serve(daemon, requests(), out, default_group=srcdir)
        assert rc == 0
        by_id = {r["id"]: r for r in
                 (json.loads(line) for line in out.getvalue().splitlines())}
        assert all(r["ok"] for r in by_id.values()), by_id

        # Plain build replies carry no trace; opted-in ones do.
        assert "trace" not in by_id["b1"]["result"]
        trace = by_id["b2"]["result"]["trace"]
        assert sorted(trace["ledger"]["units"]) == \
            ["u000", "u001", "u002"]
        assert sorted(trace["dispatch_order"]) == \
            ["u000", "u001", "u002"]
        assert trace["phase_totals"]["elaborate"] >= 0

        # The diff compares build 2 against build 1's profile.
        text = by_id["d"]["result"]["text"]
        assert "explain-diff vs build #1" in text
        assert "u000: decision changed" in text
        assert "store-miss" in text and "source-changed" in text
        assert "u000" in by_id["d1"]["result"]["text"]
        assert "u001" not in by_id["d1"]["result"]["text"]

        # Stats: always-on counters, hit rate, occupancy (protocol 4
        # has no sampling bookkeeping).
        stats = by_id["s"]["result"]
        assert sorted(stats) == ["groups", "hit_rate", "occupancy",
                                 "requests_served", "telemetry"]
        assert stats["groups"] == 1
        assert stats["requests_served"] == 2
        telemetry = stats["telemetry"]
        assert sorted(telemetry) == ["counters", "events", "spans"]
        assert telemetry["spans"]["build"]["count"] == 2
        # Build 1 compiles all 3; build 2 recompiles u000 (source) and
        # u001 (import pid), but cutoff stops the cascade at u002.
        counters = telemetry["counters"]
        assert counters["units.compiled"] == 5
        reused = (counters.get("units.loaded", 0)
                  + counters.get("units.cached", 0))
        assert reused == 1
        assert stats["hit_rate"] == round(1 / 6, 6)

        # Both builds wrote the one profile of the daemon's manager;
        # the second numbered itself after the first.
        profile_dir = os.path.join(srcdir, ".bin", "profiles")
        assert os.listdir(profile_dir) == ["cutoff.json"]
        with open(os.path.join(profile_dir, "cutoff.json")) as fh:
            assert json.load(fh)["seq"] == 2

    def test_stats_occupancy_counts_the_daemons_jobs(self, tmp_path):
        """Occupancy is worker-busy seconds over the worker-seconds the
        builds had: the daemon's jobs times each build's wall time,
        summed over the groups it served."""
        a_dir = str(tmp_path / "a")
        b_dir = str(tmp_path / "b")
        make_group(a_dir, fanout(4))
        make_group(b_dir, fanout(4))
        daemon = BuildDaemon(jobs=2, policy=POLICY)
        try:
            a = daemon.request(a_dir)
            b = daemon.request(b_dir)
            stats = daemon.stats()
        finally:
            daemon.shutdown()
        assert a.report.jobs == b.report.jobs == 2
        busy = stats["telemetry"]["spans"]["worker-compile"]["seconds"]
        capacity = 2 * (a.report.wall_seconds + b.report.wall_seconds)
        assert stats["occupancy"] == pytest.approx(busy / capacity,
                                                   rel=0.01)

    def test_explain_diff_before_any_build_is_an_error(self, tmp_path):
        srcdir = str(tmp_path / "grp")
        make_group(srcdir, chain(3))
        daemon = BuildDaemon(jobs=1, policy=POLICY)
        out = io.StringIO()
        rc = serve(daemon, [json.dumps({"op": "explain-diff"})], out,
                   default_group=srcdir)
        assert rc == 0
        response = json.loads(out.getvalue())
        assert response["ok"] is False
        assert response["error"]["type"] == "DaemonError"
