"""Build history: one profile per manager, holding what
``--explain-diff`` reads."""

import json
import os

import pytest

from repro.cm.__main__ import main
from repro.cm.daemon import BuildDaemon
from repro.cm.faults import REAL_FS, FaultPlan, FaultyFS
from repro.obs.history import (
    PROFILE_FORMAT,
    BuildHistory,
    BuildProfile,
    decision_entry,
)
from repro.obs.ledger import BuildDecision, ExplanationLedger, PidChange

A_PID, B_PID, C_PID = "aa" * 16, "bb" * 16, "cc" * 16


def make_ledger(**verdicts):
    ledger = ExplanationLedger()
    for unit, (verdict, cause) in verdicts.items():
        ledger.record(BuildDecision(unit=unit, verdict=verdict,
                                    cause=cause, action="compiled"))
    return ledger


def read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


class TestDecisionEntry:
    def test_entry_holds_verdict_cause_culprit_and_changes(self):
        decision = BuildDecision(
            unit="c", verdict="recompiled", cause="import-pid-changed",
            action="compiled", detail="builder text",
            changes=(PidChange("n", new_pid=C_PID, kind="new-import"),
                     PidChange("a", old_pid=A_PID, new_pid=B_PID)))
        assert decision_entry(decision) == {
            "verdict": "recompiled", "cause": "import-pid-changed",
            # The headline culprit is the first pid-changed import.
            "culprit": "a",
            "changes": [
                {"unit": "n", "kind": "new-import", "old_pid": "",
                 "new_pid": C_PID},
                {"unit": "a", "kind": "changed", "old_pid": A_PID,
                 "new_pid": B_PID}]}

    def test_culprit_falls_back_to_the_first_edge_then_the_skip(self):
        dropped = BuildDecision(
            unit="c", verdict="recompiled", cause="import-pid-changed",
            action="compiled",
            changes=(PidChange("x", old_pid=A_PID,
                               kind="dropped-import"),))
        assert decision_entry(dropped)["culprit"] == "x"
        poisoned = BuildDecision(unit="d", verdict="skipped",
                                 cause="poison-import", action="skipped",
                                 culprit="c")
        assert decision_entry(poisoned)["culprit"] == "c"
        assert decision_entry(poisoned)["changes"] == []


class TestOneProfilePerManager:
    def test_profile_round_trips_through_its_file(self, tmp_path):
        history = BuildHistory(str(tmp_path), "make", REAL_FS)
        ledger = make_ledger(a=("recompiled", "source-changed"),
                             b=("reused", "all-import-pids-stable"))
        written = history.record(ledger, None)
        assert history.latest() == written
        assert written == BuildProfile(
            seq=1, manager="make",
            units={d.unit: decision_entry(d) for d in ledger})

    def test_wrong_format_reads_as_absent(self, tmp_path):
        history = BuildHistory(str(tmp_path), "cutoff", REAL_FS)
        history.record(make_ledger(a=("recompiled", "store-miss")), None)
        data = read_json(history.path)
        data["format"] = PROFILE_FORMAT + 1
        with open(history.path, "w", encoding="utf-8") as fh:
            json.dump(data, fh)
        assert history.latest() is None

    def test_record_numbers_after_the_prior_profile(self, tmp_path):
        history = BuildHistory(str(tmp_path), "cutoff", REAL_FS)
        for seq in (1, 2, 3):
            prior = history.latest()
            assert history.record(make_ledger(), prior).seq == seq
        assert os.listdir(tmp_path / "profiles") == ["cutoff.json"]
        assert history.latest().seq == 3

    def test_managers_keep_separate_profiles(self, tmp_path):
        cutoff = BuildHistory(str(tmp_path), "cutoff", REAL_FS)
        make = BuildHistory(str(tmp_path), "make", REAL_FS)
        cutoff.record(make_ledger(x=("recompiled", "store-miss")), None)
        make.record(make_ledger(x=("recompiled", "policy")), None)
        assert cutoff.latest().units["x"]["cause"] == "store-miss"
        assert make.latest().units["x"]["cause"] == "policy"
        assert BuildHistory(str(tmp_path), "smart",
                            REAL_FS).latest() is None

    def test_writes_are_atomic_no_tmp_left_behind(self, tmp_path):
        BuildHistory(str(tmp_path), "cutoff", REAL_FS).record(
            make_ledger(x=("recompiled", "store-miss")), None)
        assert os.listdir(tmp_path / "profiles") == ["cutoff.json"]

    def test_torn_profile_reads_as_absent(self, tmp_path):
        history = BuildHistory(str(tmp_path), "cutoff", REAL_FS)
        history.record(make_ledger(x=("recompiled", "store-miss")), None)
        with open(history.path, "rb") as fh:
            data = fh.read()
        with open(history.path, "wb") as fh:
            fh.write(data[:len(data) // 2])
        assert history.latest() is None

    def test_no_profile_yet(self, tmp_path):
        history = BuildHistory(str(tmp_path / "nowhere"), "cutoff",
                               REAL_FS)
        assert history.latest() is None
        assert history.record(make_ledger(), None).seq == 1

    def test_failed_write_keeps_the_old_profile(self, tmp_path):
        BuildHistory(str(tmp_path), "cutoff", REAL_FS).record(
            make_ledger(x=("recompiled", "store-miss")), None)
        full = FaultyFS(FaultPlan(enospc_at_write=0))
        history = BuildHistory(str(tmp_path), "cutoff", full)
        profile = history.record(
            make_ledger(x=("reused", "all-import-pids-stable")),
            history.latest())
        # The caller keeps the new profile; the disk keeps the old one.
        assert profile.seq == 2
        assert history.latest().seq == 1
        assert sorted(os.listdir(tmp_path / "profiles")) == ["cutoff.json"]


@pytest.fixture
def srcdir(tmp_path):
    d = tmp_path / "proj"
    d.mkdir()
    (d / "a.sml").write_text("structure A = struct val x = 1 end\n")
    (d / "b.sml").write_text("structure B = struct val y = A.x end\n")
    return str(d)


def build(srcdir, capsys, *flags):
    rc = main([srcdir, "--no-link", *flags])
    captured = capsys.readouterr()
    assert rc == 0, captured.err
    return captured.out


class TestBuildProfiles:
    def test_each_build_and_daemon_request_records_once(
            self, srcdir, capsys, monkeypatch):
        calls = []
        record = BuildHistory.record

        def counted(history, ledger, prior):
            calls.append(history.manager)
            return record(history, ledger, prior)

        monkeypatch.setattr(BuildHistory, "record", counted)
        build(srcdir, capsys)
        assert calls == ["cutoff"]
        daemon = BuildDaemon(manager="make")
        try:
            daemon.request(srcdir)
            daemon.request(srcdir)
            assert "vs build #1 (make)" in daemon.explain_diff(srcdir)
        finally:
            daemon.shutdown()
        assert calls == ["cutoff", "make", "make"]

    def test_daemon_numbers_after_a_batch_build_between_requests(
            self, srcdir, capsys):
        daemon = BuildDaemon()
        try:
            daemon.request(srcdir)
            with open(os.path.join(srcdir, "a.sml"), "w") as fh:
                fh.write("structure A = struct val x = 1 val z = 2 end\n")
            build(srcdir, capsys)
            daemon.request(srcdir)
            text = daemon.explain_diff(srcdir)
        finally:
            daemon.shutdown()
        # The baseline is the batch build, not the daemon's own last one.
        assert "vs build #2 (cutoff)" in text
        assert ("a: decision changed -- recompiled (source-changed) -> "
                "reused") in text
        path = os.path.join(srcdir, ".bin", "profiles", "cutoff.json")
        assert read_json(path)["seq"] == 3

    def test_one_file_per_manager_holding_only_the_diff_fields(
            self, srcdir, capsys):
        for _ in range(3):
            build(srcdir, capsys, "--manager", "cutoff")
        build(srcdir, capsys, "--manager", "make")
        profiles = os.path.join(srcdir, ".bin", "profiles")
        assert sorted(os.listdir(profiles)) == ["cutoff.json", "make.json"]
        for manager, seq in (("cutoff", 3), ("make", 1)):
            data = read_json(os.path.join(profiles, f"{manager}.json"))
            assert sorted(data) == ["format", "manager", "seq", "units"]
            assert (data["format"], data["seq"], data["manager"]) == \
                (PROFILE_FORMAT, seq, manager)
            assert sorted(data["units"]) == ["a", "b"]
            for entry in data["units"].values():
                assert sorted(entry) == ["cause", "changes", "culprit",
                                         "verdict"]

    @pytest.mark.parametrize("text", [
        b'{"format": 2, "seq": 4, "manag',
        b'{"format": 1, "seq": 4, "manager": "cutoff", "units": {}}',
    ], ids=["torn", "wrong-format"])
    def test_unreadable_profile_is_no_prior_build_profile(
            self, srcdir, capsys, text):
        build(srcdir, capsys)
        path = os.path.join(srcdir, ".bin", "profiles", "cutoff.json")
        with open(path, "wb") as fh:
            fh.write(text)
        out = build(srcdir, capsys, "--explain-diff")
        assert "explain-diff: no prior build profile" in out
        assert read_json(path)["seq"] == 1

    def test_old_ring_files_are_left_unread(self, srcdir, capsys):
        profiles = os.path.join(srcdir, ".bin", "profiles")
        os.makedirs(profiles)
        old = os.path.join(profiles, "BUILD_PROFILE-7.json")
        with open(old, "w", encoding="utf-8") as fh:
            json.dump({"format": 1, "seq": 7, "manager": "cutoff",
                       "units": {}}, fh)
        assert "no prior build profile" in build(srcdir, capsys,
                                                 "--explain-diff")
        assert "vs build #1 (cutoff)" in build(srcdir, capsys,
                                               "--explain-diff")
        assert read_json(old)["seq"] == 7
        assert main([srcdir, "--fsck", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["notes"] == []

    def test_failed_profile_write_never_fails_the_build(self, srcdir,
                                                        capsys):
        os.makedirs(os.path.join(srcdir, ".bin"))
        # A file where the profile directory belongs: makedirs fails.
        with open(os.path.join(srcdir, ".bin", "profiles"), "w") as fh:
            fh.write("not a directory\n")
        assert main([srcdir, "--print", "B.y"]) == 0
        out = capsys.readouterr().out
        assert "B.y = 1" in out
        assert "no prior build profile" in build(srcdir, capsys,
                                                 "--explain-diff")
