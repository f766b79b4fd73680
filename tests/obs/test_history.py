"""Build history: profiles and their ring buffer."""

import json
import os

from repro.cm.report import BuildReport, UnitOutcome
from repro.obs.history import (
    BuildHistory,
    BuildProfile,
    UnitProfile,
    profile_from_report,
)
from repro.obs.ledger import BuildDecision, ExplanationLedger
from repro.units.unit import PhaseTimes


def make_profile(seq=0, manager="cutoff", **unit_seconds):
    profile = BuildProfile(seq=seq, manager=manager, group="g")
    for name, seconds in unit_seconds.items():
        profile.units[name] = UnitProfile(
            name=name, action="compiled", seconds=seconds)
    return profile


def make_report():
    report = BuildReport(jobs=2, pool="thread", wall_seconds=1.5,
                         dispatch_order=["a", "b"])
    report.add(UnitOutcome(
        name="a", action="compiled", reason="source changed",
        times=PhaseTimes(parse=0.5, elaborate=1.0, hash=0.25)))
    report.add(UnitOutcome(name="b", action="loaded",
                           reason="bin file current"))
    return report


class TestProfileFromReport:
    def test_captures_config_units_and_decisions(self):
        report = make_report()
        ledger = ExplanationLedger()
        ledger.record(BuildDecision(unit="a", verdict="recompiled",
                                    cause="source-changed",
                                    action="compiled"))
        ledger.record(BuildDecision(unit="b", verdict="reused",
                                    cause="all-import-pids-stable",
                                    action="loaded"))
        profile = profile_from_report(
            report, ledger=ledger,
            export_pids={"a": "aa" * 16, "b": "bb" * 16},
            group="proj", manager="cutoff")
        assert (profile.group, profile.manager) == ("proj", "cutoff")
        assert (profile.jobs, profile.pool) == (2, "thread")
        assert profile.dispatch_order == ["a", "b"]
        a = profile.unit("a")
        # Per-unit seconds are the full pipeline: compile + overhead.
        assert a.seconds == 1.75
        assert (a.verdict, a.cause) == ("recompiled", "source-changed")
        assert a.export_pid == "aa" * 16
        assert profile.unit("b").verdict == "reused"

    def test_round_trips_through_json(self):
        profile = profile_from_report(make_report(), group="g",
                                      manager="make")
        profile.seq = 7
        data = json.loads(json.dumps(profile.to_json()))
        back = BuildProfile.from_json(data)
        assert back.to_json() == profile.to_json()

    def test_unknown_format_is_rejected(self):
        try:
            BuildProfile.from_json({"format": 99})
        except ValueError:
            pass
        else:
            raise AssertionError("expected ValueError")


class TestRingBuffer:
    def test_record_assigns_monotonic_seqs(self, tmp_path):
        history = BuildHistory(str(tmp_path))
        for _ in range(3):
            assert history.record(make_profile(x=1.0))
        assert [p.seq for p in history.profiles()] == [1, 2, 3]
        names = sorted(os.listdir(tmp_path / "profiles"))
        assert names == [f"BUILD_PROFILE-{n}.json" for n in (1, 2, 3)]

    def test_ring_keeps_newest(self, tmp_path):
        history = BuildHistory(str(tmp_path), keep=2)
        for _ in range(5):
            history.record(make_profile(x=1.0))
        assert [p.seq for p in history.profiles()] == [4, 5]

    def test_writes_are_atomic_no_tmp_left_behind(self, tmp_path):
        history = BuildHistory(str(tmp_path))
        history.record(make_profile(x=1.0))
        leftovers = [n for n in os.listdir(tmp_path / "profiles")
                     if n.endswith(".tmp")]
        assert leftovers == []

    def test_damaged_profile_reads_as_absent(self, tmp_path):
        history = BuildHistory(str(tmp_path))
        history.record(make_profile(x=1.0))
        history.record(make_profile(x=2.0))
        path = tmp_path / "profiles" / "BUILD_PROFILE-2.json"
        path.write_bytes(b"{ torn json")
        assert [p.seq for p in history.profiles()] == [1]
        assert history.latest().seq == 1

    def test_empty_history_queries(self, tmp_path):
        history = BuildHistory(str(tmp_path))
        assert history.profiles() == []
        assert history.latest() is None
        assert history.next_seq() == 1

    def test_latest_filters_by_manager(self, tmp_path):
        history = BuildHistory(str(tmp_path))
        history.record(make_profile(manager="cutoff", x=1.0))
        history.record(make_profile(manager="make", x=2.0))
        assert history.latest("cutoff").units["x"].seconds == 1.0
        assert history.latest("make").units["x"].seconds == 2.0
        assert history.latest("smart") is None
