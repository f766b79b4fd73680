"""``--explain-diff``: cross-build decision diffing (tier 1).

A three-build story pinned down by a pid-normalized golden transcript:
the first build has no baseline, the second changes decisions
(store-miss becomes source-changed / import-pid-changed), and the
third keeps the client's cause but moves its culprit import from one
upstream unit to another -- the "why did it rebuild *this* time"
question the diff exists to answer.
"""

import os
import re

import pytest

from repro.cm.__main__ import main
from repro.cm.faults import REAL_FS
from repro.obs.diff import UnitDiff, diff_against_profile
from repro.obs.history import BuildHistory
from repro.obs.ledger import BuildDecision, ExplanationLedger

PID = re.compile(r"\b[0-9a-f]{32}\b")
GOLDEN = os.path.join(os.path.dirname(__file__), "golden",
                      "explain_diff.txt")


@pytest.fixture
def srcdir(tmp_path):
    d = tmp_path / "proj"
    d.mkdir()
    (d / "a.sml").write_text("structure A = struct val x = 1 end\n")
    (d / "b.sml").write_text("structure B = struct val y = 2 end\n")
    (d / "client.sml").write_text(
        "structure C = struct val z = A.x + B.y end\n")
    return str(d)


def run_diff(srcdir, capsys):
    rc = main([srcdir, "--no-link", "--explain-diff"])
    captured = capsys.readouterr()
    assert rc == 0, captured.err
    text = captured.out
    start = text.index("explain-diff")
    return PID.sub("<pid>", text[start:].rstrip()) + "\n"


class TestGoldenTranscript:
    def test_three_build_transcript_matches_golden(self, srcdir,
                                                   capsys):
        transcript = ["== build 1: from scratch ==\n",
                      run_diff(srcdir, capsys)]

        # Widen A's interface: a recompiles (source), client
        # recompiles because A's export pid changed.
        with open(os.path.join(srcdir, "a.sml"), "w") as fh:
            fh.write("structure A = struct val x = 1 "
                     "val extra = 5 end\n")
        transcript += ["== build 2: A's interface changed ==\n",
                       run_diff(srcdir, capsys)]

        # Now widen B's interface: the client's cause is the same
        # (import-pid-changed) but the culprit moves from a to b.
        with open(os.path.join(srcdir, "b.sml"), "w") as fh:
            fh.write("structure B = struct val y = 2 "
                     "val extra = 7 end\n")
        transcript += ["== build 3: B's interface changed ==\n",
                       run_diff(srcdir, capsys)]

        got = "".join(transcript)
        with open(GOLDEN, encoding="utf-8") as fh:
            want = fh.read()
        assert got == want

    def test_single_unit_query(self, srcdir, capsys):
        # Two builds stabilize every decision; the third then asks
        # about one untouched unit only.
        for _ in range(2):
            rc = main([srcdir, "--no-link"])
            capsys.readouterr()
            assert rc == 0
        with open(os.path.join(srcdir, "a.sml"), "w") as fh:
            fh.write("structure A = struct val x = 9 end\n")
        rc = main([srcdir, "--no-link", "--explain-diff", "b"])
        captured = capsys.readouterr()
        assert rc == 0
        assert "b: unchanged" in captured.out
        assert "client" not in captured.out.split("explain-diff")[1]


class TestDiffAPI:
    def decision(self, unit, verdict, cause, **kw):
        return BuildDecision(unit=unit, verdict=verdict, cause=cause,
                             action="compiled", **kw)

    def test_no_prior_profile(self):
        ledger = ExplanationLedger()
        ledger.record(self.decision("a", "recompiled", "store-miss"))
        diff = diff_against_profile(ledger, None)
        assert diff.prior is None
        assert "first recorded build" in diff.render_text()
        assert "first recorded build" in diff.render_text("a")

    def test_dropped_and_new_units(self, tmp_path):
        ledger = ExplanationLedger()
        ledger.record(self.decision("old", "recompiled", "store-miss"))
        profile = BuildHistory(str(tmp_path), "cutoff", REAL_FS).record(
            ledger, None)

        after = ExplanationLedger()
        after.record(self.decision("new", "recompiled", "store-miss"))
        diff = diff_against_profile(after, profile)
        kinds = {d.unit: d.kind for d in diff.diffs.values()}
        assert kinds == {"new": "new-unit", "old": "dropped-unit"}
        assert all(isinstance(d, UnitDiff)
                   for d in diff.diffs.values())
        assert diff.get("missing") is None
        assert "no decision in either build" in \
            diff.render_text("missing")
