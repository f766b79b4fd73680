"""Build history: each manager's last build decisions, persisted.

The tracer and ledger observe *one* build and are gone when the
process exits.  This module keeps, per bin directory and manager, one
durable :class:`BuildProfile` of the latest build, so the *next* build
can explain itself against it: ``--explain-diff``
(:mod:`repro.obs.diff`) structurally compares today's
:class:`~repro.obs.ledger.ExplanationLedger` against the prior profile
-- "why did this unit rebuild today but not yesterday".

A profile holds what that diff reads and nothing else: the profile
``format``, the build's ``seq`` (the manager's previous seq + 1), the
``manager``, and per unit the :func:`decision_entry` of its ledger
decision -- ``verdict``, ``cause``, ``culprit`` and pid ``changes``.
It lives in ``<bin_dir>/profiles/<manager>.json``, written atomically
(tmp file, then rename) through the store's filesystem seam (any object
shaped like :class:`repro.cm.seam.FileSystem`; this module never
imports ``repro.cm``, whose store backend imports it).  IO is best-effort:
a torn, unreadable or wrong-format profile reads as absent, and a
profile that cannot be written costs history, never the build.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

#: Subdirectory of the bin store holding one profile per manager.
PROFILE_DIR = "profiles"
#: Atomic-write suffix, same discipline as the store's saves.
PROFILE_TMP_SUFFIX = ".tmp"
#: Version 1 was the ``BUILD_PROFILE-<seq>.json`` ring, which no
#: reader opens any more.
PROFILE_FORMAT = 2


def decision_entry(decision) -> dict:
    """A ledger decision as a profile records it, and as
    :func:`~repro.obs.diff.diff_against_profile` compares it."""
    culprit = decision.culprit
    if not culprit and decision.changes:
        # The headline upstream unit: the first pid-changed import,
        # else the first changed edge.
        culprit = next((c.unit for c in decision.changes
                        if c.kind == "changed"), decision.changes[0].unit)
    return {"verdict": decision.verdict, "cause": decision.cause,
            "culprit": culprit,
            "changes": [c.to_json() for c in decision.changes]}


@dataclass
class BuildProfile:
    """The durable record of one manager's latest build."""

    seq: int = 0
    manager: str = ""
    units: dict = field(default_factory=dict)  # name -> decision_entry


class BuildHistory:
    """One manager's build profile in one bin directory."""

    def __init__(self, bin_dir: str, manager: str, fs):
        self.path = os.path.join(bin_dir, PROFILE_DIR, f"{manager}.json")
        self.manager = manager
        self.fs = fs

    def latest(self) -> BuildProfile | None:
        """The recorded profile, or None when there is none readable."""
        try:
            data = json.loads(self.fs.read_bytes(self.path))
            if data["format"] != PROFILE_FORMAT:
                return None
            return BuildProfile(seq=int(data["seq"]),
                                manager=str(data["manager"]),
                                units=dict(data["units"]))
        except (OSError, ValueError, KeyError, TypeError):
            return None  # absent/torn/damaged: history degrades, never raises

    def record(self, ledger, prior: BuildProfile | None) -> BuildProfile:
        """Replace the profile with ``ledger``'s decisions, numbered
        after ``prior`` (the profile read before this build).  A failed
        write leaves the old file; the new profile is returned either
        way."""
        profile = BuildProfile(
            seq=(prior.seq if prior is not None else 0) + 1,
            manager=self.manager,
            units={d.unit: decision_entry(d) for d in ledger})
        payload = json.dumps(
            {"format": PROFILE_FORMAT, "seq": profile.seq,
             "manager": profile.manager, "units": profile.units},
            separators=(",", ":")).encode("utf-8")
        tmp = self.path + PROFILE_TMP_SUFFIX
        try:
            self.fs.makedirs(os.path.dirname(self.path))
            self.fs.write_bytes(tmp, payload)
            self.fs.replace(tmp, self.path)
        except OSError:
            pass
        return profile
