"""Build history: compact per-build profiles, persisted.

The tracer and ledger observe *one* build and are gone when the
process exits.  This module gives every build a durable, compact
record -- a :class:`BuildProfile` -- and a :class:`BuildHistory` ring
buffer of them under ``<bin_dir>/profiles/``, so the *next* build can
explain itself against the last one: ``--explain-diff``
(:mod:`repro.obs.diff`) structurally compares today's
:class:`~repro.obs.ledger.ExplanationLedger` against the prior
profile -- "why did this unit rebuild today but not yesterday".

A profile captures what the report and ledger already knew at the end
of a build: per-unit wall seconds and actions, the typed decision
(verdict/cause/culprit/pid changes), export pids, the dispatch order,
and the build configuration (manager, jobs, pool).

Storage discipline mirrors the store's own crash-safety: every profile
is written atomically (tmp + rename) through an injectable filesystem
seam, IO is best-effort (a profile that cannot be written or read
costs history, never the build), and the ring keeps the newest
``keep`` profiles per directory.  The seam accepts any object shaped
like :class:`repro.cm.faults.FileSystem`; the local default here is
deliberately minimal so this module never imports ``repro.cm`` (the
compilation manager imports ``repro.obs``, not the other way around).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

#: Subdirectory of the bin store holding the ring buffer.
PROFILE_DIR = "profiles"
PROFILE_PREFIX = "BUILD_PROFILE-"
PROFILE_SUFFIX = ".json"
#: Atomic-write suffix, same discipline as the store's saves.
PROFILE_TMP_SUFFIX = ".tmp"
PROFILE_FORMAT = 1
#: How many profiles the ring keeps by default.
DEFAULT_KEEP = 16


class _LocalFS:
    """Minimal filesystem for profile IO (shape-compatible subset of
    the store's ``FileSystem`` seam)."""

    def read_bytes(self, path: str) -> bytes:
        with open(path, "rb") as f:
            return f.read()

    def write_bytes(self, path: str, data: bytes) -> None:
        with open(path, "wb") as f:
            f.write(data)

    def replace(self, src: str, dst: str) -> None:
        os.replace(src, dst)

    def remove(self, path: str) -> None:
        try:
            os.remove(path)
        except FileNotFoundError:
            pass

    def makedirs(self, path: str) -> None:
        os.makedirs(path, exist_ok=True)

    def isdir(self, path: str) -> bool:
        return os.path.isdir(path)

    def listdir(self, path: str) -> list[str]:
        return sorted(os.listdir(path))


_DEFAULT_FS = _LocalFS()


@dataclass
class UnitProfile:
    """One unit's slice of a build profile."""

    name: str
    action: str = ""  # compiled | loaded | cached | failed | skipped
    seconds: float = 0.0
    export_pid: str = ""
    verdict: str = ""
    cause: str = ""
    #: The headline upstream unit behind this decision: the first
    #: pid-changed import for ``import-pid-changed`` recompiles, the
    #: poisoned unit for ``poison-import`` skips, else empty.
    culprit: str = ""
    #: The decision's pid changes, as plain dicts
    #: (``{"unit", "kind", "old_pid", "new_pid"}``).
    changes: list = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "action": self.action,
            "seconds": round(self.seconds, 6),
            "export_pid": self.export_pid,
            "verdict": self.verdict,
            "cause": self.cause,
            "culprit": self.culprit,
            "changes": list(self.changes),
        }

    @classmethod
    def from_json(cls, data: dict) -> "UnitProfile":
        return cls(
            name=str(data.get("name", "")),
            action=str(data.get("action", "")),
            seconds=float(data.get("seconds", 0.0)),
            export_pid=str(data.get("export_pid", "")),
            verdict=str(data.get("verdict", "")),
            cause=str(data.get("cause", "")),
            culprit=str(data.get("culprit", "")),
            changes=list(data.get("changes", [])),
        )


@dataclass
class BuildProfile:
    """The durable record of one build pass."""

    seq: int = 0
    group: str = ""
    manager: str = ""
    jobs: int = 1
    pool: str = "serial"
    wall_seconds: float = 0.0
    dispatch_order: list = field(default_factory=list)
    stats: dict = field(default_factory=dict)
    units: dict = field(default_factory=dict)  # name -> UnitProfile

    def unit(self, name: str) -> UnitProfile | None:
        return self.units.get(name)

    def to_json(self) -> dict:
        return {
            "format": PROFILE_FORMAT,
            "schema": "build-profile/1",
            "seq": self.seq,
            "group": self.group,
            "manager": self.manager,
            "jobs": self.jobs,
            "pool": self.pool,
            "wall_seconds": round(self.wall_seconds, 6),
            "dispatch_order": list(self.dispatch_order),
            "stats": dict(self.stats),
            "units": {name: u.to_json()
                      for name, u in sorted(self.units.items())},
        }

    @classmethod
    def from_json(cls, data: dict) -> "BuildProfile":
        if data.get("format") != PROFILE_FORMAT:
            raise ValueError(f"unknown profile format "
                             f"{data.get('format')!r}")
        units = {}
        for name, entry in data.get("units", {}).items():
            units[str(name)] = UnitProfile.from_json(dict(entry))
        return cls(
            seq=int(data.get("seq", 0)),
            group=str(data.get("group", "")),
            manager=str(data.get("manager", "")),
            jobs=int(data.get("jobs", 1)),
            pool=str(data.get("pool", "serial")),
            wall_seconds=float(data.get("wall_seconds", 0.0)),
            dispatch_order=list(data.get("dispatch_order", [])),
            stats=dict(data.get("stats", {})),
            units=units,
        )


def _decision_culprit(decision) -> str:
    """The headline upstream unit behind a decision."""
    if decision.culprit:
        return decision.culprit
    for change in decision.changes:
        if change.kind == "changed":
            return change.unit
    for change in decision.changes:
        return change.unit
    return ""


def profile_from_report(report, ledger=None, export_pids=None,
                        group: str = "", manager: str = "",
                        seq: int = 0) -> BuildProfile:
    """Distill a finished build into its durable profile.

    ``ledger`` defaults to the report's own; ``export_pids`` maps unit
    name -> export pid (e.g. from the builder's live units or store).
    Per-unit seconds are the unit's full pipeline time
    (compile + hash/pickle overhead), the same number ``--stats``
    totals.
    """
    ledger = ledger if ledger is not None else report.ledger
    export_pids = export_pids or {}
    profile = BuildProfile(
        seq=seq, group=group, manager=manager,
        jobs=report.jobs, pool=report.pool,
        wall_seconds=report.wall_seconds,
        dispatch_order=list(report.dispatch_order),
        stats=report.stats(),
    )
    for outcome in report.outcomes:
        unit = UnitProfile(
            name=outcome.name,
            action=outcome.action,
            seconds=(outcome.times.compile_total()
                     + outcome.times.overhead_total()),
            export_pid=str(export_pids.get(outcome.name, "")),
        )
        decision = ledger.get(outcome.name) if ledger is not None else None
        if decision is not None:
            unit.verdict = decision.verdict
            unit.cause = decision.cause
            unit.culprit = _decision_culprit(decision)
            unit.changes = [c.to_json() for c in decision.changes]
        profile.units[outcome.name] = unit
    return profile


class BuildHistory:
    """The ring buffer of :class:`BuildProfile` files for one bin dir.

    Profiles live as ``profiles/BUILD_PROFILE-<seq>.json`` under the
    store directory; ``seq`` increases monotonically across builds and
    the newest ``keep`` files survive pruning.  All IO is best-effort:
    a torn or unreadable profile reads as absent, a failed write is
    reported as ``False`` and the build goes on.
    """

    def __init__(self, bin_dir: str, fs=None, keep: int = DEFAULT_KEEP):
        self.bin_dir = bin_dir
        self.directory = os.path.join(bin_dir, PROFILE_DIR)
        self.fs = fs if fs is not None else _DEFAULT_FS
        self.keep = max(1, keep)

    # -- the ring ---------------------------------------------------------

    def _entries(self) -> list[tuple[int, str]]:
        """``(seq, filename)`` pairs present on disk, oldest first."""
        try:
            names = self.fs.listdir(self.directory)
        except OSError:
            return []
        out: list[tuple[int, str]] = []
        for name in names:
            if not (name.startswith(PROFILE_PREFIX)
                    and name.endswith(PROFILE_SUFFIX)):
                continue
            stem = name[len(PROFILE_PREFIX):-len(PROFILE_SUFFIX)]
            try:
                out.append((int(stem), name))
            except ValueError:
                continue
        out.sort()
        return out

    def next_seq(self) -> int:
        entries = self._entries()
        return (entries[-1][0] + 1) if entries else 1

    def _path(self, seq: int) -> str:
        return os.path.join(self.directory,
                            f"{PROFILE_PREFIX}{seq}{PROFILE_SUFFIX}")

    def _read(self, filename: str) -> BuildProfile | None:
        path = os.path.join(self.directory, filename)
        try:
            data = json.loads(self.fs.read_bytes(path).decode("utf-8"))
            return BuildProfile.from_json(data)
        except Exception:
            return None  # torn/damaged/absent: history degrades, never raises

    def record(self, profile: BuildProfile) -> bool:
        """Persist ``profile`` (assigning the next seq when unset) and
        prune the ring.  Returns False when the write failed."""
        if profile.seq <= 0:
            profile.seq = self.next_seq()
        path = self._path(profile.seq)
        payload = json.dumps(profile.to_json(), indent=1,
                             sort_keys=True).encode("utf-8")
        try:
            self.fs.makedirs(self.directory)
            self.fs.write_bytes(path + PROFILE_TMP_SUFFIX, payload)
            self.fs.replace(path + PROFILE_TMP_SUFFIX, path)
        except OSError:
            return False
        self._prune()
        return True

    def _prune(self) -> None:
        entries = self._entries()
        for _seq, name in entries[:-self.keep]:
            try:
                self.fs.remove(os.path.join(self.directory, name))
            except OSError:
                pass

    # -- queries ----------------------------------------------------------

    def profiles(self, manager: str | None = None) -> list[BuildProfile]:
        """Readable profiles, oldest first, optionally filtered."""
        out = []
        for _seq, name in self._entries():
            profile = self._read(name)
            if profile is None:
                continue
            if manager is not None and profile.manager != manager:
                continue
            out.append(profile)
        return out

    def latest(self, manager: str | None = None) -> BuildProfile | None:
        """The newest readable profile (for ``manager`` if given)."""
        for _seq, name in reversed(self._entries()):
            profile = self._read(name)
            if profile is None:
                continue
            if manager is None or profile.manager == manager:
                return profile
        return None
