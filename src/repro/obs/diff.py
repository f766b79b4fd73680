"""Cross-build decision diffing: why did this unit rebuild *today*?

One build's :class:`~repro.obs.ledger.ExplanationLedger` says why each
unit was recompiled or reused.  This module compares that against the
*prior* build's persisted :class:`~repro.obs.history.BuildProfile` and
answers the fleet question the single-build ledger cannot: "this unit
rebuilt today but not yesterday -- what changed between the runs?"

The diff is structural, never textual: verdicts, causes, culprit
imports and old/new pids are compared field by field, so the result is
a typed :class:`UnitDiff` per unit:

- ``unchanged`` -- same verdict and cause (and, for pid-driven
  recompiles, the same culprit import);
- ``decision-changed`` -- the verdict or cause moved (e.g. yesterday
  ``reused (all-import-pids-stable)``, today ``recompiled
  (source-changed)``);
- ``culprit-changed`` -- both builds recompiled for
  ``import-pid-changed``, but a *different* import's pid moved (old ->
  new pids shown for both);
- ``new-unit`` / ``dropped-unit`` -- the unit exists in only one of
  the builds.

``python -m repro.cm --explain-diff [unit]`` renders this; the daemon
answers an ``explain-diff`` request with the same text against its
warm prior profile.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.obs.history import BuildProfile, decision_entry


def _changes_text(changes) -> str:
    """Render a decision entry's pid changes compactly."""
    bits = []
    for change in changes:
        unit, kind = change["unit"], change["kind"]
        old, new = change["old_pid"], change["new_pid"]
        if kind == "new-import":
            bits.append(f"{unit} (new import, pid {new})")
        elif kind == "dropped-import":
            bits.append(f"{unit} (import dropped, was pid {old})")
        else:
            bits.append(f"{unit} (pid {old} -> {new})")
    return "; ".join(bits)


@dataclass
class UnitDiff:
    """How one unit's decision moved between two builds."""

    unit: str
    kind: str  # unchanged | decision-changed | culprit-changed |
    #           new-unit | dropped-unit
    old_verdict: str = ""
    old_cause: str = ""
    old_culprit: str = ""
    old_changes: list = field(default_factory=list)
    new_verdict: str = ""
    new_cause: str = ""
    new_culprit: str = ""
    new_changes: list = field(default_factory=list)

    @property
    def changed(self) -> bool:
        return self.kind != "unchanged"

    def describe(self) -> str:
        old = (f"{self.old_verdict} ({self.old_cause})"
               if self.old_verdict else "(absent)")
        new = (f"{self.new_verdict} ({self.new_cause})"
               if self.new_verdict else "(absent)")
        if self.kind == "unchanged":
            return f"{self.unit}: unchanged -- {new}"
        if self.kind == "new-unit":
            text = f"{self.unit}: new unit -- {new}"
            if self.new_changes:
                text += f" -- {_changes_text(self.new_changes)}"
            return text
        if self.kind == "dropped-unit":
            return f"{self.unit}: dropped unit -- was {old}"
        if self.kind == "culprit-changed":
            old_why = _changes_text(self.old_changes) or self.old_culprit
            new_why = _changes_text(self.new_changes) or self.new_culprit
            return (f"{self.unit}: culprit changed -- still {new} "
                    f"-- was via {old_why}; now via {new_why}")
        text = f"{self.unit}: decision changed -- {old} -> {new}"
        if self.new_changes:
            text += f" -- {_changes_text(self.new_changes)}"
        return text

    def to_json(self) -> dict:
        return {
            "unit": self.unit,
            "kind": self.kind,
            "old": {"verdict": self.old_verdict, "cause": self.old_cause,
                    "culprit": self.old_culprit,
                    "changes": list(self.old_changes)},
            "new": {"verdict": self.new_verdict, "cause": self.new_cause,
                    "culprit": self.new_culprit,
                    "changes": list(self.new_changes)},
        }


@dataclass
class ProfileDiff:
    """The whole-build diff: one :class:`UnitDiff` per unit seen by
    either build, plus the prior profile's identity (or None on a
    first build)."""

    prior: BuildProfile | None = None
    diffs: dict = field(default_factory=dict)  # unit -> UnitDiff

    def get(self, unit: str) -> UnitDiff | None:
        return self.diffs.get(unit)

    def changed(self) -> list[UnitDiff]:
        return [d for d in self.diffs.values() if d.changed]

    def render_text(self, unit: str | None = None) -> str:
        if self.prior is None:
            if unit is not None:
                return (f"{unit}: no prior build profile "
                        f"(first recorded build)")
            return ("explain-diff: no prior build profile "
                    "(first recorded build; decisions recorded for "
                    "next time)")
        header = (f"explain-diff vs build #{self.prior.seq}"
                  + (f" ({self.prior.manager})" if self.prior.manager
                     else ""))
        if unit is not None:
            diff = self.get(unit)
            if diff is None:
                return (f"{header}:\n  {unit}: no decision in either "
                        f"build")
            return f"{header}:\n  {diff.describe()}"
        lines = [f"{header}:"]
        lines.extend(f"  {d.describe()}"
                     for d in self.diffs.values())
        lines.append(f"  changed: {len(self.changed())} of "
                     f"{len(self.diffs)} unit(s)")
        return "\n".join(lines)

    def to_json(self) -> dict:
        return {
            "prior_seq": self.prior.seq if self.prior else None,
            "units": {u: d.to_json()
                      for u, d in sorted(self.diffs.items())},
            "changed": sorted(d.unit for d in self.changed()),
        }


def _diff_unit(name: str, old: dict | None, new: dict | None) -> UnitDiff:
    """Compare two :func:`~repro.obs.history.decision_entry` dicts."""
    diff = UnitDiff(unit=name, kind="unchanged")
    if old is not None:
        diff.old_verdict = old["verdict"]
        diff.old_cause = old["cause"]
        diff.old_culprit = old["culprit"]
        diff.old_changes = list(old["changes"])
    if new is not None:
        diff.new_verdict = new["verdict"]
        diff.new_cause = new["cause"]
        diff.new_culprit = new["culprit"]
        diff.new_changes = list(new["changes"])
    if not diff.old_verdict:
        diff.kind = "new-unit"
    elif new is None:
        diff.kind = "dropped-unit"
    elif (diff.old_verdict != diff.new_verdict
          or diff.old_cause != diff.new_cause):
        diff.kind = "decision-changed"
    elif (diff.old_cause == "import-pid-changed"
          and diff.old_culprit != diff.new_culprit):
        diff.kind = "culprit-changed"
    return diff


def diff_against_profile(ledger,
                         profile: BuildProfile | None) -> ProfileDiff:
    """Structurally diff a live ledger against the prior profile.

    ``profile`` may be None (first recorded build): the result renders
    the no-history message and reports no per-unit diffs.
    """
    out = ProfileDiff(prior=profile)
    if profile is None:
        return out
    names = list(ledger.decisions)
    seen = set(names)
    names.extend(n for n in sorted(profile.units) if n not in seen)
    for name in names:
        decision = ledger.get(name)
        out.diffs[name] = _diff_unit(
            name, profile.units.get(name),
            decision_entry(decision) if decision is not None else None)
    return out
