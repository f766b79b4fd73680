"""The cutoff-explanation ledger: *why* each unit was (re)built.

The paper's payoff is work avoided -- a cutoff stops the recompilation
cascade when an imported intrinsic pid is unchanged -- so the ledger
makes every such decision auditable.  For each unit the builder records
one typed :class:`BuildDecision`:

- ``recompiled`` because of **source-changed**, **import-pid-changed**
  (naming the upstream unit and the old/new pids), **store-miss** (no
  bin record at all), **quarantined** (the record existed but was
  damaged or unreadable), or **policy** (the builder's own rule forced
  it even though source and pids were stable -- make's transitive
  cascade is the canonical example: each ``policy`` rebuild is exactly
  a rebuild cutoff would have skipped);
- ``reused`` because **all-import-pids-stable**, or -- smart builder
  only -- **used-bindings-stable** (an import's pid changed but none of
  the bindings this unit mentions did).

Decisions are computed *structurally* at decide time from the prior bin
record and the live import pids, never parsed out of reason strings, so
the soundness property holds by construction (and is re-checked by
``tests/property/test_ledger_sound.py``): a ``reused`` /
``all-import-pids-stable`` unit really has every import pid equal to
its prior record's, and every ``import-pid-changed`` names a pid that
really differs.

When the bin records carry interface slices (per-binding pids and
per-import used-binding sets), each decision also gets a
:class:`BindingCheck` per used binding of a pid-changed import: the
binding's pid when this unit was last compiled vs the provider's
current one.  That is the *evidence* behind ``used-bindings-stable``
(every check stable) and the per-binding culprit report behind
``import-pid-changed`` recompiles -- ``--explain <unit>`` prints the
actual stable/changed binding names.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Everything a decision's ``cause`` may be.
RECOMPILE_CAUSES = ("source-changed", "import-pid-changed", "store-miss",
                    "quarantined", "policy")
REUSE_CAUSES = ("all-import-pids-stable", "used-bindings-stable")
#: Supervised-build skip causes: ``failed-after-retries`` (the unit
#: itself exhausted its retry budget -- a *poison* unit) and
#: ``poison-import`` (a transitive import was poisoned, so this unit
#: could not be attempted at all).
SKIP_CAUSES = ("failed-after-retries", "poison-import")


@dataclass(frozen=True)
class PidChange:
    """One import whose pid differs from the prior bin record.

    ``kind`` is ``"changed"`` (same upstream unit, different pid),
    ``"new-import"`` (a dependency edge that did not exist when the bin
    was written) or ``"dropped-import"`` (an edge that no longer
    exists).
    """

    unit: str
    old_pid: str = ""
    new_pid: str = ""
    kind: str = "changed"

    def describe(self) -> str:
        if self.kind == "new-import":
            return f"{self.unit} (new import, pid {self.new_pid})"
        if self.kind == "dropped-import":
            return f"{self.unit} (import dropped, was pid {self.old_pid})"
        return f"{self.unit} (pid {self.old_pid} -> {self.new_pid})"

    def to_json(self) -> dict:
        return {"unit": self.unit, "kind": self.kind,
                "old_pid": self.old_pid, "new_pid": self.new_pid}


@dataclass(frozen=True)
class BindingCheck:
    """One used binding of a pid-changed import, checked at slice
    granularity.

    ``binding`` is the ``"ns:name"`` key; ``old_pid`` is the binding's
    pid recorded when this unit was compiled, ``new_pid`` the
    provider's current one.  An empty pid on either side means slice
    data was missing (a stable-library provider), in which case the
    check is inconclusive and the builder must fall back to whole-pid
    cutoff.
    """

    provider: str
    binding: str
    old_pid: str = ""
    new_pid: str = ""

    @property
    def conclusive(self) -> bool:
        return bool(self.old_pid) and bool(self.new_pid)

    @property
    def stable(self) -> bool:
        return self.conclusive and self.old_pid == self.new_pid

    def describe(self) -> str:
        ns, _, name = self.binding.partition(":")
        label = f"{self.provider}.{name} ({ns.rstrip('s')})"
        if not self.conclusive:
            return f"{label} no slice data"
        if self.stable:
            return f"{label} stable"
        return f"{label} changed (pid {self.old_pid} -> {self.new_pid})"

    def to_json(self) -> dict:
        return {"provider": self.provider, "binding": self.binding,
                "old_pid": self.old_pid, "new_pid": self.new_pid,
                "stable": self.stable}


@dataclass
class BuildDecision:
    """The ledger entry for one unit in one build pass."""

    unit: str
    verdict: str  # "recompiled" | "reused" | "failed" | "skipped"
    cause: str  # one of RECOMPILE_CAUSES, REUSE_CAUSES or SKIP_CAUSES
    action: str  # "compiled" | "loaded" | "cached" | "skipped"
    detail: str = ""  # the builder's own reason string
    changes: tuple[PidChange, ...] = ()
    quarantine_kinds: tuple[str, ...] = ()
    #: (name, pid) pairs: what the prior bin record was compiled
    #: against, and what is live now -- the raw facts behind ``cause``.
    prior_imports: tuple[tuple[str, str], ...] = ()
    live_imports: tuple[tuple[str, str], ...] = ()
    #: Slice-level evidence: one check per used binding of each
    #: pid-changed import (empty when no import pid changed or the
    #: records carry no slice data).
    binding_checks: tuple[BindingCheck, ...] = ()
    #: For supervised-build skips (``poison-import``): the poisoned
    #: upstream unit whose failure cascaded here.
    culprit: str = ""

    def stable_bindings(self) -> tuple[BindingCheck, ...]:
        return tuple(c for c in self.binding_checks if c.stable)

    def changed_bindings(self) -> tuple[BindingCheck, ...]:
        return tuple(c for c in self.binding_checks
                     if c.conclusive and not c.stable)

    def describe(self) -> str:
        bits = [f"{self.unit}: {self.verdict} ({self.cause})"]
        if self.culprit:
            bits.append(f"poisoned import: {self.culprit}")
        if self.changes:
            bits.append("changed imports: "
                        + "; ".join(c.describe() for c in self.changes))
        if self.binding_checks:
            bits.append("used bindings: "
                        + "; ".join(c.describe()
                                    for c in self.binding_checks))
        if self.quarantine_kinds:
            bits.append("damage: " + ", ".join(self.quarantine_kinds))
        if self.detail:
            bits.append(f"builder says: {self.detail}")
        return " -- ".join(bits)

    def to_json(self) -> dict:
        return {
            "unit": self.unit,
            "verdict": self.verdict,
            "cause": self.cause,
            "action": self.action,
            "detail": self.detail,
            "changes": [c.to_json() for c in self.changes],
            "binding_checks": [c.to_json() for c in self.binding_checks],
            "quarantine_kinds": list(self.quarantine_kinds),
            "prior_imports": [list(p) for p in self.prior_imports],
            "live_imports": [list(p) for p in self.live_imports],
            "culprit": self.culprit,
        }


def pid_changes(prior_imports, live_imports) -> tuple[PidChange, ...]:
    """The imports whose pids differ between a prior record and now."""
    prior = dict(prior_imports)
    live = dict(live_imports)
    changes: list[PidChange] = []
    for unit, old_pid in prior.items():
        if unit not in live:
            changes.append(PidChange(unit, old_pid=old_pid,
                                     kind="dropped-import"))
        elif live[unit] != old_pid:
            changes.append(PidChange(unit, old_pid=old_pid,
                                     new_pid=live[unit]))
    for unit, new_pid in live.items():
        if unit not in prior:
            changes.append(PidChange(unit, new_pid=new_pid,
                                     kind="new-import"))
    return tuple(changes)


def binding_checks_for(changes, used_bindings,
                       live_binding_pids) -> tuple[BindingCheck, ...]:
    """The slice-level evidence for a decision: for every pid-changed
    import, one :class:`BindingCheck` per binding this unit used of it.

    ``used_bindings`` is the prior record's provider -> {key: pid} map;
    ``live_binding_pids`` maps each provider to its *current* binding
    pids (from the provider's up-to-date bin record).  Imports whose
    whole pid is stable need no checks: none of their bindings moved.
    """
    checks: list[BindingCheck] = []
    for change in changes:
        if change.kind != "changed":
            continue
        used = used_bindings.get(change.unit)
        if not used:
            continue  # no slice data recorded for this import
        live = live_binding_pids.get(change.unit, {})
        for key in sorted(used):
            checks.append(BindingCheck(
                provider=change.unit, binding=key,
                old_pid=used[key], new_pid=live.get(key, "")))
    return tuple(checks)


def explain_decision(
    unit: str,
    action: str,
    reason: str = "",
    had_record: bool = True,
    prior_imports=(),
    live_imports=(),
    source_changed: bool | None = None,
    quarantine_kinds=(),
    used_bindings=None,
    live_binding_pids=None,
) -> BuildDecision:
    """Build the typed decision for one unit, structurally.

    ``action`` is the builder's verb (``"compiled"``, ``"loaded"``,
    ``"cached"``); ``source_changed`` is the make-level digest check
    (``None`` when the caller did not need to compute it);
    ``quarantine_kinds`` are the health-report kinds recorded for a
    record that was damaged away.  ``used_bindings`` (the prior
    record's slice data) and ``live_binding_pids`` (current per-import
    binding pids) turn pid changes into per-binding
    :class:`BindingCheck` evidence.
    """
    prior = tuple((n, p) for n, p in prior_imports)
    live = tuple((n, p) for n, p in live_imports)
    changes = pid_changes(prior, live) if had_record else ()
    quarantine = tuple(quarantine_kinds)
    checks = binding_checks_for(changes, used_bindings or {},
                                live_binding_pids or {})

    if action in ("loaded", "cached"):
        cause = ("all-import-pids-stable" if not changes
                 else "used-bindings-stable")
        return BuildDecision(unit=unit, verdict="reused", cause=cause,
                             action=action, detail=reason,
                             changes=changes, prior_imports=prior,
                             live_imports=live, binding_checks=checks)

    if not had_record:
        cause = "quarantined" if quarantine else "store-miss"
    elif source_changed:
        cause = "source-changed"
    elif changes:
        cause = "import-pid-changed"
    else:
        cause = "policy"
    return BuildDecision(unit=unit, verdict="recompiled", cause=cause,
                         action="compiled", detail=reason,
                         changes=changes, quarantine_kinds=quarantine,
                         prior_imports=prior, live_imports=live,
                         binding_checks=checks)


def explain_skip(unit: str, cause: str, detail: str = "",
                 culprit: str = "") -> BuildDecision:
    """The decision for a unit a *supervised* build could not build.

    ``cause`` is one of :data:`SKIP_CAUSES`; ``culprit`` names the
    poisoned upstream unit for ``poison-import`` skips (so
    ``--explain`` says exactly which failure cascaded here).
    """
    if cause not in SKIP_CAUSES:
        raise ValueError(f"unknown skip cause {cause!r}")
    verdict = "failed" if cause == "failed-after-retries" else "skipped"
    return BuildDecision(unit=unit, verdict=verdict, cause=cause,
                         action="skipped", detail=detail,
                         culprit=culprit)


class ExplanationLedger:
    """All of one build pass's decisions, in build order."""

    def __init__(self):
        self.decisions: dict[str, BuildDecision] = {}

    def record(self, decision: BuildDecision) -> None:
        self.decisions[decision.unit] = decision

    def get(self, unit: str) -> BuildDecision | None:
        return self.decisions.get(unit)

    def __len__(self) -> int:
        return len(self.decisions)

    def __iter__(self):
        return iter(self.decisions.values())

    def recompiled(self) -> list[BuildDecision]:
        return [d for d in self if d.verdict == "recompiled"]

    def reused(self) -> list[BuildDecision]:
        return [d for d in self if d.verdict == "reused"]

    def skipped(self) -> list[BuildDecision]:
        """Supervised-build casualties: poisoned units and the
        dependents their failure cascaded to."""
        return [d for d in self if d.verdict in ("failed", "skipped")]

    def cause_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for decision in self:
            counts[decision.cause] = counts.get(decision.cause, 0) + 1
        return dict(sorted(counts.items()))

    def render_text(self, unit: str | None = None) -> str:
        """The ``--explain`` report: every unit, or just one."""
        if unit is not None:
            decision = self.get(unit)
            if decision is None:
                return (f"{unit}: no decision recorded "
                        f"(not part of this build)")
            return decision.describe()
        lines = [f"build decisions ({len(self)} unit(s)):"]
        lines.extend(f"  {d.describe()}" for d in self)
        if self.decisions:
            counts = ", ".join(f"{cause}={n}"
                               for cause, n in self.cause_counts().items())
            lines.append(f"  causes: {counts}")
        return "\n".join(lines)

    def to_json(self) -> dict:
        return {
            "causes": self.cause_counts(),
            "units": {d.unit: d.to_json() for d in self},
        }
