"""Smart recompilation at per-exported-binding granularity.

The paper situates cutoff between classical recompilation and Tichy's
*smart* / Schwanke-Kaiser *smartest* recompilation (§2): smarter schemes
examine which pieces of an interface a dependent actually uses.  This
builder implements the smart point of that spectrum on *interface
slices*:

- every compiled unit carries a per-exported-binding pid table
  (:func:`repro.pids.intrinsic.binding_pids`, computed in the pipeline's
  hash phase alongside the whole-interface pid);
- every bin record carries, per import, exactly the bindings this unit
  mentions -- the use-set of the shared
  :class:`repro.analysis.scopes.UseDefAnalysis`, pinned to the
  provider's binding pids at compile time;
- a dependent is recompiled only if a binding it *uses* changed -- an
  interface change in a binding it never mentions is invisible to it.

The slice checks only run for imports whose whole-interface pid moved:
an import with a stable pid has, by construction, no changed bindings.
That makes the sliced builder's reuse a superset of cutoff's -- it can
never recompile more -- and it degrades gracefully: a record with no
slice data (a provider without binding pids, such as a stable-library
unit) falls back to the conservative whole-pid answer.

Strictly fewer recompilations than cutoff (benchmark T2 and
``benchmarks/test_bench_slicing.py`` quantify the gap), at the cost of
per-binding bookkeeping.  The paper chose cutoff because it falls out
of pids "for free"; this is the v2 the paper's §2 points at.
"""

from __future__ import annotations

from repro.cm.base import BaseBuilder
from repro.cm.depend import DepGraph
from repro.cm.store import BinRecord
from repro.units.unit import CompiledUnit


class SmartBuilder(BaseBuilder):
    """Per-binding smart recompilation over interface slices."""

    def decide(self, name: str, graph: DepGraph,
               imports: list[CompiledUnit],
               record: BinRecord | None) -> tuple[str, str]:
        if record is None:
            return "compile", "no bin file"
        if not self.source_current(name, record):
            return "compile", "source changed"
        if not self.imports_current(record, imports):
            # Some import's whole pid moved: consult the slices.
            stale = self._stale_use(record, imports)
            if stale is not None:
                return "compile", stale
            # Slices stable: reuse, but by *rehydrating* against the
            # new import interfaces -- a cached live unit would still
            # carry the old import pids and statenvs, which the linker
            # rightly rejects.  Stubs resolve by (pid, index), not by
            # name, so this works only for a record with no stub into
            # the changed provider.  One that has such a stub names the
            # superseded pid, which the session has retired; the load
            # then fails and ``load`` recompiles the unit as stale.
            return "load", ""
        if self.is_live_and_current(name, record):
            return "cached", ""
        return "load", ""

    # -- the slice check ---------------------------------------------------

    def _stale_use(self, record: BinRecord,
                   imports: list[CompiledUnit]) -> str | None:
        """Why the record is stale at slice granularity, or None when
        every binding this unit uses is unchanged.

        Only imports whose whole-interface pid differs from the record
        are examined (a stable pid means no binding of it moved, so
        sliced reuse can never be narrower than cutoff reuse).  Missing
        slice data -- a changed edge absent from ``used_bindings``, or
        an empty recorded binding pid -- is conservative: recompile.
        """
        if [n for n, _ in record.imports] != [u.name for u in imports]:
            return "import set changed"
        prior_pids = dict(record.imports)
        for unit in imports:
            if prior_pids[unit.name] == unit.export_pid:
                continue  # whole pid stable: none of its bindings moved
            used = record.used_bindings.get(unit.name)
            if not used:
                return (f"{unit.name} changed "
                        f"(no slice data, whole-pid fallback)")
            provider_record = self.store.get(unit.name)
            live_pids = (provider_record.binding_pids
                         if provider_record is not None
                         else unit.binding_pids)
            for key in sorted(used):
                old_pid = used[key]
                if not old_pid:
                    return (f"{unit.name} changed "
                            f"(no slice data, whole-pid fallback)")
                if live_pids.get(key, "") != old_pid:
                    _ns, _, binding_name = key.partition(":")
                    return (f"used binding changed: "
                            f"{unit.name}.{binding_name}")
        return None
