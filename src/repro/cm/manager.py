"""The IRM's cutoff builder -- the paper's contribution (§5, §8).

Decision per unit, in dependency order:

1. *make level*: is the bin file current with respect to the source
   text?  (We use a source digest rather than an mtime so that ``touch``
   without change is already harmless at this level.)
2. *cutoff level*: do the live import pids equal the pids recorded in
   the bin file?  Because pids are intrinsic interface hashes, a
   dependency that was recompiled **without changing its interface**
   leaves its pid unchanged, and this test passes: the cascade stops.

Only if one of the tests fails is the unit recompiled.  Whether its own
pid changed is recorded, feeding the same test for its dependents.
"""

from __future__ import annotations

from repro.cm.base import BaseBuilder
from repro.cm.depend import DepGraph
from repro.cm.make import TimestampBuilder
from repro.cm.smart import SmartBuilder
from repro.cm.store import BinRecord
from repro.units.unit import CompiledUnit


class CutoffBuilder(BaseBuilder):
    """The Incremental Recompilation Manager's cutoff algorithm."""

    def decide(self, name: str, graph: DepGraph,
               imports: list[CompiledUnit],
               record: BinRecord | None) -> tuple[str, str]:
        if record is None:
            # Distinguish a unit that never had a bin file from one
            # whose bin file was quarantined as damaged at store load.
            kinds = self.health.kinds_for(name)
            reason = (f"bin file quarantined ({kinds[0]})" if kinds
                      else "no bin file")
            return "compile", reason
        if not self.source_current(name, record):
            return "compile", "source changed"
        if not self.imports_current(record, imports):
            return "compile", "an imported interface (pid) changed"
        if self.is_live_and_current(name, record):
            return "cached", ""
        return "load", ""


#: The manager table the CLI and the daemon share (``--manager``).
MANAGERS = {
    "cutoff": CutoffBuilder,
    "make": TimestampBuilder,
    "smart": SmartBuilder,
}
