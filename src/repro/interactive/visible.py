"""The Visible Compiler: the compiler as a library (§8).

"We have re-engineered the interface of the SML/NJ compiler to provide
[the primitives] described in this paper" -- compile, execute,
dehydrate/rehydrate, and pid extraction -- "so that a compilation manager
can be layered on top".  :class:`VisibleCompiler` is that interface: the
IRM builders, the REPL, the benchmarks, and user programs (see
``examples/``) are all clients of these same primitives.
"""

from __future__ import annotations

from repro.units.pipeline import (
    compile_unit,
    execute_unit,
    layer_context,
    load_unit,
    source_digest,
)
from repro.units.session import Session
from repro.units.unit import CompiledUnit, DynExport


class VisibleCompiler:
    """First-class access to the compiler primitives over one session.

    Typical metaprogramming use (mirroring the paper's examples: theorem
    provers keeping sources out of files, custom library systems)::

        vc = VisibleCompiler()
        base = vc.compile("base", "structure S = struct ... end", [])
        client = vc.compile("client", "structure T = ...", [base])
        exports = vc.execute_all([base, client])
    """

    def __init__(self, session: Session | None = None):
        self.session = session if session is not None else Session()
        self._dyn: dict[str, DynExport] = {}

    # -- the paper's primitives ---------------------------------------------

    def compile(self, name: str, source: str,
                imports: list[CompiledUnit]) -> CompiledUnit:
        """``compile : source × statenv → codeUnit`` (the statenv is the
        layering of the imports over the pervasive basis)."""
        return compile_unit(name, source, imports, self.session)

    def execute(self, unit: CompiledUnit) -> DynExport:
        """``execute : codeUnit × dynenv → dynenv``.  The imports must
        have been executed through this compiler already."""
        dyn_imports = [self._dyn[i] for i, _pid in unit.imports]
        export = execute_unit(unit, dyn_imports, self.session)
        self._dyn[unit.name] = export
        return export

    def execute_all(self, units: list[CompiledUnit]) -> dict[str, DynExport]:
        for unit in units:
            self.execute(unit)
        return dict(self._dyn)

    def export_pid(self, unit: CompiledUnit) -> str:
        """The unit's intrinsic pid (already computed at compile time)."""
        return unit.export_pid

    def import_pids(self, unit: CompiledUnit) -> list[tuple[str, str]]:
        return list(unit.imports)

    def dehydrate(self, unit: CompiledUnit) -> bytes:
        """The unit's bin-file payload."""
        return unit.payload

    def rehydrate(self, name: str, pid: str, payload: bytes,
                  imports: list[CompiledUnit],
                  source_text: str = "") -> CompiledUnit:
        """Load a bin payload produced earlier (possibly by another
        session over the same sources).  The unit decodes the payload
        when first compiled against or executed."""
        digest = source_digest(source_text) if source_text else ""
        return load_unit(name, pid, imports, payload, self.session, digest)

    def context_env(self, imports: list[CompiledUnit]):
        """The static environment a unit with these imports sees."""
        return layer_context(self.session, imports)
