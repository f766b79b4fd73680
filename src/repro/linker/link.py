"""The type-safe linker."""

from __future__ import annotations

from repro.units.pipeline import execute_unit
from repro.units.session import Session
from repro.units.unit import CompiledUnit, DynExport


class LinkError(Exception):
    """An import pid does not match the corresponding export pid.

    This is the paper's "makefile bug" made loud: some unit was compiled
    against an interface that is no longer the one being linked.
    """


def check_consistency(units: list[CompiledUnit]) -> None:
    """Verify that every import pid matches the provider's export pid.

    ``units`` must contain each unit exactly once; providers may appear
    anywhere in the list (order-independent check).
    """
    exports: dict[str, str] = {}
    for unit in units:
        if unit.name in exports:
            raise LinkError(f"duplicate unit {unit.name} at link time")
        exports[unit.name] = unit.export_pid
    for unit in units:
        for import_name, import_pid in unit.imports:
            actual = exports.get(import_name)
            if actual is None:
                raise LinkError(
                    f"unit {unit.name} imports {import_name}, which is not "
                    f"being linked")
            if actual != import_pid:
                raise LinkError(
                    f"unit {unit.name} was compiled against "
                    f"{import_name}@{import_pid[:12]}..., but the linked "
                    f"{import_name} exports {actual[:12]}... "
                    f"(stale compilation -- interface changed)")


class Linker:
    """Links and executes a consistent set of units.

    Execution happens in the given order (which must be a topological
    order of the import graph); each unit's code is applied to the
    dynamic exports of its imports, exactly the paper's
    ``execute : codeUnit × dynenv → dynenv`` chain.
    """

    def __init__(self, session: Session):
        self.session = session
        self.dyn_exports: dict[str, DynExport] = {}

    def link(self, units: list[CompiledUnit],
             verify: bool = True) -> dict[str, DynExport]:
        if verify:
            check_consistency(units)
        for unit in units:
            self.execute(unit)
        return self.dyn_exports

    def execute(self, unit: CompiledUnit) -> DynExport:
        dyn_imports = []
        for import_name, _pid in unit.imports:
            dyn = self.dyn_exports.get(import_name)
            if dyn is None:
                raise LinkError(
                    f"unit {unit.name} executed before its import "
                    f"{import_name}")
            dyn_imports.append(dyn)
        export = execute_unit(unit, dyn_imports, self.session)
        self.dyn_exports[unit.name] = export
        return export


class MendingLinker(Linker):
    """The linker over a builder's live units, which may still be
    header-backed: each unit runs as the builder's ``decoded(name)``
    gives it (:meth:`repro.cm.base.BaseBuilder.decoded`), decoded, and
    mended first if its payload failed to decode."""

    def __init__(self, builder):
        super().__init__(builder.session)
        self.builder = builder

    def execute(self, unit: CompiledUnit) -> DynExport:
        return super().execute(self.builder.decoded(unit.name))
