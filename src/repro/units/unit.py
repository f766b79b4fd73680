"""Compilation-unit records."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.dynamic.values import DynEnv, VFunctor, VStruct
from repro.lang import ast
from repro.semant.env import Env


@dataclass
class PhaseTimes:
    """Wall-clock seconds per compilation phase (benchmark T1's data)."""

    parse: float = 0.0
    elaborate: float = 0.0
    hash: float = 0.0
    dehydrate: float = 0.0
    rehydrate: float = 0.0
    execute: float = 0.0

    def compile_total(self) -> float:
        return self.parse + self.elaborate

    def overhead_total(self) -> float:
        return self.hash + self.dehydrate + self.rehydrate


@dataclass
class CompiledUnit:
    """The in-memory form of a compiled (or rehydrated) unit.

    Attributes:
        name: the unit's name (its source file, sans extension).
        export_pid: intrinsic pid of the exported static environment.
        imports: (unit name, export pid) for each unit this one was
            compiled against, in context order.  This is the paper's
            "import pid list" -- the linker checks it, and the cutoff
            manager compares it.
        static_env: the exported static environment (one frame).
        code: the elaborated declarations ("closed machine code").
        payload: the dehydrated (static_env, code) bytes -- the bin-file
            body.
        export_index: locally-owned stamped objects in dehydration order;
            entry *i* is what stubs ``(export_pid, i)`` refer to.
        source_digest: hash of the source text, for make-level currency.
        times: per-phase wall-clock timings.
    """

    name: str
    export_pid: str
    imports: list[tuple[str, str]]
    static_env: Env
    code: list[ast.Dec]
    payload: bytes
    export_index: list[object] = field(default_factory=list)
    source_digest: str = ""
    times: PhaseTimes = field(default_factory=PhaseTimes)
    #: Stamp ids this unit owns (for re-dehydrating pieces of it, e.g.
    #: the per-binding slice pids).
    owned_stamp_ids: frozenset[int] = frozenset()
    #: Per-exported-binding intrinsic pids ("ns:name" -> pid), computed
    #: at compile time (:func:`repro.pids.intrinsic.binding_pids`) and
    #: carried through bin records; empty for stable-library units,
    #: whose archives carry none.
    binding_pids: dict[str, str] = field(default_factory=dict)

    def import_pid_of(self, name: str) -> str | None:
        for unit_name, pid in self.imports:
            if unit_name == name:
                return pid
        return None


class DynExport:
    """A unit's dynamic export: its top-level bindings.

    This is the "vector of exported values" of the paper's model; one
    entry per unit, keyed by the unit's pid at link time.
    """

    __slots__ = ("unit_name", "values", "structures", "functors")

    def __init__(self, unit_name: str, frame: DynEnv):
        self.unit_name = unit_name
        self.values: dict[str, object] = dict(frame.values)
        self.structures: dict[str, VStruct] = dict(frame.structures)
        self.functors: dict[str, VFunctor] = dict(frame.functors)

    def splice_into(self, env: DynEnv) -> None:
        env.values.update(self.values)
        env.structures.update(self.structures)
        env.functors.update(self.functors)

    def __repr__(self) -> str:
        return (f"<dynexport {self.unit_name}: {len(self.values)} values, "
                f"{len(self.structures)} structures, "
                f"{len(self.functors)} functors>")
