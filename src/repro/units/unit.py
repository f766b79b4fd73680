"""Compilation-unit records."""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.lang import ast
from repro.pickle.pickler import Unpickler, UnpickleError
from repro.semant.env import Env

if TYPE_CHECKING:  # the dynamic semantics load only to run a unit
    from repro.dynamic.values import DynEnv, VFunctor, VStruct


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


class UnitDecodeError(UnpickleError):
    """A header-backed unit's payload failed to decode on first demand.

    ``unit`` is the unit whose own payload failed -- when a dependent's
    demand decodes its imports first, that is the import, not the
    dependent -- and ``cause`` the underlying
    :class:`~repro.pickle.UnpickleError` (an
    :class:`~repro.pickle.UnresolvedStubError` when a stub names a pid
    the session does not know)."""

    def __init__(self, unit: "CompiledUnit", cause: UnpickleError):
        super().__init__(f"{unit.name}: {cause}")
        self.unit = unit
        self.cause = cause


def layer_context(session, imports: list["CompiledUnit"]) -> Env:
    """Build the compilation context: import environments layered over
    the pervasive basis, in import order (later imports shadow)."""
    env = session.basis.static_env
    for unit in imports:
        env = unit.static_env.atop(env)
    return env


class CompiledUnit:
    """The in-memory form of a compiled or loaded unit: the paper's
    ``statenv × code × imports × exports`` (§3).

    Its *header* is what a bin record carries: ``name``, ``export_pid``,
    ``imports`` (``(unit name, export pid)`` per unit it was compiled
    against, in context order -- the paper's import pid list, which the
    linker checks and the cutoff manager compares), ``payload`` (the
    dehydrated ``(static_env, code)`` bytes, the bin-file body),
    ``source_digest`` and ``binding_pids`` (per-exported-binding pids,
    ``"ns:name" -> pid``; empty for stable-library units).  Pids decide
    every build question, so the header is all a build needs to reuse
    a unit.

    Its *decoded parts* are what compiling a dependent, linking or
    running needs: ``static_env`` (the exported static environment, one
    frame), ``code`` (the elaborated declarations, "closed machine
    code"), ``export_index`` (locally-owned stamped objects in
    dehydration order; entry *i* is what stubs ``(export_pid, i)``
    refer to) and, derived from it, ``owned_stamp_ids``.

    :func:`~repro.units.pipeline.compile_unit` makes both at once.
    :func:`~repro.units.pipeline.load_unit` makes a *header-backed*
    unit: its decoded parts come from the payload the first time one of
    them is read, through :meth:`decode`, and so does the registration
    of its exports with the session.
    """

    def __init__(self, name: str, export_pid: str,
                 imports: list[tuple[str, str]],
                 static_env: Env | None = None,
                 code: list[ast.Dec] | None = None,
                 payload: bytes = b"",
                 export_index: list[object] | None = None,
                 source_digest: str = "",
                 times: PhaseTimes | None = None,
                 binding_pids: dict[str, str] | None = None):
        self.name = name
        self.export_pid = export_pid
        self.imports = imports
        self.payload = payload
        self.source_digest = source_digest
        self.times = times if times is not None else PhaseTimes()
        self.binding_pids = binding_pids if binding_pids is not None \
            else {}
        self._static_env = static_env
        self._code = code
        self._export_index = export_index if export_index is not None \
            else []
        #: ``(import cells, session, meter)`` until decoded; each cell
        #: is an import's :meth:`lineage` cell.
        self._pending: tuple | None = None
        #: One cell shared by this unit and every unit that replaced it
        #: under the same pid, holding the latest (see
        #: :meth:`replace_with`); made on first use.
        self._lineage: list[CompiledUnit] | None = None

    @classmethod
    def header_backed(cls, name: str, export_pid: str,
                      imports: list["CompiledUnit"], payload: bytes,
                      session, meter, source_digest: str = "",
                      binding_pids: dict[str, str] | None = None
                      ) -> "CompiledUnit":
        """A unit that decodes ``payload`` on first demand, in
        ``session``, after ``imports`` (the live units it was compiled
        against, whose exports its stubs name).  It stands for its pid
        in the session at once: a stub naming that pid decodes it."""
        unit = cls(name, export_pid,
                   [(imp.name, imp.export_pid) for imp in imports],
                   payload=payload, source_digest=source_digest,
                   binding_pids=dict(binding_pids or {}))
        unit._pending = ([imp.lineage() for imp in imports], session,
                         meter)
        session.defer(unit)
        return unit

    # -- the decoded parts ------------------------------------------------

    @property
    def decoded(self) -> bool:
        return self._pending is None

    @property
    def static_env(self) -> Env:
        self.decode()
        return self._static_env

    @property
    def code(self) -> list[ast.Dec]:
        self.decode()
        return self._code

    @property
    def export_index(self) -> list[object]:
        self.decode()
        return self._export_index

    @property
    def owned_stamp_ids(self) -> frozenset[int]:
        """The stamps of the objects this unit exports: what a pickler
        over its parts writes inline rather than as stubs."""
        return frozenset(obj.stamp.id for obj in self.export_index)

    def decode(self) -> None:
        """Decode the payload, once: first every undecoded unit of the
        import closure, imports before importers, then this unit.  Each
        registers its exports with the session if it still stands for
        its pid there (a retired or replaced unit never does).

        A payload that does not decode raises :class:`UnitDecodeError`
        naming the unit it belongs to, which stays undecoded and no
        longer stands for its pid."""
        if self._pending is None:
            return
        for unit in self._undecoded_closure():
            unit._decode_own()

    def _undecoded_closure(self) -> list["CompiledUnit"]:
        """This unit and its undecoded transitive imports, imports
        first.  Iterative, so a deep import chain costs no recursion."""
        order: list[CompiledUnit] = []
        seen: set[int] = set()
        stack: list[tuple[CompiledUnit, bool]] = [(self, False)]
        while stack:
            unit, expanded = stack.pop()
            if expanded:
                order.append(unit)
                continue
            if unit._pending is None or id(unit) in seen:
                continue
            seen.add(id(unit))
            stack.append((unit, True))
            for cell in reversed(unit._pending[0]):
                stack.append((cell[0], False))
        return order

    def _decode_own(self) -> None:
        _imports, session, meter = self._pending
        # Off the deferred map while decoding: a stub naming this very
        # pid (only a corrupt payload has one) must not decode it again.
        stands = session.undefer(self)
        t0 = time.perf_counter()
        with meter.span("rehydrate", cat="phase", unit=self.name,
                        bytes=len(self.payload)):
            try:
                unpickler = Unpickler(self.payload, resolve=session.resolve)
                self._static_env, self._code = unpickler.run()
            except UnitDecodeError:
                # Another unit's payload failed under a stub of ours:
                # once that one is mended, this one may decode.
                if stands:
                    session.defer(self)
                raise
            except UnpickleError as err:
                raise UnitDecodeError(self, err) from err
        self.times.rehydrate += time.perf_counter() - t0
        if meter.enabled:
            meter.counter("pickle.bytes_in", unpickler.bytes_in)
        self._export_index = unpickler.export_index
        self._pending = None
        if stands:
            session.register_exports(self.export_pid, self._export_index)

    # -- replacement ------------------------------------------------------

    def lineage(self) -> list["CompiledUnit"]:
        """The cell a header-backed dependent holds this unit by: it
        holds whichever unit replaced this one under the same pid, so
        the dependent decodes against that one and keeps no replaced
        unit alive."""
        if self._lineage is None:
            self._lineage = [self]
        return self._lineage

    def replace_with(self, unit: "CompiledUnit") -> None:
        """Record that ``unit``, of the same pid, replaced this one."""
        cell = self.lineage()
        cell[0] = unit
        unit._lineage = cell

    def adopt_exports(self, previous: "CompiledUnit") -> None:
        """Take ``previous``'s decoded export objects (same pid): units
        already elaborated against them keep meeting the same ones."""
        self.decode()
        self._static_env = previous.static_env
        self._export_index = previous.export_index

    def import_pid_of(self, name: str) -> str | None:
        for unit_name, pid in self.imports:
            if unit_name == name:
                return pid
        return None

    def __repr__(self) -> str:
        state = "decoded" if self.decoded else "header-backed"
        return (f"<unit {self.name} {self.export_pid[:12]} "
                f"{state}, {len(self.payload)} B>")


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
