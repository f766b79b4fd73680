"""The session: process-level identity registry for dehydration.

A session owns the pervasive basis and the two maps the pickler plugs
into:

- ``stamp id -> (pid, export index)`` -- consulted by the dehydrater when
  it meets an object the current unit does not own ("which unit exported
  this, and at what index?");
- ``(pid, export index) -> live object`` -- consulted by the rehydrater
  to turn stubs back into pointers.

The basis registers itself under the reserved ``BASIS_PID`` when the
session is created, by dry-running the dehydrater over the pervasive
environment (deterministic, so every session agrees on basis indices).

A long-lived session (a daemon's builder, a pool worker) *retires* a
pid once no live unit exports it: a build that replaces a unit with a
different pid calls :meth:`Session.retire` on the old one, so the maps
hold only live interfaces instead of growing with every interface edit.
That is safe because pids are intrinsic: any unit whose interface
reaches the replaced unit's objects hashes its pid, so it is replaced
in the same build (recompiled or rehydrated afresh) before anything
dehydrates against it; one whose recompile fails is dropped when the
next build starts.  A stub that names a retired pid fails to
resolve, and the builder treats that as a stale record, not damage.
"""

from __future__ import annotations

from repro.basis import BASIS_PID, Basis, make_basis
from repro.pickle.pickler import Pickler


class Session:
    """Identity registry + basis for one compilation process."""

    def __init__(self, basis: Basis | None = None):
        self.basis = basis if basis is not None else make_basis()
        self._stamp_to_ref: dict[int, tuple[str, int]] = {}
        self._ref_to_object: dict[tuple[str, int], object] = {}
        #: pid -> (export count, the stamp ids it claimed in
        #: ``_stamp_to_ref``): what :meth:`retire` must drop.
        self._by_pid: dict[str, tuple[int, list[int]]] = {}
        self._register_basis()

    def _register_basis(self) -> None:
        pickler = Pickler(local_stamp_ids=self.basis.owned_stamp_ids)
        pickler.run(self.basis.static_env)
        self.register_exports(BASIS_PID, pickler.export_index)

    # -- registration ---------------------------------------------------

    def register_exports(self, pid: str, export_index: list[object]) -> None:
        """Record a unit's exported stamped objects under its pid.

        Registering a pid again (a recompile with an unchanged
        interface) points its indices at the new objects and keeps the
        old objects' stamps: units compiled against the old objects
        still dehydrate their references to them."""
        count, claimed = self._by_pid.get(pid, (0, []))
        for index, obj in enumerate(export_index):
            if obj.stamp.id not in self._stamp_to_ref:
                self._stamp_to_ref[obj.stamp.id] = (pid, index)
                claimed.append(obj.stamp.id)
            self._ref_to_object[(pid, index)] = obj
        self._by_pid[pid] = (max(count, len(export_index)), claimed)

    def retire(self, pid: str) -> None:
        """Forget every registration under ``pid`` (a superseded
        interface); stubs naming it no longer resolve."""
        count, claimed = self._by_pid.pop(pid, (0, []))
        for index in range(count):
            del self._ref_to_object[(pid, index)]
        for stamp_id in claimed:
            del self._stamp_to_ref[stamp_id]

    # -- pickler callbacks -------------------------------------------------

    def extern(self, stamp_id: int) -> tuple[str, int]:
        """Dehydration callback: which (pid, index) owns this stamp?"""
        return self._stamp_to_ref[stamp_id]

    def resolve(self, pid: str, index: int):
        """Rehydration callback: the live object for a stub."""
        return self._ref_to_object[(pid, index)]

    def pids(self) -> set[str]:
        """Every registered pid, the basis included."""
        return set(self._by_pid)

    def __repr__(self) -> str:
        return (f"<session {len(self._ref_to_object)} registered objects, "
                f"{len(self._stamp_to_ref)} stamps>")
