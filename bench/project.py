"""The benchmark project, its edit schedule and its oracle.

The project is T5's paper-scale shape -- ``layered([1,20,40,60,50,25,4],
fan_in=3, seed=42)`` with ten helpers per unit, 200 units and about 7k
lines -- plus one probe unit ``main.sml`` that sums ``Mk.value (Mk.make
1)`` over the shape's sink units, so a linked program has one number
that depends on every unit.

The oracle never asks the compiler.  A generated unit's ``make n`` is
``T (n + depsum n + salt)`` where ``depsum n`` sums its imports'
``value (make n)`` (or is ``n`` without imports), so
``f_k = 1 + impl_salt_k + (sum of f_j over k's imports, or 1)`` and
``Main.result`` is the sum of ``f_k`` over the sinks.  Comment and
interface edits leave every ``f_k`` alone; an implementation edit bumps
one salt.
"""

from __future__ import annotations

import os
import random

from repro.workload import generate_workload, layered
from repro.workload.generate import unit_name

#: T5's shape (EXPERIMENTS.md): seven layers, fan-in 3, shape seed 42.
LAYERS = (1, 20, 40, 60, 50, 25, 4)
FAN_IN = 3
SHAPE_SEED = 42
HELPERS = 10

#: Request kinds, in the order results are reported.
KINDS = ("null", "comment", "impl", "iface")

#: The probe unit, and the binding it defines.
PROBE = "main"
RESULT = "Main.result"


def t5_shape() -> list[list[int]]:
    return layered(list(LAYERS), fan_in=FAN_IN, seed=SHAPE_SEED)


class BenchProject:
    """A generated project on disk-ready sources, with the three edit
    operations of :mod:`repro.workload` and an oracle that tracks them."""

    def __init__(self, deps: list[list[int]], helpers: int = HELPERS):
        self.deps = [list(d) for d in deps]
        self._workload = generate_workload(self.deps,
                                           helpers_per_unit=helpers)
        self.impl_salts = [0] * len(self.deps)
        imported = {j for d in self.deps for j in d}
        self.sinks = [k for k in range(len(self.deps)) if k not in imported]
        self.units = [unit_name(k) for k in range(len(self.deps))]
        #: Every unit the compilation manager sees, probe included.
        self.names = sorted(self.units + [PROBE])
        self._dependents: dict[str, set[str]] = {n: set() for n in self.names}
        for k, imports in enumerate(self.deps):
            for j in imports:
                self._dependents[unit_name(j)].add(unit_name(k))
        for k in self.sinks:
            self._dependents[unit_name(k)].add(PROBE)

    # -- sources ------------------------------------------------------------

    def probe_source(self) -> str:
        terms = " + ".join(f"M{k:03d}.value (M{k:03d}.make 1)"
                           for k in self.sinks)
        return f"structure Main = struct\n  val result = {terms}\nend\n"

    def source(self, name: str) -> str:
        if name == PROBE:
            return self.probe_source()
        return self._workload.project.source(name)

    def write(self, directory: str) -> None:
        """Write every source file into ``directory`` (created)."""
        os.makedirs(directory, exist_ok=True)
        for name in self.names:
            self._write_unit(directory, name)

    def _write_unit(self, directory: str, name: str) -> None:
        with open(os.path.join(directory, f"{name}.sml"), "w",
                  encoding="utf-8") as fh:
            fh.write(self.source(name))

    def apply(self, kind: str, name: str | None,
              directory: str | None = None) -> None:
        """Apply one request's edit (``null`` edits nothing) and, given
        a directory, rewrite the edited unit's file there."""
        if kind == "null":
            return
        if kind == "comment":
            self._workload.edit_comment(name)
        elif kind == "impl":
            self._workload.edit_implementation(name)
            self.impl_salts[self.units.index(name)] += 1
        elif kind == "iface":
            self._workload.edit_interface(name)
        else:
            raise ValueError(f"unknown edit kind {kind!r}")
        if directory is not None:
            self._write_unit(directory, name)

    # -- the oracle ---------------------------------------------------------

    def value(self) -> int:
        """``Main.result`` of the current sources."""
        f: list[int] = []
        for k, imports in enumerate(self.deps):
            below = sum(f[j] for j in imports) if imports else 1
            f.append(1 + self.impl_salts[k] + below)
        return sum(f[k] for k in self.sinks)

    def cascade(self, name: str | None) -> set[str]:
        """make's rebuild set for an edit of ``name``: the unit and its
        transitive dependents (empty for a null request)."""
        if name is None:
            return set()
        out = {name}
        frontier = [name]
        while frontier:
            for dependent in self._dependents[frontier.pop()]:
                if dependent not in out:
                    out.add(dependent)
                    frontier.append(dependent)
        return out


def schedule(seed: int, units: list[str]):
    """The request stream for ``seed``: endless blocks of the four kinds
    in shuffled order, each edit aimed at a uniformly drawn unit.  Any
    prefix of whole blocks holds equal numbers of each kind."""
    rng = random.Random(seed)
    while True:
        kinds = list(KINDS)
        rng.shuffle(kinds)
        for kind in kinds:
            yield kind, (None if kind == "null" else rng.choice(units))
