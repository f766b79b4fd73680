"""Source-level dependency analysis.

"The IRM analyzes dependencies at several levels.  ... it uses the free
structure names to determine which units each unit depends on."  We
summarize each unit -- the module-level names it defines, and those it
mentions but does not define -- and resolve the mentions to the units
that define them.

A summary is a pure function of the source text.  It is memoized in
process by source text, and persisted in each bin record's header, so a
later session parses only the sources whose digest no longer matches
their record (§9: "the dependency information for each of the library's
files [is] computed and cached").

Each source is parsed once.  The memo owns the tree the analysis parsed
until the first compile of that exact text takes it (:func:`take_tree`);
from then on the tree is the compiled unit's code, and the memo keeps
only the summary.

Per the paper's footnote 4, the IRM requires separately compiled units to
contain structures, functors and signatures -- not top-level values and
types; :func:`analyze` enforces this.

Units are ordered by one scheduler, :class:`ReadySet`: :func:`analyze`
drains it smallest ready name first into :attr:`DepGraph.order` (the
serial build order, and the cycle report when it stalls), and the build
pump (:mod:`repro.cm.supervise`) drains a fresh one as units land.
"""

from __future__ import annotations

import heapq
import time
from collections.abc import Iterator, Mapping
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, NamedTuple

from repro.lang import ast
from repro.lang.freevars import (MODULE_NAMESPACES, Mentions, binding_key,
                                 defined_module_names, module_level_mentions,
                                 split_binding_key, uses_from_mentions)
from repro.lang.parser import parse_program
from repro.cm.project import Project
from repro.obs.meter import NULL_METER, BuildMeter
from repro.units.pipeline import ParseTree, source_digest

if TYPE_CHECKING:  # repro.cm.store imports this module
    from repro.cm.store import BinStore


class DependencyError(Exception):
    """Unresolvable or cyclic inter-unit dependencies, or a unit that
    violates the module-declarations-only rule.

    When the failure is a dependency cycle, ``cycle`` holds one concrete
    closed path (``[A, B, A]``); otherwise it is None.
    """

    def __init__(self, message: str, cycle: list[str] | None = None):
        super().__init__(message)
        self.cycle = cycle


#: Declarations allowed at the top level of a compilation unit.
_MODULE_DECS = (ast.StructureDec, ast.SignatureDec, ast.FunctorDec,
                ast.LocalDec, ast.FixityDec)


@dataclass(frozen=True)
class DepSummary:
    """What dependency analysis takes from one unit's source.

    Attributes:
        defined: namespace -> module names the unit's top level defines.
        mentioned: the module-level names it mentions but does not
            define (only the :data:`MODULE_NAMESPACES` slices are set).
    """

    defined: dict[str, set[str]]
    mentioned: Mentions

    @classmethod
    def of_decs(cls, decs: list[ast.Dec]) -> "DepSummary":
        return cls(defined_module_names(decs), module_level_mentions(decs))

    def to_json(self) -> dict[str, list[str]]:
        """The canonical bin-header form: sorted ``"ns:name"`` binding
        keys, so an empty namespace leaves no trace."""

        def keys(by_ns: dict[str, set[str]]) -> list[str]:
            return sorted(binding_key(ns, name)
                          for ns, names in by_ns.items() for name in names)

        return {"defines": keys(self.defined),
                "mentions": keys(self.mentioned.module_names())}

    @classmethod
    def from_json(cls, value) -> "DepSummary":
        """Inverse of :meth:`to_json`; raises :class:`ValueError` on
        anything :meth:`to_json` cannot have written."""
        parts = ("defines", "mentions")
        if not (isinstance(value, dict) and set(value) == set(parts)):
            raise ValueError("not a {defines, mentions} table")
        tables = {part: {ns: set() for ns in MODULE_NAMESPACES}
                  for part in parts}
        for part, table in tables.items():
            keys = value[part]
            if not (isinstance(keys, list)
                    and all(isinstance(key, str) for key in keys)
                    and keys == sorted(set(keys))):
                raise ValueError(f"{part} is not a sorted list of "
                                 f"distinct keys")
            for key in keys:
                ns, name = split_binding_key(key)
                if ns not in table or not name:
                    raise ValueError(f"{part} has a bad key {key!r}")
                table[ns].add(name)
        return cls(tables["defines"], Mentions(**tables["mentions"]))


class ParsedUnits(Mapping):
    """unit -> parsed declarations, for the static analyzer.

    Reading a unit returns the dependency memo's tree while the memo
    holds one, without keeping it: a compile takes the tree and
    annotates it in place.  Otherwise -- the unit was compiled, or its
    summary came from a bin header -- reading it parses the exact
    source text the analysis summarized, once.
    """

    def __init__(self, memo: dict | None = None):
        self._memo = memo if memo is not None else {}
        self._sources: dict[str, str] = {}
        self._decs: dict[str, list[ast.Dec]] = {}

    def add(self, name: str, source: str) -> None:
        self._sources[name] = source

    def __getitem__(self, name: str) -> list[ast.Dec]:
        decs = self._decs.get(name)
        if decs is None:
            source = self._sources[name]
            memo = self._memo.get(name)
            if (memo is not None and memo.tree is not None
                    and memo.source == source):
                return memo.tree.decs
            decs = self._decs[name] = parse_program(source)
        return decs

    def __contains__(self, name: object) -> bool:
        return name in self._sources  # a membership test parses nothing

    def __iter__(self) -> Iterator[str]:
        return iter(self._sources)

    def __len__(self) -> int:
        return len(self._sources)


@dataclass
class DepGraph:
    """The project's dependency structure.

    Attributes:
        deps: unit -> sorted list of units it imports.
        dependents: unit -> sorted list of units importing it.
        order: a topological order (imports before importers).
        parsed: unit -> parsed declarations, for the static analyzer
            (:class:`ParsedUnits`).  It keeps no tree a compile takes: a
            unit compiled since the analysis, or summarized from a bin
            header, is parsed again when first read.
    """

    deps: dict[str, list[str]] = field(default_factory=dict)
    dependents: dict[str, list[str]] = field(default_factory=dict)
    order: list[str] = field(default_factory=list)
    parsed: ParsedUnits = field(default_factory=ParsedUnits)
    #: unit -> provider unit -> the "ns:name" keys it mentions; the smart
    #: builder's per-name dependency data.
    uses: dict[str, dict[str, set[str]]] = field(default_factory=dict)

    def transitive_dependents(self, name: str) -> set[str]:
        out: set[str] = set()
        frontier = [name]
        while frontier:
            node = frontier.pop()
            for dep in self.dependents.get(node, ()):  # direct importers
                if dep not in out:
                    out.add(dep)
                    frontier.append(dep)
        return out


class _Memo(NamedTuple):
    """One dependency-memo entry: the source text it summarizes, the
    summary, and the tree when this process parsed that text and no
    compile has taken it yet (:func:`take_tree`)."""

    source: str
    summary: DepSummary
    tree: ParseTree | None


def memo_summary(cache: dict, name: str, source: str) -> DepSummary | None:
    """The memoized summary of ``name`` if it was taken from ``source``."""
    memo = cache.get(name)
    if memo is None or memo.source != source:
        return None
    return memo.summary


def take_tree(cache: dict, name: str, source: str) -> ParseTree | None:
    """Hand the memo's tree of ``name`` to a compile of ``source``, or
    None when the memo holds none for that exact text.

    The memo lets go of it: the elaborator annotates a tree in place,
    so it goes to one compile attempt only, and every later compile of
    the same text (a retry, a mend, a recompile against new imports)
    parses afresh."""
    memo = cache.get(name)
    if memo is None or memo.tree is None or memo.source != source:
        return None
    cache[name] = memo._replace(tree=None)
    return memo.tree


def analyze(project: Project, restrict: list[str] | None = None,
            visible: dict[str, set[str]] | None = None,
            cache: dict | None = None,
            extra_providers: dict[str, str] | None = None,
            store: BinStore | None = None,
            meter: BuildMeter = NULL_METER) -> DepGraph:
    """Build the dependency graph of ``project``.

    Args:
        project: the sources.
        restrict: consider only these units (used by group builds).
        visible: optional map unit -> set of units it may import; an edge
            outside the set is a :class:`DependencyError` (group/library
            visibility enforcement).
        cache: optional per-builder dictionary; summaries are memoized by
            source text, so a rebuild only re-analyzes edited files, and
            each parsed tree waits there for its compile
            (:func:`take_tree`).
        extra_providers: module name -> providing unit, for units that
            exist outside the project's sources (stable libraries); edges
            to them appear in ``deps`` but not in the build ``order``.
        store: optional bin store of earlier sessions; a unit missing
            from ``cache`` whose source digest equals its record's takes
            the summary from the record header instead of being parsed.
        meter: observes each parse as a ``parse`` phase span.
    """
    names = restrict if restrict is not None else project.names()
    cache = cache if cache is not None else {}
    graph = DepGraph(parsed=ParsedUnits(cache))

    #: module name -> defining unit
    providers: dict[str, str] = dict(extra_providers or {})
    external_units = set(providers.values())
    summaries: dict[str, DepSummary] = {}
    for name in names:
        source = project.source(name)
        summary = _summarize(name, source, cache, store, meter)
        graph.parsed.add(name, source)
        summaries[name] = summary
        for module_names in summary.defined.values():
            for module_name in module_names:
                other = providers.get(module_name)
                if other is not None and other != name:
                    raise DependencyError(
                        f"module {module_name} is defined by both {other} "
                        f"and {name}")
                providers[module_name] = name

    for name in names:
        # The shared use-set computation (repro.analysis.scopes): the
        # per-binding keys double as the dependency edges.
        uses = uses_from_mentions(summaries[name].mentioned, providers, name)
        deps = set(uses)
        graph.uses[name] = uses
        if visible is not None:
            bad = deps - visible.get(name, set()) - external_units
            if bad:
                raise DependencyError(
                    f"unit {name} imports {sorted(bad)} outside its "
                    f"group's visibility")
        graph.deps[name] = sorted(deps)
        graph.dependents.setdefault(name, [])

    for name in names:
        for dep in graph.deps[name]:
            graph.dependents.setdefault(dep, []).append(name)
    for name in graph.dependents:
        graph.dependents[name].sort()

    graph.order = _topo_order(names, graph.deps)
    return graph


def _summarize(name: str, source: str, cache: dict,
               store: BinStore | None, meter: BuildMeter) -> DepSummary:
    """``name``'s summary, cheapest first: the memo (same source text),
    its bin record's header (same source digest), or a parse, whose
    tree the memo keeps for the compile.

    A record is only ever written for a source that was parsed and
    passed :func:`_check_module_only`, so a header summary needs no
    further check."""
    memo = cache.get(name)
    if memo is not None and memo.source == source:
        return memo.summary
    record = store.get(name) if store is not None else None
    if (record is not None and record.dep_summary is not None
            and record.source_digest == source_digest(source)):
        summary, tree = record.dep_summary, None
    else:
        t0 = time.perf_counter()
        with meter.span("parse", cat="phase", unit=name):
            decs = parse_program(source)
        tree = ParseTree(decs, time.perf_counter() - t0)
        _check_module_only(name, decs)
        summary = DepSummary.of_decs(decs)
    cache[name] = _Memo(source, summary, tree)
    return summary


def _check_module_only(name: str, decs: list[ast.Dec]) -> None:
    for dec in decs:
        if not isinstance(dec, _MODULE_DECS):
            raise DependencyError(
                f"unit {name}: separately compiled units may contain only "
                f"structure/signature/functor declarations, found "
                f"{type(dec).__name__}")
        if isinstance(dec, ast.LocalDec):
            _check_module_only(name, dec.public)


class ReadySet:
    """In-degree counters over a dependency map: which units have every
    in-graph import completed.

    The build driver's one scheduler.  :func:`_topo_order` drains it
    through a heap, smallest ready name first, for the serial build
    order; the build pump (:mod:`repro.cm.supervise`) drains it through
    a FIFO queue for its dispatch order.  ``roots`` lists, sorted, the
    units that wait on nothing; :meth:`complete` retires a unit and
    returns, sorted, the dependents it was the last gate for.  Imports
    outside ``names`` (stable-library units, already live) never gate.

    So every unit is released once, and only after ``complete`` was
    called for each of its in-graph imports; completing a unit again
    releases nothing.  Completion means "this unit's fate is settled"
    -- compiled, loaded, cached, failed or skipped all count, which is
    how the supervisor propagates poison without deadlocking.
    """

    def __init__(self, names: list[str], deps: dict[str, list[str]]):
        in_graph = set(names)
        #: unit -> number of in-graph imports not yet completed.
        self._waiting: dict[str, int] = {}
        #: unit -> its in-graph importers, sorted (filled in name
        #: order); popped when the unit completes.
        self._dependents: dict[str, list[str]] = {name: [] for name in names}
        for name in sorted(names):
            gates = [dep for dep in deps[name] if dep in in_graph]
            self._waiting[name] = len(gates)
            for dep in gates:
                self._dependents[dep].append(name)
        self.roots: list[str] = [
            name for name, gates in self._waiting.items() if not gates]

    def complete(self, name: str) -> list[str]:
        """Retire ``name``; returns the units this made ready (sorted)."""
        waiting = self._waiting
        released = []
        for dependent in self._dependents.pop(name, ()):
            waiting[dependent] -= 1
            if not waiting[dependent]:
                released.append(dependent)
        return released

    def stuck(self) -> set[str]:
        """The units an in-graph import still gates: once nothing more
        can be released, the units on or behind a cycle."""
        return {name for name, gates in self._waiting.items() if gates}


def _topo_order(names: list[str], deps: dict[str, list[str]]) -> list[str]:
    """Stable topological sort: Kahn's algorithm over a
    :class:`ReadySet`, taking the alphabetically smallest ready unit
    first.

    Dependencies outside ``names`` (stable-library units, already live)
    do not gate ordering.
    """
    ready = ReadySet(names, deps)
    heap = list(ready.roots)  # sorted, so already a heap
    order: list[str] = []
    while heap:
        node = heapq.heappop(heap)
        order.append(node)
        for name in ready.complete(node):
            heapq.heappush(heap, name)
    stuck = ready.stuck()
    if stuck:
        cycle = find_cycle({name: {d for d in deps[name] if d in stuck}
                            for name in stuck})
        raise DependencyError(
            f"dependency cycle among units: {format_cycle(cycle)}",
            cycle=cycle)
    return order


def find_cycle(deps: dict[str, "set[str] | list[str]"]) -> list[str]:
    """One concrete closed dependency path in ``deps``.

    ``deps`` maps node -> nodes it depends on; every node must have at
    least one dependency inside ``deps`` (true for the stuck set of a
    topological sort, where every remaining unit waits on a remaining
    unit).  Returns ``[A, B, ..., A]``; deterministic (smallest names
    first).
    """
    start = min(deps)
    path = [start]
    index = {start: 0}
    node = start
    while True:
        node = min(d for d in deps[node] if d in deps)
        if node in index:
            return path[index[node]:] + [node]
        index[node] = len(path)
        path.append(node)


def format_cycle(cycle: list[str]) -> str:
    """Render a closed path the way every cycle report should:
    ``A -> B -> A``."""
    return " -> ".join(cycle)
