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

Per the paper's footnote 4, the IRM requires separately compiled units to
contain structures, functors and signatures -- not top-level values and
types; :func:`analyze` enforces this.
"""

from __future__ import annotations

import heapq
from collections.abc import Iterator, Mapping
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, NamedTuple

from repro.lang import ast
from repro.lang.freevars import (MODULE_NAMESPACES, Mentions, binding_key,
                                 defined_module_names, module_level_mentions,
                                 split_binding_key, uses_from_mentions)
from repro.lang.parser import parse_program
from repro.cm.project import Project
from repro.units.pipeline import source_digest

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
    """unit -> parsed declarations, filled when read.

    A unit whose summary came from the memo or a bin header was not
    parsed during analysis; reading it parses the exact source text the
    analysis summarized, once.
    """

    def __init__(self):
        self._sources: dict[str, str] = {}
        self._decs: dict[str, list[ast.Dec]] = {}

    def add(self, name: str, source: str,
            decs: list[ast.Dec] | None) -> None:
        self._sources[name] = source
        if decs is not None:
            self._decs[name] = decs

    def __getitem__(self, name: str) -> list[ast.Dec]:
        decs = self._decs.get(name)
        if decs is None:
            decs = self._decs[name] = parse_program(self._sources[name])
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
        parsed: unit -> parsed declarations, for the static analyzer.
            Filled on demand: a unit summarized from the memo or a bin
            header is parsed when first read.  Compiles parse their own
            source.
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
    summary, and the declarations when this process parsed them."""

    source: str
    summary: DepSummary
    decs: list[ast.Dec] | None


def memo_summary(cache: dict, name: str, source: str) -> DepSummary | None:
    """The memoized summary of ``name`` if it was taken from ``source``."""
    memo = cache.get(name)
    if memo is None or memo.source != source:
        return None
    return memo.summary


def analyze(project: Project, restrict: list[str] | None = None,
            visible: dict[str, set[str]] | None = None,
            cache: dict | None = None,
            extra_providers: dict[str, str] | None = None,
            store: BinStore | None = None) -> DepGraph:
    """Build the dependency graph of ``project``.

    Args:
        project: the sources.
        restrict: consider only these units (used by group builds).
        visible: optional map unit -> set of units it may import; an edge
            outside the set is a :class:`DependencyError` (group/library
            visibility enforcement).
        cache: optional per-builder dictionary; summaries are memoized by
            source text, so a rebuild only re-analyzes edited files.
        extra_providers: module name -> providing unit, for units that
            exist outside the project's sources (stable libraries); edges
            to them appear in ``deps`` but not in the build ``order``.
        store: optional bin store of earlier sessions; a unit missing
            from ``cache`` whose source digest equals its record's takes
            the summary from the record header instead of being parsed.
    """
    names = restrict if restrict is not None else project.names()
    graph = DepGraph()

    #: module name -> defining unit
    providers: dict[str, str] = dict(extra_providers or {})
    external_units = set(providers.values())
    summaries: dict[str, DepSummary] = {}
    for name in names:
        source = project.source(name)
        summary, decs = _summarize(name, source, cache, store)
        graph.parsed.add(name, source, decs)
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


def _summarize(name: str, source: str, cache: dict | None,
               store: BinStore | None
               ) -> tuple[DepSummary, list[ast.Dec] | None]:
    """``name``'s summary, cheapest first: the memo (same source text),
    its bin record's header (same source digest), or a parse.  Returns
    the declarations too when this call or the memo parsed them.

    A record is only ever written for a source that was parsed and
    passed :func:`_check_module_only`, so a header summary needs no
    further check."""
    memo = cache.get(name) if cache is not None else None
    if memo is not None and memo.source == source:
        return memo.summary, memo.decs
    record = store.get(name) if store is not None else None
    if (record is not None and record.dep_summary is not None
            and record.source_digest == source_digest(source)):
        summary, decs = record.dep_summary, None
    else:
        decs = parse_program(source)
        _check_module_only(name, decs)
        summary = DepSummary.of_decs(decs)
    if cache is not None:
        cache[name] = _Memo(source, summary, decs)
    return summary, decs


def _check_module_only(name: str, decs: list[ast.Dec]) -> None:
    for dec in decs:
        if not isinstance(dec, _MODULE_DECS):
            raise DependencyError(
                f"unit {name}: separately compiled units may contain only "
                f"structure/signature/functor declarations, found "
                f"{type(dec).__name__}")
        if isinstance(dec, ast.LocalDec):
            _check_module_only(name, dec.public)


def _topo_order(names: list[str], deps: dict[str, list[str]]) -> list[str]:
    """Stable topological sort: Kahn's algorithm over in-degree
    counters, taking the alphabetically smallest ready unit first.

    Dependencies outside ``names`` (stable-library units, already live)
    do not gate ordering.
    """
    name_set = set(names)
    waiting: dict[str, int] = {}
    dependents: dict[str, list[str]] = {name: [] for name in names}
    for name in names:
        gates = {d for d in deps[name] if d in name_set}
        waiting[name] = len(gates)
        for dep in gates:
            dependents[dep].append(name)
    ready = [name for name, gates in waiting.items() if not gates]
    heapq.heapify(ready)
    order: list[str] = []
    while ready:
        node = heapq.heappop(ready)
        order.append(node)
        for name in dependents[node]:
            waiting[name] -= 1
            if not waiting[name]:
                heapq.heappush(ready, name)
    if len(order) < len(waiting):
        stuck = {name for name, gates in waiting.items() if gates}
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
