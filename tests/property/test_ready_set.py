"""Property tests for ready-set dispatch.

Three claims, over arbitrary DAGs:

1. The :class:`ReadySet` state machine itself is sound: every unit is
   offered exactly once, never before all its in-graph imports
   completed, and imports outside the graph never gate.
2. A ready-set build's recorded ``dispatch_order`` is a linear
   extension of the dependency graph -- no unit is decided before its
   imports -- and covers every unit exactly once.
3. On random DAGs, a ready-set build produces the same final store
   bytes and export pids as a serial build.

Alongside them, ``depend._topo_order`` (the serial build order) is
checked against the quadratic definition it replaces: among the units
whose in-graph imports are all placed, take the smallest name next.
"""

import os
import shutil
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from repro.cm import (
    BinStore,
    CutoffBuilder,
    DepGraph,
    ReadySet,
    Supervisor,
)
from repro.cm.depend import DependencyError, _topo_order, find_cycle
from repro.workload import generate_workload, random_dag

from tests.helpers import store_files


def graph_from_deps(deps_by_index):
    """A synthetic DepGraph from shape-style deps (no sources needed)."""
    names = [f"u{k:03d}" for k in range(len(deps_by_index))]
    deps = {names[k]: sorted(names[d] for d in deps_by_index[k])
            for k in range(len(names))}
    dependents = {n: [] for n in names}
    for name, imported in deps.items():
        for dep in imported:
            dependents[dep].append(name)
    return DepGraph(deps=deps,
                    dependents={n: sorted(d)
                                for n, d in dependents.items()},
                    order=_topo_order(names, deps))


dags = st.builds(
    random_dag,
    n=st.integers(min_value=1, max_value=24),
    max_deps=st.integers(min_value=1, max_value=5),
    seed=st.integers(min_value=0, max_value=10_000),
)


@given(dags)
@settings(max_examples=120, deadline=None)
def test_ready_set_offers_each_unit_once_after_its_imports(
        deps_by_index):
    graph = graph_from_deps(deps_by_index)
    ready = ReadySet(graph)
    completed: set = set()
    offered: list = []
    while not ready.all_done():
        batch = ready.take()
        assert batch == sorted(batch)
        assert batch, "ready set stalled with units outstanding"
        for name in batch:
            # Never offered before every in-graph import completed.
            for dep in graph.deps[name]:
                assert dep in completed
        offered.extend(batch)
        for name in batch:
            ready.complete(name)
            completed.add(name)
    # Exactly once each, nothing left behind.
    assert sorted(offered) == sorted(graph.order)
    assert len(offered) == len(set(offered))
    assert ready.outstanding() == 0


@given(dags)
@settings(max_examples=60, deadline=None)
def test_ready_set_skips_imports_outside_the_graph(deps_by_index):
    """Stable-library imports (not in the graph) must not gate: drop
    the first unit and every survivor still gets offered."""
    graph = graph_from_deps(deps_by_index)
    if len(graph.order) < 2:
        return
    dropped = graph.order[0]
    kept = [n for n in graph.order if n != dropped]
    trimmed = DepGraph(
        deps={n: graph.deps[n] for n in kept},  # still names `dropped`
        dependents={n: [d for d in graph.dependents[n] if d != dropped]
                    for n in kept},
        order=kept)
    ready = ReadySet(trimmed)
    offered = []
    while not ready.all_done():
        batch = ready.take()
        assert batch
        offered.extend(batch)
        for name in batch:
            ready.complete(name)
    assert sorted(offered) == sorted(kept)


@given(dags)
@settings(max_examples=60, deadline=None)
def test_completing_a_unit_releases_exactly_its_last_gated_dependents(
        deps_by_index):
    """complete() returns precisely the dependents this completion was
    the final gate for -- the invariant the dispatch loops rely on to
    never poll."""
    graph = graph_from_deps(deps_by_index)
    ready = ReadySet(graph)
    completed: set = set()
    ready.take()
    for name in graph.order:  # topological, so always completable
        released = ready.complete(name)
        completed.add(name)
        for dependent in released:
            assert all(dep in completed
                       for dep in graph.deps[dependent])
            assert name in graph.deps[dependent]
        # Idempotent: completing again releases nothing twice.
        assert ready.complete(name) == []


@given(dags)
@settings(max_examples=10, deadline=None)
def test_ready_build_dispatch_order_is_a_linear_extension(
        deps_by_index):
    workload = generate_workload(deps_by_index, helpers_per_unit=1)
    builder = CutoffBuilder(workload.project)
    report = Supervisor(jobs=1).build(builder)
    graph = builder.last_graph
    order = report.dispatch_order
    assert sorted(order) == sorted(graph.order)
    position = {name: k for k, name in enumerate(order)}
    for name in graph.order:
        for dep in graph.deps[name]:
            assert position[dep] < position[name], (
                f"{name} dispatched before its import {dep}")


@given(dags)
@settings(max_examples=8, deadline=None)
def test_ready_build_matches_serial_store_bytes(deps_by_index):
    def flow(jobs, store_dir):
        workload = generate_workload(deps_by_index, helpers_per_unit=1)
        builder = CutoffBuilder(workload.project)
        builder.build(jobs=jobs)
        builder.store.save_directory(store_dir)
        # Incremental pass too: edit the root, rebuild warm-store.
        workload.edit_interface("u000")
        builder = CutoffBuilder(workload.project,
                                store=BinStore.load_directory(store_dir))
        builder.build(jobs=jobs)
        builder.store.save_directory(store_dir)
        pids = {n: u.export_pid for n, u in builder.units.items()}
        return pids, store_files(store_dir)

    base = tempfile.mkdtemp(prefix="readyprop-")
    try:
        serial = flow(1, os.path.join(base, "serial"))
        ready = flow(4, os.path.join(base, "ready"))
        assert ready == serial
    finally:
        shutil.rmtree(base, ignore_errors=True)


def reference_order(names, deps):
    """Smallest ready name first, rescanning every remaining unit after
    each step.  Returns the order and the units left stuck (each mapped
    to its stuck imports): empty unless there is a cycle."""
    in_graph = set(names)
    remaining = {n: {d for d in deps[n] if d in in_graph} for n in names}
    order = []
    while True:
        ready = [n for n, gates in remaining.items() if not gates]
        if not ready:
            return order, remaining
        node = min(ready)
        order.append(node)
        del remaining[node]
        for gates in remaining.values():
            gates.discard(node)


@st.composite
def labelled_graphs(draw):
    """A random DAG under shuffled names, with imports outside the graph
    and sometimes one extra edge that may close a cycle."""
    shape = draw(dags)
    n = len(shape)
    labels = draw(st.permutations(range(n)))
    names = [f"m{label:02d}" for label in labels]
    deps = {names[k]: [names[d] for d in shape[k]] for k in range(n)}
    for k in draw(st.sets(st.integers(0, n - 1), max_size=3)):
        deps[names[k]].append(f"lib{k}")  # a stable-library import
    if n > 1 and draw(st.booleans()):
        low, high = sorted(draw(st.lists(st.integers(0, n - 1),
                                         min_size=2, max_size=2,
                                         unique=True)))
        deps[names[low]].append(names[high])
    return names, deps


@given(labelled_graphs())
@settings(max_examples=300, deadline=None)
def test_topo_order_is_smallest_ready_first(graph):
    names, deps = graph
    want, stuck = reference_order(names, deps)
    if stuck:
        with pytest.raises(DependencyError) as excinfo:
            _topo_order(names, deps)
        assert excinfo.value.cycle == find_cycle(stuck)
    else:
        assert _topo_order(names, deps) == want
