"""Property tests for trace-driven (longest-first) priority dispatch.

Priority is *scheduling only*: record bytes are intrinsic per unit, so
reordering the ready set's offers must never change what gets built or
what lands in the store.  Over random DAGs and random prior-profile
timings:

1. A keyed :class:`ReadySet` still offers every unit exactly once,
   after its imports, with each batch ordered by the key -- longest
   prior compile time first, names breaking ties.
2. A ready-set build driven by ``offer_key`` records a dispatch order
   that is a linear extension of the dependency graph.
3. The final store bytes and export pids are identical to the
   name-ordered build -- the byte-identity gate that makes priority
   safe to turn on from history.
"""

import os
import shutil
import tempfile

from hypothesis import given, settings, strategies as st

from repro.cm import BinStore, CutoffBuilder, ReadySet, Supervisor
from repro.obs.history import longest_first_key
from repro.workload import generate_workload, random_dag

from tests.property.test_ready_set import graph_from_deps

dags = st.builds(
    random_dag,
    n=st.integers(min_value=1, max_value=24),
    max_deps=st.integers(min_value=1, max_value=5),
    seed=st.integers(min_value=0, max_value=10_000),
)


@st.composite
def dag_with_history(draw):
    """A random DAG plus random prior-profile compile seconds; some
    units are missing from history (they rank at the median)."""
    deps = draw(dags)
    names = [f"u{k:03d}" for k in range(len(deps))]
    seconds = {}
    for name in names:
        if draw(st.booleans()):
            seconds[name] = draw(st.integers(0, 50)) / 10.0
    return deps, seconds


@given(dag_with_history())
@settings(max_examples=120, deadline=None)
def test_keyed_ready_set_is_sound_and_batches_by_priority(case):
    deps_by_index, seconds = case
    graph = graph_from_deps(deps_by_index)
    key = longest_first_key(seconds)
    ready = ReadySet(graph, key=key)
    completed: set = set()
    offered: list = []
    while not ready.all_done():
        batch = ready.take()
        assert batch, "keyed ready set stalled with units outstanding"
        if key is not None:
            assert batch == sorted(batch, key=key)
        else:
            assert batch == sorted(batch)
        for name in batch:
            for dep in graph.deps[name]:
                assert dep in completed
        offered.extend(batch)
        for name in batch:
            released = ready.complete(name)
            if key is not None:
                assert released == sorted(released, key=key)
            completed.add(name)
    assert sorted(offered) == sorted(graph.order)
    assert len(offered) == len(set(offered))


@given(dag_with_history())
@settings(max_examples=10, deadline=None)
def test_longest_first_dispatch_is_a_linear_extension(case):
    deps_by_index, seconds = case
    workload = generate_workload(deps_by_index, helpers_per_unit=1)
    builder = CutoffBuilder(workload.project)
    report = Supervisor(jobs=4, pool="inline",
                        offer_key=longest_first_key(seconds)
                        ).build(builder)
    graph = builder.last_graph
    order = report.dispatch_order
    assert sorted(order) == sorted(graph.order)
    position = {name: k for k, name in enumerate(order)}
    for name in graph.order:
        for dep in graph.deps[name]:
            assert position[dep] < position[name], (
                f"{name} dispatched before its import {dep}")


@given(dag_with_history())
@settings(max_examples=6, deadline=None)
def test_longest_first_matches_name_order_store_bytes(case):
    deps_by_index, seconds = case

    def flow(offer_key, store_dir):
        workload = generate_workload(deps_by_index, helpers_per_unit=1)
        builder = CutoffBuilder(workload.project)
        Supervisor(jobs=4, pool="thread",
                   offer_key=offer_key).build(builder)
        builder.store.save_directory(store_dir)
        # Incremental pass too: edit the root, rebuild warm-store.
        workload.edit_interface("u000")
        builder = CutoffBuilder(workload.project,
                                store=BinStore.load_directory(store_dir))
        Supervisor(jobs=4, pool="thread",
                   offer_key=offer_key).build(builder)
        builder.store.save_directory(store_dir)
        pids = {n: u.export_pid for n, u in builder.units.items()}
        files = {}
        for entry in sorted(os.listdir(store_dir)):
            if entry.endswith(".rlock") or entry == "store.lock":
                continue
            with open(os.path.join(store_dir, entry), "rb") as fh:
                files[entry] = fh.read()
        return pids, files

    base = tempfile.mkdtemp(prefix="priorityprop-")
    try:
        named = flow(None, os.path.join(base, "name"))
        keyed = flow(longest_first_key(seconds),
                     os.path.join(base, "longest"))
        assert keyed == named
    finally:
        shutil.rmtree(base, ignore_errors=True)
