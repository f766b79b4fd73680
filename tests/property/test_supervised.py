"""Property tests for the supervision layer.

Over arbitrary DAGs and arbitrary single-worker faults:

1. A supervised build whose victim crashes (once or twice, within the
   retry budget) finishes every unit and saves a store *byte-identical*
   to a clean serial build's -- faults cost retries, never bytes.
2. A poisoned victim fails, exactly its transitive dependents are
   skipped, and every other unit still lands on the clean serial pids.
"""

import os
import shutil
import tempfile

from hypothesis import given, settings, strategies as st

from repro.cm import (
    CutoffBuilder,
    SupervisePolicy,
    Supervisor,
)
from repro.cm.faults import WorkerFaults, faulty_executors
from repro.workload import generate_workload, random_dag

from tests.helpers import store_files

POLICY = SupervisePolicy(retries=2)


def descendants(deps_by_index, root):
    """Transitive dependents of unit index ``root``."""
    dependents = {k: set() for k in range(len(deps_by_index))}
    for k, deps in enumerate(deps_by_index):
        for d in deps:
            dependents[d].add(k)
    out, frontier = set(), {root}
    while frontier:
        nxt = set()
        for k in frontier:
            for dep in dependents[k] - out:
                out.add(dep)
                nxt.add(dep)
        frontier = nxt
    return {f"u{k:03d}" for k in out}


fault_cases = st.builds(
    lambda n, seed, victim, attempts: (
        random_dag(n, max_deps=3, seed=seed), victim % n, attempts),
    n=st.integers(min_value=2, max_value=10),
    seed=st.integers(min_value=0, max_value=2_000),
    victim=st.integers(min_value=0, max_value=9),
    attempts=st.integers(min_value=1, max_value=2),
)


@given(fault_cases)
@settings(max_examples=10, deadline=None)
def test_crash_faults_cost_retries_never_bytes(case):
    deps_by_index, victim_index, attempts = case
    victim = f"u{victim_index:03d}"

    base = tempfile.mkdtemp(prefix="supprop-")
    try:
        serial_dir = os.path.join(base, "serial")
        reference = CutoffBuilder(
            generate_workload(deps_by_index, helpers_per_unit=1).project)
        reference.build()
        reference.store.save_directory(serial_dir)

        workload = generate_workload(deps_by_index, helpers_per_unit=1)
        builder = CutoffBuilder(workload.project)
        report = Supervisor(
            jobs=2, policy=POLICY,
            executor_factory=faulty_executors(WorkerFaults(
                crash_units={victim}, crash_attempts=attempts))
        ).build(builder)

        assert not report.failed and not report.skipped
        assert sorted(report.compiled) == sorted(builder.units)
        assert report.retries == attempts
        supervised_dir = os.path.join(base, "supervised")
        builder.store.save_directory(supervised_dir)
        assert store_files(supervised_dir) == store_files(serial_dir)
    finally:
        shutil.rmtree(base, ignore_errors=True)


@given(fault_cases)
@settings(max_examples=8, deadline=None)
def test_poison_skips_exactly_the_dependent_cone(case):
    deps_by_index, victim_index, _attempts = case
    victim = f"u{victim_index:03d}"
    cone = descendants(deps_by_index, victim_index)

    reference = CutoffBuilder(
        generate_workload(deps_by_index, helpers_per_unit=1).project)
    reference.build()
    want = {n: u.export_pid for n, u in reference.units.items()}

    workload = generate_workload(deps_by_index, helpers_per_unit=1)
    builder = CutoffBuilder(workload.project)
    report = Supervisor(
        jobs=1, policy=POLICY,
        executor_factory=faulty_executors(WorkerFaults(
            poison_units=frozenset({victim})))).build(builder)

    assert report.failed == [victim]
    assert sorted(report.skipped) == sorted(cone)
    healthy = set(builder.units) - cone - {victim}
    assert sorted(report.compiled) == sorted(healthy)
    for name in healthy:
        assert builder.units[name].export_pid == want[name], name
