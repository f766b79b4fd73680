"""Property test for fail-fast parallel builds.

Over arbitrary DAGs, a worker crash degrades, never corrupts: the
parallel build raises, what was already applied is a valid store
prefix (the store's crash-safety), and a fresh serial session over the
saved partial store converges to exactly the clean-build pids.
"""

import os
import shutil
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from repro.cm import (
    BinStore,
    CutoffBuilder,
    ParallelBuildError,
    Supervisor,
)
from repro.cm.faults import WorkerFaults, faulty_executors
from repro.workload import generate_workload, random_dag

crash_cases = st.builds(
    lambda n, seed, victim: (random_dag(n, max_deps=2, seed=seed),
                             victim % n),
    n=st.integers(min_value=2, max_value=7),
    seed=st.integers(min_value=0, max_value=500),
    victim=st.integers(min_value=0, max_value=6),
)


@given(crash_cases)
@settings(max_examples=8, deadline=None)
def test_worker_crash_mid_wave_degrades_to_crash_safety(case):
    deps_by_index, victim_index = case
    victim = f"u{victim_index:03d}"

    # Clean reference pids for this DAG.
    reference = CutoffBuilder(
        generate_workload(deps_by_index, helpers_per_unit=1).project)
    reference.build()
    want = {n: u.export_pid for n, u in reference.units.items()}

    workload = generate_workload(deps_by_index, helpers_per_unit=1)
    builder = CutoffBuilder(workload.project)
    with pytest.raises(ParallelBuildError) as excinfo:
        Supervisor(jobs=1, executor_factory=faulty_executors(
            WorkerFaults(crash_units={victim}))).build(builder)
    assert excinfo.value.name == victim

    base = tempfile.mkdtemp(prefix="crashwave-")
    try:
        store_dir = os.path.join(base, "store")
        # Whatever the scheduler applied before the crash is a valid
        # prefix: it saves cleanly and loads healthy.
        builder.store.save_directory(store_dir)
        loaded = BinStore.load_directory(store_dir)
        assert loaded.health.ok
        assert victim not in loaded.names()

        # A fresh serial session over the partial store converges to
        # the clean pids: the crash cost work, never correctness.
        resumed = CutoffBuilder(workload.project, store=loaded)
        resumed.build()
        assert ({n: u.export_pid for n, u in resumed.units.items()}
                == want)
    finally:
        shutil.rmtree(base, ignore_errors=True)
