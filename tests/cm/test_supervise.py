"""Fault-tolerant supervised builds (tier 1).

The contract under test: **a fault is a scheduling event, not a build
failure.**  A supervised ``--jobs N`` build with injected worker
crashes and hangs must converge to byte-identical store contents to a
clean serial build; a poison unit (fails every attempt) must take down
only its dependents while independent subgraphs finish; a killed build
must finish on a rerun without recompiling completed units;
and every retry, timeout, degradation and skip must surface in the
ledger and the tracer.
"""

import json
import os
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.cm import (
    BinStore,
    CutoffBuilder,
    SupervisePolicy,
    Supervisor,
)
from repro.cm.faults import WorkerFaults, faulty_executors
from repro.cm.parallel import InlineExecutor, make_executor
from repro.obs.tracer import Tracer
from repro.workload import generate_workload
from repro.workload.shapes import fanout, layered

from tests.helpers import kill_at_save, store_files

#: Two retries per unit; the backoff between attempts is the fixed
#: 10-250 ms of ``repro.cm.supervise``.
POLICY = SupervisePolicy(retries=2)


def serial_reference(shape, store_dir):
    """A clean serial build saved to ``store_dir``: the byte-identity
    target every supervised build must reproduce."""
    workload = generate_workload(shape, helpers_per_unit=1)
    builder = CutoffBuilder(workload.project)
    builder.build()
    builder.store.save_directory(store_dir)
    return builder


class TestFaultsConverge:
    def test_crash_plus_hang_is_byte_identical_to_serial(self, tmp_path):
        """The acceptance build: 40 units, jobs=4, one worker crash +
        one hung worker -- completes, byte-identical to clean serial.
        The 2 s per-attempt timeout sits far above a healthy compile
        (tens of milliseconds; a few tenths on a heavily loaded host,
        queueing included) and far below the injected 5 s stall, so
        exactly one attempt times out however busy the host is."""
        shape = fanout(38)  # base + 38 middle + top = 40 units
        assert len(shape) == 40
        serial_dir = str(tmp_path / "serial")
        serial_reference(shape, serial_dir)

        workload = generate_workload(shape, helpers_per_unit=1)
        builder = CutoffBuilder(workload.project)
        faults = WorkerFaults(crash_units=frozenset({"u005"}),
                              slow_units=frozenset({"u007"}),
                              delay=5.0)
        report = Supervisor(
            jobs=4,
            policy=SupervisePolicy(retries=2, timeout=2.0),
            executor_factory=faulty_executors(faults)).build(builder)
        assert len(report.compiled) == 40
        assert not report.failed and not report.skipped
        assert report.retries >= 2  # the crash and the timeout
        assert report.timeouts == 1

        supervised_dir = str(tmp_path / "supervised")
        builder.store.save_directory(supervised_dir)
        assert store_files(supervised_dir) == store_files(serial_dir)

    def test_crash_retries_all_the_way_up_a_chain(self, tmp_path):
        """Crashes in different waves all recover (one retry each)."""
        shape = layered([3, 3, 3], seed=7)
        serial_dir = str(tmp_path / "serial")
        serial_reference(shape, serial_dir)

        workload = generate_workload(shape, helpers_per_unit=1)
        builder = CutoffBuilder(workload.project)
        faults = WorkerFaults(
            crash_units=frozenset({"u000", "u004", "u008"}))
        report = Supervisor(
            jobs=2, policy=POLICY,
            executor_factory=faulty_executors(faults)).build(builder)
        assert not report.failed and not report.skipped
        assert report.retries == 3

        out_dir = str(tmp_path / "supervised")
        builder.store.save_directory(out_dir)
        assert store_files(out_dir) == store_files(serial_dir)

    def test_fault_plan_on_a_process_pool(self, tmp_path):
        """The plan travels in every submit call, so it must pickle: a
        crash and a stall on real worker processes still converge to
        the serial bytes."""
        shape = layered([3, 3, 3], seed=7)
        serial_dir = str(tmp_path / "serial")
        serial_reference(shape, serial_dir)

        workload = generate_workload(shape, helpers_per_unit=1)
        builder = CutoffBuilder(workload.project)
        faults = WorkerFaults(crash_units=frozenset({"u004"}),
                              slow_units=frozenset({"u001"}), delay=0.05)
        report = Supervisor(
            jobs=2, policy=POLICY,
            executor_factory=faulty_executors(faults)).build(builder)
        assert report.pool == "process"
        assert report.retries == 1

        out_dir = str(tmp_path / "supervised")
        builder.store.save_directory(out_dir)
        assert store_files(out_dir) == store_files(serial_dir)

    def test_inline_tier_retries_too(self):
        """jobs=1 (inline, no pool) still runs the retry machinery."""
        workload = generate_workload(fanout(3), helpers_per_unit=1)
        builder = CutoffBuilder(workload.project)
        report = Supervisor(
            jobs=1, policy=POLICY,
            executor_factory=faulty_executors(WorkerFaults(
                crash_units=frozenset({"u002"})))).build(builder)
        assert not report.failed
        assert report.retries == 1
        assert report.pool == "inline"


class TestPoisonAndSkip:
    SHAPE = [[], [0], [1], [], [3]]  # two chains: 0-1-2 and 3-4

    def build_with_poison(self, meter=None):
        workload = generate_workload(self.SHAPE, helpers_per_unit=1)
        builder = CutoffBuilder(workload.project, meter=meter)
        report = Supervisor(
            jobs=2,
            policy=SupervisePolicy(retries=1),
            executor_factory=faulty_executors(WorkerFaults(
                poison_units=frozenset({"u001"})))).build(builder)
        return builder, report

    def test_poison_unit_skips_only_its_dependents(self):
        builder, report = self.build_with_poison()
        assert report.failed == ["u001"]
        assert report.skipped == ["u002"]
        # The independent subgraph (u003 -> u004) and the poison
        # unit's own import (u000) all finished.
        assert sorted(report.compiled) == ["u000", "u003", "u004"]

    def test_ledger_explains_the_skip(self):
        builder, _report = self.build_with_poison()
        failed = builder.ledger.get("u001")
        assert failed.verdict == "failed"
        assert failed.cause == "failed-after-retries"
        assert "InjectedCrash" in failed.detail
        skipped = builder.ledger.get("u002")
        assert skipped.verdict == "skipped"
        assert skipped.cause == "poison-import"
        assert skipped.culprit == "u001"
        assert "u001" in skipped.describe()
        assert {d.unit for d in builder.ledger.skipped()} \
            == {"u001", "u002"}
        # --explain renders both casualties.
        text = builder.ledger.render_text()
        assert "failed-after-retries" in text
        assert "poison-import" in text

    def test_report_summary_and_stats_name_the_casualties(self):
        _builder, report = self.build_with_poison()
        assert "1 failed" in report.summary()
        assert "1 skipped" in report.summary()
        stats = report.stats()
        assert stats["failed"] == 1
        assert stats["skipped"] == 1
        assert stats["causes"]["failed-after-retries"] == 1
        assert stats["causes"]["poison-import"] == 1

    def test_deterministic_failures_are_not_retried(self):
        """The typed budget: a parse error is not transient, so it
        poisons immediately without burning retries."""
        workload = generate_workload([[], [0]], helpers_per_unit=1)
        workload.project.edit(
            "u001",
            "structure Broken = struct val x = no_such_thing end")
        builder = CutoffBuilder(workload.project)
        report = Supervisor(jobs=2, policy=POLICY).build(builder)
        assert report.failed == ["u001"]
        assert report.retries == 0
        decision = builder.ledger.get("u001")
        assert "not a retryable failure" in decision.detail


class TestResume:
    def test_killed_build_resumes_without_recompiling(self, tmp_path):
        bin_dir = str(tmp_path / "bin")
        shape = layered([3, 3, 3], seed=1)

        # Session 1: killed right after its second checkpoint.
        workload = generate_workload(shape, helpers_per_unit=1)
        first = CutoffBuilder(workload.project,
                              store=BinStore.load_directory(bin_dir))
        partial = kill_at_save(
            Supervisor(jobs=2, policy=SupervisePolicy()), first, 2)
        finished = set(partial.compiled)
        assert 0 < len(finished) < len(shape)

        # Session 2: the same build again.  The checkpointed store
        # alone spares every finished unit a recompile; only the
        # missing wave compiles.
        workload2 = generate_workload(shape, helpers_per_unit=1)
        store = BinStore.load_directory(bin_dir)
        assert store.health.ok
        assert set(store.names()) == finished
        second = CutoffBuilder(workload2.project, store=store)
        report = Supervisor(jobs=2,
                            policy=SupervisePolicy()).build(second)
        assert not report.failed and not report.skipped
        assert set(report.loaded) == finished
        assert set(report.compiled) == \
            set(workload2.project.names()) - finished

        # ...and the result is byte-identical to a clean serial build.
        serial_dir = str(tmp_path / "serial")
        serial_reference(shape, serial_dir)
        assert store_files(bin_dir) == store_files(serial_dir)


class TestDegradation:
    def test_broken_pool_degrades_and_finishes(self):
        class BrokenExecutor:
            def submit(self, *args, **kwargs):
                raise RuntimeError("pool is toast")

            def shutdown(self, **kwargs):
                pass

        workload = generate_workload(layered([2, 2], seed=2),
                                     helpers_per_unit=1)
        builder = CutoffBuilder(workload.project)
        supervisor = Supervisor(
            jobs=2, policy=POLICY,
            executor_factory=lambda jobs: (BrokenExecutor(), "process"))
        report = supervisor.build(builder)
        assert not report.failed and not report.skipped
        assert len(report.compiled) == 4
        assert report.degraded >= 1
        assert report.pool in ("thread", "inline")

    def test_degrades_all_the_way_to_inline(self, monkeypatch):
        """Both pool tiers broken: the build still completes inline."""
        class BrokenExecutor:
            def __init__(self, max_workers=None):
                pass

            def submit(self, *args, **kwargs):
                raise RuntimeError("no workers anywhere")

            def shutdown(self, **kwargs):
                pass

        workload = generate_workload([[], [0]], helpers_per_unit=1)
        builder = CutoffBuilder(workload.project)
        supervisor = Supervisor(
            jobs=2, policy=POLICY,
            executor_factory=lambda jobs: (BrokenExecutor(), "process"))
        # Make the degraded thread tier broken too.
        import repro.cm.supervise as supervise_mod
        monkeypatch.setattr(supervise_mod, "ThreadPoolExecutor",
                            BrokenExecutor)
        report = supervisor.build(builder)
        assert not report.failed
        assert report.pool == "inline"
        assert report.degraded == 2

    def test_one_dead_pool_costs_one_rung(self, tmp_path):
        """Every in-flight future of a dead pool fails; only the first
        failure steps down the ladder, the rest follow onto the
        replacement pool."""
        from concurrent.futures import Future
        from concurrent.futures.process import BrokenProcessPool

        class DyingPool:
            """Accepts the three roots, then dies: every future it
            handed out fails with BrokenProcessPool at once."""

            def __init__(self):
                self.futures = []

            def submit(self, *args, **kwargs):
                self.futures.append(Future())
                if len(self.futures) == 3:
                    for future in self.futures:
                        future.set_exception(BrokenProcessPool("died"))
                return self.futures[-1]

            def shutdown(self, **kwargs):
                pass

        shape = layered([3, 2], seed=1)
        serial_dir = str(tmp_path / "serial")
        serial_reference(shape, serial_dir)
        workload = generate_workload(shape, helpers_per_unit=1)
        builder = CutoffBuilder(workload.project)
        supervisor = Supervisor(
            jobs=2, policy=SupervisePolicy(),
            executor_factory=lambda jobs: (DyingPool(), "process"))
        report = supervisor.build(builder)
        assert report.degraded == 1
        assert report.pool == "thread"
        assert len(report.compiled) == 5
        out_dir = str(tmp_path / "supervised")
        builder.store.save_directory(out_dir)
        assert store_files(out_dir) == store_files(serial_dir)


class TestPoolKind:
    """The pool kind follows from jobs: inline for one job, a process
    pool for more, and a thread pool only where process pools fail."""

    def test_failed_probe_falls_back_to_threads(self,
                                                broken_process_pools):
        executor, kind = make_executor(1)
        assert kind == "inline"
        assert isinstance(executor, InlineExecutor)
        assert broken_process_pools == []
        executor, kind = make_executor(2)
        try:
            assert kind == "thread"
            assert isinstance(executor, ThreadPoolExecutor)
            assert executor.submit(sum, [1, 2]).result() == 3
        finally:
            executor.shutdown()
        assert [pool.shut_down for pool in broken_process_pools] == [True]


class TestObservability:
    def test_trace_carries_retry_and_timeout_spans(self):
        tracer = Tracer()
        workload = generate_workload(fanout(4), helpers_per_unit=1)
        builder = CutoffBuilder(workload.project, meter=tracer)
        faults = WorkerFaults(crash_units=frozenset({"u002"}),
                              slow_units=frozenset({"u003"}),
                              delay=5.0)
        report = Supervisor(
            jobs=3,
            policy=SupervisePolicy(retries=2, timeout=0.25),
            executor_factory=faulty_executors(faults)).build(builder)
        assert not report.failed
        retry_events = tracer.events_named("retry")
        assert {e.args["unit"] for e in retry_events} \
            >= {"u002", "u003"}
        assert tracer.spans_named("retry-backoff")
        timeout_events = tracer.events_named("timeout")
        assert [e.args["unit"] for e in timeout_events] == ["u003"]
        assert tracer.counters.get("supervise.retries", 0) \
            == report.retries

    def test_poison_and_skip_events(self):
        tracer = Tracer()
        workload = generate_workload([[], [0]], helpers_per_unit=1)
        builder = CutoffBuilder(workload.project, meter=tracer)
        report = Supervisor(
            jobs=2, policy=POLICY,
            executor_factory=faulty_executors(WorkerFaults(
                poison_units=frozenset({"u000"})))).build(builder)
        assert report.failed == ["u000"]
        assert [e.args["unit"] for e in tracer.events_named("poison")] \
            == ["u000"]
        skips = tracer.events_named("skip")
        assert [(e.args["unit"], e.args["culprit"]) for e in skips] \
            == [("u001", "u000")]


class TestBuilderEntryPoint:
    def test_build_kwargs_route_through_supervisor(self, tmp_path):
        """``builder.build(policy=...)`` is the supervised path."""
        workload = generate_workload(fanout(3), helpers_per_unit=1)
        bin_dir = str(tmp_path / "bin")
        builder = CutoffBuilder(workload.project,
                                store=BinStore.load_directory(bin_dir))
        report = builder.build(jobs=2, policy=POLICY)
        assert not report.failed
        assert len(report.compiled) == 5
        # The checkpoint really landed.
        store = BinStore.load_directory(bin_dir)
        assert sorted(store.names()) == sorted(builder.units)


class TestDerivedCheckpoint:
    """A supervised build checkpoints into the store's own backend:
    the directory it was loaded from or last saved to."""

    @staticmethod
    def build_counting_saves(store, policy):
        workload = generate_workload(layered([2, 2], seed=1),
                                     helpers_per_unit=1)
        builder = CutoffBuilder(workload.project, store=store)
        saves = []
        save = store.save_directory

        def counted(path, *args, **kwargs):
            saves.append(path)
            return save(path, *args, **kwargs)

        store.save_directory = counted
        try:
            report = Supervisor(jobs=1, policy=policy).build(builder)
        finally:
            del store.save_directory
        assert len(report.compiled) == 4
        return builder, saves

    def test_store_loaded_from_a_directory_checkpoints_there(
            self, tmp_path):
        bin_dir = str(tmp_path / "bin")
        builder, saves = self.build_counting_saves(
            BinStore.load_directory(bin_dir), POLICY)
        assert saves and set(saves) == {bin_dir}
        assert not builder.store.unsaved()
        on_disk = BinStore.load_directory(bin_dir)
        assert sorted(on_disk.names()) == sorted(builder.units)

    def test_store_with_no_backend_writes_nothing(self, tmp_path,
                                                  monkeypatch):
        monkeypatch.chdir(tmp_path)
        builder, saves = self.build_counting_saves(BinStore(), POLICY)
        assert saves == []
        assert builder.store.unsaved()
        assert os.listdir(tmp_path) == []

    def test_fail_fast_build_never_checkpoints(self, tmp_path):
        bin_dir = str(tmp_path / "bin")
        builder, saves = self.build_counting_saves(
            BinStore.load_directory(bin_dir), None)
        assert saves == []
        assert builder.store.unsaved()
        assert not os.path.exists(bin_dir)
