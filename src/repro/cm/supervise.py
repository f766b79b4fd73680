"""The build pump: every pooled build, fail-fast or supervised.

:class:`Supervisor` drives one build as a *ready-set pump*: a unit is
admitted (decided through the builder's ``try_reuse`` seam, then
compiled on a worker if it must be) the moment its last in-graph import
has landed, and every fate -- applied, cached, loaded, failed, skipped
-- completes it in the :class:`~repro.cm.parallel.ReadySet`.  Workers
are hermetic and results are applied only after their providers, so
the store is byte-identical to a serial build's for every jobs count,
pool kind and completion order.  Tasks always go through an executor;
the ``jobs <= 1`` tier is :class:`~repro.cm.parallel.InlineExecutor`,
which runs them at submit time.  A pooled build is configured in
:meth:`repro.cm.base.BaseBuilder.build` (CLI, library) or by
constructing a :class:`Supervisor` (daemon, tests).

Without a policy the pump is **fail-fast** (``--jobs N``): the first
failed compile cancels queued work and raises
:class:`~repro.cm.parallel.ParallelBuildError`, keeping what was
already applied.  With a :class:`SupervisePolicy` it treats failure as
an *event to schedule around*:

- **Retry with backoff.**  A failed attempt whose exception type is in
  the policy's ``retryable`` set is resubmitted after a capped
  exponential backoff, up to ``retries`` extra attempts per unit and
  ``retry_total`` across the whole build (the *typed retry budget*:
  deterministic compile errors are not retried at all).
- **Timeouts.**  With ``timeout`` set, an attempt that runs past its
  wall-clock deadline (counted from when a worker picks it up, so
  waiting in the pool's queue does not count) is abandoned -- the hung
  worker keeps its slot until it dies on its own, but its eventual
  result is ignored as *stale* -- and the unit is rescheduled like any
  other failure.
- **Graceful degradation.**  A unit that exhausts its budget is
  *poisoned*: it is recorded as ``failed``, its dependents are
  ``skipped`` (ledger cause ``poison-import``, naming the culprit), and
  every independent subgraph builds to completion.
- **Checkpoints.**  With a ``checkpoint_dir``, the store is saved at
  every quiet point that has something to write.  A killed build's
  next run over the same store loads every unit that finished: the
  crash-safe store's records are the whole resume state (export pids
  are intrinsic, §5), so a rerun of the same command is the resume.

In both modes a dying pool degrades process -> thread -> inline instead
of aborting, one rung per dead pool; :meth:`Supervisor._degrade` starts
the thread and inline rungs itself.

Everything the pump does is observable: ``dispatch`` / ``retry`` /
``timeout`` / ``degrade`` / ``poison`` / ``skip`` events,
``worker-compile`` / ``apply`` / ``retry-backoff`` spans flow through
the builder's meter, and every casualty gets a typed ledger decision
(``--explain`` says exactly why a unit was skipped).

Determinism: retries re-run the same hermetic compile, and export pids
are intrinsic, so a build that survives any number of transient faults
still produces byte-identical store contents to a clean serial build
(``tests/cm/test_supervise.py`` and the hypothesis property in
``tests/property/test_supervised.py`` check this).
"""

from __future__ import annotations

import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait
from dataclasses import dataclass

from repro.cm import parallel
from repro.cm.depend import DepGraph
from repro.cm.parallel import (
    CompileResult,
    InlineExecutor,
    ParallelBuildError,
    ReadySet,
    _apply_result,
    _make_task,
    compile_task,
)
from repro.cm.report import BuildReport, UnitOutcome
from repro.cm.store import StoreError
from repro.obs.ledger import explain_skip
from repro.obs.meter import NULL_METER

#: Exception *type names* retried by default: the transient family
#: (injected crashes, IO errors, timeouts, pool plumbing failures).
#: Deterministic compile errors -- parse/elaboration failures -- are
#: absent on purpose: retrying them burns budget to learn nothing.
DEFAULT_RETRYABLE = (
    "InjectedCrash", "TimeoutError", "OSError", "IOError",
    "BrokenProcessPool", "BrokenThreadPool", "BrokenExecutor",
    "ConnectionError", "ConnectionResetError", "EOFError",
)


@dataclass(frozen=True)
class SupervisePolicy:
    """How hard the supervisor fights for a build.

    ``retries`` is *extra attempts per unit* (0 = one attempt, no
    retry); ``retry_total`` caps retries across the whole build so a
    systemically-failing environment converges instead of thrashing.
    ``backoff_base * 2**attempt`` seconds, capped at ``backoff_cap``,
    separates attempts.  ``timeout`` (pooled builds only; the inline
    tier cannot preempt) is the per-attempt wall-clock deadline, from
    when a worker starts the attempt.
    ``retryable`` is the typed budget: exception *type names* worth
    retrying.
    """

    retries: int = 2
    retry_total: int = 16
    backoff_base: float = 0.01
    backoff_cap: float = 0.25
    timeout: float | None = None
    retryable: tuple = DEFAULT_RETRYABLE


#: How often the pump looks for queued attempts that started running
#: (only while a timeout is set and such attempts exist).
_POLL_SECONDS = 0.05


class Supervisor:
    """Drives one pooled build through the ready-set pump (see module
    docstring).  ``policy=None`` is fail-fast.

    ``executor_factory`` has :func:`~repro.cm.parallel.make_executor`'s
    signature, ``factory(jobs) -> (executor, kind)``; the default is
    resolved from :mod:`repro.cm.parallel` at build time, so
    instrumentation that rebinds that function sees every pool start.
    It is also the fault seam: the crash tests pass
    :func:`repro.cm.faults.faulty_executors`.
    """

    def __init__(self, jobs: int = 2,
                 policy: SupervisePolicy | None = None,
                 checkpoint_dir: str | None = None,
                 executor_factory=None,
                 keep_executor: bool = False):
        self.jobs = jobs
        self.policy = policy
        self.checkpoint_dir = checkpoint_dir
        self.executor_factory = executor_factory
        #: When True the executor outlives the build -- the daemon's
        #: warm-pool seam (:mod:`repro.cm.daemon` hands a cached
        #: executor in via ``executor_factory`` and shuts it down at
        #: daemon shutdown).  A pool degradation flips this back off:
        #: the replacement pool belongs to this supervisor, not the
        #: caller, and the caller's cached pool is already dead.
        self.keep_executor = keep_executor
        self.executor = None
        self.using = "inline"
        #: unit -> the *root* poisoned unit whose failure took it down
        #: (a poisoned unit maps to itself).
        self.dead: dict[str, str] = {}
        self.retry_spent = 0
        self.report = BuildReport(jobs=jobs)
        self.meter = NULL_METER

    def build(self, builder) -> BuildReport:
        """Bring ``builder``'s project up to date: the entry point of
        the daemon and of callers that configure the pump themselves.
        ``BaseBuilder.build`` calls :meth:`run` instead, so the two
        public build methods never nest and instrumentation wrapping
        both sees one build each."""
        return self.run(builder)

    def run(self, builder) -> BuildReport:
        """The whole build: analyze, start the pool, pump, report."""
        meter = self.meter = builder.meter
        t0 = time.perf_counter()
        report = builder.last_report = self.report
        with meter.span("build", cat="build",
                        manager=type(builder).__name__, jobs=self.jobs,
                        supervised=self.policy is not None) as bsp:
            builder._begin_build()
            builder._load_pending_stables(report)
            with meter.span("analyze", cat="build"):
                graph = builder.analyze()
            factory = self.executor_factory or parallel.make_executor
            self.executor, self.using = factory(self.jobs)
            report.pool = self.using
            bsp.set(pool=self.using, units=len(graph.order))
            first = len(report.outcomes)
            try:
                self._pump(builder, graph)
                report.wall_seconds = time.perf_counter() - t0
                # Report in the serial loop's order, not completion
                # order: the same build always reads the same.
                rank = {name: k for k, name in enumerate(graph.order)}
                report.outcomes[first:] = sorted(
                    report.outcomes[first:], key=lambda o: rank[o.name])
            finally:
                if not self.keep_executor:
                    # Cancels queued work (a fail-fast abort) and
                    # joins the workers.
                    self.executor.shutdown(wait=True, cancel_futures=True)
            bsp.set(retries=report.retries, timeouts=report.timeouts,
                    degraded=report.degraded, failed=len(report.failed),
                    skipped=len(report.skipped))
        builder._finish_report(report)
        if meter.enabled:
            for key in ("retries", "timeouts", "degraded"):
                value = getattr(report, key)
                if value:
                    meter.counter(f"supervise.{key}", value)
        return report

    # -- the pump ---------------------------------------------------------

    def _pump(self, builder, graph: DepGraph) -> None:
        """Admit, dispatch and settle until every unit's fate is known.

        The scheduling state is small: ``admit_queue`` holds units the
        ready set released, ``active`` the in-flight attempts (future,
        the executor it went to, attempt number, deadline, reason) and
        ``pending`` the attempts waiting to launch: retries sleeping out
        their backoff, and attempts a dead pool dropped.  An attempt's
        deadline starts when it is first seen running.  Landed
        results are settled in sorted name order within each completion
        batch; an already finished future (the inline tier) is settled
        at once, exactly where a serial build would compile.  Abandoned
        (timed-out) attempts simply leave ``active``: their results are
        never read, and all attempts produce identical intrinsic bytes
        anyway.

        Checkpointing happens at *quiet points*: whenever the admit
        queue drains and the store holds changes no save has written
        (:meth:`~repro.cm.store.BinStore.unsaved`), so a build that only
        loads or keeps units writes nothing.
        """
        meter = self.meter
        policy = self.policy
        report = self.report
        ready = ReadySet(graph)
        admit_queue: deque[str] = deque(ready.take())
        active: dict[str, tuple] = {}
        pending: list[tuple] = []  # (launch_at, name, attempt, reason)
        #: (unit, closure unit) pairs relaunched for a damaged payload.
        mended: set[tuple[str, str]] = set()
        timed = policy is not None and policy.timeout is not None

        def finish(name: str) -> None:
            admit_queue.extend(ready.complete(name))

        def admit(name: str) -> None:
            report.dispatch_order.append(name)
            culprit = self._poisoned_import(graph, name)
            if culprit is not None:
                self._skip(builder, name, culprit)
                finish(name)
                return
            imports = [builder.units[d] for d in graph.deps[name]]
            outcome, reason = builder.try_reuse(name, graph, imports)
            if outcome is None:
                if meter.enabled:
                    meter.event("dispatch", cat="sched", unit=name,
                                seq=len(report.dispatch_order))
                launch(name, 0, reason)
                return
            report.add(outcome)
            finish(name)

        def launch(name: str, attempt: int, reason: str) -> None:
            task = _make_task(builder, graph, name, attempt=attempt)
            while True:
                executor = self.executor
                try:
                    future = executor.submit(compile_task, task)
                    break
                except Exception as err:
                    self._degrade(f"submit failed: "
                                  f"{type(err).__name__}: {err}")
            active[name] = (future, executor, attempt, None, reason)
            if future.done():
                land(name)

        def land(name: str) -> None:
            future, executor, attempt, _deadline, reason = \
                active.pop(name)
            try:
                result = future.result()
            except Exception as err:
                # The pool itself died mid-flight: rerun this very
                # attempt on the next tier, at once (not charged to the
                # unit's retry budget -- the unit never got to fail).
                # Only the first casualty of a dead pool steps down the
                # ladder; its siblings follow onto the replacement.
                if executor is self.executor:
                    self._degrade(f"{type(err).__name__}: {err}")
                pending.append((0.0, name, attempt, reason))
                return
            settle(name, attempt, reason, result)

        def settle(name: str, attempt: int, reason: str,
                   result: CompileResult) -> None:
            if meter.enabled and result.worker:
                # Occupancy: when and where the worker actually ran,
                # on its own track (perf_counter is host-wide, so
                # process-pool times line up too).
                meter.complete_span("worker-compile", result.started,
                                    result.ended, cat="worker",
                                    track=result.worker, unit=name,
                                    attempt=result.attempt)
            if result.error is None:
                with meter.span("apply", cat="unit", unit=name):
                    report.add(_apply_result(builder, graph, name,
                                             reason, result))
                finish(name)
                return
            exc_type, message = result.error
            if result.damaged and (name, result.damaged) not in mended:
                # A closure unit's payload passed its digests but did
                # not decode on the worker: damage in the parent's live
                # unit.  Decoding it here mends it (a recompile in the
                # parent), and the unit relaunches at no cost to the
                # retry budget.
                mended.add((name, result.damaged))
                builder.decoded(result.damaged)
                launch(name, attempt, reason)
                return
            if policy is None:
                raise ParallelBuildError(name, exc_type, message)
            retryable = exc_type in policy.retryable
            if retryable and attempt < policy.retries \
                    and self.retry_spent < policy.retry_total:
                self.retry_spent += 1
                report.retries += 1
                delay = min(policy.backoff_cap,
                            policy.backoff_base * (2 ** attempt))
                t = time.perf_counter()
                if meter.enabled:
                    meter.event("retry", cat="supervise", unit=name,
                                attempt=attempt + 1, kind=exc_type)
                    meter.complete_span("retry-backoff", t, t + delay,
                                        cat="supervise",
                                        track="supervisor", unit=name,
                                        attempt=attempt + 1,
                                        kind=exc_type)
                pending.append((t + delay, name, attempt + 1, reason))
            else:
                self._poison(builder, name, exc_type, message, attempt,
                             retryable)
                finish(name)

        try:
            while True:
                while admit_queue:
                    admit(admit_queue.popleft())
                if self.checkpoint_dir is not None and builder.store.unsaved():
                    self._checkpoint(builder)
                if not active and not pending:
                    return
                now = time.perf_counter()
                due = [item for item in pending if item[0] <= now]
                if due:
                    pending[:] = [item for item in pending if item[0] > now]
                    for _at, name, attempt, reason in due:
                        launch(name, attempt, reason)
                    continue
                if not active:
                    time.sleep(min(item[0] for item in pending) - now)
                    continue
                wake = [item[0] for item in pending] + [
                    entry[3] for entry in active.values()
                    if entry[3] is not None]
                if timed and any(entry[3] is None
                                 for entry in active.values()):
                    wake.append(now + _POLL_SECONDS)  # watch queued attempts
                finished, _ = wait(
                    [entry[0] for entry in active.values()],
                    timeout=max(0.0, min(wake) - now) if wake else None,
                    return_when=FIRST_COMPLETED)
                now = time.perf_counter()
                for name in sorted(active):
                    future, executor, attempt, deadline, reason = \
                        active[name]
                    if future in finished:
                        land(name)
                    elif deadline is None:
                        if timed and future.running():
                            # The clock starts once a worker picks the
                            # attempt up: queueing behind busy workers is
                            # not hanging.
                            active[name] = (future, executor, attempt,
                                            now + policy.timeout, reason)
                    elif now >= deadline:
                        # A hung worker: abandon the attempt (stale result
                        # ignored) and schedule the unit like a failure.
                        del active[name]
                        future.cancel()
                        report.timeouts += 1
                        if meter.enabled:
                            meter.event("timeout", cat="supervise",
                                        unit=name, attempt=attempt,
                                        deadline=policy.timeout)
                        settle(name, attempt, reason, CompileResult(
                            name, error=(
                                "TimeoutError",
                                f"attempt {attempt} exceeded "
                                f"{policy.timeout:.3f}s wall clock"),
                            attempt=attempt))
        finally:
            # ``launch``, ``land`` and ``settle`` reach one another
            # through their closure cells: unbind them all, so the
            # report, the ready set and the attempt maps they hold are
            # freed by reference counting, not by the cyclic collector.
            admit = launch = land = settle = finish = None

    def _poisoned_import(self, graph: DepGraph, name: str) -> str | None:
        for dep in graph.deps.get(name, ()):
            if dep in self.dead:
                return self.dead[dep]
        return None

    # -- casualties -------------------------------------------------------

    def _poison(self, builder, name: str, exc_type: str, message: str,
                attempt: int, retryable: bool) -> None:
        self.dead[name] = name
        why = ("retry budget exhausted" if retryable
               else "not a retryable failure")
        detail = (f"{exc_type}: {message} "
                  f"({why} after {attempt + 1} attempt(s))")
        builder.ledger.record(
            explain_skip(name, "failed-after-retries", detail=detail))
        self.report.add(UnitOutcome(name, "failed", detail))
        if self.meter.enabled:
            self.meter.event("poison", cat="supervise", unit=name,
                             kind=exc_type, attempts=attempt + 1)

    def _skip(self, builder, name: str, culprit: str) -> None:
        self.dead[name] = culprit
        detail = (f"an import chain leads to poisoned unit {culprit}; "
                  f"never attempted")
        builder.ledger.record(
            explain_skip(name, "poison-import", detail=detail,
                         culprit=culprit))
        self.report.add(UnitOutcome(name, "skipped", detail))
        if self.meter.enabled:
            self.meter.event("skip", cat="supervise", unit=name,
                             culprit=culprit)

    # -- pool degradation -------------------------------------------------

    def _degrade(self, why: str) -> None:
        """Walk one rung down the pool ladder (process -> thread ->
        inline), shutting the dying pool down without waiting."""
        old_kind = self.using
        try:
            self.executor.shutdown(wait=False, cancel_futures=True)
        except Exception:
            pass
        if old_kind == "process":
            self.executor = ThreadPoolExecutor(max_workers=self.jobs)
            self.using = "thread"
        else:
            self.executor, self.using = InlineExecutor(), "inline"
        # Any replacement pool is ours to shut down, and a caller's
        # cached pool (daemon warm pool) is already dead.
        self.keep_executor = False
        self.report.degraded += 1
        self.report.pool = self.using
        if self.meter.enabled:
            self.meter.event("degrade", cat="supervise",
                             from_pool=old_kind, to_pool=self.using,
                             why=why)

    # -- checkpointing ----------------------------------------------------

    def _checkpoint(self, builder) -> None:
        """Persist a quiet point: one store save.  Best effort -- a
        full disk costs resumability, never the build."""
        try:
            builder.store.save_directory(self.checkpoint_dir)
        except StoreError as err:
            builder.health.notes.append(
                f"checkpoint save failed ({type(err).__name__}): {err}")
            if self.meter.enabled:
                self.meter.event("checkpoint-failed", cat="supervise",
                                 kind=type(err).__name__)
