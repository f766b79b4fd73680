"""Parallel builds: hermetic workers and the executors.

The cutoff model makes units independent once the pids of their imports
are fixed (§5): a unit's compilation reads only its source text and the
statenvs of the units it imports.  A unit can therefore compile the
moment its last in-graph import has landed, concurrently with every
other unit in that position: :class:`~repro.cm.depend.ReadySet` tracks
which units have reached it, and the one build pump in
:mod:`repro.cm.supervise` drains it onto a worker pool in sorted name
order.  Any offer order gives the same store bytes (point 2 below);
sorted names also make the dispatch order itself reproducible.

Determinism proof sketch (why ``--jobs N`` is byte-identical to serial):

1. A worker compiles a unit *hermetically*, against imports of
   exactly the pids the task's closure names: each comes from the
   worker's cache -- a unit it loaded from its dehydrated payload
   (decoded when a compile first demands it, imports first) or one it
   compiled itself -- and a cached copy under any other pid is evicted
   first.  It runs the same :func:`~repro.units.pipeline.compile_unit`
   the serial builder runs against its live units.
2. Export pids are *intrinsic*: stamps are alpha-converted and extern
   references are named by ``(pid, export index)``, so neither the pid
   nor the payload bytes depend on session history, process identity,
   or the order in which other units were compiled.
3. The parent applies each result (:func:`_apply_result`) only after
   all of the unit's providers were applied -- installing a
   header-backed unit for the worker's payload (decoded only when the
   parent itself needs it: to link, or to compile a dependent) and
   writing the same :class:`~repro.cm.store.BinRecord` a serial
   compile would write.

Hence statenv, store contents and export pids are equal for every jobs
count and every completion order; the differential determinism matrix
in ``tests/cm/test_parallel_determinism.py`` checks this byte-for-byte,
under fault injection.

:func:`make_executor` picks the worker tier from the jobs count alone:
:class:`InlineExecutor`, which runs each task in the caller, for one
job, and a process pool for more (a thread pool only where process
pools do not work).
:func:`compile_task` is the only function the pump ships to a worker;
the crash tests inject faults by wrapping the executor
(:func:`repro.cm.faults.faulty_executors`), never the task.
"""

from __future__ import annotations

import os
import threading
import time
from concurrent.futures import Executor, Future, ThreadPoolExecutor
from dataclasses import dataclass, field

from repro.cm.depend import DepGraph, take_tree
from repro.cm.report import UnitOutcome
from repro.units.pipeline import ParseTree, compile_unit, load_unit
from repro.units.unit import PhaseTimes, UnitDecodeError


class ParallelBuildError(Exception):
    """A worker failed compiling a unit.

    Worker exceptions are shipped back as (type name, message) rather
    than pickled exception objects, so a compile error on a process pool
    surfaces identically to one on a thread pool.  ``name`` identifies
    the failing unit, so thread- and process-pool failures alike point
    at the exact task that died.
    """

    def __init__(self, name: str, exc_type: str, message: str):
        super().__init__(f"{name}: {exc_type}: {message}")
        self.name = name
        self.exc_type = exc_type
        self.message = message


# -- the worker ----------------------------------------------------------
#
# Workers are hermetic: each carries its own Session and a cache of
# units, at most one per unit name, so later tasks do not re-pay
# rehydration.  The cache holds the units the worker loaded for a
# task's closure, decoded when a compile first demands them, and the
# units it compiled itself (:func:`_keep`), so a task whose closure
# holds a unit this worker compiled decodes nothing for it.  The worker
# session registers exactly the cached units' pids plus the basis: a
# cached unit superseded by a task's closure or by a compile (another
# pid, or other payload bytes while it is still undecoded), or whose
# payload failed to decode, is evicted with the cached units built
# against it, and their pids retired.  State is thread-local, which
# covers both pool kinds: a process-pool worker is a single thread, a
# thread-pool worker must not share a session (stamp registries are
# not thread-safe) with siblings.


@dataclass(frozen=True)
class ClosureUnit:
    """One transitive import shipped to a worker: enough to rehydrate."""

    name: str
    pid: str
    deps: tuple[str, ...]  # direct import names, dependency order
    payload: bytes
    source_digest: str


@dataclass(frozen=True)
class CompileTask:
    name: str
    source: str
    imports: tuple[str, ...]  # direct import names, dependency order
    closure: tuple[ClosureUnit, ...]  # transitive imports, topo order
    #: Which attempt this dispatch is (0 = first try); echoed into the
    #: result and the ``worker-compile`` span, and read by the
    #: attempt-aware fault plans of :mod:`repro.cm.faults`.
    attempt: int = 0
    #: The dependency memo's parse of ``source``, for a worker in this
    #: process (inline or thread).  It never crosses a process
    #: boundary: a pickled task carries the source text only, and the
    #: worker parses it.
    tree: ParseTree | None = field(default=None, compare=False,
                                   repr=False)

    def __reduce__(self):
        return (CompileTask, (self.name, self.source, self.imports,
                              self.closure, self.attempt))


@dataclass
class CompileResult:
    name: str
    export_pid: str = ""
    payload: bytes = b""
    source_digest: str = ""
    times: PhaseTimes = field(default_factory=PhaseTimes)
    #: Per-binding slice pids computed in the worker's hash phase
    #: (intrinsic, so identical to what a serial compile produces).
    binding_pids: dict = field(default_factory=dict)
    error: tuple[str, str] | None = None  # (exception type, message)
    #: Worker-side occupancy data: when the task ran (perf_counter
    #: domain, comparable across processes on this host) and on which
    #: worker ("pid/thread-ident").
    started: float = 0.0
    ended: float = 0.0
    worker: str = ""
    #: Echo of the task's attempt number (supervisor staleness checks).
    attempt: int = 0
    #: The closure unit whose payload failed to decode, if that is why
    #: the compile failed: damage in the parent's record, which the
    #: pump mends there.
    damaged: str = ""


_tls = threading.local()


def worker_label() -> str:
    """The calling worker's track name, ``"w<pid>/<thread ident>"``."""
    return f"w{os.getpid()}/{threading.get_ident()}"


def _worker_state():
    if getattr(_tls, "session", None) is None:
        from repro.units.session import Session

        _tls.session = Session()
        _tls.units = {}
    return _tls.session, _tls.units


def compile_task(task: CompileTask) -> CompileResult:
    """Compile one unit in a hermetic worker session.

    Never raises: failures come back as ``result.error`` so a process
    pool and a thread pool report them the same way.
    """
    started = time.perf_counter()
    worker = worker_label()
    damaged = ""
    try:
        session, cache = _worker_state()
        live = {}
        for dep in task.closure:
            unit = cache.get(dep.name)
            if unit is None or unit.export_pid != dep.pid or (
                    not unit.decoded and unit.payload != dep.payload):
                if unit is not None:
                    _evict(session, cache, dep.name)
                unit = load_unit(dep.name, dep.pid,
                                 [live[d] for d in dep.deps],
                                 dep.payload, session, dep.source_digest)
                cache[dep.name] = unit
            live[dep.name] = unit
        imports = [live[d] for d in task.imports]
        try:
            unit = compile_unit(task.name, task.source, imports, session,
                                tree=task.tree)
        except UnitDecodeError as err:
            damaged = err.unit.name
            _evict(session, cache, damaged)
            raise
        result = CompileResult(task.name, unit.export_pid, unit.payload,
                               unit.source_digest, unit.times,
                               binding_pids=unit.binding_pids,
                               started=started,
                               ended=time.perf_counter(), worker=worker,
                               attempt=task.attempt)
        _keep(session, cache, unit)
        return result
    except Exception as err:
        return CompileResult(task.name,
                             error=(type(err).__name__, str(err)),
                             started=started,
                             ended=time.perf_counter(), worker=worker,
                             attempt=task.attempt, damaged=damaged)


def _keep(session, cache: dict, unit) -> None:
    """Cache the unit this worker just compiled, as a builder keeps
    its live units, so a later task whose closure holds it decodes
    nothing.  A cached unit of that name under another pid is evicted
    first, with its cached dependents.  Under the same pid the cached
    copy stays: the pid points back at the objects it (and its cached
    dependents) were built on or, not decoded yet, at the cached unit
    itself."""
    cached = cache.get(unit.name)
    if cached is None or cached.export_pid != unit.export_pid:
        if cached is not None:
            _evict(session, cache, unit.name)
        cache[unit.name] = unit
        return
    session.retire(unit.export_pid)
    if cached.decoded:
        session.register_exports(cached.export_pid, cached.export_index)
    else:
        session.defer(cached)


def _evict(session, cache: dict, name: str) -> None:
    """Drop the superseded (or undecodable) cached unit ``name`` and
    every cached unit built against it, retiring their pids.  The cache
    lists each unit after its imports (a unit is cached only once its
    imports are, and an evicted import takes its dependents with it), so
    one pass in insertion order finds every dependent."""
    doomed = {name}
    for other, unit in cache.items():
        if any(dep in doomed for dep, _pid in unit.imports):
            doomed.add(other)
    for other in doomed:
        session.retire(cache.pop(other).export_pid)


def _probe() -> int:
    return 42


# -- executors -----------------------------------------------------------


class InlineExecutor(Executor):
    """The ``jobs <= 1`` tier: runs each task in the caller, at submit
    time, and returns an already finished future -- so the build pump
    has one dispatch path whatever the tier."""

    def submit(self, fn, /, *args, **kwargs):
        future = Future()
        try:
            future.set_result(fn(*args, **kwargs))
        except Exception as err:
            future.set_exception(err)
        return future


def make_executor(jobs: int):
    """An ``(executor, kind)`` pair for ``jobs`` workers.

    ``jobs <= 1`` is :class:`InlineExecutor` (``"inline"``).  Otherwise
    a process pool (``"process"``), probed because process pools fail
    on platforms without working semaphores or fork/spawn; where the
    probe fails, the broken pool is shut down and a thread pool
    (``"thread"``) takes its place, never an error.
    """
    if jobs <= 1:
        return InlineExecutor(), "inline"
    executor = None
    try:
        from concurrent.futures import ProcessPoolExecutor

        executor = ProcessPoolExecutor(max_workers=jobs)
        executor.submit(_probe).result(timeout=60)
        return executor, "process"
    except Exception:
        if executor is not None:
            # Don't leak the broken pool's workers when degrading.
            executor.shutdown(wait=False, cancel_futures=True)
    return ThreadPoolExecutor(max_workers=jobs), "thread"


def _make_task(builder, graph: DepGraph, name: str,
               attempt: int = 0) -> CompileTask:
    """Package one unit's compile: its source, the dependency memo's
    tree of it if the memo still holds one (taken, so this attempt is
    its only reader), and the dehydrated transitive import closure
    (stable-library units included)."""
    closure_names = _import_closure(builder, graph.deps[name])
    closure = tuple(
        ClosureUnit(
            name=dep,
            pid=builder.units[dep].export_pid,
            deps=tuple(n for n, _pid in builder.units[dep].imports),
            payload=builder.units[dep].payload,
            source_digest=builder.units[dep].source_digest,
        )
        for dep in closure_names
    )
    source = builder.project.source(name)
    return CompileTask(name=name, source=source,
                       imports=tuple(graph.deps[name]), closure=closure,
                       attempt=attempt,
                       tree=take_tree(builder._dep_cache, name, source))


def _import_closure(builder, roots: list[str]) -> list[str]:
    """Transitive imports of ``roots`` in dependency order (imports
    before importers), walking the live units' recorded import lists --
    which, unlike the project graph, also cover stable-library units."""
    order: list[str] = []
    seen: set[str] = set()
    stack: list[tuple[str, bool]] = [(r, False) for r in reversed(roots)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if node in seen:
            continue
        seen.add(node)
        stack.append((node, True))
        for dep_name, _pid in reversed(builder.units[node].imports):
            if dep_name not in seen:
                stack.append((dep_name, False))
    return order


def _apply_result(builder, graph: DepGraph, name: str, reason: str,
                  result: CompileResult) -> UnitOutcome:
    """Land a worker's compile in the parent, as a serial compile
    would have: install a header-backed unit for the payload (the
    parent decodes it only if it links or compiles a dependent), write
    the record, run the builder's post-compile hook."""
    imports = [builder.units[d] for d in graph.deps[name]]
    unit = load_unit(name, result.export_pid, imports, result.payload,
                     builder.session, result.source_digest,
                     meter=builder.meter,
                     binding_pids=result.binding_pids)
    unit.times = result.times  # report the worker's compile timings
    previous = builder.store.get(name)
    pid_changed = (previous is None
                   or previous.export_pid != result.export_pid)
    builder.install(name, unit)
    builder.store.put(builder.make_record(name, unit))
    builder.on_compiled(name, graph)
    return UnitOutcome(name, "compiled", reason, pid_changed,
                       result.times)
