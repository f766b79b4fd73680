"""Fault injection for the bin-file store.

The store never touches the OS directly; every disk access goes through
a :class:`FileSystem` seam.  Production code uses :data:`REAL_FS`; the
fault-injection tests swap in a :class:`FaultyFS` driven by a
deterministic :class:`FaultPlan` that simulates a process dying at an
exact point of a save -- crash *before* the N-th mutating call,
optionally tearing that write in half first.  Once "dead", every later
filesystem call raises :class:`InjectedCrash` and the lock file is left
behind, exactly as a killed process would leave it.

Further fault modes ride the same seam:

- **Disk-full (ENOSPC).**  Unlike a crash, a full disk does not kill
  the process: the failing ``write_bytes`` raises ``OSError(ENOSPC)``
  and every *later* write fails too (a full disk stays full), while
  reads, renames and removes keep working (removal frees space).
  ``FaultPlan.enospc_at_write=N`` fills the disk immediately before the
  N-th payload-writing call; ``FaultPlan.byte_budget=B`` fails any
  write that would push the cumulative committed bytes past ``B``.
  ``FaultPlan.short_write_at=N`` is the *partial-disk* shape: the N-th
  write silently commits only half its bytes and reports success --
  the lie the store's checksums exist to catch.
- :class:`SlowFS` injects *latency*: calls stall, then succeed.  Slow
  is not dead -- the stale-lock breaker must leave a slow-but-live
  writer's lock alone, and lock-timeout tuning happens against this.
- :class:`TwoWriterInterleaver` serializes the filesystem calls of two
  concurrent writers according to an explicit schedule string
  (``"ABAB..."``), making concurrent-writer races *deterministic*: each
  schedule is one reproducible interleaving of, say, two saves racing
  on one store.  With ``mutations_only=True`` the schedule
  advances only on *mutating* calls, so a short schedule prefix pins
  down exactly the writes that can race.  :func:`bounded_schedules`
  enumerates every schedule prefix up to a depth and
  :func:`search_schedules` drives a check over the whole space --
  bounded exhaustive schedule *search* instead of hand-picked strings.

The *network* seam gets the same treatment: the remote store backend
(:mod:`repro.cm.remote`) moves bytes through a ``send(request) ->
response`` transport object, and :class:`FaultyTransport` wraps any of
them to drop, time out, truncate or garble the N-th response (latched --
a dead cache server stays dead).  Truncation and garbling mangle the
serialized frame, so the frame codec's own CRC is what must catch them,
exactly as on a real wire.

Build *workers* are faulted at the executor, not the task:
:func:`faulty_executors` gives :class:`~repro.cm.supervise.Supervisor`
pools that run each compile under a :class:`WorkerFaults` plan (crash,
stall or poison, per unit and attempt).  The plan travels in each
submit call, so it works on process pools too.

For damage *at rest* (a disk that lies, an editor that truncated a
file), the module also provides post-hoc corruptors -- truncate,
bit-flip, delete, garbage-header -- plus helpers to locate a named
record's files inside a store directory.  :func:`fault_seed` is the
``REPRO_FAULT_SEED`` knob every randomized fault/schedule test draws
its seed from, so CI failures reproduce exactly.
"""

from __future__ import annotations

import errno
import itertools
import json
import os
import threading
import time
from concurrent.futures import Executor
from dataclasses import dataclass, field

from repro.cm import parallel


class InjectedCrash(Exception):
    """Simulated process death during a filesystem operation."""


class FileSystem:
    """The store's I/O seam; this implementation is the real filesystem."""

    def read_bytes(self, path: str) -> bytes:
        with open(path, "rb") as f:
            return f.read()

    def write_bytes(self, path: str, data: bytes) -> None:
        with open(path, "wb") as f:
            f.write(data)
            f.flush()
            os.fsync(f.fileno())

    def replace(self, src: str, dst: str) -> None:
        os.replace(src, dst)

    def exists(self, path: str) -> bool:
        return os.path.exists(path)

    def isdir(self, path: str) -> bool:
        return os.path.isdir(path)

    def listdir(self, path: str) -> list[str]:
        return sorted(os.listdir(path))

    def remove(self, path: str) -> None:
        try:
            os.remove(path)
        except FileNotFoundError:
            pass

    def makedirs(self, path: str) -> None:
        os.makedirs(path, exist_ok=True)

    def create_exclusive(self, path: str, data: bytes) -> bool:
        """Create ``path`` holding ``data`` iff it does not already
        exist; the creation itself is atomic (O_CREAT | O_EXCL)."""
        try:
            fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            return False
        try:
            os.write(fd, data)
        finally:
            os.close(fd)
        return True

    def release_lock(self, path: str) -> None:
        self.remove(path)

    def stat_signature(self, path: str) -> tuple | None:
        """A cheap change probe: ``(mtime_ns, size)`` of ``path``, or
        None when it is absent/unreadable.  Two equal signatures mean
        the file has (almost certainly) not changed; the build daemon
        uses this to refresh sources and the store incrementally
        instead of re-reading everything per request."""
        try:
            st = os.stat(path)
        except OSError:
            return None
        return (st.st_mtime_ns, st.st_size)

    def pid_alive(self, pid: int) -> bool:
        """Is a process with this pid running?  Non-positive and
        out-of-range pids are never alive (and never signalled)."""
        if pid <= 0:
            return False
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return False
        except PermissionError:
            return True
        except (OverflowError, ValueError):
            return False
        return True


REAL_FS = FileSystem()


@dataclass
class FaultPlan:
    """A deterministic description of how a session's filesystem fails.

    ``crash_at_mutation=N`` kills the process immediately *before* its
    N-th mutating call (0-based over writes, renames, removes and lock
    creations), so sweeping N over ``0..total`` exercises every possible
    crash point of a save.  With ``torn=True`` the fatal call, when it is
    a plain write, first leaves half of its bytes on disk -- a torn
    write.  ``lock_pid`` substitutes the pid recorded in lock files, so a
    test can simulate a lock abandoned by a dead process.

    The disk-full family (counted over ``write_bytes`` calls only,
    0-based; the process stays alive):

    - ``enospc_at_write=N``: the N-th and every later write raises
      ``OSError(ENOSPC)`` -- the disk filled up and stays full;
    - ``byte_budget=B``: a write that would push the cumulative
      committed bytes past ``B`` fails with ``OSError(ENOSPC)``, and so
      does every write after it;
    - ``short_write_at=N``: the N-th write commits only half its bytes
      and *reports success* -- a short write on a nearly-full disk.
    """

    crash_at_mutation: int | None = None
    torn: bool = False
    lock_pid: int | None = None
    enospc_at_write: int | None = None
    byte_budget: int | None = None
    short_write_at: int | None = None


class FaultyFS(FileSystem):
    """A filesystem that fails according to a :class:`FaultPlan`."""

    def __init__(self, plan: FaultPlan | None = None):
        self.plan = plan if plan is not None else FaultPlan()
        #: Mutating calls completed so far.
        self.mutations = 0
        #: ``write_bytes`` calls attempted so far (the disk-full index).
        self.writes = 0
        #: Bytes successfully committed (the byte-budget meter).
        self.bytes_committed = 0
        #: Set once the planned crash fires; all later calls fail.
        self.dead = False
        #: Set once a disk-full fault fires; all later writes fail.
        self.disk_full = False

    def _check_alive(self) -> None:
        if self.dead:
            raise InjectedCrash("filesystem call after simulated crash")

    def _mutation(self) -> bool:
        """Account one mutating call; returns True when this call is the
        fatal one (caller decides whether to tear first)."""
        self._check_alive()
        plan = self.plan
        if (plan.crash_at_mutation is not None
                and self.mutations >= plan.crash_at_mutation):
            self.dead = True
            return True
        self.mutations += 1
        return False

    # -- reads (a dead process cannot read either) -----------------------

    def read_bytes(self, path: str) -> bytes:
        self._check_alive()
        return super().read_bytes(path)

    def listdir(self, path: str) -> list[str]:
        self._check_alive()
        return super().listdir(path)

    # -- mutations -------------------------------------------------------

    def write_bytes(self, path: str, data: bytes) -> None:
        self._check_alive()
        plan = self.plan
        index = self.writes
        self.writes += 1
        if self.disk_full or (plan.enospc_at_write is not None
                              and index >= plan.enospc_at_write):
            self.disk_full = True
            raise OSError(errno.ENOSPC,
                          f"no space left on device (injected): {path}")
        if (plan.byte_budget is not None
                and self.bytes_committed + len(data) > plan.byte_budget):
            self.disk_full = True
            raise OSError(errno.ENOSPC,
                          f"no space left on device (byte budget "
                          f"{plan.byte_budget} exhausted): {path}")
        if plan.short_write_at is not None \
                and index == plan.short_write_at and data:
            # The partial-disk lie: half the bytes land, success is
            # reported anyway.  Only checksums can catch this.
            short = data[:max(1, len(data) // 2)]
            super().write_bytes(path, short)
            self.bytes_committed += len(short)
            return
        if self._mutation():
            if plan.torn and data:
                super().write_bytes(path, data[:max(1, len(data) // 2)])
            raise InjectedCrash(f"crash during write of {path}")
        super().write_bytes(path, data)
        self.bytes_committed += len(data)

    def replace(self, src: str, dst: str) -> None:
        if self._mutation():
            raise InjectedCrash(f"crash before rename of {src}")
        super().replace(src, dst)

    def remove(self, path: str) -> None:
        if self._mutation():
            raise InjectedCrash(f"crash before remove of {path}")
        super().remove(path)

    def makedirs(self, path: str) -> None:
        self._check_alive()
        super().makedirs(path)

    def create_exclusive(self, path: str, data: bytes) -> bool:
        if self._mutation():
            raise InjectedCrash(f"crash before lock creation at {path}")
        if self.plan.lock_pid is not None:
            try:
                payload = json.loads(data)
                payload["pid"] = self.plan.lock_pid
                data = json.dumps(payload).encode()
            except ValueError:
                pass
        return super().create_exclusive(path, data)

    def release_lock(self, path: str) -> None:
        if self.dead:
            return  # a dead process never cleans up its lock
        super().release_lock(path)


# -- latency injection ---------------------------------------------------


class SlowFS(FileSystem):
    """A filesystem whose calls stall, then succeed (slow-IO, not
    failure).

    Wraps any base filesystem (so it stacks under/over :class:`FaultyFS`
    if needed).  ``write_delay`` stalls every mutating call --
    ``write_bytes``, ``replace``, ``remove``, ``create_exclusive`` --
    and ``read_delay`` every read.  ``op_log`` records the stalled calls
    so tests can assert *where* time went.
    """

    def __init__(self, base: FileSystem | None = None,
                 write_delay: float = 0.0, read_delay: float = 0.0,
                 sleep=time.sleep):
        self.base = base if base is not None else REAL_FS
        self.write_delay = write_delay
        self.read_delay = read_delay
        self._sleep = sleep
        self.op_log: list[str] = []

    def _stall(self, delay: float, op: str, path: str) -> None:
        if delay > 0:
            self.op_log.append(f"{op} {os.path.basename(path)}")
            self._sleep(delay)

    def read_bytes(self, path: str) -> bytes:
        self._stall(self.read_delay, "read_bytes", path)
        return self.base.read_bytes(path)

    def write_bytes(self, path: str, data: bytes) -> None:
        self._stall(self.write_delay, "write_bytes", path)
        self.base.write_bytes(path, data)

    def replace(self, src: str, dst: str) -> None:
        self._stall(self.write_delay, "replace", dst)
        self.base.replace(src, dst)

    def remove(self, path: str) -> None:
        self._stall(self.write_delay, "remove", path)
        self.base.remove(path)

    def create_exclusive(self, path: str, data: bytes) -> bool:
        self._stall(self.write_delay, "create_exclusive", path)
        return self.base.create_exclusive(path, data)

    def release_lock(self, path: str) -> None:
        self.base.release_lock(path)

    def exists(self, path: str) -> bool:
        return self.base.exists(path)

    def isdir(self, path: str) -> bool:
        return self.base.isdir(path)

    def listdir(self, path: str) -> list[str]:
        self._stall(self.read_delay, "listdir", path)
        return self.base.listdir(path)

    def makedirs(self, path: str) -> None:
        self.base.makedirs(path)

    def pid_alive(self, pid: int) -> bool:
        return self.base.pid_alive(pid)


# -- deterministic two-writer interleaving -------------------------------


class InterleavedFS(FileSystem):
    """One writer's view of a shared store under an interleaver: every
    gated call first waits for that writer's turn in the schedule.
    With the driver's ``mutations_only`` set, reads pass through
    ungated and only mutating calls consume schedule steps."""

    def __init__(self, driver: "TwoWriterInterleaver", label: str,
                 base: FileSystem):
        self._driver = driver
        self._label = label
        self._base = base

    def _read_gated(self, fn, *args):
        if self._driver.mutations_only:
            return fn(*args)
        return self._driver._gated(self._label, fn, *args)

    def read_bytes(self, path: str) -> bytes:
        return self._read_gated(self._base.read_bytes, path)

    def write_bytes(self, path: str, data: bytes) -> None:
        return self._driver._gated(self._label, self._base.write_bytes,
                                   path, data)

    def replace(self, src: str, dst: str) -> None:
        return self._driver._gated(self._label, self._base.replace,
                                   src, dst)

    def exists(self, path: str) -> bool:
        return self._read_gated(self._base.exists, path)

    def isdir(self, path: str) -> bool:
        return self._read_gated(self._base.isdir, path)

    def listdir(self, path: str) -> list[str]:
        return self._read_gated(self._base.listdir, path)

    def remove(self, path: str) -> None:
        return self._driver._gated(self._label, self._base.remove, path)

    def makedirs(self, path: str) -> None:
        return self._read_gated(self._base.makedirs, path)

    def create_exclusive(self, path: str, data: bytes) -> bool:
        return self._driver._gated(self._label,
                                   self._base.create_exclusive,
                                   path, data)

    def release_lock(self, path: str) -> None:
        return self._driver._gated(self._label, self._base.release_lock,
                                   path)

    def pid_alive(self, pid: int) -> bool:
        return self._base.pid_alive(pid)


class TwoWriterInterleaver:
    """Drive two writers' filesystem calls in an exact order.

    ``schedule`` is a string over the writer labels (``"ABABAB"``,
    ``"AABB..."``): the k-th granted filesystem call must come from the
    writer the k-th character names.  Entries for a writer that already
    finished are skipped; when the schedule is exhausted (or a writer
    stalls past ``step_timeout`` -- e.g. it is blocked on the other's
    store lock while the schedule still names it) the gate falls open
    and both writers free-run to completion.  Given a schedule and two
    deterministic writers, the resulting on-disk interleaving is fully
    reproducible.

    With ``mutations_only=True`` only *mutating* calls (writes,
    renames, removes, lock creations/releases) consume schedule steps;
    reads run ungated.  A schedule character then names exactly one
    store mutation point, so a short schedule prefix is a complete
    description of which writes raced -- the granularity
    :func:`search_schedules` explores exhaustively.

    Use :meth:`fs` to get each writer's gated filesystem, then
    :meth:`run` to execute both concurrently.
    """

    def __init__(self, schedule: str, base: FileSystem | None = None,
                 step_timeout: float = 10.0,
                 mutations_only: bool = False):
        self.schedule = schedule
        self.base = base if base is not None else REAL_FS
        self.step_timeout = step_timeout
        self.mutations_only = mutations_only
        self._pos = 0
        self._done: set[str] = set()
        self._free = False
        self._cond = threading.Condition()
        #: Granted calls, in order -- the realized interleaving.
        self.trace: list[str] = []

    def fs(self, label: str) -> InterleavedFS:
        return InterleavedFS(self, label, self.base)

    def _is_turn(self, label: str) -> bool:
        if self._free:
            return True
        while (self._pos < len(self.schedule)
               and self.schedule[self._pos] in self._done):
            self._pos += 1
        if self._pos >= len(self.schedule):
            self._free = True
            return True
        return self.schedule[self._pos] == label

    def _gated(self, label: str, fn, *args):
        deadline = time.monotonic() + self.step_timeout
        with self._cond:
            while not self._is_turn(label):
                if time.monotonic() >= deadline:
                    self._free = True  # fail open: a test never deadlocks
                    break
                self._cond.wait(0.005)
        try:
            return fn(*args)
        finally:
            with self._cond:
                if (not self._free and self._pos < len(self.schedule)
                        and self.schedule[self._pos] == label):
                    self._pos += 1
                self.trace.append(label)
                self._cond.notify_all()

    def run(self, writer_a, writer_b) -> tuple[object, object]:
        """Run both writers concurrently under the schedule; re-raises
        the first writer failure (A's before B's)."""
        results: dict[str, object] = {}
        errors: dict[str, BaseException] = {}

        def runner(label: str, fn) -> None:
            try:
                results[label] = fn()
            except BaseException as err:
                errors[label] = err
            finally:
                with self._cond:
                    self._done.add(label)
                    self._cond.notify_all()

        threads = [
            threading.Thread(target=runner, args=("A", writer_a)),
            threading.Thread(target=runner, args=("B", writer_b)),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        for label in ("A", "B"):
            if label in errors:
                raise errors[label]
        return results.get("A"), results.get("B")


# -- bounded exhaustive schedule search ----------------------------------
#
# TwoWriterInterleaver makes one interleaving reproducible; these
# helpers explore the *space* of interleavings.  A schedule string is a
# prefix: the first len(schedule) granted calls follow it exactly, then
# both writers free-run.  Enumerating every prefix of depth K therefore
# covers every way the first K (mutation-point) calls can interleave --
# bounded exhaustive search in the model-checking sense, with the
# convergence check run after every explored schedule.


def bounded_schedules(depth: int, labels: str = "AB"):
    """Every schedule prefix of length ``depth`` over ``labels``
    (``len(labels) ** depth`` strings, lexicographic order)."""
    for chars in itertools.product(labels, repeat=depth):
        yield "".join(chars)


def sampled_schedules(depth: int, count: int, seed: int | None = None,
                      labels: str = "AB"):
    """``count`` random schedule prefixes of length ``depth`` --
    the sampling fallback when ``len(labels) ** depth`` is too big to
    exhaust.  Seeded via :func:`fault_seed` unless given."""
    import random

    rng = random.Random(fault_seed() if seed is None else seed)
    for _ in range(count):
        yield "".join(rng.choice(labels) for _ in range(depth))


@dataclass
class ScheduleFailure:
    """One explored schedule whose check did not hold."""

    schedule: str
    error: str


@dataclass
class ScheduleSearchReport:
    """What a :func:`search_schedules` exploration covered and found."""

    explored: int = 0
    #: Distinct *realized* interleavings (the driver's granted-call
    #: traces): the state count of the explored schedule space.
    realized: set = field(default_factory=set)
    failures: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    @property
    def states(self) -> int:
        return len(self.realized)

    def summary(self) -> str:
        verdict = "all converged" if self.ok else \
            f"{len(self.failures)} FAILED"
        return (f"schedule search: {self.explored} schedule(s) explored, "
                f"{self.states} distinct interleaving(s), {verdict}")


def search_schedules(schedules, run_one,
                     check=None) -> ScheduleSearchReport:
    """Run ``run_one(schedule) -> TwoWriterInterleaver`` for every
    schedule, then ``check(schedule, driver)`` (assertions welcome);
    any exception is recorded as a :class:`ScheduleFailure` rather than
    aborting the sweep, so one report covers the whole space."""
    report = ScheduleSearchReport()
    for schedule in schedules:
        report.explored += 1
        try:
            driver = run_one(schedule)
            if driver is not None:
                report.realized.add("".join(driver.trace))
            if check is not None:
                check(schedule, driver)
        except Exception as err:
            report.failures.append(ScheduleFailure(
                schedule, f"{type(err).__name__}: {err}"))
    return report


def fault_seed(default: int = 0) -> int:
    """The ``REPRO_FAULT_SEED`` environment knob: one integer seed for
    every randomized fault/schedule test, so a CI failure reproduces
    with ``REPRO_FAULT_SEED=<n> pytest ...``."""
    try:
        return int(os.environ.get("REPRO_FAULT_SEED", default))
    except ValueError:
        return default


# -- the network seam ----------------------------------------------------


class TransportError(Exception):
    """A remote-store request failed at the transport layer: the
    connection dropped, the response frame was truncated, or its
    integrity check failed.  The remote backend converts every one of
    these into *offline-and-local-miss* -- a build never sees this
    exception (see :mod:`repro.cm.remote`)."""


class TransportTimeout(TransportError):
    """A remote-store request exceeded its deadline."""


@dataclass
class TransportPlan:
    """A deterministic network fault: break the ``fault_at``-th response
    (1-based) in ``mode`` -- and, latched, every response after it, the
    way a dead cache server stays dead.

    Modes:

    - ``"drop"``: the connection dies (:class:`TransportError`);
    - ``"timeout"``: the request hangs past its deadline
      (:class:`TransportTimeout`);
    - ``"truncate"``: the response comes back cut in half (the frame
      codec's integrity check turns this into :class:`TransportError`);
    - ``"garble"``: the response arrives bit-flipped (ditto).
    """

    fault_at: int = 0  # 0 = never fault
    mode: str = "drop"


class FaultyTransport:
    """Wraps a transport and injects :class:`TransportPlan` faults on
    the response path.  Byte-level: truncation and garbling mangle the
    serialized response frame, so the *frame codec's* CRC -- not the
    store's record checksums -- is what must catch them, exactly as on
    a real wire."""

    def __init__(self, inner, plan: TransportPlan | None = None):
        self.inner = inner
        self.plan = plan if plan is not None else TransportPlan()
        self.responses = 0
        self.faults_fired = 0

    def send(self, request: bytes) -> bytes:
        response = self.inner.send(request)
        self.responses += 1
        plan = self.plan
        if not plan.fault_at or self.responses < plan.fault_at:
            return response
        self.faults_fired += 1  # latched: the Nth and every one after
        if plan.mode == "drop":
            raise TransportError(
                f"injected connection drop on response {self.responses}")
        if plan.mode == "timeout":
            raise TransportTimeout(
                f"injected timeout on response {self.responses}")
        if plan.mode == "truncate":
            return response[:max(1, len(response) // 2)]
        if plan.mode == "garble":
            mangled = bytearray(response)
            for i in range(0, len(mangled), 37):
                mangled[i] ^= 0x5A
            return bytes(mangled)
        raise ValueError(f"unknown transport fault mode {plan.mode!r}")

    def close(self) -> None:
        close = getattr(self.inner, "close", None)
        if close is not None:
            close()


# -- the worker seam -----------------------------------------------------


@dataclass(frozen=True)
class WorkerFaults:
    """Deterministic fault plan for a pooled build's workers.

    A worker compiling a unit in ``crash_units`` dies with
    :class:`InjectedCrash`; one compiling a unit in ``slow_units``
    stalls for ``delay`` seconds first (slow-IO shape: the work
    completes late, it does not fail).  Both fire only while the
    task's attempt number is below ``crash_attempts``/``slow_attempts``,
    so retries are deterministic; units in ``poison_units`` crash on
    *every* attempt.  Mount a plan with :func:`faulty_executors`.
    """

    crash_units: frozenset = frozenset()
    slow_units: frozenset = frozenset()
    delay: float = 0.0
    crash_attempts: int = 1
    slow_attempts: int = 1
    poison_units: frozenset = frozenset()


def _faulty_compile(plan: WorkerFaults, fn, task):
    """Run one compile task under ``plan``, inside the worker: stall,
    come back as an :class:`InjectedCrash` error result, or run
    ``fn(task)``.  Module-level, so process pools can pickle it."""
    started = time.perf_counter()
    if task.name in plan.slow_units and task.attempt < plan.slow_attempts:
        time.sleep(plan.delay)
    if task.name in plan.poison_units or (
            task.name in plan.crash_units
            and task.attempt < plan.crash_attempts):
        return parallel.CompileResult(
            task.name,
            error=(InjectedCrash.__name__,
                   f"worker killed compiling {task.name} "
                   f"(attempt {task.attempt})"),
            started=started, ended=time.perf_counter(),
            worker=parallel.worker_label(), attempt=task.attempt)
    result = fn(task)
    result.started = started  # the stall occupied the worker too
    return result


class FaultyExecutor(Executor):
    """Wraps a build executor so every task it runs obeys a
    :class:`WorkerFaults` plan.  Futures are the wrapped executor's
    own, so the pump's timeouts and pool-death handling see the real
    pool."""

    def __init__(self, executor: Executor, plan: WorkerFaults):
        self.executor = executor
        self.plan = plan

    def submit(self, fn, task):
        return self.executor.submit(_faulty_compile, self.plan, fn, task)

    def shutdown(self, wait: bool = True, *,
                 cancel_futures: bool = False) -> None:
        self.executor.shutdown(wait=wait, cancel_futures=cancel_futures)


def faulty_executors(plan: WorkerFaults):
    """An ``executor_factory`` for
    :class:`~repro.cm.supervise.Supervisor` that wraps whatever
    :func:`repro.cm.parallel.make_executor` returns (looked up at call
    time) in a :class:`FaultyExecutor`.

    The plan covers only the pool this factory made (inline for one
    job, else a process pool): when that pool dies, the supervisor's
    degradation ladder builds the next tier itself, without the plan."""

    def factory(jobs: int):
        executor, kind = parallel.make_executor(jobs)
        return FaultyExecutor(executor, plan), kind

    return factory


# -- post-hoc corruptors (damage at rest) --------------------------------


def truncate_file(path: str, keep: int | None = None) -> None:
    """Cut a file down to ``keep`` bytes (default: half)."""
    with open(path, "rb") as f:
        data = f.read()
    if keep is None:
        keep = len(data) // 2
    with open(path, "wb") as f:
        f.write(data[:keep])


def bit_flip(path: str, offset: int = 0, mask: int = 0x01) -> None:
    """Flip bits at ``offset`` (negative counts from the end)."""
    with open(path, "rb") as f:
        data = bytearray(f.read())
    if not data:
        return
    data[offset] ^= mask
    with open(path, "wb") as f:
        f.write(bytes(data))


def delete_file(path: str) -> None:
    try:
        os.remove(path)
    except FileNotFoundError:
        pass


def garbage_header(path: str, data: bytes = b'{"format": 3, "nam') -> None:
    """Overwrite a header with syntactically invalid JSON."""
    with open(path, "wb") as f:
        f.write(data)


def plant_stale_lock(store_dir: str, pid: int = -1,
                     garbage: bool = False) -> str:
    """Leave a lock file behind as a dead (or torn) locker would."""
    from repro.cm.store import LOCK_NAME

    path = os.path.join(store_dir, LOCK_NAME)
    with open(path, "wb") as f:
        f.write(b"\x00torn lock" if garbage
                else json.dumps({"pid": pid}).encode())
    return path


def header_path(store_dir: str, name: str) -> str:
    """The on-disk header file of the record named ``name``."""
    from repro.cm.store import HEADER_SUFFIX, escape_name

    return os.path.join(store_dir, escape_name(name) + HEADER_SUFFIX)


def payload_path(store_dir: str, name: str) -> str:
    """The on-disk payload file of the record named ``name``."""
    from repro.cm.store import PAYLOAD_SUFFIX, escape_name

    return os.path.join(store_dir, escape_name(name) + PAYLOAD_SUFFIX)
