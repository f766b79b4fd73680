"""The build daemon: a resident compilation service.

The paper's Visible Compiler thesis is that the compiler is a library
any client can drive.  Batch ``python -m repro.cm`` drives it once and
exits, paying a cold start every run: fresh sessions, a full store
load, dependency re-analysis from scratch.  :class:`BuildDaemon` keeps
all of that warm across requests:

- **Warm builders.**  One builder (session + live units + dep cache)
  per group survives between requests, so an unchanged unit is a
  ``cached`` verdict -- no store read, no rehydration.  The daemon's
  one worker pool persists too (``Supervisor``'s ``keep_executor``
  seam), which keeps the workers' own sessions and decoded import
  closures warm (:func:`repro.cm.parallel.compile_task`'s cache).
  The builder's own units stay header-backed: every compile runs on
  a worker, so the daemon decodes no payload in its builder.
- **One configuration.**  The manager, the jobs count (and with it the
  pool kind), the store URL and the supervision policy are fixed when
  the daemon starts; a request names only its group.  Each group's
  store is its ``.bin`` directory, or, with a store URL, a remote
  server fronted by that directory as a write-through cache.
- **Incremental refresh.**  Sources are re-read only when their
  ``(mtime_ns, size)`` signature moved
  (:meth:`~repro.cm.seam.FileSystem.stat_signature`); the store is
  reloaded only when its on-disk
  :meth:`~repro.cm.store.BinStore.disk_signature` moved (another
  process wrote it).  A request lists the store once, for that check,
  and saves only what it changed; its own saves update the kept
  signature by restatting the files they wrote
  (:meth:`~repro.cm.store.BinStore.signature_after_saves`), so a null
  request writes nothing.  A *touch* -- new mtime, identical text --
  leaves the in-memory project untouched, exactly as a batch run would
  see no digest change.
- **Byte identity.**  Daemon-served builds leave the same store bytes
  (records, manifest, export pids) a fresh batch build would.  The
  one non-obvious part is the record header's ``built_at`` logical
  clock: on any real text change the daemon rebuilds a *fresh*
  :class:`~repro.cm.project.Project` from the current sources instead
  of ticking the old one, so its clock always equals what
  ``Project.from_directory`` would produce.  The differential matrix
  in ``tests/cm/test_daemon_determinism.py`` holds the daemon to this
  byte-for-byte.
- **Supervised builds.**  Every request runs the supervised build
  pump (:class:`~repro.cm.supervise.Supervisor`), checkpointing into
  the group's store, so retries, timeouts, poison quarantine,
  checkpoints and the explanation ledger all work for daemon-served
  builds.
- **Per-group locks.**  Requests for one group take turns on that
  group's lock, so a duplicate request waits for the build in flight
  and then finds its units ``cached``; disjoint groups build
  concurrently.
- **Always counting.**  Unless given another meter, the daemon counts
  with a :class:`~repro.obs.meter.CounterMeter`, whose aggregates stay
  O(distinct names) however long it serves, so the ``stats`` request
  always reports hit rate, occupancy and the raw telemetry.

The stdio front end (``python -m repro.cm --serve``) speaks
newline-delimited JSON, one request object in, one ``sort_keys``
response object out (see :func:`serve`); the wire format is golden
tested in ``tests/cm/test_daemon_requests.py``.
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import dataclass, field

from repro.cm.backend import configured_backend
from repro.cm.base import BaseBuilder
from repro.cm.manager import MANAGERS
from repro.cm.parallel import make_executor
from repro.cm.project import Project
from repro.cm.report import BuildReport
from repro.cm.store import BinStore
from repro.cm.supervise import SupervisePolicy, Supervisor
from repro.obs.diff import diff_against_profile
from repro.obs.history import BuildHistory, BuildProfile
from repro.obs.meter import CounterMeter

#: Wire-protocol version spoken by :func:`serve` (bumped on any
#: incompatible change to the request/response shapes).
PROTOCOL_VERSION = 4

#: Request keys that would reconfigure the daemon, each with the
#: start-up flag that sets it (the pool kind follows from ``--jobs``).
STARTUP_KEYS = {"manager": "--manager", "jobs": "--jobs",
                "pool": "--jobs"}

SOURCE_SUFFIX = ".sml"


class DaemonError(Exception):
    """A request the daemon cannot serve (bad group, bad manager,
    daemon already shut down).  Build *failures* are not errors: they
    come back inside the report like any supervised build."""


@dataclass
class DaemonReply:
    """One request's answer: the group it was for, the build report,
    and how the daemon got there."""

    group: str
    report: BuildReport
    request_id: int
    #: True when the store was reloaded from disk because its
    #: signature moved (another process wrote it).
    store_reloaded: bool = False
    #: How many source files were re-read (stat signature moved or
    #: first contact).
    sources_refreshed: int = 0
    wall_seconds: float = 0.0


@dataclass
class _GroupState:
    """Everything the daemon keeps warm for one source directory."""

    srcdir: str
    bin_dir: str
    lock: threading.Lock
    opened: bool = False
    project: Project | None = None
    store: BinStore | None = None
    #: The configured store backend (None = the ``.bin`` directory;
    #: the remote backend is created lazily from the daemon's
    #: store_url).
    backend: object = None
    #: The warm builder (session, live units, dep cache), made by the
    #: group's first build.
    builder: BaseBuilder | None = None
    #: source filename -> (mtime_ns, size) at last read.
    stats: dict = field(default_factory=dict)
    #: source unit name -> text at last read.
    texts: dict = field(default_factory=dict)
    #: the store's disk signature as of our last load or save.
    store_sig: object = ()
    #: the group's profile for the daemon's manager (created on first
    #: open).
    history: BuildHistory | None = None
    #: The profile *before* the latest build -- what ``explain-diff``
    #: compares the latest ledger against.
    prior_profile: BuildProfile | None = None


class BuildDaemon:
    """A long-lived, in-process build service (see module docstring).

    Thread-safe: :meth:`request` may be called from many client
    threads.  Requests for the same group serialize on the group's
    lock; requests for disjoint groups run concurrently.
    """

    def __init__(self, manager: str = "cutoff", jobs: int = 1,
                 policy: SupervisePolicy | None = None, meter=None,
                 store_url: str | None = None):
        if manager not in MANAGERS:
            raise DaemonError(f"unknown manager {manager!r} "
                              f"(want one of {sorted(MANAGERS)})")
        self.manager = manager
        self.jobs = max(1, jobs)
        self.store_url = store_url
        self.policy = policy if policy is not None else SupervisePolicy()
        self.meter = meter if meter is not None else CounterMeter()
        self._lock = threading.Lock()
        self._states: dict[str, _GroupState] = {}
        #: The warm worker pool, ``(executor, kind)``, made by the
        #: first build and shared by every group.
        self._pool: tuple | None = None
        self._request_seq = 0
        self._closed = False

    # -- the request path -------------------------------------------------

    def request(self, srcdir: str) -> DaemonReply:
        """Bring ``srcdir`` up to date; returns this request's reply.

        A request for a group that is already building waits on the
        group's lock and then runs its own (usually no-op) build.
        """
        if self._closed:
            raise DaemonError("daemon is shut down")
        t0 = time.perf_counter()
        state = self._state_for(srcdir)
        with self._lock:
            self._request_seq += 1
            request_id = self._request_seq
        self.meter.counter("daemon.requests")
        with state.lock:
            report, reloaded, refreshed = self._build(state)
        wall = time.perf_counter() - t0
        self.meter.counter("daemon.builds")
        # The worker-seconds this build had to fill: the ``stats``
        # occupancy's denominator.
        self.meter.counter("daemon.capacity_seconds",
                           self.jobs * report.wall_seconds)
        self.meter.complete_span(
            "daemon-request", t0, time.perf_counter(), cat="daemon",
            track="daemon", group=state.srcdir, manager=self.manager,
            compiled=len(report.compiled))
        return DaemonReply(group=state.srcdir, report=report,
                           request_id=request_id,
                           store_reloaded=reloaded,
                           sources_refreshed=refreshed,
                           wall_seconds=wall)

    def explain(self, srcdir: str, unit: str | None = None) -> str:
        """The cutoff-explanation ledger of the group's last build."""
        state = self._state_for(srcdir)
        with state.lock:
            return self._built(state).ledger.render_text(unit)

    def explain_diff(self, srcdir: str, unit: str | None = None) -> str:
        """Diff the group's latest build decisions against the
        previous build's profile: why did a unit rebuild *this* time
        but not last time (see :mod:`repro.obs.diff`)."""
        state = self._state_for(srcdir)
        with state.lock:
            diff = diff_against_profile(self._built(state).ledger,
                                        state.prior_profile)
            return diff.render_text(unit)

    def stats(self) -> dict:
        """The daemon's rolled-up telemetry: request/build counts,
        cache hit rate, worker occupancy -- cheap enough to serve
        permanently, since the daemon's meter keeps aggregates only.
        A meter without a ``rollup`` (a caller's own tracer) leaves
        just the request counts."""
        with self._lock:
            out: dict = {
                "groups": len(self._states),
                "requests_served": self._request_seq,
            }
        rollup = getattr(self.meter, "rollup", None)
        if rollup is None:
            return out
        data = rollup()
        counters = data.get("counters", {})
        spans = data.get("spans", {})
        compiled = counters.get("units.compiled", 0)
        loaded = counters.get("units.loaded", 0)
        cached = counters.get("units.cached", 0)
        total = compiled + loaded + cached
        if total:
            out["hit_rate"] = round((loaded + cached) / total, 6)
        busy = spans.get("worker-compile", {}).get("seconds", 0.0)
        capacity = counters.get("daemon.capacity_seconds", 0)
        if capacity > 0:
            out["occupancy"] = round(min(1.0, busy / capacity), 6)
        out["telemetry"] = data
        return out

    def shutdown(self) -> None:
        """Shut the warm pool down and refuse further requests."""
        with self._lock:
            self._closed = True
            pool, self._pool = self._pool, None
        if pool is not None:
            pool[0].shutdown(wait=True, cancel_futures=True)

    # -- group state ------------------------------------------------------

    def _built(self, state: _GroupState):
        """The group's warm builder; its ledger is the last build's."""
        if state.builder is None:
            raise DaemonError(f"no build of {state.srcdir} yet")
        return state.builder

    def _state_for(self, srcdir: str) -> _GroupState:
        key = os.path.abspath(srcdir)
        with self._lock:
            state = self._states.get(key)
            if state is None:
                state = _GroupState(
                    srcdir=key, bin_dir=os.path.join(key, ".bin"),
                    lock=threading.Lock())
                self._states[key] = state
        return state

    def _backend_for(self, state: _GroupState):
        """The group's configured store backend, created lazily (see
        :func:`~repro.cm.backend.configured_backend`)."""
        if state.backend is None:
            state.backend = configured_backend(state.bin_dir,
                                               self.store_url)
        return state.backend

    def _open(self, state: _GroupState) -> None:
        """First contact with a group: load the store.  The signature
        is taken first, so a write that races the load moves it."""
        backend = self._backend_for(state)
        state.store_sig = BinStore.disk_signature(state.bin_dir,
                                                  backend=backend)
        state.store = BinStore.load_directory(
            state.bin_dir, meter=self.meter, backend=backend)
        # Profile IO rides the store's fs seam, so fault injection on
        # the store covers history writes too (best-effort either way).
        state.history = BuildHistory(state.bin_dir, self.manager,
                                     state.store.fs)
        state.opened = True

    def _refresh_sources(self, state: _GroupState) -> int:
        """Re-read only the sources whose stat signature moved; swap in
        a *fresh* project iff any text actually changed (a pure touch
        keeps the project -- and the record headers' logical clock --
        exactly as a batch run would see them)."""
        try:
            entries = sorted(e for e in os.listdir(state.srcdir)
                             if e.endswith(SOURCE_SUFFIX))
        except OSError as err:
            raise DaemonError(
                f"cannot list group {state.srcdir}: {err}") from err
        if not entries:
            raise DaemonError(
                f"no {SOURCE_SUFFIX} sources in {state.srcdir}")
        refreshed = 0
        texts: dict[str, str] = {}
        stats: dict[str, tuple | None] = {}
        for entry in entries:
            name = entry[:-len(SOURCE_SUFFIX)]
            sig = state.store.fs.stat_signature(
                os.path.join(state.srcdir, entry))
            if (sig is not None and sig == state.stats.get(entry)
                    and name in state.texts):
                texts[name] = state.texts[name]
            else:
                with open(os.path.join(state.srcdir, entry),
                          encoding="utf-8") as fh:
                    texts[name] = fh.read()
                refreshed += 1
            stats[entry] = sig
        state.stats = stats
        if state.project is None or texts != state.texts:
            # Real change: a fresh project, so its logical clock equals
            # what Project.from_directory gives a batch build (clock =
            # file count) and built_at stamps match byte-for-byte.
            state.project = Project.from_sources(texts)
            if state.builder is not None:
                state.builder.project = state.project
        state.texts = texts
        return refreshed

    def _refresh_store(self, state: _GroupState) -> bool:
        """Reload the store iff its signature moved since we last
        loaded or saved it (another process -- or, through a remote
        backend, another *machine* -- wrote it).  The one listing of
        the store a request makes."""
        backend = self._backend_for(state)
        sig = BinStore.disk_signature(state.bin_dir, backend=backend)
        if sig == state.store_sig:
            return False
        state.store = BinStore.load_directory(
            state.bin_dir, meter=self.meter, backend=backend)
        if state.builder is not None:
            state.builder.store = state.store
            state.builder.health = state.store.health
        state.store_sig = sig
        self.meter.counter("daemon.store_reloads")
        return True

    # -- one build --------------------------------------------------------

    def _build(self, state: _GroupState):
        opening = not state.opened
        if opening:
            self._open(state)
        refreshed = self._refresh_sources(state)
        reloaded = not opening and self._refresh_store(state)
        if state.builder is None:
            state.builder = MANAGERS[self.manager](
                state.project, store=state.store, meter=self.meter)
        builder = state.builder
        supervisor = Supervisor(
            jobs=self.jobs, policy=self.policy,
            executor_factory=self._executor_factory,
            keep_executor=True)
        report = supervisor.build(builder)
        # The pump checkpointed every change at its last quiet point;
        # save here only what a failed checkpoint left unwritten.
        if builder.store.unsaved():
            builder.store.save_directory(state.bin_dir)
        state.store_sig = builder.store.signature_after_saves(
            state.store_sig)
        self._record_profile(state, builder)
        if report.degraded:
            # The supervisor shut our cached pool down on its way down
            # the ladder; forget it so the next request makes a new one.
            with self._lock:
                self._pool = None
        return report, reloaded, refreshed

    def _record_profile(self, state: _GroupState, builder) -> None:
        """Replace the profile, as a batch build does: the one on disk
        (which a batch build of the same group may have written since
        the last request) becomes the ``explain-diff`` baseline.  Best
        effort -- profile IO never fails a build."""
        state.prior_profile = state.history.latest()
        state.history.record(builder.ledger, state.prior_profile)

    def _executor_factory(self, jobs: int):
        """Warm-pool seam handed to the supervisor: the daemon's one
        pool, made on first use.  Keeping it alive keeps the workers'
        sessions and rehydration caches warm across requests."""
        with self._lock:
            if self._pool is None:
                self._pool = make_executor(jobs)
            return self._pool


# -- the stdio front end -------------------------------------------------


def wire_encode(obj: dict) -> str:
    """The wire format: compact, key-sorted JSON -- deterministic bytes
    for a given payload, which is what the golden test pins down."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def reply_to_wire(reply: DaemonReply) -> dict:
    report = reply.report
    return {
        "group": reply.group,
        "store_reloaded": reply.store_reloaded,
        "sources_refreshed": reply.sources_refreshed,
        "jobs": report.jobs,
        "pool": report.pool,
        "stats": report.stats(),
        "outcomes": [
            {"name": o.name, "action": o.action, "reason": o.reason}
            for o in report.outcomes
        ],
        "wall_seconds": round(reply.wall_seconds, 6),
    }


def _request_group(request: dict, default_group: str | None) -> str:
    """The group a ``build``, ``explain`` or ``explain-diff`` request is
    for.  Such a request may not reconfigure the daemon: naming a key
    of :data:`STARTUP_KEYS` is an error."""
    for key, flag in STARTUP_KEYS.items():
        if key in request:
            raise DaemonError(
                f"request key {key!r} is not accepted (protocol "
                f"{PROTOCOL_VERSION}): {flag} sets it when the daemon "
                f"starts")
    group = request.get("group", default_group)
    if not group:
        raise DaemonError('no group: pass "group" or serve with a srcdir')
    return group


def serve(daemon: BuildDaemon, lines, out,
          default_group: str | None = None) -> int:
    """Serve newline-delimited JSON requests until EOF or ``shutdown``.

    ``lines`` is any iterable of strings (sys.stdin, a socket file, a
    test's list); ``out`` is a writable text stream.  One request
    object per line in, one :func:`wire_encode`-d response per line
    out.  Requests carry ``op`` (``build`` / ``ping`` / ``explain`` /
    ``explain-diff`` / ``stats`` / ``shutdown``) and an optional
    client-chosen ``id`` echoed back
    (defaulting to the request's ordinal).  A ``build``, ``explain`` or
    ``explain-diff`` request names its ``group`` (default: the served
    srcdir) and never ``manager``, ``jobs`` or ``pool``: the daemon's
    start-up flags fix those for every request.  Any per-request
    failure -- unparseable line, unknown op, a refused key,
    :class:`DaemonError`, build machinery error -- is an ``"ok": false``
    response, never a dead daemon.  Returns the process exit code.
    """
    seq = 0
    closing = False
    for line in lines:
        if not line.strip():
            continue
        seq += 1
        request_id = seq
        try:
            request = json.loads(line)
            if not isinstance(request, dict):
                raise DaemonError("request is not a JSON object")
            request_id = request.get("id", seq)
            op = request.get("op")
            if op == "ping":
                result = {"protocol": PROTOCOL_VERSION,
                          "manager": daemon.manager}
            elif op == "build":
                reply = daemon.request(
                    _request_group(request, default_group))
                result = reply_to_wire(reply)
                if request.get("trace"):
                    report = reply.report
                    result["trace"] = {
                        "ledger": (report.ledger.to_json()
                                   if report.ledger is not None else {}),
                        "phase_totals": report.phase_totals(),
                        "dispatch_order": list(report.dispatch_order),
                        "wall_seconds": round(report.wall_seconds, 6),
                    }
            elif op == "explain":
                result = {"text": daemon.explain(
                    _request_group(request, default_group),
                    unit=request.get("unit"))}
            elif op == "explain-diff":
                result = {"text": daemon.explain_diff(
                    _request_group(request, default_group),
                    unit=request.get("unit"))}
            elif op == "stats":
                result = daemon.stats()
            elif op == "shutdown":
                closing = True
                result = {"bye": True}
            else:
                raise DaemonError(f"unknown op {op!r}")
            response = {"id": request_id, "ok": True, "op": op,
                        "result": result}
        except Exception as err:
            response = {"id": request_id, "ok": False,
                        "error": {"type": type(err).__name__,
                                  "message": str(err)}}
        out.write(wire_encode(response) + "\n")
        out.flush()
        if closing:
            break
    daemon.shutdown()
    return 0
