"""A zero-dependency span/event tracer for build telemetry.

One :class:`Tracer` instance observes one build (or CLI run).  It
implements the :class:`~repro.obs.meter.BuildMeter` protocol:

- **Spans** are nested timed regions.  Nesting is tracked per thread
  (each worker thread of a thread-pool build gets its own stack and its
  own *track*), so concurrent builds trace correctly.
- **Events** are instants; **counters** accumulate named totals and
  keep a sample timeline.
- ``complete_span`` lands a region timed elsewhere -- a process-pool
  worker measures its own compile and the parent records it on the
  worker's track.
- ``record_collections`` turns each pause of CPython's cyclic garbage
  collector into a ``gc`` span on the ``gc`` track while it is open,
  so collector time is a named layer instead of a slice of whichever
  span happened to allocate.

The clock is injectable (default :func:`time.perf_counter`), so tests
drive it deterministically; traces from a fake clock are byte-stable.

Exports:

- :meth:`Tracer.render_tree`: a human span tree with durations, args
  and counter totals.
- :meth:`Tracer.to_chrome_trace`: the Chrome ``trace_event`` JSON
  object format (``{"traceEvents": [...]}`` plus metadata keys),
  loadable in ``chrome://tracing`` or https://ui.perfetto.dev.
"""

from __future__ import annotations

import gc
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    """One timed region: ``[start, end]`` in the tracer's clock."""

    name: str
    cat: str = "build"
    start: float = 0.0
    end: float = 0.0
    track: str = "main"
    args: dict = field(default_factory=dict)
    children: list["Span"] = field(default_factory=list)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def walk(self):
        yield self
        for child in self.children:
            yield from child.walk()


@dataclass
class Event:
    """An instant: something that happened, with no duration."""

    name: str
    cat: str
    at: float
    track: str
    args: dict = field(default_factory=dict)


class _SpanHandle:
    """Context manager for one live span."""

    __slots__ = ("_tracer", "span")

    def __init__(self, tracer: "Tracer", span: Span):
        self._tracer = tracer
        self.span = span

    def set(self, **args) -> "_SpanHandle":
        """Attach results computed inside the span."""
        self.span.args.update(args)
        return self

    def __enter__(self) -> "_SpanHandle":
        self._tracer._enter(self.span)
        return self

    def __exit__(self, *exc) -> bool:
        self._tracer._exit(self.span)
        return False


class Tracer:
    """Collects spans, events and counters for one build.

    Thread-safe: span nesting is per-thread, the shared lists are
    guarded by a lock.  ``clock`` must be monotonic; inject a fake for
    deterministic tests.
    """

    enabled = True

    def __init__(self, clock=time.perf_counter):
        self._clock = clock
        self._lock = threading.Lock()
        self._tls = threading.local()
        self.origin: float = clock()
        self.roots: list[Span] = []
        self.events: list[Event] = []
        self.counters: dict[str, float] = {}
        #: (time, counter name, running total) samples, for "C" events.
        self.counter_samples: list[tuple[float, str, float]] = []
        self._main_ident = threading.get_ident()
        self._tracks: dict[int, str] = {self._main_ident: "main"}

    # -- clock and tracks -------------------------------------------------

    def now(self) -> float:
        return self._clock()

    def wall(self) -> float:
        """Seconds from tracer creation to now (or to the last recorded
        endpoint, whichever is later -- fake clocks may not advance)."""
        latest = self._clock()
        with self._lock:
            for span in self.roots:
                latest = max(latest, span.end)
        return latest - self.origin

    def _track_label(self) -> str:
        ident = threading.get_ident()
        label = self._tracks.get(ident)
        if label is None:
            with self._lock:
                label = self._tracks.setdefault(
                    ident, f"t{len(self._tracks)}")
        return label

    def _stack(self) -> list[Span]:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    # -- the BuildMeter protocol ------------------------------------------

    def span(self, name: str, cat: str = "build", **args) -> _SpanHandle:
        return _SpanHandle(
            self, Span(name=name, cat=cat, track=self._track_label(),
                       args=args))

    def _enter(self, span: Span) -> None:
        span.start = self._clock()
        self._stack().append(span)

    def _exit(self, span: Span) -> None:
        span.end = self._clock()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        else:  # unbalanced exit: drop up to this span, keep the trace sane
            while stack and stack[-1] is not span:
                stack.pop()
            if stack:
                stack.pop()
        if stack:
            stack[-1].children.append(span)
        else:
            with self._lock:
                self.roots.append(span)

    def event(self, name: str, cat: str = "build", **args) -> None:
        ev = Event(name=name, cat=cat, at=self._clock(),
                   track=self._track_label(), args=args)
        with self._lock:
            self.events.append(ev)

    def counter(self, name: str, value: float = 1) -> None:
        at = self._clock()
        with self._lock:
            total = self.counters.get(name, 0) + value
            self.counters[name] = total
            self.counter_samples.append((at, name, total))

    def complete_span(self, name: str, start: float, end: float,
                      cat: str = "build", track: str | None = None,
                      **args) -> None:
        span = Span(name=name, cat=cat, start=start, end=end,
                    track=track if track is not None
                    else self._track_label(), args=args)
        with self._lock:
            self.roots.append(span)

    @contextmanager
    def record_collections(self):
        """While open, time every collection of this process's cyclic
        garbage collector; on close, land each as a ``gc`` span on the
        ``gc`` track with its ``generation`` and ``collected`` count,
        and remove the callback.

        The callback only appends to a list: it may fire in any thread,
        while that thread holds this tracer's lock."""
        pauses: list[list] = []
        clock = self._clock

        def on_collect(phase: str, info: dict) -> None:
            if phase == "start":
                pauses.append([clock(), None, info["generation"], 0])
            elif pauses:
                pauses[-1][1] = clock()
                pauses[-1][3] = info["collected"]

        gc.callbacks.append(on_collect)
        try:
            yield
        finally:
            gc.callbacks.remove(on_collect)
            for start, end, generation, collected in pauses:
                if end is not None:
                    self.complete_span("gc", start, end, cat="gc",
                                       track="gc", generation=generation,
                                       collected=collected)

    # -- reports ----------------------------------------------------------

    def all_spans(self):
        with self._lock:
            roots = list(self.roots)
        for root in roots:
            yield from root.walk()

    def spans_named(self, name: str) -> list[Span]:
        """Every span called ``name``, in recording order (test/assert
        helper: 'the trace carries retry spans')."""
        return [s for s in self.all_spans() if s.name == name]

    def events_named(self, name: str) -> list[Event]:
        """Every instant event called ``name``."""
        with self._lock:
            return [e for e in self.events if e.name == name]

    def render_tree(self) -> str:
        """The human report: span tree per track, then counters."""
        with self._lock:
            roots = list(self.roots)
            counters = dict(self.counters)
        lines = [f"trace: {self.wall() * 1e3:.1f} ms wall, "
                 f"{sum(1 for _ in self.all_spans())} span(s)"]

        def fmt_args(args: dict) -> str:
            if not args:
                return ""
            inner = ", ".join(f"{k}={v}" for k, v in sorted(args.items()))
            return f"  [{inner}]"

        def emit(span: Span, depth: int) -> None:
            lines.append(
                f"  {'  ' * depth}{span.name:<{max(1, 24 - 2 * depth)}}"
                f" {span.duration * 1e3:9.2f} ms{fmt_args(span.args)}")
            for child in span.children:
                emit(child, depth + 1)

        by_track: dict[str, list[Span]] = {}
        for root in roots:
            by_track.setdefault(root.track, []).append(root)
        for track in sorted(by_track, key=lambda t: (t != "main", t)):
            if len(by_track) > 1:
                lines.append(f"-- track {track} --")
            for root in by_track[track]:
                emit(root, 0)
        if counters:
            lines.append("counters:")
            for name in sorted(counters):
                value = counters[name]
                shown = int(value) if value == int(value) else value
                lines.append(f"  {name} = {shown}")
        return "\n".join(lines)

    def to_chrome_trace(self, extra: dict | None = None) -> dict:
        """The Chrome ``trace_event`` object format.

        Returns ``{"traceEvents": [...], "displayTimeUnit": "ms"}``
        plus any ``extra`` metadata keys (the trace viewer ignores keys
        it does not know, so build reports ride along in the same
        file).  Timestamps are microseconds from tracer creation.
        """
        with self._lock:
            roots = list(self.roots)
            events = list(self.events)
            samples = list(self.counter_samples)

        track_ids: dict[str, int] = {"main": 0}

        def tid(track: str) -> int:
            if track not in track_ids:
                track_ids[track] = len(track_ids)
            return track_ids[track]

        def us(t: float) -> float:
            return round((t - self.origin) * 1e6, 3)

        out: list[dict] = []

        def emit(span: Span) -> None:
            out.append({
                "name": span.name,
                "cat": span.cat,
                "ph": "X",
                "ts": us(span.start),
                "dur": round(span.duration * 1e6, 3),
                "pid": 1,
                "tid": tid(span.track),
                "args": dict(span.args),
            })
            for child in span.children:
                emit(child)

        for root in roots:
            emit(root)
        for ev in events:
            out.append({
                "name": ev.name,
                "cat": ev.cat,
                "ph": "i",
                "s": "t",
                "ts": us(ev.at),
                "pid": 1,
                "tid": tid(ev.track),
                "args": dict(ev.args),
            })
        for at, name, total in samples:
            out.append({
                "name": name,
                "cat": "counter",
                "ph": "C",
                "ts": us(at),
                "pid": 1,
                "tid": 0,
                "args": {"value": total},
            })
        for track, track_id in sorted(track_ids.items(),
                                      key=lambda kv: kv[1]):
            out.append({
                "name": "thread_name",
                "ph": "M",
                "pid": 1,
                "tid": track_id,
                "args": {"name": track},
            })
        trace = {"traceEvents": out, "displayTimeUnit": "ms"}
        if extra:
            trace.update(extra)
        return trace
