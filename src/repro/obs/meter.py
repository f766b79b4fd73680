"""The :class:`BuildMeter` seam: how instrumented code reports itself.

Instrumented call sites throughout the compilation manager (builders,
the store, the unit pipeline, the build pump) talk to a meter
rather than to a concrete tracer, so the cost of instrumentation when
nobody is listening is a handful of no-op method calls:

    with meter.span("parse", cat="phase", unit=name):
        ...

There are three listeners:

- :data:`NULL_METER` is the default; it allocates nothing and returns a
  single shared no-op span.  ``benchmarks/
  test_bench_trace_overhead.py`` gates its cost at under 5% of a build.
- :class:`CounterMeter` keeps only aggregates -- per-name span counts
  and seconds, event counts, counter totals -- so its memory is
  O(distinct names) however many builds flow through it.  The build
  daemon always counts with one; its ``stats`` request reports the
  rollup (:meth:`repro.cm.daemon.BuildDaemon.stats`).
- :class:`repro.obs.tracer.Tracer` records every span of one run.
"""

from __future__ import annotations

import threading
import time
from typing import ContextManager, Protocol, runtime_checkable


@runtime_checkable
class BuildMeter(Protocol):
    """What an instrumented call site may ask of its listener.

    Implementations must be safe to call from worker threads (the
    build pump's thread pool shares one meter).
    """

    #: False for the null meter; instrumented code may use this to skip
    #: work that only exists to feed the meter (building arg dicts,
    #: counting collections).
    enabled: bool

    def span(self, name: str, cat: str = "build",
             **args) -> ContextManager:
        """A nested timed region; ``with meter.span(...) as sp`` and
        ``sp.set(key=value)`` attaches results computed inside."""
        ...

    def event(self, name: str, cat: str = "build", **args) -> None:
        """An instant event (a decision, a quarantine, a dispatch)."""
        ...

    def counter(self, name: str, value: float = 1) -> None:
        """Accumulate ``value`` onto a named monotonic counter."""
        ...

    def complete_span(self, name: str, start: float, end: float,
                      cat: str = "build", track: str | None = None,
                      **args) -> None:
        """Record an already-timed region (e.g. a worker's compile,
        measured on the worker and shipped back with the result).
        ``start``/``end`` are in the meter's own clock domain."""
        ...


class NullSpan:
    """The shared do-nothing span."""

    __slots__ = ()

    def __enter__(self) -> "NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def set(self, **args) -> "NullSpan":
        return self


_NULL_SPAN = NullSpan()


class NullMeter:
    """The default meter: discards everything, allocates nothing."""

    __slots__ = ()

    enabled = False

    def span(self, name: str, cat: str = "build", **args) -> NullSpan:
        return _NULL_SPAN

    def event(self, name: str, cat: str = "build", **args) -> None:
        return None

    def counter(self, name: str, value: float = 1) -> None:
        return None

    def complete_span(self, name: str, start: float, end: float,
                      cat: str = "build", track: str | None = None,
                      **args) -> None:
        return None


#: The process-wide default listener.
NULL_METER = NullMeter()


class _CountingSpan:
    """One live span of a :class:`CounterMeter`: measures its own
    duration, stores nothing else."""

    __slots__ = ("_meter", "_name", "_start")

    def __init__(self, meter: "CounterMeter", name: str):
        self._meter = meter
        self._name = name
        self._start = 0.0

    def set(self, **args) -> "_CountingSpan":
        return self  # aggregates keep no args

    def __enter__(self) -> "_CountingSpan":
        self._start = self._meter._clock()
        return self

    def __exit__(self, *exc) -> bool:
        self._meter._add_span(self._name,
                              self._meter._clock() - self._start)
        return False


class CounterMeter:
    """The aggregate listener (see the module docstring).

    Thread-safe; O(distinct names) memory however many builds flow
    through it.
    """

    enabled = True

    def __init__(self, clock=time.perf_counter):
        self._clock = clock
        self._lock = threading.Lock()
        #: span name -> {"count": n, "seconds": total}.
        self.spans: dict[str, dict] = {}
        #: event name -> count.
        self.events: dict[str, int] = {}
        #: the ordinary monotonic counters.
        self.counters: dict[str, float] = {}

    def _add_span(self, name: str, seconds: float) -> None:
        with self._lock:
            bucket = self.spans.setdefault(
                name, {"count": 0, "seconds": 0.0})
            bucket["count"] += 1
            bucket["seconds"] += max(0.0, seconds)

    # -- the BuildMeter protocol ------------------------------------------

    def span(self, name: str, cat: str = "build",
             **args) -> _CountingSpan:
        return _CountingSpan(self, name)

    def event(self, name: str, cat: str = "build", **args) -> None:
        with self._lock:
            self.events[name] = self.events.get(name, 0) + 1

    def counter(self, name: str, value: float = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + value

    def complete_span(self, name: str, start: float, end: float,
                      cat: str = "build", track: str | None = None,
                      **args) -> None:
        self._add_span(name, end - start)

    # -- the rollup -------------------------------------------------------

    def rollup(self) -> dict:
        """The aggregate snapshot: spans, events, counters (rounded,
        key-sorted -- wire-stable for the daemon's ``stats`` reply)."""
        with self._lock:
            spans = {name: {"count": b["count"],
                            "seconds": round(b["seconds"], 6)}
                     for name, b in sorted(self.spans.items())}
            events = dict(sorted(self.events.items()))
            counters = {name: (int(v) if v == int(v) else round(v, 6))
                        for name, v in sorted(self.counters.items())}
        return {"spans": spans, "events": events, "counters": counters}
