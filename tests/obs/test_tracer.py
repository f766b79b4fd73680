"""The span/event tracer: timing, nesting, tracks, Chrome export."""

import gc
import json
import threading

from repro.obs import (
    NULL_METER,
    BuildMeter,
    NullMeter,
    Tracer,
    phase_rollup,
    span_coverage,
    worker_idle,
)


class FakeClock:
    """A hand-cranked monotonic clock for byte-stable traces."""

    def __init__(self, start=100.0):
        self.t = start

    def __call__(self):
        return self.t

    def tick(self, dt=1.0):
        self.t += dt


class TestSpans:
    def test_nesting_and_durations(self):
        clock = FakeClock()
        tr = Tracer(clock=clock)
        with tr.span("build"):
            clock.tick(2.0)
            with tr.span("unit", unit="a"):
                clock.tick(3.0)
            clock.tick(1.0)
        assert len(tr.roots) == 1
        build = tr.roots[0]
        assert build.name == "build"
        assert build.duration == 6.0
        (unit,) = build.children
        assert unit.name == "unit"
        assert unit.duration == 3.0
        assert unit.args == {"unit": "a"}

    def test_set_attaches_results(self):
        tr = Tracer(clock=FakeClock())
        with tr.span("wave", index=0) as sp:
            sp.set(dispatched=4)
        assert tr.roots[0].args == {"index": 0, "dispatched": 4}

    def test_counters_accumulate(self):
        tr = Tracer(clock=FakeClock())
        tr.counter("bytes", 10)
        tr.counter("bytes", 5)
        tr.counter("units")
        assert tr.counters == {"bytes": 15, "units": 1}
        assert [s[2] for s in tr.counter_samples] == [10, 15, 1]

    def test_complete_span_lands_on_named_track(self):
        tr = Tracer(clock=FakeClock())
        tr.complete_span("compile", 101.0, 104.5, track="w9", unit="a")
        (span,) = tr.roots
        assert (span.track, span.duration) == ("w9", 3.5)

    def test_events_are_instants(self):
        clock = FakeClock()
        tr = Tracer(clock=clock)
        clock.tick(0.5)
        tr.event("dispatch", cat="sched", unit="a")
        assert tr.events[0].at == 100.5
        assert tr.events[0].args == {"unit": "a"}

    def test_thread_gets_own_track_and_stack(self):
        tr = Tracer(clock=FakeClock())

        def work():
            with tr.span("inner"):
                pass

        with tr.span("outer"):
            t = threading.Thread(target=work)
            t.start()
            t.join()
        tracks = {s.track for s in tr.all_spans()}
        assert "main" in tracks and len(tracks) == 2
        # The thread's span is a root on its own track, not a child of
        # the main thread's open span.
        assert {s.name for s in tr.roots} == {"outer", "inner"}


class TestChromeExport:
    def trace(self):
        clock = FakeClock()
        tr = Tracer(clock=clock)
        with tr.span("build", cat="build", jobs=2):
            clock.tick(1.0)
            with tr.span("unit", cat="unit", unit="a"):
                clock.tick(2.0)
            tr.event("dispatch", cat="sched", unit="b")
            tr.counter("pickle.bytes_out", 42)
        tr.complete_span("compile", 101.0, 102.0, track="w1")
        return tr

    def test_object_format_and_round_trip(self):
        doc = self.trace().to_chrome_trace()
        text = json.dumps(doc, sort_keys=True)
        assert json.loads(text) == doc
        assert doc["displayTimeUnit"] == "ms"
        phases = {e["ph"] for e in doc["traceEvents"]}
        assert phases == {"X", "i", "C", "M"}

    def test_timestamps_are_relative_microseconds(self):
        doc = self.trace().to_chrome_trace()
        build = next(e for e in doc["traceEvents"]
                     if e["name"] == "build")
        assert build["ts"] == 0.0
        assert build["dur"] == 3_000_000.0
        unit = next(e for e in doc["traceEvents"] if e["name"] == "unit")
        assert unit["ts"] == 1_000_000.0

    def test_tracks_map_to_tids_with_names(self):
        doc = self.trace().to_chrome_trace()
        meta = {e["args"]["name"]: e["tid"]
                for e in doc["traceEvents"] if e["ph"] == "M"}
        assert meta["main"] == 0
        assert "w1" in meta
        compile_ev = next(e for e in doc["traceEvents"]
                          if e["name"] == "compile")
        assert compile_ev["tid"] == meta["w1"]

    def test_extra_metadata_rides_along(self):
        doc = self.trace().to_chrome_trace(
            extra={"buildDecisions": {"units": {}}})
        assert doc["buildDecisions"] == {"units": {}}
        assert "traceEvents" in doc

    def test_fake_clock_traces_are_byte_stable(self):
        a = json.dumps(self.trace().to_chrome_trace(), sort_keys=True)
        b = json.dumps(self.trace().to_chrome_trace(), sort_keys=True)
        assert a == b


class TestAnalytics:
    def test_phase_rollup(self):
        clock = FakeClock()
        tr = Tracer(clock=clock)
        for _ in range(2):
            with tr.span("parse"):
                clock.tick(1.0)
        roll = phase_rollup(tr)
        assert roll["parse"] == {"count": 2, "seconds": 2.0}

    def test_worker_occupancy(self):
        # Back-to-back compiles on one track add up, and tracks sum.
        clock = FakeClock()
        tr = Tracer(clock=clock)
        with tr.span("build"):
            clock.tick(4.0)
        tr.complete_span("worker-compile", 100.0, 101.0, track="w1")
        tr.complete_span("worker-compile", 101.0, 103.0, track="w1")
        tr.complete_span("worker-compile", 100.0, 100.5, track="w2")
        idle = worker_idle(tr, jobs=2)
        assert idle["busy_seconds"] == 3.5
        assert idle["occupancy"] == 0.4375

    def test_worker_occupancy_unions_overlapping_attempts(self):
        # A timed-out attempt and its retry can overlap on the same
        # track (the supervisor records abandoned attempts too): busy
        # time is the interval union, never more than wall clock.
        clock = FakeClock()
        tr = Tracer(clock=clock)
        with tr.span("build"):
            clock.tick(8.0)
        tr.complete_span("worker-compile", 100.0, 104.0, track="sup")
        tr.complete_span("worker-compile", 102.0, 106.0, track="sup")
        tr.complete_span("worker-compile", 103.0, 105.0, track="sup")
        idle = worker_idle(tr, jobs=1)
        assert idle["compiles"] == 3
        assert idle["busy_seconds"] == 6.0
        assert idle["idle_seconds"] == 2.0
        assert idle["occupancy"] == 0.75

    def test_worker_idle_occupancy_never_exceeds_one(self):
        # Two fully-overlapping attempt spans on one track must not
        # double-count busy time: one job busy for the whole build is
        # occupancy 1.0, not 2.0.
        clock = FakeClock()
        tr = Tracer(clock=clock)
        with tr.span("build"):
            clock.tick(4.0)
        tr.complete_span("worker-compile", 100.0, 104.0, track="w1")
        tr.complete_span("worker-compile", 100.0, 104.0, track="w1")
        idle = worker_idle(tr, jobs=1)
        assert idle["busy_seconds"] == 4.0
        assert idle["occupancy"] == 1.0
        assert idle["idle_seconds"] == 0.0

    def test_worker_idle_separate_tracks_still_sum(self):
        clock = FakeClock()
        tr = Tracer(clock=clock)
        with tr.span("build"):
            clock.tick(4.0)
        tr.complete_span("worker-compile", 100.0, 104.0, track="w1")
        tr.complete_span("worker-compile", 100.0, 102.0, track="w2")
        idle = worker_idle(tr, jobs=2)
        assert idle["busy_seconds"] == 6.0
        assert idle["occupancy"] == 0.75

    def test_span_coverage_full_and_partial(self):
        clock = FakeClock()
        tr = Tracer(clock=clock)
        with tr.span("run"):
            clock.tick(8.0)
        clock.tick(2.0)  # trailing unmeasured time
        assert abs(span_coverage(tr) - 0.8) < 1e-9

    def test_render_tree_mentions_spans_and_counters(self):
        clock = FakeClock()
        tr = Tracer(clock=clock)
        with tr.span("build", jobs=2):
            clock.tick(1.0)
        tr.counter("units.compiled", 3)
        text = tr.render_tree()
        assert "build" in text and "jobs=2" in text
        assert "units.compiled = 3" in text


class TestCollections:
    def test_each_collection_lands_as_a_gc_span(self):
        clock = FakeClock()
        tr = Tracer(clock=clock)
        callbacks = list(gc.callbacks)
        with tr.record_collections():
            gc.collect(1)
            clock.tick(5.0)
        gc.collect()  # after the block: not recorded
        assert gc.callbacks == callbacks
        [pause] = tr.spans_named("gc")
        assert (pause.track, pause.cat) == ("gc", "gc")
        assert pause.args["generation"] == 1
        assert pause.start == pause.end == 100.0


class TestNullMeter:
    def test_protocol_conformance(self):
        assert isinstance(NULL_METER, BuildMeter)
        assert isinstance(Tracer(clock=FakeClock()), BuildMeter)

    def test_null_meter_is_inert(self):
        assert NULL_METER.enabled is False
        with NULL_METER.span("x", cat="y", a=1) as sp:
            sp.set(b=2)
        NULL_METER.event("e")
        NULL_METER.counter("c", 5)
        NULL_METER.complete_span("z", 0.0, 1.0)

    def test_span_handle_is_shared_singleton(self):
        a = NullMeter().span("a")
        b = NULL_METER.span("b")
        assert a is b
