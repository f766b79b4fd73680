"""The aggregate meter the build daemon always counts with."""

from repro.obs.meter import BuildMeter, CounterMeter

from tests.obs.test_tracer import FakeClock


class TestCounterMeter:
    def test_is_an_enabled_build_meter(self):
        meter = CounterMeter(clock=FakeClock())
        assert isinstance(meter, BuildMeter)
        assert meter.enabled is True

    def test_aggregates_spans_events_counters(self):
        clock = FakeClock()
        meter = CounterMeter(clock=clock)
        for _ in range(3):
            with meter.span("compile", unit="a"):
                clock.tick(2.0)
        meter.event("decision")
        meter.event("decision")
        meter.counter("bytes", 10)
        meter.counter("bytes", 5)
        meter.complete_span("worker-compile", 100.0, 101.5,
                            track="w1")
        roll = meter.rollup()
        assert roll["spans"]["compile"] == {"count": 3, "seconds": 6.0}
        assert roll["spans"]["worker-compile"]["seconds"] == 1.5
        assert roll["events"] == {"decision": 2}
        assert roll["counters"] == {"bytes": 15}

    def test_memory_is_aggregate_only(self):
        clock = FakeClock()
        meter = CounterMeter(clock=clock)
        for _ in range(1000):
            with meter.span("unit", unit="x"):
                clock.tick(0.001)
        assert len(meter.spans) == 1  # O(names), not O(spans)
