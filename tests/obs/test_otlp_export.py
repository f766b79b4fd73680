"""OTLP/JSON trace export (tier 1): shape, links, determinism.

No OpenTelemetry package exists in this environment -- which is the
point.  The exporter writes the proto3 JSON mapping by hand and
:func:`validate_otlp` plays the collector's decoder: nesting, hex id
widths, int64-as-string timestamps, typed attributes.
"""

import json

import pytest

from repro.cm.__main__ import main
from repro.obs.export import to_otlp, validate_otlp
from repro.obs.ledger import BuildDecision, ExplanationLedger, PidChange
from repro.obs.tracer import Tracer

from tests.obs.test_tracer import FakeClock


def fake_trace():
    clock = FakeClock()
    tr = Tracer(clock=clock)
    with tr.span("build", cat="build", jobs=2):
        clock.tick(1.0)
        with tr.span("unit", cat="unit", unit="a"):
            clock.tick(2.0)
        with tr.span("unit", cat="unit", unit="b"):
            clock.tick(1.0)
        tr.event("dispatch", cat="sched", unit="b")
        tr.counter("units.compiled", 2)
    return tr


def all_spans(payload):
    return payload["resourceSpans"][0]["scopeSpans"][0]["spans"]


class TestShape:
    def test_validates_and_round_trips(self):
        payload = to_otlp(fake_trace(), resource={"build.jobs": 2})
        assert validate_otlp(payload) == []
        assert json.loads(json.dumps(payload)) == payload

    def test_span_tree_is_preserved(self):
        spans = all_spans(to_otlp(fake_trace()))
        build = next(s for s in spans if s["name"] == "build")
        units = [s for s in spans if s["name"] == "unit"]
        assert len(units) == 2
        assert all(u["parentSpanId"] == build["spanId"] for u in units)
        assert "parentSpanId" not in build

    def test_timestamps_anchor_to_base_epoch(self):
        base = 1_700_000_000_000_000_000
        spans = all_spans(to_otlp(fake_trace(), base_unix_nano=base))
        build = next(s for s in spans if s["name"] == "build")
        assert build["startTimeUnixNano"] == str(base)
        assert build["endTimeUnixNano"] == str(base + 4_000_000_000)

    def test_resource_attrs_and_counters(self):
        payload = to_otlp(fake_trace(),
                          resource={"build.manager": "cutoff",
                                    "build.jobs": 2})
        attrs = {a["key"]: a["value"] for a in
                 payload["resourceSpans"][0]["resource"]["attributes"]}
        assert attrs["build.manager"] == {"stringValue": "cutoff"}
        # int64s ride as strings (proto3 JSON mapping).
        assert attrs["build.jobs"] == {"intValue": "2"}
        assert attrs["counter.units.compiled"] == {"intValue": "2"}

    def test_events_attach_to_tightest_enclosing_span(self):
        # The instant lands inside both the build span and unit "b"
        # (which ends at the same tick); the narrower span wins.
        spans = all_spans(to_otlp(fake_trace()))
        build = next(s for s in spans if s["name"] == "build")
        b = next(s for s in spans if s["name"] == "unit"
                 and {"key": "unit", "value": {"stringValue": "b"}}
                 in s["attributes"])
        (event,) = b["events"]
        assert event["name"] == "dispatch"
        assert event["timeUnixNano"].isdigit()
        assert "events" not in build

    def test_fake_clock_export_is_byte_stable(self):
        a = json.dumps(to_otlp(fake_trace()), sort_keys=True)
        b = json.dumps(to_otlp(fake_trace()), sort_keys=True)
        assert a == b


class TestCulpritLinks:
    def test_recompile_links_to_culprit_span(self):
        tr = fake_trace()
        ledger = ExplanationLedger()
        ledger.record(BuildDecision(
            unit="b", verdict="recompiled", cause="import-pid-changed",
            action="compiled",
            changes=(PidChange(unit="a", old_pid="0" * 32,
                               new_pid="1" * 32),)))
        payload = to_otlp(tr, ledger=ledger)
        assert validate_otlp(payload) == []
        spans = all_spans(payload)
        a = next(s for s in spans if s["name"] == "unit"
                 and {"key": "unit", "value": {"stringValue": "a"}}
                 in s["attributes"])
        b = next(s for s in spans if s["name"] == "unit"
                 and {"key": "unit", "value": {"stringValue": "b"}}
                 in s["attributes"])
        (link,) = b["links"]
        assert link["spanId"] == a["spanId"]
        attrs = {x["key"]: x["value"] for x in link["attributes"]}
        assert attrs["relation"] == {"stringValue": "culprit-import"}
        assert "links" not in a

    def test_reuse_decisions_link_nothing(self):
        ledger = ExplanationLedger()
        ledger.record(BuildDecision(
            unit="b", verdict="reused", cause="all-import-pids-stable",
            action="loaded"))
        spans = all_spans(to_otlp(fake_trace(), ledger=ledger))
        assert not any("links" in s for s in spans)


class TestValidator:
    def test_flags_bad_ids_and_untyped_attrs(self):
        payload = to_otlp(fake_trace())
        spans = all_spans(payload)
        spans[0]["traceId"] = "nope"
        spans[1]["attributes"].append(
            {"key": "raw", "value": {"weird": 1}})
        problems = validate_otlp(payload)
        assert any("bad traceId" in p for p in problems)
        assert any("no typed value" in p for p in problems)

    def test_flags_int_value_not_string(self):
        payload = to_otlp(fake_trace())
        all_spans(payload)[0]["attributes"].append(
            {"key": "n", "value": {"intValue": 7}})
        assert any("must be a string" in p
                   for p in validate_otlp(payload))

    def test_flags_dangling_parent(self):
        payload = to_otlp(fake_trace())
        all_spans(payload)[1]["parentSpanId"] = "f" * 16
        assert any("dangling" in p for p in validate_otlp(payload))


@pytest.fixture
def srcdir(tmp_path):
    d = tmp_path / "proj"
    d.mkdir()
    (d / "one.sml").write_text(
        "structure One = struct val v = 11 end\n")
    (d / "two.sml").write_text(
        "structure Two = struct val w = One.v + 1 end\n")
    return str(d)


class TestCLI:
    def test_trace_format_otlp_writes_valid_payload(self, srcdir,
                                                    tmp_path, capsys):
        out = str(tmp_path / "build.otlp.json")
        rc = main([srcdir, "--no-link", "--jobs", "2",
                   "--trace-out", out, "--trace-format", "otlp"])
        captured = capsys.readouterr()
        assert rc == 0, captured.err
        with open(out, encoding="utf-8") as fh:
            payload = json.load(fh)
        assert validate_otlp(payload) == []
        attrs = {a["key"] for a in
                 payload["resourceSpans"][0]["resource"]["attributes"]}
        assert {"build.group", "build.manager", "build.jobs"} <= attrs
        names = {s["name"] for s in all_spans(payload)}
        assert "run" in names and "build" in names
