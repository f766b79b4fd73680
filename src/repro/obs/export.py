"""OTLP/JSON export for build traces -- zero new dependencies.

The tracer's spans already carry everything the OpenTelemetry protocol
wants (name, category, timestamps, track, args); this module is purely
a serializer to the OTLP/JSON wire shape
(``opentelemetry.proto.trace.v1``, the ``resourceSpans`` ->
``scopeSpans`` -> ``spans`` nesting), so traces can land in any OTLP
collector (Jaeger, Tempo, Honeycomb, ...) without adding a single
package:

- **Resource attributes** identify the build: group, manager,
  jobs -- plus every tracer counter (``counter.<name>``),
  so rollup numbers ride with the trace.
- **Span tree** is preserved via ``parentSpanId``; each span carries
  its category and track as attributes plus whatever args the
  instrumentation attached.
- **Events** become OTLP span events on the nearest enclosing span of
  their track (instants with no enclosing span are emitted as
  zero-duration spans, so nothing is dropped).
- **Span links** connect a recompiled unit's span to its *culprit
  import's* span when the explanation ledger says the rebuild was
  ``import-pid-changed`` -- the trace states causality, not just
  timing.

Determinism: trace/span ids are sequential counters rendered as
fixed-width hex (OTLP requires 16/8 bytes of hex, not uniqueness
beyond the trace), and timestamps are nanoseconds from an injectable
epoch, so a fake-clock tracer exports byte-stable JSON.

:func:`validate_otlp` is the structural schema check the tests (and
any pre-flight) can run against an exported payload.
"""

from __future__ import annotations

#: int64s are JSON strings in OTLP (proto3 JSON mapping).
SPAN_KIND_INTERNAL = 1


def _attr_value(value) -> dict:
    """One OTLP ``AnyValue``."""
    if isinstance(value, bool):
        return {"boolValue": value}
    if isinstance(value, int):
        return {"intValue": str(value)}
    if isinstance(value, float):
        return {"doubleValue": value}
    if isinstance(value, (list, tuple)):
        return {"arrayValue":
                {"values": [_attr_value(v) for v in value]}}
    return {"stringValue": str(value)}


def _attrs(mapping: dict) -> list[dict]:
    return [{"key": str(k), "value": _attr_value(v)}
            for k, v in mapping.items()]


def _trace_id(n: int) -> str:
    return format(n, "032x")


def _span_id(n: int) -> str:
    return format(n, "016x")


def to_otlp(tracer, resource: dict | None = None, ledger=None,
            base_unix_nano: int = 0) -> dict:
    """Serialize a tracer's spans/events to an OTLP/JSON payload.

    ``resource`` becomes the resource attributes (group, manager,
    jobs...); ``ledger`` (an
    :class:`~repro.obs.ledger.ExplanationLedger`) adds span links from
    each ``import-pid-changed`` recompile to the culprit import's
    span.  ``base_unix_nano`` anchors the tracer's relative clock to
    wall time (0 keeps timestamps relative -- still valid OTLP, and
    deterministic for tests).
    """
    with tracer._lock:
        roots = list(tracer.roots)
        events = list(tracer.events)
        counters = dict(tracer.counters)

    trace_id = _trace_id(1)
    next_id = [1]
    spans_out: list[dict] = []
    #: every (span dataclass, serialized dict) pair, for event/link
    #: attachment after the tree walk.
    emitted: list[tuple] = []

    def nanos(t: float) -> str:
        return str(base_unix_nano + int(round((t - tracer.origin) * 1e9)))

    def emit(span, parent_id: str) -> None:
        span_id = _span_id(next_id[0])
        next_id[0] += 1
        attrs = {"cat": span.cat, "track": span.track}
        attrs.update(span.args)
        out = {
            "traceId": trace_id,
            "spanId": span_id,
            "name": span.name,
            "kind": SPAN_KIND_INTERNAL,
            "startTimeUnixNano": nanos(span.start),
            "endTimeUnixNano": nanos(span.end),
            "attributes": _attrs(attrs),
        }
        if parent_id:
            out["parentSpanId"] = parent_id
        spans_out.append(out)
        emitted.append((span, out))
        for child in span.children:
            emit(child, span_id)

    for root in roots:
        emit(root, "")

    # -- events: attach to the tightest enclosing span on their track --
    for ev in events:
        best = None
        best_width = None
        for span, out in emitted:
            if span.track != ev.track:
                continue
            if span.start <= ev.at <= span.end:
                width = span.end - span.start
                if best_width is None or width < best_width:
                    best, best_width = out, width
        entry = {
            "timeUnixNano": nanos(ev.at),
            "name": ev.name,
            "attributes": _attrs({"cat": ev.cat, **ev.args}),
        }
        if best is not None:
            best.setdefault("events", []).append(entry)
        else:  # no enclosing span: keep the instant as a point span
            span_id = _span_id(next_id[0])
            next_id[0] += 1
            spans_out.append({
                "traceId": trace_id,
                "spanId": span_id,
                "name": ev.name,
                "kind": SPAN_KIND_INTERNAL,
                "startTimeUnixNano": entry["timeUnixNano"],
                "endTimeUnixNano": entry["timeUnixNano"],
                "attributes": _attrs({"cat": ev.cat,
                                      "track": ev.track, **ev.args}),
            })

    # -- links: recompiled unit -> culprit import's span ---------------
    if ledger is not None:
        by_unit: dict[str, dict] = {}
        for span, out in emitted:
            unit = span.args.get("unit")
            if unit and span.name in ("unit", "apply", "worker-compile") \
                    and unit not in by_unit:
                by_unit[unit] = out
        for decision in ledger:
            if decision.cause != "import-pid-changed":
                continue
            source = by_unit.get(decision.unit)
            if source is None:
                continue
            for change in decision.changes:
                target = by_unit.get(change.unit)
                if target is None:
                    continue
                source.setdefault("links", []).append({
                    "traceId": target["traceId"],
                    "spanId": target["spanId"],
                    "attributes": _attrs({
                        "relation": "culprit-import",
                        "kind": change.kind,
                        "old_pid": change.old_pid,
                        "new_pid": change.new_pid,
                    }),
                })

    resource_attrs = dict(resource or {})
    for name in sorted(counters):
        resource_attrs[f"counter.{name}"] = counters[name]

    return {
        "resourceSpans": [{
            "resource": {"attributes": _attrs(resource_attrs)},
            "scopeSpans": [{
                "scope": {"name": "repro.obs", "version": "1"},
                "spans": spans_out,
            }],
        }],
    }


# -- schema check ---------------------------------------------------------


def _check_attrs(attrs, where: str, problems: list[str]) -> None:
    if not isinstance(attrs, list):
        problems.append(f"{where}: attributes is not a list")
        return
    for attr in attrs:
        if not isinstance(attr, dict) or "key" not in attr \
                or "value" not in attr:
            problems.append(f"{where}: malformed attribute {attr!r}")
            continue
        value = attr["value"]
        kinds = {"stringValue", "intValue", "doubleValue", "boolValue",
                 "arrayValue"}
        if not isinstance(value, dict) or len(value) != 1 \
                or not kinds & set(value):
            problems.append(
                f"{where}: attribute {attr['key']!r} has no typed value")
        elif "intValue" in value \
                and not isinstance(value["intValue"], str):
            problems.append(
                f"{where}: intValue of {attr['key']!r} must be a "
                f"string (int64 JSON mapping)")


def _is_hex(text, width: int) -> bool:
    return (isinstance(text, str) and len(text) == width
            and all(c in "0123456789abcdef" for c in text))


def validate_otlp(payload: dict) -> list[str]:
    """Structurally validate an OTLP/JSON trace payload.

    Returns a list of problems (empty = valid): the shape checks an
    OTLP collector's JSON decoder would apply -- resourceSpans ->
    scopeSpans -> spans nesting, hex trace/span ids of the right
    width, int64 timestamps as digit strings, typed attributes.
    """
    problems: list[str] = []
    resource_spans = payload.get("resourceSpans")
    if not isinstance(resource_spans, list) or not resource_spans:
        return ["resourceSpans missing or empty"]
    span_ids: set[str] = set()
    for ri, rs in enumerate(resource_spans):
        where = f"resourceSpans[{ri}]"
        _check_attrs(rs.get("resource", {}).get("attributes", []),
                     f"{where}.resource", problems)
        scope_spans = rs.get("scopeSpans")
        if not isinstance(scope_spans, list):
            problems.append(f"{where}: scopeSpans missing")
            continue
        for si, ss in enumerate(scope_spans):
            spans = ss.get("spans")
            if not isinstance(spans, list):
                problems.append(f"{where}.scopeSpans[{si}]: spans "
                                f"missing")
                continue
            for span in spans:
                name = span.get("name", "<unnamed>")
                loc = f"span {name!r}"
                if not _is_hex(span.get("traceId"), 32):
                    problems.append(f"{loc}: bad traceId")
                if not _is_hex(span.get("spanId"), 16):
                    problems.append(f"{loc}: bad spanId")
                else:
                    span_ids.add(span["spanId"])
                parent = span.get("parentSpanId")
                if parent is not None and not _is_hex(parent, 16):
                    problems.append(f"{loc}: bad parentSpanId")
                for key in ("startTimeUnixNano", "endTimeUnixNano"):
                    t = span.get(key)
                    if not isinstance(t, str) or not \
                            (t.isdigit() or (t.startswith("-")
                                             and t[1:].isdigit())):
                        problems.append(f"{loc}: {key} must be a "
                                        f"digit string")
                _check_attrs(span.get("attributes", []), loc, problems)
                for ev in span.get("events", []):
                    if not isinstance(ev.get("timeUnixNano"), str):
                        problems.append(f"{loc}: event without "
                                        f"timeUnixNano")
                    _check_attrs(ev.get("attributes", []),
                                 f"{loc} event", problems)
                for link in span.get("links", []):
                    if not _is_hex(link.get("traceId"), 32):
                        problems.append(f"{loc}: link with bad traceId")
                    if not _is_hex(link.get("spanId"), 16):
                        problems.append(f"{loc}: link with bad spanId")
                    _check_attrs(link.get("attributes", []),
                                 f"{loc} link", problems)
    # Parent references must resolve within the payload.
    for rs in resource_spans:
        for ss in rs.get("scopeSpans", []):
            for span in ss.get("spans", []) \
                    if isinstance(ss.get("spans"), list) else []:
                parent = span.get("parentSpanId")
                if parent and parent not in span_ids:
                    problems.append(
                        f"span {span.get('name')!r}: dangling "
                        f"parentSpanId {parent}")
    return problems
