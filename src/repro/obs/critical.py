"""Post-build analytics over traces and dependency DAGs.

- :func:`critical_path`: the dependency chain whose summed per-unit
  durations bound the wall-clock of an infinitely parallel build --
  the thing to shorten before adding workers helps.
- :func:`phase_rollup`: total seconds and call counts per span name.
- :func:`worker_idle`: the schedule-quality rollup -- worker-compile
  busy seconds vs ``jobs x build wall``.
- :func:`span_coverage`: the fraction of a tracer's wall-clock covered
  by root spans -- the acceptance gate that tracing sees (almost)
  everything the build did.
"""

from __future__ import annotations


def critical_path(
    order: list[str],
    deps: dict[str, list[str]],
    durations: dict[str, float],
) -> tuple[list[str], float]:
    """The heaviest dependency chain.

    Args:
        order: units in topological order (imports first), e.g.
            ``DepGraph.order``.
        deps: unit -> direct imports.
        durations: unit -> seconds of work (missing units count 0).

    Returns ``(chain, seconds)``: the chain runs imports-first and its
    summed duration is the DAG's span (the lower bound on parallel
    wall-clock).  Ties break toward the alphabetically smallest unit,
    so the result is deterministic.
    """
    if not order:
        return [], 0.0
    best: dict[str, float] = {}
    via: dict[str, str | None] = {}
    for name in order:
        pred: str | None = None
        pred_cost = 0.0
        for dep in deps.get(name, ()):
            if dep not in best:
                continue  # import outside the graph (stable library)
            cost = best[dep]
            if cost > pred_cost or (cost == pred_cost and pred is not None
                                    and dep < pred):
                pred, pred_cost = dep, cost
            elif pred is None and cost == pred_cost == 0.0:
                pred = dep
        best[name] = durations.get(name, 0.0) + pred_cost
        via[name] = pred
    tail = min((name for name in best
                if best[name] == max(best.values()))) if best else None
    chain: list[str] = []
    node: str | None = tail
    while node is not None:
        chain.append(node)
        node = via[node]
    chain.reverse()
    return chain, best[tail] if tail is not None else 0.0


def phase_rollup(tracer) -> dict[str, dict]:
    """Per-span-name totals: ``{name: {"count": n, "seconds": s}}``."""
    out: dict[str, dict] = {}
    for span in tracer.all_spans():
        bucket = out.setdefault(span.name, {"count": 0, "seconds": 0.0})
        bucket["count"] += 1
        bucket["seconds"] += span.duration
    for bucket in out.values():
        bucket["seconds"] = round(bucket["seconds"], 6)
    return dict(sorted(out.items()))


def worker_idle(tracer, jobs: int) -> dict:
    """How well a schedule kept ``jobs`` workers fed.

    Measures the ``worker-compile`` spans (actual busy time on
    workers) against the capacity ``jobs x`` the longest ``build``
    span's wall clock.  Busy time is the per-track interval *union*:
    when retries or abandoned attempts overlap on one track they count
    once, and ``occupancy`` is clamped to 1.0 -- a schedule can fill
    its capacity, never exceed it.  Durations only -- no claims when
    the tracer saw no build.
    """
    by_track: dict[str, list[tuple[float, float]]] = {}
    compiles = 0
    wall = 0.0
    for span in tracer.all_spans():
        if span.name == "worker-compile":
            by_track.setdefault(span.track, []).append(
                (span.start, span.end))
            compiles += 1
        elif span.name == "build":
            wall = max(wall, span.duration)
    busy = sum(_union_length(intervals)
               for intervals in by_track.values())
    capacity = jobs * wall
    occupancy = min(1.0, busy / capacity) if capacity > 0 else 0.0
    return {
        "jobs": jobs,
        "compiles": compiles,
        "busy_seconds": round(busy, 6),
        "build_wall_seconds": round(wall, 6),
        "idle_seconds": round(max(0.0, capacity - busy), 6),
        "occupancy": round(occupancy, 6),
    }


def _union_length(intervals: list[tuple[float, float]]) -> float:
    """Total length of the union of ``[start, end]`` intervals."""
    total = 0.0
    last_end = float("-inf")
    for start, end in sorted(intervals):
        start = max(start, last_end)
        if end > start:
            total += end - start
            last_end = end
        else:
            last_end = max(last_end, end)
    return total


def span_coverage(tracer) -> float:
    """Fraction of the tracer's wall-clock covered by root spans.

    1.0 means every measured moment lies inside at least one span; a
    low number means unaccounted time (work the instrumentation cannot
    see).
    """
    wall = tracer.wall()
    if wall <= 0:
        return 1.0
    covered = _union_length(
        [(span.start, span.end) for span in tracer.roots])
    return min(1.0, covered / wall)
