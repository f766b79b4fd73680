"""Metric names, units and regression bounds.

``BENCHMARK.json`` at the checkout root is the source for the
end-to-end and per-layer metrics a run reports.  :data:`DETAIL`
holds the metrics only the results file carries: each is measured on a
subset of the workloads (a per-kind latency has no meaning on a cold
build), so it cannot be an end-to-end metric that every workload
reports.
"""

from __future__ import annotations

import json
import os

from bench import ROOT

SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")

#: name -> (unit, better, bound).  Bounds follow the rule in README.md:
#: the smallest multiple of 0.05 covering max/min - 1 of the metric over
#: ten runs of seed 1, at least 0.10; exact counts get 0.
DETAIL = {
    "cold_build_s": ("s", "lower", 0.25),
    "null_s": ("s", "lower", 0.50),
    "comment_edit_s": ("s", "lower", 0.85),
    "impl_edit_s": ("s", "lower", 0.40),
    "iface_edit_s": ("s", "lower", 0.35),
    # Only p90 occurred in those runs; the others borrow its bound.
    "request_p75_s": ("s", "lower", 0.20),
    "request_p90_s": ("s", "lower", 0.20),
    "request_p95_s": ("s", "lower", 0.20),
    "request_p99_s": ("s", "lower", 0.20),
    "units_compiled": ("count", "lower", 0.0),
    "failed_ratio": ("ratio", "lower", 0.0),
    # Raw wall times, before host-speed scaling: shown, never judged.
    "request_p50_wall_s": ("s", "lower", None),
    "setup_wall_s": ("s", "lower", None),
}

#: The per-kind latency metric of each request kind.
KIND_METRIC = {
    "null": "null_s",
    "comment": "comment_edit_s",
    "impl": "impl_edit_s",
    "iface": "iface_edit_s",
    "cold": "cold_build_s",
}


def load_spec(path: str = SPEC_PATH) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def units(spec: dict) -> dict[str, str]:
    """metric name -> unit, for every metric the benchmark reports."""
    out = {m["name"]: m["unit"]
           for m in spec["end_to_end"] + spec["per_layer"]}
    out.update({name: unit for name, (unit, _b, _bound) in DETAIL.items()})
    return out


def bounds(spec: dict) -> dict[str, tuple[str, float]]:
    """metric name -> (better, bound) for every bounded metric."""
    out = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}
    out.update({name: (better, bound)
                for name, (_u, better, bound) in DETAIL.items()
                if bound is not None})
    return out
