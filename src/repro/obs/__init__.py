"""Build observability: tracing, explanation ledgers, profiling.

The build pipeline is instrumented through a single seam, the
:class:`~repro.obs.meter.BuildMeter` protocol.  Every instrumented call
site talks to a meter; the default :data:`~repro.obs.meter.NULL_METER`
does nothing (and costs almost nothing -- see
``benchmarks/test_bench_trace_overhead.py``), while a
:class:`~repro.obs.tracer.Tracer` records nested spans, instant events
and counters, renders a human tree report, and exports Chrome
``trace_event`` JSON loadable in ``chrome://tracing`` / Perfetto.

Orthogonally to timing, every builder keeps a **cutoff-explanation
ledger** (:class:`~repro.obs.ledger.ExplanationLedger`): one typed
:class:`~repro.obs.ledger.BuildDecision` per unit saying whether it was
recompiled or reused and *why* -- source edit, a named import pid that
changed (and which upstream unit changed it), a store miss, quarantined
damage, or pure builder policy (make's transitive cascade).

Post-build analytics live in :mod:`repro.obs.critical`: critical-path
extraction over the dependency DAG (the chain that bounds parallel
wall-clock), per-phase rollups and worker occupancy.

Across builds, :mod:`repro.obs.history` persists a compact
:class:`~repro.obs.history.BuildProfile` per build (a ring buffer
under ``.bin/profiles/``), :mod:`repro.obs.diff` structurally compares
the current ledger against the prior profile (``--explain-diff``:
"why did this unit rebuild today but not yesterday"),
:mod:`repro.obs.export` serializes spans to OTLP/JSON with zero new
dependencies, and :mod:`repro.obs.sampling` keeps full spans for
1-in-N builds with cheap always-on counters for the rest.
"""

from repro.obs.meter import NULL_METER, BuildMeter, NullMeter, NullSpan
from repro.obs.tracer import Span, Tracer
from repro.obs.ledger import (
    BuildDecision,
    ExplanationLedger,
    PidChange,
    explain_decision,
)
from repro.obs.critical import (
    critical_path,
    phase_rollup,
    request_rollup,
    span_coverage,
    worker_idle,
    worker_occupancy,
)
from repro.obs.history import (
    BuildHistory,
    BuildProfile,
    UnitProfile,
    profile_from_report,
)
from repro.obs.diff import ProfileDiff, UnitDiff, diff_against_profile
from repro.obs.export import to_otlp, validate_otlp
from repro.obs.sampling import CounterMeter, SamplingMeter

__all__ = [
    "BuildMeter",
    "NullMeter",
    "NullSpan",
    "NULL_METER",
    "Tracer",
    "Span",
    "BuildDecision",
    "PidChange",
    "ExplanationLedger",
    "explain_decision",
    "critical_path",
    "phase_rollup",
    "request_rollup",
    "span_coverage",
    "worker_idle",
    "worker_occupancy",
    "BuildHistory",
    "BuildProfile",
    "UnitProfile",
    "profile_from_report",
    "ProfileDiff",
    "UnitDiff",
    "diff_against_profile",
    "to_otlp",
    "validate_otlp",
    "CounterMeter",
    "SamplingMeter",
]
