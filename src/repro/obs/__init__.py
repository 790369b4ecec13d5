"""repro.obs — unified tracing, metrics, and profiling.

One telemetry layer for every subsystem: the mpx kernel's chunk sweeps,
the EvalEngine grid, the streaming replay loop, and the serve tier all
report to the same :class:`MetricsRegistry` and :class:`Tracer`.  See
``docs/observability.md`` for the span model, the trace file schema,
and the measured overhead numbers.

Everything here is standard library only; the disabled default tracer
keeps instrumented hot paths within noise of un-instrumented code
(asserted by the ``obs`` bench section).
"""

from .alerts import (
    AlertManager,
    AlertRule,
    AlertStatus,
    BurnRateRule,
    DetectorRule,
    Selector,
    ThresholdRule,
)
from .registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
    pop_registry,
    push_registry,
    quantile,
)
from .regression import (
    compare_reports,
    format_compare,
    latest_baseline,
    load_trajectory,
)
from .rollup import format_rollup, format_tree, load_trace, rollup
from .series import SamplePoint, SeriesSampler
from .trace import (
    Span,
    TRACE_SCHEMA,
    Tracer,
    canonical_records,
    get_tracer,
    tracing_session,
    write_trace,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "get_registry",
    "push_registry",
    "pop_registry",
    "quantile",
    "Span",
    "Tracer",
    "TRACE_SCHEMA",
    "get_tracer",
    "tracing_session",
    "write_trace",
    "canonical_records",
    "load_trace",
    "rollup",
    "format_rollup",
    "format_tree",
    "SeriesSampler",
    "SamplePoint",
    "AlertManager",
    "AlertRule",
    "AlertStatus",
    "ThresholdRule",
    "BurnRateRule",
    "DetectorRule",
    "Selector",
    "compare_reports",
    "format_compare",
    "load_trajectory",
    "latest_baseline",
]
