"""Observability fabric: virtual-time tracing, metrics, and exporters.

The paper's cost claims (who pays for lookup, group creation, revocation
under each architecture) are quantitative claims about *where time and
messages go*; this package is the layer that answers them:

* :mod:`repro.obs.trace`   — hierarchical spans keyed to virtual sim time
  (:class:`Tracer`), with a near-zero-cost :class:`NoopTracer` default;
* :mod:`repro.obs.metrics` — dimensional counters/gauges/histograms
  (:class:`MetricsRegistry`), the one counter ledger; the flat
  ``NetworkStats`` is a read view over it;
* :mod:`repro.obs.hooks`   — wall-clock profiling hooks around the crypto
  primitives (:func:`profile_crypto`);
* :mod:`repro.obs.export`  — JSONL trace dumps, flamegraph-style text
  summaries, and ``report_table``-compatible metric/breakdown tables.

Deterministic by construction: span ids, virtual timestamps, and counter
values are pure functions of the seed; anything wall-clock lives in
segregated fields the deterministic exporters never emit.

The :class:`repro.fabric.Fabric` context object shares the network's
tracer and registry with every subsystem — see docs/observability.md.
"""

from repro.obs.export import (DOSN_PHASES, cost_breakdown, flame_summary,
                              metrics_rows, trace_to_jsonl)
from repro.obs.hooks import CryptoProfiler, crypto_op, profile_crypto
from repro.obs.metrics import (DEFAULT_BUCKETS, WALL_NS_BUCKETS, Counter,
                               Gauge, Histogram, MetricsRegistry)
from repro.obs.trace import NOOP_TRACER, NoopTracer, Span, Tracer

__all__ = [
    "Counter", "CryptoProfiler", "DEFAULT_BUCKETS", "DOSN_PHASES", "Gauge",
    "Histogram", "MetricsRegistry", "NOOP_TRACER", "NoopTracer", "Span",
    "Tracer", "WALL_NS_BUCKETS", "cost_breakdown", "crypto_op",
    "flame_summary", "metrics_rows", "profile_crypto", "trace_to_jsonl",
]
