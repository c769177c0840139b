"""Opt-in observability for the serving and cluster simulators.

Everything here rides the recorder-hook pattern of :mod:`repro.verify`:
simulators emit events onto any :class:`~repro.verify.events.EventSink`,
and this package provides sinks that aggregate instead of record —

* :class:`~repro.obs.telemetry.Telemetry` — the bundle (attach as
  ``recorder=``): metrics registry + span tracer + fleet sampler.
* :class:`~repro.obs.metrics.MetricsRegistry` — labeled counters, gauges
  and log-bucketed histograms with bounded-error percentiles.
* :class:`~repro.obs.trace.SpanTracer` — per-request span timelines with
  Perfetto ``trace_event`` JSON export.
* :class:`~repro.obs.sampler.FleetSampler` — cadenced fleet time-series
  (queue depth, token mix, KV usage, prefix-cache hit rate) whose window
  integrals reconcile exactly against the run's aggregate counters.
* :class:`~repro.obs.profiling.HostProfiler` — host wall/CPU/peak-RSS
  self-profiling for benchmark artifacts.
* :mod:`repro.obs.report` — the run-report generator (``repro report``).

Telemetry off (the default ``recorder=None``) costs nothing: the hot paths
keep their single ``is not None`` check.  See ``docs/observability.md``.
"""

from repro.obs.metrics import (
    DEFAULT_FLOOR,
    DEFAULT_GROWTH,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    normalize_labels,
)
from repro.obs.profiling import HostProfiler, peak_rss_mb
from repro.obs.report import generate_report, render_html, render_markdown
from repro.obs.sampler import DEFAULT_INTERVAL, FleetSampler
from repro.obs.telemetry import Telemetry
from repro.obs.trace import REQUESTS_PID, Span, SpanTracer

__all__ = [
    "DEFAULT_FLOOR",
    "DEFAULT_GROWTH",
    "DEFAULT_INTERVAL",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "normalize_labels",
    "HostProfiler",
    "peak_rss_mb",
    "generate_report",
    "render_html",
    "render_markdown",
    "FleetSampler",
    "Telemetry",
    "REQUESTS_PID",
    "Span",
    "SpanTracer",
]
