"""One-stop telemetry sink: registry + span tracer + fleet sampler.

:class:`Telemetry` is the front door of ``repro.obs``.  It is an
:class:`~repro.verify.events.EventSink`, so enabling full observability on
any simulator is one argument::

    telemetry = Telemetry()
    sim = ClusterSimulator(topology, recorder=telemetry)
    sim.run(requests)
    telemetry.finalize()
    telemetry.registry.merged_histogram("request_e2e_s").percentile(99)

and combining it with the verifier's recorder is a list (the simulators
normalize it through :func:`~repro.verify.events.as_sink`)::

    sim = ClusterSimulator(topology, recorder=[recorder, telemetry])

Telemetry is **opt-in**: with ``recorder=None`` (the default everywhere)
the simulators skip every emission site on a single ``is not None`` check,
so runs without telemetry are byte-identical to runs before this subsystem
existed.

One emission path feeds three consumers:

* :attr:`registry` — :class:`~repro.obs.metrics.MetricsRegistry` of
  counters / gauges / histograms (the metric catalog is in
  ``docs/observability.md``),
* :attr:`tracer` — :class:`~repro.obs.trace.SpanTracer` per-request span
  timelines, exportable as Perfetto trace JSON,
* :attr:`sampler` — :class:`~repro.obs.sampler.FleetSampler` cadenced
  fleet time-series, exportable as CSV.
"""

from __future__ import annotations

from typing import Any

from repro.obs.metrics import MetricsRegistry
from repro.obs.sampler import DEFAULT_INTERVAL, FleetSampler
from repro.obs.trace import SpanTracer
from repro.verify.events import EventSink


class Telemetry(EventSink):
    """Bundle registry, tracer and sampler behind one ``recorder=`` sink."""

    def __init__(self, sample_interval: float = DEFAULT_INTERVAL) -> None:
        self.registry = MetricsRegistry()
        self.tracer = SpanTracer()
        self.sampler = FleetSampler(interval=sample_interval)
        self._finalized = False

    def clear(self) -> None:
        self.registry.clear()
        self.tracer.clear()
        self.sampler.clear()
        self._finalized = False

    def emit(
        self,
        kind: str,
        time: float,
        replica_id: int = -1,
        request_id: int = -1,
        **data: Any,
    ) -> None:
        # Tracer first: the registry's latency observations read the track
        # state (arrival / first-token times) the tracer just updated.
        self.tracer.emit(kind, time, replica_id=replica_id, request_id=request_id, **data)
        self.sampler.emit(kind, time, replica_id=replica_id, request_id=request_id, **data)

        registry = self.registry
        replica = {"replica": replica_id}
        if kind == "chunk_executed":
            phase = "prefill" if data.get("phase") == "prefill" else "decode"
            registry.counter(f"serving_{phase}_tokens_total", replica).inc(
                data.get("tokens", 0)
            )
        elif kind == "step":
            registry.histogram("step_duration_s", replica).observe(
                data.get("duration", 0.0)
            )
            if "num_waiting" in data:
                registry.gauge("queue_depth", replica).set(data["num_waiting"])
            if "kv_used_blocks" in data:
                registry.gauge("kv_used_blocks", replica).set(data["kv_used_blocks"])
        elif kind == "admitted":
            registry.counter("serving_admissions_total", replica).inc()
        elif kind == "preempted":
            registry.counter("serving_preemptions_total", replica).inc()
        elif kind == "kv_shared_alloc":
            hits = data.get("shared_ref_hits", 0) + data.get("shared_revived", 0)
            if hits:
                registry.counter("kv_prefix_hits_total", replica).inc(hits)
            misses = data.get("shared_new", 0)
            if misses:
                registry.counter("kv_prefix_misses_total", replica).inc(misses)
            reused = data.get("cached_tokens", 0)
            if reused:
                registry.counter("kv_prefix_tokens_reused_total", replica).inc(reused)
            if data.get("evictions"):
                registry.counter("kv_evictions_total", replica).inc(data["evictions"])
        elif kind in ("kv_alloc", "kv_free"):
            if data.get("evictions"):
                registry.counter("kv_evictions_total", replica).inc(data["evictions"])
        elif kind == "completed":
            registry.counter("serving_completions_total", replica).inc()
            track = self.tracer.requests.get(request_id)
            if track is not None:
                tenant = {"tenant": track.tenant if track.tenant is not None else ""}
                registry.histogram("request_e2e_s", tenant).observe(
                    max(time - track.arrival_time, 0.0)
                )
                if track.first_token_time is not None:
                    registry.histogram("request_ttft_s", tenant).observe(
                        max(track.first_token_time - track.arrival_time, 0.0)
                    )
                    if track.decode_tokens > 1:
                        tbt = (time - track.first_token_time) / (track.decode_tokens - 1)
                        registry.histogram("request_tbt_s", tenant).observe(max(tbt, 0.0))

    def finalize(self) -> None:
        """Close the sampler's final partial window (idempotent)."""
        if not self._finalized:
            self.sampler.finalize()
            self._finalized = True
