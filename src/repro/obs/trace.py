"""Per-request span traces built from the simulator event stream.

:class:`SpanTracer` is an :class:`~repro.verify.events.EventSink`: attach it
(alone or behind a ``TeeSink``) as a simulator's ``recorder=`` and it folds
the run's event stream into per-request *spans* — the request timeline the
event log only states implicitly::

    queued ─ routed ─ admitted ─ prefill chunks ─ decode ─ [preempt ─ queued
    ─ admitted ─ recompute ─ decode]* ─ complete

Spans live on two kinds of tracks:

* one track per request (``queued`` / ``prefill`` / ``decode`` phases, plus
  ``recompute`` phases after a preemption), and
* one track per replica (every executed ``step``, with its batch
  composition in the span args).

:meth:`SpanTracer.to_perfetto` serializes everything as Chrome
``trace_event`` JSON (``ph="X"`` complete events plus ``ph="C"`` counter
tracks for queue depth and KV usage), so any run opens directly in the
Perfetto UI (https://ui.perfetto.dev) or ``chrome://tracing``.  Simulation
seconds map to trace microseconds.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.verify.events import EventSink

#: Synthetic pid hosting the per-request tracks in the Perfetto view.
REQUESTS_PID = 1
#: Replica tracks use pid = _REPLICA_PID_BASE + replica_id.
_REPLICA_PID_BASE = 100


@dataclass
class Span:
    """One closed interval on a request's or replica's timeline."""

    name: str
    start: float
    end: float
    replica_id: int = -1
    request_id: int = -1
    args: dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class _RequestTrack:
    """Tracer-internal per-request lifecycle state."""

    request_id: int
    arrival_time: float
    prefill_tokens: int
    decode_tokens: int
    tenant: str | None = None
    replica_id: int = -1
    remaining_prefill: int = 0
    preemptions: int = 0
    first_token_time: float | None = None
    complete_time: float | None = None
    phase: str = "queued"
    phase_start: float = 0.0
    spans: list[Span] = field(default_factory=list)

    def close_phase(self, now: float) -> None:
        if self.phase:
            self.spans.append(
                Span(
                    self.phase,
                    self.phase_start,
                    max(now, self.phase_start),
                    replica_id=self.replica_id,
                    request_id=self.request_id,
                    args={"preemptions": self.preemptions},
                )
            )

    def open_phase(self, name: str, now: float) -> None:
        self.phase = name
        self.phase_start = now


class SpanTracer(EventSink):
    """Fold simulator events into spans; export as Perfetto trace JSON."""

    def __init__(self) -> None:
        self.requests: dict[int, _RequestTrack] = {}
        self.step_spans: list[Span] = []
        self.counter_samples: list[tuple[float, int, str, float]] = []
        self._last_step: dict[int, tuple[float, float]] = {}

    # ------------------------------------------------------------- sink API

    def clear(self) -> None:
        self.requests.clear()
        self.step_spans.clear()
        self.counter_samples.clear()
        self._last_step.clear()

    def emit(
        self,
        kind: str,
        time: float,
        replica_id: int = -1,
        request_id: int = -1,
        **data: Any,
    ) -> None:
        if kind == "enqueued":
            # A disaggregated decode-pool enqueue re-uses the id; keep the
            # original track and treat the handoff as a queued phase.
            track = self.requests.get(request_id)
            if track is None:
                track = _RequestTrack(
                    request_id=request_id,
                    arrival_time=data.get("arrival_time", time),
                    prefill_tokens=data.get("prefill_tokens", 0),
                    decode_tokens=data.get("decode_tokens", 0),
                    tenant=data.get("tenant"),
                    replica_id=replica_id,
                    remaining_prefill=data.get("prefill_tokens", 0),
                    phase_start=time,
                )
                self.requests[request_id] = track
            else:
                track.replica_id = replica_id
        elif kind == "routed":
            track = self.requests.get(request_id)
            if track is not None:
                track.replica_id = replica_id
        elif kind == "admitted":
            track = self.requests.get(request_id)
            if track is not None:
                track.replica_id = replica_id
                track.close_phase(time)
                if track.remaining_prefill <= 0:
                    # Disaggregated decode-pool admission: the prompt was
                    # prefilled (and the first token emitted) upstream.
                    name = "decode"
                elif track.preemptions:
                    name = "recompute"
                else:
                    name = "prefill"
                track.open_phase(name, time)
        elif kind == "kv_shared_alloc":
            track = self.requests.get(request_id)
            if track is not None:
                track.remaining_prefill -= data.get("cached_tokens", 0)
        elif kind == "chunk_executed":
            track = self.requests.get(request_id)
            if track is not None:
                if data.get("phase") == "prefill":
                    track.remaining_prefill -= data.get("tokens", 0)
                    if track.remaining_prefill <= 0:
                        if track.first_token_time is None:
                            track.first_token_time = time
                        track.close_phase(time)
                        track.open_phase("decode", time)
                # Decode chunks only extend the open decode phase; the span
                # closes at release/preempt/completion.
        elif kind == "preempted":
            track = self.requests.get(request_id)
            if track is not None:
                track.close_phase(time)
                track.preemptions += 1
                track.remaining_prefill = track.prefill_tokens
                track.open_phase("queued", time)
        elif kind == "released":
            track = self.requests.get(request_id)
            if track is not None and data.get("state") != "finished":
                # First-token handoff (disaggregated): close the local phase;
                # the decode pool re-opens with its own enqueue.
                track.close_phase(time)
                track.open_phase("queued", time)
        elif kind == "completed":
            track = self.requests.get(request_id)
            if track is not None:
                track.complete_time = time
                track.close_phase(time)
                track.phase = ""
        elif kind == "step":
            start = time
            end = time + data.get("duration", 0.0)
            self._last_step[replica_id] = (start, end)
            self.step_spans.append(
                Span(
                    "step",
                    start,
                    end,
                    replica_id=replica_id,
                    args={
                        "num_tokens": data.get("num_tokens"),
                        "num_waiting": data.get("num_waiting"),
                        "num_running": data.get("num_running"),
                    },
                )
            )
            if "num_waiting" in data:
                self.counter_samples.append(
                    (start, replica_id, "queue_depth", float(data["num_waiting"]))
                )
            if "kv_used_blocks" in data:
                self.counter_samples.append(
                    (start, replica_id, "kv_used_blocks", float(data["kv_used_blocks"]))
                )

    # ------------------------------------------------------------- queries

    def waterfall_rows(self, top_k: int = 10) -> list[dict[str, Any]]:
        """Top-K slowest completed requests with their phase breakdown.

        Each row carries the request identity, end-to-end latency, TTFT and
        the per-phase time totals — the report's waterfall input.
        """
        completed = [
            (track, track.complete_time)
            for track in self.requests.values()
            if track.complete_time is not None
        ]
        completed.sort(key=lambda pair: pair[1] - pair[0].arrival_time, reverse=True)
        rows: list[dict[str, Any]] = []
        for track, complete_time in completed[:top_k]:
            phases: dict[str, float] = {}
            for span in track.spans:
                phases[span.name] = phases.get(span.name, 0.0) + span.duration
            rows.append(
                {
                    "request_id": track.request_id,
                    "tenant": track.tenant,
                    "replica_id": track.replica_id,
                    "arrival_time": track.arrival_time,
                    "e2e_latency": complete_time - track.arrival_time,
                    "ttft": (
                        track.first_token_time - track.arrival_time
                        if track.first_token_time is not None
                        else None
                    ),
                    "preemptions": track.preemptions,
                    "prefill_tokens": track.prefill_tokens,
                    "decode_tokens": track.decode_tokens,
                    "phases": phases,
                    "spans": list(track.spans),
                }
            )
        return rows

    # ------------------------------------------------------------- export

    def to_trace_events(self) -> list[dict[str, Any]]:
        """Chrome ``trace_event`` dicts (``ts``/``dur`` in microseconds)."""
        events: list[dict[str, Any]] = [
            {
                "ph": "M",
                "pid": REQUESTS_PID,
                "tid": 0,
                "name": "process_name",
                "args": {"name": "requests"},
            }
        ]
        seen_replicas: set[int] = set()

        def replica_pid(replica_id: int) -> int:
            pid = _REPLICA_PID_BASE + max(replica_id, 0)
            if replica_id not in seen_replicas:
                seen_replicas.add(replica_id)
                events.append(
                    {
                        "ph": "M",
                        "pid": pid,
                        "tid": 0,
                        "name": "process_name",
                        "args": {"name": f"replica {replica_id}"},
                    }
                )
            return pid

        for request_id in sorted(self.requests):
            track = self.requests[request_id]
            events.append(
                {
                    "ph": "M",
                    "pid": REQUESTS_PID,
                    "tid": request_id,
                    "name": "thread_name",
                    "args": {"name": f"req {request_id}"},
                }
            )
            for span in track.spans:
                events.append(
                    {
                        "ph": "X",
                        "pid": REQUESTS_PID,
                        "tid": request_id,
                        "name": span.name,
                        "cat": "request",
                        "ts": span.start * 1e6,
                        "dur": span.duration * 1e6,
                        "args": {"replica": span.replica_id, **span.args},
                    }
                )
        for span in self.step_spans:
            events.append(
                {
                    "ph": "X",
                    "pid": replica_pid(span.replica_id),
                    "tid": 1,
                    "name": span.name,
                    "cat": "replica",
                    "ts": span.start * 1e6,
                    "dur": span.duration * 1e6,
                    "args": {k: v for k, v in span.args.items() if v is not None},
                }
            )
        for time, replica_id, counter, value in self.counter_samples:
            events.append(
                {
                    "ph": "C",
                    "pid": replica_pid(replica_id),
                    "tid": 0,
                    "name": counter,
                    "ts": time * 1e6,
                    "args": {"value": value},
                }
            )
        return events

    def to_perfetto(self, path: str | Path) -> Path:
        """Write the run as a Perfetto-loadable ``trace_event`` JSON file."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "traceEvents": self.to_trace_events(),
            "displayTimeUnit": "ms",
            "metadata": {"tool": "repro.obs.trace", "time_unit": "simulated microseconds"},
        }
        path.write_text(json.dumps(payload, indent=None, separators=(",", ":")) + "\n")
        return path
