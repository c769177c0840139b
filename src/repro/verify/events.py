"""Structured event log for the serving and cluster simulators.

Every scheduling decision the simulators make — a request handed to a
replica, admitted into the running set, a batch formed, a chunk executed, KV
blocks allocated or freed, a request released — can be captured as a typed
:class:`Event` on an :class:`EventRecorder`.  The recorder is an *opt-in*
hook: ``ReplicaRuntime`` and ``ClusterSimulator`` both
take ``recorder=None`` and every emission site is behind a single
``is not None`` check, so runs without a recorder pay effectively nothing
(measured at +0.3% on the fig17 benchmark timer, against this PR's <2%
budget).

The emission path is a small dispatch seam shared by every consumer: any
object implementing :class:`EventSink` (``emit`` + ``clear``) can be passed
wherever the simulators take ``recorder=``.  :class:`EventRecorder` is the
append-only sink the invariant checker replays; :class:`TeeSink` fans one
emission stream out to several sinks, which is how the telemetry layer
(``repro.obs``) taps the *same* event stream the verifier checks — one
emission path in the simulators, not two parallel hook systems.

The event stream is the input to :mod:`repro.verify.invariants`, which
replays it against machine-checkable rules (causality, token conservation,
KV accounting, batch budget compliance, monotone clocks).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator

# ------------------------------------------------------------- event kinds

#: Request handed to a replica (``ready`` payload is when it becomes runnable).
ENQUEUED = "enqueued"
#: Request moved from the replica's pending list into its waiting queue.
ARRIVAL = "arrival"
#: Scheduler moved a request from waiting into running (KV reserved).
ADMITTED = "admitted"
#: One iteration's batch, described before execution.
BATCH_FORMED = "batch_formed"
#: One iteration executed (time is the start clock; ``duration`` in payload).
STEP = "step"
#: Per-request token progress within an iteration (``phase`` / ``tokens``).
CHUNK_EXECUTED = "chunk_executed"
#: Request left the replica (finished, or handed off at first token).
RELEASED = "released"
#: Request reached FINISHED (exactly once per request, fleet-wide).
COMPLETED = "completed"
#: KV-cache blocks allocated for a request.
KV_ALLOC = "kv_alloc"
#: KV-cache blocks freed for a request.
KV_FREE = "kv_free"
#: Prefix-caching admission: shared-chain blocks resolved (hits/misses) plus
#: private reservation, with cache-hit token reuse in the payload.
KV_SHARED_ALLOC = "kv_shared_alloc"
#: Absorbed free of an id holding no blocks (healthy runs emit none; the
#: drain-balance invariant asserts the matching counter is zero).
KV_DOUBLE_FREE = "kv_double_free"
#: Request evicted from GPU memory under pressure; will recompute from its
#: prompt on re-admission (``lost_tokens`` is the discarded prefill work).
PREEMPTED = "preempted"
#: Cluster router assigned an external arrival to a replica.
ROUTED = "routed"
#: Disaggregated only: a prefill replica scheduled a KV transfer.
TRANSFER_START = "transfer_start"
#: Disaggregated only: a KV transfer delivered to a decode replica.
TRANSFER_DELIVERED = "transfer_delivered"
#: Admission control shed a request at arrival (``reason`` / ``tenant`` /
#: ``tier`` payload); the request is terminal and never executes a chunk.
REJECTED = "rejected"
#: Autoscaler provisioned a new replica (``ready_at`` payload is when its
#: cold start completes and it may first receive traffic).
SCALED_UP = "scaled_up"
#: Autoscaler began draining a replica: no new routes, existing work finishes.
DRAIN_STARTED = "drain_started"
#: A draining replica finished its outstanding work and left the fleet.
SCALED_DOWN = "scaled_down"

ALL_KINDS = (
    ENQUEUED,
    ARRIVAL,
    ADMITTED,
    BATCH_FORMED,
    STEP,
    CHUNK_EXECUTED,
    RELEASED,
    COMPLETED,
    KV_ALLOC,
    KV_FREE,
    KV_SHARED_ALLOC,
    KV_DOUBLE_FREE,
    PREEMPTED,
    ROUTED,
    TRANSFER_START,
    TRANSFER_DELIVERED,
    REJECTED,
    SCALED_UP,
    DRAIN_STARTED,
    SCALED_DOWN,
)

#: Events whose times must be globally non-decreasing in emission order
#: across a cluster run (the event loop always advances the earliest source).
#: Control-plane decisions (``rejected`` / ``scaled_up`` / ``drain_started``)
#: are made at arrival-delivery times, so they share the global clock;
#: ``scaled_down`` fires at the draining replica's *local* drain-completion
#: clock, which may legitimately run ahead of the next global event, so it is
#: excluded.
GLOBAL_CLOCK_KINDS = frozenset(
    {ROUTED, TRANSFER_DELIVERED, STEP, REJECTED, SCALED_UP, DRAIN_STARTED}
)

#: Declared payload schema per event kind: the complete set of keys an
#: emission of that kind may carry.  Emitters may send any *subset* (optional
#: fields such as ``tenant`` simply stay absent) but never a key outside the
#: schema.  Every :class:`EventRecorder` checks each emission against this
#: table, so the declaration and the recorded stream cannot drift apart on
#: any run that records events.
EVENT_SCHEMAS: dict[str, frozenset[str]] = {
    ENQUEUED: frozenset({"arrival_time", "prefill_tokens", "decode_tokens", "tenant"}),
    ARRIVAL: frozenset({"ready"}),
    ADMITTED: frozenset(),
    BATCH_FORMED: frozenset(
        {
            "scheduler",
            "num_prefill_tokens",
            "num_decode_tokens",
            "largest_prefill_item",
            "chunk_size",
            "max_prefill_tokens",
            "max_batch_size",
            "is_hybrid",
            "admission_blocked",
        }
    ),
    STEP: frozenset(
        {
            "duration",
            "num_tokens",
            "num_waiting",
            "num_running",
            "kv_used_blocks",
            "kv_total_blocks",
        }
    ),
    CHUNK_EXECUTED: frozenset({"phase", "tokens"}),
    RELEASED: frozenset({"state"}),
    COMPLETED: frozenset(),
    KV_ALLOC: frozenset(
        {"blocks", "used_blocks", "cached_blocks", "total_blocks", "evictions"}
    ),
    KV_FREE: frozenset(
        {
            "blocks",
            "used_blocks",
            "cached_blocks",
            "total_blocks",
            "private_blocks",
            "shared_released",
            "to_cache",
        }
    ),
    KV_SHARED_ALLOC: frozenset(
        {
            "blocks",
            "used_blocks",
            "cached_blocks",
            "total_blocks",
            "private_blocks",
            "shared_new",
            "shared_revived",
            "shared_ref_hits",
            "evictions",
            "cached_tokens",
        }
    ),
    KV_DOUBLE_FREE: frozenset(
        {"blocks", "used_blocks", "cached_blocks", "total_blocks"}
    ),
    PREEMPTED: frozenset({"lost_tokens", "preemption_count"}),
    ROUTED: frozenset(
        {"router", "load_requests", "load_tokens", "load_prefill_tokens", "cost_per_hour"}
    ),
    TRANSFER_START: frozenset({"delay", "context_tokens"}),
    TRANSFER_DELIVERED: frozenset(),
    REJECTED: frozenset({"reason", "tenant", "tier"}),
    SCALED_UP: frozenset({"ready_at"}),
    DRAIN_STARTED: frozenset(),
    SCALED_DOWN: frozenset(),
}


def validate_event_payload(
    kind: str,
    data: dict[str, Any],
) -> None:
    """Raise ``ValueError`` unless ``kind`` is declared and ``data`` ⊆ schema.

    :meth:`EventRecorder.emit` calls this on every emission: one dict lookup
    and one set difference.  Payload keys are allowed to be a *subset* of the
    declared schema — optional fields stay absent rather than null.
    """
    schema = EVENT_SCHEMAS.get(kind)
    if schema is None:
        raise ValueError(
            f"unknown event kind {kind!r}; declared kinds: {sorted(EVENT_SCHEMAS)}"
        )
    unknown = set(data) - schema
    if unknown:
        raise ValueError(
            f"event kind {kind!r} carries undeclared payload key(s) "
            f"{sorted(unknown)}; schema allows {sorted(schema) or '(no payload)'}"
        )


@dataclass(frozen=True, slots=True)
class Event:
    """One recorded simulator event.

    ``time`` is simulation seconds; ``replica_id`` is -1 for events not tied
    to a replica and ``request_id`` is -1 for events not tied to a request.
    ``data`` carries kind-specific payload fields.
    """

    kind: str
    time: float
    replica_id: int = -1
    request_id: int = -1
    data: dict[str, Any] = field(default_factory=dict)

    def __repr__(self) -> str:  # compact form for violation messages
        extras = " ".join(f"{k}={v}" for k, v in self.data.items())
        return (
            f"Event({self.kind} t={self.time:.6f} replica={self.replica_id} "
            f"req={self.request_id}{' ' + extras if extras else ''})"
        )


class EventSink:
    """Anything the simulators can emit events onto.

    Subclasses override :meth:`emit` (called on the hot path, once per
    event) and :meth:`clear` (called by ``run()`` on entry so a sink holds
    exactly one run's stream).  The base class is deliberately tiny: the
    whole contract is these two methods, so recorders, telemetry pipelines
    and ad-hoc test doubles all plug into the same ``recorder=`` parameter.
    """

    __slots__ = ()

    def emit(
        self,
        kind: str,
        time: float,
        replica_id: int = -1,
        request_id: int = -1,
        **data: Any,
    ) -> None:
        raise NotImplementedError

    def clear(self) -> None:
        raise NotImplementedError


class TeeSink(EventSink):
    """Fan one emission stream out to several sinks, in order.

    Lets a run feed the invariant checker's :class:`EventRecorder` and the
    telemetry layer simultaneously::

        recorder = EventRecorder()
        telemetry = Telemetry(...)
        ClusterSimulator(topology, recorder=TeeSink([recorder, telemetry]))
    """

    __slots__ = ("sinks",)

    def __init__(self, sinks: Iterable[EventSink]) -> None:
        self.sinks: tuple[EventSink, ...] = tuple(sinks)
        if not self.sinks:
            raise ValueError("TeeSink requires at least one sink")

    def emit(
        self,
        kind: str,
        time: float,
        replica_id: int = -1,
        request_id: int = -1,
        **data: Any,
    ) -> None:
        for sink in self.sinks:
            sink.emit(kind, time, replica_id=replica_id, request_id=request_id, **data)

    def clear(self) -> None:
        for sink in self.sinks:
            sink.clear()


def as_sink(
    recorder: "EventSink | list[EventSink] | tuple[EventSink, ...] | None",
) -> "EventSink | None":
    """Normalize a simulator ``recorder=`` argument into one sink.

    ``None`` stays ``None`` (recording off); a list/tuple of sinks becomes a
    :class:`TeeSink`; anything else is returned as-is.  Simulators call this
    once at construction, so the hot path keeps its single ``is not None``.
    """
    if recorder is None:
        return None
    if isinstance(recorder, (list, tuple)):
        if len(recorder) == 1:
            return recorder[0]
        return TeeSink(recorder)
    return recorder


class EventRecorder(EventSink):
    """Append-only sink for simulator events.

    One recorder can be shared by every replica of a cluster (events carry
    ``replica_id``); re-use across runs is allowed after :meth:`clear`.

    Every emission is validated against :data:`EVENT_SCHEMAS` before it is
    recorded: an unknown kind or an undeclared payload key raises
    ``ValueError`` at the emitting call site.  Every test that records a run
    therefore checks the event-schema contract on the code that ran.
    """

    __slots__ = ("events",)

    def __init__(self) -> None:
        self.events: list[Event] = []

    def emit(
        self,
        kind: str,
        time: float,
        replica_id: int = -1,
        request_id: int = -1,
        **data: Any,
    ) -> None:
        """Validate one event against its schema, then record it."""
        validate_event_payload(kind, data)
        self.events.append(Event(kind, time, replica_id, request_id, data))

    # ------------------------------------------------------------- queries

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[Event]:
        return iter(self.events)

    def of_kind(self, *kinds: str) -> list[Event]:
        """Events of the given kind(s), in emission order."""
        wanted = set(kinds)
        return [event for event in self.events if event.kind in wanted]

    def for_request(self, request_id: int) -> list[Event]:
        """Every event tied to one request, in emission order."""
        return [event for event in self.events if event.request_id == request_id]

    def summary(self) -> dict[str, int]:
        """Event-kind histogram (diagnostics / test assertions)."""
        return dict(Counter(event.kind for event in self.events))

    def clear(self) -> None:
        self.events.clear()


def merge_events(recorders: Iterable[EventRecorder]) -> list[Event]:
    """Concatenate several recorders' streams (emission order within each)."""
    merged: list[Event] = []
    for recorder in recorders:
        merged.extend(recorder.events)
    return merged
