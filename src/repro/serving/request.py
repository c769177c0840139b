"""Inference requests and their lifecycle.

A request arrives with a prompt (``prefill_tokens``) and generates
``decode_tokens`` output tokens.  The scheduler moves it through the states
``QUEUED → PREFILLING → DECODING → FINISHED``; the request records the
timestamps needed for the paper's latency metrics (TTFT, TBT, end-to-end
latency, stall counts).

Under admission control (``repro.cluster.control``) a request may instead be
shed at arrival: ``reject()`` moves it straight from ``QUEUED`` to the
terminal ``REJECTED`` state.  A rejected request never executes a chunk and
never produces tokens; offered-traffic accounting
(:func:`repro.serving.metrics.slo_attainment`) counts it as an SLO miss.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from repro.utils.validation import check_non_negative, check_positive


class RequestState(Enum):
    """Lifecycle state of a request."""

    QUEUED = "queued"
    PREFILLING = "prefilling"
    DECODING = "decoding"
    FINISHED = "finished"
    #: Shed by admission control before any work ran (terminal).
    REJECTED = "rejected"


@dataclass
class Request:
    """One inference request.

    Attributes:
        request_id: Unique identifier.
        prefill_tokens: Prompt length in tokens.
        decode_tokens: Number of output tokens to generate.
        arrival_time: Wall-clock arrival time in seconds.
        tenant: Owning tenant in multi-tenant workloads (None = untagged);
            metrics can be sliced per tenant (``compute_tenant_metrics``).
        prefix_id: Identity of the shared prompt prefix (system prompt, RAG
            corpus document, ...), or None when the prompt is unique.  Two
            requests with the same ``prefix_id`` share their first
            ``prefix_tokens`` prompt tokens exactly, which is what the
            prefix-caching KV allocator exploits.
        prefix_tokens: Length of the shared prefix (first tokens of the
            prompt); ignored when ``prefix_id`` is None.
    """

    request_id: int
    prefill_tokens: int
    decode_tokens: int
    arrival_time: float = 0.0
    tenant: str | None = None
    prefix_id: str | None = None
    prefix_tokens: int = 0

    state: RequestState = RequestState.QUEUED
    prefill_done_tokens: int = 0
    decode_done_tokens: int = 0
    first_token_time: float | None = None
    finish_time: float | None = None
    reject_time: float | None = None
    last_token_time: float | None = None
    token_intervals: list[float] = field(default_factory=list, repr=False)
    preemption_count: int = 0
    cached_prefix_tokens_total: int = 0

    def __post_init__(self) -> None:
        check_positive("prefill_tokens", self.prefill_tokens)
        check_positive("decode_tokens", self.decode_tokens)
        check_non_negative("arrival_time", self.arrival_time)
        check_non_negative("prefix_tokens", self.prefix_tokens)
        if self.prefix_id is not None and self.prefix_tokens > self.prefill_tokens:
            raise ValueError(
                f"request {self.request_id}: prefix_tokens {self.prefix_tokens} "
                f"exceeds the prompt length {self.prefill_tokens}"
            )

    # ----------------------------------------------------------- progress

    @property
    def remaining_prefill_tokens(self) -> int:
        return self.prefill_tokens - self.prefill_done_tokens

    @property
    def remaining_decode_tokens(self) -> int:
        return self.decode_tokens - self.decode_done_tokens

    @property
    def context_tokens(self) -> int:
        """Tokens currently in the KV cache for this request."""
        return self.prefill_done_tokens + self.decode_done_tokens

    @property
    def total_tokens(self) -> int:
        return self.prefill_tokens + self.decode_tokens

    @property
    def is_finished(self) -> bool:
        return self.state == RequestState.FINISHED

    @property
    def is_rejected(self) -> bool:
        return self.state == RequestState.REJECTED

    @property
    def is_terminal(self) -> bool:
        """Finished or rejected: no simulator will touch this request again."""
        return self.state in (RequestState.FINISHED, RequestState.REJECTED)

    # ------------------------------------------------------------ events

    def advance_prefill(self, tokens: int, now: float) -> None:
        """Record ``tokens`` of prompt processed by the iteration ending at ``now``."""
        if tokens <= 0:
            raise ValueError("advance_prefill requires tokens > 0")
        if tokens > self.remaining_prefill_tokens:
            raise ValueError(
                f"request {self.request_id}: chunk of {tokens} exceeds remaining prefill "
                f"({self.remaining_prefill_tokens})"
            )
        self.state = RequestState.PREFILLING
        self.prefill_done_tokens += tokens
        if self.remaining_prefill_tokens == 0:
            if self.decode_done_tokens == 0:
                # Completing the prefill produces the first output token.
                self.first_token_time = now
                self.last_token_time = now
                self.decode_done_tokens += 1
                self.state = RequestState.DECODING
                self._maybe_finish(now)
            else:
                # A preempted request finished recomputing its prompt: the KV
                # cache is rebuilt but no new token is emitted — the stall
                # shows up in the next decode's token interval.
                self.state = RequestState.DECODING

    def advance_decode(self, now: float) -> None:
        """Record one output token produced by the iteration ending at ``now``."""
        if self.state != RequestState.DECODING:
            raise ValueError(f"request {self.request_id} is not decoding (state={self.state})")
        if self.last_token_time is not None:
            self.token_intervals.append(now - self.last_token_time)
        self.last_token_time = now
        self.decode_done_tokens += 1
        self._maybe_finish(now)

    def advance_decodes(self, intervals: list[float], now: float) -> None:
        """Record one output token per back-to-back decode iteration, the
        last ending at ``now``; ``intervals`` are their times between tokens,
        the first measured from ``last_token_time``."""
        self.token_intervals.extend(intervals)
        self.last_token_time = now
        self.decode_done_tokens += len(intervals)
        self._maybe_finish(now)

    def _maybe_finish(self, now: float) -> None:
        if self.decode_done_tokens >= self.decode_tokens:
            self.state = RequestState.FINISHED
            self.finish_time = now

    def reject(self, now: float) -> None:
        """Shed this request at admission: terminal, before any work ran.

        Only a queued request that has made no progress can be rejected —
        admission control acts at arrival, never on running work (overload
        on in-flight requests is preemption's job, not shedding's).
        """
        if self.state != RequestState.QUEUED:
            raise ValueError(
                f"request {self.request_id} cannot be rejected in state {self.state}"
            )
        if self.prefill_done_tokens or self.decode_done_tokens:
            raise ValueError(
                f"request {self.request_id} cannot be rejected after progress "
                f"({self.prefill_done_tokens} prefill / "
                f"{self.decode_done_tokens} decode tokens done)"
            )
        if now < self.arrival_time:
            raise ValueError(
                f"request {self.request_id}: reject time {now} precedes arrival "
                f"{self.arrival_time}"
            )
        self.state = RequestState.REJECTED
        self.reject_time = now

    # -------------------------------------------------- memory pressure

    def apply_prefix_cache_hit(self, cached_tokens: int) -> None:
        """Skip recomputing ``cached_tokens`` prompt tokens served from cache.

        Called by the scheduler at admission, before any chunk of this
        admission executes; the cache never covers the whole prompt (at least
        one token is always recomputed so prefill completion stays an
        executed event).
        """
        if cached_tokens <= 0:
            return
        if self.prefill_done_tokens != 0:
            raise ValueError(
                f"request {self.request_id}: prefix hit applied mid-prefill "
                f"({self.prefill_done_tokens} tokens already done)"
            )
        if cached_tokens >= self.prefill_tokens:
            raise ValueError(
                f"request {self.request_id}: cache hit {cached_tokens} must leave "
                f"at least one prompt token to compute ({self.prefill_tokens})"
            )
        self.prefill_done_tokens = cached_tokens
        self.cached_prefix_tokens_total += cached_tokens

    def preempt(self) -> int:
        """Evict this request from GPU memory; recompute from the prompt later.

        Generated tokens are retained (they were already streamed to the
        user); the KV cache they occupied is dropped, so the next admission
        re-runs the prompt prefill before decoding resumes.  Returns the
        number of prefill tokens whose work is lost (the recompute debt).
        """
        if self.state not in (RequestState.PREFILLING, RequestState.DECODING):
            raise ValueError(
                f"request {self.request_id} cannot be preempted in state {self.state}"
            )
        lost = self.prefill_done_tokens
        self.prefill_done_tokens = 0
        self.state = RequestState.QUEUED
        self.preemption_count += 1
        return lost

    # ------------------------------------------------------------ copying

    def fresh_copy(self, arrival_time: float | None = None) -> "Request":
        """Unserved copy carrying only the identity/workload fields.

        Simulators run on fresh copies so a caller's request list is never
        mutated (state, timestamps and progress all start from QUEUED).
        """
        return Request(
            request_id=self.request_id,
            prefill_tokens=self.prefill_tokens,
            decode_tokens=self.decode_tokens,
            arrival_time=self.arrival_time if arrival_time is None else arrival_time,
            tenant=self.tenant,
            prefix_id=self.prefix_id,
            prefix_tokens=self.prefix_tokens,
        )

    # ----------------------------------------------------------- metrics

    @property
    def ttft(self) -> float:
        """Time to first token (seconds); raises if the prefill has not completed."""
        if self.first_token_time is None:
            raise ValueError(f"request {self.request_id} has not produced its first token")
        return self.first_token_time - self.arrival_time

    @property
    def e2e_latency(self) -> float:
        """End-to-end request execution latency (seconds)."""
        if self.finish_time is None:
            raise ValueError(f"request {self.request_id} has not finished")
        return self.finish_time - self.arrival_time

    @property
    def tbt_samples(self) -> list[float]:
        """Per-token decode intervals (time-between-tokens samples)."""
        return list(self.token_intervals)

    def max_tbt(self) -> float:
        """Largest decode stall experienced by this request (0 if single-token output)."""
        return max(self.token_intervals, default=0.0)

    def experienced_stall(self, threshold: float) -> bool:
        """True when any time-between-tokens interval exceeded ``threshold`` seconds."""
        return self.max_tbt() > threshold


def make_requests(
    specs: list[tuple[int, int]],
    arrival_times: list[float] | None = None,
) -> list[Request]:
    """Build a request list from ``(prefill_tokens, decode_tokens)`` pairs."""
    arrival_times = arrival_times or [0.0] * len(specs)
    if len(arrival_times) != len(specs):
        raise ValueError("arrival_times must match the number of request specs")
    return [
        Request(
            request_id=i,
            prefill_tokens=prefill,
            decode_tokens=decode,
            arrival_time=arrival,
        )
        for i, ((prefill, decode), arrival) in enumerate(zip(specs, arrival_times))
    ]
