"""Router policies: which replica receives each arriving request.

A router sees a load snapshot of every replica in its pool (queued + running
request counts, outstanding prefill/decode token backlogs) and picks one.  The
policies span the classic design space:

* ``round-robin``   — state-oblivious, perfectly fair in request count.
* ``least-requests``— join-shortest-queue (JSQ) by outstanding request count.
* ``least-tokens``  — JSQ by total outstanding tokens, which equalizes *work*
  rather than request count under heavy-tailed context lengths.
* ``prefill-aware`` — balances the outstanding *prefill* token backlog first
  (prompt processing dominates iteration time at POD-relevant context
  lengths), breaking ties on total tokens.
* ``prefix-affinity`` — sends requests tagged with a shared ``prefix_id`` to
  the replica already serving that prefix (so its prefix-cached KV blocks are
  reused), spilling to the least-loaded replica when the sticky target is
  overloaded.  Untagged requests fall back to least-tokens.
* ``cost-aware``    — dollar-denominated placement over heterogeneous fleets:
  scores each replica by the estimated marginal dollars of finishing this
  request there (hourly rate × projected work ÷ a hardware throughput proxy).
  On a uniform-cost fleet it degenerates to least-tokens exactly.

Routers are deliberately cheap and deterministic: tie-breaks always favour the
lowest replica index, so simulations are reproducible across runs.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

from repro.serving.request import Request


@dataclass(frozen=True)
class ReplicaLoad:
    """Point-in-time load snapshot of one replica, as seen by a router.

    ``cost_per_hour`` and ``perf_weight`` describe the replica's *hardware*
    (USD/hour and a relative throughput proxy) for dollar-denominated
    policies; both default to neutral values so load snapshots built without
    economics (``cost_per_hour=0`` → treated as uniform cost) keep every
    pre-existing policy's behaviour unchanged.
    """

    replica_id: int
    num_requests: int
    outstanding_tokens: int
    outstanding_prefill_tokens: int
    cost_per_hour: float = 0.0
    perf_weight: float = 1.0

    @classmethod
    def zero(cls, replica_id: int) -> "ReplicaLoad":
        """Empty snapshot, for policies that declare ``needs_loads = False``."""
        return cls(
            replica_id=replica_id,
            num_requests=0,
            outstanding_tokens=0,
            outstanding_prefill_tokens=0,
        )


class RouterPolicy(ABC):
    """Chooses a replica (by position in the pool) for each request."""

    name: str = "base"
    #: Whether ``choose`` reads the load fields; when False the caller may
    #: pass zeroed snapshots and skip the per-request backlog scan.
    needs_loads: bool = True

    @abstractmethod
    def choose(self, loads: list[ReplicaLoad], request: Request) -> int:
        """Return the index *into* ``loads`` of the replica to dispatch to."""

    def reset(self) -> None:
        """Clear any routing state (between runs)."""


class RoundRobinRouter(RouterPolicy):
    """Cycle through the pool regardless of load."""

    name = "round-robin"
    needs_loads = False

    def __init__(self) -> None:
        self._next = 0

    def choose(self, loads: list[ReplicaLoad], request: Request) -> int:
        if not loads:
            raise ValueError("router needs at least one replica")
        index = self._next % len(loads)
        self._next += 1
        return index

    def reset(self) -> None:
        self._next = 0


class LeastOutstandingRequestsRouter(RouterPolicy):
    """Join-shortest-queue by outstanding request count."""

    name = "least-requests"

    def choose(self, loads: list[ReplicaLoad], request: Request) -> int:
        if not loads:
            raise ValueError("router needs at least one replica")
        return min(range(len(loads)), key=lambda i: (loads[i].num_requests, i))


class LeastOutstandingTokensRouter(RouterPolicy):
    """Join-shortest-queue by total outstanding (prefill + decode) tokens."""

    name = "least-tokens"

    def choose(self, loads: list[ReplicaLoad], request: Request) -> int:
        if not loads:
            raise ValueError("router needs at least one replica")
        return min(range(len(loads)), key=lambda i: (loads[i].outstanding_tokens, i))


class PrefillAwareRouter(RouterPolicy):
    """Balance the prefill-token backlog first, then total tokens.

    Prompt processing is compute-bound and dominates iteration time, so two
    replicas with equal token counts can have very different queueing delays
    if one's backlog is prefill-heavy; this policy targets exactly that skew.
    """

    name = "prefill-aware"

    def choose(self, loads: list[ReplicaLoad], request: Request) -> int:
        if not loads:
            raise ValueError("router needs at least one replica")
        return min(
            range(len(loads)),
            key=lambda i: (loads[i].outstanding_prefill_tokens, loads[i].outstanding_tokens, i),
        )


class PrefixAffinityRouter(RouterPolicy):
    """Route shared-prefix requests to the replica holding their prefix.

    The first request of each ``prefix_id`` is placed least-tokens and the
    assignment is remembered; later requests with the same prefix follow it,
    so one replica's prefix cache serves the whole group (the KV-level
    counterpart of session affinity).  Stickiness yields when the assigned
    replica's outstanding-token backlog exceeds ``spill_factor`` times the
    least-loaded replica's plus ``spill_slack_tokens`` — then the prefix is
    *re-homed* to the spill target, trading one round of cache misses for
    load balance.  Requests without a ``prefix_id`` are routed least-tokens.
    """

    name = "prefix-affinity"

    def __init__(self, spill_factor: float = 2.0, spill_slack_tokens: int = 8192) -> None:
        self.spill_factor = spill_factor
        self.spill_slack_tokens = spill_slack_tokens
        self._homes: dict[str, int] = {}

    def choose(self, loads: list[ReplicaLoad], request: Request) -> int:
        if not loads:
            raise ValueError("router needs at least one replica")
        fallback = min(range(len(loads)), key=lambda i: (loads[i].outstanding_tokens, i))
        prefix_id = request.prefix_id
        if prefix_id is None:
            return fallback
        home = self._homes.get(prefix_id)
        if home is not None:
            for index, load in enumerate(loads):
                if load.replica_id != home:
                    continue
                limit = (
                    self.spill_slack_tokens
                    + self.spill_factor * loads[fallback].outstanding_tokens
                )
                if load.outstanding_tokens <= limit:
                    return index
                break  # overloaded (or pool changed): re-home below
        self._homes[prefix_id] = loads[fallback].replica_id
        return fallback

    def reset(self) -> None:
        self._homes.clear()


#: Objectives accepted by :class:`CostAwareRouter`.
COST_OBJECTIVES = ("perf-per-dollar", "usd-per-token")


class CostAwareRouter(RouterPolicy):
    """Dollar-denominated placement for heterogeneous (mixed-rate) fleets.

    Two objectives (see :data:`COST_OBJECTIVES`):

    * ``perf-per-dollar`` (default, load-aware) — score each replica by the
      estimated marginal dollars of finishing this request there:
      ``rate × (1 + backlog + request tokens) ÷ perf_weight``, where
      ``perf_weight`` is the replica's relative throughput proxy.  A fast
      replica absorbs proportionally more work before its dollar-score
      catches a slow one; at *uniform* cost and perf the score ordering is
      exactly the outstanding-token ordering, so the policy degenerates to
      least-tokens (the mixed-generation differential oracle relies on this).
    * ``usd-per-token`` (static-greedy) — rank replicas by their hardware
      $/token (``rate ÷ perf_weight``) and pack the cheapest first, breaking
      ties on outstanding tokens.  Useful to expose the cost floor of a mix;
      ignores queueing, so expect worse tail latency under load.

    Replicas with no cost information (``cost_per_hour == 0``) are treated as
    uniform cost 1.0.  All tie-breaks fall to the lowest pool index.
    """

    name = "cost-aware"

    def __init__(self, objective: str = "perf-per-dollar") -> None:
        if objective not in COST_OBJECTIVES:
            raise ValueError(
                f"unknown cost objective {objective!r}; choose from {list(COST_OBJECTIVES)}"
            )
        self.objective = objective

    @staticmethod
    def _rate(load: ReplicaLoad) -> float:
        return load.cost_per_hour if load.cost_per_hour > 0 else 1.0

    @staticmethod
    def _perf(load: ReplicaLoad) -> float:
        return load.perf_weight if load.perf_weight > 0 else 1.0

    def choose(self, loads: list[ReplicaLoad], request: Request) -> int:
        if not loads:
            raise ValueError("router needs at least one replica")
        if self.objective == "usd-per-token":
            return min(
                range(len(loads)),
                key=lambda i: (
                    self._rate(loads[i]) / self._perf(loads[i]),
                    loads[i].outstanding_tokens,
                    i,
                ),
            )
        # Secondary key: outstanding tokens.  If float rounding ever collapses
        # two scores, the uniform-cost case still orders exactly like
        # least-tokens (the differential oracle pins this).
        projected = 1 + request.total_tokens
        return min(
            range(len(loads)),
            key=lambda i: (
                self._rate(loads[i])
                * (projected + loads[i].outstanding_tokens)
                / self._perf(loads[i]),
                loads[i].outstanding_tokens,
                i,
            ),
        )


ROUTERS = {
    RoundRobinRouter.name: RoundRobinRouter,
    LeastOutstandingRequestsRouter.name: LeastOutstandingRequestsRouter,
    LeastOutstandingTokensRouter.name: LeastOutstandingTokensRouter,
    PrefillAwareRouter.name: PrefillAwareRouter,
    PrefixAffinityRouter.name: PrefixAffinityRouter,
    CostAwareRouter.name: CostAwareRouter,
}


def get_router(name: str) -> RouterPolicy:
    """Instantiate a router policy by name."""
    key = name.lower()
    if key not in ROUTERS:
        raise ValueError(f"unknown router {name!r}; choose from {sorted(ROUTERS)}")
    return ROUTERS[key]()
