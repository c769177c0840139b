"""Elastic control plane: autoscaling, SLO-aware admission control, shedding.

A static fleet sized for the steady state either wastes replicas or falls
over during a surge.  This module adds the two policy layers a production
serving cluster puts in front of its fleet, both **default-off** (a
``ClusterSimulator`` without a ``control=`` argument behaves byte-identically
to one built before this module existed):

* :class:`AutoscalerPolicy` — queue-depth-triggered scaling.  When the mean
  outstanding-request depth per live replica crosses ``scale_up_queue_depth``
  the fleet provisions new replicas, each paying a ``cold_start_s`` delay
  before it may receive traffic; when the depth falls below
  ``scale_down_queue_depth`` the least-loaded replica begins *draining* — it
  receives no new routes, finishes its outstanding work, then leaves the
  fleet.  Decisions are throttled by ``cooldown_s`` to prevent flapping.

* :class:`AdmissionPolicy` — SLO-class-aware admission control and load
  shedding.  Fleet queue pressure is compared against per-tier thresholds
  (lowest tier shed first: batch traffic is rejected at mild pressure,
  standard at heavy pressure, interactive only when the fleet is hard-full),
  on top of per-tenant outstanding-request caps and per-tenant token-bucket
  rate limits.  A shed request is terminal (``RequestState.REJECTED``): it
  never routes, executes no chunk, and counts as an SLO miss in the
  offered-traffic goodput (:func:`repro.serving.metrics.slo_attainment`).

:class:`ControlPlane` bundles the two policies plus their per-run mutable
state (token buckets, per-tenant outstanding counts, cooldown clock).  It is
a *policy* object, so it stays trivially unit-testable.

:class:`FleetState` is the elastic fleet's lifecycle: the live / warming /
draining / retired sets, the activation ledger replica-seconds are billed
from, and the ``scaled_up`` / ``drain_started`` / ``scaled_down`` events.
The :class:`~repro.cluster.simulator.ClusterSimulator` executes the control
plane's decisions through it, and the stateful cluster machine
(:class:`repro.verify.stateful.ClusterInterleavingMachine`) drives the same
object, so the lifecycle the tests check is the one that runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Mapping

from repro.serving.request import Request
from repro.utils.validation import check_positive
from repro.workloads.tenants import SLO_CLASSES

if TYPE_CHECKING:  # repro.verify imports the cluster layer
    from repro.serving.replica import ReplicaRuntime
    from repro.verify.events import EventSink

#: Rejection reason strings carried on ``rejected`` events.
SHED_OVERLOAD = "overload"
SHED_TENANT_QUEUE = "tenant_queue_cap"
SHED_RATE_LIMIT = "tenant_rate_limit"

#: Default per-tier shed thresholds, as fractions of fleet queue capacity.
#: Lowest tier first: batch traffic sheds once the fleet is half full,
#: standard at three quarters, interactive only when hard-full.
DEFAULT_SHED_THRESHOLDS: dict[str, float] = {
    "batch": 0.5,
    "standard": 0.75,
    "interactive": 1.0,
}


@dataclass(frozen=True)
class AutoscalerPolicy:
    """Queue-depth-triggered horizontal scaling with cold starts and draining.

    Depth is measured as outstanding requests per *live* replica at arrival
    time (warming and draining replicas are excluded — warming replicas take
    no traffic yet; draining replicas take no new traffic ever).
    """

    min_replicas: int = 1
    max_replicas: int = 8
    #: Scale up when outstanding requests per live replica reach this depth.
    scale_up_queue_depth: float = 8.0
    #: Scale down when the depth falls to this level (and nothing is warming).
    scale_down_queue_depth: float = 1.0
    #: Provisioning delay: a new replica accepts traffic only after this long.
    cold_start_s: float = 5.0
    #: Minimum time between two scaling decisions.
    cooldown_s: float = 10.0
    scale_up_step: int = 1
    scale_down_step: int = 1

    def __post_init__(self) -> None:
        check_positive("min_replicas", self.min_replicas)
        check_positive("max_replicas", self.max_replicas)
        check_positive("scale_up_step", self.scale_up_step)
        check_positive("scale_down_step", self.scale_down_step)
        if self.max_replicas < self.min_replicas:
            raise ValueError(
                f"max_replicas {self.max_replicas} < min_replicas {self.min_replicas}"
            )
        if self.cold_start_s < 0 or self.cooldown_s < 0:
            raise ValueError("cold_start_s and cooldown_s must be non-negative")
        if self.scale_down_queue_depth >= self.scale_up_queue_depth:
            raise ValueError(
                "scale_down_queue_depth must be below scale_up_queue_depth "
                f"({self.scale_down_queue_depth} >= {self.scale_up_queue_depth})"
            )


@dataclass(frozen=True)
class AdmissionPolicy:
    """SLO-aware admission control: tiered shedding, tenant caps, rate limits.

    Every knob defaults to "off" (``None``); enable only the checks a run
    needs.  ``tenant_tiers`` maps tenant names to SLO-class names from
    :data:`repro.workloads.tenants.SLO_CLASSES`; unmapped tenants use
    ``default_tier``.
    """

    #: Fleet queue capacity per live replica; pressure = outstanding/capacity.
    max_queue_per_replica: int | None = None
    #: Hard cap on one tenant's outstanding (admitted, unfinished) requests.
    tenant_queue_cap: int | None = None
    #: Token-bucket refill rate per tenant (requests/second).
    tenant_rate_limit_qps: float | None = None
    #: Token-bucket burst size (initial and maximum tokens).
    rate_limit_burst: float = 8.0
    #: Tier name → pressure threshold at which that tier is shed.
    shed_thresholds: Mapping[str, float] = field(
        default_factory=lambda: dict(DEFAULT_SHED_THRESHOLDS)
    )
    #: Tenant name → tier name (keys of ``shed_thresholds``).
    tenant_tiers: Mapping[str, str] = field(default_factory=dict)
    default_tier: str = "standard"

    def __post_init__(self) -> None:
        if self.max_queue_per_replica is not None:
            check_positive("max_queue_per_replica", self.max_queue_per_replica)
        if self.tenant_queue_cap is not None:
            check_positive("tenant_queue_cap", self.tenant_queue_cap)
        if self.tenant_rate_limit_qps is not None:
            check_positive("tenant_rate_limit_qps", self.tenant_rate_limit_qps)
        check_positive("rate_limit_burst", self.rate_limit_burst)
        for tier in self.tenant_tiers.values():
            if tier not in self.shed_thresholds:
                raise ValueError(
                    f"tenant tier {tier!r} has no shed threshold; "
                    f"choose from {sorted(self.shed_thresholds)}"
                )
        if self.default_tier not in self.shed_thresholds:
            raise ValueError(
                f"default_tier {self.default_tier!r} has no shed threshold"
            )

    def tier_of(self, tenant: str | None) -> str:
        return self.tenant_tiers.get(tenant or "default", self.default_tier)


def tiers_from_slos(slos: Mapping[str, "object"]) -> dict[str, str]:
    """Map tenant → tier from a :func:`repro.workloads.tenants.slo_targets` dict.

    Each tenant's tier is its SLO class name when that name is a known tier
    (a key of :data:`SLO_CLASSES`); unknown class names fall back to
    ``"standard"`` so custom SLO classes still shed at the middle threshold.
    """
    tiers: dict[str, str] = {}
    for tenant, slo in slos.items():
        name = getattr(slo, "name", str(slo))
        tiers[tenant] = name if name in SLO_CLASSES else "standard"
    return tiers


@dataclass
class _TokenBucket:
    """Per-tenant request-rate limiter (continuous refill, capped at burst)."""

    rate: float
    burst: float
    tokens: float = 0.0
    last_refill: float = 0.0

    def try_take(self, now: float) -> bool:
        elapsed = max(0.0, now - self.last_refill)
        self.tokens = min(self.burst, self.tokens + elapsed * self.rate)
        self.last_refill = now
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return True
        return False


class ControlPlane:
    """Bundles autoscaling and admission policies with their per-run state.

    Pass one as ``ClusterSimulator(control=...)`` (colocated topologies
    only).  Either policy may be ``None``, enabling the other alone.  The
    simulator calls, in order per external arrival: :meth:`autoscale` (one
    scaling decision, cooldown-throttled), then :meth:`admit`; and
    :meth:`note_release` whenever a replica finishes a request.
    """

    def __init__(
        self,
        autoscaler: AutoscalerPolicy | None = None,
        admission: AdmissionPolicy | None = None,
    ) -> None:
        if autoscaler is None and admission is None:
            raise ValueError(
                "ControlPlane requires an autoscaler and/or an admission policy"
            )
        self.autoscaler = autoscaler
        self.admission = admission
        self.reset()

    def reset(self) -> None:
        """Forget one run's mutable state (buckets, counts, cooldown clock)."""
        self._buckets: dict[str, _TokenBucket] = {}
        self._tenant_outstanding: dict[str, int] = {}
        self._last_scale_time: float | None = None

    # ------------------------------------------------------------ autoscaling

    def autoscale(
        self,
        now: float,
        live_count: int,
        warming_count: int,
        outstanding: int,
    ) -> int:
        """One scaling decision: +k replicas, -k replicas, or 0.

        ``outstanding`` is the fleet-wide outstanding-request count over live
        replicas.  Scale-down is suppressed while any replica is warming
        (booting capacity means recent demand; retiring it would flap).
        """
        policy = self.autoscaler
        if policy is None:
            return 0
        if (
            self._last_scale_time is not None
            and now - self._last_scale_time < policy.cooldown_s
        ):
            return 0
        depth = outstanding / max(live_count, 1)
        provisioned = live_count + warming_count
        if depth >= policy.scale_up_queue_depth and provisioned < policy.max_replicas:
            self._last_scale_time = now
            return min(policy.scale_up_step, policy.max_replicas - provisioned)
        if (
            depth <= policy.scale_down_queue_depth
            and warming_count == 0
            and live_count > policy.min_replicas
        ):
            self._last_scale_time = now
            return -min(policy.scale_down_step, live_count - policy.min_replicas)
        return 0

    # --------------------------------------------------------------- admission

    def admit(
        self,
        request: Request,
        now: float,
        live_count: int,
        outstanding: int,
    ) -> str | None:
        """Admission check: ``None`` to admit, else the rejection reason.

        Checks run cheapest-signal-first: fleet pressure against the
        request's tier threshold, the tenant's outstanding cap, then its
        token bucket (only the final check consumes a token, so a request
        shed for pressure never burns rate budget).  An admitted request
        increments its tenant's outstanding count; the simulator pairs that
        with :meth:`note_release` at completion.
        """
        policy = self.admission
        if policy is None:
            self._tenant_outstanding[request.tenant or "default"] = (
                self._tenant_outstanding.get(request.tenant or "default", 0) + 1
            )
            return None
        tenant = request.tenant or "default"
        if policy.max_queue_per_replica is not None:
            capacity = max(live_count, 1) * policy.max_queue_per_replica
            threshold = policy.shed_thresholds[policy.tier_of(request.tenant)]
            if outstanding >= threshold * capacity:
                return SHED_OVERLOAD
        if (
            policy.tenant_queue_cap is not None
            and self._tenant_outstanding.get(tenant, 0) >= policy.tenant_queue_cap
        ):
            return SHED_TENANT_QUEUE
        if policy.tenant_rate_limit_qps is not None:
            bucket = self._buckets.get(tenant)
            if bucket is None:
                bucket = _TokenBucket(
                    rate=policy.tenant_rate_limit_qps,
                    burst=policy.rate_limit_burst,
                    tokens=policy.rate_limit_burst,
                    last_refill=now,
                )
                self._buckets[tenant] = bucket
            if not bucket.try_take(now):
                return SHED_RATE_LIMIT
        self._tenant_outstanding[tenant] = self._tenant_outstanding.get(tenant, 0) + 1
        return None

    def note_release(self, request: Request) -> None:
        """Record that an admitted request left the fleet (finished)."""
        tenant = request.tenant or "default"
        count = self._tenant_outstanding.get(tenant, 0)
        if count > 0:
            self._tenant_outstanding[tenant] = count - 1

    def tier_of(self, tenant: str | None) -> str:
        if self.admission is None:
            return "standard"
        return self.admission.tier_of(tenant)


class FleetState:
    """The elastic fleet's lifecycle and its billing ledger, for one run.

    Replicas are indices into the fleet.  A replica is *warming* from its
    scale-up until its cold start ends (billed, but routed nothing), then
    *live*; a replica chosen for scale-down is *draining* (no new routes)
    until its last request finishes, then *retired*.  Every replica is billed from its
    activation (t=0 for the initial fleet, the scale-up decision for grown
    ones) until it retires or the run ends.  Transitions emit
    ``scaled_up`` / ``drain_started`` / ``scaled_down`` onto ``recorder``.
    """

    def __init__(self, initial: Iterable[int], recorder: EventSink | None = None) -> None:
        self.live: set[int] = set(initial)
        self.warming: dict[int, float] = {}  # replica index -> cold-start end
        self.draining: set[int] = set()
        self.activated_at: dict[int, float] = dict.fromkeys(self.live, 0.0)
        #: Retired replica index -> retirement time (its keys are the retired set).
        self.deactivated_at: dict[int, float] = {}
        self.num_scale_ups = 0
        self.num_scale_downs = 0
        #: Largest concurrently provisioned (live + warming) fleet size.
        self.peak_replicas = len(self.live)
        self._recorder = recorder

    def promote(self, now: float) -> None:
        """Make every warming replica whose cold start has ended by ``now`` live."""
        for index in [i for i, ready_at in self.warming.items() if ready_at <= now]:
            del self.warming[index]
            self.live.add(index)

    def provision(self, index: int, now: float, ready_at: float) -> None:
        """Add replica ``index``, decided at ``now``; it takes traffic from ``ready_at``."""
        if self._recorder is not None:
            self._recorder.emit("scaled_up", time=now, replica_id=index, ready_at=ready_at)
        self.activated_at[index] = now
        self.num_scale_ups += 1
        if ready_at <= now:
            self.live.add(index)
        else:
            self.warming[index] = ready_at
        self.peak_replicas = max(self.peak_replicas, len(self.live) + len(self.warming))

    def drain(self, index: int, now: float, replica: ReplicaRuntime) -> None:
        """Stop routing to live replica ``index``; retire it now if it is idle."""
        self.live.remove(index)
        self.num_scale_downs += 1
        if self._recorder is not None:
            self._recorder.emit("drain_started", time=now, replica_id=index)
        if replica.is_drained:
            self._retire(index, max(now, replica.clock))
        else:
            self.draining.add(index)

    def note_step(self, index: int, replica: ReplicaRuntime) -> None:
        """After replica ``index`` steps: retire it if that step ended its drain.

        It leaves at its local clock, the end of its last iteration.
        """
        if index in self.draining and replica.is_drained:
            self.draining.remove(index)
            self._retire(index, replica.clock)

    def _retire(self, index: int, end: float) -> None:
        self.deactivated_at[index] = end
        if self._recorder is not None:
            self._recorder.emit("scaled_down", time=end, replica_id=index)

    def active_seconds(self, makespan: float) -> dict[int, float]:
        """Replica index -> billed seconds, for a run that ended at ``makespan``."""
        return {
            index: max(0.0, self.deactivated_at.get(index, makespan) - start)
            for index, start in self.activated_at.items()
        }
