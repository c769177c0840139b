"""Cluster topologies: colocated hybrid replicas vs disaggregated P/D pools.

A topology knows how to build the fleet of :class:`ReplicaRuntime` objects the
:class:`~repro.cluster.simulator.ClusterSimulator` interleaves, and which
replicas receive external arrivals:

* :class:`ColocatedTopology` — N identical replicas, each running the paper's
  hybrid-batch serving stack (Sarathi scheduling + POD attention by default).
  Every replica is an entry point; a request lives on one replica end-to-end.
* :class:`DisaggregatedTopology` — the prefill/decode-disaggregation
  alternative (Splitwise/DistServe-style): arrivals go to a prefill pool that
  only processes prompts; once a request's first token is out, its KV cache is
  shipped to a decode replica over a modelled link and generation continues
  there.  At equal replica count this trades POD's intra-GPU overlap for
  inter-pool specialization plus a KV-transfer cost.

A fleet has one serving engine per deployment: each ``build_replicas`` call
runs ``backend_builder`` once per distinct
:class:`~repro.models.config.Deployment`, builds one
:class:`~repro.serving.engine.InferenceEngine` on that backend, and hands the
engine, with the backend's prefill and decode memos and the linear-operator
memo, to every replica of the deployment, the replicas the autoscaler adds
through ``build_replica`` included.  Every memo entry is a pure function of
the deployment and its key, so sharing changes no result; each fleet built
starts with empty memos, so no two fleets share one.
:func:`topology_from_spec` builds either topology from a
:class:`~repro.models.config.ClusterSpec`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.models.config import ClusterSpec, Deployment, KVTransferModel, ReplicaSpec
from repro.serving.attention_backend import AttentionBackend, PODBackend, get_backend
from repro.serving.batch import ScheduledBatch
from repro.serving.engine import InferenceEngine
from repro.serving.kv_cache import KVCacheConfig, KVCacheManager
from repro.serving.replica import ReplicaRuntime
from repro.serving.request import Request
from repro.serving.scheduler import Scheduler
from repro.serving.scheduler_sarathi import SarathiScheduler
from repro.utils.validation import check_positive


class PrefillPoolScheduler(SarathiScheduler):
    """Chunked-prefill scheduler for a prefill-pool replica.

    Identical batching to Sarathi, but reserves KV for the prompt plus one
    token only — the request leaves for the decode pool at first token, so
    reserving its full decode length would waste prefill-pool memory.
    """

    name = "PrefillPool"

    def reserve_tokens(self, request: Request) -> int:
        return request.prefill_tokens + 1


class DecodePoolScheduler(Scheduler):
    """Decode-pool scheduler: admits transferred requests, batches every decode.

    Requests arrive already prefilled (state ``DECODING``) with their KV cache
    shipped in; admission reserves the full final context so the request can
    always grow to completion, then every running request generates one token
    per iteration — there is never prefill work in this pool.
    """

    name = "DecodePool"

    def schedule(
        self,
        waiting: list[Request],
        running: list[Request],
        kv_cache: KVCacheManager,
        now: float,
    ) -> ScheduledBatch:
        batch = ScheduledBatch()
        admissions = 0
        while (
            admissions < len(waiting)
            and admissions < self.limits.max_admissions_per_step
            and len(running) < self.limits.max_batch_size
        ):
            request = waiting[admissions]
            if not kv_cache.can_allocate(request.request_id, request.total_tokens):
                break
            kv_cache.allocate(request.request_id, request.total_tokens)
            running.append(request)
            admissions += 1
        if admissions:
            del waiting[:admissions]
        batch.decode_requests.extend(self.decoding_requests(running)[: self.limits.max_batch_size])
        return batch


class _SharedEngines:
    """A fleet's serving engines, one per deployment (module docstring);
    ``build_replicas`` empties ``_engines`` for each fleet it builds."""

    backend_builder: Callable[[Deployment], AttentionBackend] | None
    _engines: dict[Deployment, InferenceEngine]

    def _engine(self, deployment: Deployment) -> InferenceEngine:
        engine = self._engines.get(deployment)
        if engine is None:
            backend = (self.backend_builder or PODBackend)(deployment)
            engine = self._engines[deployment] = InferenceEngine(backend)
        return engine


def _fleet_specs(
    deployment: Deployment, num_replicas: int, replica_specs: tuple[ReplicaSpec, ...]
) -> tuple[ReplicaSpec, ...]:
    """One spec per replica: ``replica_specs``, or ``num_replicas`` default-priced
    specs of ``deployment`` when none are given."""
    if not replica_specs:
        return (ReplicaSpec(deployment=deployment),) * num_replicas
    replica_specs = tuple(replica_specs)
    if len(replica_specs) != num_replicas:
        raise ValueError(
            f"replica_specs has {len(replica_specs)} entries for {num_replicas} replicas"
        )
    return replica_specs


@dataclass
class ColocatedTopology(_SharedEngines):
    """N hybrid replicas behind one router (the POD serving model).

    Homogeneous by default: ``(deployment, num_replicas)`` expands into
    ``num_replicas`` specs of ``deployment`` at default pricing.  Pass
    ``replica_specs`` (one :class:`~repro.models.config.ReplicaSpec` per
    replica) for a heterogeneous fleet.  ``backend_builder`` builds a
    backend *for a given deployment* (default:
    :class:`~repro.serving.attention_backend.PODBackend`); it runs once per
    deployment of each fleet built, and every replica of that deployment
    shares the engine built on that backend.
    """

    deployment: Deployment
    num_replicas: int
    scheduler_factory: Callable[[], Scheduler] | None = None
    kv_config: KVCacheConfig | None = None
    replica_specs: tuple[ReplicaSpec, ...] = ()
    backend_builder: Callable[[Deployment], AttentionBackend] | None = None

    kind = "colocated"

    def __post_init__(self) -> None:
        check_positive("num_replicas", self.num_replicas)
        self._engines = {}
        self.replica_specs = _fleet_specs(self.deployment, self.num_replicas, self.replica_specs)

    def spec_for(self, replica_id: int) -> ReplicaSpec:
        """The spec of replica ``replica_id``; autoscaled extras (ids past the
        initial fleet) reuse :meth:`scale_up_spec`."""
        if replica_id < len(self.replica_specs):
            return self.replica_specs[replica_id]
        return self.scale_up_spec()

    def deployment_for(self, replica_id: int) -> Deployment:
        return self.spec_for(replica_id).deployment

    def scale_up_spec(self) -> ReplicaSpec:
        """The spec a new autoscaled replica uses: the cheapest eligible one.

        The autoscaler provisions marginal capacity, so it picks the lowest
        :attr:`~repro.models.config.ReplicaSpec.billed_per_hour` spec present
        in the fleet (ties fall to the lowest replica index).
        """
        return min(self.replica_specs, key=lambda spec: spec.billed_per_hour)

    def build_replica(self, replica_id: int, recorder=None) -> ReplicaRuntime:
        """Build one hybrid replica (also the autoscaler's scale-up path) on
        the fleet's engine for its deployment."""
        make_scheduler = self.scheduler_factory or SarathiScheduler
        deployment = self.deployment_for(replica_id)
        return ReplicaRuntime(
            deployment,
            scheduler=make_scheduler(),
            engine=self._engine(deployment),
            kv_config=self.kv_config,
            replica_id=replica_id,
            role="hybrid",
            recorder=recorder,
        )

    def build_replicas(self, recorder=None) -> list[ReplicaRuntime]:
        """Build a fleet, with fresh engines."""
        self._engines = {}
        return [self.build_replica(index, recorder=recorder) for index in range(self.num_replicas)]

    @property
    def entry_indices(self) -> list[int]:
        """Replicas that receive external arrivals (all of them)."""
        return list(range(self.num_replicas))

    @property
    def decode_indices(self) -> list[int]:
        return []


@dataclass
class DisaggregatedTopology(_SharedEngines):
    """Separate prefill and decode pools joined by a KV-transfer link.

    Heterogeneous fleets assign ``replica_specs`` in fleet order: the first
    ``num_prefill`` specs form the prefill pool, the rest the decode pool
    (matching :attr:`ClusterSpec.resolved_prefill_replicas` semantics);
    without them every replica runs ``deployment``, as in
    :class:`ColocatedTopology`.  Both pools share the fleet's engine per
    deployment, and every replica schedules under the default
    :class:`~repro.serving.scheduler.SchedulerLimits`.
    """

    deployment: Deployment
    num_prefill: int
    num_decode: int
    chunk_size: int = 1024
    transfer: KVTransferModel = field(default_factory=KVTransferModel)
    kv_config: KVCacheConfig | None = None
    replica_specs: tuple[ReplicaSpec, ...] = ()
    backend_builder: Callable[[Deployment], AttentionBackend] | None = None

    kind = "disaggregated"

    def __post_init__(self) -> None:
        check_positive("num_prefill", self.num_prefill)
        check_positive("num_decode", self.num_decode)
        check_positive("chunk_size", self.chunk_size)
        self.replica_specs = _fleet_specs(self.deployment, self.num_replicas, self.replica_specs)

    @property
    def num_replicas(self) -> int:
        return self.num_prefill + self.num_decode

    def spec_for(self, replica_id: int) -> ReplicaSpec:
        return self.replica_specs[replica_id]

    def deployment_for(self, replica_id: int) -> Deployment:
        return self.spec_for(replica_id).deployment

    def build_replicas(self, recorder=None) -> list[ReplicaRuntime]:
        """Build a fleet, with fresh engines."""
        self._engines = {}
        replicas = [
            ReplicaRuntime(
                self.deployment_for(index),
                scheduler=PrefillPoolScheduler(chunk_size=self.chunk_size),
                engine=self._engine(self.deployment_for(index)),
                kv_config=self.kv_config,
                release_on="first_token",
                replica_id=index,
                role="prefill",
                recorder=recorder,
            )
            for index in range(self.num_prefill)
        ]
        replicas.extend(
            ReplicaRuntime(
                self.deployment_for(self.num_prefill + index),
                scheduler=DecodePoolScheduler(),
                engine=self._engine(self.deployment_for(self.num_prefill + index)),
                kv_config=self.kv_config,
                replica_id=self.num_prefill + index,
                role="decode",
                recorder=recorder,
            )
            for index in range(self.num_decode)
        )
        return replicas

    @property
    def entry_indices(self) -> list[int]:
        """External arrivals land on the prefill pool."""
        return list(range(self.num_prefill))

    @property
    def decode_indices(self) -> list[int]:
        return list(range(self.num_prefill, self.num_prefill + self.num_decode))


def topology_from_spec(
    spec: ClusterSpec,
    chunk_size: int = 1024,
    backend: str = "pod",
):
    """Build a topology object from a :class:`repro.models.config.ClusterSpec`.

    Heterogeneous specs (``spec.replicas``) thread their per-replica
    deployments through as ``replica_specs``; the topology's ``deployment``
    field then holds the first replica's deployment as a representative (for
    legacy consumers) while each replica is built on its own hardware.
    """
    make_backend = lambda deployment: get_backend(backend, deployment)  # noqa: E731
    replica_specs: tuple[ReplicaSpec, ...] = spec.replicas if spec.replicas else ()
    representative = spec.deployment or spec.resolved_replicas[0].deployment
    if spec.topology == "colocated":
        return ColocatedTopology(
            deployment=representative,
            num_replicas=spec.num_replicas,
            scheduler_factory=lambda: SarathiScheduler(chunk_size=chunk_size),
            replica_specs=replica_specs,
            backend_builder=make_backend,
        )
    return DisaggregatedTopology(
        deployment=representative,
        num_prefill=spec.resolved_prefill_replicas,
        num_decode=spec.resolved_decode_replicas,
        chunk_size=chunk_size,
        transfer=spec.transfer,
        replica_specs=replica_specs,
        backend_builder=make_backend,
    )
