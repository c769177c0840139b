"""Cluster simulator: N replica runtimes interleaved under one global clock.

The simulator is an event loop over three event sources — external arrivals,
KV-transfer completions (disaggregated only) and replica iterations — always
advancing whichever is earliest:

1. If the next arrival (or transfer delivery) is due no later than any
   replica's next iteration, it is routed and enqueued first, so routing
   decisions see replica load *as of the arrival time*.
2. Otherwise the replica with the earliest local clock executes one iteration
   via :meth:`ReplicaRuntime.step`; any requests it releases either complete
   (colocated, or decode pool) or spawn a KV transfer to the decode pool
   (disaggregated prefill pool).

Both hot-path decisions are cheap at fleet scale: the earliest replica comes
from a ``(next_ready_time, replica_id)`` heap holding one live entry per
replica, so each event's replica pick is O(log R) however many requests a
replica has queued; and routing loads are read from the replicas' incremental
counters — O(1) per replica, O(R) per arrival — rather than rescanning every
outstanding request in the pool (the ``load-accounting`` invariant checks the
counters against those scans).

With a control plane the simulator executes its decisions at each arrival —
autoscaling, then admission — through a :class:`~repro.cluster.control.FleetState`,
which owns the fleet lifecycle and its billing ledger.

A 1-replica colocated topology is the single-replica serving model itself:
with any router it degenerates to exactly the plain
:meth:`~repro.serving.replica.ReplicaRuntime.run_to_completion` loop, which
the differential oracle in :mod:`repro.verify.oracles` pins on every
scenario.  That equivalence is what makes cluster-level results trustworthy
extrapolations of the single-replica model (the "validate against ground
truth" discipline of CounterPoint).
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field

from repro.cluster.control import FleetState
from repro.cluster.metrics import ClusterMetrics, compute_cluster_metrics
from repro.cluster.router import ReplicaLoad, RouterPolicy, get_router
from repro.serving.attention_backend import share_estimate_caches
from repro.serving.kv_cache import KVCacheStats
from repro.serving.replica import ReplicaRuntime
from repro.serving.request import Request, RequestState


@dataclass
class ClusterResult:
    """Outcome of one cluster simulation.

    ``requests`` are the simulated copies (the caller's request objects are
    never mutated by :meth:`ClusterSimulator.run`).
    """

    metrics: ClusterMetrics
    requests: list[Request] = field(repr=False, default_factory=list)
    assignments: dict[int, int] = field(repr=False, default_factory=dict)
    decode_assignments: dict[int, int] = field(repr=False, default_factory=dict)
    kv_stats: KVCacheStats = field(repr=False, default_factory=KVCacheStats)

    @property
    def makespan(self) -> float:
        return self.metrics.fleet.makespan

    @property
    def requests_per_minute(self) -> float:
        return self.metrics.fleet.requests_per_minute


class ClusterSimulator:
    """Drives a topology's replica fleet over a shared arrival trace.

    Args:
        topology: A ``ColocatedTopology`` or ``DisaggregatedTopology``.
        router: Policy (name or instance) for external arrivals.
        decode_router: Policy for prefill→decode handoffs in disaggregated
            topologies; defaults to a fresh instance of the same policy.
        recorder: Optional shared :class:`repro.verify.events.EventRecorder`;
            every replica emits its events onto it (tagged by ``replica_id``)
            and the cluster adds routing / KV-transfer events.  ``None``
            (default) records nothing and costs nothing.  The recorder holds
            the *latest* run's events: ``run()`` clears it on entry, just as
            it rebuilds a used fleet (keep per-run recorders and
            ``merge_events`` to retain multiple streams).
        control: Optional :class:`repro.cluster.control.ControlPlane`
            (colocated topologies only).  Adds autoscaling (replicas join
            after a cold start, leave by draining) and admission control
            (shed requests become ``REJECTED`` instead of routing).  ``None``
            (default) preserves the static-fleet behaviour exactly.
    """

    def __init__(
        self,
        topology,
        router: str | RouterPolicy = "round-robin",
        decode_router: str | RouterPolicy | None = None,
        recorder=None,
        control=None,
    ) -> None:
        self.topology = topology
        if control is not None and topology.kind != "colocated":
            raise ValueError(
                "the control plane supports colocated topologies only "
                "(disaggregated pools would need per-pool scaling policies)"
            )
        self.control = control
        if recorder is not None:
            # Lazy import: repro.verify imports this module at package init.
            from repro.verify.events import as_sink

            recorder = as_sink(recorder)
        self.recorder = recorder
        self.replicas = topology.build_replicas(recorder=recorder)
        self.router = get_router(router) if isinstance(router, str) else router
        if decode_router is None:
            # Fresh instance of the same policy class, so custom (unregistered)
            # router implementations work and routing state is not shared.
            self.decode_router = type(self.router)()
        else:
            self.decode_router = (
                get_router(decode_router) if isinstance(decode_router, str) else decode_router
            )
        self._prefill_ids = (
            set(topology.entry_indices) if topology.kind == "disaggregated" else set()
        )
        #: replica id → (cost USD/hour, relative throughput proxy), lazily
        #: filled per replica (the fleet can grow mid-run).
        self._economics: dict[int, tuple[float, float]] = {}

    # ------------------------------------------------------------- loads

    def _replica_economics(self, index: int) -> tuple[float, float]:
        """(USD/hour, perf proxy) of replica ``index``; best-effort.

        Cost comes from the topology's per-replica spec; a fleet whose GPU
        has no price (custom/scaled specs without explicit rates) reads as
        cost 0.0, which every consumer treats as "unpriced/uniform".  The
        perf proxy is the replica's aggregate tensor throughput in PFLOP/s —
        only ratios matter, so any fixed unit works.
        """
        cached = self._economics.get(index)
        if cached is not None:
            return cached
        spec_for = getattr(self.topology, "spec_for", None)
        cost = 0.0
        perf = 1.0
        if spec_for is not None:
            spec = spec_for(index)
            deployment = spec.deployment
            perf = deployment.gpu.tensor_flops * deployment.tensor_parallel / 1e15
            try:
                cost = spec.cost_per_hour
            except ValueError:
                cost = 0.0  # no rate known for this GPU: treat as unpriced
        self._economics[index] = (cost, perf)
        return cost, perf

    def _loads(self, indices: list[int], router: RouterPolicy) -> list[ReplicaLoad]:
        if not router.needs_loads:
            # State-oblivious policies (round-robin) only need the pool size;
            # skip the load snapshot entirely.
            return [ReplicaLoad.zero(index) for index in indices]
        loads = []
        for index in indices:
            replica = self.replicas[index]
            cost, perf = self._replica_economics(index)
            loads.append(
                ReplicaLoad(
                    replica_id=index,
                    num_requests=replica.load_num_requests,
                    outstanding_tokens=replica.load_total_tokens,
                    outstanding_prefill_tokens=replica.load_prefill_tokens,
                    cost_per_hour=cost,
                    perf_weight=perf,
                )
            )
        return loads

    # ----------------------------------------------------------- control

    def _control_arrival(self, request: Request, fleet: FleetState) -> list[int] | None:
        """Run the control plane for one arrival: one scaling decision, then admission.

        Returns the live replicas to route ``request`` among, or ``None`` when
        admission control shed it.
        """
        control = self.control
        now = request.arrival_time
        fleet.promote(now)
        outstanding = sum(self.replicas[i].load_num_requests for i in fleet.live)
        decision = control.autoscale(now, len(fleet.live), len(fleet.warming), outstanding)
        if decision > 0:
            ready_at = now + control.autoscaler.cold_start_s
            for _ in range(decision):
                index = len(self.replicas)
                self.replicas.append(self.topology.build_replica(index, recorder=self.recorder))
                fleet.provision(index, now, ready_at)
            # New backends adopt the fleet's warmed memo.
            share_estimate_caches(replica.backend for replica in self.replicas)
        for _ in range(-decision):
            # Drain the least-loaded live replica (lowest index on ties).
            victim = min(fleet.live, key=lambda i: (self.replicas[i].load_num_requests, i))
            fleet.drain(victim, now, self.replicas[victim])
        reason = control.admit(request, now, len(fleet.live), outstanding)
        if reason is None:
            return sorted(fleet.live)
        if self.recorder is not None:
            self.recorder.emit(
                "rejected",
                time=now,
                request_id=request.request_id,
                reason=reason,
                tenant=request.tenant or "default",
                tier=control.tier_of(request.tenant),
            )
        request.reject(now)
        return None

    # --------------------------------------------------------------- run

    def run(self, requests: list[Request]) -> ClusterResult:
        """Serve ``requests`` across the fleet and return cluster metrics.

        The caller's request objects are never mutated: the simulation runs
        on fresh copies, which the returned :class:`ClusterResult` carries.
        """
        if not requests:
            raise ValueError("run() requires at least one request")
        if self.recorder is not None:
            # The recorder describes one run; stale events from a previous
            # trace would read as duplicate lifecycles to the invariant checker.
            self.recorder.clear()
        if (
            any(replica.steps_executed for replica in self.replicas)
            or len(self.replicas) != self.topology.num_replicas
        ):
            # A used fleet carries clocks/counters from the previous trace
            # (and may have been grown by the autoscaler); rebuild so repeated
            # run() calls start from a clean cluster.
            self.replicas = self.topology.build_replicas(recorder=self.recorder)
        self.router.reset()
        self.decode_router.reset()
        self._economics.clear()
        requests = [request.fresh_copy() for request in requests]
        arrivals = sorted(requests, key=lambda r: (r.arrival_time, r.request_id))
        arrival_index = 0
        transfers: list[tuple[float, int, Request]] = []  # (ready_time, seq, request) heap
        transfer_seq = 0
        num_transfers = 0
        total_transfer_time = 0.0
        assignments: dict[int, int] = {}
        decode_assignments: dict[int, int] = {}
        entry_indices = self.topology.entry_indices
        decode_indices = self.topology.decode_indices
        disaggregated = self.topology.kind == "disaggregated"

        control = self.control
        fleet = None
        if control is not None:
            control.reset()
            fleet = FleetState(entry_indices, self.recorder)

        # Ready-time heap over the fleet with one live entry per replica;
        # queued maps a replica id to its live entry's time.  Work only pulls
        # a replica's ready time earlier, so an enqueue pushes only when it
        # does, and the entry it supersedes is dropped when it surfaces.  A
        # step only moves the time later, so the stepped replica's entry
        # stays in place and is refreshed when it next surfaces.  Picking the
        # next replica is O(log R) however many requests each replica holds.
        ready_heap: list[tuple[float, int]] = []
        queued: dict[int, float] = {}

        def push_ready(replica: ReplicaRuntime) -> None:
            ready = replica.next_ready_time()
            replica_id = replica.replica_id
            if ready is not None and ready < queued.get(replica_id, math.inf):
                queued[replica_id] = ready
                heapq.heappush(ready_heap, (ready, replica_id))

        while True:
            next_step_time = None
            next_replica_id = -1
            while ready_heap:
                ready, replica_id = ready_heap[0]
                if ready != queued.get(replica_id):
                    heapq.heappop(ready_heap)  # superseded by an earlier push
                    continue
                actual = self.replicas[replica_id].next_ready_time()
                if actual is None:
                    heapq.heappop(ready_heap)  # drained
                    del queued[replica_id]
                elif actual != ready:
                    # Stale: the replica stepped since this entry was timed.
                    heapq.heapreplace(ready_heap, (actual, replica_id))
                    queued[replica_id] = actual
                else:
                    next_step_time = ready
                    next_replica_id = replica_id
                    break

            next_arrival = (
                arrivals[arrival_index].arrival_time if arrival_index < len(arrivals) else None
            )
            next_transfer = transfers[0][0] if transfers else None

            # Deliver the earliest due arrival/transfer before stepping any
            # replica, so routers see load as of the event time.
            deliver_arrival = next_arrival is not None and (
                next_transfer is None or next_arrival <= next_transfer
            )
            deliver_time = next_arrival if deliver_arrival else next_transfer
            if deliver_time is not None and (
                next_step_time is None or deliver_time <= next_step_time
            ):
                if deliver_arrival:
                    request = arrivals[arrival_index]
                    arrival_index += 1
                    candidates = entry_indices
                    if fleet is not None:
                        candidates = self._control_arrival(request, fleet)
                        if candidates is None:
                            continue  # shed by admission control
                    loads = self._loads(candidates, self.router)
                    choice = self.router.choose(loads, request)
                    target = candidates[choice]
                    if self.recorder is not None:
                        self.recorder.emit(
                            "routed",
                            time=request.arrival_time,
                            replica_id=target,
                            request_id=request.request_id,
                            router=self.router.name,
                            load_requests=loads[choice].num_requests,
                            load_tokens=loads[choice].outstanding_tokens,
                            load_prefill_tokens=loads[choice].outstanding_prefill_tokens,
                            cost_per_hour=loads[choice].cost_per_hour,
                        )
                    self.replicas[target].enqueue(request)
                    assignments[request.request_id] = target
                    push_ready(self.replicas[target])
                else:
                    ready_time, _, request = heapq.heappop(transfers)
                    choice = self.decode_router.choose(
                        self._loads(decode_indices, self.decode_router), request
                    )
                    target = decode_indices[choice]
                    if self.recorder is not None:
                        self.recorder.emit(
                            "transfer_delivered",
                            time=ready_time,
                            replica_id=target,
                            request_id=request.request_id,
                        )
                    self.replicas[target].enqueue(request, ready_time=ready_time)
                    decode_assignments[request.request_id] = target
                    push_ready(self.replicas[target])
                continue

            if next_replica_id < 0:
                break  # every queue is drained
            # The validated entry stays in the heap; the step makes it stale.
            next_replica = self.replicas[next_replica_id]
            outcome = next_replica.step()
            if fleet is not None:
                for released in outcome.released:
                    control.note_release(released)
                fleet.note_step(next_replica_id, next_replica)
            if disaggregated and next_replica.replica_id in self._prefill_ids:
                for request in outcome.released:
                    if request.state == RequestState.FINISHED:
                        continue  # single-token outputs finish in the prefill pool
                    delay = self.topology.transfer.transfer_time(
                        next_replica.deployment, request.context_tokens
                    )
                    num_transfers += 1
                    total_transfer_time += delay
                    transfer_seq += 1
                    if self.recorder is not None:
                        self.recorder.emit(
                            "transfer_start",
                            time=next_replica.clock,
                            replica_id=next_replica.replica_id,
                            request_id=request.request_id,
                            delay=delay,
                            context_tokens=request.context_tokens,
                        )
                    heapq.heappush(
                        transfers, (next_replica.clock + delay, transfer_seq, request)
                    )

        unfinished = [r for r in requests if not r.is_terminal]
        if unfinished:
            raise RuntimeError(
                f"cluster drained with {len(unfinished)} unfinished requests "
                f"(first: {unfinished[0].request_id})"
            )

        makespan = max(replica.clock for replica in self.replicas)
        replica_costs = {
            replica.replica_id: self._replica_economics(replica.replica_id)[0]
            for replica in self.replicas
        }
        metrics = compute_cluster_metrics(
            requests,
            self.replicas,
            makespan=makespan,
            topology=self.topology.kind,
            router=self.router.name,
            num_kv_transfers=num_transfers,
            total_kv_transfer_time=total_transfer_time,
            replica_costs=replica_costs,
            fleet=fleet,
        )
        kv_stats = KVCacheStats()
        for replica in self.replicas:
            kv_stats = kv_stats.merge(replica.kv_cache.stats)
        return ClusterResult(
            metrics=metrics,
            requests=requests,
            assignments=assignments,
            decode_assignments=decode_assignments,
            kv_stats=kv_stats,
        )

    def run_scenario(
        self,
        name: str,
        num_requests: int | None = None,
        seed: int = 0,
        qps: float | None = None,
        overrides=None,
    ) -> ClusterResult:
        """Build a registered workload scenario and serve it across the fleet.

        Thin delegate to :func:`repro.workloads.scenario.run_scenario` (the
        shared entry point) with this simulator's fleet governing; pass
        ``qps`` scaled to the fleet size to keep per-replica pressure
        constant, and ``overrides`` to replace scenario fields before the
        trace is built.
        """
        from repro.workloads.scenario import run_scenario

        return run_scenario(
            name,
            simulator=self,
            num_requests=num_requests,
            seed=seed,
            qps=qps,
            overrides=overrides,
        )
