"""Tests for the serving backends' exact per-step attention estimates.

A step's estimate comes from closed-form decode sums and per-backend prefill
memos keyed on ``(chunk_tokens, prior_tokens)``, and a fleet holds one
serving engine, on one backend, per deployment; the oracle
``estimate_equivalence`` (tests/test_verify_oracles.py) holds every step of
every registry scenario to the row-summing reference.  This file pins the
bug the old quantized memo had, bounds the closed-form work a fleet's steps
may do by counting calls, so the bound carries no timing noise, and pins the
one engine per deployment.
"""

from __future__ import annotations

import csv
import dataclasses
import re
from collections import Counter, defaultdict

import pytest

from repro.attention import analytic, cost_model
from repro.cluster import (
    AutoscalerPolicy,
    ClusterSimulator,
    ColocatedTopology,
    ControlPlane,
    DisaggregatedTopology,
    topology_from_spec,
)
from repro.gpu.config import get_gpu
from repro.models.config import (
    ClusterSpec,
    ReplicaSpec,
    paper_deployment,
    replica_specs_from_mix,
)
from repro.models.linear_ops import LinearOpCostModel
from repro.planner import PlannerConfig, capacity_plan
from repro.serving.attention_backend import FASerialBackend, PODBackend
from repro.serving.batch import ScheduledBatch
from repro.serving.engine import InferenceEngine
from repro.serving.replica import ReplicaRuntime
from repro.serving.request import Request
from repro.serving.scheduler_sarathi import SarathiScheduler
from repro.workloads import build_scenario


def _prefill_item(tokens: int) -> tuple[Request, int]:
    return Request(request_id=0, prefill_tokens=tokens, decode_tokens=8), tokens


def _decode(context_tokens: int) -> Request:
    """A decoding request: its prompt plus the first token, emitted by the prefill."""
    request = Request(request_id=1, prefill_tokens=context_tokens - 1, decode_tokens=8)
    request.advance_prefill(context_tokens - 1, now=0.0)
    return request


def _track_steps(monkeypatch) -> list[ReplicaRuntime]:
    """Shim ``ReplicaRuntime.step`` so that the returned list's last entry is
    the replica whose step is running: the replicas of a deployment share one
    engine, so an ``execute`` call does not name its replica."""
    stepping: list[ReplicaRuntime] = []
    step = ReplicaRuntime.step

    def tracked_step(replica):
        stepping.append(replica)
        try:
            return step(replica)
        finally:
            stepping.pop()

    monkeypatch.setattr(ReplicaRuntime, "step", tracked_step)
    return stepping


class TestExactEstimates:
    def test_hybrid_after_prefill_only_has_decode_time(self, llama3_deployment):
        """The quantized memo once served a hybrid batch with one short decode
        the cached estimate of a prefill-only batch (``decode_time == 0``)."""
        backend = PODBackend(llama3_deployment)
        backend.estimate(ScheduledBatch(prefill_items=[_prefill_item(1024)]))
        hybrid = ScheduledBatch(prefill_items=[_prefill_item(1024)], decode_requests=[_decode(100)])
        assert hybrid.to_hybrid_batch().decodes[0].context_tokens == 100
        assert backend.estimate(hybrid).decode_time > 0.0


class TestClosedFormWork:
    def test_work_per_step_is_bounded(self, llama3_deployment, monkeypatch):
        """Counts, per fleet, the closed-form work a fleet's steps do.

        A step reads its decode side from three sums (no per-decode rows),
        builds each prefill chunk's aggregates once per fleet (FA tile plus
        at most the two POD tiles), probes occupancy only when the fleet's
        one backend is built, and evaluates the linear operators once per
        token count per deployment.  The run repeats chunks, on one replica
        and across both, so a step that rebuilt a chunk the fleet had already
        built (a lost prefill memo, or a memo per replica) fails the
        once-per-key count.
        """
        calls: Counter = Counter()
        pairs: defaultdict[object, set] = defaultdict(set)
        chunks_seen: Counter = Counter()
        builds: Counter = Counter()
        token_counts: defaultdict[int, set] = defaultdict(set)
        layer_calls: Counter = Counter()

        def counted(name, function):
            def shim(*args, **kwargs):
                calls[name] += 1
                return function(*args, **kwargs)

            return shim

        prefill_rows = cost_model._prefill_rows

        def counted_prefill_rows(deployment, chunk, tile, num_splits):
            builds[chunk, tile, num_splits] += 1
            return prefill_rows(deployment, chunk, tile, num_splits)

        execute = InferenceEngine.execute
        stepping = _track_steps(monkeypatch)

        def tracked_execute(engine, batch):
            pairs[stepping[-1]].update(
                (tokens, request.prefill_done_tokens) for request, tokens in batch.prefill_items
            )
            chunks_seen[stepping[-1]] += len(batch.prefill_items)
            token_counts[id(engine.iteration_model.linear_model)].add(batch.total_tokens)
            return execute(engine, batch)

        layer_breakdown = LinearOpCostModel.layer_breakdown

        def counted_layer_breakdown(model, num_tokens):
            layer_calls[id(model), num_tokens] += 1
            return layer_breakdown(model, num_tokens)

        monkeypatch.setattr(InferenceEngine, "execute", tracked_execute)
        monkeypatch.setattr(LinearOpCostModel, "layer_breakdown", counted_layer_breakdown)
        monkeypatch.setattr(cost_model, "_prefill_rows", counted_prefill_rows)
        for module, name in (
            (cost_model, "_decode_rows"),
            (analytic, "_occupancy_for"),
        ):
            monkeypatch.setattr(module, name, counted(name, getattr(module, name)))

        topology = ColocatedTopology(
            llama3_deployment,
            num_replicas=2,
            scheduler_factory=lambda: SarathiScheduler(chunk_size=1024),
            backend_builder=PODBackend,
        )
        simulator = ClusterSimulator(topology, router="least-tokens")
        simulator.run(build_scenario("arxiv-summarization", num_requests=16, seed=0))

        replicas = simulator.replicas
        assert all(pairs[replica] for replica in replicas)
        fleet_pairs = set().union(*pairs.values())
        assert set.intersection(*(pairs[replica] for replica in replicas))
        assert sum(chunks_seen.values()) > len(fleet_pairs)
        assert calls["_decode_rows"] == 0
        assert set(builds.values()) == {1}
        assert len(builds) <= 3 * len(fleet_pairs)
        assert calls["_occupancy_for"] <= 2
        assert set(layer_calls.values()) == {1}
        assert set(layer_calls) == {
            (model, tokens) for model, counts in token_counts.items() for tokens in counts
        }


#: Figure 21's mixed fleet: spot A6000s beside on-demand A100s.
_MIXED = "a100:1+a6000:1~"


def _mixed_specs():
    """Four replicas tiled as in Figure 21: A100, A6000, A100, A6000."""
    pattern = replica_specs_from_mix(_MIXED)
    return tuple(pattern[index % len(pattern)] for index in range(4))


def _fleet(deployment, kind: str) -> ClusterSimulator:
    """Four replicas on one deployment: colocated, autoscaled from two, or 2 + 2 pools."""
    if kind == "disaggregated":
        return ClusterSimulator(
            DisaggregatedTopology(deployment, num_prefill=2, num_decode=2), router="least-tokens"
        )
    if kind == "colocated":
        return ClusterSimulator(
            ColocatedTopology(deployment, num_replicas=4), router="prefill-aware"
        )
    autoscaler = AutoscalerPolicy(
        min_replicas=2, max_replicas=4, scale_up_queue_depth=2.0, cold_start_s=1.0, cooldown_s=2.0
    )
    return ClusterSimulator(
        ColocatedTopology(deployment, num_replicas=2),
        router="least-tokens",
        control=ControlPlane(autoscaler=autoscaler),
    )


class TestOneCostModelPerDeployment:
    """A topology builds one engine, on one backend, per deployment for the
    fleet it builds, and every replica of that deployment shares its memos."""

    @pytest.mark.parametrize("kind", ["colocated", "autoscaled", "disaggregated"])
    def test_fleet_builds_each_prefill_key_once(self, llama3_deployment, monkeypatch, kind):
        """Each FA ``(chunk, prior)`` key and each POD ``(chunk, prior, ctas)``
        key is built once per fleet, though several replicas prefill it."""
        builds: Counter = Counter()
        prefilled: defaultdict[object, set] = defaultdict(set)
        prefill_rows = cost_model._prefill_rows

        def counted_prefill_rows(deployment, chunk, tile, num_splits):
            builds[chunk.chunk_tokens, chunk.prior_tokens, tile, num_splits] += 1
            return prefill_rows(deployment, chunk, tile, num_splits)

        execute = InferenceEngine.execute
        stepping = _track_steps(monkeypatch)

        def tracked_execute(engine, batch):
            for request, tokens in batch.prefill_items:
                prefilled[tokens, request.prefill_done_tokens].add(stepping[-1])
            return execute(engine, batch)

        monkeypatch.setattr(cost_model, "_prefill_rows", counted_prefill_rows)
        monkeypatch.setattr(InferenceEngine, "execute", tracked_execute)
        simulator = _fleet(llama3_deployment, kind)
        simulator.run(build_scenario("arxiv-summarization", num_requests=32, seed=0, qps=8.0))

        assert len(simulator.replicas) == 4
        assert any(len(replicas) > 1 for replicas in prefilled.values())
        assert builds and set(builds.values()) == {1}
        assert len({id(replica.engine.backend) for replica in simulator.replicas}) == 1

    @pytest.mark.parametrize("kind", ["colocated", "mixed"])
    def test_fleet_prices_each_token_count_once_per_deployment(
        self, llama3_deployment, monkeypatch, kind
    ):
        """Four colocated replicas on one deployment, and the mixed A100 +
        A6000 fleet, hold one engine per deployment, so the linear operators
        of a token count are evaluated once per deployment, though several
        replicas run batches of that many tokens."""
        calls: Counter = Counter()
        layer_breakdown = LinearOpCostModel.layer_breakdown

        def counted_layer_breakdown(model, num_tokens):
            calls[model.deployment, num_tokens] += 1
            return layer_breakdown(model, num_tokens)

        monkeypatch.setattr(LinearOpCostModel, "layer_breakdown", counted_layer_breakdown)
        if kind == "colocated":
            simulator = _fleet(llama3_deployment, "colocated")
        else:
            simulator = ClusterSimulator(
                topology_from_spec(ClusterSpec(replicas=_mixed_specs())), router="least-tokens"
            )
        simulator.run(build_scenario("arxiv-summarization", num_requests=32, seed=0, qps=8.0))

        engines = {replica.deployment: replica.engine for replica in simulator.replicas}
        assert len(engines) == (1 if kind == "colocated" else 2)
        for replica in simulator.replicas:
            assert replica.engine is engines[replica.deployment]
        assert {deployment for deployment, _ in calls} == set(engines)
        assert set(calls.values()) == {1}

    def test_engine_for_another_deployment_is_refused(self, llama3_deployment):
        a6000 = paper_deployment("llama-3-8b", gpu=get_gpu("a6000"))
        engine = InferenceEngine(PODBackend(a6000))
        message = (
            "replica 3 serves Llama-3-8B on 2 x A100-SXM4-80GB, but its engine was built "
            "for another deployment, Llama-3-8B on 2 x RTX-A6000"
        )
        with pytest.raises(ValueError, match=re.escape(message)):
            ReplicaRuntime(llama3_deployment, engine=engine, replica_id=3)

    def test_each_fleet_starts_with_empty_memos(self, llama3_deployment):
        topology = ColocatedTopology(llama3_deployment, num_replicas=2)
        first, second = ClusterSimulator(topology), ClusterSimulator(topology)
        assert first.replicas[0].engine is first.replicas[1].engine
        assert first.replicas[0].engine is not second.replicas[0].engine

    def test_heterogeneous_fleet_has_one_cost_model_per_deployment(self):
        """Replicas tiled as in Figure 21 (A100, A6000, A100, A6000) share
        two engines, each built for its own GPU."""
        specs = _mixed_specs()
        replicas = topology_from_spec(ClusterSpec(replicas=specs)).build_replicas()
        assert len({id(replica.engine) for replica in replicas}) == 2
        for replica, spec in zip(replicas, specs):
            assert replica.engine.backend.deployment == replica.deployment == spec.deployment

    def test_engine_reads_its_deployment_from_the_backend(self, llama3_deployment):
        """An engine prices iterations on its backend's deployment; a runtime
        given none builds its own, on an ``FASerialBackend``."""
        a6000 = paper_deployment("llama-3-8b", gpu=get_gpu("a6000"))
        engine = InferenceEngine(PODBackend(a6000))
        assert engine.iteration_model.deployment is a6000
        assert ReplicaRuntime(a6000, engine=engine).engine is engine
        default = ReplicaRuntime(llama3_deployment)
        assert isinstance(default.engine.backend, FASerialBackend)
        assert default.engine.backend.deployment is llama3_deployment
        assert ReplicaRuntime(llama3_deployment).engine is not default.engine

    def test_equal_deployments_share_one_engine(self, llama3_deployment):
        """A fleet keys its engines by the deployment's value: replicas
        described by equal but distinct deployment objects share one."""
        twin = dataclasses.replace(llama3_deployment)
        assert twin == llama3_deployment and twin is not llama3_deployment
        specs = (ReplicaSpec(llama3_deployment), ReplicaSpec(twin))
        first, second = topology_from_spec(ClusterSpec(replicas=specs)).build_replicas()
        assert first.engine is second.engine

    def test_autoscaled_replica_joins_its_deployments_engine(self):
        """A replica the autoscaler adds to the mixed fleet runs on the
        cheapest spec's deployment, on the engine the fleet already holds."""
        specs = _mixed_specs()
        topology = ColocatedTopology(specs[0].deployment, num_replicas=4, replica_specs=specs)
        fleet = topology.build_replicas()
        extra = topology.build_replica(4)
        cheapest = min(specs, key=lambda spec: spec.cost_per_hour).deployment
        assert extra.deployment == cheapest != fleet[0].deployment
        assert extra.engine is next(r.engine for r in fleet if r.deployment == cheapest)

    def test_disaggregated_pools_share_each_deployments_engine(self):
        """The mixed fleet split into pools, A100 + A6000 prefilling and
        A100 + A6000 decoding: each engine serves a replica of each pool."""
        spec = ClusterSpec(replicas=_mixed_specs(), topology="disaggregated", prefill_replicas=2)
        roles: defaultdict[int, set] = defaultdict(set)
        for replica in topology_from_spec(spec).build_replicas():
            assert replica.engine.backend.deployment == replica.deployment
            roles[id(replica.engine)].add(replica.role)
        assert list(roles.values()) == [{"prefill", "decode"}] * 2

    @pytest.mark.parametrize("replicas", [2, 4])
    def test_heterogeneous_fleet_serves_the_committed_rows(self, results_snapshot, replicas):
        """The mixed fleet's colocated least-tokens rows of Figure 21 (its
        planner config, one candidate), equal to the committed CSV as text."""
        plan = capacity_plan(
            PlannerConfig(
                scenario="shared-prefix-chat",
                num_requests=40,
                seed=21,
                replica_counts=(replicas,),
                topologies=("colocated",),
                chunk_sizes=(1024,),
                routers=("least-tokens",),
                replica_mixes=(_MIXED,),
                ttft_p99_target_s=0.5,
                tbt_p99_target_s=0.05,
            )
        )
        row = {key: str(value) for key, value in plan.candidates[0].row().items()}
        with (results_snapshot / "fig21_capacity_planner.csv").open(newline="") as handle:
            committed = [
                line
                for line in csv.DictReader(handle)
                if all(line[key] == row[key] for key in ("mix", "replicas", "topology", "router"))
            ]
        assert len(committed) == 1
        assert {key: value for key, value in committed[0].items() if key != "best"} == row
