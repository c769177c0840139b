"""Tests for the POD-Attention fused kernel (the paper's core contribution)."""

from __future__ import annotations

import pytest

from repro.attention.executors import FASerial, FAStreams
from repro.attention.metrics import theoretical_minimum_time
from repro.attention.workload import HybridBatch, table1_configs
from repro.core.pod_kernel import PODAttention, build_pod_kernel, group_virtual_decode_ctas
from repro.core.scheduling_policy import FiftyFiftyPolicy, ProportionalPolicy
from repro.core.tile_config import pod_config_2_ctas_per_sm
from repro.gpu.cta import CTAWork, DECODE_TAG
from repro.gpu.engine import ExecutionEngine


class TestVirtualDecodeCTAs:
    def test_grouping_preserves_totals(self):
        units = [CTAWork(flops=float(i), dram_bytes=10.0 * i, tag=DECODE_TAG) for i in range(1, 10)]
        grouped = group_virtual_decode_ctas(units, virtual_factor=4)
        assert len(grouped) == 3
        assert sum(g.flops for g in grouped) == pytest.approx(sum(u.flops for u in units))
        assert sum(g.dram_bytes for g in grouped) == pytest.approx(sum(u.dram_bytes for u in units))

    def test_group_metadata(self):
        units = [CTAWork(flops=1.0, dram_bytes=1.0, tag=DECODE_TAG) for _ in range(8)]
        grouped = group_virtual_decode_ctas(units, virtual_factor=4)
        assert grouped[0].meta["virtual_units"] == 4

    def test_invalid_factor(self):
        with pytest.raises(ValueError):
            group_virtual_decode_ctas([], virtual_factor=0)

    def test_groups_of_the_same_units_share_one_work(self):
        first = CTAWork(flops=1.0, dram_bytes=2.0, tag=DECODE_TAG)
        second = CTAWork(flops=3.0, dram_bytes=4.0, tag=DECODE_TAG)
        grouped = group_virtual_decode_ctas([first] * 8 + [second] * 4 + [first] * 2, 4)
        assert [group.flops for group in grouped] == [4.0, 4.0, 12.0, 2.0]
        assert grouped[0] is grouped[1]
        assert len({id(group) for group in grouped}) == 3


class TestBuildPodKernel:
    def test_plan_counts(self, llama3_deployment, small_hybrid_batch):
        plan = build_pod_kernel(llama3_deployment, small_hybrid_batch)
        assert plan.num_prefill_ctas > 0
        assert plan.num_decode_ctas > 0
        assert plan.kernel.num_ctas == plan.total_ctas

    def test_prefill_splits_are_limited(self, llama3_deployment):
        """§4.2.4: prefill KV splits are capped at two waves of CTAs."""
        batch = HybridBatch.uniform(
            chunk_tokens=512, prefill_context=16384, decode_batch_size=64, decode_context=16384
        )
        limited = build_pod_kernel(llama3_deployment, batch, limit_prefill_splits=True)
        vanilla = build_pod_kernel(llama3_deployment, batch, limit_prefill_splits=False)
        assert limited.num_prefill_ctas <= 2 * llama3_deployment.gpu.num_sms
        assert vanilla.num_prefill_ctas >= limited.num_prefill_ctas

    def test_rejects_non_hybrid_batches(self, llama3_deployment):
        with pytest.raises(ValueError):
            build_pod_kernel(llama3_deployment, HybridBatch.prefill_only(512))

    def test_binder_serves_all_ctas(self, llama3_deployment, small_hybrid_batch):
        plan = build_pod_kernel(llama3_deployment, small_hybrid_batch)
        engine = ExecutionEngine(llama3_deployment.gpu)
        engine.run_kernel(plan.kernel)
        assert len(plan.scheduler.assignments) == plan.total_ctas

    def test_kernel_meta_mentions_config_and_policy(self, llama3_deployment, small_hybrid_batch):
        plan = build_pod_kernel(
            llama3_deployment,
            small_hybrid_batch,
            config=pod_config_2_ctas_per_sm(),
            policy=FiftyFiftyPolicy(),
        )
        assert plan.kernel.meta["config"] == "pod-2cta"
        assert plan.kernel.meta["policy"] == "50:50"


class TestPODPerformance:
    @pytest.fixture(scope="class")
    def engine(self, llama3_deployment):
        return ExecutionEngine(llama3_deployment.gpu)

    def test_pod_faster_than_serial_on_hybrid_batches(
        self, llama3_deployment, medium_hybrid_batch, engine
    ):
        serial = FASerial().run(llama3_deployment, medium_hybrid_batch, engine)
        pod = PODAttention().run(llama3_deployment, medium_hybrid_batch, engine)
        assert pod.total_time < serial.total_time
        # The paper reports up to 59% faster attention; this balanced batch
        # should comfortably exceed a 15% gain in the model.
        assert pod.speedup_over(serial) > 0.15

    def test_pod_never_slower_than_serial(self, llama3_deployment, engine):
        """§5.1: unlike the other methods, POD never under-performs serial execution."""
        sweep = [
            HybridBatch.uniform(512, 4096, 16, 4096),
            HybridBatch.uniform(1024, 8192, 48, 8192),
            HybridBatch.uniform(2048, 16384, 8, 16384),
            HybridBatch.uniform(512, 2048, 96, 2048),
        ]
        for batch in sweep:
            serial = FASerial().run(llama3_deployment, batch, engine)
            pod = PODAttention().run(llama3_deployment, batch, engine)
            assert pod.total_time <= serial.total_time * 1.02

    def test_pod_beats_streams(self, llama3_deployment, medium_hybrid_batch, engine):
        streams = FAStreams().run(llama3_deployment, medium_hybrid_batch, engine)
        pod = PODAttention().run(llama3_deployment, medium_hybrid_batch, engine)
        assert pod.total_time < streams.total_time

    def test_pod_uses_both_resources(self, llama3_deployment, engine):
        """Figure 1 (right): POD drives compute and memory simultaneously."""
        batch = table1_configs()["C0"]
        pod = PODAttention().run(llama3_deployment, batch, engine)
        serial = FASerial().run(llama3_deployment, batch, engine)
        assert pod.memory_utilization > serial.memory_utilization
        assert pod.compute_utilization > 0.3
        assert pod.memory_utilization > 0.8

    def test_pod_colocates_operations(self, llama3_deployment, engine):
        # With the 50:50 policy every SM alternates operations, so whenever both
        # operations have at least one CTA per SM available, co-location is
        # guaranteed on every SM (decode bs 128 -> 128 physical decode CTAs).
        batch = HybridBatch.uniform(
            chunk_tokens=1024, prefill_context=12288, decode_batch_size=128, decode_context=12288
        )
        pod = PODAttention(policy=FiftyFiftyPolicy())
        result = pod.run(llama3_deployment, batch, engine)
        assert result.colocation_fraction > 0.9
        assert pod.last_plan.scheduler.colocation_fraction() > 0.9

    def test_pod_colocation_beats_streams(self, llama3_deployment, medium_hybrid_batch, engine):
        # Even under the (front-loaded) proportional policy, runtime binding
        # co-locates far more than kernel-parallel streams can.
        pod = PODAttention().run(llama3_deployment, medium_hybrid_batch, engine)
        streams = FAStreams().run(llama3_deployment, medium_hybrid_batch, engine)
        assert pod.colocation_fraction > streams.colocation_fraction + 0.3

    def test_pod_within_reach_of_theoretical_bound(
        self, llama3_deployment, medium_hybrid_batch, engine
    ):
        bound = theoretical_minimum_time(llama3_deployment, medium_hybrid_batch)
        pod = PODAttention().run(llama3_deployment, medium_hybrid_batch, engine)
        assert pod.total_time >= bound * 0.99
        assert pod.total_time <= bound * 1.6

    def test_pod_reduces_energy(self, llama3_deployment, medium_hybrid_batch, engine):
        """§5.1: energy savings track the runtime reduction."""
        serial = FASerial().run(llama3_deployment, medium_hybrid_batch, engine)
        pod = PODAttention().run(llama3_deployment, medium_hybrid_batch, engine)
        assert pod.energy_joules < serial.energy_joules

    def test_policies_both_work(self, llama3_deployment, small_hybrid_batch, engine):
        for policy in (FiftyFiftyPolicy(), ProportionalPolicy()):
            result = PODAttention(policy=policy).run(llama3_deployment, small_hybrid_batch, engine)
            assert result.total_time > 0


class TestPODFallback:
    def test_prefill_only_falls_back(self, llama3_deployment):
        pod = PODAttention()
        result = pod.run(llama3_deployment, HybridBatch.prefill_only(1024, 2048))
        assert result.total_time > 0
        assert pod.last_plan is None

    def test_decode_only_falls_back(self, llama3_deployment):
        pod = PODAttention()
        result = pod.run(llama3_deployment, HybridBatch.decode_only([4096] * 16))
        assert result.total_time > 0
        assert pod.last_plan is None

    def test_fallback_matches_specialized_kernel(self, llama3_deployment):
        batch = HybridBatch.decode_only([8192] * 32)
        pod = PODAttention().run(llama3_deployment, batch)
        serial = FASerial().run(llama3_deployment, batch)
        assert pod.total_time == pytest.approx(serial.total_time, rel=0.02)
