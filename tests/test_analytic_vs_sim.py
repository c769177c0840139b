"""Cross-validation of the analytic attention model against the event-driven simulator."""

from __future__ import annotations

import pytest

from repro.attention.analytic import FUSED_OVERLAP_EFFICIENCY, analytic_attention_times
from repro.attention.executors import FASerial
from repro.attention.workload import HybridBatch
from repro.core.pod_kernel import PODAttention
from repro.gpu.engine import ExecutionEngine
from repro.verify.oracles import FUSED_TOLERANCE, SERIAL_TOLERANCE

# A representative set of hybrid batches spanning memory-bound to compute-bound.
VALIDATION_BATCHES = [
    HybridBatch.uniform(512, 4096, 32, 4096),
    HybridBatch.uniform(1024, 12288, 64, 12288),
    HybridBatch.uniform(2048, 8192, 16, 8192),
    HybridBatch.uniform(512, 16384, 96, 8192),
]


@pytest.fixture(scope="module")
def sim_engine(llama3_deployment):
    return ExecutionEngine(llama3_deployment.gpu, record_ctas=False)


class TestAnalyticAgainstSimulator:
    @pytest.mark.parametrize("batch", VALIDATION_BATCHES, ids=range(len(VALIDATION_BATCHES)))
    def test_serial_estimate_within_tolerance(self, llama3_deployment, sim_engine, batch):
        simulated = FASerial().run(llama3_deployment, batch, sim_engine).total_time
        analytic = analytic_attention_times(llama3_deployment, batch).serial_time
        # Tolerances are declared once, in the verify-subsystem oracle.
        assert analytic == pytest.approx(simulated, rel=SERIAL_TOLERANCE)

    @pytest.mark.parametrize("batch", VALIDATION_BATCHES, ids=range(len(VALIDATION_BATCHES)))
    def test_fused_estimate_within_tolerance(self, llama3_deployment, sim_engine, batch):
        simulated = PODAttention().run(llama3_deployment, batch, sim_engine).total_time
        analytic = analytic_attention_times(llama3_deployment, batch).fused_time
        assert analytic == pytest.approx(simulated, rel=FUSED_TOLERANCE)

    @pytest.mark.parametrize("batch", VALIDATION_BATCHES, ids=range(len(VALIDATION_BATCHES)))
    def test_analytic_preserves_the_speedup_direction(self, llama3_deployment, batch):
        times = analytic_attention_times(llama3_deployment, batch)
        assert times.fused_time <= times.serial_time
        assert times.speedup >= 1.0

    def test_fused_overlap_efficiency_is_a_fraction(self):
        """The fused estimate divides its roofline time by it; above 1 it beats the roofline."""
        assert 0.0 < FUSED_OVERLAP_EFFICIENCY <= 1.0

    def test_prefill_only_batch(self, llama3_deployment):
        times = analytic_attention_times(llama3_deployment, HybridBatch.prefill_only(1024, 8192))
        assert times.decode_time == 0.0
        assert times.fused_time == pytest.approx(times.prefill_time, rel=0.01)

    def test_decode_only_batch(self, llama3_deployment):
        times = analytic_attention_times(llama3_deployment, HybridBatch.decode_only([8192] * 32))
        assert times.prefill_time == 0.0
        assert times.fused_time == pytest.approx(times.decode_time, rel=0.01)

    def test_times_scale_with_work(self, llama3_deployment):
        small = analytic_attention_times(
            llama3_deployment, HybridBatch.uniform(512, 4096, 16, 4096)
        )
        large = analytic_attention_times(
            llama3_deployment, HybridBatch.uniform(2048, 16384, 128, 16384)
        )
        assert large.serial_time > 2 * small.serial_time
        assert large.fused_time > 2 * small.fused_time
