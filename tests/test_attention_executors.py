"""Tests for the baseline attention execution strategies."""

from __future__ import annotations

import pytest

from repro.attention.executors import FAHFuse, FASerial, FAStreams, FIBatched, FISerial
from repro.attention.metrics import theoretical_minimum_time
from repro.attention.workload import HybridBatch


@pytest.fixture(scope="module")
def baseline_results(llama3_deployment, small_hybrid_batch):
    """Run every baseline once on the small batch (shared across tests for speed)."""
    results = {}
    for executor in (FASerial(), FAStreams(), FAHFuse(), FISerial(), FIBatched()):
        results[executor.name] = executor.run(llama3_deployment, small_hybrid_batch)
    return results


class TestExecutorBasics:
    def test_registry_contains_paper_baselines(self, baseline_results):
        assert set(baseline_results) == {
            "FA_Serial",
            "FA_Streams",
            "FA_HFuse",
            "FI_Serial",
            "FI_Batched",
        }

    def test_results_have_positive_times(self, baseline_results):
        for name, result in baseline_results.items():
            assert result.total_time > 0, name
            assert 0 <= result.compute_utilization <= 1
            assert 0 <= result.memory_utilization <= 1
            assert result.energy_joules > 0

    def test_serial_records_both_kernel_times(self, baseline_results):
        serial = baseline_results["FA_Serial"]
        assert serial.prefill_time is not None and serial.prefill_time > 0
        assert serial.decode_time is not None and serial.decode_time > 0
        assert serial.prefill_time + serial.decode_time <= serial.total_time * 1.01

    def test_as_row_keys(self, baseline_results):
        row = baseline_results["FA_Serial"].as_row()
        assert {"strategy", "time_ms", "compute_util", "memory_util"} <= set(row)


class TestRelativePerformance:
    def test_streams_not_slower_than_serial(self, baseline_results):
        assert (
            baseline_results["FA_Streams"].total_time
            <= baseline_results["FA_Serial"].total_time * 1.05
        )

    def test_fi_serial_close_to_fa_serial(self, baseline_results):
        ratio = baseline_results["FI_Serial"].total_time / baseline_results["FA_Serial"].total_time
        assert 0.8 < ratio <= 1.02

    def test_speedup_table(self, baseline_results):
        serial = baseline_results["FA_Serial"]
        table = {name: result.speedup_over(serial) for name, result in baseline_results.items()}
        assert table["FA_Serial"] == pytest.approx(0.0)

    def test_no_strategy_beats_theoretical_minimum(
        self, llama3_deployment, small_hybrid_batch, baseline_results
    ):
        bound = theoretical_minimum_time(llama3_deployment, small_hybrid_batch)
        for name, result in baseline_results.items():
            assert result.total_time >= bound * 0.99, name


class TestSinglePhaseBatches:
    def test_serial_runs_prefill_only(self, llama3_deployment):
        result = FASerial().run(llama3_deployment, HybridBatch.prefill_only(1024, 4096))
        assert result.total_time > 0
        assert result.decode_time is None

    def test_serial_runs_decode_only(self, llama3_deployment):
        result = FASerial().run(llama3_deployment, HybridBatch.decode_only([4096] * 16))
        assert result.total_time > 0
        assert result.prefill_time is None

    def test_hfuse_runs_decode_only(self, llama3_deployment):
        result = FAHFuse().run(llama3_deployment, HybridBatch.decode_only([4096] * 8))
        assert result.total_time > 0

    def test_batched_runs_prefill_only(self, llama3_deployment):
        result = FIBatched().run(llama3_deployment, HybridBatch.prefill_only(512, 2048))
        assert result.total_time > 0


class TestUtilizationShape:
    def test_prefill_only_is_compute_bound(self, llama3_deployment):
        """Figure 1 (left): prefill attention has high compute, negligible BW utilization."""
        result = FASerial().run(llama3_deployment, HybridBatch.prefill_only(2048, 8192))
        assert result.compute_utilization > 0.5
        assert result.memory_utilization < 0.2

    def test_decode_only_is_memory_bound(self, llama3_deployment):
        """Figure 1 (middle): decode attention saturates bandwidth, not compute."""
        result = FASerial().run(llama3_deployment, HybridBatch.decode_only([12288] * 64))
        assert result.memory_utilization > 0.7
        assert result.compute_utilization < 0.5
