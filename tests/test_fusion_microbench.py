"""Tests for the §3 concurrent-execution case study."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.fusion.methods import (
    FUSION_METHODS,
    oracle_time,
    run_all_methods,
    run_method,
    run_serial,
    run_sm_aware,
    run_streams,
)
from repro.fusion.microbench import (
    CTAS_PER_KERNEL,
    MicrobenchConfig,
    calibrated_config,
    compute_ctas,
    compute_kernel,
    ideal_times,
    memory_ctas,
    memory_kernel,
)
from repro.gpu.engine import ExecutionEngine


@pytest.fixture(scope="module")
def config(a100):
    return calibrated_config(a100)


class TestMicrobenchConfig:
    def test_calibration_balances_kernels(self, a100, config):
        """At the calibration point, the two kernels take (nearly) equal time."""
        compute_time, memory_time = ideal_times(a100, config)
        assert compute_time == pytest.approx(memory_time, rel=0.15)

    def test_compute_iterations_scale_compute_only(self, config):
        heavier = replace(config, compute_iterations=config.compute_iterations * 2)
        assert heavier.compute_flops_total == pytest.approx(2 * config.compute_flops_total)
        assert heavier.memory_bytes_total == pytest.approx(config.memory_bytes_total)

    def test_validation(self):
        with pytest.raises(ValueError):
            MicrobenchConfig(compute_iterations=0)

    def test_cta_builders(self, config):
        assert len(compute_ctas(config)) == CTAS_PER_KERNEL
        assert len(memory_ctas(config)) == CTAS_PER_KERNEL
        assert compute_kernel(config).num_ctas == CTAS_PER_KERNEL
        assert memory_kernel(config).num_ctas == CTAS_PER_KERNEL

    def test_kernel_work_profiles(self, a100, config):
        """The compute kernel is compute-bound and the memory kernel memory-bound."""
        c_flops = sum(c.flops for c in compute_ctas(config))
        c_bytes = sum(c.dram_bytes for c in compute_ctas(config))
        m_flops = sum(c.flops for c in memory_ctas(config))
        m_bytes = sum(c.dram_bytes for c in memory_ctas(config))
        assert c_flops / a100.cuda_core_flops > c_bytes / a100.hbm_bandwidth
        assert m_bytes / a100.hbm_bandwidth > m_flops / a100.cuda_core_flops


class TestSharedWork:
    """The builders share one ``CTAWork`` per distinct CTA: the engine
    describes each distinct object once per run."""

    @pytest.mark.parametrize(
        "method,works_per_kernel",
        [
            ("serial", [1, 1]),
            ("streams", [1, 1]),
            ("cta_parallel", [2]),
            ("warp_parallel", [1]),
            ("intra_thread", [1]),
        ],
    )
    def test_one_work_per_static_kernel_and_fused_pair(
        self, a100, config, monkeypatch, method, works_per_kernel
    ):
        kernels = []
        run = ExecutionEngine.run

        def recording(engine, launches):
            kernels.extend(launch.kernel for launch in launches)
            return run(engine, launches)

        monkeypatch.setattr(ExecutionEngine, "run", recording)
        run_method(a100, config, method)
        assert [len({id(work) for work in kernel.ctas}) for kernel in kernels] == works_per_kernel
        assert all(kernel.num_ctas >= CTAS_PER_KERNEL for kernel in kernels)


class TestMethods:
    @pytest.fixture(scope="class")
    def results(self, a100):
        return run_all_methods(a100, calibrated_config(a100))

    def test_all_methods_run(self, results):
        assert set(results) == set(FUSION_METHODS)
        assert all(result.total_time > 0 for result in results.values())

    def test_serial_is_the_slowest_reasonable_baseline(self, results):
        serial = results["serial"].total_time
        for method in ("streams", "cta_parallel", "intra_thread", "sm_aware"):
            assert results[method].total_time <= serial * 1.05, method

    def test_sm_aware_beats_serial_streams_and_cta(self, results):
        """Figure 7: only SM-aware fusion approaches the optimal overlap."""
        sm_aware = results["sm_aware"].total_time
        assert sm_aware < results["serial"].total_time * 0.75
        assert sm_aware <= results["streams"].total_time
        assert sm_aware <= results["cta_parallel"].total_time

    def test_sm_aware_close_to_oracle(self, a100):
        config = calibrated_config(a100)
        sm_aware = run_sm_aware(a100, config).total_time
        oracle = oracle_time(a100, config)
        assert sm_aware <= oracle * 1.25

    def test_intra_thread_gives_moderate_benefit(self, results):
        """The paper measures ~13% average benefit for intra-thread fusion."""
        serial = results["serial"].total_time
        intra = results["intra_thread"].total_time
        assert 1.02 < serial / intra < 1.5

    def test_streams_and_cta_give_marginal_benefit(self, results):
        """Kernel- and CTA-parallel execution provide little gain (~3-7% in the paper)."""
        serial = results["serial"].total_time
        for method in ("streams", "cta_parallel"):
            assert serial / results[method].total_time < 1.2

    def test_serial_equals_sum_of_kernels(self, a100, config):
        serial = run_serial(a100, config).total_time
        compute_time, memory_time = ideal_times(a100, config)
        assert serial == pytest.approx(compute_time + memory_time, rel=0.15)

    def test_memory_heavy_regime(self, a100):
        """Left of the crossover (few compute iterations) memory dominates; overlap
        hides the compute almost entirely."""
        config = replace(calibrated_config(a100), compute_iterations=30)
        serial = run_serial(a100, config).total_time
        fused = run_sm_aware(a100, config).total_time
        _, memory_time = ideal_times(a100, config)
        assert fused == pytest.approx(memory_time, rel=0.3)
        assert fused < serial

    def test_compute_heavy_regime(self, a100):
        config = replace(calibrated_config(a100), compute_iterations=200)
        compute_time, _ = ideal_times(a100, config)
        fused = run_sm_aware(a100, config).total_time
        assert fused == pytest.approx(compute_time, rel=0.35)

    def test_run_method_unknown(self, a100, config):
        with pytest.raises(ValueError):
            run_method(a100, config, "mps")

    def test_streams_runs_two_kernels(self, a100, config):
        result = run_streams(a100, config)
        assert result.total_time > 0
