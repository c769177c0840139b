"""Tests for the fluid GPU execution engine."""

from __future__ import annotations

import pytest

from repro.attention.executors import FAHFuse, FASerial, FAStreams, FIBatched, FISerial
from repro.bench.sweeps import figure11_sweep
from repro.core.pod_kernel import PODAttention
from repro.gpu.cta import CTAWork, DECODE_TAG, PREFILL_TAG
from repro.gpu.engine import ExecutionEngine, _Execution
from repro.gpu.kernel import Kernel, KernelLaunch
from repro.models.config import paper_deployment
from repro.utils.units import KB
from repro.verify.invariants import check_execution
from repro.verify.oracles import engine_equivalence


def _kernel(ctas, threads=256, smem=48 * KB, regs=128, name="k"):
    return Kernel.from_ctas(
        name, ctas, threads_per_cta=threads, shared_mem_per_cta=smem, registers_per_thread=regs
    )


class TestSingleCTATiming:
    def test_compute_only_cta(self, a100, engine):
        flops = a100.tensor_flops_per_sm * 1e-3  # one millisecond of one SM's compute
        result = engine.run_kernel(_kernel([CTAWork(flops=flops, dram_bytes=0.0)]))
        expected = 1e-3 + a100.kernel_launch_overhead
        assert result.total_time == pytest.approx(expected, rel=1e-6)

    def test_memory_only_cta_is_limited_by_sm_cap(self, a100, engine):
        nbytes = a100.sm_mem_bandwidth * 2e-3  # two milliseconds at the per-SM cap
        result = engine.run_kernel(_kernel([CTAWork(flops=0.0, dram_bytes=nbytes)]))
        expected = 2e-3 + a100.kernel_launch_overhead
        assert result.total_time == pytest.approx(expected, rel=1e-6)

    def test_compute_and_memory_overlap_within_cta(self, a100, engine):
        flops = a100.tensor_flops_per_sm * 1e-3
        nbytes = a100.sm_mem_bandwidth * 0.4e-3
        result = engine.run_kernel(_kernel([CTAWork(flops=flops, dram_bytes=nbytes)]))
        # Memory is fully hidden behind the (longer) compute.
        assert result.total_time == pytest.approx(1e-3 + a100.kernel_launch_overhead, rel=1e-5)

    def test_fixed_time_floor(self, a100, engine):
        result = engine.run_kernel(_kernel([CTAWork(flops=0.0, dram_bytes=0.0, fixed_time=5e-4)]))
        assert result.total_time == pytest.approx(5e-4 + a100.kernel_launch_overhead, rel=1e-6)


class TestDeviceLevelBehaviour:
    def test_memory_bound_kernel_saturates_hbm(self, a100, engine):
        # 216 CTAs (2 per SM) each streaming 4 MB: enough SMs to hit the HBM roof.
        per_cta = 4e6
        ctas = [CTAWork(flops=0.0, dram_bytes=per_cta, tag=DECODE_TAG) for _ in range(216)]
        result = engine.run_kernel(_kernel(ctas))
        ideal = 216 * per_cta / a100.hbm_bandwidth
        assert result.total_time == pytest.approx(ideal + a100.kernel_launch_overhead, rel=0.02)
        assert result.memory_utilization > 0.95

    def test_compute_bound_kernel_saturates_tensor_cores(self, a100, engine):
        per_cta = a100.tensor_flops_per_sm * 0.5e-3
        ctas = [CTAWork(flops=per_cta, dram_bytes=0.0, tag=PREFILL_TAG) for _ in range(216)]
        result = engine.run_kernel(_kernel(ctas))
        ideal = 216 * per_cta / a100.tensor_flops
        assert result.total_time == pytest.approx(ideal + a100.kernel_launch_overhead, rel=0.02)
        assert result.compute_utilization > 0.95

    def test_serial_kernels_do_not_overlap(self, a100, engine):
        compute = _kernel(
            [CTAWork(flops=a100.tensor_flops_per_sm * 1e-3, dram_bytes=0.0)] * 108, name="c"
        )
        memory = _kernel(
            [CTAWork(flops=0.0, dram_bytes=a100.sm_mem_bandwidth * 1e-3)] * 108, name="m"
        )
        serial = engine.run([KernelLaunch(compute, 0), KernelLaunch(memory, 0)])
        alone_c = engine.run_kernel(compute).total_time
        alone_m = engine.run_kernel(memory).total_time
        assert serial.total_time == pytest.approx(alone_c + alone_m, rel=0.02)

    def test_wave_quantization_penalty(self, a100, engine):
        # 217 identical CTAs at 2 CTAs/SM take a full extra wave compared to 216.
        def run(n):
            ctas = [CTAWork(flops=a100.tensor_flops_per_sm * 1e-3, dram_bytes=0.0)] * n
            return engine.run_kernel(_kernel(ctas)).total_time

        full_wave = run(216)
        quantized = run(217)
        assert quantized > full_wave * 1.3

    def test_straggler_holds_slot(self, a100, engine):
        # One CTA is 10x longer; the kernel cannot finish before it does.
        short = CTAWork(flops=a100.tensor_flops_per_sm * 1e-4, dram_bytes=0.0)
        long = CTAWork(flops=a100.tensor_flops_per_sm * 1e-3, dram_bytes=0.0)
        result = engine.run_kernel(_kernel([short] * 215 + [long]))
        assert result.total_time >= 1e-3

    def test_energy_increases_with_work(self, a100, engine):
        small = engine.run_kernel(
            _kernel([CTAWork(flops=a100.tensor_flops_per_sm * 1e-4, dram_bytes=0.0)] * 108)
        )
        large = engine.run_kernel(
            _kernel([CTAWork(flops=a100.tensor_flops_per_sm * 1e-3, dram_bytes=0.0)] * 108)
        )
        assert large.energy_joules > small.energy_joules


class TestStreamsAndColocation:
    def _compute_kernel(self, a100, n=108):
        return _kernel(
            [CTAWork(flops=a100.tensor_flops_per_sm * 1e-3, dram_bytes=0.0, tag=PREFILL_TAG)] * n,
            regs=224,
            name="compute",
        )

    def _memory_kernel(self, a100, n=108):
        return _kernel(
            [CTAWork(flops=0.0, dram_bytes=a100.sm_mem_bandwidth * 1e-3, tag=DECODE_TAG)] * n,
            regs=128,
            name="memory",
        )

    def test_streams_overlap_when_resources_allow(self, a100, engine):
        compute = self._compute_kernel(a100)
        memory = _kernel(
            [CTAWork(flops=0.0, dram_bytes=a100.sm_mem_bandwidth * 1e-3, tag=DECODE_TAG)] * 108,
            regs=32,
            smem=8 * KB,
            name="memory",
        )
        serial = engine.run([KernelLaunch(compute, 0), KernelLaunch(memory, 0)]).total_time
        streams = engine.run([KernelLaunch(compute, 0), KernelLaunch(memory, 1)]).total_time
        assert streams < serial * 0.7

    def test_streams_cannot_overlap_when_registers_exhausted(self, a100, engine):
        # Register-hungry kernels (like real FA prefill + decode) cannot co-reside.
        compute = self._compute_kernel(a100)
        memory = self._memory_kernel(a100)
        serial = engine.run([KernelLaunch(compute, 0), KernelLaunch(memory, 0)])
        streams = engine.run([KernelLaunch(compute, 0), KernelLaunch(memory, 1)])
        assert streams.total_time == pytest.approx(serial.total_time, rel=0.05)
        assert streams.colocation_fraction < 0.05

    def test_fused_kernel_colocates_and_overlaps(self, a100, engine):
        compute = [
            CTAWork(flops=a100.tensor_flops_per_sm * 1e-3, dram_bytes=0.0, tag=PREFILL_TAG)
        ] * 108
        memory = [
            CTAWork(flops=0.0, dram_bytes=a100.sm_mem_bandwidth * 1e-3, tag=DECODE_TAG)
        ] * 108
        serial = engine.run(
            [
                KernelLaunch(_kernel(compute, name="c"), 0),
                KernelLaunch(_kernel(memory, name="m"), 0),
            ]
        ).total_time
        # With 108 + 108 CTAs and breadth-first placement, a blocked ordering
        # happens to land one compute and one memory CTA on every SM, so the
        # engine's co-location accounting must report (near) full co-location
        # and the overlapped runtime must beat serial execution.
        fused = engine.run_kernel(_kernel(compute + memory, name="fused"))
        assert fused.total_time < serial * 0.8
        # Co-location is time-weighted: both operations share every SM until the
        # shorter one (compute) drains, roughly 60% of the fused runtime here.
        assert fused.colocation_fraction > 0.5

    def test_tag_accounting(self, a100, engine):
        compute = [CTAWork(flops=1e9, dram_bytes=0.0, tag=PREFILL_TAG)] * 4
        memory = [CTAWork(flops=0.0, dram_bytes=1e6, tag=DECODE_TAG)] * 4
        result = engine.run_kernel(_kernel(compute + memory))
        assert result.tag_flops[PREFILL_TAG] == pytest.approx(4e9, rel=1e-6)
        assert result.tag_bytes[DECODE_TAG] == pytest.approx(4e6, rel=1e-6)


class TestBinderKernels:
    def test_binder_called_once_per_cta_with_valid_sm(self, a100, engine):
        seen = []

        def binder(sm_id, dispatch_index):
            seen.append((sm_id, dispatch_index))
            return CTAWork(flops=1e6, dram_bytes=1e3)

        kernel = Kernel.with_binder(
            "b", 50, binder, threads_per_cta=128, shared_mem_per_cta=1 * KB
        )
        engine.run_kernel(kernel)
        assert len(seen) == 50
        assert sorted(d for _, d in seen) == list(range(50))
        assert all(0 <= sm < a100.num_sms for sm, _ in seen)

    def test_binder_returning_anything_but_work_fails_at_dispatch(self, engine):
        def binder(sm_id, dispatch_index):
            if dispatch_index == 3:
                return {"flops": 1e6, "dram_bytes": 1e3}
            return CTAWork(flops=1e6, dram_bytes=1e3)

        kernel = Kernel.with_binder("bad", 8, binder, threads_per_cta=128, shared_mem_per_cta=0)
        with pytest.raises(TypeError, match=r"kernel 'bad': CTA 3 was given a dict, not a CTAWork"):
            engine.run_kernel(kernel)

    def test_each_fresh_work_object_is_described_apart(self, engine):
        """A binder that builds a new work for every CTA, and keeps none, still
        gets every CTA its own: descriptions are keyed by id and hold their
        object, so no later work can take a described work's id in the run."""

        def binder(sm_id, dispatch_index):
            return CTAWork(flops=1e6 * (dispatch_index + 1), dram_bytes=1e3)

        kernel = Kernel.with_binder("fresh", 300, binder, threads_per_cta=128, shared_mem_per_cta=0)
        records = engine.run_kernel(kernel).cta_records
        assert sorted((r.dispatch_index, r.flops) for r in records) == [
            (index, 1e6 * (index + 1)) for index in range(300)
        ]


class TestResultRecords:
    def test_cta_records_complete(self, a100, engine):
        ctas = [CTAWork(flops=1e8, dram_bytes=1e4, tag=PREFILL_TAG)] * 10
        result = engine.run_kernel(_kernel(ctas))
        assert len(result.cta_records) == 10
        assert all(record.end_time >= record.start_time for record in result.cta_records)
        assert result.total_ctas == 10

    def test_record_ctas_can_be_disabled(self, a100):
        engine = ExecutionEngine(a100, record_ctas=False)
        result = engine.run_kernel(_kernel([CTAWork(flops=1e8, dram_bytes=0.0)] * 4))
        assert result.cta_records == []

    def test_kernel_named_lookup(self, engine):
        """A launch's kernel record is found by its kernel's name, with its
        CTA count; a stream's second launch starts after its first ends."""
        result = engine.run(
            [
                KernelLaunch(_kernel([CTAWork(flops=1e8, dram_bytes=0.0)], name="abc")),
                KernelLaunch(_kernel([CTAWork(flops=1e8, dram_bytes=0.0)] * 3, name="xyz")),
            ]
        )
        by_name = {kernel.name: kernel for kernel in result.kernels}
        assert (by_name["abc"].num_ctas, by_name["xyz"].num_ctas) == (1, 3)
        assert "missing" not in by_name
        assert by_name["xyz"].start_time >= by_name["abc"].end_time

    def test_summary_keys(self, a100, engine):
        result = engine.run_kernel(_kernel([CTAWork(flops=1e8, dram_bytes=0.0)]))
        assert {"total_time_ms", "compute_utilization", "memory_utilization"} <= set(
            result.summary()
        )


class TestEngineValidation:
    def test_empty_launches_rejected(self, engine):
        with pytest.raises(ValueError):
            engine.run([])

    def test_unschedulable_kernel_rejected(self, a100, engine):
        huge = Kernel.from_ctas(
            "huge",
            [CTAWork(flops=1.0, dram_bytes=1.0)],
            threads_per_cta=4096,
            shared_mem_per_cta=0,
        )
        with pytest.raises(ValueError):
            engine.run_kernel(huge)


class TestExecutionInvariants:
    """``check_execution`` holds on runs that stress capacity, streams and tags."""

    def _launches(self, a100):
        compute = CTAWork(flops=a100.tensor_flops_per_sm * 1e-4, dram_bytes=1e5, tag=PREFILL_TAG)
        memory = CTAWork(flops=1e6, dram_bytes=a100.sm_mem_bandwidth * 1e-4, tag=DECODE_TAG)
        fused = compute.merged_with(memory)
        cuda = CTAWork(flops=1e7, dram_bytes=0.0, fixed_time=2e-6, meta={"pipe": "cuda"})
        return [
            KernelLaunch(_kernel([compute] * 300, regs=224, name="prefill"), 0),
            KernelLaunch(_kernel([memory] * 250, regs=64, smem=16 * KB, name="decode"), 1),
            KernelLaunch(_kernel([fused, cuda] * 120, threads=128, name="fused"), 0),
        ]

    def test_mixed_streams_hold_every_invariant(self, a100):
        launches = self._launches(a100)
        result = ExecutionEngine(a100).run(launches)
        assert check_execution(launches, result, a100) == []
        assert result.total_ctas == 300 + 250 + 240

    def test_records_are_required(self, a100):
        launches = self._launches(a100)
        result = ExecutionEngine(a100, record_ctas=False).run(launches)
        violations = check_execution(launches, result, a100)
        assert violations and {v.invariant for v in violations} == {"work-conservation"}


# ------------------------------------------------------------ counted work

#: Figure 11's first four points through the six executors (under 0.1 s of tier-1 call time).
COUNTED_POINTS = figure11_sweep(max_points=24, seed=0)[:4]
COUNTED_EXECUTORS = (FASerial, FAStreams, FAHFuse, FISerial, FIBatched, PODAttention)
#: Events, rate passes, dispatch passes and dispatched CTAs of that sample.
PINNED_WORK = {"events": 1391, "rate passes": 1051, "dispatch passes": 311, "CTAs": 10434}


def counted_work(monkeypatch) -> dict[str, int]:
    """The engine work of the counted sample, from wrappers on the phase methods."""
    counts = dict.fromkeys(PINNED_WORK, 0)
    phases = {
        "_step": "events",
        "_rate_pass": "rate passes",
        "_dispatch_ready_ctas": "dispatch passes",
    }
    for name, label in phases.items():

        def counting(self, *args, _phase=getattr(_Execution, name), _label=label):
            counts[_label] += 1
            return _phase(self, *args)

        monkeypatch.setattr(_Execution, name, counting)
    deployment = paper_deployment("llama-3-8b")
    engine = ExecutionEngine(deployment.gpu, record_ctas=False)
    for point in COUNTED_POINTS:
        batch = point.to_batch()
        for executor in COUNTED_EXECUTORS:
            result = executor().run(deployment, batch, engine)
            counts["CTAs"] += sum(kernel.num_ctas for kernel in result.execution.kernels)
    return counts


class TestCountedWork:
    """The engine's counted work on a fixed sample, pinned exactly: a change
    that runs more events, rate passes or dispatch passes fails here with no
    timing involved, even when every result stays the same."""

    def test_work_is_pinned(self, monkeypatch):
        assert counted_work(monkeypatch) == PINNED_WORK

    def test_a_rate_pass_on_every_event_keeps_results_and_breaks_the_pin(self, monkeypatch):
        step = _Execution._step

        def always_stale(self):
            self.rates_stale = True
            return step(self)

        monkeypatch.setattr(_Execution, "_step", always_stale)
        deployment = paper_deployment("llama-3-8b")
        batch = COUNTED_POINTS[0].to_batch()
        for executor in COUNTED_EXECUTORS:

            def build(executor=executor):
                return executor().build_launches(deployment, batch)

            assert engine_equivalence(deployment.gpu, build) == []
        work = counted_work(monkeypatch)
        assert work["rate passes"] == work["events"] == PINNED_WORK["events"]
        assert work != PINNED_WORK
