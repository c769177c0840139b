"""The event-driven GPU engine against its frozen reference, on generated and paper launches.

``launch_sets`` is a hypothesis strategy of whole engine inputs: a small GPU
(few SMs, low CTA limits, a tight HBM pool, so picks often find no SM) and 1-4
launches on 1-3 streams, static and binder kernels, prefill / decode / fused /
empty tags, tensor- and CUDA-pipe CTAs, fixed latencies and compute / memory
caps below 1.  Every case runs through ``engine_equivalence`` and through
``check_execution``.  Figure 11's 24-point sample x six executors are fixed
cases on the A100.
"""

from __future__ import annotations

import dataclasses
from typing import Callable

import pytest
from hypothesis import given, strategies as st

import repro.gpu.engine as engine_module
from repro.attention.executors import FAHFuse, FASerial, FAStreams, FIBatched, FISerial
from repro.bench.sweeps import figure11_sweep
from repro.core.pod_kernel import PODAttention
from repro.gpu.config import GPUSpec, a100_sxm_80gb
from repro.gpu.cta import DECODE_TAG, PREFILL_TAG, CTAWork
from repro.gpu.engine import ExecutionEngine
from repro.gpu.kernel import Kernel, KernelLaunch
from repro.models.config import paper_deployment
from repro.utils.units import KB
from repro.verify.invariants import check_execution
from repro.verify.oracles import engine_equivalence
from repro.verify.reference_engine import ReferenceEngine

# --------------------------------------------------------------- strategies

#: Tags the engine books apart (prefill, decode), a fused tag and no tag.
TAGS = (PREFILL_TAG, DECODE_TAG, "prefill+decode", "")


def _amount(low: float, high: float) -> st.SearchStrategy[float]:
    """Zero, a few round values (simultaneous completions) or any value in range."""
    return st.one_of(
        st.just(0.0),
        st.sampled_from((low, (low * high) ** 0.5, high)),
        st.floats(low, high, allow_nan=False, allow_infinity=False),
    )


cta_works = st.builds(
    CTAWork,
    flops=_amount(1e5, 1e9),
    dram_bytes=_amount(1e3, 1e7),
    tag=st.sampled_from(TAGS),
    fixed_time=st.sampled_from((0.0, 0.0, 1e-6, 2e-5)),
    max_compute_fraction=st.sampled_from((1.0, 0.5, 0.125)),
    max_mem_fraction=st.sampled_from((1.0, 0.6, 0.25)),
    meta=st.sampled_from(({}, {"pipe": "cuda"})),
).filter(lambda work: not work.is_empty)


@dataclasses.dataclass(frozen=True)
class LaunchPlan:
    """One launch as plain data; :meth:`build` makes a fresh ``KernelLaunch``."""

    name: str
    stream: int
    threads: int
    shared_mem: int
    registers: int
    works: tuple[CTAWork, ...]
    #: ``None`` for a static kernel, else the CTA count of a binder kernel.
    binder_ctas: int | None
    #: Binder kernels: bind by a per-SM counter (stateful, like POD's
    #: ``SMAwareScheduler``) rather than by (SM, dispatch index).
    stateful: bool

    def build(self) -> KernelLaunch:
        footprint = dict(
            threads_per_cta=self.threads,
            shared_mem_per_cta=self.shared_mem,
            registers_per_thread=self.registers,
        )
        if self.binder_ctas is None:
            kernel = Kernel.from_ctas(self.name, self.works, **footprint)
        else:
            kernel = Kernel.with_binder(self.name, self.binder_ctas, self._binder(), **footprint)
        return KernelLaunch(kernel=kernel, stream=self.stream)

    def _binder(self) -> Callable[[int, int], CTAWork]:
        works = self.works
        calls: dict[int, int] = {}

        def binder(sm_id: int, dispatch_index: int) -> CTAWork:
            if self.stateful:
                calls[sm_id] = calls.get(sm_id, 0) + 1
                return works[(calls[sm_id] + sm_id) % len(works)]
            return works[(3 * dispatch_index + sm_id) % len(works)]

        return binder


@dataclasses.dataclass(frozen=True)
class LaunchSet:
    gpu: GPUSpec
    plans: tuple[LaunchPlan, ...]

    def build(self) -> list[KernelLaunch]:
        return [plan.build() for plan in self.plans]


@st.composite
def launch_plans(draw: st.DrawFn, index: int, streams: int) -> LaunchPlan:
    # 512 threads x 128 registers, or 100 KB of shared memory, fill an SM alone.
    works = tuple(draw(st.lists(cta_works, min_size=1, max_size=10)))
    binder = draw(st.booleans())
    return LaunchPlan(
        name=f"k{index}",
        stream=draw(st.integers(0, streams - 1)),
        threads=draw(st.sampled_from((64, 128, 256, 512))),
        shared_mem=draw(st.sampled_from((0, 8 * KB, 48 * KB, 100 * KB))),
        registers=draw(st.sampled_from((32, 64, 128))),
        works=works,
        binder_ctas=draw(st.integers(1, 12)) if binder else None,
        stateful=draw(st.booleans()),
    )


@st.composite
def launch_sets(draw: st.DrawFn) -> LaunchSet:
    """A small GPU and 1-4 launches on 1-3 streams."""
    base = a100_sxm_80gb()
    gpu = dataclasses.replace(
        base,
        name="test-gpu",
        num_sms=draw(st.sampled_from((1, 2, 3, 5, 8))),
        max_ctas_per_sm=draw(st.sampled_from((2, 4, 32))),
        # A pool of 1.5 SMs' draw makes the max-min split bind.
        hbm_bandwidth=base.sm_mem_bandwidth * draw(st.sampled_from((1.5, 4.0, 100.0))),
    )
    streams = draw(st.integers(1, 3))
    count = draw(st.integers(1, 4))
    plans = tuple(draw(launch_plans(index, streams)) for index in range(count))
    return LaunchSet(gpu=gpu, plans=plans)


def assert_matches_reference(gpu: GPUSpec, build: Callable[[], list[KernelLaunch]]) -> None:
    assert engine_equivalence(gpu, build) == []
    launches = build()
    result = ExecutionEngine(gpu).run(launches)
    assert check_execution(launches, result, gpu) == []


# ------------------------------------------------------------------- tests


@given(case=launch_sets())
def test_generated_launch_sets_match_reference(case: LaunchSet) -> None:
    assert_matches_reference(case.gpu, case.build)


EXECUTORS = (FASerial, FAStreams, FAHFuse, FISerial, FIBatched, PODAttention)

FIG11_CASES = [
    (point, executor)
    for point in figure11_sweep(max_points=24, seed=0)
    for executor in EXECUTORS
]

FIG11_IDS = [
    f"{point.context_length}-{point.chunk_size}-{point.decode_batch_size}-{executor.name}"
    for point, executor in FIG11_CASES
]


@pytest.mark.parametrize("point,executor", FIG11_CASES, ids=FIG11_IDS)
def test_fig11_sample_matches_reference(point, executor) -> None:
    deployment = paper_deployment("llama-3-8b")
    batch = point.to_batch()
    assert_matches_reference(deployment.gpu, lambda: executor().build_launches(deployment, batch))


class TestErrorsMatchReference:
    def test_empty_launch_list(self, a100) -> None:
        assert engine_equivalence(a100, lambda: []) == []
        with pytest.raises(ValueError, match="at least one kernel launch"):
            ExecutionEngine(a100).run([])

    def test_kernel_that_cannot_fit(self, a100) -> None:
        def build() -> list[KernelLaunch]:
            kernel = Kernel.from_ctas(
                "huge", [CTAWork(flops=1.0, dram_bytes=1.0)], 1024, 0, registers_per_thread=255
            )
            return [KernelLaunch(kernel)]

        assert engine_equivalence(a100, build) == []
        with pytest.raises(ValueError, match="cannot fit a single CTA"):
            ExecutionEngine(a100).run(build())

    def test_stall_on_work_free_ctas(self, a100) -> None:
        def build() -> list[KernelLaunch]:
            kernel = Kernel.from_ctas("idle", [CTAWork(flops=0.0, dram_bytes=0.0)] * 3, 128, 0)
            return [KernelLaunch(kernel)]

        assert engine_equivalence(a100, build) == []
        with pytest.raises(RuntimeError, match="stalled"):
            ExecutionEngine(a100).run(build())


# -------------------------------------------------------------- seeded bugs


def _streams_case() -> tuple[GPUSpec, Callable[[], list[KernelLaunch]]]:
    """Serial and concurrent launches on a 2-SM GPU: overhead gaps and failed picks."""
    gpu = dataclasses.replace(a100_sxm_80gb(), num_sms=2)
    work = CTAWork(flops=2e8, dram_bytes=4e6, tag=PREFILL_TAG)
    other = CTAWork(flops=1e6, dram_bytes=2e6, tag=DECODE_TAG, max_mem_fraction=0.5)

    def build() -> list[KernelLaunch]:
        return [
            KernelLaunch(Kernel.from_ctas("a", [work] * 6, 512, 48 * KB, 64), stream=0),
            KernelLaunch(Kernel.from_ctas("b", [other] * 9, 256, 8 * KB, 64), stream=1),
            KernelLaunch(Kernel.from_ctas("c", [work, other] * 3, 256, 100 * KB, 32), stream=0),
        ]

    return gpu, build


class TestSeededBugs:
    """Each check must fail on a deliberately broken engine or result."""

    def test_the_clean_case_passes(self) -> None:
        gpu, build = _streams_case()
        assert_matches_reference(gpu, build)

    def test_unlogged_release_breaks_equivalence(self, monkeypatch) -> None:
        # A retry then re-tests only SMs released before its footprint's last
        # failed pick, never the SM that just freed up.  Retirement releases
        # the SMs; this one drops what it logged.
        retire = engine_module._Execution._retire_finished

        def forgetful(self, alive):
            logged = len(self.released)
            retire(self, alive)
            del self.released[logged:]

        monkeypatch.setattr(engine_module._Execution, "_retire_finished", forgetful)
        # The starved launch then spins until the event limit; keep that short.
        monkeypatch.setattr(engine_module, "_MAX_EVENTS", 10_000)
        gpu, build = _streams_case()
        (found,) = engine_equivalence(gpu, build)
        assert found.endswith("exceeded the maximum number of simulation events")

    def test_rates_kept_across_a_dispatch_break_equivalence(self, monkeypatch) -> None:
        # The CTAs a later dispatch appends keep the rates they were appended
        # with (0) until some compute or memory stream ends.
        dispatch = engine_module._Execution._dispatch_ready_ctas

        def keeps_rates(self):
            stale = self.rates_stale
            dispatch(self)
            self.rates_stale = stale

        monkeypatch.setattr(engine_module._Execution, "_dispatch_ready_ctas", keeps_rates)
        gpu, build = _streams_case()
        found = engine_equivalence(gpu, build)
        assert found and found[0].startswith("total_time differs")

    def test_activity_mask_kept_across_a_retirement_breaks_equivalence(self, monkeypatch) -> None:
        # The mask keeps the retired CTAs' columns, so it no longer lines up
        # with the alive CTAs: the next rate pass raises.
        retire = engine_module._Execution._retire_finished

        def keeps_mask(self, alive):
            mask = self.active
            retire(self, alive)
            self.active = mask

        monkeypatch.setattr(engine_module._Execution, "_retire_finished", keeps_mask)
        gpu, build = _streams_case()
        (found,) = engine_equivalence(gpu, build)
        assert found.startswith("reference gave a result, engine gave ValueError")

    def test_early_launch_breaks_equivalence_and_stream_order(self, monkeypatch) -> None:
        # A 10 us launch horizon dispatches every launch before its 4 us
        # launch-overhead gap has passed.
        monkeypatch.setattr(engine_module, "_TIME_EPS", 1e-5)
        gpu, build = _streams_case()
        assert engine_equivalence(gpu, build)
        result = ExecutionEngine(gpu).run(build())
        violations = check_execution(build(), result, gpu)
        assert {violation.invariant for violation in violations} == {"stream-order"}

    def test_ignored_register_limit_exceeds_sm_capacity(self) -> None:
        gpu, build = _streams_case()
        roomy = dataclasses.replace(gpu, registers_per_sm=4 * gpu.registers_per_sm)
        result = ExecutionEngine(roomy).run(build())
        violations = check_execution(build(), result, gpu)
        assert violations
        assert {violation.invariant for violation in violations} == {"sm-capacity"}
        assert all("registers" in violation.message for violation in violations)

    def test_lost_and_miscounted_work_breaks_conservation(self) -> None:
        gpu, build = _streams_case()
        result = ExecutionEngine(gpu).run(build())
        dropped = dataclasses.replace(result, cta_records=result.cta_records[1:])
        inflated = dataclasses.replace(result, flops_executed=result.flops_executed * 1.001)
        retagged = dataclasses.replace(result, tag_bytes={**result.tag_bytes, DECODE_TAG: 0.0})
        for broken in (dropped, inflated, retagged):
            violations = check_execution(build(), broken, gpu)
            assert "work-conservation" in {violation.invariant for violation in violations}

    def test_oracle_reports_each_divergence(self) -> None:
        from repro.verify.oracles import _compare_executions

        gpu, build = _streams_case()
        reference = ReferenceEngine(gpu).run(build())
        candidate = dataclasses.replace(
            reference,
            total_time=reference.total_time * 2,
            bytes_moved=reference.bytes_moved * (1 + 1e-9),
            tag_flops={},
            cta_records=list(reversed(reference.cta_records)),
        )
        found = "\n".join(_compare_executions(reference, candidate))
        assert "total_time differs" in found
        assert "bytes_moved beyond 1e-12" in found
        assert "tag_flops tags" in found
        assert "CTA record 0 differs" in found
