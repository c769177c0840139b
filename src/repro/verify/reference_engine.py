"""Frozen reference copy of the event-driven GPU engine.

:class:`ReferenceEngine` is the engine of :mod:`repro.gpu.engine` as it stood
before that module's per-event work was reduced to the alive CTAs: every SM
pick scans all SMs, and every event runs its rate, ``dt`` and advance passes
over one array slot per CTA ever dispatched, alive or retired.  It is
deliberately a *duplicate*, not an import (like
:class:`~repro.verify.oracles.ReferenceAllocator`): it pins the engine's
semantics independently of ``repro.gpu.engine``, so
:func:`~repro.verify.oracles.engine_equivalence` catches any drift in the
fast engine instead of inheriting it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.gpu.config import GPUSpec
from repro.gpu.cta import DECODE_TAG, PREFILL_TAG
from repro.gpu.kernel import Kernel, KernelLaunch
from repro.gpu.occupancy import max_resident_ctas
from repro.gpu.result import CTARecord, ExecutionResult, KernelResult

_EPS = 1e-15
_TIME_EPS = 1e-12


@dataclass
class _SMState:
    """Mutable per-SM resource tracking (used only by the dispatcher)."""

    index: int
    resident_count: int = 0
    used_threads: int = 0
    used_shared_mem: int = 0
    used_registers: int = 0

    def can_host(self, kernel: Kernel, spec: GPUSpec) -> bool:
        if self.resident_count >= spec.max_ctas_per_sm:
            return False
        if self.used_threads + kernel.threads_per_cta > spec.max_threads_per_sm:
            return False
        if self.used_shared_mem + kernel.shared_mem_per_cta > spec.shared_mem_per_sm:
            return False
        regs = kernel.registers_per_thread * kernel.threads_per_cta
        if self.used_registers + regs > spec.registers_per_sm:
            return False
        return True

    def admit(self, kernel: Kernel) -> None:
        self.resident_count += 1
        self.used_threads += kernel.threads_per_cta
        self.used_shared_mem += kernel.shared_mem_per_cta
        self.used_registers += kernel.registers_per_thread * kernel.threads_per_cta

    def release(self, kernel: Kernel) -> None:
        self.resident_count -= 1
        self.used_threads -= kernel.threads_per_cta
        self.used_shared_mem -= kernel.shared_mem_per_cta
        self.used_registers -= kernel.registers_per_thread * kernel.threads_per_cta


@dataclass
class _LaunchState:
    """Mutable progress tracking for one kernel launch."""

    launch: KernelLaunch
    index: int
    dispatched: int = 0
    completed: int = 0
    eligible_time: float | None = None
    start_time: float | None = None
    end_time: float | None = None

    @property
    def kernel(self) -> Kernel:
        return self.launch.kernel

    @property
    def fully_dispatched(self) -> bool:
        return self.dispatched >= self.kernel.num_ctas

    @property
    def finished(self) -> bool:
        return self.completed >= self.kernel.num_ctas


class ReferenceEngine:
    """The frozen engine behind the same ``run`` contract as ``ExecutionEngine``.

    Always records per-CTA traces (the oracle compares them).
    """

    def __init__(self, spec: GPUSpec) -> None:
        self.spec = spec

    def run(self, launches: Sequence[KernelLaunch]) -> ExecutionResult:
        """Execute ``launches`` and return the simulated :class:`ExecutionResult`."""
        if not launches:
            raise ValueError("run() requires at least one kernel launch")
        for launch in launches:
            if max_resident_ctas(self.spec, launch.kernel) == 0:
                raise ValueError(
                    f"kernel {launch.kernel.name!r} cannot fit a single CTA on an SM of "
                    f"{self.spec.name}"
                )
        return _Execution(self.spec, list(launches)).run()


class _Execution:
    """One simulation run over dispatch-slot-indexed state arrays."""

    def __init__(self, spec: GPUSpec, launches: list[KernelLaunch]) -> None:
        self.spec = spec
        self.launches = [_LaunchState(launch=launch, index=i) for i, launch in enumerate(launches)]
        self.sms = [_SMState(index=i) for i in range(spec.num_sms)]
        self.time = 0.0
        self.records: list[CTARecord] = []

        capacity = sum(state.kernel.num_ctas for state in self.launches)
        self.rem_flops = np.zeros(capacity)
        self.rem_bytes = np.zeros(capacity)
        self.rem_fixed = np.zeros(capacity)
        self.max_cf = np.ones(capacity)
        self.max_mf = np.ones(capacity)
        self.sm_of = np.zeros(capacity, dtype=np.int64)
        self.pipe_is_cuda = np.zeros(capacity, dtype=bool)
        self.is_prefill = np.zeros(capacity, dtype=bool)
        self.is_decode = np.zeros(capacity, dtype=bool)
        self.launch_of = np.zeros(capacity, dtype=np.int64)
        self.dispatch_idx = np.zeros(capacity, dtype=np.int64)
        self.start_times = np.zeros(capacity)
        self.alive = np.zeros(capacity, dtype=bool)
        self.tags: list[str] = [""] * capacity
        self.flops_of = np.zeros(capacity)
        self.bytes_of = np.zeros(capacity)
        self.compute_rate = np.zeros(capacity)
        self.mem_rate = np.zeros(capacity)
        self.next_slot = 0

        self.tensor_flops_done = 0.0
        self.cuda_flops_done = 0.0
        self.bytes_done = 0.0
        self.tag_flops: dict[str, float] = {}
        self.tag_bytes: dict[str, float] = {}
        self.colocated_sm_seconds = 0.0
        self.active_sm_seconds = 0.0
        self.resident_cta_seconds = 0.0
        self.need_dispatch = True

        seen_streams: set[int] = set()
        for state in self.launches:
            stream = state.launch.stream
            if stream not in seen_streams:
                state.eligible_time = spec.kernel_launch_overhead
                seen_streams.add(stream)

    # ------------------------------------------------------------- dispatch

    def _eligible_launches(self) -> list[_LaunchState]:
        return [
            state
            for state in self.launches
            if state.eligible_time is not None
            and state.eligible_time <= self.time + _TIME_EPS
            and not state.fully_dispatched
        ]

    def _pick_sm(self, kernel: Kernel) -> _SMState | None:
        candidates = [sm for sm in self.sms if sm.can_host(kernel, self.spec)]
        if not candidates:
            return None
        return min(candidates, key=lambda sm: (sm.resident_count, sm.index))

    def _dispatch_one(self, state: _LaunchState, sm: _SMState) -> None:
        work = state.kernel.work_for(state.dispatched, sm.index)
        slot = self.next_slot
        self.next_slot += 1
        self.rem_flops[slot] = work.flops
        self.rem_bytes[slot] = work.dram_bytes
        self.rem_fixed[slot] = work.fixed_time
        self.max_cf[slot] = work.max_compute_fraction
        self.max_mf[slot] = work.max_mem_fraction
        self.sm_of[slot] = sm.index
        self.pipe_is_cuda[slot] = work.meta.get("pipe", "tensor") == "cuda"
        self.is_prefill[slot] = work.tag == PREFILL_TAG
        self.is_decode[slot] = work.tag == DECODE_TAG
        self.launch_of[slot] = state.index
        self.dispatch_idx[slot] = state.dispatched
        self.start_times[slot] = self.time
        self.alive[slot] = True
        self.tags[slot] = work.tag or "untagged"
        self.flops_of[slot] = work.flops
        self.bytes_of[slot] = work.dram_bytes
        sm.admit(state.kernel)
        if state.start_time is None:
            state.start_time = self.time
        state.dispatched += 1

    def _dispatch_ready_ctas(self) -> bool:
        dispatched_any = False
        progressed = True
        while progressed:
            progressed = False
            for state in self._eligible_launches():
                sm = self._pick_sm(state.kernel)
                if sm is None:
                    continue
                self._dispatch_one(state, sm)
                progressed = True
                dispatched_any = True
                break  # restart launch scan so earlier launches keep priority
        return dispatched_any

    # ----------------------------------------------------------------- rates

    def _recompute_rates(self) -> None:
        spec = self.spec
        num_sms = spec.num_sms
        alive = self.alive
        self.compute_rate[:] = 0.0
        self.mem_rate[:] = 0.0

        for is_cuda, peak in ((False, spec.tensor_flops_per_sm), (True, spec.cuda_flops_per_sm)):
            sel = alive & (self.rem_flops > _EPS) & (self.pipe_is_cuda == is_cuda)
            if not np.any(sel):
                continue
            sms = self.sm_of[sel]
            counts = np.bincount(sms, minlength=num_sms)
            share = peak / counts[sms]
            cap = self.max_cf[sel] * peak
            self.compute_rate[sel] = np.minimum(share, cap)

        mem_sel = alive & (self.rem_bytes > _EPS)
        if np.any(mem_sel):
            sms = self.sm_of[mem_sel]
            counts = np.bincount(sms, minlength=num_sms)
            active_sms = int(np.count_nonzero(counts))
            per_sm_bw = min(spec.sm_mem_bandwidth, spec.hbm_bandwidth / active_sms)
            share = per_sm_bw / counts[sms]
            cap = self.max_mf[mem_sel] * spec.sm_mem_bandwidth
            self.mem_rate[mem_sel] = np.minimum(share, cap)

    # ------------------------------------------------------------------ loop

    def _next_event_dt(self) -> float:
        alive = self.alive
        dt = np.inf
        c_sel = alive & (self.compute_rate > _EPS)
        if np.any(c_sel):
            dt = min(dt, float(np.min(self.rem_flops[c_sel] / self.compute_rate[c_sel])))
        m_sel = alive & (self.mem_rate > _EPS)
        if np.any(m_sel):
            dt = min(dt, float(np.min(self.rem_bytes[m_sel] / self.mem_rate[m_sel])))
        f_sel = alive & (self.rem_fixed > _EPS)
        if np.any(f_sel):
            dt = min(dt, float(np.min(self.rem_fixed[f_sel])))
        for state in self.launches:
            if state.eligible_time is not None and not state.fully_dispatched:
                if state.eligible_time > self.time + _TIME_EPS:
                    dt = min(dt, state.eligible_time - self.time)
        return dt

    def _advance(self, dt: float) -> None:
        alive = self.alive
        if np.any(alive):
            sms_alive = self.sm_of[alive]
            prefill_sms = np.bincount(
                self.sm_of[alive & self.is_prefill], minlength=self.spec.num_sms
            )
            decode_sms = np.bincount(
                self.sm_of[alive & self.is_decode], minlength=self.spec.num_sms
            )
            occupied = np.bincount(sms_alive, minlength=self.spec.num_sms) > 0
            colocated = int(np.count_nonzero((prefill_sms > 0) & (decode_sms > 0)))
            self.colocated_sm_seconds += colocated * dt
            self.active_sm_seconds += int(np.count_nonzero(occupied)) * dt
            self.resident_cta_seconds += int(np.count_nonzero(alive)) * dt

        flops_step = np.minimum(self.rem_flops, self.compute_rate * dt)
        bytes_step = np.minimum(self.rem_bytes, self.mem_rate * dt)
        flops_step[~alive] = 0.0
        bytes_step[~alive] = 0.0
        self.rem_flops -= flops_step
        self.rem_bytes -= bytes_step
        self.rem_fixed[alive] = np.maximum(0.0, self.rem_fixed[alive] - dt)

        self.tensor_flops_done += float(np.sum(flops_step[~self.pipe_is_cuda]))
        self.cuda_flops_done += float(np.sum(flops_step[self.pipe_is_cuda]))
        self.bytes_done += float(np.sum(bytes_step))
        prefill_sel = self.is_prefill
        decode_sel = self.is_decode
        other_sel = ~(prefill_sel | decode_sel)
        for tag, sel in ((PREFILL_TAG, prefill_sel), (DECODE_TAG, decode_sel)):
            f = float(np.sum(flops_step[sel]))
            b = float(np.sum(bytes_step[sel]))
            if f or b:
                self.tag_flops[tag] = self.tag_flops.get(tag, 0.0) + f
                self.tag_bytes[tag] = self.tag_bytes.get(tag, 0.0) + b
        f = float(np.sum(flops_step[other_sel]))
        b = float(np.sum(bytes_step[other_sel]))
        if f or b:
            self.tag_flops["untagged"] = self.tag_flops.get("untagged", 0.0) + f
            self.tag_bytes["untagged"] = self.tag_bytes.get("untagged", 0.0) + b
        self.time += dt

    def _retire_finished(self) -> bool:
        done = (
            self.alive
            & (self.rem_flops <= _EPS)
            & (self.rem_bytes <= _EPS)
            & (self.rem_fixed <= _EPS)
        )
        finished_slots = np.flatnonzero(done)
        if finished_slots.size == 0:
            return False
        for slot in finished_slots.tolist():
            self.alive[slot] = False
            state = self.launches[int(self.launch_of[slot])]
            sm = self.sms[int(self.sm_of[slot])]
            sm.release(state.kernel)
            state.completed += 1
            self.records.append(
                CTARecord(
                    kernel=state.kernel.name,
                    dispatch_index=int(self.dispatch_idx[slot]),
                    sm_id=int(self.sm_of[slot]),
                    tag=self.tags[slot],
                    start_time=float(self.start_times[slot]),
                    end_time=self.time,
                    flops=float(self.flops_of[slot]),
                    dram_bytes=float(self.bytes_of[slot]),
                )
            )
            if state.finished and state.end_time is None:
                state.end_time = self.time
                self._unlock_successor(state)
        return True

    def _unlock_successor(self, finished_state: _LaunchState) -> None:
        stream = finished_state.launch.stream
        for state in self.launches:
            if state.index <= finished_state.index or state.launch.stream != stream:
                continue
            if state.eligible_time is None:
                state.eligible_time = self.time + self.spec.kernel_launch_overhead
            break

    def run(self) -> ExecutionResult:
        max_iterations = 500_000
        for _ in range(max_iterations):
            if self.need_dispatch:
                if not self._dispatch_ready_ctas():
                    self.need_dispatch = False
            if not np.any(self.alive):
                pending = [
                    s.eligible_time
                    for s in self.launches
                    if not s.finished and s.eligible_time is not None and not s.fully_dispatched
                ]
                if not pending:
                    break
                next_time = min(pending)
                if next_time <= self.time + _TIME_EPS and not self.need_dispatch:
                    self.need_dispatch = True
                    continue
                if next_time <= self.time + _TIME_EPS:
                    raise RuntimeError("no CTA could be dispatched despite eligible launches")
                self.time = next_time
                self.need_dispatch = True
                continue
            self._recompute_rates()
            dt = self._next_event_dt()
            if not np.isfinite(dt):
                raise RuntimeError("simulation stalled: residents exist but nothing progresses")
            previous_time = self.time
            self._advance(dt)
            if self._retire_finished():
                self.need_dispatch = True
            if not self.need_dispatch:
                for state in self.launches:
                    if (
                        state.eligible_time is not None
                        and not state.fully_dispatched
                        and previous_time < state.eligible_time <= self.time + _TIME_EPS
                    ):
                        self.need_dispatch = True
                        break
        else:
            raise RuntimeError("execution exceeded the maximum number of simulation events")

        return self._build_result()

    # ---------------------------------------------------------------- result

    def _build_result(self) -> ExecutionResult:
        total_time = self.time
        spec = self.spec
        if total_time <= 0:
            total_time = _EPS
        tensor_busy = self.tensor_flops_done / spec.tensor_flops
        cuda_busy = self.cuda_flops_done / spec.cuda_core_flops
        mem_busy = self.bytes_done / spec.hbm_bandwidth
        compute_util = (tensor_busy + cuda_busy) / total_time
        memory_util = mem_busy / total_time
        energy = (
            spec.idle_power * total_time
            + spec.compute_power * (tensor_busy + cuda_busy)
            + spec.mem_power * mem_busy
        )
        kernels = [
            KernelResult(
                name=state.kernel.name,
                stream=state.launch.stream,
                start_time=state.start_time if state.start_time is not None else 0.0,
                end_time=state.end_time if state.end_time is not None else total_time,
                num_ctas=state.kernel.num_ctas,
            )
            for state in self.launches
        ]
        colocation = (
            self.colocated_sm_seconds / self.active_sm_seconds
            if self.active_sm_seconds > 0
            else 0.0
        )
        return ExecutionResult(
            total_time=total_time,
            kernels=kernels,
            compute_utilization=min(1.0, compute_util),
            memory_utilization=min(1.0, memory_util),
            flops_executed=self.tensor_flops_done + self.cuda_flops_done,
            bytes_moved=self.bytes_done,
            energy_joules=energy,
            tag_flops=dict(self.tag_flops),
            tag_bytes=dict(self.tag_bytes),
            colocation_fraction=colocation,
            avg_resident_ctas=self.resident_cta_seconds / total_time,
            cta_records=self.records,
        )
