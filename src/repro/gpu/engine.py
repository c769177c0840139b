"""Event-driven fluid execution engine for the simulated GPU.

The engine models the GPU as a processor-sharing system:

* every SM has a private compute throughput (tensor-core and CUDA-core
  pipes), split at each instant among its resident CTAs that still have
  compute work outstanding;
* DRAM bandwidth is a global pool, shared max-min fairly across SMs subject
  to a per-SM draw cap, and then split among each SM's memory-active CTAs;
* a CTA retires once its compute work, its memory work and its fixed latency
  are all exhausted;
* the hardware CTA scheduler dispatches CTAs from eligible kernel launches
  into free SM slots (threads / shared memory / registers / CTA-count limits),
  preferring earlier launches, exactly like the in-order-with-overflow
  behaviour of real stream scheduling.

This first-order model reproduces the phenomena the paper's argument rests
on: compute-bound prefill leaves DRAM idle, memory-bound decode leaves tensor
cores idle, wave quantization strands SMs in the last wave, warp-fused CTAs
suffer stragglers, and SM-level co-location of prefill and decode allows both
resources to be saturated at once.

Each event costs O(alive CTAs).  The alive CTAs' state lives in compact NumPy
arrays, one column per resident CTA in dispatch order (a retiring CTA's column
is dropped), and one vectorised pass per event computes the rates, the time to
the next event, the advance and the retirements.  Per-SM co-location and
occupancy counts are updated at dispatch and retirement, and FLOP and byte
totals are booked when a CTA retires.  The dispatcher keeps SMs in buckets by
resident count and remembers, per CTA footprint, where its last pick found no
SM, so a pick inspects only SMs that could have changed instead of all of them.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.gpu.config import GPUSpec
from repro.gpu.cta import DECODE_TAG, PREFILL_TAG
from repro.gpu.kernel import Kernel, KernelLaunch
from repro.gpu.occupancy import max_resident_ctas
from repro.gpu.result import CTARecord, ExecutionResult, KernelResult

_EPS = 1e-15
_TIME_EPS = 1e-12
_MAX_EVENTS = 500_000
#: A pick retests the SMs released since its footprint last failed only while
#: they are this few; a longer log is cheaper to replace by a full search.
_MAX_RETEST = 16

#: The ``tag_flops`` / ``tag_bytes`` entries, by booking index: prefill and
#: decode CTAs are booked apart, every other tag (fused, empty or custom) as
#: ``"untagged"``.
_BOOKED_TAGS = (PREFILL_TAG, DECODE_TAG, "untagged")
_PREFILL, _DECODE, _UNTAGGED = range(len(_BOOKED_TAGS))
_BOOKING = {PREFILL_TAG: _PREFILL, DECODE_TAG: _DECODE}


@dataclass
class _LaunchState:
    """Mutable progress tracking for one kernel launch."""

    launch: KernelLaunch
    index: int
    #: Threads, shared memory and registers one CTA occupies on its SM.
    footprint: tuple[int, int, int]
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


class ExecutionEngine:
    """Executes kernel launches on a simulated GPU and reports timing/utilization.

    The hardware CTA scheduler has one placement policy, breadth-first: the
    next CTA goes to the SM with the fewest resident CTAs among those it fits
    on, the lowest SM index breaking ties.

    Args:
        spec: The GPU to simulate.
        record_ctas: Whether to keep a per-CTA trace in the result (useful for
            tests and co-location analysis; adds memory overhead).
    """

    def __init__(self, spec: GPUSpec, record_ctas: bool = True) -> None:
        self.spec = spec
        self.record_ctas = record_ctas

    # ------------------------------------------------------------------ API

    def run(self, launches: Sequence[KernelLaunch]) -> ExecutionResult:
        """Execute ``launches`` and return the simulated :class:`ExecutionResult`."""
        if not launches:
            raise ValueError("run() requires at least one kernel launch")
        for launch in launches:
            # Validate occupancy up-front so configuration errors surface early.
            if max_resident_ctas(self.spec, launch.kernel) == 0:
                raise ValueError(
                    f"kernel {launch.kernel.name!r} cannot fit a single CTA on an SM of "
                    f"{self.spec.name}"
                )
        return _Execution(self, list(launches)).run()

    def run_kernel(self, kernel: Kernel, stream: int = 0) -> ExecutionResult:
        """Convenience wrapper for executing a single kernel."""
        return self.run([KernelLaunch(kernel=kernel, stream=stream)])


class _Execution:
    """One simulation run (separate from the engine so the engine is reusable)."""

    def __init__(self, engine: ExecutionEngine, launches: list[KernelLaunch]) -> None:
        spec = engine.spec
        self.spec = spec
        self.record_ctas = engine.record_ctas
        self.launches = [
            _LaunchState(
                launch=launch,
                index=i,
                footprint=(
                    launch.kernel.threads_per_cta,
                    launch.kernel.shared_mem_per_cta,
                    launch.kernel.registers_per_thread * launch.kernel.threads_per_cta,
                ),
            )
            for i, launch in enumerate(launches)
        ]
        self.time = 0.0
        self.records: list[CTARecord] = []
        self.tensor_peak = spec.tensor_flops_per_sm
        self.cuda_peak = spec.cuda_flops_per_sm

        # Per-SM residency, indexed by SM id.
        num_sms = spec.num_sms
        self.num_sms = num_sms
        self.resident = [0] * num_sms
        self.threads = [0] * num_sms
        self.shared_mem = [0] * num_sms
        self.registers = [0] * num_sms
        self.prefill_ctas = [0] * num_sms
        self.decode_ctas = [0] * num_sms
        self.occupied_sms = 0
        self.colocated_sms = 0
        # SM ids by resident count, each bucket in index order, so breadth-first's
        # min((resident count, index)) is the first bucket entry that fits.
        total_ctas = sum(state.kernel.num_ctas for state in self.launches)
        most_resident = min(spec.max_ctas_per_sm, total_ctas)
        self.buckets: list[list[int]] = [list(range(num_sms))]
        self.buckets += [[] for _ in range(most_resident)]
        # SM ids in release order, and per footprint the length of that log when
        # a pick last found no SM: dispatch only consumes resources, so only SMs
        # released since then can fit that footprint.
        self.released: list[int] = []
        self.failed_at: dict[tuple[int, int, int], int] = {}

        # Alive CTAs, one column each, in dispatch order.  Rows of ``state``:
        # 0-2 remaining FLOPs, bytes and fixed time; 3-4 the compute and memory
        # throughput shared on the CTA's SM (its pipe's peak, and the event's
        # per-SM bandwidth); 5-6 the CTA's compute and memory caps; 7-9 its
        # rates (fixed time drains at 1).  Rows of ``keys``: the CTA's compute
        # pipe (SM id, + num_sms on the CUDA pipe) and memory port (SM id +
        # 2 * num_sms) in one count space, and its dispatch slot.
        self.state = np.zeros((10, 0))
        self.keys = np.zeros((3, 0), dtype=np.int64)
        # Per dispatch slot: launch, dispatch index, SM, record tag, start time,
        # FLOPs, bytes, CUDA pipe?, booking index into _BOOKED_TAGS.
        self.ctas: list[tuple[_LaunchState, int, int, str, float, float, float, bool, int]] = []

        # Busy-time integrals for utilization and energy accounting.
        self.tensor_flops_done = 0.0
        self.cuda_flops_done = 0.0
        self.bytes_done = 0.0
        self.tag_flops = [0.0] * len(_BOOKED_TAGS)
        self.tag_bytes = [0.0] * len(_BOOKED_TAGS)
        self.tag_seen = [False] * len(_BOOKED_TAGS)
        self.colocated_sm_seconds = 0.0
        self.active_sm_seconds = 0.0
        self.resident_cta_seconds = 0.0
        self._need_dispatch = True

        seen_streams: set[int] = set()
        for state in self.launches:
            stream = state.launch.stream
            if stream not in seen_streams:
                state.eligible_time = spec.kernel_launch_overhead
                seen_streams.add(stream)

    # ------------------------------------------------------------- dispatch

    def _pick_sm(self, footprint: tuple[int, int, int]) -> int:
        """The breadth-first SM for the next CTA of ``footprint``, or -1."""
        threads, shared_mem, registers = footprint
        spec = self.spec
        resident = self.resident
        released = self.released
        failed_at = self.failed_at.get(footprint)
        order: Iterable[int]
        if failed_at is not None and len(released) - failed_at <= _MAX_RETEST:
            # Only SMs released since this footprint last fit nowhere can fit it.
            order = sorted(released[failed_at:], key=lambda sm: (resident[sm], sm))
        else:
            order = itertools.chain.from_iterable(self.buckets[: spec.max_ctas_per_sm])
        for sm in order:
            if (
                resident[sm] < spec.max_ctas_per_sm
                and self.threads[sm] + threads <= spec.max_threads_per_sm
                and self.shared_mem[sm] + shared_mem <= spec.shared_mem_per_sm
                and self.registers[sm] + registers <= spec.registers_per_sm
            ):
                break
        else:
            self.failed_at[footprint] = len(released)
            return -1
        return sm

    def _dispatch_ready_ctas(self) -> bool:
        """Fill each eligible launch, in launch order, until its next CTA fits nowhere.

        Dispatch only consumes SM resources, so a launch that stops fitting stays
        unfit for the rest of the pass: this dispatches exactly what a launch scan
        restarted after every CTA (earlier launches first) would.
        """
        horizon = self.time + _TIME_EPS
        columns: list[tuple[float, ...]] = []
        keys: list[tuple[int, int, int]] = []
        for state in self.launches:
            if state.eligible_time is None or state.eligible_time > horizon:
                continue
            kernel = state.kernel
            while state.dispatched < kernel.num_ctas:
                sm = self._pick_sm(state.footprint)
                if sm < 0:
                    break
                work = kernel.work_for(state.dispatched, sm)
                booked = _BOOKING.get(work.tag, _UNTAGGED)
                self._admit(sm, state.footprint, booked)
                is_cuda = work.meta.get("pipe", "tensor") == "cuda"
                peak = self.cuda_peak if is_cuda else self.tensor_peak
                flops, nbytes = float(work.flops), float(work.dram_bytes)
                pipe = sm + self.num_sms if is_cuda else sm
                keys.append((pipe, sm + 2 * self.num_sms, len(self.ctas)))
                columns.append(
                    (
                        flops,
                        nbytes,
                        float(work.fixed_time),
                        peak,
                        0.0,
                        work.max_compute_fraction * peak,
                        work.max_mem_fraction * self.spec.sm_mem_bandwidth,
                        0.0,
                        0.0,
                        1.0,
                    )
                )
                self.ctas.append(
                    (
                        state,
                        state.dispatched,
                        sm,
                        work.tag or "untagged",
                        self.time,
                        flops,
                        nbytes,
                        is_cuda,
                        booked,
                    )
                )
                if state.start_time is None:
                    state.start_time = self.time
                state.dispatched += 1
        if not columns:
            return False
        self.state = np.concatenate((self.state, np.array(columns).T), axis=1)
        self.keys = np.concatenate((self.keys, np.array(keys, dtype=np.int64).T), axis=1)
        return True

    def _admit(self, sm: int, footprint: tuple[int, int, int], booked: int) -> None:
        threads, shared_mem, registers = footprint
        count = self.resident[sm]
        self.resident[sm] = count + 1
        self.buckets[count].remove(sm)
        bisect.insort(self.buckets[count + 1], sm)
        if count == 0:
            self.occupied_sms += 1
        self.threads[sm] += threads
        self.shared_mem[sm] += shared_mem
        self.registers[sm] += registers
        if booked == _PREFILL:
            if self.prefill_ctas[sm] == 0 and self.decode_ctas[sm] > 0:
                self.colocated_sms += 1
            self.prefill_ctas[sm] += 1
        elif booked == _DECODE:
            if self.decode_ctas[sm] == 0 and self.prefill_ctas[sm] > 0:
                self.colocated_sms += 1
            self.decode_ctas[sm] += 1

    def _release(self, sm: int, footprint: tuple[int, int, int], booked: int) -> None:
        threads, shared_mem, registers = footprint
        count = self.resident[sm] - 1
        self.resident[sm] = count
        self.buckets[count + 1].remove(sm)
        bisect.insort(self.buckets[count], sm)
        if count == 0:
            self.occupied_sms -= 1
        self.threads[sm] -= threads
        self.shared_mem[sm] -= shared_mem
        self.registers[sm] -= registers
        if booked == _PREFILL:
            self.prefill_ctas[sm] -= 1
            if self.prefill_ctas[sm] == 0 and self.decode_ctas[sm] > 0:
                self.colocated_sms -= 1
        elif booked == _DECODE:
            self.decode_ctas[sm] -= 1
            if self.decode_ctas[sm] == 0 and self.prefill_ctas[sm] > 0:
                self.colocated_sms -= 1
        self.released.append(sm)

    # ------------------------------------------------------------------ loop

    def _step(self) -> bool:
        """One event: rates, time to the next event, advance, retirement.

        Returns whether any CTA retired.
        """
        spec = self.spec
        num_sms = self.num_sms
        state, keys = self.state, self.keys
        remaining = state[:3]
        active = remaining > _EPS
        # Compute- and memory-active residents per pipe and per SM memory port.
        sharing = np.bincount(keys[:2].ravel(), active[:2].ravel(), 3 * num_sms)
        # Memory: the equal-cap max-min split of the HBM pool over the SMs with
        # memory-active residents, which then share their SM's draw.
        active_sms = int(np.count_nonzero(sharing[2 * num_sms :]))
        if active_sms:
            state[4] = min(spec.sm_mem_bandwidth, spec.hbm_bandwidth / active_sms)
        # Each active CTA gets an equal share of its SM's throughput, up to its
        # cap; an idle one gets 0 (an idle pipe's share is inf or nan, fmin
        # drops the nan and the cap times False is 0).
        rate = state[7:]
        np.multiply(np.fmin(state[3:5] / sharing[keys[:2]], state[5:7]), active[:2], out=rate[:2])

        candidates = np.where((rate > _EPS) & active, remaining / rate, np.inf)
        dt = float(candidates.min())
        # A launch waiting only on its launch-overhead gap can also be the next event.
        for launch in self.launches:
            if launch.eligible_time is not None and not launch.fully_dispatched:
                if launch.eligible_time > self.time + _TIME_EPS:
                    dt = min(dt, launch.eligible_time - self.time)
        if not math.isfinite(dt):
            raise RuntimeError("simulation stalled: residents exist but nothing progresses")

        self.colocated_sm_seconds += self.colocated_sms * dt
        self.active_sm_seconds += self.occupied_sms * dt
        self.resident_cta_seconds += remaining.shape[1] * dt
        remaining -= np.minimum(remaining, rate * dt)
        self.time += dt

        alive = (remaining > _EPS).any(axis=0)
        if np.count_nonzero(alive) == alive.size:
            return False
        finished = np.flatnonzero(~alive)
        leftovers = state[:2, finished].T.tolist()
        for slot, (flops_left, bytes_left) in zip(keys[2, finished].tolist(), leftovers):
            self._retire(slot, flops_left, bytes_left)
        self.state = state.compress(alive, axis=1)
        self.keys = keys.compress(alive, axis=1)
        return True

    def _retire(self, slot: int, flops_left: float, bytes_left: float) -> None:
        launch, index, sm, tag, start_time, flops, nbytes, is_cuda, booked = self.ctas[slot]
        flops_done = flops - flops_left
        bytes_done = nbytes - bytes_left
        if is_cuda:
            self.cuda_flops_done += flops_done
        else:
            self.tensor_flops_done += flops_done
        self.bytes_done += bytes_done
        if flops_done or bytes_done:
            self.tag_flops[booked] += flops_done
            self.tag_bytes[booked] += bytes_done
            self.tag_seen[booked] = True
        self._release(sm, launch.footprint, booked)
        launch.completed += 1
        if self.record_ctas:
            self.records.append(
                CTARecord(
                    kernel=launch.kernel.name,
                    dispatch_index=index,
                    sm_id=sm,
                    tag=tag,
                    start_time=start_time,
                    end_time=self.time,
                    flops=flops,
                    dram_bytes=nbytes,
                )
            )
        if launch.finished and launch.end_time is None:
            launch.end_time = self.time
            self._unlock_successor(launch)

    def _unlock_successor(self, finished_state: _LaunchState) -> None:
        stream = finished_state.launch.stream
        for state in self.launches:
            if state.index <= finished_state.index or state.launch.stream != stream:
                continue
            if state.eligible_time is None:
                state.eligible_time = self.time + self.spec.kernel_launch_overhead
            break

    def run(self) -> ExecutionResult:
        # Idle CTAs divide by zero rates and counts; _step discards those quotients.
        with np.errstate(divide="ignore", invalid="ignore"):
            for _ in range(_MAX_EVENTS):
                if self._need_dispatch and not self._dispatch_ready_ctas():
                    # Nothing fits right now; retry only after a CTA retires or
                    # a new launch becomes eligible.
                    self._need_dispatch = False
                if self.state.shape[1] == 0:
                    pending = [
                        s.eligible_time
                        for s in self.launches
                        if not s.finished
                        and s.eligible_time is not None
                        and not s.fully_dispatched
                    ]
                    if not pending:
                        break
                    # With no CTA alive every SM is empty, and run() rejected any
                    # launch whose CTA fits no SM, so an eligible launch always
                    # dispatches on the retry.
                    next_time = min(pending)
                    if next_time > self.time + _TIME_EPS:
                        self.time = next_time
                    self._need_dispatch = True
                    continue
                previous_time = self.time
                if self._step():
                    self._need_dispatch = True
                if not self._need_dispatch:
                    for state in self.launches:
                        if (
                            state.eligible_time is not None
                            and not state.fully_dispatched
                            and previous_time < state.eligible_time <= self.time + _TIME_EPS
                        ):
                            self._need_dispatch = True
                            break
            else:  # pragma: no cover - safety net
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
        booked = [index for index, seen in enumerate(self.tag_seen) if seen]
        return ExecutionResult(
            total_time=total_time,
            kernels=kernels,
            compute_utilization=min(1.0, compute_util),
            memory_utilization=min(1.0, memory_util),
            flops_executed=self.tensor_flops_done + self.cuda_flops_done,
            bytes_moved=self.bytes_done,
            energy_joules=energy,
            tag_flops={_BOOKED_TAGS[index]: self.tag_flops[index] for index in booked},
            tag_bytes={_BOOKED_TAGS[index]: self.tag_bytes[index] for index in booked},
            colocation_fraction=colocation,
            avg_resident_ctas=self.resident_cta_seconds / total_time,
            cta_records=self.records,
        )
