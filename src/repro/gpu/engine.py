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
is dropped), and one vectorised pass per event computes the time to the next
event, the advance and the retirements.  Per-SM co-location and occupancy
counts are updated inline in the dispatch and retirement loops, and FLOP and
byte totals are booked when a CTA retires.  The dispatcher keeps SMs in
buckets by resident count, each in index order, and fills a launch by one
breadth-first scan over them that resumes after each pick where it stopped:
dispatch only consumes resources, so an SM the scan passed over still does
not fit, and the SM just picked moves up one bucket, where the scan reaches
it in index order.  Per CTA footprint it remembers where its last pick found
no SM; while few SMs have been released since, the next pick takes the least
(resident count, index) among those of them that fit instead of scanning.

A CTA's rates depend only on which compute and memory streams are active on
its SM and in the HBM pool, so the rate pass runs only when a column was added
or a compute or memory stream ended since the last pass, and it recomputes
only what that can change: the per-pipe sharing counts, the pool's split and
every CTA's compute and memory rates.  The step keeps the rest: it stores the
count of live streams whenever it changes (dispatch adds its new columns'),
and zeroes the fixed-time rate of each fixed latency that ends (a new column
starts at 1 if it has a fixed latency, else 0).  An event that ends only a
fixed latency, or only a launch-overhead gap, reuses the rates; an ended
stream's rate drops to 0, which the one ``fmin`` that finds the next event
skips.

Dispatch describes each distinct work object once per run: its column of
initial state, pipe, booking index, tag and totals, keyed by the object's id.
The description holds the object, so no other object can take that id while
the run lasts.  New columns are gathered from the descriptions' table, and a
CTA's entry in the alive list keeps a reference to its description instead of
copies of it.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.gpu.config import GPUSpec
from repro.gpu.cta import DECODE_TAG, PREFILL_TAG, CTAWork
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

#: What dispatch knows of one distinct work object: the object itself, its
#: column in the descriptions' table, its pipe's offset in the key space (0 for
#: tensor cores, ``num_sms`` for CUDA cores), booking index, record tag, FLOPs,
#: bytes and whether it runs on the CUDA pipe.
_Description = tuple[CTAWork, int, int, int, str, float, float, bool]


@dataclass
class _LaunchState:
    """Mutable progress tracking for one kernel launch."""

    launch: KernelLaunch
    index: int
    #: Threads, shared memory and registers one CTA occupies on its SM.
    footprint: tuple[int, int, int]
    #: The most of each an SM may already hold for one more CTA to fit.
    room: tuple[int, int, int]
    num_ctas: int
    dispatched: int = 0
    completed: int = 0
    #: When the launch may start dispatching: inf until its stream predecessor
    #: has retired every CTA.
    eligible_time: float = math.inf
    start_time: float | None = None
    end_time: float | None = None

    @property
    def kernel(self) -> Kernel:
        return self.launch.kernel


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
        self.launches = []
        for i, launch in enumerate(launches):
            kernel = launch.kernel
            threads = kernel.threads_per_cta
            shared_mem = kernel.shared_mem_per_cta
            registers = kernel.registers_per_thread * threads
            self.launches.append(
                _LaunchState(
                    launch=launch,
                    index=i,
                    footprint=(threads, shared_mem, registers),
                    room=(
                        spec.max_threads_per_sm - threads,
                        spec.shared_mem_per_sm - shared_mem,
                        spec.registers_per_sm - registers,
                    ),
                    num_ctas=kernel.num_ctas,
                )
            )
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
        # min((resident count, index)) is the first bucket entry that fits.  The
        # first ``open_levels`` buckets hold the SMs with a free CTA slot.
        total_ctas = sum(state.num_ctas for state in self.launches)
        most_resident = min(spec.max_ctas_per_sm, total_ctas)
        self.buckets: list[list[int]] = [list(range(num_sms))]
        self.buckets += [[] for _ in range(most_resident)]
        self.open_levels = min(spec.max_ctas_per_sm, len(self.buckets))
        # SM ids in release order, and per footprint the length of that log when
        # a pick last found no SM: dispatch only consumes resources, so only SMs
        # released since then can fit that footprint.
        self.released: list[int] = []
        self.failed_at: dict[tuple[int, int, int], int] = {}

        # Each distinct work object dispatched so far, by id, and the table of
        # their initial state columns (grown geometrically, so describing D
        # works copies O(D) floats).
        self.described: dict[int, _Description] = {}
        self.table = np.zeros((10, 8))

        # Alive CTAs, one column each, in dispatch order.  Rows of ``state``:
        # 0-2 remaining FLOPs, bytes and fixed time; 3-4 the compute and memory
        # throughput shared on the CTA's SM (its pipe's peak, and the last rate
        # pass's per-SM bandwidth); 5-6 the CTA's compute and memory caps; 7-9
        # its rates (fixed time drains at 1 until it ends, when the step zeroes
        # it).  Rows of ``keys``: the CTA's compute pipe (SM id, + num_sms on the
        # CUDA pipe) and memory port (SM id + 2 * num_sms) in one count space.
        # ``active`` marks which of rows 0-2 are still outstanding.
        self.state = np.zeros((10, 0))
        self.keys = np.zeros((2, 0), dtype=np.int64)
        self.active = np.zeros((3, 0), dtype=bool)
        # Whether a column was added or a compute or memory stream ended since
        # the last rate pass, and how many compute and memory streams are live.
        self.rates_stale = True
        self.live_streams = 0
        # Per column: launch, dispatch index, SM, description, start time.
        self.alive_ctas: list[tuple[_LaunchState, int, int, _Description, float]] = []

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

        # Eligible launches with CTAs left to dispatch, in launch order.
        self.waiting: list[_LaunchState] = []
        seen_streams: set[int] = set()
        for state in self.launches:
            stream = state.launch.stream
            if stream not in seen_streams:
                state.eligible_time = spec.kernel_launch_overhead
                seen_streams.add(stream)
                self.waiting.append(state)

    # ------------------------------------------------------------- dispatch

    def _describe(self, work: object, kernel: Kernel, index: int) -> _Description:
        """Describe a work object on its first dispatch in this run.

        Anything but a :class:`CTAWork` (a binder's bad return) is rejected
        here, once per distinct object, naming the kernel and the CTA.
        """
        if not isinstance(work, CTAWork):
            raise TypeError(
                f"kernel {kernel.name!r}: CTA {index} was given a "
                f"{type(work).__name__}, not a CTAWork"
            )
        is_cuda = work.meta.get("pipe", "tensor") == "cuda"
        peak = self.cuda_peak if is_cuda else self.tensor_peak
        flops, nbytes = float(work.flops), float(work.dram_bytes)
        fixed = float(work.fixed_time)
        column = len(self.described)
        if column == self.table.shape[1]:
            self.table = np.concatenate((self.table, np.empty_like(self.table)), axis=1)
        self.table[:, column] = (
            flops,
            nbytes,
            fixed,
            peak,
            0.0,
            work.max_compute_fraction * peak,
            work.max_mem_fraction * self.spec.sm_mem_bandwidth,
            0.0,
            0.0,
            1.0 if fixed > _EPS else 0.0,
        )
        description = (
            work,
            column,
            self.num_sms if is_cuda else 0,
            _BOOKING.get(work.tag, _UNTAGGED),
            work.tag or "untagged",
            flops,
            nbytes,
            is_cuda,
        )
        self.described[id(work)] = description
        return description

    def _dispatch_ready_ctas(self) -> None:
        """Fill each eligible launch, in launch order, until its next CTA fits nowhere.

        A launch is filled by one breadth-first scan over the open buckets,
        resumed after each pick (see the module docstring).  Dispatch only
        consumes SM resources, so a launch that stops fitting stays unfit for
        the rest of the pass: this dispatches exactly what a launch scan
        restarted after every CTA (earlier launches first) would.
        """
        now = self.time
        horizon = now + _TIME_EPS
        described, alive_ctas = self.described, self.alive_ctas
        num_sms = self.num_sms
        port_offset = 2 * num_sms
        max_ctas = self.spec.max_ctas_per_sm
        resident, buckets = self.resident, self.buckets
        threads, shared_mem, registers = self.threads, self.shared_mem, self.registers
        prefill_ctas, decode_ctas = self.prefill_ctas, self.decode_ctas
        open_levels = self.open_levels
        released, failed_at = self.released, self.failed_at
        occupied, colocated = self.occupied_sms, self.colocated_sms
        columns: list[int] = []
        pipes: list[int] = []
        ports: list[int] = []
        for state in self.waiting:
            if state.eligible_time > horizon:
                continue
            kernel = state.kernel
            binder, static = kernel.binder, kernel.ctas
            footprint = state.footprint
            cta_threads, cta_shared_mem, cta_registers = footprint
            thread_room, shared_room, register_room = state.room
            failed = failed_at.get(footprint)
            # Only SMs released since this footprint last fit nowhere can fit it.
            retest = (
                released[failed:]
                if failed is not None and len(released) - failed <= _MAX_RETEST
                else None
            )
            level = position = 0
            index = state.dispatched
            while index < state.num_ctas:
                sm = -1
                if retest is not None:
                    # The least (resident count, index) among the fitting ones;
                    # a key below max_ctas * num_sms has a free CTA slot.
                    least = max_ctas * num_sms
                    for candidate in retest:
                        key = resident[candidate] * num_sms + candidate
                        if (
                            key < least
                            and threads[candidate] <= thread_room
                            and shared_mem[candidate] <= shared_room
                            and registers[candidate] <= register_room
                        ):
                            least, sm = key, candidate
                    if sm < 0:
                        break
                    count = resident[sm]
                    buckets[count].remove(sm)
                else:
                    # Resume the scan at (level, position).
                    while level < open_levels:
                        bucket = buckets[level]
                        while position < len(bucket):
                            candidate = bucket[position]
                            if (
                                threads[candidate] <= thread_room
                                and shared_mem[candidate] <= shared_room
                                and registers[candidate] <= register_room
                            ):
                                sm = candidate
                                break
                            position += 1
                        if sm >= 0:
                            break
                        level += 1
                        position = 0
                    if sm < 0:
                        break
                    count = level
                    del bucket[position]
                work = static[index] if binder is None else binder(sm, index)
                description = described.get(id(work)) or self._describe(work, kernel, index)
                _, column, pipe_offset, booked, _, _, _, _ = description
                # Admit: the SM moves up one bucket, kept in index order.
                resident[sm] = count + 1
                bisect.insort(buckets[count + 1], sm)
                if count == 0:
                    occupied += 1
                threads[sm] += cta_threads
                shared_mem[sm] += cta_shared_mem
                registers[sm] += cta_registers
                if booked == _PREFILL:
                    if prefill_ctas[sm] == 0 and decode_ctas[sm] > 0:
                        colocated += 1
                    prefill_ctas[sm] += 1
                elif booked == _DECODE:
                    if decode_ctas[sm] == 0 and prefill_ctas[sm] > 0:
                        colocated += 1
                    decode_ctas[sm] += 1
                columns.append(column)
                pipes.append(sm + pipe_offset)
                ports.append(sm + port_offset)
                alive_ctas.append((state, index, sm, description, now))
                index += 1
            if index < state.num_ctas:
                failed_at[footprint] = len(released)
            if index > state.dispatched and state.start_time is None:
                state.start_time = now
            state.dispatched = index
        self.occupied_sms, self.colocated_sms = occupied, colocated
        if not columns:
            return
        self.waiting = [state for state in self.waiting if state.dispatched < state.num_ctas]
        new = self.table.take(columns, axis=1)
        keys = np.array((pipes, ports), dtype=np.int64)
        outstanding = new[:3] > _EPS
        self.state = np.concatenate((self.state, new), axis=1)
        self.keys = np.concatenate((self.keys, keys), axis=1)
        self.active = np.concatenate((self.active, outstanding), axis=1)
        self.live_streams += int(np.count_nonzero(outstanding[:2]))
        self.rates_stale = True

    # ------------------------------------------------------------------ loop

    def _step(self) -> bool:
        """One event: rates if stale, time to the next event, advance, retirement.

        Returns whether any CTA retired.
        """
        state, active = self.state, self.active
        remaining = state[:3]
        rate = state[7:]
        if self.rates_stale:
            self._rate_pass()
        # An ended stream's rate is 0, so its quotient is nan (0/0) or inf, and
        # fmin skips it.
        dt = float(np.fmin.reduce(remaining / rate, axis=None))
        # A launch waiting only on its launch-overhead gap can also be the next event.
        # (The gap goes first: when every alive CTA is work-free, dt is nan.)
        for launch in self.waiting:
            if launch.eligible_time > self.time + _TIME_EPS:
                dt = min(launch.eligible_time - self.time, dt)
        if not math.isfinite(dt):
            raise RuntimeError("simulation stalled: residents exist but nothing progresses")

        self.colocated_sm_seconds += self.colocated_sms * dt
        self.active_sm_seconds += self.occupied_sms * dt
        self.resident_cta_seconds += remaining.shape[1] * dt
        remaining -= np.minimum(remaining, rate * dt)
        self.time += dt

        np.greater(remaining, _EPS, out=active)
        # An ended fixed time stops draining; an ended compute or memory stream
        # makes the rates stale, and the next pass zeroes its rate.
        rate[2] = active[2]
        live_streams = np.count_nonzero(active[:2])
        if live_streams != self.live_streams:
            # A compute or memory stream ended: its SM and pool shares changed.
            self.live_streams = live_streams
            self.rates_stale = True
        alive = active.any(axis=0)
        if np.count_nonzero(alive) == alive.size:
            return False
        self._retire_finished(alive)
        return True

    def _rate_pass(self) -> None:
        """Every alive CTA's compute and memory rates under the current activity."""
        spec = self.spec
        num_sms = self.num_sms
        state, keys, active = self.state, self.keys, self.active
        # Compute- and memory-active residents per pipe and per SM memory port.
        streams = active[:2].astype(np.float64)
        sharing = np.bincount(keys.ravel(), streams.ravel(), 3 * num_sms)
        # Memory: the equal-cap max-min split of the HBM pool over the SMs with
        # memory-active residents, which then share their SM's draw.
        active_sms = int(np.count_nonzero(sharing[2 * num_sms :]))
        if active_sms:
            state[4] = min(spec.sm_mem_bandwidth, spec.hbm_bandwidth / active_sms)
        # Each active CTA gets an equal share of its SM's throughput, up to its
        # cap; an idle one gets 0 (an idle pipe's share is inf or nan, fmin
        # drops the nan and the cap times 0 is 0).
        np.multiply(np.fmin(state[3:5] / sharing[keys], state[5:7]), streams, out=state[7:9])
        self.rates_stale = False

    def _retire_finished(self, alive: np.ndarray) -> None:
        """Retire the CTAs whose columns ``alive`` drops, in dispatch order, and drop them.

        Each retiring CTA books what it did (its totals less what is left, at
        most ``_EPS``), frees its SM (which moves down one bucket) and logs the
        SM in ``released``.
        """
        state = self.state
        finished = (~alive).nonzero()[0]
        leftovers = state[:2].take(finished, axis=1).T.tolist()
        columns = finished.tolist()
        alive_ctas, now = self.alive_ctas, self.time
        resident, buckets, released = self.resident, self.buckets, self.released
        threads, shared_mem, registers = self.threads, self.shared_mem, self.registers
        prefill_ctas, decode_ctas = self.prefill_ctas, self.decode_ctas
        occupied, colocated = self.occupied_sms, self.colocated_sms
        tag_flops, tag_bytes, tag_seen = self.tag_flops, self.tag_bytes, self.tag_seen
        tensor_done = self.tensor_flops_done
        cuda_done = self.cuda_flops_done
        bytes_done = self.bytes_done
        for column, (flops_left, bytes_left) in zip(columns, leftovers):
            launch, index, sm, description, start_time = alive_ctas[column]
            _, _, _, booked, tag, flops, nbytes, is_cuda = description
            flops_done = flops - flops_left
            moved = nbytes - bytes_left
            if is_cuda:
                cuda_done += flops_done
            else:
                tensor_done += flops_done
            bytes_done += moved
            if flops_done or moved:
                tag_flops[booked] += flops_done
                tag_bytes[booked] += moved
                tag_seen[booked] = True
            # Release: the SM moves down one bucket, kept in index order.
            count = resident[sm] - 1
            resident[sm] = count
            buckets[count + 1].remove(sm)
            bisect.insort(buckets[count], sm)
            if count == 0:
                occupied -= 1
            cta_threads, cta_shared_mem, cta_registers = launch.footprint
            threads[sm] -= cta_threads
            shared_mem[sm] -= cta_shared_mem
            registers[sm] -= cta_registers
            if booked == _PREFILL:
                prefill_ctas[sm] -= 1
                if prefill_ctas[sm] == 0 and decode_ctas[sm] > 0:
                    colocated -= 1
            elif booked == _DECODE:
                decode_ctas[sm] -= 1
                if decode_ctas[sm] == 0 and prefill_ctas[sm] > 0:
                    colocated -= 1
            released.append(sm)
            launch.completed += 1
            if self.record_ctas:
                self.records.append(
                    CTARecord(
                        kernel=launch.kernel.name,
                        dispatch_index=index,
                        sm_id=sm,
                        tag=tag,
                        start_time=start_time,
                        end_time=now,
                        flops=flops,
                        dram_bytes=nbytes,
                    )
                )
            if launch.completed == launch.num_ctas:
                launch.end_time = now
                self._unlock_successor(launch)
        self.occupied_sms, self.colocated_sms = occupied, colocated
        self.tensor_flops_done = tensor_done
        self.cuda_flops_done = cuda_done
        self.bytes_done = bytes_done
        for column in reversed(columns):
            del alive_ctas[column]
        kept = alive.nonzero()[0]
        self.state = state.take(kept, axis=1)
        self.keys = self.keys.take(kept, axis=1)
        self.active = self.active.take(kept, axis=1)

    def _unlock_successor(self, finished_state: _LaunchState) -> None:
        stream = finished_state.launch.stream
        for state in self.launches:
            if state.index <= finished_state.index or state.launch.stream != stream:
                continue
            if state.eligible_time == math.inf:
                state.eligible_time = self.time + self.spec.kernel_launch_overhead
                bisect.insort(self.waiting, state, key=lambda waiting: waiting.index)
            break

    def run(self) -> ExecutionResult:
        # Idle CTAs divide by zero rates and counts; _step discards those quotients.
        with np.errstate(divide="ignore", invalid="ignore"):
            for _ in range(_MAX_EVENTS):
                if self._need_dispatch:
                    # A pass fills every eligible launch until its next CTA fits
                    # nowhere; retry only after a CTA retires or a new launch
                    # becomes eligible.
                    if self.waiting:
                        self._dispatch_ready_ctas()
                    self._need_dispatch = False
                if self.state.shape[1] == 0:
                    pending = [s.eligible_time for s in self.waiting]
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
                    continue
                for state in self.waiting:
                    if previous_time < state.eligible_time <= self.time + _TIME_EPS:
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
                num_ctas=state.num_ctas,
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
