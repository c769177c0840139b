"""The benchmark's four seeded workloads.

Each workload turns ``--seed`` into inputs through ``repro``'s public entry
points (``repro.workloads`` traces, the ``repro.bench.sweeps`` batch grid),
builds the system under test, and runs one *pass*: the unit the benchmark
repeats, times and checks.  An *operation* is one executor run (kernel-sweep)
or one ``ClusterSimulator.run`` (the serving workloads); every operation is
checked as soon as its timer stops, outside the timed region.

Shared constants follow the paper's main setup: Llama-3-8B on one A100.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import time
from abc import ABC, abstractmethod
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any

import numpy as np

from repro.attention.executors import FAHFuse, FASerial, FAStreams, FIBatched, FISerial
from repro.attention.metrics import theoretical_minimum_time
from repro.bench.control_rows import fig20_control
from repro.bench.sweeps import figure11_sweep
from repro.cluster import (
    ClusterSimulator,
    ColocatedTopology,
    ControlPlane,
    topology_from_spec,
)
from repro.core.pod_kernel import PODAttention
from repro.gpu.engine import ExecutionEngine
from repro.models.config import ClusterSpec, paper_deployment
from repro.serving.kv_cache import KVCacheConfig, KVCacheStats
from repro.serving.request import Request
from repro.serving.scheduler_sarathi import SarathiScheduler
from repro.utils.stats import percentile
from repro.verify import EventRecorder, check_event_log, check_kv_drain_balance
from repro.workloads import build_scenario

MODEL = "llama-3-8b"
CHUNK_SIZE = 1024

#: Timed calls read the process's CPU clock: the work is single-threaded and
#: CPU-bound, and on a shared host the CPU clock leaves out the time other
#: tenants' processes hold the core.
CLOCK = time.process_time


def digest(payload: Any) -> str:
    """Stable short hash of a JSON-serialisable payload."""
    text = json.dumps(payload, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@dataclass
class PassResult:
    """What one pass did: per-operation host times plus the checked outputs.

    Every operation that returned is timed, even when its output check then
    fails; ``failed`` counts the operations that raised or failed a check.
    """

    attempted: int = 0
    op_seconds: list[float] = field(default_factory=list)
    #: Simulated units per operation: CTAs (kernel-sweep) or replica iterations.
    units: int = 0
    offered: int = 0
    #: Prompt tokens of the offered requests (serving workloads).
    prompt_tokens: int = 0
    finished: int = 0
    shed: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    outputs: list[Any] = field(default_factory=list)
    kv_stats: KVCacheStats = field(default_factory=KVCacheStats)

    @property
    def output_digest(self) -> str:
        return digest(self.outputs)

    def fail(self, problem: str) -> None:
        self.failed += 1
        self.problems.append(problem)


class Workload(ABC):
    """One seeded workload: inputs from a seed, a system, and a checked pass."""

    name: str
    #: What one finished (or shed) operation item is, for printed rates.
    items: str

    @abstractmethod
    def inputs(self, seed: int) -> Any:
        """Generate this workload's inputs; a pure function of ``seed``."""

    @abstractmethod
    def input_digest(self, inputs: Any) -> str:
        """Hash of the generated inputs (equal seeds must give equal hashes)."""

    @abstractmethod
    def build(self) -> Any:
        """Build the deployment, fleet and engines one pass runs on."""

    @abstractmethod
    def run_pass(self, system: Any, inputs: Any) -> PassResult:
        """Run, time and check one pass over ``inputs``."""

    def final_checks(self, seed: int, inputs: Any, first: PassResult, root: Path) -> list[str]:
        """Untimed whole-run checks (reference baselines, recorded invariants).

        ``first`` is the run's first checked pass; ``root`` the checkout root.
        """
        return []


# ---------------------------------------------------------------- kernel-sweep

#: The executors of Figure 11, FA_Serial first (it is every speedup's baseline).
EXECUTORS = (FASerial, FAStreams, FAHFuse, FISerial, FIBatched, PODAttention)
#: Figure 11's mechanisms in its CSV row order.
FIG11_MECHANISMS = {
    "FA_Streams": FAStreams,
    "FI_Serial": FISerial,
    "FI_Batched": FIBatched,
    "FA_HFuse": FAHFuse,
    "POD": PODAttention,
}
FIG11_MAX_POINTS = 24
#: Context lengths drawn per (chunk size, decode batch size) cell of the grid.
CONTEXTS_PER_CELL = 2


@dataclass
class KernelSystem:
    deployment: Any
    engine: ExecutionEngine


def fig11_summary_csv(deployment: Any, engine: ExecutionEngine) -> str:
    """Figure 11's speedup summary over its own 24-point sample, as CSV text.

    Mirrors ``benchmarks/test_fig11_speedup_distribution.py`` row for row so
    the result can be compared byte for byte with the committed CSV.
    """
    speedups: dict[str, list[float]] = {name: [] for name in FIG11_MECHANISMS}
    energy_savings: list[float] = []
    near_optimal = 0
    points = figure11_sweep(max_points=FIG11_MAX_POINTS, seed=0)
    for point in points:
        batch = point.to_batch()
        serial = FASerial().run(deployment, batch, engine)
        bound = theoretical_minimum_time(deployment, batch)
        for name, factory in FIG11_MECHANISMS.items():
            result = factory().run(deployment, batch, engine)
            speedups[name].append(result.speedup_over(serial) * 100)
            if name == "POD":
                energy_savings.append((1.0 - result.energy_joules / serial.energy_joules) * 100)
                if result.total_time <= bound * 1.1:
                    near_optimal += 1
    rows: list[dict[str, Any]] = []
    for name, values in speedups.items():
        rows.append(
            {
                "mechanism": name,
                "min_pct": round(min(values), 1),
                "p25_pct": round(percentile(values, 25), 1),
                "median_pct": round(percentile(values, 50), 1),
                "p75_pct": round(percentile(values, 75), 1),
                "max_pct": round(max(values), 1),
                "mean_pct": round(sum(values) / len(values), 1),
            }
        )
    rows.append(
        {
            "mechanism": "POD energy savings",
            "min_pct": round(min(energy_savings), 1),
            "median_pct": round(percentile(energy_savings, 50), 1),
            "max_pct": round(max(energy_savings), 1),
            "mean_pct": round(sum(energy_savings) / len(energy_savings), 1),
        }
    )
    rows.append(
        {
            "mechanism": "POD within 10% of theoretical peak",
            "mean_pct": round(100 * near_optimal / len(points), 1),
        }
    )
    buffer = io.StringIO(newline="")
    writer = csv.DictWriter(buffer, fieldnames=list(rows[0]))
    writer.writeheader()
    writer.writerows(rows)
    return buffer.getvalue()


class KernelSweep(Workload):
    """The §5.1 hybrid-batch grid through all six attention executors.

    The only workload that runs the event-driven GPU engine; an operation is
    one executor run (build launches + simulate) on a shared engine.
    """

    name = "kernel-sweep"
    items = "executor runs"

    def inputs(self, seed: int) -> list[Any]:
        # A plain 24-of-90 draw (figure11_sweep's max_points) moves the sweep's
        # host cost by about 25% between seeds, because chunk size and batch
        # size set a batch's CTA count.  Drawing the contexts inside every
        # (chunk, batch size) cell keeps each seed's cost within a few percent.
        rng = np.random.default_rng(seed)
        cells: dict[tuple[int, int], list[Any]] = {}
        for point in figure11_sweep():
            cells.setdefault((point.chunk_size, point.decode_batch_size), []).append(point)
        chosen = []
        for key in sorted(cells):
            picks = rng.choice(len(cells[key]), size=CONTEXTS_PER_CELL, replace=False)
            chosen.extend(cells[key][int(index)] for index in sorted(picks))
        return [point.to_batch() for point in chosen]

    def input_digest(self, inputs: list[Any]) -> str:
        return digest(
            [
                (
                    [(chunk.chunk_tokens, chunk.prior_tokens) for chunk in batch.prefills],
                    [decode.context_tokens for decode in batch.decodes],
                )
                for batch in inputs
            ]
        )

    def build(self) -> KernelSystem:
        deployment = paper_deployment(MODEL)
        return KernelSystem(deployment, ExecutionEngine(deployment.gpu, record_ctas=False))

    def run_pass(self, system: KernelSystem, inputs: list[Any]) -> PassResult:
        result = PassResult()
        for index, batch in enumerate(inputs):
            for factory in EXECUTORS:
                executor = factory()
                label = f"batch {index} {executor.name}"
                result.offered += 1
                result.attempted += 1
                try:
                    start = CLOCK()
                    run = executor.run(system.deployment, batch, system.engine)
                    seconds = CLOCK() - start
                except Exception as error:  # a failed run is counted, not fatal
                    result.fail(f"{label} raised {error!r}")
                    continue
                result.op_seconds.append(seconds)
                result.units += sum(k.num_ctas for k in run.execution.kernels)
                problem = check_kernel_run(run)
                if problem:
                    result.fail(f"{label}: {problem}")
                    continue
                result.finished += 1
                result.outputs.append(
                    (executor.name, run.total_time, run.energy_joules, run.colocation_fraction)
                )
        return result

    def final_checks(
        self, seed: int, inputs: list[Any], first: PassResult, root: Path
    ) -> list[str]:
        if seed != 0:
            return []
        system = self.build()
        # read_bytes: the committed CSV keeps the csv module's CRLF line ends.
        expected = (root / "results" / "fig11_speedup_distribution.csv").read_bytes().decode()
        actual = fig11_summary_csv(system.deployment, system.engine)
        if actual != expected:
            return ["fig11 speedup summary differs from results/fig11_speedup_distribution.csv"]
        return []


def check_kernel_run(run: Any) -> str | None:
    """Output check of one executor run; returns the problem, or None."""
    execution = run.execution
    if not (math.isfinite(run.total_time) and run.total_time > 0):
        return f"non-positive simulated time {run.total_time!r}"
    utilizations = (execution.compute_utilization, execution.memory_utilization)
    if not all(0.0 <= value <= 1.0 for value in utilizations):
        return f"utilization {utilizations!r} outside [0, 1]"
    if any(not 0.0 <= k.start_time <= k.end_time <= run.total_time for k in execution.kernels):
        return "a kernel runs outside the simulated span"
    tagged = sum(execution.tag_flops.values())
    if abs(tagged - execution.flops_executed) > 1e-9 * execution.flops_executed:
        return f"per-tag FLOPs {tagged!r} do not add up to {execution.flops_executed!r}"
    return None


# ----------------------------------------------------------- serving workloads


class ServingWorkload(Workload):
    """A seeded scenario trace served by one ``ClusterSimulator``."""

    items = "requests"
    scenario: str
    num_requests: int
    qps: float
    #: Whether admission control may shed requests (shed is then not a failure).
    sheds: bool = False
    #: Run the recorded-event invariant checks once per invocation.
    check_events: bool = False

    def inputs(self, seed: int) -> list[Request]:
        return build_scenario(
            self.scenario, num_requests=self.num_requests, seed=seed, qps=self.qps
        )

    def input_digest(self, inputs: list[Request]) -> str:
        return digest(
            [
                (
                    r.request_id,
                    r.arrival_time,
                    r.prefill_tokens,
                    r.decode_tokens,
                    r.tenant,
                    r.prefix_id,
                    r.prefix_tokens,
                )
                for r in inputs
            ]
        )

    @abstractmethod
    def simulator(self, recorder: EventRecorder | None = None) -> ClusterSimulator:
        """The workload's fleet, freshly built."""

    def build(self) -> ClusterSimulator:
        return self.simulator()

    def run_pass(self, system: ClusterSimulator, inputs: list[Request]) -> PassResult:
        result = PassResult(
            attempted=1, offered=len(inputs), prompt_tokens=sum(r.prefill_tokens for r in inputs)
        )
        try:
            start = CLOCK()
            run = system.run(inputs)
            seconds = CLOCK() - start
        except Exception as error:  # a failed run is counted, not fatal
            result.fail(f"{self.name} simulation raised {error!r}")
            return result
        result.op_seconds.append(seconds)
        result.units = sum(replica.steps_executed for replica in system.replicas)
        result.kv_stats = run.kv_stats
        finished = sum(1 for r in run.requests if r.is_finished)
        shed = sum(1 for r in run.requests if r.is_rejected)
        result.finished, result.shed = finished, shed
        problem = None
        if finished + shed != len(inputs):
            problem = f"offered {len(inputs)} != finished {finished} + shed {shed}"
        elif shed and not self.sheds:
            problem = f"{shed} requests shed without admission control"
        elif run.metrics.fleet.num_offered != len(inputs):
            problem = f"metrics count {run.metrics.fleet.num_offered} offered requests"
        if problem:
            result.fail(f"{self.name}: {problem}")
            return result
        result.outputs = self.outputs(run)
        return result

    @staticmethod
    def outputs(run: Any) -> list[Any]:
        """The simulated results a pass is checked and digested on."""
        return [
            run.metrics.as_row(),
            run.metrics.control_row(),
            run.kv_stats.as_row(),
            [
                (r.request_id, r.state.value, r.first_token_time, r.finish_time)
                for r in run.requests
            ],
        ]

    def final_checks(
        self, seed: int, inputs: list[Request], first: PassResult, root: Path
    ) -> list[str]:
        if not self.check_events:
            return []
        recorder = EventRecorder()
        simulator = self.simulator(recorder)
        run = simulator.run(inputs)
        violations = check_event_log(recorder) + check_kv_drain_balance(simulator.replicas)
        problems = [f"{self.name} recorded run: {violation}" for violation in violations[:5]]
        if first.outputs and digest(self.outputs(run)) != first.output_digest:
            problems.append(f"{self.name}: recording events changed the simulated results")
        return problems


class FleetArxiv(ServingWorkload):
    """32 colocated replicas with shallow batches (Figure 18's largest point).

    Host time goes to fixed per-step costs and the cluster event loop: a
    32-way load snapshot per arrival; the KV manager and control plane idle.
    """

    name = "fleet-arxiv"
    scenario = "arxiv-summarization"
    num_requests = 512
    qps = 27.2
    #: The seed whose trace equals Figure 18's, and the row it must reproduce.
    fig18_seed = 17
    fig18_key = {"topology": "colocated", "router": "prefill-aware", "replicas": "32"}

    def simulator(self, recorder: EventRecorder | None = None) -> ClusterSimulator:
        spec = ClusterSpec(paper_deployment(MODEL), num_replicas=32, topology="colocated")
        topology = topology_from_spec(spec, chunk_size=CHUNK_SIZE, backend="pod")
        return ClusterSimulator(topology, router="prefill-aware", recorder=recorder)

    def final_checks(
        self, seed: int, inputs: list[Request], first: PassResult, root: Path
    ) -> list[str]:
        if seed != self.fig18_seed or not first.outputs:
            return []
        with (root / "results" / "fig18_fleet_scaling.csv").open(newline="") as handle:
            rows = [
                row
                for row in csv.DictReader(handle)
                if all(row[key] == value for key, value in self.fig18_key.items())
            ]
        row = first.outputs[0]
        if len(rows) != 1 or any(rows[0][key] != str(value) for key, value in row.items()):
            return ["fleet-arxiv differs from the committed fig18 32-replica prefill-aware row"]
        return []


class ChatKVPressure(ServingWorkload):
    """One replica under KV pressure: deep decode batches, preemption, eviction.

    The scenario's own 5 QPS barely preempts; 12 QPS into a 16K-token cache
    keeps the scheduler's preemption path and the KV manager busy.
    """

    name = "chat-kv-pressure"
    scenario = "shared-prefix-chat"
    num_requests = 1024
    qps = 12.0
    check_events = True

    def simulator(self, recorder: EventRecorder | None = None) -> ClusterSimulator:
        topology = ColocatedTopology(
            paper_deployment(MODEL),
            num_replicas=1,
            scheduler_factory=lambda: SarathiScheduler(chunk_size=CHUNK_SIZE, preemption=True),
            kv_config=KVCacheConfig(
                capacity_tokens=16384, block_size=16, enable_prefix_caching=True
            ),
        )
        return ClusterSimulator(topology, router="least-tokens", recorder=recorder)


class SurgeElastic(ServingWorkload):
    """Figure 20's elastic fleet (autoscaling + tiered shedding) under a 3x surge.

    The only workload that runs ``repro.cluster.control``; its mixed tenant
    shapes also miss the attention memo the most.
    """

    name = "surge-elastic"
    scenario = "surge-multi-tenant"
    num_requests = 1024
    qps = 8.0
    sheds = True
    check_events = True
    max_replicas = 16

    def simulator(self, recorder: EventRecorder | None = None) -> ClusterSimulator:
        spec = ClusterSpec(paper_deployment(MODEL), num_replicas=2, topology="colocated")
        topology = topology_from_spec(spec, chunk_size=CHUNK_SIZE, backend="pod")
        fig20 = fig20_control("autoscale+shed")
        control = ControlPlane(
            autoscaler=replace(fig20.autoscaler, max_replicas=self.max_replicas),
            admission=fig20.admission,
        )
        return ClusterSimulator(
            topology, router="least-tokens", recorder=recorder, control=control
        )


WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (KernelSweep(), FleetArxiv(), ChatKVPressure(), SurgeElastic())
}
