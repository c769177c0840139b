"""Host-cost benchmark of the POD-Attention reproduction.

Run from the root of a checkout:

    python3 perfbench/run.py --workload fleet-arxiv --seed 1 --seconds 10 --trace 0

Each workload (see ``workloads.py``) is a batch job in this one process, on
one thread.  ``--trace 0`` repeats whole passes until ``--seconds`` have
passed and reports the end-to-end metrics; ``--trace 1`` runs one pass as
is, then one with every layer's public calls wrapped in spans
(``tracing.py``), and reports the per-layer metrics plus the tracing
overhead.  Either way every operation's output is checked, and the last
line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Any

import checkout
from hostspeed import HostSpeed

#: Fresh processes timed for ``setup_s``.
SETUP_PROBES = 5

#: Every workload reports all of them (definitions in LAYERS.md).  Host time
#: is per simulated unit, not per request: requests and sweep points differ
#: in work from seed to seed, a simulated unit much less.
END_TO_END = {
    # Host CPU microseconds of the timed calls per simulated CTA (kernel-sweep)
    # or replica iteration (serving workloads), scaled to nominal host speed.
    "host_us_per_unit": "us",
    # Median over fresh processes of the time before the first timed call.
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}

PER_LAYER = {
    "gpu.runs": "count",
    "gpu.ctas": "count",
    "gpu.self_s": "s",
    "gpu.us_per_cta": "us",
    "kernels.builds": "count",
    "kernels.self_s": "s",
    "analytic.calls": "count",
    "analytic.self_s": "s",
    "memo.lookups": "count",
    "memo.misses": "count",
    "memo.hit_rate": "ratio",
    "memo.self_s": "s",
    "models.calls": "count",
    "models.self_s": "s",
    "engine.calls": "count",
    "engine.self_s": "s",
    "engine.decodes_per_step": "count",
    "scheduler.calls": "count",
    "scheduler.self_s": "s",
    "scheduler.preemptions": "count",
    "scheduler.recompute_share": "ratio",
    "scheduler.kv_blocked_share": "ratio",
    "kv.calls": "count",
    "kv.self_s": "s",
    "kv.prefix_hit_rate": "ratio",
    "kv.evictions": "count",
    "replica.steps": "count",
    "replica.self_s": "s",
    "router.calls": "count",
    "router.self_s": "s",
    "control.calls": "count",
    "control.self_s": "s",
    "control.shed_share": "ratio",
    "control.scale_ups": "count",
    "cluster.self_s": "s",
    "cluster.us_per_step": "us",
    "cluster.metrics_s": "s",
    "setup.trace_s": "s",
    "setup.fleet_s": "s",
    "setup.replicas_built": "count",
    "bench.self_s": "s",
    "trace.untraced_s": "s",
    "trace.traced_s": "s",
    "trace.overhead_pct": "%",
}

def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure_setup(workload: str, seed: int) -> list[tuple[float, float]]:
    """(set-up seconds, host slowdown) of fresh probe processes, run one at a time."""
    command = [sys.executable, str(Path(__file__).with_name("probe.py")), workload, str(seed)]
    samples = []
    for _ in range(SETUP_PROBES):
        probe = subprocess.run(
            command, capture_output=True, text=True, timeout=120, check=True, env=os.environ
        )
        result = json.loads(probe.stdout.splitlines()[-1])
        samples.append((result["setup_s"], result["slowdown"]))
    return samples


def host_us_per_unit(result: Any) -> float:
    return ratio(sum(result.op_seconds) * 1e6, result.units)


def timed_run(workload: Any, args: argparse.Namespace) -> tuple[dict, list, list[str]]:
    inputs = workload.inputs(args.seed)
    setup = measure_setup(workload.name, args.seed)
    passes, slowdowns = [], []
    start = time.perf_counter()
    with HostSpeed() as speed:
        while True:
            mark = len(speed.samples)
            passes.append(workload.run_pass(workload.build(), inputs))
            slowdowns.append(speed.slowdown(start=mark))
            if time.perf_counter() - start >= args.seconds:
                break
    rss = peak_rss_mb()
    problems = outcome_problems(passes) + final_checks(workload, args.seed, inputs, passes[0])

    good = [(p, slowdown) for p, slowdown in zip(passes, slowdowns) if p.op_seconds]
    if not good:
        raise SystemExit(f"perfbench: every operation failed: {problems[:3]}")
    metrics = {
        "host_us_per_unit": statistics.median(host_us_per_unit(p) / f for p, f in good),
        "setup_s": statistics.median(seconds / slowdown for seconds, slowdown in setup),
        "peak_rss_mb": rss,
    }
    seconds = [s for p, _ in good for s in p.op_seconds]
    items = sum(p.finished + p.shed for p, _ in good)
    print(
        f"{workload.name} seed {args.seed}: {len(passes)} pass(es), {len(seconds)} timed "
        f"operations, {sum(seconds):.2f} host CPU s, {items / sum(seconds):.2f} "
        f"{workload.items} per host CPU s"
    )
    # The highest whole percentile with at least ten operations beyond it.
    tail = int(100 * (1 - 10 / len(seconds)))
    if tail > 50:
        cuts = statistics.quantiles(seconds, n=100)
        print(
            f"  operation host time: p50 {statistics.median(seconds) * 1e3:.2f} ms, "
            f"p{tail} {cuts[tail - 1] * 1e3:.2f} ms over {len(seconds)} operations"
        )
    raw = statistics.median(host_us_per_unit(p) for p, _ in good)
    print(
        f"  host slowdown per pass: {' '.join(f'{f:.3f}' for f in slowdowns)} "
        f"(unscaled host_us_per_unit {raw:.6g})"
    )
    print(f"  setup probes (unscaled s): {' '.join(f'{s:.3f}' for s, _ in setup)}")
    return metrics, passes, problems


def final_checks(workload: Any, seed: int, inputs: Any, first: Any) -> list[str]:
    """The workload's untimed whole-run checks; a crash is a failed check."""
    try:
        return workload.final_checks(seed, inputs, first, checkout.ROOT)
    except Exception as error:  # report it in the result rather than dying without one
        traceback.print_exc()
        return [f"{workload.name} final checks raised {error!r}"]


def outcome_problems(passes: list[Any]) -> list[str]:
    problems = [problem for p in passes for problem in p.problems]
    digests = {p.output_digest for p in passes if not p.failed}
    if len(digests) > 1:
        problems.append("repeated passes over the same inputs gave different outputs")
    return problems


def traced_run(workload: Any, args: argparse.Namespace) -> tuple[dict, list, list[str]]:
    from tracing import LAYER_CALLS, Tracer

    inputs = workload.inputs(args.seed)
    tracer = Tracer()
    # Both passes run under the host-speed sampler, so the overhead compares
    # them at one host speed; its handler time (under 1%) lands in the spans evenly.
    with HostSpeed() as speed:
        start = time.perf_counter()
        untraced = workload.run_pass(workload.build(), inputs)
        untraced_s = time.perf_counter() - start
        mark = len(speed.samples)
        tracer.install()
        try:
            traced_inputs = workload.inputs(args.seed)
            system = workload.build()
            start = time.perf_counter()
            traced = workload.run_pass(system, traced_inputs)
            traced_s = time.perf_counter() - start
        finally:
            tracer.uninstall()
    untraced_slowdown, traced_slowdown = speed.slowdown(stop=mark), speed.slowdown(start=mark)

    problems = outcome_problems([untraced, traced])
    if workload.input_digest(traced_inputs) != workload.input_digest(inputs):
        problems.append("one seed generated two different inputs")
    run_total = tracer.root_total["cluster"]
    if abs(tracer.root_self["cluster"] - run_total) > 1e-9 * max(run_total, 1.0):
        problems.append(
            f"layer self times under ClusterSimulator.run sum to "
            f"{tracer.root_self['cluster']:.6f}s, not its {run_total:.6f}s"
        )
    problems += final_checks(workload, args.seed, inputs, untraced)

    pass_spans = sum(
        total for layer, total in tracer.root_total.items() if not layer.startswith("setup.")
    )
    metrics = layer_metrics(tracer, traced, bench_s=traced_s - pass_spans)
    metrics["trace.untraced_s"] = untraced_s
    metrics["trace.traced_s"] = traced_s
    scaled_ratio = (traced_s / traced_slowdown) / (untraced_s / untraced_slowdown)
    metrics["trace.overhead_pct"] = (scaled_ratio - 1) * 100
    print(
        f"{workload.name} seed {args.seed}: traced pass {traced_s:.2f} s, untraced "
        f"{untraced_s:.2f} s (host slowdown {traced_slowdown:.3f} / {untraced_slowdown:.3f})"
    )
    print(f"  {'layer':<10} {'calls':>9} {'self_s':>9} {'share':>7}")
    pass_layers = [layer for layer, _, _ in LAYER_CALLS if not layer.startswith("setup.")]
    for layer in [*dict.fromkeys(pass_layers), "bench"]:
        stats = tracer.stats(layer)
        self_s = metrics["bench.self_s"] if layer == "bench" else stats.self_s
        print(f"  {layer:<10} {stats.calls:>9} {self_s:>9.4f} {ratio(self_s, traced_s):>7.1%}")
    return metrics, [untraced, traced], problems


def layer_metrics(tracer: Any, traced: Any, bench_s: float) -> dict[str, float]:
    stats, counters = tracer.stats, tracer.counters
    lookups = stats("memo").calls
    misses = tracer.edges[("memo", "analytic")]
    steps = stats("replica").calls
    return {
        "gpu.runs": stats("gpu").calls,
        "gpu.ctas": counters["gpu.ctas"],
        "gpu.self_s": stats("gpu").self_s,
        "gpu.us_per_cta": ratio(stats("gpu").self_s * 1e6, counters["gpu.ctas"]),
        "kernels.builds": stats("kernels").calls,
        "kernels.self_s": stats("kernels").self_s,
        "analytic.calls": stats("analytic").calls,
        "analytic.self_s": stats("analytic").self_s,
        "memo.lookups": lookups,
        "memo.misses": misses,
        "memo.hit_rate": ratio(lookups - misses, lookups),
        "memo.self_s": stats("memo").self_s,
        "models.calls": stats("models").calls,
        "models.self_s": stats("models").self_s,
        "engine.calls": stats("engine").calls,
        "engine.self_s": stats("engine").self_s,
        "engine.decodes_per_step": ratio(counters["engine.decodes"], stats("engine").calls),
        "scheduler.calls": stats("scheduler").calls,
        "scheduler.self_s": stats("scheduler").self_s,
        "scheduler.preemptions": counters["scheduler.preemptions"],
        "scheduler.recompute_share": ratio(counters["scheduler.lost_tokens"], traced.prompt_tokens),
        "scheduler.kv_blocked_share": ratio(
            counters["scheduler.kv_blocked"], stats("scheduler").calls
        ),
        "kv.calls": stats("kv").calls,
        "kv.self_s": stats("kv").self_s,
        "kv.prefix_hit_rate": traced.kv_stats.hit_rate,
        "kv.evictions": traced.kv_stats.evictions,
        "replica.steps": steps,
        "replica.self_s": stats("replica").self_s,
        "router.calls": stats("router").calls,
        "router.self_s": stats("router").self_s,
        "control.calls": stats("control").calls,
        "control.self_s": stats("control").self_s,
        "control.shed_share": ratio(counters["control.shed"], counters["control.admits"]),
        "control.scale_ups": counters["control.scale_ups"],
        "cluster.self_s": stats("cluster").self_s,
        "cluster.us_per_step": ratio(stats("cluster").self_s * 1e6, steps),
        "cluster.metrics_s": stats("metrics").self_s,
        "setup.trace_s": stats("setup.trace").self_s,
        "setup.fleet_s": stats("setup.fleet").self_s,
        "setup.replicas_built": counters["setup.replicas_built"],
        "bench.self_s": bench_s,
    }


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    checkout.prepare()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        raise SystemExit(
            f"perfbench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}"
        )
    workload = WORKLOADS[args.workload]
    run = traced_run if args.trace else timed_run
    values, passes, problems = run(workload, args)
    units = PER_LAYER if args.trace else END_TO_END

    offered = sum(p.offered for p in passes)
    finished = sum(p.finished for p in passes)
    shed = sum(p.shed for p in passes)
    failed = sum(p.failed for p in passes)
    print(f"  offered {offered}  finished {finished}  shed {shed}  failed {failed}")
    for name, unit in units.items():
        print(f"  {name:<28} {values[name]:>14.6g} {unit}")
    for problem in problems:
        print(f"  CHECK FAILED: {problem}")
    result = {
        "correct": not problems,
        "attempted": sum(p.attempted for p in passes),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
