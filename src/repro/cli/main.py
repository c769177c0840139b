"""Argument parsing and dispatch for the ``repro`` operator CLI.

Each subcommand is a thin adapter: parse flags, call the library entry point
(:func:`repro.workloads.scenario.run_scenario`, the cluster sweep runner,
:func:`repro.planner.capacity_plan`, the observability report generator, or
the perf-regression gate) and emit the result through
:mod:`repro.cli.output`.  Library imports happen inside the command
functions so ``repro --help`` stays instant and the CLI layer cannot create
import cycles with the simulators it wraps.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
from pathlib import Path
from typing import Sequence


def _add_format_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--format",
        choices=("json", "csv"),
        default="json",
        help="output format (default: json)",
    )
    parser.add_argument(
        "--out",
        default=None,
        help="write output to this file instead of stdout (stdout gets a manifest)",
    )


def _positive_int(text: str) -> int:
    """argparse type of a fleet size: a positive integer."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text}")
    return value


def _add_trace_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--scenario",
        default="shared-prefix-chat",
        help="workload scenario name from repro.workloads.SCENARIOS",
    )
    parser.add_argument(
        "--num-requests", type=int, default=None, help="trace size (default: scenario's own)"
    )
    parser.add_argument("--seed", type=int, default=0, help="trace RNG seed")
    parser.add_argument(
        "--qps", type=float, default=None, help="offered QPS (default: scenario's own)"
    )
    parser.add_argument("--model", default="llama-3-8b", help="model name from repro.models")


def cmd_run(args: argparse.Namespace) -> int:
    """Serve one scenario on one fleet and print its metrics."""
    from repro.models.config import ClusterSpec, paper_deployment, replica_specs_from_mix
    from repro.workloads.scenario import run_scenario, scenario_table

    if args.list:
        from repro.cli.output import emit

        rows = scenario_table()
        emit({"command": "run", "scenarios": rows}, rows=rows, fmt=args.format, out=args.out)
        return 0

    if args.mix is not None:
        pattern = replica_specs_from_mix(args.mix, model=args.model)
        count = max(args.replicas, len(pattern))
        spec = ClusterSpec(
            replicas=tuple(pattern[i % len(pattern)] for i in range(count)),
            topology=args.topology,
            prefill_replicas=args.prefill_replicas,
        )
    else:
        spec = ClusterSpec(
            paper_deployment(args.model),
            args.replicas,
            topology=args.topology,
            prefill_replicas=args.prefill_replicas,
        )
    result = run_scenario(
        args.scenario,
        spec=spec,
        num_requests=args.num_requests,
        seed=args.seed,
        qps=args.qps,
        router=args.router,
        chunk_size=args.chunk_size,
        backend=args.backend,
    )

    metrics = result.metrics
    config_row = {
        "scenario": args.scenario,
        "seed": args.seed,
        "model": args.model,
        "mix": args.mix or "",
        "chunk": args.chunk_size,
        "backend": args.backend,
    }
    payload = {
        "command": "run",
        "config": config_row,
        "metrics": metrics.as_row(),
        "economics": metrics.economics_row(),
        "control": metrics.control_row(),
    }
    row = {**config_row, **metrics.as_row(), **metrics.economics_row()}

    from repro.cli.output import emit

    emit(payload, rows=[row], fmt=args.format, out=args.out)
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    """Run a replica x topology x router grid through the sweep runner."""
    from repro.cli.output import emit
    from repro.cluster.sweep import ClusterSweepPoint, run_cluster_sweep

    points = [
        ClusterSweepPoint(
            num_replicas=replicas,
            router=router,
            topology=topology,
            model=args.model,
            workload=args.scenario,
            qps_per_replica=args.qps_per_replica,
            requests_per_replica=args.requests_per_replica,
            chunk_size=args.chunk_size,
            seed=args.seed,
        )
        for replicas in args.replicas
        for topology in args.topologies
        for router in args.routers
    ]
    rows = run_cluster_sweep(points, parallel=not args.serial)
    payload = {
        "command": "sweep",
        "workload": args.scenario,
        "points": len(points),
        "rows": rows,
    }
    emit(payload, rows=rows, fmt=args.format, out=args.out)
    return 0


def cmd_plan(args: argparse.Namespace) -> int:
    """Search fleet configurations against SLO targets; print the plan."""
    from repro.cli.output import emit
    from repro.planner import PlannerConfig, capacity_plan

    config = PlannerConfig(
        scenario=args.scenario,
        model=args.model,
        num_requests=args.num_requests or 64,
        seed=args.seed,
        qps=args.qps,
        replica_counts=tuple(args.replica_counts),
        topologies=tuple(args.topologies),
        prefill_fractions=tuple(args.prefill_fractions),
        chunk_sizes=tuple(args.chunk_sizes),
        routers=tuple(args.routers),
        replica_mixes=tuple(args.mixes),
        ttft_p99_target_s=args.ttft_p99,
        tbt_p99_target_s=args.tbt_p99,
        latency_p99_target_s=args.latency_p99,
    )
    result = capacity_plan(config)
    best = result.best
    rows = result.rows()
    payload = {
        "command": "plan",
        "config": dataclasses.asdict(config),
        "summary": result.summary(),
        "best": best.row() if best is not None else None,
        "candidates": rows,
    }
    emit(payload, rows=rows, fmt=args.format, out=args.out)
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    """Serve a scenario under telemetry and write the run-report bundle."""
    from repro.obs.report import generate_report, scenario_telemetry

    telemetry, summary = scenario_telemetry(
        args.scenario,
        num_requests=args.num_requests,
        seed=args.seed,
        qps=args.qps,
        replicas=args.replicas,
        router=args.router,
        capacity_tokens=args.capacity_tokens,
        sample_interval=args.interval,
        model=args.model,
    )
    title = f"{args.scenario} — telemetry report (seed {args.seed})"
    paths = generate_report(telemetry, args.out, title=title, summary=summary)
    manifest = {kind: str(path) for kind, path in paths.items()}
    print(json.dumps({"command": "report", "report": manifest, "summary": summary},
                     indent=2, default=str))
    return 0


def cmd_diff(args: argparse.Namespace) -> int:
    """Diff two results/ directories with the perf-regression gate."""
    from repro.bench.regression import (
        compare_directories,
        discover_artifacts,
        write_markdown_summary,
    )
    from repro.cli.output import emit

    patterns = args.pattern or ["*.csv", "*.json"]
    artifacts = [path.name for path in discover_artifacts(args.baseline, patterns)]
    if args.list:
        rows = [{"artifact": name} for name in artifacts]
        emit(
            {"command": "diff", "baseline": str(args.baseline), "artifacts": artifacts},
            rows=rows,
            fmt=args.format,
            out=args.out,
        )
        return 0
    regressions = compare_directories(
        args.baseline, args.current, patterns, rtol=args.rtol, atol=args.atol
    )
    if args.markdown_summary is not None:
        write_markdown_summary(
            args.markdown_summary,
            args.baseline,
            discover_artifacts(args.baseline, patterns),
            regressions,
        )
    payload = {
        "command": "diff",
        "baseline": str(args.baseline),
        "current": str(args.current),
        "artifacts": len(artifacts),
        "ok": not regressions,
        "regressions": regressions,
    }
    rows = [{"divergence": line} for line in regressions]
    emit(payload, rows=rows, fmt=args.format, out=args.out)
    return 1 if regressions else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Operator CLI for the POD-Attention reproduction: run scenarios, "
        "sweep fleets, plan capacity, generate reports, gate regressions.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    run = subparsers.add_parser(
        "run",
        help="serve one scenario on one fleet",
        description="Serve a workload scenario on a simulated fleet and print its "
        "metrics. --replicas/--topology/--mix shape the fleet (heterogeneous "
        "fleets via --mix, e.g. 'a100:2+a6000:2~').",
    )
    _add_trace_options(run)
    run.add_argument("--replicas", type=_positive_int, default=1, help="fleet size (default: 1)")
    run.add_argument(
        "--topology", choices=("colocated", "disaggregated"), default="colocated"
    )
    run.add_argument(
        "--prefill-replicas",
        type=int,
        default=0,
        help="disaggregated prefill pool size (0 = auto split)",
    )
    run.add_argument("--router", default="least-tokens", help="cluster routing policy")
    run.add_argument(
        "--mix",
        default=None,
        help="replica hardware mix, e.g. 'a100:2+a6000:2~' (~ = spot pricing)",
    )
    run.add_argument("--chunk-size", type=int, default=1024)
    run.add_argument("--backend", default="pod", help="attention backend name")
    run.add_argument("--list", action="store_true", help="list registered scenarios and exit")
    _add_format_options(run)
    run.set_defaults(func=cmd_run)

    sweep = subparsers.add_parser(
        "sweep",
        help="replica x topology x router grid (parallel rollout runner)",
        description="Run a cluster-sweep grid at iso per-replica load; one row per "
        "grid point, fanned across processes unless --serial.",
    )
    _add_trace_options(sweep)
    sweep.add_argument(
        "--replicas", type=_positive_int, nargs="+", default=[1, 2, 4], help="fleet sizes to sweep"
    )
    sweep.add_argument(
        "--topologies", nargs="+", default=["colocated"], help="topologies to sweep"
    )
    sweep.add_argument(
        "--routers", nargs="+", default=["least-tokens"], help="routing policies to sweep"
    )
    sweep.add_argument("--qps-per-replica", type=float, default=0.85)
    sweep.add_argument("--requests-per-replica", type=int, default=24)
    sweep.add_argument("--chunk-size", type=int, default=1024)
    sweep.add_argument(
        "--serial", action="store_true", help="run grid points serially (no process pool)"
    )
    _add_format_options(sweep)
    sweep.set_defaults(func=cmd_sweep)

    plan = subparsers.add_parser(
        "plan",
        help="capacity planner: cheapest fleet that meets the SLOs",
        description="Search fleet size x topology x P/D split x chunk x router x "
        "hardware mix against TTFT/TBT SLO targets and rank feasible fleets by cost.",
    )
    _add_trace_options(plan)
    plan.add_argument("--replica-counts", type=int, nargs="+", default=[2, 4])
    plan.add_argument("--topologies", nargs="+", default=["colocated"])
    plan.add_argument("--prefill-fractions", type=float, nargs="+", default=[0.5])
    plan.add_argument("--chunk-sizes", type=int, nargs="+", default=[1024])
    plan.add_argument("--routers", nargs="+", default=["least-tokens"])
    plan.add_argument(
        "--mixes", nargs="+", default=["a100"], help="replica mixes, e.g. a100 'a100:1+a6000:1~'"
    )
    plan.add_argument("--ttft-p99", type=float, default=2.0, help="TTFT p99 target, seconds")
    plan.add_argument("--tbt-p99", type=float, default=0.2, help="TBT p99 target, seconds")
    plan.add_argument(
        "--latency-p99", type=float, default=None, help="optional end-to-end p99 target, seconds"
    )
    _add_format_options(plan)
    plan.set_defaults(func=cmd_plan)

    report = subparsers.add_parser(
        "report",
        help="telemetry run report bundle (HTML / markdown / CSV / trace)",
        description="Serve a scenario under full telemetry and write the "
        "observability report bundle; prints a JSON manifest of the artifacts.",
    )
    _add_trace_options(report)
    report.add_argument("--replicas", type=_positive_int, default=1)
    report.add_argument("--router", default="prefix-affinity")
    report.add_argument(
        "--capacity-tokens",
        type=int,
        default=None,
        help="KV capacity in tokens (default: sized from the deployment's GPU memory)",
    )
    report.add_argument("--interval", type=float, default=0.5, help="sample cadence (sim s)")
    report.add_argument("--out", default="results/obs_report", help="report output directory")
    report.set_defaults(func=cmd_report)

    diff = subparsers.add_parser(
        "diff",
        help="perf-regression gate over results/ artifact directories",
        description="Compare freshly generated benchmark artifacts against a "
        "baseline snapshot; exits 1 when any metric is out of tolerance.",
    )
    diff.add_argument("--baseline", type=Path, required=True)
    diff.add_argument("--current", type=Path, required=True)
    diff.add_argument(
        "--pattern",
        action="append",
        default=None,
        help="artifact glob(s) to compare (default: *.csv and *.json)",
    )
    # Defaults mirror repro.bench.regression.DEFAULT_RTOL / DEFAULT_ATOL
    # (not imported here so --help stays lazy).
    diff.add_argument("--rtol", type=float, default=2e-3)
    diff.add_argument("--atol", type=float, default=2e-3)
    diff.add_argument(
        "--list", action="store_true", help="list the artifacts that would be compared"
    )
    diff.add_argument(
        "--markdown-summary",
        type=Path,
        default=None,
        help="append a markdown report to this file (e.g. $GITHUB_STEP_SUMMARY)",
    )
    _add_format_options(diff)
    diff.set_defaults(func=cmd_diff)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return int(args.func(args))
