"""End-to-end telemetry: metrics, fleet time-series, spans, run report.

Attaches a :class:`repro.obs.Telemetry` to a memory-pressured
``shared-prefix-chat`` run, prints the live metric registry and the sampled
fleet time-series, then writes the full report bundle (HTML + markdown +
``timeseries.csv`` + Perfetto ``trace.json``) under ``results/obs_example``.

Telemetry is opt-in: the same run with ``recorder=None`` pays nothing and
produces identical results — see ``tests/test_obs_overhead.py``.

Run:  PYTHONPATH=src python examples/observability.py [capacity_tokens]
"""

from __future__ import annotations

import sys

from repro.bench.pressure_rows import memory_pressure_simulator
from repro.models.config import paper_deployment
from repro.obs import Telemetry, generate_report
from repro.workloads import build_scenario

SCENARIO = "shared-prefix-chat"
NUM_REQUESTS = 48
SEED = 19


def main() -> None:
    capacity = int(sys.argv[1]) if len(sys.argv) > 1 else 8192
    deployment = paper_deployment("llama-3-8b")

    telemetry = Telemetry(sample_interval=0.5)
    simulator = memory_pressure_simulator(
        deployment,
        capacity_tokens=capacity,
        prefix_caching=True,
        preemption=True,
        recorder=telemetry,
    )
    result = simulator.run(build_scenario(SCENARIO, num_requests=NUM_REQUESTS, seed=SEED))
    telemetry.finalize()

    print(f"{SCENARIO} x{NUM_REQUESTS} @ {capacity} KV tokens ({deployment.model.name})\n")

    print("metric registry:")
    for row in telemetry.registry.collect():
        labels = f"{{{row['labels']}}}" if row["labels"] else ""
        if row["kind"] == "histogram":
            detail = (f"count={row['count']} p50={row['p50']:.4g} "
                      f"p99={row['p99']:.4g} max={row['max']:.4g}")
        else:
            detail = f"value={row['value']:.6g}"
        print(f"  {row['kind']:9s} {row['metric']}{labels}: {detail}")

    print("\nfleet time-series (0.5 s windows):")
    print(f"  {'t':>6s} {'queue':>6s} {'running':>8s} {'kv_util':>8s} {'hit_rate':>9s} "
          f"{'preempt':>8s}")
    for point in telemetry.sampler.fleet_series():
        hit_rates = [
            row["prefix_hit_rate"]
            for row in telemetry.sampler.rows
            if row["time_s"] == point["time_s"]
        ]
        print(
            f"  {point['time_s']:6.1f} {point['queue_depth']:6d} {point['running']:8d} "
            f"{point['kv_utilization']:8.3f} {sum(hit_rates) / len(hit_rates):9.3f} "
            f"{point['preemptions']:8d}"
        )

    print("\nslowest requests (phase breakdown):")
    for row in telemetry.tracer.waterfall_rows(top_k=3):
        phases = " ".join(f"{name}={dur:.3f}s" for name, dur in sorted(row["phases"].items()))
        print(f"  req {row['request_id']:3d}: e2e={row['e2e_latency']:.3f}s "
              f"preemptions={row['preemptions']} | {phases}")

    paths = generate_report(
        telemetry,
        "results/obs_example",
        title=f"{SCENARIO} @ {capacity} KV tokens",
        summary={
            "scenario": SCENARIO,
            "capacity_tokens": capacity,
            **result.metrics.fleet.as_row(),
        },
    )
    print("\nreport bundle:")
    for kind, path in paths.items():
        print(f"  {kind:15s} {path}")
    print("open trace.json at https://ui.perfetto.dev")


if __name__ == "__main__":
    main()
