"""Self-test of the benchmark's inputs, outputs and metric list.

    python3 perfbench/selftest.py [--seed N] [--workload NAME ...]

For each workload: one seed must generate identical inputs twice and a
different seed different ones; two passes over the same inputs, each on a
freshly built system, must give identical output digests with no failed
operation.  It also checks that ``BENCHMARK.json`` names exactly the
workloads and metrics ``run.py`` reports.  Exits non-zero on any failure.
"""

from __future__ import annotations

import argparse
import json
import sys

import checkout


def check_manifest(workloads: dict) -> list[str]:
    from run import END_TO_END, PER_LAYER

    manifest = json.loads((checkout.ROOT / "BENCHMARK.json").read_text())
    problems = []
    if [w["name"] for w in manifest["workloads"]] != list(workloads):
        problems.append("BENCHMARK.json workloads differ from workloads.WORKLOADS")
    if {m["name"]: m["unit"] for m in manifest["end_to_end"]} != END_TO_END:
        problems.append("BENCHMARK.json end_to_end differs from run.END_TO_END")
    if {m["name"]: m["unit"] for m in manifest["per_layer"]} != PER_LAYER:
        problems.append("BENCHMARK.json per_layer differs from run.PER_LAYER")
    return problems


def check_workload(workload, seed: int) -> list[str]:
    first, again = workload.inputs(seed), workload.inputs(seed)
    problems = []
    if workload.input_digest(first) != workload.input_digest(again):
        problems.append(f"{workload.name}: seed {seed} generated two different inputs")
    if workload.input_digest(first) == workload.input_digest(workload.inputs(seed + 1)):
        problems.append(f"{workload.name}: seeds {seed} and {seed + 1} generated the same inputs")
    passes = [workload.run_pass(workload.build(), inputs) for inputs in (first, again)]
    problems += [problem for p in passes for problem in p.problems]
    if passes[0].output_digest != passes[1].output_digest:
        problems.append(f"{workload.name}: one seed gave two different output digests")
    print(
        f"{workload.name} seed {seed}: inputs {workload.input_digest(first)}, "
        f"outputs {passes[0].output_digest} / {passes[1].output_digest}"
    )
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workload", action="append", help="default: every workload")
    args = parser.parse_args(argv)
    checkout.prepare()
    from workloads import WORKLOADS

    problems = check_manifest(WORKLOADS)
    for name in args.workload or list(WORKLOADS):
        problems += check_workload(WORKLOADS[name], args.seed)
    for problem in problems:
        print(f"FAILED: {problem}")
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
