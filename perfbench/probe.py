"""Set-up probe: one fresh process doing everything before the first timed call.

    python3 perfbench/probe.py <workload> <seed>

Imports ``repro``, generates the workload's inputs from the seed and builds
its deployment, fleet and engines, then prints ``{"setup_s": ..., "slowdown":
...}``: the seconds that took, and the host slowdown sampled meanwhile
(``hostspeed.py``).  ``run.py`` starts several probes and reports the median
of their scaled set-up times as ``setup_s``.
"""

import json
import sys
import time

from hostspeed import HostSpeed


def main() -> None:
    speed = HostSpeed()
    start = time.perf_counter()
    with speed:
        import checkout

        checkout.prepare()
        from workloads import WORKLOADS

        workload = WORKLOADS[sys.argv[1]]
        workload.inputs(int(sys.argv[2]))
        workload.build()
        elapsed = time.perf_counter() - start
    print(json.dumps({"setup_s": elapsed, "slowdown": speed.slowdown()}))


if __name__ == "__main__":
    main()
