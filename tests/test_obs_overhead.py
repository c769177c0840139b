"""Telemetry is a pure observer: off costs nothing, on changes nothing.

Three contracts:

* ``recorder=None`` stays the pre-telemetry fast path — no sink object is
  created, the attribute remains ``None``, and emission sites stay behind
  their single ``is not None`` check.
* Attaching :class:`Telemetry` does not perturb the simulation: metrics are
  bit-identical with and without it.
* Teeing telemetry next to the verifier's :class:`EventRecorder` leaves the
  verify stream untouched — same events, same order, same payloads.
"""

from __future__ import annotations

import subprocess
import sys

import pytest

from repro.bench.pressure_rows import memory_pressure_simulator
from repro.models.config import paper_deployment
from repro.obs.profiling import HostProfiler, peak_rss_mb
from repro.obs.telemetry import Telemetry
from repro.verify.events import EventRecorder, TeeSink, as_sink
from repro.workloads import build_scenario


@pytest.fixture(scope="module")
def deployment():
    return paper_deployment("llama-3-8b")


def run_pressured(deployment, recorder):
    simulator = memory_pressure_simulator(
        deployment, capacity_tokens=8192, prefix_caching=True, preemption=True, recorder=recorder
    )
    result = simulator.run(build_scenario("shared-prefix-chat", num_requests=24, seed=19))
    return simulator, result


class TestOffFastPath:
    def test_as_sink_none_is_none(self):
        assert as_sink(None) is None

    def test_as_sink_singleton_unwraps(self):
        recorder = EventRecorder()
        assert as_sink(recorder) is recorder
        assert as_sink([recorder]) is recorder
        assert isinstance(as_sink([recorder, Telemetry()]), TeeSink)

    def test_default_simulator_has_no_sink(self, deployment):
        simulator, _ = run_pressured(deployment, None)
        assert simulator.recorder is None


class TestObserverOnly:
    def test_metrics_identical_with_and_without_telemetry(self, deployment):
        _, bare = run_pressured(deployment, None)
        _, observed = run_pressured(deployment, Telemetry())
        assert observed.metrics.as_row() == bare.metrics.as_row()
        assert observed.kv_stats.counter_totals() == bare.kv_stats.counter_totals()
        assert [r.finish_time for r in observed.requests] == [
            r.finish_time for r in bare.requests
        ]

    def test_tee_leaves_verify_stream_unchanged(self, deployment):
        alone = EventRecorder()
        run_pressured(deployment, alone)
        teed = EventRecorder()
        run_pressured(deployment, [teed, Telemetry()])
        assert len(teed.events) == len(alone.events)
        assert teed.events == alone.events


class TestHostProfiler:
    def test_context_manager_measures(self):
        with HostProfiler("work") as profiler:
            sum(range(200_000))
        stats = profiler.as_dict()
        assert stats["name"] == "work"
        assert stats["wall_s"] >= 0 and stats["cpu_s"] >= 0
        assert stats["peak_rss_mb"] > 1.0  # a python process is > 1 MB
        assert set(stats) == {
            "name",
            "wall_s",
            "cpu_s",
            "children_cpu_s",
            "peak_rss_mb",
            "rss_delta_mb",
        }

    def test_counts_child_process_cpu(self):
        """A CPU-bound child shows in ``children_cpu_s``, not in ``cpu_s``."""
        burn = "import time\nwhile time.process_time() < 0.3:\n    pass\n"
        with HostProfiler("child") as profiler:
            subprocess.run([sys.executable, "-c", burn], check=True)
        assert profiler.children_cpu_s >= 0.25
        assert profiler.cpu_s < profiler.children_cpu_s
        assert profiler.as_dict()["children_cpu_s"] == round(profiler.children_cpu_s, 6)

    def test_explicit_start_stop(self):
        profiler = HostProfiler("x")
        assert profiler.start() is profiler
        profiler.stop()
        assert profiler.wall_s >= 0
        with pytest.raises(RuntimeError, match="before start"):
            HostProfiler("y").stop()

    def test_peak_rss_is_plausible(self):
        mb = peak_rss_mb()
        assert 1.0 < mb < 1_000_000.0
