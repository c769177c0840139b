"""Per-layer spans around ``repro``'s public calls, recorded from outside.

``Tracer.install()`` wraps the calls listed in :data:`LAYER_CALLS` (a class
method or a module function, looked up where its caller finds it) so that
every call records a span: its layer, start, end and parent span.  Spans are
aggregated in memory as they close (fleet-arxiv makes about 600k of them):
per layer a call count, the total span time and the self time, which is the
span time minus the time of its child spans.  Observers attached to a few
calls count work from their arguments or results (CTAs, decodes per step,
preemptions, shed requests).  ``uninstall()`` restores the originals.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable

Observer = Callable[["Tracer", tuple, Any], None]


def _count_ctas(tracer: Tracer, args: tuple, result: Any) -> None:
    tracer.counters["gpu.ctas"] += sum(launch.kernel.num_ctas for launch in args[1])


def _count_decodes(tracer: Tracer, args: tuple, result: Any) -> None:
    tracer.counters["engine.decodes"] += len(args[1].decode_requests)


def _count_schedule(tracer: Tracer, args: tuple, batch: Any) -> None:
    counters = tracer.counters
    counters["scheduler.preemptions"] += len(batch.preempted)
    counters["scheduler.lost_tokens"] += sum(lost for _, lost in batch.preempted)
    counters["scheduler.kv_blocked"] += batch.admission_blocked == "kv"


def _count_admit(tracer: Tracer, args: tuple, reason: Any) -> None:
    tracer.counters["control.admits"] += 1
    tracer.counters["control.shed"] += reason is not None


def _count_autoscale(tracer: Tracer, args: tuple, decision: int) -> None:
    tracer.counters["control.scale_ups"] += max(decision, 0)


def _count_replica(tracer: Tracer, args: tuple, replica: Any) -> None:
    tracer.counters["setup.replicas_built"] += 1


#: (layer, "module:Class.method" or "module:function", observer).  A module
#: function is wrapped in the module its caller reads it from.
LAYER_CALLS: tuple[tuple[str, str, Observer | None], ...] = (
    ("gpu", "repro.gpu.engine:ExecutionEngine.run", _count_ctas),
    ("kernels", "repro.attention.executors:FASerial.build_launches", None),
    ("kernels", "repro.attention.executors:FAStreams.build_launches", None),
    ("kernels", "repro.attention.executors:FAHFuse.build_launches", None),
    ("kernels", "repro.attention.executors:FISerial.build_launches", None),
    ("kernels", "repro.attention.executors:FIBatched.build_launches", None),
    ("kernels", "repro.core.pod_kernel:PODAttention.build_launches", None),
    ("analytic", "repro.serving.attention_backend:analytic_attention_times", None),
    ("memo", "repro.serving.attention_backend:AttentionBackend.estimate", None),
    ("models", "repro.models.transformer:IterationCostModel.iteration_breakdown", None),
    ("engine", "repro.serving.engine:InferenceEngine.execute", _count_decodes),
    ("scheduler", "repro.serving.scheduler_sarathi:SarathiScheduler.schedule", _count_schedule),
    ("kv", "repro.serving.kv_cache:KVCacheManager.admit_request", None),
    ("kv", "repro.serving.kv_cache:KVCacheManager.allocate", None),
    ("kv", "repro.serving.kv_cache:KVCacheManager.free", None),
    ("replica", "repro.serving.replica:ReplicaRuntime.step", None),
    ("router", "repro.cluster.router:PrefillAwareRouter.choose", None),
    ("router", "repro.cluster.router:LeastOutstandingTokensRouter.choose", None),
    ("control", "repro.cluster.control:ControlPlane.autoscale", _count_autoscale),
    ("control", "repro.cluster.control:ControlPlane.admit", _count_admit),
    ("control", "repro.cluster.control:ControlPlane.note_release", None),
    ("cluster", "repro.cluster.simulator:ClusterSimulator.run", None),
    ("metrics", "repro.cluster.simulator:compute_cluster_metrics", None),
    ("setup.trace", "repro.workloads.scenario:Scenario.build", None),
    ("setup.fleet", "repro.cluster.topology:ColocatedTopology.build_replicas", None),
    ("setup.fleet", "repro.cluster.topology:ColocatedTopology.build_replica", _count_replica),
)


@dataclass
class LayerStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


class Tracer:
    """Records spans around the wrapped calls and aggregates them per layer."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.layers: dict[str, LayerStats] = {}
        #: Work counted by the observers, keyed ``<layer>.<what>``.
        self.counters: Counter[str] = Counter()
        #: (parent layer, child layer) -> spans with that parent.
        self.edges: Counter[tuple[str, str]] = Counter()
        #: Root layer -> total time of its root spans / self time of every span under them.
        self.root_total: Counter[str] = Counter()
        self.root_self: Counter[str] = Counter()
        # Open spans, innermost last: [layer, child time so far].
        self._stack: list[list[Any]] = []
        self._originals: list[tuple[Any, str, Any]] = []

    def stats(self, layer: str) -> LayerStats:
        return self.layers.get(layer, LayerStats())

    def _close(self, layer: str, start: float, frame: list[Any]) -> None:
        duration = self.clock() - start
        self._stack.pop()
        own = duration - frame[1]
        stats = self.layers.setdefault(layer, LayerStats())
        stats.calls += 1
        stats.total_s += duration
        stats.self_s += own
        if self._stack:
            parent = self._stack[-1]
            parent[1] += duration
            self.edges[(parent[0], layer)] += 1
            self.root_self[self._stack[0][0]] += own
        else:
            self.root_total[layer] += duration
            self.root_self[layer] += own

    def _wrap(self, layer: str, function: Callable, observe: Observer | None) -> Callable:
        tracer = self

        @functools.wraps(function)
        def traced(*args: Any, **kwargs: Any) -> Any:
            frame = [layer, 0.0]
            tracer._stack.append(frame)
            start = tracer.clock()
            try:
                result = function(*args, **kwargs)
            finally:
                tracer._close(layer, start, frame)
            if observe is not None:
                observe(tracer, args, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every call of :data:`LAYER_CALLS`."""
        for layer, spec, observe in LAYER_CALLS:
            module_name, _, path = spec.partition(":")
            target: Any = importlib.import_module(module_name)
            *owners, attribute = path.split(".")
            for owner in owners:
                target = getattr(target, owner)
            original = vars(target)[attribute]
            self._originals.append((target, attribute, original))
            setattr(target, attribute, self._wrap(layer, original, observe))

    def uninstall(self) -> None:
        """Restore every wrapped call."""
        for target, attribute, original in reversed(self._originals):
            setattr(target, attribute, original)
        self._originals.clear()
