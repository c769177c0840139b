"""Tests for the serving backends' exact per-step attention estimates.

A step's estimate comes from closed-form decode sums and per-backend prefill
memos keyed on ``(chunk_tokens, prior_tokens)``; the oracle
``estimate_equivalence`` (tests/test_verify_oracles.py) holds every step of
every registry scenario to the row-summing reference.  This file pins the
bug the old quantized memo had, and bounds the closed-form work a step may
do by counting calls, so the bound carries no timing noise.
"""

from __future__ import annotations

from collections import Counter, defaultdict

from repro.attention import analytic, cost_model
from repro.cluster import ClusterSimulator, ColocatedTopology
from repro.models.linear_ops import LinearOpCostModel
from repro.serving.attention_backend import PODBackend
from repro.serving.batch import ScheduledBatch
from repro.serving.engine import InferenceEngine
from repro.serving.request import Request
from repro.serving.scheduler_sarathi import SarathiScheduler


def _prefill_item(tokens: int) -> tuple[Request, int]:
    return Request(request_id=0, prefill_tokens=tokens, decode_tokens=8), tokens


def _decode(context_tokens: int) -> Request:
    """A decoding request: its prompt plus the first token, emitted by the prefill."""
    request = Request(request_id=1, prefill_tokens=context_tokens - 1, decode_tokens=8)
    request.advance_prefill(context_tokens - 1, now=0.0)
    return request


class TestExactEstimates:
    def test_hybrid_after_prefill_only_has_decode_time(self, llama3_deployment):
        """The quantized memo once served a hybrid batch with one short decode
        the cached estimate of a prefill-only batch (``decode_time == 0``)."""
        backend = PODBackend(llama3_deployment)
        backend.estimate(ScheduledBatch(prefill_items=[_prefill_item(1024)]))
        hybrid = ScheduledBatch(prefill_items=[_prefill_item(1024)], decode_requests=[_decode(100)])
        assert hybrid.to_hybrid_batch().decodes[0].context_tokens == 100
        assert backend.estimate(hybrid).decode_time > 0.0


class TestClosedFormWork:
    def test_work_per_step_is_bounded(self, llama3_deployment, monkeypatch):
        """Counts, per backend, the closed-form work a fleet's steps do.

        A step reads its decode side from three sums (no per-decode rows),
        builds each prefill chunk's aggregates once per backend (FA tile plus
        at most the two POD tiles), probes occupancy only when the backend is
        built, and evaluates the linear operators once per token count.
        The run repeats chunks, so a step that rebuilt a chunk it had already
        built (a lost prefill memo) fails the once-per-key count.
        """
        calls: Counter = Counter()
        current: list[object] = [None]
        pairs: defaultdict[object, set] = defaultdict(set)
        chunks_seen: Counter = Counter()
        builds: defaultdict[object, Counter] = defaultdict(Counter)
        token_counts: defaultdict[int, set] = defaultdict(set)
        layer_calls: Counter = Counter()

        def counted(name, function):
            def shim(*args, **kwargs):
                calls[name, current[0]] += 1
                return function(*args, **kwargs)

            return shim

        prefill_rows = cost_model._prefill_rows

        def counted_prefill_rows(deployment, chunk, tile, num_splits):
            builds[current[0]][chunk, tile, num_splits] += 1
            return prefill_rows(deployment, chunk, tile, num_splits)

        execute = InferenceEngine.execute

        def tracked_execute(engine, batch):
            current[0] = engine.backend
            pairs[engine.backend].update(
                (tokens, request.prefill_done_tokens) for request, tokens in batch.prefill_items
            )
            chunks_seen[engine.backend] += len(batch.prefill_items)
            token_counts[id(engine.iteration_model.linear_model)].add(batch.total_tokens)
            try:
                return execute(engine, batch)
            finally:
                current[0] = None

        layer_breakdown = LinearOpCostModel.layer_breakdown

        def counted_layer_breakdown(model, num_tokens):
            layer_calls[id(model), num_tokens] += 1
            return layer_breakdown(model, num_tokens)

        monkeypatch.setattr(InferenceEngine, "execute", tracked_execute)
        monkeypatch.setattr(LinearOpCostModel, "layer_breakdown", counted_layer_breakdown)
        monkeypatch.setattr(cost_model, "_prefill_rows", counted_prefill_rows)
        for module, name in (
            (cost_model, "_decode_rows"),
            (analytic, "_occupancy_for"),
        ):
            monkeypatch.setattr(module, name, counted(name, getattr(module, name)))

        topology = ColocatedTopology(
            llama3_deployment,
            num_replicas=2,
            scheduler_factory=lambda: SarathiScheduler(chunk_size=1024),
            backend_builder=PODBackend,
        )
        simulator = ClusterSimulator(topology, router="least-tokens")
        simulator.run_scenario("arxiv-summarization", num_requests=16, seed=0)

        backends = [replica.backend for replica in simulator.replicas]
        assert all(pairs[backend] for backend in backends)
        assert sum(n for (name, _), n in calls.items() if name == "_decode_rows") == 0
        for backend in backends:
            assert chunks_seen[backend] > len(pairs[backend])
            assert set(builds[backend].values()) == {1}
            assert len(builds[backend]) <= 3 * len(pairs[backend])
        occupancy = sum(n for (name, _), n in calls.items() if name == "_occupancy_for")
        assert occupancy <= 2 * len(backends)
        assert set(layer_calls.values()) == {1}
        assert set(layer_calls) == {
            (model, tokens) for model, counts in token_counts.items() for tokens in counts
        }
