"""Tests for request lifecycle and per-request latency metrics."""

from __future__ import annotations

import pytest

from repro.serving.request import Request, RequestState, make_requests


def _request(prefill=1024, decode=4, arrival=0.0):
    return Request(request_id=0, prefill_tokens=prefill, decode_tokens=decode, arrival_time=arrival)


class TestLifecycle:
    def test_initial_state(self):
        request = _request()
        assert request.state == RequestState.QUEUED
        assert request.remaining_prefill_tokens == 1024
        assert request.remaining_decode_tokens == 4
        assert request.context_tokens == 0

    def test_chunked_prefill_progress(self):
        request = _request(prefill=1000, decode=2)
        request.advance_prefill(512, now=1.0)
        assert request.state == RequestState.PREFILLING
        assert request.remaining_prefill_tokens == 488
        request.advance_prefill(488, now=2.0)
        # Finishing the prefill emits the first token and enters decode.
        assert request.state == RequestState.DECODING
        assert request.first_token_time == 2.0
        assert request.decode_done_tokens == 1

    def test_decode_progress_and_finish(self):
        request = _request(prefill=100, decode=3, arrival=1.0)
        request.advance_prefill(100, now=2.0)
        request.advance_decode(now=2.5)
        request.advance_decode(now=3.5)
        assert request.is_finished
        assert request.finish_time == 3.5
        assert request.e2e_latency == pytest.approx(2.5)
        assert request.ttft == pytest.approx(1.0)
        assert request.tbt_samples == [0.5, 1.0]
        assert request.max_tbt() == 1.0

    def test_single_output_token_finishes_at_prefill(self):
        request = _request(prefill=10, decode=1)
        request.advance_prefill(10, now=1.0)
        assert request.is_finished
        assert request.tbt_samples == []
        assert request.max_tbt() == 0.0

    def test_stall_detection(self):
        request = _request(prefill=10, decode=3)
        request.advance_prefill(10, now=0.0)
        request.advance_decode(now=0.05)
        request.advance_decode(now=0.50)
        assert request.experienced_stall(0.2)
        assert not request.experienced_stall(0.5)

    def test_overrun_prefill_rejected(self):
        request = _request(prefill=100, decode=1)
        with pytest.raises(ValueError):
            request.advance_prefill(101, now=0.0)

    def test_decode_before_prefill_rejected(self):
        with pytest.raises(ValueError):
            _request().advance_decode(now=1.0)

    def test_metrics_require_progress(self):
        request = _request()
        with pytest.raises(ValueError):
            _ = request.ttft
        with pytest.raises(ValueError):
            _ = request.e2e_latency

    def test_validation(self):
        with pytest.raises(ValueError):
            Request(request_id=0, prefill_tokens=0, decode_tokens=1)
        with pytest.raises(ValueError):
            Request(request_id=0, prefill_tokens=1, decode_tokens=0)

    @pytest.mark.parametrize("arrival", [float("nan"), float("inf")])
    def test_non_finite_arrival_rejected(self, arrival):
        """A NaN arrival used to be accepted, and a run holding one never drained."""
        with pytest.raises(ValueError, match="arrival_time must be >= 0"):
            Request(request_id=0, prefill_tokens=8, decode_tokens=2, arrival_time=arrival)


class TestMakeRequests:
    def test_builds_ids_and_arrivals(self):
        requests = make_requests([(100, 10), (200, 20)], arrival_times=[0.0, 1.5])
        assert [r.request_id for r in requests] == [0, 1]
        assert requests[1].arrival_time == 1.5

    def test_defaults_to_zero_arrivals(self):
        requests = make_requests([(100, 10)])
        assert requests[0].arrival_time == 0.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            make_requests([(100, 10)], arrival_times=[0.0, 1.0])
