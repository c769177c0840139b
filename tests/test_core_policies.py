"""Tests for the CTA scheduling policies."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.core.scheduling_policy import (
    MAX_PERIOD,
    FiftyFiftyPolicy,
    POLICIES,
    ProportionalPolicy,
    get_policy,
)


class TestFiftyFifty:
    def test_balanced_ratio(self):
        assert FiftyFiftyPolicy().ratio(100, 7) == (1, 1)

    def test_degenerate_prefill_only(self):
        assert FiftyFiftyPolicy().ratio(10, 0) == (1, 0)

    def test_degenerate_decode_only(self):
        assert FiftyFiftyPolicy().ratio(0, 10) == (0, 1)


class TestProportional:
    def test_paper_example(self):
        """Paper §5.4.2: 50 prefill and 100 decode CTAs → 1 prefill then 2 decode."""
        assert ProportionalPolicy().ratio(50, 100) == (1, 2)

    def test_reduces_by_gcd(self):
        # Rescaling without the gcd would give (2, 2) and (3, 1).
        assert ProportionalPolicy().ratio(30, 30) == (1, 1)
        assert ProportionalPolicy().ratio(40, 20) == (2, 1)

    def test_long_periods_are_rescaled(self):
        # 20:30 reduces to 2:3 (period 5), which exceeds the period cap of
        # MAX_PERIOD = 4 and is rescaled while keeping both sides represented.
        prefill_ratio, decode_ratio = ProportionalPolicy().ratio(20, 30)
        assert prefill_ratio >= 1 and decode_ratio >= 1
        assert prefill_ratio + decode_ratio <= MAX_PERIOD == 4

    def test_large_ratio_is_capped(self):
        prefill_ratio, decode_ratio = ProportionalPolicy().ratio(1536, 220)
        assert prefill_ratio + decode_ratio <= MAX_PERIOD
        assert prefill_ratio >= 1 and decode_ratio >= 1

    def test_degenerate_sides(self):
        policy = ProportionalPolicy()
        assert policy.ratio(5, 0) == (1, 0)
        assert policy.ratio(0, 5) == (0, 1)

    @given(st.integers(1, 5000), st.integers(1, 5000))
    def test_ratio_is_small_and_positive(self, prefill, decode):
        prefill_ratio, decode_ratio = ProportionalPolicy().ratio(prefill, decode)
        assert prefill_ratio >= 1 and decode_ratio >= 1
        assert prefill_ratio + decode_ratio <= MAX_PERIOD + 1

    @given(st.integers(1, 5000), st.integers(1, 5000))
    def test_ratio_orientation_preserved(self, prefill, decode):
        """The larger operation never gets the smaller share."""
        prefill_ratio, decode_ratio = ProportionalPolicy().ratio(prefill, decode)
        if prefill > decode:
            assert prefill_ratio >= decode_ratio
        elif decode > prefill:
            assert decode_ratio >= prefill_ratio


class TestRegistry:
    def test_get_policy(self):
        assert isinstance(get_policy("50:50"), FiftyFiftyPolicy)
        assert isinstance(get_policy("proportional"), ProportionalPolicy)

    def test_unknown_policy(self):
        with pytest.raises(ValueError):
            get_policy("random")

    def test_registry_names(self):
        assert set(POLICIES) == {"50:50", "proportional"}
