"""Tests for repro.utils.stats."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.utils.stats import (
    Summary,
    geometric_mean,
    mean,
    median,
    percentile,
    percentiles,
    summarize,
)


class TestMean:
    def test_simple(self):
        assert mean([1.0, 2.0, 3.0]) == pytest.approx(2.0)

    def test_single_value(self):
        assert mean([5.0]) == 5.0

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            mean([])


class TestGeometricMean:
    def test_equal_values(self):
        assert geometric_mean([4.0, 4.0, 4.0]) == pytest.approx(4.0)

    def test_known_value(self):
        assert geometric_mean([1.0, 4.0]) == pytest.approx(2.0)

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            geometric_mean([1.0, 0.0])

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            geometric_mean([])


class TestPercentile:
    def test_median_odd(self):
        assert percentile([3.0, 1.0, 2.0], 50) == pytest.approx(2.0)

    def test_p0_and_p100(self):
        data = [5.0, 1.0, 9.0]
        assert percentile(data, 0) == 1.0
        assert percentile(data, 100) == 9.0

    def test_interpolation(self):
        assert percentile([1.0, 2.0], 50) == pytest.approx(1.5)

    def test_invalid_pct(self):
        with pytest.raises(ValueError):
            percentile([1.0], 101)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            percentile([], 50)

    @given(
        st.lists(
            st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=1, max_size=50
        ),
        st.floats(min_value=0, max_value=100),
    )
    def test_matches_numpy(self, values, pct):
        assert percentile(values, pct) == pytest.approx(
            float(np.percentile(values, pct)), rel=1e-9, abs=1e-9
        )

    @given(
        st.lists(st.floats(min_value=0, max_value=1e6, allow_nan=False), min_size=1, max_size=50)
    )
    def test_monotone_in_pct(self, values):
        assert percentile(values, 25) <= percentile(values, 75) + 1e-12


class TestPercentiles:
    @given(
        st.lists(
            st.floats(min_value=0, max_value=1e12, allow_nan=False, allow_subnormal=False),
            min_size=1,
            max_size=60,
        ),
        st.lists(st.floats(min_value=0, max_value=100), min_size=1, max_size=6),
    )
    def test_matches_numpy_linear(self, values, pcts):
        """Non-negative samples, as latencies are: numpy's default method
        within 1e-12 relative."""
        got = percentiles(values, pcts)
        want = np.percentile(values, pcts)
        assert len(got) == len(pcts)
        for value, expected in zip(got, want):
            assert math.isclose(value, float(expected), rel_tol=1e-12)

    def test_percentile_is_the_single_case(self):
        data = [0.3, 0.1, 0.7, 0.2]
        assert percentiles(data, (10, 50, 99)) == [percentile(data, p) for p in (10, 50, 99)]

    def test_invalid_pct_rejected(self):
        with pytest.raises(ValueError):
            percentiles([1.0, 2.0], (50, 101))

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            percentiles([], (50,))


class TestMedian:
    def test_median(self):
        assert median([1.0, 10.0, 100.0]) == 10.0


class TestSummarize:
    def test_fields(self):
        summary = summarize([1.0, 2.0, 3.0, 4.0])
        assert isinstance(summary, Summary)
        assert summary.count == 4
        assert summary.minimum == 1.0
        assert summary.maximum == 4.0
        assert summary.mean == pytest.approx(2.5)

    def test_percentile_ordering(self):
        summary = summarize(range(1, 101))
        assert summary.p50 <= summary.p90 <= summary.p99 <= summary.maximum

    def test_as_dict_keys(self):
        summary = summarize([1.0, 2.0])
        assert set(summary.as_dict()) == {"count", "mean", "min", "p50", "p90", "p99", "max"}

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            summarize([])

    @given(
        st.lists(st.floats(min_value=0, max_value=1e9, allow_nan=False), min_size=1, max_size=30)
    )
    def test_mean_between_min_and_max(self, values):
        summary = summarize(values)
        tolerance = 1e-6 * max(1.0, abs(summary.maximum))
        assert summary.minimum - tolerance <= summary.mean <= summary.maximum + tolerance


class TestGeometricMeanProperty:
    @given(st.lists(st.floats(min_value=0.1, max_value=1e3), min_size=1, max_size=20))
    def test_between_min_and_max(self, values):
        gm = geometric_mean(values)
        assert min(values) - 1e-9 <= gm <= max(values) + 1e-9

    @given(st.lists(st.floats(min_value=0.1, max_value=1e3), min_size=1, max_size=20))
    def test_log_linearity(self, values):
        gm = geometric_mean(values)
        expected = math.exp(sum(math.log(v) for v in values) / len(values))
        assert gm == pytest.approx(expected)
