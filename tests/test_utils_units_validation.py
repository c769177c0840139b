"""Tests for repro.utils.units and repro.utils.validation."""

from __future__ import annotations

import pytest

from repro.gpu.config import get_gpu
from repro.utils import units
from repro.utils.validation import (
    check_fraction,
    check_in_choices,
    check_non_negative,
    check_positive,
)


class TestUnits:
    def test_byte_units(self):
        assert units.KB == 1024
        assert units.MB == 1024 * 1024
        assert units.GB == 1024**3

    def test_seconds_to_ms(self):
        assert 0.5 / units.MS == pytest.approx(500.0)

    def test_seconds_to_us(self):
        assert 1e-6 / units.US == pytest.approx(1.0)

    def test_tflops_conversion(self):
        """Spec sheets print tensor throughput in TFLOPS: the A100's 312."""
        assert 312 * units.TERA == pytest.approx(312e12)
        assert get_gpu("a100").tensor_flops == 312 * units.TERA

    def test_gbps_conversion(self):
        """... and HBM bandwidth in decimal GB/s: the A100's 2,039."""
        assert 2039 * units.GIGA == pytest.approx(2039e9)
        assert get_gpu("a100").hbm_bandwidth == 2039 * units.GIGA


class TestCheckPositive:
    def test_accepts_positive(self):
        assert check_positive("x", 3) == 3

    @pytest.mark.parametrize("value", [0, -1, -0.5])
    def test_rejects_non_positive(self, value):
        with pytest.raises(ValueError, match="x must be > 0"):
            check_positive("x", value)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_rejects_non_finite(self, value):
        with pytest.raises(ValueError, match="x must be > 0"):
            check_positive("x", value)


class TestCheckNonNegative:
    def test_accepts_zero(self):
        assert check_non_negative("x", 0) == 0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            check_non_negative("x", -1e-9)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_rejects_non_finite(self, value):
        with pytest.raises(ValueError, match="x must be >= 0"):
            check_non_negative("x", value)


class TestCheckInChoices:
    def test_accepts_member(self):
        assert check_in_choices("mode", "a", ("a", "b")) == "a"

    def test_rejects_non_member(self):
        with pytest.raises(ValueError, match="mode"):
            check_in_choices("mode", "c", ("a", "b"))


class TestCheckFraction:
    @pytest.mark.parametrize("value", [0.0, 0.5, 1.0])
    def test_accepts_fraction(self, value):
        assert check_fraction("f", value) == value

    @pytest.mark.parametrize("value", [-0.01, 1.01])
    def test_rejects_out_of_range(self, value):
        with pytest.raises(ValueError):
            check_fraction("f", value)
