"""Tests for repro.utils.units and repro.utils.validation."""

from __future__ import annotations

import pytest

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
        assert units.seconds_to_ms(0.5) == 500.0

    def test_seconds_to_us(self):
        assert units.seconds_to_us(1e-6) == pytest.approx(1.0)

    def test_ms_roundtrip(self):
        assert units.ms_to_seconds(units.seconds_to_ms(0.123)) == pytest.approx(0.123)

    def test_us_roundtrip(self):
        assert units.us_to_seconds(units.seconds_to_us(4.2e-5)) == pytest.approx(4.2e-5)

    def test_bytes_to_gb_roundtrip(self):
        assert units.gb_to_bytes(units.bytes_to_gb(12345678)) == pytest.approx(12345678)

    def test_tflops_conversion(self):
        assert units.tflops_to_flops_per_s(312) == pytest.approx(312e12)

    def test_gbps_conversion(self):
        assert units.gbps_to_bytes_per_s(2039) == pytest.approx(2039e9)


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
