"""Tests for the scaling-fit helpers in :mod:`repro.analysis.fits`."""

import pytest

from repro.analysis.fits import power_law_exponent


class TestFits:
    def test_power_law_recovers_exponent(self):
        xs = [64, 128, 256, 512]
        ys = [3.0 * x**1.5 for x in xs]
        alpha, c = power_law_exponent(xs, ys)
        assert alpha == pytest.approx(1.5, abs=1e-9)
        assert c == pytest.approx(3.0, rel=1e-6)

    def test_power_law_validation(self):
        with pytest.raises(ValueError):
            power_law_exponent([1.0], [2.0])
        with pytest.raises(ValueError):
            power_law_exponent([1.0, -2.0], [1.0, 2.0])

