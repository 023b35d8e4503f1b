"""Unit tests of the adaptive quadrature oracle in quadrature_oracle.py."""

import math

import pytest
from hypothesis import given, strategies as st

from disclab.errors import DomainError, NumericalError
from quadrature_oracle import adaptive_integrate


class TestAdaptiveIntegrate:
    def test_sine(self):
        assert adaptive_integrate(math.sin, 0.0, math.pi, tol=1e-12) == pytest.approx(
            2.0, abs=1e-10
        )

    def test_empty_interval(self):
        assert adaptive_integrate(math.sin, 1.0, 1.0) == 0.0

    def test_nonfinite_integrand(self):
        with pytest.raises(DomainError):
            adaptive_integrate(lambda t: math.inf if t == 0.0 else 1.0 / t, 0.0, 1.0)

    def test_max_depth_carries_estimate(self):
        # a needle the subdivision cannot settle at the requested tolerance
        def needle(t):
            return 1.0 / (1e-14 + abs(t - 1.0 / 3.0))

        with pytest.raises(NumericalError, match=r"max depth; estimate \d"):
            adaptive_integrate(needle, 0.0, 1.0, tol=1e-14, max_depth=8)

    @given(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))
    def test_polynomial(self, a, b):
        lo, hi = min(a, b), max(a, b)
        value = adaptive_integrate(lambda t: 3.0 * t * t, lo, hi, tol=1e-12)
        assert value == pytest.approx(hi**3 - lo**3, abs=1e-9)
