"""Scalar layer: complex log-Gamma, Gauss 2F1, normalized Bessel.

Non-trivial reference values were computed with an arbitrary-precision
oracle (mpmath at 40+ digits) and frozen here."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hyperbc.errors import DomainError, NonConvergence, PoleError
from hyperbc.special import bessel_j_normalized, gauss_2f1, log_gamma

# frozen arbitrary-precision references
LOGGAMMA_REF = -2.0721512706826312 + 1.1809590329077773j  # z = 1.5 + 2.5i
H2F1_NEG_REF = 0.6781653010150623 - 0.16310441387694008j  # (0.3+0.2i, 1.7; 2.4; -3.5)
H2F1_POS_REF = 1.1948003346493729  # (0.3, 1.7; 2.4; 0.6)
H2F1_DEEP_REF = 29.657333620673124  # (1.25, -0.75; 2.0; -150)
J0_AT_2 = 0.22389077914123567
JNORM_CMPLX_REF = 0.7902224821595772 - 0.13948706844652384j  # alpha=1.3, x=1.5+0.5i


def rel(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


class TestLogGamma:
    def test_half(self):
        assert rel(log_gamma(0.5), math.log(math.sqrt(math.pi))) < 1e-14

    def test_five(self):
        assert rel(cmath.exp(log_gamma(5.0)), 24.0) < 1e-13

    def test_complex_reference(self):
        assert rel(log_gamma(1.5 + 2.5j), LOGGAMMA_REF) < 1e-13

    @given(
        st.floats(-40.0, 40.0).filter(lambda x: abs(x - round(x)) > 1e-3 or x > 0.5),
        st.floats(-20.0, 20.0),
    )
    @settings(max_examples=80, deadline=None)
    @example(-11.998914300030378, 0.0)
    def test_recurrence(self, x, y):
        z = complex(x, y)
        if abs(z) < 1e-3:
            return
        lhs = cmath.exp(log_gamma(z + 1.0))
        rhs = z * cmath.exp(log_gamma(z))
        assert rel(lhs, rhs) < 1e-12

    def test_reflection(self):
        for z in (0.3 + 0.7j, -1.4 + 0.2j, 2.6 - 1.1j):
            lhs = cmath.exp(log_gamma(z)) * cmath.exp(log_gamma(1.0 - z))
            rhs = math.pi / cmath.sin(math.pi * z)
            assert rel(lhs, rhs) < 1e-12

    def test_pole(self):
        for z in (0.0, -1.0, -7.0):
            with pytest.raises(PoleError):
                log_gamma(z)


class TestGauss2F1:
    def test_binomial_identity(self):
        assert rel(gauss_2f1(1.0, 2.0, 2.0, 0.5), 2.0) < 1e-13

    def test_terminating(self):
        assert rel(gauss_2f1(-1.0, 2.0, 3.0, 0.25), 5.0 / 6.0) < 1e-14

    def test_cosh_identity(self):
        # 2F1(-a, a; 1/2; -sinh^2 t) = cosh(2 a t), here 2a = 2
        z = -math.sinh(0.5) ** 2
        assert rel(gauss_2f1(-1.0, 1.0, 0.5, z), math.cosh(1.0)) < 1e-12

    def test_negative_axis_reference(self):
        got = gauss_2f1(0.3 + 0.2j, 1.7, 2.4, -3.5)
        assert rel(got, H2F1_NEG_REF) < 1e-11

    def test_positive_interval_reference(self):
        assert rel(gauss_2f1(0.3, 1.7, 2.4, 0.6), H2F1_POS_REF) < 1e-11

    def test_deep_negative_reference(self):
        assert rel(gauss_2f1(1.25, -0.75, 2.0, -150.0), H2F1_DEEP_REF) < 1e-11

    @given(
        st.floats(-2.0, 2.0),
        st.floats(-2.0, 2.0),
        st.floats(0.5, 3.0),
        st.floats(-5.0, -0.01),
    )
    @settings(max_examples=60, deadline=None)
    def test_argument_transformation(self, a, b, c, z):
        # value must agree with (1-z)^(-a) 2F1(a, c-b; c; z/(z-1))
        lhs = gauss_2f1(a, b, c, z)
        w = z / (z - 1.0)
        rhs = (1.0 - z) ** (-a) * gauss_2f1(a, c - b, c, w)
        assert rel(lhs, rhs) < 1e-10

    def test_symmetry_in_upper_parameters(self):
        assert rel(gauss_2f1(0.7, 1.9, 2.3, -1.2), gauss_2f1(1.9, 0.7, 2.3, -1.2)) < 1e-12

    def test_rejects_complex_argument(self):
        with pytest.raises(DomainError):
            gauss_2f1(0.5, 0.5, 1.5, 0.3 + 0.2j)

    def test_rejects_near_one(self):
        with pytest.raises((DomainError, NonConvergence)):
            gauss_2f1(0.5, 0.5, 1.5, 1.0 - 1e-9)

    def test_rejects_nonpositive_c(self):
        with pytest.raises(PoleError):
            gauss_2f1(0.5, 0.5, -2.0, 0.3)


class TestBesselNormalized:
    def test_origin(self):
        assert bessel_j_normalized(1.7, 0.0) == 1.0 + 0.0j

    def test_half_integer(self):
        assert rel(bessel_j_normalized(0.5, 1.0), math.sin(1.0)) < 1e-13

    def test_alpha_zero_reference(self):
        assert rel(bessel_j_normalized(0.0, 2.0), J0_AT_2) < 1e-12

    def test_complex_reference(self):
        assert rel(bessel_j_normalized(1.3, 1.5 + 0.5j), JNORM_CMPLX_REF) < 1e-12

    @given(st.floats(0.05, 4.0), st.floats(-0.5, 2.5))
    @settings(max_examples=50, deadline=None)
    def test_even_in_argument(self, x, alpha):
        assert rel(bessel_j_normalized(alpha, x), bessel_j_normalized(alpha, -x)) < 1e-13

    def test_pole_alpha(self):
        with pytest.raises(PoleError):
            bessel_j_normalized(-2.0, 1.0)

    def test_purely_imaginary_argument_is_real_positive(self):
        v = bessel_j_normalized(1.0, 2.3j)
        assert v.real > 1.0 and abs(v.imag) < 1e-14
