"""Scalar layer: complex log-Gamma, Gauss 2F1, normalized Bessel.

Non-trivial reference values were computed with an arbitrary-precision
oracle (mpmath at 40+ digits) and frozen here."""

import cmath
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hyperbc import _kernels
from hyperbc.errors import DomainError, NonConvergence, PoleError
from hyperbc.special import MAX_TERMS, bessel_j_normalized, gauss_2f1, log_gamma

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


def loop_series(a, b, c, w, maxterms):
    """The Gauss series one term at a time, as hyp2f1_series sums its head
    (and, before it had blocks, its whole length)."""
    s = 1.0 + 0.0j
    term = 1.0 + 0.0j
    aw = abs(w)
    k = 0
    while k < maxterms:
        ratio = (a + k) * (b + k) / ((c + k) * (k + 1.0)) * w
        term = term * ratio
        s += term
        k += 1
        if term == 0.0:
            return s, k
        rr = abs(ratio)
        if rr < 1.0:
            q = rr if rr > aw else aw
            if q < 1.0 and abs(term) * q / (1.0 - q) <= 1e-16 * abs(s):
                return s, k
    return s, maxterms


def pfaff_args(lam, ks, kl, t):
    """The Pfaff series (a, c - b, c, w) of jacobi_phi at t."""
    alpha, beta = ks + kl - 0.5, kl - 0.5
    rho1 = alpha + beta + 1.0
    x = -math.sinh(t) ** 2
    c = complex(alpha + 1.0)
    return 0.5 * (rho1 - lam), c - 0.5 * (rho1 + lam), c, complex(x / (x - 1.0))


class TestSeriesTail:
    """hyp2f1_series sums past its head in numpy blocks: the same number of
    terms and the same value as the loop."""

    @given(st.floats(0.05, 4.4), st.floats(0.0, 6.0), st.floats(-3.0, 3.0),
           st.floats(0.0, 2.0), st.floats(-0.4, 1.5))
    @settings(max_examples=80, deadline=None, derandomize=True)
    def test_matches_loop(self, t, re, im, ks, kl):
        args = pfaff_args(complex(re, im), ks, kl, t)
        got, nterms = _kernels.hyp2f1_series(*args, MAX_TERMS)
        want, nwant = loop_series(*args, MAX_TERMS)
        assert nterms == nwant
        if nterms <= _kernels._SERIES_HEAD:
            assert got == want
        assert rel(got, want) < 1e-12

    @pytest.mark.parametrize("t", [3.6, 4.25, 4.4])
    @pytest.mark.parametrize("lam", [3.5, 2.0 + 1.0j])
    def test_long_series_against_mpmath(self, t, lam):
        a, cb, c, w = pfaff_args(lam, 1.0, 0.6, t)
        assert _kernels.hyp2f1_series(a, cb, c, w, MAX_TERMS)[1] > 1500
        b, z = c - cb, -math.sinh(t) ** 2
        assert rel(gauss_2f1(a, b, c, z), complex(mp.hyp2f1(a, b, c, z))) < 1e-12

    def test_capped_series_returns_maxterms(self):
        # 4,140 terms are needed; the cap falls inside the second block
        args = pfaff_args(3.5, 1.0, 0.6, 4.25)
        got, nterms = _kernels.hyp2f1_series(*args, 1000)
        want, _ = loop_series(*args, 1000)
        assert nterms == 1000 and rel(got, want) < 1e-12

    def test_terminating_past_the_head(self):
        # (-300)_k vanishes from k = 301 on, and at |w| >= 1 only that stops
        # the sum: the block stops where the loop does
        args = (-300.0 + 0j, 1.5 + 0j, 2.5 + 0j, -2.0 + 0j, 302)
        got, nterms = _kernels.hyp2f1_series(*args)
        want, nwant = loop_series(*args)
        assert nterms == nwant == 301 and rel(got, want) < 1e-12
        ref = complex(mp.hyp2f1(-300, 1.5, 2.5, -2.0))
        assert rel(gauss_2f1(-300.0, 1.5, 2.5, -2.0), ref) < 1e-12


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
