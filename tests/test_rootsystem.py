"""Root-system combinatorics, Weyl group, c-functions, and the
determinant normalization constant."""

import math

import numpy as np
import pytest

from hyperbc.errors import ParameterError, PoleError, SizeError
from hyperbc.hyper import _degenerate_pairs
from hyperbc.rootsystem import (
    MultiplicityBC,
    _c_shortlong,
    apply_weyl,
    c_normalized,
    c_tilde,
    canonical_points,
    constant_B,
    delta_m,
    delta_m_rational,
    in_open_chamber,
    rho,
    weyl_elements,
)

C_NORM_RANK1_REF = 0.8231093935893101  # lambda = 2.3, k_s = 1, k_l = 1/2


def rel(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


class TestMultiplicity:
    def test_derived_parameters(self):
        k = MultiplicityBC(k_s=1.0, k_m=1, k_l=0.5, n=2)
        assert k.alpha == 1.0 and k.beta == 0.0 and k.c0 == 2.0

    def test_km_restricted(self):
        with pytest.raises(ParameterError):
            MultiplicityBC(k_s=1.0, k_m=2, k_l=0.5, n=2)

    def test_alpha_excluded(self):
        with pytest.raises(ParameterError):
            MultiplicityBC(k_s=-1.0, k_m=1, k_l=-0.5, n=2)


class TestRho:
    def test_middle_on(self):
        k = MultiplicityBC(k_s=1.0, k_m=1, k_l=0.5, n=3)
        assert np.allclose(rho(k), [6.0, 4.0, 2.0])

    def test_middle_off(self):
        k = MultiplicityBC(k_s=1.0, k_m=0, k_l=0.5, n=3)
        assert np.allclose(rho(k), [2.0, 2.0, 2.0])


class TestWeylDenominator:
    def test_rank_one_is_trivial(self):
        assert delta_m([0.7]) == 1.0

    def test_rank_two(self):
        t = np.array([1.1, 0.4])
        ref = 2.0 * (math.cosh(2.2) - math.cosh(0.8))
        assert rel(delta_m(t), ref) < 1e-14

    def test_rational_limit(self):
        t = np.array([1.1, 0.4])
        lim = delta_m(1e-5 * t) / 1e-5 ** 2
        assert rel(lim, delta_m_rational(t)) < 1e-6

    def test_rational_rank_two(self):
        assert rel(delta_m_rational([1.0, 0.5]), 4.0 * 0.75) < 1e-14


class TestWeylGroup:
    def test_order(self):
        for n in (1, 2, 3):
            assert len(weyl_elements(n)) == 2**n * math.factorial(n)

    def test_rank_cap(self):
        with pytest.raises(SizeError):
            weyl_elements(9)

    def test_action(self):
        w = ((-1, 1), (1, 0))
        assert np.allclose(apply_weyl(w, [2.0, 5.0]), [-5.0, 2.0])

    def test_group_closure_on_orbit(self):
        lam = np.array([2.3, 1.1])
        orbit = {tuple(apply_weyl(w, lam)) for w in weyl_elements(2)}
        assert len(orbit) == 8


class TestPoints:
    def test_spectral_regular(self):
        assert _degenerate_pairs(np.array([2.3, 1.1])) == []
        assert _degenerate_pairs(np.array([2.0, 2.0])) == [(0, 1)]
        assert _degenerate_pairs(np.array([2.0, -2.0])) == [(0, 1)]

    def test_chamber_canonicalization(self):
        t = canonical_points(np.array([-0.4, 1.0]))
        assert np.allclose(t, [1.0, 0.4])
        assert in_open_chamber(t)

    def test_chamber_ties_not_canonicalized(self):
        assert not in_open_chamber(canonical_points(np.array([0.4, 0.4])))


class TestCFunctions:
    def test_middle_closed_form(self):
        # the full c-tilde over its short/long factors is the middle block
        k = MultiplicityBC(k_s=1.0, k_m=1, k_l=0.5, n=2)
        lam = np.array([2.3, 1.1], dtype=complex)
        got = c_tilde(k, lam) / (_c_shortlong(k, lam[0]) * _c_shortlong(k, lam[1]))
        assert rel(got, 4.0 / (lam[0] ** 2 - lam[1] ** 2)) < 1e-14

    def test_middle_pole(self):
        k = MultiplicityBC(k_s=1.0, k_m=1, k_l=0.5, n=2)
        with pytest.raises(PoleError):
            c_tilde(k, [2.0, 2.0])

    def test_normalized_rank1_reference(self):
        k = MultiplicityBC(k_s=1.0, k_m=1, k_l=0.5, n=1)
        assert rel(c_normalized(k, [2.3]), C_NORM_RANK1_REF) < 1e-12

    def test_normalized_value_at_rho(self):
        # with the middle multiplicity on the normalization is exactly 1;
        # with it off the middle block contributes its limit value 1/m!,
        # matching the 1/n! weight of the permanent form
        k1 = MultiplicityBC(k_s=1.0, k_m=1, k_l=0.5, n=2)
        assert rel(c_normalized(k1, rho(k1)), 1.0) < 1e-12
        k0 = MultiplicityBC(k_s=1.0, k_m=0, k_l=0.5, n=2)
        assert rel(c_normalized(k0, rho(k0)), 0.5) < 1e-12

    def test_middle_limit_value(self):
        # with the middle multiplicity off, the normalized middle block is
        # the limit value 1/n! (the value consistent with the permanent
        # form of the Weyl-sum representation)
        k = MultiplicityBC(k_s=1.0, k_m=0, k_l=0.5, n=3)
        lam = np.array([2.3, 1.7, 1.1], dtype=complex)
        rh = rho(k)
        shortlong = np.prod(
            [_c_shortlong(k, lam[p]) / _c_shortlong(k, rh[p]) for p in range(3)]
        )
        assert rel(c_normalized(k, lam) / shortlong, 1.0 / 6.0) < 1e-14


class TestConstantB:
    def test_rank_one(self):
        assert constant_B(MultiplicityBC(1.0, 1, 0.5, 1)) == 1.0

    def test_rank_two(self):
        # 2^4 (alpha + 1) with alpha = 1
        assert constant_B(MultiplicityBC(1.0, 1, 0.5, 2)) == 32.0

    def test_rank_three(self):
        # 2^12 (alpha+1)^2 1! (alpha+2) 2! with alpha = 1
        assert constant_B(MultiplicityBC(1.0, 1, 0.5, 3)) == 4096.0 * 4.0 * 3.0 * 2.0

    def test_gamma_quotient_identity(self):
        import cmath

        from hyperbc.special import log_gamma

        for n in (2, 3):
            k = MultiplicityBC(k_s=0.8, k_m=1, k_l=0.6, n=n)
            gam = cmath.exp(log_gamma(k.alpha + 1.0))
            denom = c_tilde(k, rho(k)) * (
                2.0 ** (2.0 * 0.8 + 2.0 * 0.6 - 1.0) * gam
            ) ** n
            assert rel(constant_B(k), 2.0 ** (n * (n - 1)) / denom) < 1e-12
