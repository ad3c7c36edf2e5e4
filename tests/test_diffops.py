"""Finite-difference operators: eigenvalue residuals on known
eigenfunctions, stencil-order verification, the rational limit, operator
commutativity, and the guard rails (singularity margin, step floor,
step-halving blowup)."""

import math

import numpy as np
import pytest

from hyperbc.diffops import (
    StencilConfig,
    SymmetricPolynomial,
    apply_Dp,
    apply_Dp_rational,
    apply_L,
    apply_L_rational,
    commutator_residual,
)
from hyperbc.errors import ParameterError, SingularityTooClose, StencilBlowup
from hyperbc.hyper import bessel_bcn, f_determinant, phi_product
from hyperbc.jacobi import jacobi_phi
from hyperbc.rootsystem import MultiplicityBC, rho
from hyperbc.special import bessel_j_normalized
from hyperbc.verify import LAM_GENERIC, _deep_points

K1 = MultiplicityBC(k_s=1.0, k_m=1, k_l=0.5, n=2)
K1R1 = MultiplicityBC(k_s=1.0, k_m=1, k_l=0.5, n=1)
LAM2 = np.array([2.55, 1.07])
T2 = np.array([1.0, 0.4])


def rel(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


class TestConfig:
    def test_step_floor(self):
        with pytest.raises(ParameterError):
            StencilConfig(h=1e-7)

    def test_scheme_restricted(self):
        with pytest.raises(ParameterError):
            StencilConfig(scheme=3)
        with pytest.raises(ParameterError):
            StencilConfig(scheme=4)


class TestApplyL:
    @pytest.mark.parametrize("apply, n, calls", [
        (apply_L, 2, 9), (apply_L, 3, 13), (apply_L_rational, 2, 9), (apply_L_rational, 3, 13),
    ])
    def test_f_at_t_once_for_both_steps(self, apply, n, calls):
        # per step the 2n axis values, which the middle-root terms reuse,
        # and f(t) once for both Richardson steps
        k = MultiplicityBC(k_s=1.0, k_m=1, k_l=0.5, n=n)
        seen = []

        def f(s):
            seen.append(tuple(s))
            return math.exp(-float(np.sum((s - 0.5) ** 2)))

        t = np.array([1.6, 1.0, 0.4][-n:])
        apply(k, f, t, StencilConfig(h=1e-3))
        assert len(seen) == calls
        assert seen.count(tuple(t)) == 1

    def test_rank_one_eigenvalue(self):
        # phi is an eigenfunction with eigenvalue lambda^2 - rho^2
        lam = 2.3
        f = lambda s: jacobi_phi(K1R1.jacobi, lam, s[0])
        ref = (lam**2 - 4.0) * f(np.array([0.7]))
        assert rel(apply_L(K1R1, f, [0.7]), ref) < 1e-5

    def test_rank_two_eigenvalue(self):
        f = lambda s: f_determinant(K1, LAM2, s).value
        ev = float(np.sum(LAM2**2 - rho(K1).real ** 2))
        ref = ev * f(T2)
        got = apply_L(K1, f, T2, StencilConfig(h=1e-3))
        assert rel(got, ref) < 1e-6

    def test_second_order_convergence(self):
        # without extrapolation the order-2 stencil error must shrink by
        # a factor of 4 when the step is halved
        lam = 2.3
        f = lambda s: jacobi_phi(K1R1.jacobi, lam, s[0])
        ref = (lam**2 - 4.0) * f(np.array([0.7]))

        def err(h):
            g = apply_L(K1R1, f, [0.7], StencilConfig(h=h, richardson=False))
            return abs(g - ref)

        ratio = err(1e-2) / err(5e-3)
        assert 3.5 < ratio < 4.5

    def test_singularity_margin(self):
        f = lambda s: float(np.sum(s**2))
        with pytest.raises(SingularityTooClose):
            apply_L(K1, f, [1.0, 0.9995], StencilConfig(h=1e-4))
        with pytest.raises(SingularityTooClose):
            apply_L(K1R1, f, [1e-5], StencilConfig(h=1e-4))


class TestApplyLRational:
    def test_bessel_eigenvalue_pins_coefficient(self):
        # the normalized Bessel function at imaginary argument is an exact
        # eigenfunction with eigenvalue +lambda^2; this pins the first-order
        # numerator 2 k_s + 2 k_l of the rank-one rational block
        lam = 2.3
        f = lambda s: bessel_j_normalized(1.0, 1j * lam * s[0])
        ref = lam**2 * f(np.array([0.7]))
        assert rel(apply_L_rational(K1R1, f, [0.7]), ref) < 1e-7

    def test_epsilon_limit_of_full_operator(self):
        # eps^2 L(k) on a profile scaled by 1/eps converges to the rational
        # operator at rate O(eps^2)
        bump = lambda s: math.exp(-float(np.sum((s - np.array([1.1, 0.5])) ** 2)))
        t0 = np.array([1.4, 0.7])
        ref = apply_L_rational(K1, bump, t0, StencilConfig(h=1e-4))
        errs = []
        for eps in (0.03, 0.01):
            feps = lambda s: bump(s / eps)
            cfg = StencilConfig(h=max(eps * 1e-3, 1e-6))
            lhs = eps**2 * apply_L(K1, feps, eps * t0, cfg)
            errs.append(rel(lhs, ref))
        assert errs[0] < 2e-3
        assert errs[1] < 1e-4
        assert errs[1] < errs[0]


class TestSymmetricPolynomial:
    def test_elementary_monomials(self):
        e2 = SymmetricPolynomial.elementary(2, 3)
        mono = e2.monomials()
        assert mono == {
            (1, 1, 0): 1.0,
            (1, 0, 1): 1.0,
            (0, 1, 1): 1.0,
        }

    def test_square_of_power_sum_generator(self):
        p = SymmetricPolynomial(n=2, terms=(((2, 0), 1.0),))
        mono = p.monomials()
        assert mono == {(2, 0): 1.0, (1, 1): 2.0, (0, 2): 1.0}

    def test_index_out_of_range(self):
        with pytest.raises(ParameterError):
            SymmetricPolynomial.elementary(4, 3)


class TestApplyDp:
    def test_product_eigenvalue_on_conjugated_blocks(self):
        # each conjugated rank-one block acts on the product of asymptotic
        # rank-one solutions with eigenvalue lambda_j^2 - (k_s + 2 k_l)^2,
        # so e_2 gives the product over j
        p2 = SymmetricPolynomial.elementary(2, 2)
        td = np.array([2.7, 1.2])
        f = lambda s: phi_product(K1, LAM2, s)
        c2 = (1.0 + 2.0 * 0.5) ** 2
        ev = float(np.prod(LAM2**2 - c2))
        got = apply_Dp(K1, p2, f, td, StencilConfig(h=0.01))
        assert rel(got, ev * f(td)) < 1e-5

    def test_rational_bessel_eigenvalue(self):
        p1 = SymmetricPolynomial.elementary(1, 2)
        f = lambda s: bessel_bcn(K1, LAM2, s).value
        ev = float(np.sum(LAM2**2))
        got = apply_Dp_rational(K1, p1, f, T2, StencilConfig(h=0.01))
        assert rel(got, ev * f(T2)) < 1e-7

    @pytest.mark.parametrize("km", [0, 1])
    def test_step_halving_second_order(self, km):
        # without Richardson the value is the one at h / 2 once the
        # step-halving check passes; the e_2 eigen-residual on the product
        # then falls like h^2 (measured 1.95e-3 at h = 0.02, 4.9e-4 at 0.01)
        k = MultiplicityBC(k_s=1.0, k_m=km, k_l=0.5, n=2)
        lam = np.array(LAM_GENERIC[2])
        x = lam**2 - complex(k.c0) ** 2
        td = _deep_points(2)[0]
        p2 = SymmetricPolynomial.elementary(2, 2)
        f = lambda s: phi_product(k, lam, s)

        def residual(h):
            got = apply_Dp(k, p2, f, td, StencilConfig(h, richardson=False))
            return rel(got, x[0] * x[1] * f(td))

        coarse, fine = residual(0.02), residual(0.01)
        assert coarse <= 3e-3
        assert 3.5 <= coarse / fine <= 4.5

    def test_step_halving_blowup(self):
        # a nested second-order application at a step near the floor loses
        # enough digits that the step-halving check must fire
        p2 = SymmetricPolynomial.elementary(2, 2)
        f = lambda s: phi_product(K1, LAM2, s)
        with pytest.raises(StencilBlowup):
            apply_Dp(K1, p2, f, [2.7, 1.2], StencilConfig(h=2e-6, richardson=False))


class TestCommutativity:
    def test_conjugated_operators_commute(self):
        # D_{e_1} and D_{e_2} applied both ways around on a generic smooth
        # function; the residual at h = 0.05 was measured at 5.7e-10 and
        # grows roughly like h^(-3) toward smaller steps
        p1 = SymmetricPolynomial.elementary(1, 2)
        p2 = SymmetricPolynomial.elementary(2, 2)
        f = lambda s: math.exp(-((s[0] - 1.2) ** 2 + (s[1] - 0.5) ** 2))
        r = commutator_residual(K1, p1, p2, f, [1.3, 0.6], StencilConfig(h=0.05))
        assert r < 1e-5
