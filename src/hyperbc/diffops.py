"""Finite-difference realization of the hypergeometric differential
operators in t-coordinates: the full second-order operator L(k), the
rank-one blocks L_j, conjugated symmetric-polynomial operators
D_p = Delta_m^(-k_m) p(L_1,...,L_n) Delta_m^(k_m), their rational limits,
and residual/commutativity testers."""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, SingularityTooClose, StencilBlowup
from .rootsystem import MultiplicityBC, delta_m, delta_m_rational

#: step-halving disagreement above this fraction of magnitude means the
#: nested stencil has lost too many digits
BLOWUP_FRACTION = 0.25


@dataclass(frozen=True)
class StencilConfig:
    """Step and Richardson extrapolation of the central-difference
    stencils; scheme is their order, and only 2 is implemented."""

    h: float = 1e-4
    richardson: bool = True
    scheme: int = 2

    def __post_init__(self):
        if not self.h > 0.0 or self.h < 1e-6:
            raise ParameterError(f"step h = {self.h} below the cancellation floor")
        if self.scheme != 2:
            raise ParameterError(f"scheme must be 2, got {self.scheme}")


def _check_singularity(k: MultiplicityBC, t: np.ndarray, h: float) -> None:
    margin = 10.0 * h
    n = len(t)
    dists = [abs(tj) for tj in t]
    if k.k_m != 0:
        for i in range(n):
            for j in range(i + 1, n):
                dists += [abs(t[i] - t[j]), abs(t[i] + t[j])]
    if min(dists) < margin:
        raise SingularityTooClose(
            f"t = {t} within {margin:.2e} of a singular hyperplane"
        )


def _coth(x: float) -> float:
    return 1.0 / math.tanh(x)


def _coth_rational(x: float) -> float:
    """The rational limit of coth: 1/x.  With it the rank-one coefficient
    2(k_s coth t + 2 k_l coth 2t) becomes (2k_s + 2k_l)/t."""
    return 1.0 / x


def _Lj_once(k: MultiplicityBC, j: int, g, t: np.ndarray, h: float, coth, g0):
    """Rank-one block L_j = d^2/dt_j^2 + 2(k_s coth t_j + 2 k_l coth 2t_j)
    d/dt_j applied by finite differences; g0 = g(t), and coth is _coth or
    its rational limit _coth_rational.  Returns L_j g and the central
    difference for d/dt_j g."""
    ks, kl = complex(k.k_s), complex(k.k_l)
    e = np.eye(len(t))[j]
    gp, gm = g(t + h * e), g(t - h * e)
    d1 = (gp - gm) / (2.0 * h)
    d2 = (gp - 2.0 * g0 + gm) / (h * h)
    coef = 2.0 * (ks * coth(t[j]) + 2.0 * kl * coth(2.0 * t[j]))
    return d2 + coef * d1, d1


def _L_once(k: MultiplicityBC, f, t: np.ndarray, h: float, coth, f0):
    """L(k) f at t by the step-h stencils, given f0 = f(t).  The middle-root
    terms take the derivative along e_i +- e_j as d/dt_i f +- d/dt_j f, from
    the axis differences of the L_j, so f is called 2n times per step."""
    km = k.k_m
    n = len(t)
    total = 0.0 + 0.0j
    d1 = []
    for j in range(n):
        lj, dj = _Lj_once(k, j, f, t, h, coth, f0)
        total += lj
        d1.append(dj)
    if km != 0:
        for i in range(n):
            for j in range(i + 1, n):
                for s in (-1.0, 1.0):
                    total += 2.0 * km * coth(t[i] + s * t[j]) * (d1[i] + s * d1[j])
    return total


def _richardson(apply_once, h, richardson):
    """Second-order Richardson extrapolation from steps h and h/2."""
    if not richardson:
        return apply_once(h)
    return (4.0 * apply_once(h / 2.0) - apply_once(h)) / 3.0


def apply_L(k: MultiplicityBC, f, t, cfg: StencilConfig = StencilConfig()):
    """Finite-difference value of (L(k) f)(t) in t-coordinates.  On the
    hypergeometric function the eigenvalue is sum_j (lambda_j^2 - rho_j^2)."""
    t = np.asarray(t, dtype=float)
    _check_singularity(k, t, cfg.h)
    f0 = f(t)
    return _richardson(lambda h: _L_once(k, f, t, h, _coth, f0), cfg.h, cfg.richardson)


def apply_L_rational(k: MultiplicityBC, f, t, cfg: StencilConfig = StencilConfig()):
    """Rational limit sum_j [d^2/dt_j^2 + (2k_s+2k_l)/t_j d/dt_j] plus the
    middle-root terms with coth replaced by reciprocals.  The first-order
    numerator 2k_s+2k_l = 2 alpha + 1 is pinned by requiring the normalized
    Bessel function to be an exact eigenfunction with eigenvalue lambda^2."""
    t = np.asarray(t, dtype=float)
    _check_singularity(k, t, cfg.h)
    f0 = f(t)
    return _richardson(
        lambda h: _L_once(k, f, t, h, _coth_rational, f0), cfg.h, cfg.richardson
    )


@dataclass(frozen=True)
class SymmetricPolynomial:
    """Symmetric polynomial in n variables, stored as coefficients over
    monomials in the elementary symmetric generators p_1, ..., p_n."""

    n: int
    terms: tuple  # ((exponents over p_1..p_n, coeff), ...)

    @classmethod
    def elementary(cls, j: int, n: int) -> "SymmetricPolynomial":
        if not 1 <= j <= n:
            raise ParameterError(f"elementary index {j} out of range for n = {n}")
        e = [0] * n
        e[j - 1] = 1
        return cls(n=n, terms=((tuple(e), 1.0),))

    def monomials(self) -> dict:
        """Expansion into monomials over the underlying variables,
        {exponent tuple: coefficient}."""
        n = self.n
        elem = []
        for j in range(1, n + 1):
            d = {}
            for subset in _subsets(n, j):
                expo = [0] * n
                for i in subset:
                    expo[i] = 1
                d[tuple(expo)] = 1.0
            elem.append(d)
        out = {}
        for gen_expo, coeff in self.terms:
            cur = {(0,) * n: complex(coeff)}
            for j, power in enumerate(gen_expo):
                for _ in range(power):
                    cur = _poly_mul(cur, elem[j])
            for expo, c in cur.items():
                out[expo] = out.get(expo, 0.0) + c
        return out


def _subsets(n, j):
    from itertools import combinations

    return combinations(range(n), j)


def _poly_mul(a, b):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, 0.0) + ca * cb
    return out


def _apply_monomial(k, expo, g, t, cfg, coth):
    nz = [j for j, e in enumerate(expo) if e > 0]
    if not nz:
        return g(t)
    j = nz[0]
    rest = list(expo)
    rest[j] -= 1
    rest = tuple(rest)

    def inner(s):
        return _apply_monomial(k, rest, g, s, cfg, coth)

    return _richardson(
        lambda h: _Lj_once(k, j, inner, t, h, coth, inner(t))[0], cfg.h, cfg.richardson
    )


def _apply_dp(k, p, f, t, cfg, coth, weight_fn):
    t = np.asarray(t, dtype=float)
    _check_singularity(k, t, cfg.h)
    km = k.k_m

    if km == 0:
        g = f
    else:
        def g(s):
            return weight_fn(s) * f(s)

    total = 0.0 + 0.0j
    for expo, coeff in p.monomials().items():
        total += coeff * _apply_monomial(k, expo, g, t, cfg, coth)
    if km != 0:
        total /= weight_fn(t)

    # step-halving disagreement check against a quarter of the magnitude
    cfg2 = StencilConfig(h=cfg.h / 2.0, richardson=False) \
        if cfg.h / 2.0 >= 1e-6 else None
    if cfg2 is not None and not cfg.richardson:
        total2 = 0.0 + 0.0j
        for expo, coeff in p.monomials().items():
            total2 += coeff * _apply_monomial(k, expo, g, t, cfg2, coth)
        if km != 0:
            total2 /= weight_fn(t)
        scale = max(abs(total), abs(total2), 1e-300)
        if abs(total - total2) > BLOWUP_FRACTION * scale:
            raise StencilBlowup(
                f"step-halving disagreement {abs(total - total2) / scale:.2e}"
            )
        total = total2
    return total


def apply_Dp(k: MultiplicityBC, p: SymmetricPolynomial, f, t,
             cfg: StencilConfig = StencilConfig()):
    """Finite-difference value of
    [Delta_m^(-k_m) p(L_1,...,L_n) Delta_m^(k_m) f](t).  On the conjugated
    product of rank-one solutions each L_j contributes the eigenvalue
    lambda_j^2 - (k_s + 2 k_l)^2."""
    return _apply_dp(k, p, f, t, cfg, _coth, lambda s: delta_m(s) ** k.k_m)


def apply_Dp_rational(k: MultiplicityBC, p: SymmetricPolynomial, f, t,
                      cfg: StencilConfig = StencilConfig()):
    """Rational analogue of apply_Dp with the L_j^rat blocks and the
    rational Weyl denominator."""
    return _apply_dp(
        k, p, f, t, cfg, _coth_rational, lambda s: delta_m_rational(s) ** k.k_m
    )


def commutator_residual(k: MultiplicityBC, p: SymmetricPolynomial,
                        q: SymmetricPolynomial, f, t,
                        cfg: StencilConfig = StencilConfig()) -> float:
    """|([D_p, D_q] f)(t)| relative to the magnitudes of the two nested
    applications, by finite differences both ways."""
    t = np.asarray(t, dtype=float)

    def dq_f(s):
        return apply_Dp(k, q, f, s, cfg)

    def dp_f(s):
        return apply_Dp(k, p, f, s, cfg)

    pq = apply_Dp(k, p, dq_f, t, cfg)
    qp = apply_Dp(k, q, dp_f, t, cfg)
    scale = max(abs(pq), abs(qp), 1e-300)
    return abs(pq - qp) / scale
