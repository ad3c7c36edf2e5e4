"""Named verification suites cross-checking the closed-form evaluators
against the truncated series oracle, the defining differential equations,
normalization at the identity, Weyl invariance, and the degeneration
limits.  Each suite returns CheckRecord rows shared by the CLI and the
acceptance tests."""

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import TailTooLarge
from .diffops import StencilConfig, SymmetricPolynomial, apply_Dp, apply_L, commutator_residual
from .hcseries import compute_coeffs, series_eval
from .hyper import bessel_bcn, f_determinant, f_permanent, f_theta, phi_product
from .jacobi import jacobi_phi
from .rootsystem import (
    MultiplicityBC,
    _pi,
    apply_weyl,
    c_normalized,
    c_tilde,
    constant_B,
    rho,
    weyl_elements,
)
from .special import log_gamma

#: truncation height for the series oracle
ORACLE_ORDER = 20
ORACLE_TAIL_TOL = 1e-9

#: commutator stencil and tolerance frozen by the step-refinement study
#: (measured residuals on the reference bump: 5.7e-10 at h=0.05,
#: 4.8e-9 at h=0.035, 6.2e-8 at h=0.02, 5.5e-7 at h=0.01 -- roundoff
#: dominated, so the largest step the singularity margin allows is best)
COMMUTATOR_H = 0.05
COMMUTATOR_TOL = 1e-5

#: generic spectral parameters used by the built-in grids (chosen to keep
#: a safe margin in the series genericity condition)
LAM_GENERIC = {1: (2.55,), 2: (2.55, 1.07), 3: (4.15, 2.55, 1.07)}
#: deep-chamber base points (series tail under ORACLE_TAIL_TOL at ORACLE_ORDER)
T_DEEP = {2: (2.7, 1.2), 3: (3.3, 2.1, 1.0)}
#: moderate chamber points for pointwise checks
T_MODERATE = {2: (1.0, 0.4), 3: (1.5, 0.9, 0.4)}

K_POINTS = ((1.0, 0.5), (0.7, 0.3), (1.5, 1.0))

@dataclass(frozen=True)
class CheckRecord:
    suite: str
    name: str
    error: float
    tolerance: float
    passed: bool


def _record(suite: str, name: str, error: float, tol: float) -> CheckRecord:
    error = float(error)
    return CheckRecord(suite=suite, name=name, error=error, tolerance=tol,
                       passed=bool(error <= tol))


def _rel(a: complex, b: complex) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def _f_value(k: MultiplicityBC, lam, t) -> complex:
    if k.k_m == 1:
        return f_determinant(k, lam, t).value
    return f_permanent(k, lam, t).value


def weyl_sum_tables(k: MultiplicityBC, lam, order: int = ORACLE_ORDER):
    """(c(w lambda), coefficient table) for every Weyl element, in the
    order of weyl_elements, reusable across chamber points.  One stacked
    c_normalized call gives every c(w lambda) from the 2n short+long
    factors at +-lambda_j.  The tables come in passes of the 2^n sign
    images of one permutation, which bounds the (2^n, edges) arrays of a
    shell: at n = 3, order 12, a pass peaks at about 0.7 MB of transient
    arrays, all 48 images at once at about 3.5 MB."""
    lam = np.asarray(lam, dtype=complex)
    images = np.array([apply_weyl(w, lam) for w in weyl_elements(k.n)])
    # weyl_elements runs over the signs outside the permutations
    nperm = math.factorial(k.n)
    tables = [None] * len(images)
    for q in range(nperm):
        tables[q::nperm] = compute_coeffs(k, images[q::nperm], order).rows()
    return list(zip(c_normalized(k, images), tables))


def _weyl_sum_from_tables(tables, t, tail_tol: float) -> complex:
    """Sum the c-weighted series values; the truncation tail is controlled
    relative to the total, not per term (reflected terms are exponentially
    small and their own relative tail is irrelevant)."""
    total = 0.0 + 0.0j
    tail = 0.0
    for c_w, table in tables:
        sv = series_eval(table, t, tail_tol=math.inf)
        total += c_w * sv.value
        tail += abs(c_w) * sv.tail_bound
    if tail > tail_tol * max(1e-300, abs(total)):
        raise TailTooLarge(
            f"oracle tail {tail:.3e} above {tail_tol:.1e} of |{abs(total):.3e}|"
        )
    return total


def weyl_sum_oracle(k: MultiplicityBC, lam, t, order: int = ORACLE_ORDER,
                    tail_tol: float = ORACLE_TAIL_TOL) -> complex:
    """Weyl-group sum sum_w c(w lambda) Phi(w lambda; a_t) over the
    truncated series: the independent reference value for F."""
    return _weyl_sum_from_tables(weyl_sum_tables(k, lam, order), t, tail_tol)


# ----------------------------------------------------------------- suites


def _suite_rank1(records, ns):
    k1 = MultiplicityBC(k_s=1.0, k_m=1, k_l=0.5, n=1)
    k0 = MultiplicityBC(k_s=1.0, k_m=0, k_l=0.5, n=1)
    jp = k1.jacobi
    worst = 0.0
    for lam in np.linspace(0.5, 5.0, 10):
        for t in np.linspace(0.2, 2.0, 10):
            ref = jacobi_phi(jp, lam, float(t))
            e1 = _rel(f_determinant(k1, [lam], [t]).value, ref)
            e0 = _rel(f_permanent(k0, [lam], [t]).value, ref)
            worst = max(worst, e1, e0)
    records.append(_record("rank1-reduction", "n=1 10x10 grid", worst, 1e-10))


_RAY = {2: np.array([1.0, 0.6]), 3: np.array([1.0, 0.7, 0.35])}


def _suite_normalization(records, ns):
    for n in ns:
        lam = LAM_GENERIC[n]
        s = _RAY[n]
        for km in (0, 1):
            k = MultiplicityBC(k_s=1.0, k_m=km, k_l=0.5, n=n)
            vals = [_f_value(k, lam, eps * s) for eps in (1e-1, 1e-2, 1e-3)]
            # F(eps) = 1 + c2 eps^2 + c4 eps^4 + ...; two Richardson stages
            # on the step ratio 10 remove eps^2 then eps^4
            r1a = (100.0 * vals[1] - vals[0]) / 99.0
            r1b = (100.0 * vals[2] - vals[1]) / 99.0
            r2 = (1e4 * r1b - r1a) / (1e4 - 1.0)
            records.append(
                _record("normalization", f"n={n} k_m={km} ray limit",
                        abs(r2 - 1.0), 1e-6)
            )


def _suite_weyl(records, ns):
    for n in ns:
        lam = np.array(LAM_GENERIC[n], dtype=complex)
        t = T_MODERATE[n]
        for km in (0, 1):
            k = MultiplicityBC(k_s=1.0, k_m=km, k_l=0.5, n=n)
            base = _f_value(k, lam, t)
            worst = 0.0
            for w in weyl_elements(n):
                worst = max(worst, _rel(_f_value(k, apply_weyl(w, lam), t), base))
            records.append(
                _record("weyl-invariance", f"n={n} k_m={km} all {2**n * math.factorial(n)} images",
                        worst, 1e-9)
            )


def _deep_points(n):
    base = np.array(T_DEEP[n])
    pts = []
    for i in range(10):
        shift = 0.04 * i
        jitter = 0.013 * i
        p = base + shift
        p[0] += jitter
        pts.append(p)
    return pts


def _suite_oracle(records, ns):
    for n in ns:
        lam = LAM_GENERIC[n]
        pts = _deep_points(n)
        for km in (0, 1):
            for ks, kl in K_POINTS:
                k = MultiplicityBC(k_s=ks, k_m=km, k_l=kl, n=n)
                tables = weyl_sum_tables(k, lam)
                worst = 0.0
                for t in pts:
                    oracle = _weyl_sum_from_tables(tables, t, ORACLE_TAIL_TOL)
                    worst = max(worst, _rel(_f_value(k, lam, t), oracle))
                records.append(
                    _record("oracle-equivalence",
                            f"n={n} k_m={km} k=({ks},{kl}) F vs Weyl sum",
                            worst, 1e-8)
                )
        # product form of the series itself
        for km in (0, 1):
            k = MultiplicityBC(k_s=1.0, k_m=km, k_l=0.5, n=n)
            table = compute_coeffs(k, lam, ORACLE_ORDER)
            worst = 0.0
            for t in pts:
                prod = phi_product(k, lam, t)
                ser = series_eval(table, t, ORACLE_TAIL_TOL).value
                worst = max(worst, _rel(prod, ser))
            records.append(
                _record("oracle-equivalence",
                        f"n={n} k_m={km} phi-product vs series", worst, 1e-8)
            )


def _chamber_points(n, count, seed=20240817):
    rng = np.random.default_rng(seed + n)
    pts = []
    while len(pts) < count:
        t = np.sort(rng.uniform(0.35, 2.2, size=n))[::-1]
        gaps = np.diff(-t)
        if t[-1] > 0.35 and np.all(gaps > 0.25):
            pts.append(t)
    return pts


def _suite_eigen(records, ns):
    cfg = StencilConfig(h=1e-3, richardson=True)
    for n in ns:
        lam = np.array(LAM_GENERIC[n])
        for km in (0, 1):
            k = MultiplicityBC(k_s=1.0, k_m=km, k_l=0.5, n=n)
            eig = complex(np.sum(lam.astype(complex) ** 2 - rho(k) ** 2))
            f = lambda t: _f_value(k, lam, t)  # noqa: E731
            worst = 0.0
            for t in _chamber_points(n, 20):
                lhs = apply_L(k, f, t, cfg)
                ref = eig * f(t)
                worst = max(worst, abs(lhs - ref) / max(abs(lhs), abs(ref), 1e-300))
            records.append(
                _record("eigen-residual", f"n={n} k_m={km} L(k) on F", worst, 1e-5)
            )
        # joint eigenvalue of the conjugated symmetric operators on the
        # product solution: each rank-one block contributes
        # lambda_j^2 - (k_s + 2 k_l)^2
        for km in (0, 1):
            k = MultiplicityBC(k_s=1.0, k_m=km, k_l=0.5, n=n)
            p2 = SymmetricPolynomial.elementary(2, n)
            x = lam.astype(complex) ** 2 - complex(k.c0) ** 2
            eig2 = sum(
                x[i] * x[j] for i in range(n) for j in range(i + 1, n)
            )
            g = lambda t: phi_product(k, lam, t)  # noqa: E731
            worst = 0.0
            # h = 0.01 balances truncation against the (1/h^2)^2 roundoff
            # amplification of the nested stencil (residual ~3e-7 at the
            # optimum in the step-refinement scan)
            for t in _deep_points(n)[:2]:
                val = apply_Dp(k, p2, g, t, StencilConfig(h=0.01))
                ref = eig2 * g(t)
                worst = max(worst, abs(val - ref) / max(abs(val), abs(ref), 1e-300))
            records.append(
                _record("eigen-residual", f"n={n} k_m={km} D_p2 on product",
                        worst, 1e-5)
            )


def _suite_bessel(records, ns):
    lam = np.array(LAM_GENERIC[2])
    t = np.array(T_MODERATE[2])
    for km in (0, 1):
        k = MultiplicityBC(k_s=1.0, k_m=km, k_l=0.5, n=2)
        ref = bessel_bcn(k, lam, t).value
        errs = [
            _rel(_f_value(k, lam / eps, eps * t), ref) for eps in (1e-1, 1e-2, 1e-3)
        ]
        mono = 0.0 if errs[0] > errs[1] > errs[2] else 1.0
        records.append(_record("bessel-limit", f"k_m={km} monotone decrease", mono, 0.5))
        records.append(_record("bessel-limit", f"k_m={km} error at eps=1e-3", errs[2], 1e-4))


def _suite_ftheta(records, ns):
    lam = np.array(LAM_GENERIC[2], dtype=complex)
    # traceless base point: the closed-form limits hold as printed on the
    # slice sum(t_j) = 0 (off the slice the two sides differ by the factor
    # exp(-(k_s + 2 k_l) sum t_j), verified numerically)
    t = np.array([0.4, -0.4])
    n = 2
    for km in (0, 1):
        k = MultiplicityBC(k_s=1.0, k_m=km, k_l=0.5, n=n)
        rh = rho(k)
        ew = np.exp(np.outer(lam, t))
        if km == 0:
            ref = complex(_kernels.permanent(ew)) / math.factorial(n)
        else:
            ref = _pi(rh) / _pi(lam) * complex(np.linalg.det(ew)) / _pi(np.exp(2.0 * t))
        errs = []
        for u in (4.0, 6.0, 8.0):
            scaled = cmath.exp(complex(np.sum((rh - lam) * u))) * f_theta(k, lam, t + u).value
            errs.append(_rel(scaled, ref))
        mono = 0.0 if errs[0] > errs[1] > errs[2] else 1.0
        records.append(_record("ftheta-limit", f"k_m={km} monotone decrease", mono, 0.5))
        records.append(_record("ftheta-limit", f"k_m={km} error at u=8", errs[2], 1e-4))


def _suite_commutativity(records, ns):
    k = MultiplicityBC(k_s=1.0, k_m=1, k_l=0.5, n=2)
    p1 = SymmetricPolynomial.elementary(1, 2)
    p2 = SymmetricPolynomial.elementary(2, 2)

    def bump(t):
        return math.exp(-((t[0] - 1.2) ** 2 + (t[1] - 0.5) ** 2))

    cfg = StencilConfig(h=COMMUTATOR_H, richardson=True)
    res = commutator_residual(k, p1, p2, bump, np.array([1.3, 0.6]), cfg)
    records.append(_record("commutativity", "k_m=1 n=2 [D_p1, D_p2] on bump",
                           res, COMMUTATOR_TOL))


def _suite_bconst(records, ns):
    for n in ns:
        worst = 0.0
        for ks in np.linspace(0.6, 1.4, 5):
            for kl in np.linspace(0.3, 1.1, 5):
                k = MultiplicityBC(k_s=float(ks), k_m=1, k_l=float(kl), n=n)
                lhs = constant_B(k)
                gam = cmath.exp(log_gamma(k.alpha + 1.0))
                denom = c_tilde(k, rho(k)) * (
                    2.0 ** (2.0 * ks + 2.0 * kl - 1.0) * gam
                ) ** n
                rhs = 2.0 ** (n * (n - 1)) / denom
                worst = max(worst, _rel(lhs, rhs))
        records.append(_record("B-constant", f"n={n} 5x5 (k_s,k_l) grid", worst, 1e-8))


#: every suite, by name; each appends its records for the ranks ns, which
#: the suites without a rank parameter ignore
SUITES = {
    "rank1-reduction": _suite_rank1,
    "normalization": _suite_normalization,
    "weyl-invariance": _suite_weyl,
    "oracle-equivalence": _suite_oracle,
    "eigen-residual": _suite_eigen,
    "bessel-limit": _suite_bessel,
    "ftheta-limit": _suite_ftheta,
    "commutativity": _suite_commutativity,
    "B-constant": _suite_bconst,
}
SUITE_NAMES = tuple(SUITES)


def run_suite(name: str, n: int | None = None) -> list:
    """Run one named suite; n restricts the rank where applicable
    (default: both 2 and 3)."""
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {SUITE_NAMES}")
    records: list = []
    SUITES[name](records, (n,) if n is not None else (2, 3))
    return records
