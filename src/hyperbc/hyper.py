"""Closed-form evaluators: the product form of the Harish-Chandra series,
the BC_n hypergeometric function F via determinant (k_m = 1) or permanent
(k_m = 0), the partial Weyl-sum spherical function over the A_{n-1}
subsystem, and the rational (Bessel) limit.

Every evaluator takes one point t, shaped (n,), and returns its result,
or a stack of points, shaped (N, n), and returns a list of N results.  A
stack shares its work: each rank-one value f(lambda_i, x) is computed
once per distinct coordinate x of the stack, every point's n x n matrix
is gathered from that table, and the checks that depend on lambda alone
run once."""

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import (
    DegenerateLambda,
    DomainError,
    HalfPlaneError,
    NonConvergence,
    ParameterError,
)
from .hcseries import check_genericity, root_data
from .jacobi import jacobi_phi, jacobi_phi_asymptotic
from .rootsystem import (
    DEGENERACY_TOL,
    MultiplicityBC,
    constant_B,
    delta_m,
    delta_m_rational,
    require_chamber,
    rho,
)
from .special import bessel_j_normalized

GENERICITY_ORDER = 12
#: central-difference step (in lambda^2) of the confluent fallback
CONFLUENT_STEP = 1e-4
#: below this sinh^2(t_1) the determinant is evaluated through divided
#: differences in s = sinh^2 t, which stays accurate as the t_j cluster
#: (the plain det / Delta_m ratio loses all digits near t = 0)
SMALL_T_SINH2 = 0.5
_SMALL_T_MAX_TERMS = 2000

TARGETS = ("F", "PhiSeries", "FTheta", "BesselBC")


@dataclass(frozen=True)
class EvalRequest:
    """t is one point (n,) or a stack of points (N, n)."""

    k: MultiplicityBC
    lam: np.ndarray
    t: np.ndarray
    target: str

    def __post_init__(self):
        if self.target not in TARGETS:
            raise ParameterError(f"unknown target {self.target!r}")


@dataclass(frozen=True)
class EvalResult:
    value: complex
    condition_estimate: float
    degenerate_path: bool


def _stacked(fn):
    """Let an evaluator written for an (N, n) stack of points, returning a
    list, also take one point t, shaped (n,), and return its one result."""

    @functools.wraps(fn)
    def evaluator(k, lam, t):
        t = np.asarray(t, dtype=float)
        out = fn(k, np.asarray(lam, dtype=complex), np.atleast_2d(t))
        return out[0] if t.ndim == 1 else out

    return evaluator


def _table(fn, lam, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """fn(lambda_i, u_q) over lam and the sorted distinct values u of x: the
    (len(lam), len(u)) table, and the index into u of every entry of x,
    shaped like x.  The same u and index as np.unique(x, return_inverse=True),
    which takes about 20 us even on a single point, a tenth of the cheapest
    evaluations."""
    vals = x.ravel().tolist()
    index = {v: q for q, v in enumerate(sorted(set(vals)))}
    u = np.fromiter(index, dtype=float, count=len(index))
    inv = np.fromiter((index[v] for v in vals), dtype=np.intp, count=len(vals))
    table = np.array([[fn(li, uq) for uq in u] for li in lam], dtype=complex)
    return table, inv.reshape(x.shape)


def _gather(table: np.ndarray, inv: np.ndarray) -> np.ndarray:
    """The (N, n, n) stack of matrices m[p, i, j] = table[i, inv[p, j]]."""
    return np.ascontiguousarray(table[:, inv].transpose(1, 0, 2))


def _pi(x: np.ndarray) -> complex:
    """prod_{i<j} (x_i - x_j)."""
    v = 1.0 + 0.0j
    n = len(x)
    for i in range(n):
        for j in range(i + 1, n):
            v *= x[i] - x[j]
    return v


def _degenerate_pairs(lam: np.ndarray):
    """The pairs i < j with lambda_i^2 = lambda_j^2 up to DEGENERACY_TOL."""
    scale = max(1.0, float(np.max(np.abs(lam)) ** 2))
    x = lam**2
    return [
        (i, j)
        for i in range(len(lam))
        for j in range(i + 1, len(lam))
        if abs(x[i] - x[j]) <= DEGENERACY_TOL * scale
    ]


def _require_bessel_domain(lam: np.ndarray, ts: np.ndarray) -> None:
    if np.any(lam == 0.0) or np.any(ts == 0.0):
        raise DomainError("lambda_j != 0 and t_j != 0 required")


def _cond(mat: np.ndarray, result: complex) -> float:
    """Cancellation heuristic: ratio of the no-cancellation magnitude of the
    alternating/plain sum to the achieved result."""
    bound = abs(_kernels.ryser_permanent(np.abs(mat) + 0.0j))
    return float(bound / max(1e-300, abs(result)))


def _reduce(mat: np.ndarray, k_m: int, num: complex = 1.0,
            den: complex = 1.0) -> EvalResult:
    """The reduction shared by every evaluator: perm(mat) / n! for
    k_m = 0, num * det(mat) / den for k_m = 1, with the cancellation
    estimate of either."""
    if k_m == 0:
        red = _kernels.ryser_permanent(mat)
        value = red / math.factorial(len(mat))
    else:
        red = complex(np.linalg.det(mat))
        value = num * red / den
    return EvalResult(complex(value), _cond(mat, red), False)


@_stacked
def phi_product(k: MultiplicityBC, lam, ts) -> list[complex]:
    """Delta_m(a_t)^(-k_m) prod_j Phi^(alpha,beta)_{-i lambda_j}(t_j), the
    product form of the Harish-Chandra series for k_m in {0, 1}."""
    require_chamber(ts)
    check_genericity(root_data(k.n, GENERICITY_ORDER), lam / 2.0, DegenerateLambda)
    jp = k.jacobi
    # coordinate j meets lambda_j only: one table per column of the stack
    cols = []
    for j in range(k.n):
        table, inv = _table(
            lambda li, x: jacobi_phi_asymptotic(jp, li, x), lam[j:j + 1], ts[:, j]
        )
        cols.append(table[0, inv].tolist())
    out = []
    for p, t in enumerate(ts):
        val = 1.0 + 0.0j
        for col in cols:
            val *= col[p]
        if k.k_m == 1:
            val /= delta_m(t)
        out.append(val)
    return out


def _phi_entry(k: MultiplicityBC):
    """The entry function (lambda_i, x) -> phi_{i lambda_i}(x) of F."""
    jp = k.jacobi
    return lambda li, x: jacobi_phi(jp, li, x)


def _phi_matrix(k: MultiplicityBC, lam: np.ndarray, ts: np.ndarray) -> np.ndarray:
    return _gather(*_table(_phi_entry(k), lam, ts))


def _f_det_divided(k: MultiplicityBC, lam: np.ndarray, t: np.ndarray) -> EvalResult:
    """Determinant formula through column divided differences in
    s_j = sinh^2 t_j.  With g_i(s) = phi_{i lambda_i} as a power series in
    -s, the matrix DD_ij = g_i[s_1, ..., s_j] satisfies
    det(g_i(s_j)) = det(DD) prod_{j'<j}(s_j - s_j'), and Delta_m =
    2^(n(n-1)) prod_{i<j}(s_i - s_j), so
    F = (-1)^(n(n-1)/2) B det(DD) / [2^(n(n-1)) prod(lambda_i^2-lambda_j^2)].
    Divided differences of s^m are complete homogeneous polynomials
    h_{m-j+1}(s_1..s_j), so each entry is a directly summed series with no
    cancellation between nearby s_j."""
    n = k.n
    jp = k.jacobi
    rho1, c = jp.rho1, jp.alpha + 1.0
    # math.sinh: numpy's vectorised sinh can differ in the last bit
    # between contiguous and strided t
    s = np.array([math.sinh(x) for x in t.tolist()]) ** 2
    # work with knots scaled by s_1 so every power stays bounded: with
    # sigma_q = s_q / s_1 <= 1, h_d(s_1..s_j) = s_1^d h_d(sigma_1..sigma_j)
    # and the series coefficients absorb s_1^m (they are then the terms of
    # the convergent 2F1 series at s_1)
    s1 = s[0]
    sigma = s / s1
    coefs = []
    for i in range(n):
        a, b = 0.5 * (rho1 - lam[i]), 0.5 * (rho1 + lam[i])
        # scaled coefficients C_m = s_1^m [s^m] 2F1(a, b; c; -s)
        coef = [1.0 + 0.0j]
        peak, small = 1.0, 0
        for m in range(1, _SMALL_T_MAX_TERMS):
            cm = -coef[m - 1] * (a + m - 1) * (b + m - 1) * s1 / ((c + m - 1) * m)
            coef.append(cm)
            peak = max(peak, abs(cm))
            small = small + 1 if abs(cm) <= 1e-22 * peak else 0
            if small >= 5 and m > n:
                break
        else:
            raise NonConvergence("divided-difference series did not converge")
        coefs.append(np.asarray(coef))
    # h[j, d] = h_d(sigma_1..sigma_{j+1}), as far as the longest series reads
    dmax = max(len(coef) for coef in coefs)
    h = np.zeros((n, dmax), dtype=float)
    h[0] = sigma[0] ** np.arange(dmax)
    for j in range(1, n):
        h[j, 0] = 1.0
        for d in range(1, dmax):
            h[j, d] = h[j - 1, d] + sigma[j] * h[j, d - 1]
    mat = np.empty((n, n), dtype=complex)
    for i, coef in enumerate(coefs):
        for j in range(n):
            # DD'_ij = s_1^(j) g_i[s_1..s_{j+1}] = sum_d C_{d+j} h_d(sigma)
            mat[i, j] = np.sum(coef[j:] * h[j, : len(coef) - j])
    npairs = n * (n - 1) // 2
    sign = -1.0 if npairs % 2 else 1.0
    return _reduce(
        mat, 1, sign * constant_B(k), s1**npairs * 2.0 ** (n * (n - 1)) * _pi(lam**2)
    )


@_stacked
def f_determinant(k: MultiplicityBC, lam, ts) -> list[EvalResult]:
    """F(lambda, k; a_t) for k_m = 1:
    B det(phi_{i lambda_i}(t_j)) / [prod_{i<j}(lambda_i^2 - lambda_j^2)
    Delta_m(a_t)].  Near the origin (sinh^2 t_1 < SMALL_T_SINH2) the ratio
    det / Delta_m is computed by divided differences, which remains
    accurate as the denominator degenerates."""
    if k.k_m != 1:
        raise ParameterError("determinant formula requires k_m = 1")
    require_chamber(ts)
    if _degenerate_pairs(lam):
        raise DegenerateLambda(
            "coinciding lambda_i^2; use evaluate() for the confluent path"
        )
    near = [math.sinh(t1) ** 2 < SMALL_T_SINH2 for t1 in ts[:, 0].tolist()]
    far = ts[np.logical_not(near)] if any(near) else ts
    mats = iter(_phi_matrix(k, lam, far) if len(far) else ())
    num, vdm = constant_B(k), _pi(lam**2)
    return [
        _f_det_divided(k, lam, t) if s else _reduce(next(mats), 1, num, vdm * delta_m(t))
        for t, s in zip(ts, near)
    ]


@_stacked
def f_permanent(k: MultiplicityBC, lam, ts) -> list[EvalResult]:
    """F(lambda, k; a_t) for k_m = 0:
    (1/n!) perm(phi_{i lambda_i}(t_j))."""
    if k.k_m != 0:
        raise ParameterError("permanent formula requires k_m = 0")
    return [_reduce(mat, 0) for mat in _phi_matrix(k, lam, ts)]


@_stacked
def f_theta(k: MultiplicityBC, lam, ts) -> list[EvalResult]:
    """Partial spherical function over the A_{n-1} simple-root subset:
    pi(rho)/pi(lambda) det(Phi_{-i lambda_i}(t_j))/Delta_m for k_m = 1,
    (1/n!) perm(Phi_{-i lambda_i}(t_j)) for k_m = 0."""
    if np.any(lam.real <= 0.0):
        raise HalfPlaneError(f"Re lambda_i > 0 required, got {lam}")
    # with Re lambda > 0, lambda_i^2 = lambda_j^2 only where lambda_i = lambda_j
    pairs = _degenerate_pairs(lam) if k.k_m == 1 else []
    if pairs:
        raise DegenerateLambda(f"lambda_{pairs[0][0] + 1} = lambda_{pairs[0][1] + 1}")
    jp = k.jacobi
    mats = _gather(*_table(lambda li, x: jacobi_phi_asymptotic(jp, li, x), lam, ts))
    if k.k_m == 0:
        return [_reduce(mat, 0) for mat in mats]
    num = _pi(rho(k)) / _pi(lam)
    return [_reduce(mat, 1, num, delta_m(t)) for mat, t in zip(mats, ts)]


def _bessel_entry(k: MultiplicityBC):
    """The entry function (lambda_i, x) -> J_alpha(i lambda_i x), normalized,
    of BesselBC."""
    alpha = k.alpha
    if abs(alpha.imag) > 0.0:
        raise ParameterError("Bessel limit implemented for real alpha only")
    a = alpha.real
    return lambda li, x: bessel_j_normalized(a, 1j * li * x)


def _bessel_matrix(k: MultiplicityBC, lam: np.ndarray, ts: np.ndarray) -> np.ndarray:
    return _gather(*_table(_bessel_entry(k), lam, ts))


@_stacked
def bessel_bcn(k: MultiplicityBC, lam, ts) -> list[EvalResult]:
    """Bessel function of type BC_n, the limit of F(eps^-1 lambda, k; a_{eps t}):
    A det(J_alpha(i lambda_i t_j)) / [prod(lambda_i^2 - lambda_j^2)
    Delta_m,rat(a_t)] for k_m = 1, (1/n!) perm(J_alpha(i lambda_i t_j))
    for k_m = 0."""
    _require_bessel_domain(lam, ts)
    if k.k_m == 1 and _degenerate_pairs(lam):
        raise DegenerateLambda(
            "coinciding lambda_i^2; use evaluate() for the confluent path"
        )
    mats = _bessel_matrix(k, lam, ts)
    if k.k_m == 0:
        return [_reduce(mat, 0) for mat in mats]
    num, vdm = constant_B(k), _pi(lam**2)
    return [_reduce(mat, 1, num, vdm * delta_m_rational(t)) for mat, t in zip(mats, ts)]


def _confluent_det_ratio(fn, lam: np.ndarray,
                         ts: np.ndarray) -> list[tuple[complex, np.ndarray]]:
    """det(f(x_i))/prod_{i<j}(x_i - x_j) in the variables x_i = lambda_i^2,
    with the unique coinciding pair replaced by a divided-difference row
    (first-order confluence), for every point of the stack ts.
    fn(lam_scalar, t_scalar) gives one matrix entry; the rows are gathered
    from one table of fn over the distinct values of ts."""
    pairs = _degenerate_pairs(lam)
    if len(pairs) != 1:
        raise DegenerateLambda(
            f"{len(pairs)} coinciding pairs; only single confluence is supported"
        )
    (i, j) = pairs[0]
    x = lam.astype(complex) ** 2
    xbar = 0.5 * (x[i] + x[j])
    scale = max(1.0, float(np.max(np.abs(lam))))
    h = CONFLUENT_STEP * scale
    n = len(lam)
    # row i at xbar; row j the central difference at xbar, from the extra
    # row n
    lams = [cmath.sqrt(xbar) if r == i else lam[r] for r in range(n)]
    lams[j] = cmath.sqrt(xbar + h)
    table, inv = _table(fn, lams + [cmath.sqrt(xbar - h)], ts)
    table[j] = (table[j] - table[n]) / (2.0 * h)
    xeff = x.copy()
    xeff[i] = xeff[j] = xbar
    prod_rest = 1.0 + 0.0j
    for a in range(n):
        for b in range(a + 1, n):
            if (a, b) == (i, j):
                continue
            prod_rest *= xeff[a] - xeff[b]
    # row_j -> f'(xbar) carries a 1/(x_j - x_i) relative to the vanishing
    # Vandermonde factor (x_i - x_j); the leftover sign is -1
    return [(-complex(np.linalg.det(mat)) / prod_rest, mat)
            for mat in _gather(table[:n], inv)]


def _confluent(k: MultiplicityBC, lam: np.ndarray, ts: np.ndarray,
               target: str) -> list[EvalResult]:
    """F or BesselBC at k_m = 1 with one coinciding pair
    lambda_i^2 = lambda_j^2: det / prod(lambda_i^2 - lambda_j^2) through
    the confluent divided-difference determinant."""
    if target == "F":
        require_chamber(ts)
        fn = _phi_entry(k)
        denoms = [delta_m(t) for t in ts]
    else:
        _require_bessel_domain(lam, ts)
        fn = _bessel_entry(k)
        denoms = [delta_m_rational(t) for t in ts]
    num = constant_B(k)
    return [
        EvalResult(complex(num * ratio / denom),
                   _cond(mat, complex(np.linalg.det(mat))), True)
        for (ratio, mat), denom in zip(_confluent_det_ratio(fn, lam, ts), denoms)
    ]


def evaluate(req: EvalRequest):
    """Dispatch on target and k_m; for k_m = 1 determinant targets with a
    single coinciding pair lambda_i^2 = lambda_j^2 the ratio
    det / prod(lambda_i^2 - lambda_j^2) is replaced by a confluent
    divided-difference determinant.  One EvalResult for one point, a
    list of them for a stack."""
    k = req.k
    lam, t = np.asarray(req.lam, dtype=complex), np.asarray(req.t, dtype=float)
    ts = np.atleast_2d(t)
    if req.target == "PhiSeries":
        out = [EvalResult(v, 1.0, False) for v in phi_product(k, lam, ts)]
    elif req.target == "FTheta":
        out = f_theta(k, lam, ts)
    elif k.k_m == 0:
        out = (f_permanent if req.target == "F" else bessel_bcn)(k, lam, ts)
    elif not _degenerate_pairs(lam):
        out = (f_determinant if req.target == "F" else bessel_bcn)(k, lam, ts)
    else:
        out = _confluent(k, lam, ts, req.target)
    return out[0] if t.ndim == 1 else out
