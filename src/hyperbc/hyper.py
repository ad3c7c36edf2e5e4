"""Closed-form evaluators: the product form of the Harish-Chandra series,
the BC_n hypergeometric function F via determinant (k_m = 1) or permanent
(k_m = 0), the partial Weyl-sum spherical function over the A_{n-1}
subsystem, and the rational (Bessel) limit.

Every evaluator takes one point t, shaped (n,), or a stack of points,
shaped (N, n), and returns one result or a list of N.  A stack computes
each rank-one value f(lambda_i, x) once per distinct coordinate x and
gathers every point's n x n matrix from that table.  At k_m = 1 a point
where det / Vandermonde would cancel (coinciding lambda_i^2, a wall, the
origin) takes the divided differences of _f_det_divided instead."""

import cmath
import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from . import _kernels
from .errors import (DegenerateLambda, DomainError, HalfPlaneError, NonConvergence, Overflow,
                     ParameterError)
from .hcseries import check_genericity, root_data
from .jacobi import jacobi_phi, jacobi_phi_asymptotic, squared
from .rootsystem import (
    MultiplicityBC,
    _pi,
    constant_B,
    delta_m,
    delta_m_rational,
    require_chamber,
    rho,
)
from .special import MAX_TERMS, bessel_j_normalized

GENERICITY_ORDER = 12
#: knots s_j below this form the cluster at the origin, where the series of
#: the entry at s = 0 is summed; with every knot there, det / Delta_m of
#: the plain path loses all digits as t -> 0
ORIGIN_S = 0.5
#: lambda_i^2, or knots s_j, closer than this (relative) form one cluster;
#: the plain det / Vandermonde ratio loses about eps / gap there, so FTheta,
#: which has no divided-difference path, refuses such lambda
CLUSTER_GAP = 1e-4
#: a plain det whose condition estimate times 2^-52 exceeds this, the 1e-8
#: of the reference checks, may have lost it to cancellation
PLAIN_LOSS_TOL = 1e-8

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


def _degenerate_pairs(lam: np.ndarray):
    """The pairs i < j with |lambda_i^2 - lambda_j^2| <= CLUSTER_GAP
    max(1, |lambda|^2)."""
    scale = max(1.0, float(np.max(np.abs(lam)) ** 2))
    x = lam**2
    return [(i, j) for i in range(len(lam)) for j in range(i + 1, len(lam))
            if abs(x[i] - x[j]) <= CLUSTER_GAP * scale]


def _require_bessel_domain(lam: np.ndarray, ts: np.ndarray) -> None:
    if np.any(lam == 0.0) or np.any(ts == 0.0):
        raise DomainError("lambda_j != 0 and t_j != 0 required")


def _cond(mat: np.ndarray, result: complex) -> float:
    """perm(|mat|) / |result|: perm(|mat|) sums the magnitudes of every
    term of det(mat) and of perm(mat), so the ratio bounds what either
    reduction can lose to cancellation."""
    return float(_kernels.permanent(np.abs(mat)) / max(1e-300, abs(result)))


def _reduce(mat: np.ndarray, k_m: int, num: complex = 1.0,
            den: complex = 1.0, degenerate: bool = False) -> EvalResult:
    """The reduction shared by every evaluator: perm(mat) / n! for
    k_m = 0, num * det(mat) / den for k_m = 1, with the cancellation
    estimate of either.  A non-finite value raises Overflow."""
    if k_m == 0:
        red = _kernels.permanent(mat)
        value = red / math.factorial(len(mat))
    else:
        red = complex(np.linalg.det(mat))
        value = num * red / den
    if not cmath.isfinite(value):
        raise Overflow(f"the value {value} is not finite")
    return EvalResult(complex(value), _cond(mat, red), degenerate)


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


def _phi_matrix(k: MultiplicityBC, lam: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """The matrices phi_{i lambda_i}(t_j) of F."""
    jp = k.jacobi
    return _gather(*_table(lambda li, x: jacobi_phi(jp, li, x), lam, ts))


def _knots(t: np.ndarray, bessel: bool) -> list[float]:
    """s_j = t_j^2 for BesselBC, sinh^2 t_j for F, descending, as F's chamber
    has them; det(g(x_i, s_j)) / V(s) is symmetric in s.  math.sinh: numpy's
    vectorised sinh can differ in the last bit between memory layouts."""
    s = [x * x for x in t.tolist()] if bessel else [squared(math.sinh, x) for x in t.tolist()]
    return sorted(s, reverse=True)


def _near(a: float, b: float) -> bool:
    """Knots a > b close enough to share a cluster."""
    return a - b < CLUSTER_GAP * max(a, ORIGIN_S)


def _x_clusters(lam: np.ndarray) -> list[list[int]]:
    """The connected components of _degenerate_pairs(lam)."""
    label = list(range(len(lam)))
    for i, j in _degenerate_pairs(lam):
        label = [label[i] if q == label[j] else q for q in label]
    return [[i for i, q in enumerate(label) if q == g] for g in dict.fromkeys(label)]


def _s_clusters(s: list[float]) -> list[list[int]]:
    """The clusters of the knots s (descending), from the origin up: the
    knots below ORIGIN_S, then runs of knots each _near the next."""
    out: list[list[int]] = []
    for j in reversed(range(len(s))):
        if out and (s[j] < ORIGIN_S or _near(s[j], s[j + 1])):
            out[-1].insert(0, j)
        else:
            out.append([j])
    return out


def _taylor(tau, y, link, c, sigma, rho1, s0, scale, r, dmin):
    """tau_d = scale^d [u^d] g(x, s0 + u) for d = 0, 1, ... and every row,
    from tau_0 (and tau_1 when s0 > 0), past dmin and as far as the terms
    tau_d r^d count.  The entry g solves (s + sigma s^2) g'' +
    (c + sigma (rho1 + 1) s) g' = (x - sigma rho1^2) g / 4, whose
    recurrence meets x only in a factor x - sigma (rho1 + 2d)^2.  The rows
    of one x-cluster hold g[x_1..x_q], which that factor maps by
    (x f)[x_1..x_q] = x_q f[x_1..x_q] + f[x_1..x_{q-1}]: link marks them."""
    out, k = [list(v) for v in tau], len(tau)
    y, link, w = np.asarray(y), np.asarray(link), 1.0 + sigma * s0
    peak, quiet = [abs(v) for v in out[0]], 0
    while len(out) <= MAX_TERMS:
        # the coefficients of the next 64 terms from one numpy pass
        d = np.arange(len(out) - k, len(out) - k + 64)
        if s0 == 0.0:
            f, g = scale / (4.0 * (d + 1) * (c + d)), 0.0 * d
        else:
            f = s0 / (4.0 * w * (d + 1) * (d + 2))
            g = ((1.0 + 2.0 * sigma * s0) * d + c + sigma * (rho1 + 1.0) * s0) / (w * (d + 2))
        fy = f[:, None] * (y - sigma * (rho1 + 2.0 * d[:, None]) ** 2)
        for a, b, gq in zip(fy.tolist(), (f[:, None] * link).tolist(), g.tolist()):
            prev = out[-k]
            out.append([ap * v + bp * lo - gq * z for ap, v, bp, lo, z
                        in zip(a, prev, b, [0j] + prev[:-1], out[-1])])
            if len(out) % 4 == 0:
                # done when, at two checks in a row, every row's term is
                # below 1e-17 of its largest
                rd = r ** (len(out) - 1)
                mags = [abs(v) * rd for v in out[-1]]
                peak = list(map(max, peak, mags))
                quiet = quiet + 1 if all(m <= 1e-17 * q for m, q in zip(mags, peak)) else 0
                if quiet == 2 and len(out) > dmin:
                    return np.array(out)
    raise NonConvergence("divided-difference series did not converge")


def _f_det_divided(k: MultiplicityBC, lam: np.ndarray, groups: list[list[int]],
                   s: list[float], bessel: bool = False) -> EvalResult:
    """B det(g(x_i, s_j)) / [2^(n(n-1)) V(x) V(s)], x = lambda^2 and
    V(y) = prod_{i<j} (y_i - y_j), for F (s = sinh^2 t) or BesselBC
    (s = t^2), given the clusters of x (_x_clusters) and the knots s
    (_knots), by divided differences on both sides.  Over a cluster of x
    the rows are g[x_1..x_q]; over a cluster of knots the columns are
    g[s_1..s_q] = sum_d T_{d+q-1} h_d(s_1 - s0, ..., s_q - s0), with T_d the
    Taylor coefficients at its centre s0 and h_d the complete homogeneous
    polynomials.  Nothing cancels, and V keeps the pairs across clusters.
    T_d comes from the series at 0 out to ORIGIN_S, then from steps
    s -> 1.5 s of the ODE that stop at every centre."""
    n, clusters = k.n, _s_clusters(s)
    if bessel:
        c, sigma, rho1 = _bessel_alpha(k) + 1.0, 0.0, 0.0
    else:
        c, sigma, rho1 = k.alpha + 1.0, 1.0, k.jacobi.rho1
    y = [lam[i] ** 2 for g in groups for i in g]
    link = [float(q > 0) for g in groups for q in range(len(g))]
    den = 2.0 ** (n * (n - 1)) * _pi(y, [g[0] for g in groups for _ in g]) * _pi(
        s, [g[0] for g in reversed(clusters) for _ in g])
    npairs = sum(len(g) * (len(g) - 1) // 2 for g in groups + clusters)
    # the centre of a cluster is its smallest knot, or 0 below ORIGIN_S
    at = {0.0 if s[g[-1]] < ORIGIN_S else s[g[-1]]: g for g in clusters}
    stops = [0.0]
    for centre in at:
        while stops[-1] < centre:
            stops.append(min(centre, max(1.5 * stops[-1], ORIGIN_S)))
    mat = np.empty((n, n), dtype=complex)
    tau = [[1.0 - q for q in link]]
    for s0, nxt in zip(stops, stops[1:] + stops[-1:]):
        cols, scale = at.get(s0, []), s0 or ORIGIN_S
        u = [(s[j] - s0) / scale for j in cols]
        taus = _taylor(tau, y, link, c, sigma, rho1, s0, scale,
                       max(u + [(nxt - s0) / scale]), len(cols))
        h = np.eye(1, len(taus))[0]  # h_d() = [d == 0]
        for q, j in enumerate(cols):
            # h_d(u_0..u_q) from h_d(u_0..u_{q-1}); column q is scaled by scale^q
            h = np.convolve(h, u[q] ** np.arange(len(taus)))[:len(taus)]
            mat[:, j] = h[:len(taus) - q] @ taus[q:]
            den *= scale**q
        hp = ((nxt - s0) / scale) ** np.arange(len(taus))
        tau = [(hp @ taus).tolist(),
               ((nxt / scale) * (np.arange(1, len(taus)) * hp[:-1]) @ taus[1:]).tolist()]
    return _reduce(mat, 1, (-1) ** npairs * constant_B(k), den, len(groups) < n)


def _det_reduced(k: MultiplicityBC, lam: np.ndarray, ts: np.ndarray,
                 bessel: bool) -> list[EvalResult]:
    """B det / [prod_{i<j}(lambda_i^2 - lambda_j^2) Delta_m] of F or
    BesselBC at every point: the plain det over one table of entries, or
    _f_det_divided at a point with a cluster of lambda_i^2 or of knots, or
    with every knot below ORIGIN_S.  A plain point whose condition estimate
    says it may have lost PLAIN_LOSS_TOL is reduced once more, by
    _f_det_divided over one group of every lambda_i^2, which takes the
    Vandermonde in lambda^2 into Newton rows; the result with the smaller
    estimate is kept."""
    groups, knots = _x_clusters(lam), [_knots(t, bessel) for t in ts]
    routed = [len(groups) < k.n or s[0] < ORIGIN_S or any(map(_near, s, s[1:])) for s in knots]
    plain = ts[np.logical_not(routed)] if any(routed) else ts
    mats = iter((_bessel_matrix if bessel else _phi_matrix)(k, lam, plain) if len(plain) else ())
    num, vdm = constant_B(k), _pi(lam**2)
    delta = delta_m_rational if bessel else delta_m
    out = []
    for t, s, r in zip(ts, knots, routed):
        if r:
            out.append(_f_det_divided(k, lam, groups, s, bessel))
            continue
        res = _reduce(next(mats), 1, num, vdm * delta(t))
        if res.condition_estimate * 2.0**-52 > PLAIN_LOSS_TOL:
            alt = _f_det_divided(k, lam, [list(range(k.n))], s, bessel)
            if alt.condition_estimate < res.condition_estimate:
                res = replace(alt, degenerate_path=False)
        out.append(res)
    return out


@_stacked
def f_determinant(k: MultiplicityBC, lam, ts) -> list[EvalResult]:
    """F(lambda, k; a_t) for k_m = 1:
    B det(phi_{i lambda_i}(t_j)) / [prod_{i<j}(lambda_i^2 - lambda_j^2)
    Delta_m(a_t)], with coinciding lambda_i^2 allowed."""
    if k.k_m != 1:
        raise ParameterError("determinant formula requires k_m = 1")
    require_chamber(ts)
    return _det_reduced(k, lam, ts, False)


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
    # with Re lambda > 0, lambda_i^2 = lambda_j^2 only where lambda_i = lambda_j;
    # det / pi(lambda) loses about eps / gap, so the refusal takes F's cluster gap
    pairs = _degenerate_pairs(lam) if k.k_m == 1 else []
    if pairs:
        raise DegenerateLambda(f"lambda_{pairs[0][0] + 1} = lambda_{pairs[0][1] + 1}"
                               f" within {CLUSTER_GAP:.0e} relative in lambda^2")
    jp = k.jacobi
    mats = _gather(*_table(lambda li, x: jacobi_phi_asymptotic(jp, li, x), lam, ts))
    if k.k_m == 0:
        return [_reduce(mat, 0) for mat in mats]
    num = _pi(rho(k)) / _pi(lam)
    return [_reduce(mat, 1, num, delta_m(t)) for mat, t in zip(mats, ts)]


def _bessel_alpha(k: MultiplicityBC) -> float:
    """alpha, which the Bessel limit takes real."""
    if abs(k.alpha.imag) > 0.0:
        raise ParameterError("Bessel limit implemented for real alpha only")
    return k.alpha.real


def _bessel_matrix(k: MultiplicityBC, lam: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """The matrices J_alpha(i lambda_i t_j), normalized, of BesselBC."""
    a = _bessel_alpha(k)
    return _gather(*_table(lambda li, x: bessel_j_normalized(a, 1j * li * x), lam, ts))


@_stacked
def bessel_bcn(k: MultiplicityBC, lam, ts) -> list[EvalResult]:
    """Bessel function of type BC_n, the limit of F(eps^-1 lambda, k; a_{eps t}):
    A det(J_alpha(i lambda_i t_j)) / [prod(lambda_i^2 - lambda_j^2)
    Delta_m,rat(a_t)] for k_m = 1, with coinciding lambda_i^2 allowed,
    (1/n!) perm(J_alpha(i lambda_i t_j)) for k_m = 0."""
    _require_bessel_domain(lam, ts)
    if k.k_m == 1:
        return _det_reduced(k, lam, ts, True)
    return [_reduce(mat, 0) for mat in _bessel_matrix(k, lam, ts)]


def evaluate(req: EvalRequest):
    """Dispatch on target and k_m.  One EvalResult for one point, a list
    of them for a stack."""
    k = req.k
    lam, t = np.asarray(req.lam, dtype=complex), np.asarray(req.t, dtype=float)
    ts = np.atleast_2d(t)
    if req.target == "PhiSeries":
        out = [EvalResult(v, 1.0, False) for v in phi_product(k, lam, ts)]
    elif req.target == "FTheta":
        out = f_theta(k, lam, ts)
    elif req.target == "BesselBC":
        out = bessel_bcn(k, lam, ts)
    else:
        out = (f_permanent if k.k_m == 0 else f_determinant)(k, lam, ts)
    return out[0] if t.ndim == 1 else out
