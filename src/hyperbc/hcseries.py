"""Independent verification path: the Harish-Chandra series
sum_mu Gamma_mu a^(lambda - rho - mu) with coefficients from the linear
recursion obtained by substituting the series into the second-order
hypergeometric equation.  Works for arbitrary complex multiplicities,
not only k_m in {0, 1}."""

import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from . import _kernels
from .errors import ChamberError, SmallDenominator, TailTooLarge
from .rootsystem import rho

DEFAULT_ORDER = 12
#: genericity margin on |(mu,mu) - 2(lambda,mu)| in units of max(1, |lambda|^2)
DENOM_MARGIN = 1e-8


@dataclass(frozen=True)
class RootData:
    """BC_n positive roots and root-lattice shells up to a height cap,
    with the flattened recursion index tables the kernel consumes."""

    n: int
    order: int
    mu_vecs: np.ndarray  # (P, n) integer lattice points, height order
    last: int  # first row of the last shell, height == order
    starts: np.ndarray
    roots_of: np.ndarray
    srcs_of: np.ndarray
    root_vecs: np.ndarray  # (R, n)
    root_kinds: tuple  # "s", "l", or "m" per root
    index: dict  # integer vector of mu -> row of mu_vecs


def _positive_roots(n: int):
    vecs, kinds = [], []
    for p in range(n):
        e = np.zeros(n)
        e[p] = 1.0
        vecs.append(e)
        kinds.append("s")
        vecs.append(2.0 * e)
        kinds.append("l")
    for i in range(n):
        for j in range(i + 1, n):
            for s in (-1.0, 1.0):
                v = np.zeros(n)
                v[i] = 1.0
                v[j] = s
                vecs.append(v)
                kinds.append("m")
    return np.array(vecs), tuple(kinds)


def _lattice_points(n: int, order: int):
    """Lattice points mu = sum c_i alpha_i (simple-root coefficients c_i >= 0,
    sum c_i <= order) as integer vectors, sorted by height then lexicographic."""
    pts = []
    for c in product(range(order + 1), repeat=n):
        h = sum(c)
        if h > order:
            continue
        v = [c[0]] + [c[i] - c[i - 1] for i in range(1, n)]
        pts.append((h, tuple(v)))
    pts.sort()
    heights = np.array([h for h, _ in pts], dtype=np.int64)
    vecs = np.array([v for _, v in pts], dtype=float)
    return vecs, heights


_ROOT_DATA_CACHE: dict = {}


def root_data(n: int, order: int) -> RootData:
    key = (n, order)
    if key in _ROOT_DATA_CACHE:
        return _ROOT_DATA_CACHE[key]
    root_vecs, kinds = _positive_roots(n)
    mu_vecs, heights = _lattice_points(n, order)
    index = {v: i for i, v in enumerate(map(tuple, mu_vecs.astype(int).tolist()))}
    # in simple-root coordinates (partial sums) mu - j alpha stays in the
    # lattice, and so among the points below mu, while no coordinate is < 0
    coords = np.cumsum(mu_vecs, axis=1).astype(np.int64)
    steps = np.cumsum(root_vecs, axis=1).astype(np.int64)
    jmax = np.full((len(mu_vecs), len(root_vecs)), order, dtype=np.int64)
    for i in range(n):
        on = steps[:, i] > 0
        jmax[:, on] = np.minimum(jmax[:, on], coords[:, i, None] // steps[on, i])
    count = jmax.ravel()
    p, r = np.divmod(np.repeat(np.arange(count.size), count), len(root_vecs))
    j = np.arange(len(p)) - np.repeat(np.cumsum(count) - count, count) + 1
    # each source by its mixed-radix key among the sorted keys of the points
    radix = (order + 1) ** np.arange(n, dtype=np.int64)
    keys = coords @ radix
    by_key = np.argsort(keys)
    srcs = by_key[np.searchsorted(keys[by_key], (coords[p] - j[:, None] * steps[r]) @ radix)]
    data = RootData(
        n=n,
        order=order,
        mu_vecs=mu_vecs,
        last=int(np.searchsorted(heights, order)),
        starts=np.concatenate([[0], np.cumsum(jmax.sum(axis=1))]),
        roots_of=r,
        srcs_of=srcs,
        root_vecs=root_vecs,
        root_kinds=kinds,
        index=index,
    )
    _ROOT_DATA_CACHE[key] = data
    return data


@dataclass(frozen=True)
class HCCoeffTable:
    """Series coefficients Gamma_mu for height(mu) <= order, of one lambda
    (lam (n,), coeffs (P,)) or of a stack (lam (B, n), coeffs (B, P))."""

    n: int
    order: int
    lam: np.ndarray  # lambda_j coordinates
    rho: np.ndarray  # rho_j coordinates
    data: RootData
    coeffs: np.ndarray

    def coeff(self, simple_coeffs) -> complex:
        """Gamma_mu of a one-lambda table, for mu given by simple-root
        coefficients."""
        c = tuple(simple_coeffs)
        v = [c[0]] + [c[i] - c[i - 1] for i in range(1, self.n)]
        return complex(self.coeffs[self.data.index[tuple(int(x) for x in v)]])

    def rows(self) -> list:
        """The one-lambda table of every row of a stack."""
        return [HCCoeffTable(self.n, self.order, lam, self.rho, self.data, c)
                for lam, c in zip(self.lam, self.coeffs)]


def check_genericity(data: RootData, lam_e: np.ndarray, error=SmallDenominator) -> None:
    """Raise `error` unless every denominator |(mu,mu) - 2(lambda,mu)|,
    mu != 0, exceeds DENOM_MARGIN * max(1, |lambda|^2); lam_e is lambda
    in Euclidean coordinates, one (n,) or a stack (B, n), each row held
    to its own margin."""
    lams = np.atleast_2d(lam_e)
    den = np.abs(np.sum(data.mu_vecs**2, axis=1) - 2.0 * (lams @ data.mu_vecs.T))
    margin = np.min(den[:, 1:], axis=1, initial=math.inf)
    limit = DENOM_MARGIN * np.maximum(1.0, np.max(np.abs(lams), axis=1) ** 2)
    bad = np.flatnonzero(margin <= limit)
    if bad.size:
        b = bad[0]
        raise error(f"genericity margin {margin[b]:.3e} below {limit[b]:.3e}")


def compute_coeffs(k, lam, order: int = DEFAULT_ORDER) -> HCCoeffTable:
    """Coefficients of the recursion
    ((mu,mu) - 2(lambda,mu)) Gamma_mu =
        -2 sum_{alpha>0} k_alpha sum_{j>=1} (alpha, lambda-rho-mu+j alpha)
        Gamma_{mu-j alpha}
    in Euclidean coordinates, with Gamma_0 = 1.

    k needs attributes k_s, k_m, k_l, n; k_m may be any complex number here.
    lam is in the lambda_j = (lambda, 2 e_j) coordinates: one lambda (n,),
    or a stack (B, n) whose rows share one genericity check and one pass
    of the kernel."""
    lam = np.asarray(lam, dtype=complex)
    n = k.n
    data = root_data(n, order)
    kw = np.array(
        [
            {"s": complex(k.k_s), "l": complex(k.k_l), "m": complex(k.k_m)}[kind]
            for kind in data.root_kinds
        ],
        dtype=complex,
    )
    rho_c = rho(k)
    lam_e = np.atleast_2d(lam) / 2.0  # Euclidean coordinates
    rho_e = rho_c / 2.0
    check_genericity(data, lam_e)
    coeffs = _kernels.hc_coeffs(
        data.mu_vecs,
        data.starts,
        data.roots_of,
        data.srcs_of,
        data.root_vecs,
        kw,
        lam_e,
        rho_e,
    )
    if lam.ndim == 1:
        coeffs = coeffs[0]
    return HCCoeffTable(n=n, order=order, lam=lam, rho=rho_c, data=data, coeffs=coeffs)


@dataclass(frozen=True)
class SeriesValue:
    value: complex
    tail_bound: float


def series_eval(table: HCCoeffTable, t, tail_tol: float = 1e-10) -> SeriesValue:
    """sum_{height(mu) <= N} Gamma_mu exp((lambda - rho - mu)(log a_t)) with
    a last-shell geometric tail estimate, for a one-lambda table.  t must
    be deep enough in the chamber for the estimate to come in under
    tail_tol (relative)."""
    t = np.asarray(t, dtype=float)
    tl = t.tolist()
    # the open-chamber test of require_chamber, on the list
    gaps = [a - b for a, b in zip(tl, tl[1:])] + tl[-1:]
    if not all(g > 0.0 for g in gaps):
        raise ChamberError(f"t = {t} not in the open chamber")
    lead = np.exp((table.lam - table.rho) @ (t + 0.0j))
    terms = table.coeffs * np.exp(-table.data.mu_vecs @ (2.0 * t))
    value = lead * np.sum(terms)
    g = 2.0 * min(gaps)
    shell = float(np.sum(np.abs(terms[table.data.last:]))) * abs(lead)
    tail = shell * math.exp(-g) / max(1e-300, 1.0 - math.exp(-g))
    rel_tail = tail / max(1e-300, abs(value))
    if rel_tail > tail_tol:
        raise TailTooLarge(
            f"relative tail estimate {rel_tail:.3e} exceeds {tail_tol:.1e}"
        )
    return SeriesValue(value=complex(value), tail_bound=tail)
