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
from .errors import SmallDenominator, TailTooLarge
from .rootsystem import require_chamber, rho

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
    heights: np.ndarray  # (P,)
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
        heights=heights,
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
    """Series coefficients Gamma_mu for height(mu) <= order."""

    n: int
    order: int
    lam: np.ndarray  # lambda_j coordinates
    rho: np.ndarray  # rho_j coordinates
    data: RootData
    coeffs: np.ndarray

    def coeff(self, simple_coeffs) -> complex:
        """Gamma_mu for mu given by simple-root coefficients."""
        c = tuple(simple_coeffs)
        v = [c[0]] + [c[i] - c[i - 1] for i in range(1, self.n)]
        return complex(self.coeffs[self.data.index[tuple(int(x) for x in v)]])


def check_genericity(data: RootData, lam_e: np.ndarray, error=SmallDenominator) -> None:
    """Raise `error` unless every denominator |(mu,mu) - 2(lambda,mu)|,
    mu != 0, exceeds DENOM_MARGIN * max(1, |lambda|^2); lam_e is lambda
    in Euclidean coordinates."""
    den = np.abs(np.sum(data.mu_vecs**2, axis=1) - 2.0 * (data.mu_vecs @ lam_e))
    margin = float(np.min(den[1:])) if len(den) > 1 else math.inf
    limit = DENOM_MARGIN * max(1.0, float(np.max(np.abs(lam_e)) ** 2))
    if margin <= limit:
        raise error(f"genericity margin {margin:.3e} below {limit:.3e}")


def compute_coeffs(k, lam, order: int = DEFAULT_ORDER) -> HCCoeffTable:
    """Coefficients of the recursion
    ((mu,mu) - 2(lambda,mu)) Gamma_mu =
        -2 sum_{alpha>0} k_alpha sum_{j>=1} (alpha, lambda-rho-mu+j alpha)
        Gamma_{mu-j alpha}
    in Euclidean coordinates, with Gamma_0 = 1.

    k needs attributes k_s, k_m, k_l, n; k_m may be any complex number here.
    lam is in the lambda_j = (lambda, 2 e_j) coordinates."""
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
    lam_e = lam / 2.0  # Euclidean coordinates
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
    return HCCoeffTable(n=n, order=order, lam=lam, rho=rho_c, data=data, coeffs=coeffs)


@dataclass(frozen=True)
class SeriesValue:
    value: complex
    tail_bound: float


def series_eval(table: HCCoeffTable, t, tail_tol: float = 1e-10) -> SeriesValue:
    """sum_{height(mu) <= N} Gamma_mu exp((lambda - rho - mu)(log a_t)) with
    a last-shell geometric tail estimate.  t must be deep enough in the
    chamber for the estimate to come in under tail_tol (relative)."""
    t = np.asarray(t, dtype=float)
    require_chamber(t)
    two_t = 2.0 * t
    lead = np.exp((table.lam - table.rho) @ (t + 0.0j))
    damp = np.exp(-table.data.mu_vecs @ two_t)
    terms = table.coeffs * damp
    value = lead * np.sum(terms)
    last = table.data.heights == table.order
    g = min(
        [2.0 * (t[i] - t[i + 1]) for i in range(len(t) - 1)] + [2.0 * t[-1]]
    )
    shell = float(np.sum(np.abs(terms[last]))) * abs(lead)
    tail = shell * math.exp(-g) / max(1e-300, 1.0 - math.exp(-g))
    rel_tail = tail / max(1e-300, abs(value))
    if rel_tail > tail_tol:
        raise TailTooLarge(
            f"relative tail estimate {rel_tail:.3e} exceeds {tail_tol:.1e}"
        )
    return SeriesValue(value=complex(value), tail_bound=tail)
