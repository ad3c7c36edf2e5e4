"""Hot numeric kernels: log-Gamma, the Gauss and Bessel series, the
permanent and the Harish-Chandra coefficient recursion.  They are kept in
one module so each can be timed and replaced on its own."""

import cmath
import math

import numpy as np

_LOG_SQRT_2PI = 0.9189385332046727417803297364056
_LOG_PI = 1.1447298858494001741434273513531

# Lanczos g = 7, 9-term coefficient set.
_LANCZOS = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)

#: hyp2f1_series sums this many terms in its Python loop, then blocks of
#: _SERIES_BLOCK in numpy: a block costs about 48 us, a loop term 0.45 us
_SERIES_HEAD = 256
_SERIES_BLOCK = 512


def log_gamma_right(z):
    """Lanczos log-Gamma for Re z >= 0.5."""
    zz = z - 1.0
    x = _LANCZOS[0]
    for i in range(1, 9):
        x += _LANCZOS[i] / (zz + i)
    t = zz + 7.5
    return _LOG_SQRT_2PI + (zz + 0.5) * cmath.log(t) - t + cmath.log(x)


def log_gamma(z):
    """Complex log-Gamma; reflection formula for Re z < 0.5.

    The branch agrees with the principal one up to multiples of 2*pi*i
    in the reflected half-plane; exp(log_gamma(z)) is always Gamma(z).
    sin(pi z) is taken as (-1)^m sin(pi (z - m)) with m = round(Re z):
    sin(pi z) itself loses about |z| ulps next to a pole.
    """
    if z.real >= 0.5:
        return log_gamma_right(z)
    m = round(z.real)
    sin_pz = cmath.sin(math.pi * (z - m))
    if m % 2:
        sin_pz = -sin_pz
    return _LOG_PI - cmath.log(sin_pz) - log_gamma_right(1.0 - z)


def hyp2f1_series(a, b, c, w, maxterms):
    """Direct Gauss series sum_{k} (a)_k (b)_k / ((c)_k k!) w^k for |w| < 1.

    Returns (value, nterms); nterms == maxterms signals non-convergence.
    The first _SERIES_HEAD terms are summed one at a time; a longer series
    (w = tanh^2 t near 1 takes about cosh^2 t terms) sums its tail in numpy
    blocks of _SERIES_BLOCK terms, with the same products and partial sums
    taken in the same order, the same stopping test on every term, and the
    sum cut at its first hit.  Only numpy's complex division, in the ratios,
    can differ from the loop in the last bit.
    """
    s = 1.0 + 0.0j
    term = 1.0 + 0.0j
    aw = abs(w)
    k = 0
    head = min(maxterms, _SERIES_HEAD)
    while k < head:
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
    # like the loop's float arithmetic, a block does not warn: its overflow
    # gives what the loop's would, and a 1 - q = 0 comes only where q < 1
    # fails
    with np.errstate(all="ignore"):
        while k < maxterms:
            kk = np.arange(k, min(k + _SERIES_BLOCK, maxterms), dtype=float)
            ratio = (a + kk) * (b + kk) / ((c + kk) * (kk + 1.0)) * w
            terms = np.cumprod(np.concatenate(([term], ratio)))[1:]
            sums = np.cumsum(np.concatenate(([s], terms)))[1:]
            rr = np.abs(ratio)
            q = np.maximum(rr, aw)
            hit = (terms == 0.0) | ((rr < 1.0) & (q < 1.0)
                                    & (np.abs(terms) * q / (1.0 - q) <= 1e-16 * np.abs(sums)))
            i = int(hit.argmax())
            if hit[i]:
                return complex(sums[i]), k + i + 1
            term, s, k = complex(terms[-1]), complex(sums[-1]), k + len(kk)
    return s, maxterms


def bessel_series(alpha, x, maxterms):
    """Normalized Bessel series sum_m (-x^2/4)^m / (m! (alpha+1)_m)."""
    q = -(x * x) / 4.0
    s = 1.0 + 0.0j
    term = 1.0 + 0.0j
    m = 0
    while m < maxterms:
        term = term * q / ((m + 1.0) * (alpha + m + 1.0))
        s += term
        m += 1
        if abs(term) <= 1e-17 * abs(s):
            return s, m
    return s, maxterms


def permanent(a):
    """Permanent of a square matrix by the row expansion memoised over
    column subsets: dp[S] = sum_{j in S} a[|S|-1, j] dp[S - {j}], with
    dp[{}] = 1, so the empty matrix gives 1.  O(n 2^n), and no term is
    subtracted: on a non-negative matrix nothing cancels."""
    rows = a.tolist()
    dp = [1.0] * (1 << len(rows))
    for mask in range(1, len(dp)):
        row = rows[mask.bit_count() - 1]
        s = 0.0
        m = mask
        while m:
            low = m & -m
            s += row[low.bit_length() - 1] * dp[mask ^ low]
            m ^= low
        dp[mask] = s
    return dp[-1]


def hc_coeffs(mu_vecs, starts, roots_of, srcs_of, root_vecs, kw, lams, rho):
    """Harish-Chandra series coefficients by the height recursion, for
    every row of a stack lams (B, n) at once: returns (B, P).

    mu_vecs: the P integer lattice points as float vectors, sorted by
    height, index 0 is the origin.  (starts, roots_of, srcs_of) flatten,
    per point p, the contributing pairs (root, index of mu - j*root),
    j >= 1; the weight needs j only through the source mu - j*root.  lams
    and rho are in Euclidean coordinates.  Every point of height h depends
    only on lower heights, so each shell is one gather and one segment sum
    over the whole stack, and its (B, edges) weights are formed only when
    the shell is reached.  The caller has checked the denominators
    (mu,mu) - 2(lambda,mu) for genericity; none may vanish.
    """
    den = np.sum(mu_vecs * mu_vecs, axis=1) - 2.0 * (lams @ mu_vecs.T)
    # edge weight -2 k_r (alpha_r, lambda - rho - mu_p + j alpha_r); the
    # source mu_p - j alpha_r makes the lattice part an exact integer
    lattice = (mu_vecs @ root_vecs.T)[srcs_of, roots_of].astype(np.complex128)
    shift = (lams - rho) @ root_vecs.T.astype(np.complex128)
    kw2 = 2.0 * kw
    heights = np.cumsum(mu_vecs, axis=1).sum(axis=1)
    cuts = np.searchsorted(heights, np.arange(1.0, heights[-1] + 2.0))
    out = np.zeros(den.shape, dtype=np.complex128)
    out[:, 0] = 1.0
    for a, b in zip(cuts[:-1], cuts[1:]):
        # every nonzero point has an edge through a simple root, so no
        # segment of reduceat is empty
        e0, e1 = starts[a], starts[b]
        r = roots_of[e0:e1]
        # in place: at most two (B, edges) arrays of the shell are alive
        weight = shift[:, r]
        np.subtract(lattice[e0:e1], weight, out=weight)
        weight *= kw2[r]
        weight *= out[:, srcs_of[e0:e1]]
        out[:, a:b] = np.add.reduceat(weight, starts[a:b] - e0, axis=1) / den[:, a:b]
    return out
