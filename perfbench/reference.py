"""High-precision mpmath reference for the closed forms hyperbc evaluates.

Every function takes plain Python numbers (k_s, k_m, k_l as floats/ints,
lam as complex, t as float) and returns a Python complex.  The working
precision adapts to the cancellation of the determinant or permanent it
forms: entries are first built at BASE_DPS digits, the digits the
reduction loses are estimated from perm(|M|) / |det M|, and the entries are
rebuilt with that many extra digits when the estimate says so.  Near a
wall or near the origin, where det(M) / Delta_m cancels, the reference thus
stays exact to about TARGET_DIGITS digits.  Rank-one entries are memoised
per working precision, so the rows of a grid, which share their
coordinates, cost one small reduction each.
"""

import functools
import itertools
import math

import mpmath as mp
import numpy as np

BASE_DPS = 30
#: digits the reference keeps after the reduction's cancellation
TARGET_DIGITS = 20
#: largest n reduced by the sum over permutations (cheaper than LU or
#: Ryser for a small matrix; a grid check makes one reduction per row)
LEIBNIZ_MAX_N = 4


def _permutations(n):
    """(permutation, sign) pairs of range(n)."""
    out = []
    for p in itertools.permutations(range(n)):
        inv = sum(p[i] > p[j] for i in range(n) for j in range(i + 1, n))
        out.append((p, -1 if inv % 2 else 1))
    return out


_PERMUTATIONS = {n: _permutations(n) for n in range(1, LEIBNIZ_MAX_N + 1)}


def _leibniz(m, n, signed):
    """sum over permutations p of prod_i m[i][p(i)], each term times the
    sign of p when signed: det(m) when signed, perm(m) when not."""
    total = 0
    for p, sign in _PERMUTATIONS[n]:
        term = m[0][p[0]]
        for i in range(1, n):
            term *= m[i][p[i]]
        total += term if sign > 0 or not signed else -term
    return total


def _ryser(m, n):
    """Permanent by Ryser's formula over all column subsets (Gray code)."""
    if n == 0:
        return mp.mpc(1)
    row = [mp.mpc(0)] * n
    total = mp.mpc(0)
    prev = 0
    nbits = 0
    for k in range(1, 1 << n):
        g = k ^ (k >> 1)
        j = (g ^ prev).bit_length() - 1
        sign = 1 if (g >> j) & 1 else -1
        nbits += sign
        for i in range(n):
            row[i] += sign * m[i][j]
        prev = g
        prod = mp.mpc(1)
        for i in range(n):
            prod *= row[i]
        total += prod if (n - nbits) % 2 == 0 else -prod
    return total


def _perm_abs(m, n):
    """perm(|M|) in floating point, by Ryser's formula over all column
    subsets at once; it bounds |det M| and |perm M|."""
    a = np.array([[float(abs(x)) for x in row] for row in m])
    subsets = (np.arange(1, 1 << n)[:, None] >> np.arange(n)) & 1
    signs = (-1.0) ** (n - subsets.sum(axis=1))
    return float(np.sum(signs * np.prod(subsets @ a.T, axis=1)))


def _reduce(entry, n, kind):
    """det or perm of the matrix entry(i, j), at a precision that covers
    the cancellation of the reduction."""
    dps = BASE_DPS
    while True:
        with mp.workdps(dps):
            m = [[entry(i, j) for j in range(n)] for i in range(n)]
            if n <= LEIBNIZ_MAX_N:
                val = _leibniz(m, n, kind == "det")
                bound = _leibniz([[float(abs(x)) for x in r] for r in m], n, False)
            else:
                val = mp.det(mp.matrix(m)) if kind == "det" else _ryser(m, n)
                bound = _perm_abs(m, n)
            if val == 0:
                lost = dps
            else:
                lost = max(0.0, float(mp.log10(mp.mpf(bound) / abs(val))))
        if dps - lost >= TARGET_DIGITS or dps > 400:
            return val, dps
        dps = int(lost) + TARGET_DIGITS + 10


def _params(ks, kl):
    alpha = mp.mpf(ks) + mp.mpf(kl) - mp.mpf(1) / 2
    beta = mp.mpf(kl) - mp.mpf(1) / 2
    return alpha, beta, alpha + beta + 1


def jacobi_phi(ks, kl, lam, t):
    """phi_{i lambda}(t) = 2F1((rho-lambda)/2, (rho+lambda)/2; alpha+1; -sinh^2 t)."""
    alpha, _, rho1 = _params(ks, kl)
    lam = mp.mpc(lam)
    return mp.hyp2f1((rho1 - lam) / 2, (rho1 + lam) / 2, alpha + 1,
                     -mp.sinh(mp.mpf(t)) ** 2)


def jacobi_Phi(ks, kl, lam, t):
    """Phi_{-i lambda}(t) = (2 cosh t)^(lambda-rho) *
    2F1((rho-lambda)/2, (alpha-beta+1-lambda)/2; 1-lambda; cosh^-2 t)."""
    alpha, beta, rho1 = _params(ks, kl)
    lam = mp.mpc(lam)
    ch = mp.cosh(mp.mpf(t))
    return (2 * ch) ** (lam - rho1) * mp.hyp2f1(
        (rho1 - lam) / 2, (alpha - beta + 1 - lam) / 2, 1 - lam, 1 / ch**2)


def bessel_normalized(alpha, x):
    """2^alpha Gamma(alpha+1) x^-alpha J_alpha(x) = 0F1(; alpha+1; -x^2/4)."""
    return mp.hyp0f1(mp.mpf(alpha) + 1, -mp.mpc(x) ** 2 / 4)


def _memo(fn):
    """fn memoised on its (hashable) arguments and the working precision."""
    at = functools.lru_cache(maxsize=1 << 16)(lambda dps, *args: fn(*args))
    return lambda *args: at(mp.mp.dps, *args)


_phi = _memo(jacobi_phi)
_Phi = _memo(jacobi_Phi)
_bessel = _memo(lambda alpha, lam, t: bessel_normalized(alpha, 1j * mp.mpc(lam) * mp.mpf(t)))


def _constant_B(alpha, n):
    val = mp.mpf(2) ** (2 * n * (n - 1))
    for i in range(1, n):
        val *= (alpha + i) ** (n - i) * math.factorial(i)
    return val


def _pairs_prod(x, f):
    val = mp.mpc(1)
    for i in range(len(x)):
        for j in range(i + 1, len(x)):
            val *= f(x[i], x[j])
    return val


def _delta_m(t):
    n = len(t)
    return mp.mpf(2) ** (mp.mpf(n * (n - 1)) / 2) * _pairs_prod(
        [mp.cosh(2 * mp.mpf(x)) for x in t], lambda a, b: a - b)


def F(ks, km, kl, lam, t):
    """F(lambda, k; a_t): B det(phi) / [prod(lambda_i^2 - lambda_j^2)
    Delta_m] for k_m = 1, perm(phi) / n! for k_m = 0."""
    n = len(lam)
    kind = "det" if km == 1 else "perm"
    red, dps = _reduce(lambda i, j: _phi(ks, kl, lam[i], t[j]), n, kind)
    with mp.workdps(dps):
        if km == 0:
            return complex(red / math.factorial(n))
        alpha, _, _ = _params(ks, kl)
        lam2 = [mp.mpc(x) ** 2 for x in lam]
        v = _pairs_prod(lam2, lambda a, b: a - b)
        return complex(_constant_B(alpha, n) * red / (v * _delta_m(t)))


def FTheta(ks, km, kl, lam, t):
    """pi(rho)/pi(lambda) det(Phi_{-i lambda_i}(t_j)) / Delta_m for k_m = 1,
    perm(Phi) / n! for k_m = 0."""
    n = len(lam)
    kind = "det" if km == 1 else "perm"
    red, dps = _reduce(lambda i, j: _Phi(ks, kl, lam[i], t[j]), n, kind)
    with mp.workdps(dps):
        if km == 0:
            return complex(red / math.factorial(n))
        c0 = mp.mpf(ks) + 2 * mp.mpf(kl)
        rho = [c0 + 2 * (n - j) * km for j in range(1, n + 1)]
        pi_rho = _pairs_prod(rho, lambda a, b: a - b)
        pi_lam = _pairs_prod([mp.mpc(x) for x in lam], lambda a, b: a - b)
        return complex(pi_rho / pi_lam * red / _delta_m(t))


def BesselBC(ks, km, kl, lam, t):
    """A det(J_alpha(i lambda_i t_j)) / [prod(lambda_i^2 - lambda_j^2)
    prod 4(t_i^2 - t_j^2)] for k_m = 1, perm / n! for k_m = 0."""
    n = len(lam)
    alpha = ks + kl - 0.5
    kind = "det" if km == 1 else "perm"
    red, dps = _reduce(lambda i, j: _bessel(alpha, lam[i], t[j]), n, kind)
    with mp.workdps(dps):
        if km == 0:
            return complex(red / math.factorial(n))
        lam2 = [mp.mpc(x) ** 2 for x in lam]
        v = _pairs_prod(lam2, lambda a, b: a - b)
        drat = _pairs_prod([mp.mpf(x) for x in t], lambda a, b: 4 * (a * a - b * b))
        return complex(_constant_B(mp.mpf(alpha), n) * red / (v * drat))


def Phi(ks, km, kl, lam, t):
    """Delta_m(a_t)^(-k_m) prod_j Phi_{-i lambda_j}(t_j)."""
    with mp.workdps(BASE_DPS):
        val = mp.mpc(1)
        for lj, tj in zip(lam, t):
            val *= jacobi_Phi(ks, kl, lj, tj)
        if km == 1:
            val /= _delta_m(t)
        return complex(val)


#: reference by the target names hyperbc.EvalRequest uses
BY_TARGET = {"F": F, "FTheta": FTheta, "BesselBC": BesselBC, "PhiSeries": Phi}


def value(target, ks, km, kl, lam, t):
    return BY_TARGET[target](ks, km, kl, [complex(x) for x in lam],
                             [float(x) for x in t])


def rel_err(got, ref):
    return abs(complex(got) - ref) / max(abs(ref), 1e-300)
