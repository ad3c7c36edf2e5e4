"""A small mpmath reference for the closed forms of F, written apart from
hyperbc.  At k_m = 1, the determinant formula for F and BesselBC at any
lambda, coinciding lambda_i^2 included: a value lambda_i whose square
repeats an earlier one is moved by SPLIT for every earlier repeat, so the
reference is the limit up to O(SPLIT); the working precision rises until
the cancellation of the determinant, estimated by Hadamard's bound, leaves
DIGITS digits.  At k_m = 0, the permanent formula for F, with the
precision raised against perm(|M|) in the same way."""

import itertools
import math

import mpmath as mp

SPLIT = mp.mpf("1e-30")
DIGITS = 25


def _params(ks, kl):
    return mp.mpf(ks) + mp.mpf(kl) - mp.mpf(1) / 2, mp.mpf(kl) - mp.mpf(1) / 2


def _entry(target, alpha, beta, lam, t):
    if target == "F":
        rho1 = alpha + beta + 1
        return mp.hyp2f1((rho1 - lam) / 2, (rho1 + lam) / 2, alpha + 1, -mp.sinh(t) ** 2)
    return mp.hyp0f1(alpha + 1, (lam * t) ** 2 / 4)


def _vandermonde(x):
    v = mp.mpf(1)
    for i in range(len(x)):
        for j in range(i + 1, len(x)):
            v *= x[i] - x[j]
    return v


def value(target, ks, kl, lam, t):
    """F or BesselBC at k_m = 1:
    B det(f(lambda_i, t_j)) / [prod_{i<j} (x_i - x_j) 2^(n(n-1)) prod_{i<j} (s_i - s_j)]
    with x = lambda^2, s = sinh^2 t for F and t^2 for BesselBC, and
    B = 2^(2n(n-1)) prod_{i<n} (alpha + i)^(n-i) i!."""
    n = len(lam)
    dps = 40
    while True:
        with mp.workdps(dps):
            alpha, beta = _params(ks, kl)
            lams = [mp.mpc(v) for v in lam]
            lams = [v + SPLIT * sum(1 for w in lam[:i] if complex(w) ** 2 == complex(lam[i]) ** 2)
                    for i, v in enumerate(lams)]
            ts = [mp.mpf(v) for v in t]
            m = [[_entry(target, alpha, beta, li, tj) for tj in ts] for li in lams]
            det = mp.det(mp.matrix(m))
            bound = mp.fprod(mp.sqrt(mp.fsum(abs(v) ** 2 for v in row)) for row in m)
            lost = float(mp.log10(bound / abs(det))) if det != 0 else dps
            if dps - lost >= DIGITS:
                s = [mp.sinh(v) ** 2 if target == "F" else v**2 for v in ts]
                b = mp.mpf(2) ** (2 * n * (n - 1))
                for i in range(1, n):
                    b *= (alpha + i) ** (n - i) * math.factorial(i)
                den = _vandermonde([v**2 for v in lams]) * 2 ** (n * (n - 1)) * _vandermonde(s)
                return complex(b * det / den)
            dps = int(lost) + DIGITS + 15


def _perm(m):
    n = len(m)
    return mp.fsum(mp.fprod(m[i][p[i]] for i in range(n))
                   for p in itertools.permutations(range(n)))


def permanent_value(ks, kl, lam, t):
    """F at k_m = 0: perm(phi_{lambda_i}(t_j)) / n!, where perm(|M|) / |perm M|
    estimates the cancellation of the permanent."""
    dps = 40
    while True:
        with mp.workdps(dps):
            alpha, beta = _params(ks, kl)
            m = [[_entry("F", alpha, beta, mp.mpc(li), mp.mpf(tj)) for tj in t] for li in lam]
            perm = _perm(m)
            bound = _perm([[abs(v) for v in row] for row in m])
            lost = float(mp.log10(bound / abs(perm))) if perm != 0 else dps
            if dps - lost >= DIGITS:
                return complex(perm / math.factorial(len(lam)))
            dps = int(lost) + DIGITS + 15
