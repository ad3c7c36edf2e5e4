"""A small mpmath reference for the determinant formula at k_m = 1,
written apart from hyperbc: F and BesselBC at any lambda, coinciding
lambda_i^2 included.  A value lambda_i whose square repeats an earlier one
is moved by SPLIT for every earlier repeat, so the reference is the limit
up to O(SPLIT); the working precision rises until the cancellation of the
determinant, estimated by Hadamard's bound, leaves DIGITS digits."""

import math

import mpmath as mp

SPLIT = mp.mpf("1e-30")
DIGITS = 25


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
            alpha = mp.mpf(ks) + mp.mpf(kl) - mp.mpf(1) / 2
            beta = mp.mpf(kl) - mp.mpf(1) / 2
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
