"""Scalar special functions: complex log-Gamma, Gauss 2F1 on the real
domains needed by the Jacobi-function formulas, and the normalized Bessel
function J_alpha(x) * 2^alpha Gamma(alpha+1) x^(-alpha)."""

import cmath

from . import _kernels
from .errors import DomainError, NonConvergence, PoleError

POLE_TOL = 1e-12
MAX_TERMS = 30_000
#: refuse the direct series this close to the z = 1 singularity
Z_ONE_MARGIN = 1e-6


def _near_nonpositive_int(z: complex, tol: float = POLE_TOL) -> bool:
    if z.real > 0.5:
        return False
    k = round(z.real)
    return k <= 0 and abs(z - k) <= tol


def log_gamma(z) -> complex:
    """log Gamma(z); exp of the result is accurate to ~1e-13 relative on
    |z| <= 50 away from poles."""
    z = complex(z)
    if _near_nonpositive_int(z):
        raise PoleError(f"log_gamma pole at z = {z}")
    return _kernels.log_gamma(z)


def gauss_2f1(a, b, c, z) -> complex:
    """2F1(a, b; c; z) for real z <= 0 (via the Pfaff transformation) or
    z in [0, 1) (direct series).  Terminating cases (a or b a non-positive
    integer) are summed directly for any real z."""
    a, b, c, z = complex(a), complex(b), complex(c), complex(z)
    if _near_nonpositive_int(c):
        raise PoleError(f"2F1 parameter c = {c} is a non-positive integer")
    if abs(z.imag) > 1e-12 * max(1.0, abs(z)):
        raise DomainError(f"2F1 argument must be real, got z = {z}")
    x = z.real

    terminating = _near_nonpositive_int(a) or _near_nonpositive_int(b)
    if terminating:
        if _near_nonpositive_int(b) and not _near_nonpositive_int(a):
            a, b = b, a
        nmax = int(round(-a.real)) + 2
        val, _ = _kernels.hyp2f1_series(
            complex(round(a.real)), b, c, complex(x), nmax
        )
        return val

    if x < 0.0:
        # Pfaff: 2F1(a,b;c;z) = (1-z)^(-a) 2F1(a, c-b; c; z/(z-1)),
        # mapping (-inf, 0) into [0, 1).
        w = x / (x - 1.0)
        val, nterms = _kernels.hyp2f1_series(a, c - b, c, complex(w), MAX_TERMS)
        if nterms >= MAX_TERMS:
            raise NonConvergence(f"2F1 Pfaff series at w = {w} hit the term cap")
        return cmath.exp(-a * cmath.log(1.0 - x)) * val
    if x == 0.0:
        return 1.0 + 0.0j
    if x > 1.0 - Z_ONE_MARGIN:
        raise NonConvergence(f"2F1 argument z = {x} too close to 1")
    val, nterms = _kernels.hyp2f1_series(a, b, c, complex(x), MAX_TERMS)
    if nterms >= MAX_TERMS:
        raise NonConvergence(f"2F1 series at z = {x} hit the term cap")
    return val


def bessel_j_normalized(alpha: float, x) -> complex:
    """2^alpha Gamma(alpha+1) x^(-alpha) J_alpha(x), an even entire function
    of x with value 1 at the origin."""
    if _near_nonpositive_int(complex(alpha + 1.0)):
        raise PoleError(f"normalized Bessel undefined for alpha = {alpha}")
    val, nterms = _kernels.bessel_series(float(alpha), complex(x), MAX_TERMS)
    if nterms >= MAX_TERMS:
        raise NonConvergence(f"Bessel series at x = {x} hit the term cap")
    return val
