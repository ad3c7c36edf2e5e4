"""Rank-one (BC_1) building blocks: the Jacobi function phi, the
exponentially normalized solution Phi with e^((lambda-rho)t) asymptotics,
and the rank-one c-function c_{alpha,beta}."""

import cmath
import math
from dataclasses import dataclass

from .errors import DegenerateLambda, DomainError, Overflow, PoleError
from .special import _near_nonpositive_int, gauss_2f1, log_gamma

#: lambda this close to a positive integer is refused by jacobi_phi_asymptotic
INTEGER_TOL = 1e-10


def squared(f, t: float) -> float:
    """f(t)^2 for f = math.sinh or math.cosh, raising Overflow where it
    leaves the float range (t above about 355)."""
    try:
        return f(t) ** 2
    except OverflowError:
        raise Overflow(f"{f.__name__}(t)^2 overflows at t = {t}") from None


@dataclass(frozen=True)
class JacobiParams:
    """The rank-one parameter pair; alpha = k_s + k_l - 1/2, beta = k_l - 1/2."""

    alpha: complex
    beta: complex

    def __post_init__(self):
        if _near_nonpositive_int(complex(self.alpha) + 1.0):
            raise PoleError(f"alpha = {self.alpha} is a negative integer")

    @property
    def rho1(self) -> complex:
        return self.alpha + self.beta + 1.0

    @classmethod
    def from_multiplicities(cls, k_s, k_l) -> "JacobiParams":
        return cls(alpha=complex(k_s) + complex(k_l) - 0.5, beta=complex(k_l) - 0.5)


def jacobi_phi(p: JacobiParams, lam, t: float) -> complex:
    """phi^(alpha,beta)_{i lambda}(t): even in lambda and t, equal to 1 at t=0."""
    lam = complex(lam)
    rho = p.rho1
    z = -squared(math.sinh, t)
    return gauss_2f1(0.5 * (rho - lam), 0.5 * (rho + lam), p.alpha + 1.0, z)


def jacobi_phi_asymptotic(p: JacobiParams, lam, t: float) -> complex:
    """Phi^(alpha,beta)_{-i lambda}(t) = (2 cosh t)^(lambda-rho) *
    2F1((rho-lambda)/2, (alpha-beta+1-lambda)/2; 1-lambda; cosh^-2 t),
    the solution with e^((lambda-rho)t) behaviour as t -> infinity."""
    lam = complex(lam)
    if abs(lam.imag) <= INTEGER_TOL:
        k = round(lam.real)
        if k >= 1 and abs(lam - k) <= INTEGER_TOL:
            raise DegenerateLambda(f"lambda = {lam} is a positive integer")
    z = 1.0 / squared(math.cosh, t)
    if not t > 0.0 or z > 1.0 - 1e-6:
        raise DomainError(f"t = {t} too small for the asymptotic solution")
    rho = p.rho1
    pref = cmath.exp((lam - rho) * math.log(2.0 * math.cosh(t)))
    return pref * gauss_2f1(
        0.5 * (rho - lam), 0.5 * (p.alpha - p.beta + 1.0 - lam), 1.0 - lam, z
    )


def c_rank1(p: JacobiParams, lam) -> complex:
    """c_{alpha,beta}(-i lambda) =
    2^(rho-lambda) Gamma(alpha+1) Gamma(lambda) /
    [Gamma((lambda+rho)/2) Gamma((lambda+alpha-beta+1)/2)],
    computed through log-Gamma differences.  Poles of the denominator
    Gammas give 0 (reciprocal-Gamma convention)."""
    lam = complex(lam)
    rho = p.rho1
    a1 = 0.5 * (lam + rho)
    a2 = 0.5 * (lam + p.alpha - p.beta + 1.0)
    if _near_nonpositive_int(complex(p.alpha) + 1.0) or _near_nonpositive_int(lam):
        raise PoleError(f"c-function pole: Gamma factor at lambda = {lam}")
    if _near_nonpositive_int(a1) or _near_nonpositive_int(a2):
        return 0.0 + 0.0j
    s = (
        (rho - lam) * math.log(2.0)
        + log_gamma(p.alpha + 1.0)
        + log_gamma(lam)
        - log_gamma(a1)
        - log_gamma(a2)
    )
    return cmath.exp(s)
