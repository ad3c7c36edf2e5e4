"""BC_n combinatorics and c-function data: the chamber, the
hyperoctahedral Weyl group, rho(k), the middle-root Weyl denominator and
its rational limit, the c-function over the full positive system, and
the normalization constant B of the determinant formula."""

import cmath
import math
from dataclasses import dataclass
from itertools import permutations, product

import numpy as np

from .errors import ChamberError, ParameterError, PoleError, SizeError, ZeroDenominator
from .jacobi import JacobiParams
from .special import _near_nonpositive_int, log_gamma

MAX_RANK = 8
#: pole tolerance of the c-function factors and of constant_B; named apart
#: from special.POLE_TOL, the scalar layer's 1e-12, so that neither value
#: reads as the other
C_POLE_TOL = 1e-10


@dataclass(frozen=True)
class MultiplicityBC:
    """Multiplicities (k_s, k_m, k_l) of the short, middle, and long roots
    of BC_n, with the standing assumption k_m in {0, 1}."""

    k_s: complex
    k_m: int
    k_l: complex
    n: int

    def __post_init__(self):
        if self.k_m not in (0, 1):
            raise ParameterError(f"k_m must be 0 or 1, got {self.k_m}")
        if self.n < 1:
            raise ParameterError(f"n must be positive, got {self.n}")
        if _near_nonpositive_int(complex(self.alpha) + 1.0):
            raise ParameterError(f"alpha = {self.alpha} is a negative integer")

    @property
    def alpha(self) -> complex:
        return complex(self.k_s) + complex(self.k_l) - 0.5

    @property
    def beta(self) -> complex:
        return complex(self.k_l) - 0.5

    @property
    def c0(self) -> complex:
        """The BC_1 rho: k_s + 2 k_l."""
        return complex(self.k_s) + 2.0 * complex(self.k_l)

    @property
    def jacobi(self) -> JacobiParams:
        return JacobiParams(alpha=self.alpha, beta=self.beta)


def canonical_points(t: np.ndarray) -> np.ndarray:
    """Move one point (n,), or every point of a stack (N, n), with distinct
    nonzero |t_j| into the canonical chamber by the Weyl action; any other
    point keeps its coordinates."""
    ts = np.atleast_2d(t)
    srt = np.sort(np.abs(ts), axis=1)
    ok = np.all(np.diff(srt, axis=1, prepend=0.0) != 0.0, axis=1)
    return np.where(ok[:, None], srt, ts[:, ::-1])[:, ::-1].reshape(t.shape)


def in_open_chamber(t: np.ndarray) -> bool:
    """t_1 > ... > t_n > 0, for one point (n,) or every point of a stack
    (N, n)."""
    t = np.atleast_2d(t)
    return bool((t[:, :-1] > t[:, 1:]).all() and (t[:, -1] > 0.0).all())


def require_chamber(t: np.ndarray) -> None:
    """Refuse one point, or a stack naming its first point, outside the
    open chamber."""
    if not in_open_chamber(t):
        bad = next(p for p in np.atleast_2d(t) if not in_open_chamber(p))
        raise ChamberError(f"t = {bad} not in the open chamber")


def rho(k) -> np.ndarray:
    """rho(k)_j = k_s + 2 k_l + 2 (n - j) k_m in lambda_j coordinates.
    k needs only the attributes k_s, k_m, k_l and n; k_m may be any
    complex number here."""
    base = complex(k.k_s) + 2.0 * complex(k.k_l)
    return np.array(
        [base + 2.0 * (k.n - j) * complex(k.k_m) for j in range(1, k.n + 1)],
        dtype=complex,
    )


def _pi(x, block=None):
    """prod_{i<j} (x_i - x_j), or, given a block label per coordinate, the
    product over the pairs in different blocks."""
    v = 1.0
    n = len(x)
    for i in range(n):
        for j in range(i + 1, n):
            if block is None or block[i] != block[j]:
                v *= x[i] - x[j]
    return v


def delta_m(t) -> float:
    """Middle-root Weyl denominator
    2^(n(n-1)/2) prod_{i<j} (cosh 2t_i - cosh 2t_j)."""
    t = np.asarray(t, dtype=float)
    n = len(t)
    return float(2.0 ** (0.5 * n * (n - 1)) * _pi(np.cosh(2.0 * t)))


def delta_m_rational(t) -> float:
    """Rational limit prod_{i<j} (4 t_i^2 - 4 t_j^2) of
    eps^(-n(n-1)) delta_m(a_{eps t})."""
    t = np.asarray(t, dtype=float)
    n = len(t)
    # scalar squares: numpy's array square can differ in the last bit
    return float(4.0 ** (n * (n - 1) // 2) * _pi([x**2 for x in t]))


def weyl_elements(n: int):
    """All 2^n n! signed permutations (signs, perm), acting on spectral
    coordinates by lambda_j -> signs_j * lambda_{perm_j}."""
    if n > MAX_RANK:
        raise SizeError(f"n = {n} exceeds the supported rank {MAX_RANK}")
    return [
        (signs, perm)
        for signs in product((1, -1), repeat=n)
        for perm in permutations(range(n))
    ]


def apply_weyl(w, lam) -> np.ndarray:
    signs, perm = w
    lam = np.asarray(lam, dtype=complex)
    return np.array([signs[j] * lam[perm[j]] for j in range(len(lam))])


def _c_shortlong(k: MultiplicityBC, x: complex) -> complex:
    """Combined short+long c-factor at coordinate x = lambda_j, in the
    duplication-reduced form
    2^(-x-k_s+1) Gamma(x) / [Gamma((x+k_s+1)/2) Gamma((x+k_s)/2 + k_l)].

    The raw product of Eq-(1.15)-type Gamma quotients over e_j and 2e_j is
    sqrt(pi) times this; the constant cancels in every normalized quantity
    and this form is the one the determinant normalization constant is
    stated against."""
    ks, kl = complex(k.k_s), complex(k.k_l)
    if _near_nonpositive_int(x, C_POLE_TOL):
        raise PoleError(f"c-function pole: Gamma({x}) in the numerator")
    d1 = 0.5 * (x + ks + 1.0)
    d2 = 0.5 * (x + ks) + kl
    if (_near_nonpositive_int(d1, C_POLE_TOL)
            or _near_nonpositive_int(d2, C_POLE_TOL)):
        return 0.0 + 0.0j
    s = (-x - ks + 1.0) * math.log(2.0) + log_gamma(x) - log_gamma(d1) - log_gamma(d2)
    return cmath.exp(s)


def c_tilde(k: MultiplicityBC, lam) -> complex:
    """Gamma-quotient c-function product over the positive roots of BC_n.
    For k_m = 1 the middle block is 2^(n(n-1)) / prod_{i<j}
    (lambda_i^2 - lambda_j^2)."""
    lam = np.asarray(lam, dtype=complex)
    n = len(lam)
    val = 1.0 + 0.0j
    if k.k_m == 1:
        scale = max(1.0, float(np.max(np.abs(lam)) ** 2))
        for i in range(n):
            for j in range(i + 1, n):
                d = lam[i] ** 2 - lam[j] ** 2
                if abs(d) <= C_POLE_TOL * scale:
                    raise PoleError(
                        f"middle c-factor pole at lambda_{i}^2 = lambda_{j}^2"
                    )
                val *= 4.0 / d
    for x in lam:
        val *= _c_shortlong(k, x)
    return val


def c_normalized(k: MultiplicityBC, lam):
    """c(lambda, k) = c_tilde(lambda, k) / c_tilde(rho(k), k), for one
    lambda (n,), or an array of the values of a stack (B, n).  At k_m = 0
    the literal middle quotient is 1, but rho(k) degenerates as k_m -> 0
    and the limit of the quotient is 1/n!; the limit is the value that
    makes the Weyl-sum representation of F reproduce the permanent
    formula, so it is the one used.  A stack takes each short+long factor
    once per distinct coordinate: 2n of them over the Weyl images of one
    lambda."""
    lam = np.asarray(lam, dtype=complex)
    lams = np.atleast_2d(lam)
    n = lams.shape[1]
    rh = rho(k)
    rho_factor = []
    for p in range(n):
        den = _c_shortlong(k, rh[p])
        if abs(den) == 0.0:
            raise ZeroDenominator(f"c-tilde vanishes at rho(k) in coordinate {p + 1}")
        rho_factor.append(den)
    vdm_rho = _pi([x**2 for x in rh])
    factor = {x: _c_shortlong(k, x) for x in set(lams.ravel())}
    out = []
    for row in lams:
        if k.k_m == 0:
            val = complex(1.0 / math.factorial(n))
        else:
            den = _pi([x**2 for x in row])  # scalar squares, as in delta_m_rational
            if abs(den) == 0.0:
                raise PoleError("middle c-factor pole in normalized c-function")
            val = vdm_rho / den
        for p in range(n):
            val *= factor[row[p]] / rho_factor[p]
        out.append(val)
    return out[0] if lam.ndim == 1 else np.array(out)


def constant_B(k: MultiplicityBC) -> complex:
    """Normalization constant of the determinant formula,
    B = 2^(2n(n-1)) prod_{i=1}^{n-1} (alpha+i)^(n-i) i!.

    Taken positive: paired with the Vandermonde prod_{i<j}
    (lambda_i^2 - lambda_j^2) this is the constant that makes
    F(lambda, k; e) = 1 and that equals
    2^(n(n-1)) / [c_tilde(rho(k), k) (2^(2k_s+2k_l-1) Gamma(k_s+k_l+1/2))^n];
    the printed sign factor (-1)^(n(n-1)/2) corresponds to the reversed
    Vandermonde ordering."""
    a = complex(k.alpha)
    if _near_nonpositive_int(a + 1.0) or abs(a) <= C_POLE_TOL:
        raise ParameterError(f"alpha = {a} in the excluded set 0, -1, -2, ...")
    n = k.n
    val = complex(2.0 ** (2 * n * (n - 1)))
    for i in range(1, n):
        val *= (a + i) ** (n - i) * math.factorial(i)
    return val
