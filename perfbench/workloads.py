"""Seeded input generators for the benchmark workloads.

Each workload is an endless stream of operations built in cycles: a cycle
is a fixed list of operation classes (rank, target, region of the chamber,
kind of spectral parameter) and the seed only draws the numbers inside
each class.  Every run therefore sees the same mix of classes, which keeps
throughput and latency comparable across seeds, while no two operations
share their inputs.  Nothing here imports hyperbc: the program receives only
the generated numbers.
"""

import itertools
from dataclasses import dataclass

import numpy as np

#: t_1 range of the "large" region; every evaluation of today's code
#: converges below t_1 = 4, and the cost of a rank-one value grows fast
#: toward it
T_LARGE = (3.4, 3.8)
#: smallest lambda_n drawn in the "large" region: as lambda -> 0 the cost
#: grows fast too, and the latency tail would rest on a few extreme draws
LARGE_T_LAM_MIN = 2.0


@dataclass(frozen=True)
class Point:
    """One evaluate() request; target uses the EvalRequest names."""

    cls: str
    target: str
    ks: float
    km: int
    kl: float
    lam: tuple
    t: tuple

    @property
    def n(self):
        return len(self.t)


@dataclass(frozen=True)
class Grid:
    """One `hyperbc grid` invocation over row-major axes."""

    cls: str
    target: str
    ks: float
    km: int
    kl: float
    lam: tuple
    axes: tuple  # ((start, stop, count), ...)
    fmt: str

    @property
    def n(self):
        return len(self.axes)

    @property
    def rows(self):
        return int(np.prod([c for _, _, c in self.axes]))

    def argv(self, output):
        lam = ",".join(_fmt_complex(z) for z in self.lam)
        axes = ",".join(f"{a!r}:{b!r}:{c}" for a, b, c in self.axes)
        return ["grid", "--target", self.target, "--n", str(self.n),
                "--k", f"{self.ks!r},{self.km},{self.kl!r}",
                "--lambda", lam, "--t", axes, "--format", self.fmt,
                "--output", output]


@dataclass(frozen=True)
class Check:
    """One cross-check of F against the Weyl-sum series oracle at several
    deep chamber points, plus one eigen-residual of L(k) at a moderate
    point."""

    cls: str
    ks: float
    km: int
    kl: float
    lam: tuple
    order: int
    deep: tuple  # chamber points deep enough for the series tail
    moderate: tuple

    @property
    def n(self):
        return len(self.lam)


def _fmt_complex(z):
    z = complex(z)
    if z.imag == 0.0:
        return repr(z.real)
    sign = "+" if z.imag >= 0.0 else "-"
    return f"{z.real!r}{sign}{abs(z.imag)!r}i"


def _multiplicities(rng):
    return float(rng.uniform(0.6, 1.4)), float(rng.uniform(0.3, 1.0))


def _lam(rng, n, kind, lo=0.5):
    """Spectral parameters with well separated squares.

    kind: "real", "complex", "confluent" (one pair with lambda_i^2 and
    lambda_j^2 within the confluent tolerance), or "half-plane" (complex,
    Re lambda > 0 and away from integers, for the asymptotic solutions)."""
    while True:
        re = np.sort(rng.uniform(lo, 6.0, n))[::-1]
        if n > 1 and np.min(np.diff(-re)) < 0.35:
            continue
        if kind == "half-plane" and np.any(np.abs(re - np.round(re)) < 0.1):
            continue
        break
    im = rng.uniform(-1.0, 1.0, n) if kind in ("complex", "half-plane") else 0.0
    lam = re + 1j * im
    if kind == "confluent":
        i = int(rng.integers(0, n - 1))
        lam[i + 1] = lam[i] * (1.0 + 10.0 ** rng.uniform(-11.0, -10.0))
    return tuple(complex(x) for x in lam)


def _t(rng, n, region):
    """A chamber point t_1 > ... > t_n > 0 in one region of the chamber.

    origin: sinh^2 t_1 < 0.5 (the divided-difference path);
    moderate: t_1 up to 2.5; large: t_1 in T_LARGE and the rest as at
    moderate t (with t_2 up to 3.3 as well, the latency tail of points
    rested on the few draws with several large t_j, and moved by 20 %
    from seed to seed);
    stencil: t in [0.3, 1.6], for the eigen-residual's difference stencil;
    wall: moderate with one pair 1e-4 .. 1e-3 apart;
    wall6: moderate with one pair 1e-6 .. 1e-5 apart;
    frontier: t_1 in [4.5, 6], beyond where today's code converges."""
    lo, hi = {"origin": (0.02, 0.65), "moderate": (0.1, 2.5),
              "wall": (0.1, 2.5), "wall6": (0.1, 2.5), "large": (0.1, 2.5),
              "stencil": (0.3, 1.6),
              "frontier": (0.1, 4.3)}[region]
    while True:
        t = np.sort(rng.uniform(lo, hi, n))[::-1]
        if n > 1 and np.min(np.diff(-t)) < 0.02:
            continue
        if region == "large":
            t[0] = rng.uniform(*T_LARGE)
        elif region == "frontier":
            t[0] = rng.uniform(4.5, 6.0)
        elif region in ("wall", "wall6") and n > 1:
            i = int(rng.integers(0, n - 1))
            lo_exp = -4.0 if region == "wall" else -6.0
            t[i + 1] = t[i] - 10.0 ** rng.uniform(lo_exp, lo_exp + 1.0)
        return tuple(float(x) for x in t)


# (target, n, k_m, region, lambda kind): one cycle of the points stream.
# Weighted toward small n; F dominates; every evaluation path is reached:
# det, det-divided (origin), confluent, perm, asymptotic (FTheta, Phi)
# and bessel.  Walls 1e-6 apart only where the reduction stays within the
# 1e-8 check there (k_m = 0, no cancellation); the classes that can miss
# it are in FRONTIER_CYCLE.
POINTS_CYCLE = (
    ("F", 2, 1, "moderate", "real"),
    ("F", 2, 1, "origin", "complex"),
    ("F", 2, 1, "wall", "real"),
    ("F", 2, 1, "large", "complex"),
    ("F", 2, 0, "moderate", "complex"),
    ("F", 2, 0, "wall6", "real"),
    ("F", 2, 0, "large", "real"),
    ("F", 3, 1, "moderate", "complex"),
    ("F", 3, 1, "origin", "real"),
    ("F", 3, 1, "wall", "complex"),
    ("F", 3, 1, "large", "real"),
    ("F", 3, 0, "moderate", "real"),
    ("F", 3, 0, "origin", "complex"),
    ("F", 3, 0, "wall6", "complex"),
    ("F", 5, 1, "moderate", "real"),
    ("F", 5, 1, "origin", "complex"),
    ("F", 5, 0, "moderate", "complex"),
    ("F", 8, 0, "origin", "complex"),
    ("F", 2, 1, "moderate", "confluent"),
    ("FTheta", 2, 1, "moderate", "half-plane"),
    ("FTheta", 3, 0, "moderate", "half-plane"),
    ("BesselBC", 2, 1, "moderate", "complex"),
    ("BesselBC", 3, 0, "moderate", "real"),
    ("PhiSeries", 2, 1, "moderate", "half-plane"),
    ("PhiSeries", 3, 0, "moderate", "half-plane"),
)

# Inputs on which today's code raises or misses the 1e-8 reference check,
# kept out of the scored workloads so that those stay free of failures, and
# run as their own workload (--workload frontier) so that the failures stay
# visible.  Worst relative errors were seen in probes of 12 to 400 draws
# per class.
# - t_1 past the convergence limit of the rank-one series (NonConvergence);
# - rank 8 with k_m = 1 (det / Delta_m cancels);
# - walls 1e-6 apart at k_m = 1, rank 3 and 5 (det / Delta_m cancels);
# - k_m = 0 at large t, rank 3 and 5, and at moderate t, rank 8: the rows
#   of the rank-one matrix differ by orders of magnitude and Ryser's
#   alternating sum loses up to 8 digits (3.4e-8 at rank 8);
# - a confluent pair at rank 3, F and BesselBC: the central difference in
#   lambda^2 of the confluent path leaves up to 2.9e-8 (4.4e-9 at rank 2,
#   which stays in POINTS_CYCLE).
FRONTIER_CYCLE = (
    ("F", 2, 1, "frontier", "real"),
    ("F", 3, 0, "frontier", "complex"),
    ("F", 8, 1, "moderate", "real"),
    ("F", 3, 1, "wall6", "complex"),
    ("F", 5, 1, "wall6", "real"),
    ("F", 3, 0, "large", "complex"),
    ("F", 5, 0, "large", "real"),
    ("F", 8, 0, "moderate", "real"),
    ("F", 3, 1, "moderate", "confluent"),
    ("BesselBC", 3, 1, "moderate", "confluent"),
)


def _point(rng, cls):
    target, n, km, region, kind = cls
    ks, kl = _multiplicities(rng)
    t = _t(rng, n, region)
    if target in ("FTheta", "PhiSeries") and t[-1] < 0.4:
        t = tuple(x + 0.4 for x in t)
    name = f"{target}.n{n}.km{km}.{region}.{kind}"
    lam = _lam(rng, n, kind, lo=LARGE_T_LAM_MIN if region == "large" else 0.5)
    return Point(name, target, ks, km, kl, lam, t)


def points(seed, cycle=POINTS_CYCLE):
    """Endless stream of single evaluations, one cycle after another."""
    rng = np.random.default_rng(seed)
    for _ in itertools.count():
        yield [_point(rng, cls) for cls in cycle]


def frontier(seed):
    return points(seed, FRONTIER_CYCLE)


# (target, n, k_m, points per axis, format): one cycle of the grid stream,
# at the grid sizes 20^2 (n = 2) and 10^3 (n = 3).  A run is whole cycles,
# so the share of each call class is exact.  A cycle takes about 4.6 s of
# calibrated time, so a 12-second run is three cycles, and stays three
# when the cost of a cycle moves by 10-20 %; at 12 calls and about 6 s
# per cycle, runs of two and of three cycles alternated.  The n = 3 F
# grids, 6 of 10 calls, keep both latency quantiles inside their block,
# not at its edge next to the cheaper classes: of 30 calls the median is
# the 3rd and 4th of 18 n = 3 F calls, the tail (the 11th slowest) the 8th.
GRID_CYCLE = (
    ("F", 3, 1, 10, "csv"),
    ("F", 3, 0, 10, "json"),
    ("F", 3, 1, 10, "json"),
    ("F", 3, 0, 10, "csv"),
    ("F", 3, 1, 10, "csv"),
    ("F", 3, 0, 10, "json"),
    ("F", 2, 1, 20, "json"),
    ("F", 2, 0, 20, "csv"),
    ("BesselBC", 2, 1, 20, "json"),
    ("BesselBC", 3, 0, 10, "csv"),
)
#: ranges of the first and the last point of every axis.  The cost of a
#: rank-one value grows steeply with t and as lambda gets small (about 0.1
#: ms at t = 1, 2.4 ms at t = 3 and lambda = 1), so grids draw lambda_i,
#: k and the axes from narrow bands: the cost of a call then barely depends
#: on the seed, and a 12-second run of a few dozen calls is steady.
GRID_START = (0.05, 0.1)
GRID_STOP = (2.4, 2.5)
GRID_LAM = {2: (4.0, 2.5), 3: (5.0, 3.5, 2.0)}
GRID_LAM_WIDTH = 0.3
GRID_K = ((0.9, 1.1), (0.45, 0.55))


def _grid(rng, cls):
    target, n, km, g, fmt = cls
    ks, kl = (float(rng.uniform(*r)) for r in GRID_K)
    start = rng.uniform(*GRID_START)
    stop = rng.uniform(*GRID_STOP)
    step = (stop - start) / (g - 1)
    # every axis covers the same range, shifted by a fraction of a step, so
    # the grid spans the chamber from the origin to t = GRID_STOP without
    # putting a point on a wall t_i = t_j
    axes = tuple(
        (float(start + j * step / n), float(stop + j * step / n), g)
        for j in range(n)
    )
    lam = np.array(GRID_LAM[n]) + rng.uniform(0.0, GRID_LAM_WIDTH, n)
    if km == 0:
        lam = lam + 1j * rng.uniform(-0.5, 0.5, n)
    lam = tuple(complex(x) for x in lam)
    return Grid(f"{target}.n{n}.km{km}.{fmt}", target, ks, km, kl, lam, axes, fmt)


def grids(seed):
    rng = np.random.default_rng(seed)
    for _ in itertools.count():
        yield [_grid(rng, cls) for cls in GRID_CYCLE]


# (n, series order, k_m): one cycle of the verify stream.  Criterion 02's
# n = 3 at order 20 takes about 15 s per check on the numpy path, longer
# than a run; it is left out.  A run is whole cycles, so the share of each
# class is exact.  One n = 3 check per cycle, with k_m alternating between
# cycles, keeps the slow checks fewer than the ten samples the latency tail
# leaves beyond it, so the tail falls inside the block of n = 2 checks; the
# 8:4 split of k_m at n = 2 puts the median well inside the (slower) k_m = 1
# block rather than at its edge.
VERIFY_CYCLE = ((2, 20, 1), (2, 20, 1), (2, 20, 0)) * 4 + ((3, 12, None),)
#: deep chamber base point, common shift and extra t_1 shift at which the
#: order-N series tail stays below 1e-9.  At order 12 the tail falls by
#: about e^-g per order, g = min(2(t_i - t_{i+1}), 2 t_n); with gaps of
#: 1.25 it reached 1.75e-9 of F at k_m = 1 (k_s = 1.34, k_l = 0.99,
#: lambda = (3.10, 2.59, 2.06)).  Gaps of 1.4 bring the worst case seen
#: (k_s = 1.4, k_l = 1.0, lambda_3 near 2) to 7e-11; t_1 stays below 4.3,
#: clear of the t_1 >= 4.5 region where F raises
VERIFY_DEEP = {(2, 20): ((2.7, 1.2), 0.3, 0.1),
               (3, 12): ((4.2, 2.8, 1.4), 0.03, 0.07)}
VERIFY_POINTS = 4
#: smallest lambda_n.  At n = 3 below 2 the order-12 series tail can
#: exceed 1e-9 of F at the deep points (seen at lambda_3 = 1.57); at n = 2
#: the floor keeps the cost of the F values in a check, which grows fast
#: as lambda -> 0, from depending on the draw
VERIFY_LAM_MIN = {2: 2.5, 3: 2.0}
#: smallest |(mu,mu) - (lambda,mu)| over the lattice and the Weyl images
GENERICITY_MARGIN = 0.05


def _lattice(n, order):
    pts = []
    for c in itertools.product(range(order + 1), repeat=n):
        if 0 < sum(c) <= order:
            pts.append([c[0]] + [c[i] - c[i - 1] for i in range(1, n)])
    return np.array(pts, dtype=float)


def _generic(lam, n, order):
    mu = _lattice(n, order)
    mm = np.sum(mu * mu, axis=1)
    lam_e = np.asarray(lam) / 2.0
    for signs in itertools.product((1, -1), repeat=n):
        for perm in itertools.permutations(range(n)):
            wl = np.array([signs[j] * lam_e[perm[j]] for j in range(n)])
            if np.min(np.abs(mm - 2.0 * (mu @ wl))) < GENERICITY_MARGIN:
                return False
    return True


def _check(rng, cls, cycle):
    n, order, km = cls
    if km is None:
        km = cycle % 2
    ks, kl = _multiplicities(rng)
    while True:
        lam = _lam(rng, n, "real", lo=VERIFY_LAM_MIN[n])
        if _generic(lam, n, order):
            break
    base, shift, shift1 = VERIFY_DEEP[n, order]
    deep = []
    for _ in range(VERIFY_POINTS):
        p = np.array(base) + rng.uniform(0.0, shift)
        p[0] += rng.uniform(0.0, shift1)
        deep.append(tuple(float(x) for x in p))
    moderate = _t(rng, n, "stencil")
    while min(moderate[-1], *(-np.diff(moderate))) < 0.3:
        moderate = _t(rng, n, "stencil")
    return Check(f"n{n}.order{order}.km{km}", ks, km, kl, lam, order,
                 tuple(deep), moderate)


def checks(seed):
    rng = np.random.default_rng(seed)
    for cycle in itertools.count():
        yield [_check(rng, cls, cycle) for cls in VERIFY_CYCLE]
