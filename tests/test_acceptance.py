"""Acceptance gate: twelve criteria covering the full evaluation stack,
each printed as a single pass/fail line with its measured error, stated
tolerance, and runtime."""

import cmath
import math
import time

import numpy as np
import pytest

from hyperbc.hcseries import compute_coeffs, series_eval
from hyperbc.hyper import EvalRequest, evaluate, f_determinant, phi_product
from hyperbc.jacobi import JacobiParams, c_rank1, jacobi_phi, jacobi_phi_asymptotic
from hyperbc.rootsystem import MultiplicityBC
from hyperbc.special import gauss_2f1, log_gamma
from hyperbc.verify import _deep_points, run_suite


def rel(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


@pytest.fixture(scope="session", autouse=True)
def _warmup():
    # run the evaluators and the series recursion once before anything is
    # timed, so that first-call costs (imports, cache fills) do not count
    # against the runtime bounds
    k1 = MultiplicityBC(k_s=1.0, k_m=1, k_l=0.5, n=2)
    k0 = MultiplicityBC(k_s=1.0, k_m=0, k_l=0.5, n=2)
    for k in (k1, k0):
        evaluate(EvalRequest(k=k, lam=np.array([2.55, 1.07]),
                             t=np.array([1.0, 0.4]), target="F"))
        evaluate(EvalRequest(k=k, lam=np.array([2.55, 1.07]),
                             t=np.array([1.0, 0.4]), target="BesselBC"))
    compute_coeffs(k1, [2.55, 1.07], order=4)


def _report(num, desc, err, tol, dt, ok=None):
    if ok is None:
        ok = err <= tol
    line = (
        f"[criterion {num:2d}] {desc}: {'PASS' if ok else 'FAIL'} "
        f"(max err {err:.3e}, tol {tol:.0e}, {dt:.2f}s)"
    )
    print(line)
    assert ok, line


def _suite_worst(name):
    t0 = time.perf_counter()
    records = run_suite(name)
    dt = time.perf_counter() - t0
    return records, max(r.error for r in records), dt


class TestAcceptance:
    def test_criterion_01_rank_one_reduction(self):
        records, worst, dt = _suite_worst("rank1-reduction")
        ok = all(r.passed for r in records) and dt < 1.0
        _report(1, "rank-one reduction, 10x10 grid", worst, 1e-10, dt, ok)

    def test_criterion_02_oracle_equivalence(self):
        t0 = time.perf_counter()
        records = [r for r in run_suite("oracle-equivalence")
                   if "Weyl sum" in r.name]
        dt = time.perf_counter() - t0
        ok = all(r.passed for r in records) and dt < 30.0
        worst = max(r.error for r in records)
        _report(2, "det/perm formula vs Weyl-sum series oracle", worst, 1e-8, dt, ok)

    def test_criterion_03_product_form_of_series(self):
        t0 = time.perf_counter()
        lam = [2.55, 1.07]
        worst = 0.0
        for km in (0, 1):
            k = MultiplicityBC(k_s=1.0, k_m=km, k_l=0.5, n=2)
            table = compute_coeffs(k, lam, order=12)
            for t in _deep_points(2):
                prod = phi_product(k, lam, t)
                ser = series_eval(table, t, tail_tol=1e-9).value
                worst = max(worst, rel(prod, ser))
        dt = time.perf_counter() - t0
        ok = worst <= 1e-8 and dt < 10.0
        _report(3, "series vs product form, n=2, order 12", worst, 1e-8, dt, ok)

    def test_criterion_04_normalization_at_identity(self):
        records, worst, dt = _suite_worst("normalization")
        _report(4, "ray-extrapolated value 1 at the identity", worst, 1e-6, dt,
                all(r.passed for r in records))

    def test_criterion_05_b_constant_identity(self):
        records, worst, dt = _suite_worst("B-constant")
        _report(5, "normalization constant gamma-quotient identity", worst,
                1e-8, dt, all(r.passed for r in records))

    def test_criterion_06_weyl_invariance(self):
        records, worst, dt = _suite_worst("weyl-invariance")
        _report(6, "invariance under all signed permutations of lambda",
                worst, 1e-9, dt, all(r.passed for r in records))

    def test_criterion_07_eigen_equation(self):
        records, worst, dt = _suite_worst("eigen-residual")
        _report(7, "L(k) and D_p2 eigen-equation residuals", worst, 1e-5, dt,
                all(r.passed for r in records))

    def test_criterion_08_bessel_limit(self):
        records, _, dt = _suite_worst("bessel-limit")
        worst = max(r.error for r in records if "eps" in r.name)
        ok = all(r.passed for r in records)
        _report(8, "rational (Bessel) limit, monotone, final error", worst,
                1e-4, dt, ok)

    def test_criterion_09_ftheta_translation_limits(self):
        records, _, dt = _suite_worst("ftheta-limit")
        worst = max(r.error for r in records if "u=8" in r.name)
        ok = all(r.passed for r in records)
        _report(9, "partial spherical function translation limits", worst,
                1e-4, dt, ok)

    def test_criterion_10_commutativity(self):
        records, worst, dt = _suite_worst("commutativity")
        _report(10, "conjugated operator commutator on bump", worst,
                records[0].tolerance, dt, all(r.passed for r in records))

    def test_criterion_11_degenerate_lambda_continuity(self):
        t0 = time.perf_counter()
        k = MultiplicityBC(k_s=1.0, k_m=1, k_l=0.5, n=2)
        t = np.array([1.0, 0.4])

        def at(s):
            return evaluate(EvalRequest(k=k, lam=np.array([2.0, 2.0 + s]), t=t, target="F"))

        svals = np.logspace(-10, -2, 17)
        flags = [at(s).degenerate_path for s in svals]
        # both branches must actually be exercised along the scan, with
        # one switch between them
        assert flags[0] and not flags[-1] and flags == sorted(flags, reverse=True)
        # bisect to the switch: the two sides, 1e-9 apart relative in s,
        # differ by the change of F there (about 1e-14) and the error of
        # either path
        lo, hi = svals[flags.index(False) - 1], svals[flags.index(False)]
        while hi / lo - 1.0 > 1e-9:
            mid = math.sqrt(lo * hi)
            lo, hi = (mid, hi) if at(mid).degenerate_path else (lo, mid)
        worst = rel(at(lo).value, at(hi).value)
        dt = time.perf_counter() - t0
        _report(11, "continuity across the degenerate-path switch", worst, 1e-10, dt)

    def test_criterion_12_scalar_layer_invariants(self):
        t0 = time.perf_counter()
        worst = 0.0
        # Gamma recurrence and reflection
        for z in (0.7 + 1.3j, 2.4 - 0.6j, -1.3 + 0.4j, 5.5):
            z = complex(z)
            worst = max(worst, rel(cmath.exp(log_gamma(z + 1.0)),
                                   z * cmath.exp(log_gamma(z))))
            worst = max(worst, rel(
                cmath.exp(log_gamma(z)) * cmath.exp(log_gamma(1.0 - z)),
                math.pi / cmath.sin(math.pi * z)))
        # argument transformation of the Gauss function
        for a, b, c, z in ((0.4, 1.3, 2.1, -2.5), (1.1, -0.6, 1.7, -0.4),
                           (0.25, 0.8, 2.9, -8.0)):
            lhs = gauss_2f1(a, b, c, z)
            rhs = (1.0 - z) ** (-a) * gauss_2f1(a, c - b, c, z / (z - 1.0))
            worst = max(worst, rel(lhs, rhs))
        # rank-one connection formula
        p = JacobiParams.from_multiplicities(1.0, 0.5)
        for lam in (1.3, 2.45, 3.7 + 0.5j):
            for tt in (0.6, 1.1, 2.0):
                lhs = jacobi_phi(p, lam, tt)
                rhs = c_rank1(p, lam) * jacobi_phi_asymptotic(p, lam, tt) \
                    + c_rank1(p, -lam) * jacobi_phi_asymptotic(p, -lam, tt)
                worst = max(worst, rel(lhs, rhs))
        dt = time.perf_counter() - t0
        ok = worst <= 1e-10 and dt < 5.0
        _report(12, "scalar-layer identities and connection formula", worst,
                1e-10, dt, ok)
