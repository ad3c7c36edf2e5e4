"""Self-test of the mpmath reference (python3 perfbench/run.py --self-test).

Checks the reference against facts that do not come from its own
formulas: a direct summation of the Gauss series, the rank-one identity
F = phi at n = 1, and points of the acceptance gate (the CLI test value,
the Weyl-sum series oracle, normalization at the identity, the Bessel
limit and the product form of the series).  Also checks that the
adaptive precision keeps the reference continuous across a wall and at
the origin, where det / Delta_m cancels.
"""

import mpmath as mp
import numpy as np

import hyperbc
import reference as R


def _series_2f1(a, b, c, z, terms=400):
    """Direct Gauss series, for |z| < 1."""
    with mp.workdps(40):
        s, term = mp.mpc(1), mp.mpc(1)
        for k in range(terms):
            term *= (a + k) * (b + k) / ((c + k) * (k + 1)) * z
            s += term
        return complex(s)


def checks():
    k1 = (1.0, 1, 0.5)
    # rank one: the reference phi against the plain series, F = phi at n = 1
    for lam, t in ((2.3 + 0.4j, 0.3), (0.9, 0.6), (4.1 - 0.7j, 0.75)):
        ks, _, kl = k1
        alpha, rho1 = ks + kl - 0.5, ks + 2 * kl
        z = -np.sinh(t) ** 2
        direct = _series_2f1((rho1 - lam) / 2, (rho1 + lam) / 2, alpha + 1, z)
        phi = complex(R.jacobi_phi(ks, kl, lam, t))
        yield f"phi vs Gauss series lam={lam} t={t}", R.rel_err(phi, direct), 1e-14
        for km in (0, 1):
            f1 = R.F(ks, km, kl, [lam], [t])
            yield f"F = phi at n=1 k_m={km} lam={lam}", R.rel_err(f1, phi), 1e-15

    # the CLI test's reference value of F at k = (1, 1, 1/2)
    ref = R.F(1.0, 1, 0.5, [3.0, 1.0], [1.0, 0.4])
    yield "CLI test value F(3,1; 1,0.4)", R.rel_err(0.6444087364136890, ref), 1e-14

    # criterion 02: F equals the Weyl-sum series oracle at deep points
    for km in (0, 1):
        k = hyperbc.MultiplicityBC(k_s=1.0, k_m=km, k_l=0.5, n=2)
        oracle = hyperbc.weyl_sum_oracle(k, [2.55, 1.07], [2.7, 1.2], order=20)
        ref = R.F(1.0, km, 0.5, [2.55, 1.07], [2.7, 1.2])
        yield f"Weyl-sum oracle n=2 k_m={km}", R.rel_err(oracle, ref), 1e-8

    # criterion 03: the product form against the series it sums
    k = hyperbc.MultiplicityBC(k_s=1.0, k_m=1, k_l=0.5, n=2)
    table = hyperbc.compute_coeffs(k, [2.55, 1.07], order=20)
    series = hyperbc.series_eval(table, np.array([2.9, 1.3])).value
    ref = R.Phi(1.0, 1, 0.5, [2.55, 1.07], [2.9, 1.3])
    yield "Phi product vs series n=2", R.rel_err(series, ref), 1e-8

    # criterion 04: F -> 1 at the identity, along a ray, through the origin
    for km in (0, 1):
        val = R.F(1.0, km, 0.5, [4.15, 2.55, 1.07], [1e-5, 7e-6, 3.5e-6])
        yield f"F(eps ray) = 1 n=3 k_m={km}", abs(val - 1.0), 1e-8

    # criterion 08: F(lambda/eps; eps t) -> BesselBC(lambda; t)
    for km in (0, 1):
        eps = 1e-3
        lam, t = [2.55, 1.07], [1.0, 0.4]
        scaled = R.F(1.0, km, 0.5, [x / eps for x in lam], [x * eps for x in t])
        bessel = R.BesselBC(1.0, km, 0.5, lam, t)
        yield f"Bessel limit eps=1e-3 k_m={km}", R.rel_err(scaled, bessel), 1e-4

    # FTheta and BesselBC at an ordinary point agree with the program
    for name, target in (("FTheta", "FTheta"), ("BesselBC", "BesselBC")):
        for km in (0, 1):
            k = hyperbc.MultiplicityBC(k_s=1.0, k_m=km, k_l=0.5, n=3)
            lam, t = [4.15 + 0.3j, 2.55, 1.07], [1.5, 0.9, 0.4]
            req = hyperbc.EvalRequest(k=k, lam=np.array(lam), t=np.array(t), target=target)
            got = hyperbc.evaluate(req).value
            ref = R.value(target, 1.0, km, 0.5, lam, t)
            yield f"{name} vs program n=3 k_m={km}", R.rel_err(got, ref), 1e-10

    # adaptive precision: continuous across a wall (t_1 - t_2 -> 0)
    lam = [4.15, 2.55, 1.07]
    near = [R.F(1.0, 1, 0.5, lam, [1.3, 1.3 - g, 0.5]) for g in (1e-9, 1e-12)]
    yield "F continuous at a wall (gap 1e-9 vs 1e-12)", R.rel_err(near[0], near[1]), 1e-8


def main():
    bad = 0
    for name, err, tol in checks():
        ok = err <= tol
        bad += not ok
        print(f"{'PASS' if ok else 'FAIL'}  {name:48s} {err:10.2e}  (tol {tol:.0e})")
    print(f"{bad} failed")
    return 1 if bad else 0
