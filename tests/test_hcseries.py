"""Truncated exponential series: coefficient recursion, lattice
bookkeeping, tail control, and agreement with the independent rank-one
evaluation through the Gauss function."""

import itertools
import warnings

import numpy as np
import pytest

from hyperbc import _kernels
from hyperbc.errors import ChamberError, SmallDenominator, TailTooLarge
from hyperbc.hcseries import (
    _lattice_points,
    _positive_roots,
    compute_coeffs,
    root_data,
    series_eval,
)
from hyperbc.jacobi import jacobi_phi_asymptotic
from hyperbc.rootsystem import MultiplicityBC, apply_weyl, c_normalized, rho, weyl_elements
from hyperbc.verify import weyl_sum_tables


def rel(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


class TestLattice:
    def test_membership(self):
        # the lattice points are the integer vectors whose partial sums, the
        # simple-root coefficients, are non-negative, up to height 4
        index = root_data(2, 4).index
        assert (1, 0) in index and (1, -1) in index  # e_1, e_1 - e_2
        assert (0, 1) in index  # e_2 = 0 (e_1 - e_2) + 1 e_2
        for v in itertools.product(range(-5, 6), repeat=2):
            c = np.cumsum(v)
            assert (v in index) == (c.min() >= 0 and c.sum() <= 4)

    def test_counts(self):
        vecs, heights = _lattice_points(2, 4)
        # simple-root coefficient tuples with c_1 + c_2 <= 4
        assert len(vecs) == 15
        assert heights[0] == 0 and heights[-1] == 4

    def test_sorted_by_height(self):
        _, heights = _lattice_points(3, 5)
        assert np.all(np.diff(heights) >= 0)

    @pytest.mark.parametrize("n, order", [(1, 12), (2, 12), (3, 8), (4, 5)])
    def test_root_data_matches_loop(self, n, order):
        # the edge tables, point by point, root by root and j = 1, 2, ...
        # while mu - j alpha is a lattice point
        vecs, _ = _lattice_points(n, order)
        index = {tuple(map(int, v)): i for i, v in enumerate(vecs)}
        starts, roots_of, srcs_of = [0], [], []
        for v in vecs:
            for r, alpha in enumerate(_positive_roots(n)[0]):
                j = 1
                while (src := index.get(tuple(map(int, v - j * alpha)))) is not None:
                    roots_of.append(r)
                    srcs_of.append(src)
                    j += 1
            starts.append(len(roots_of))
        d = root_data(n, order)
        assert d.index == index
        for got, ref in ((d.starts, starts), (d.roots_of, roots_of), (d.srcs_of, srcs_of)):
            assert np.array_equal(got, ref)

    def test_root_data_tables_consistent(self):
        data = root_data(2, 6)
        assert data.starts[-1] == len(data.roots_of) == len(data.srcs_of)
        assert len(data.root_vecs) == 2 * 2 + 2  # short, long, two middle


def _hc_coeffs_loop(d, kw, lam, rho):
    """Point-by-point reference for the shell-by-shell kernel.  It finds
    every source mu - j alpha in d.index itself, so comparing it with the
    kernel also checks the edge tables of root_data."""
    out = np.zeros(len(d.mu_vecs), dtype=complex)
    out[0] = 1.0
    for p in range(1, len(d.mu_vecs)):
        mu = d.mu_vecs[p]
        acc = 0.0
        for r, alpha in enumerate(d.root_vecs):
            j = 1
            while (src := d.index.get(tuple(map(int, mu - j * alpha)))) is not None:
                ip = alpha @ (lam - rho - mu + j * alpha)
                acc += kw[r] * ip * out[src]
                j += 1
        out[p] = -2.0 * acc / (mu @ mu - 2.0 * (lam @ mu))
    return out


class TestCoefficients:
    @pytest.mark.parametrize("n, order", [(1, 30), (2, 20), (3, 12)])
    def test_kernel_matches_point_loop(self, n, order):
        # one stack of lambda and its sign images; the shells sum their
        # edges in another order than the loop, so agreement is to
        # rounding relative to the largest coefficient of each row
        d = root_data(n, order)
        rng = np.random.default_rng(n)
        kw = rng.uniform(0.3, 1.5, len(d.root_vecs)) + 0.2j
        lam = np.array([4.15 + 0.3j, 2.55, 1.07][:n]) / 2.0
        lams = np.array([lam * s for s in itertools.product((1, -1), repeat=n)])
        rho = rng.uniform(0.5, 3.0, n)
        args = (d.mu_vecs, d.starts, d.roots_of, d.srcs_of, d.root_vecs)
        got = _kernels.hc_coeffs(*args, kw, lams, rho)
        assert got.shape == (2**n, len(d.mu_vecs))
        for row, lam_w in zip(got, lams):
            ref = _hc_coeffs_loop(d, kw, lam_w, rho)
            assert np.max(np.abs(row - ref)) <= 1e-13 * np.max(np.abs(ref))

    def test_one_nongeneric_row_rejects_the_stack(self):
        # (3, 1) is the resonance of test_degenerate_lambda_rejected; the
        # rows around it pass the check on their own
        k = MultiplicityBC(1.0, 1, 0.5, 2)
        compute_coeffs(k, [[2.55, 1.07], [-2.55, 1.07]], order=6)
        with pytest.raises(SmallDenominator):
            compute_coeffs(k, [[2.55, 1.07], [3.0, 1.0], [-2.55, 1.07]], order=6)

    def test_leading_coefficient(self):
        k = MultiplicityBC(1.0, 1, 0.5, 2)
        table = compute_coeffs(k, [2.55, 1.07], order=6)
        assert table.coeff([0, 0]) == 1.0 + 0.0j

    def test_rank_one_matches_gauss_evaluation(self):
        # the series must reproduce the independently computed rank-one
        # solution with e^((lambda - rho) t) normalization
        k = MultiplicityBC(1.0, 1, 0.5, 1)
        lam = 2.3
        table = compute_coeffs(k, [lam], order=30)
        for t in (2.0, 2.5, 3.0):
            got = series_eval(table, [t], tail_tol=1e-8).value
            ref = jacobi_phi_asymptotic(k.jacobi, lam, t)
            assert rel(got, ref) < 1e-10

    def test_generic_multiplicity_accepted(self):
        # the recursion itself is not restricted to integer middle values
        class K:
            k_s, k_m, k_l, n = 1.0, 0.37, 0.5, 2

        table = compute_coeffs(K(), [2.55, 1.07], order=4)
        assert np.isfinite(table.coeffs).all()

    def test_degenerate_lambda_rejected(self):
        # lambda = (3, 1) hits a resonance: the quadratic denominator
        # vanishes on the lattice point e_1 + e_2 doubled
        k = MultiplicityBC(1.0, 1, 0.5, 2)
        with pytest.raises(SmallDenominator):
            compute_coeffs(k, [3.0, 1.0], order=6)

    def test_exact_resonance_rejected_before_dividing(self):
        # the margin is checked before the recursion runs, so the zero
        # denominator is never divided by
        k = MultiplicityBC(1.0, 1, 0.5, 2)
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            with pytest.raises(SmallDenominator):
                compute_coeffs(k, [3.0, 1.0], order=20)

    @pytest.mark.parametrize("km", [0, 1])
    def test_height_one_closed_form(self, km):
        # mu = alpha simple has the single source 0 (j = 1), so
        # Gamma_alpha = -2 k_alpha (alpha, lambda - rho) / ((alpha, alpha) - 2 (lambda, alpha))
        # in Euclidean coordinates
        k = MultiplicityBC(1.3, km, 0.7, 3)
        lam = np.array([4.15 + 0.2j, 2.55, 1.07])
        table = compute_coeffs(k, lam, order=20)
        lam_e, rho_e = lam / 2.0, rho(k) / 2.0
        simple = [(np.array([1.0, -1.0, 0.0]), k.k_m),
                  (np.array([0.0, 1.0, -1.0]), k.k_m),
                  (np.array([0.0, 0.0, 1.0]), k.k_s)]
        for i, (alpha, k_alpha) in enumerate(simple):
            expected = -2.0 * k_alpha * (alpha @ (lam_e - rho_e)) / (
                alpha @ alpha - 2.0 * (alpha @ lam_e))
            got = table.coeff(np.eye(3, dtype=int)[i])
            assert abs(got - expected) <= 1e-14 * max(1.0, abs(expected))


class TestWeylSumTables:
    @pytest.mark.parametrize("n, order, km", [(2, 20, 1), (2, 20, 0), (3, 12, 1), (3, 12, 0)])
    def test_matches_per_image_loop(self, n, order, km):
        # image by image, in the order of weyl_elements: the table of a
        # pass against the single-lambda table, and the c-value of the
        # stacked call against the single-lambda one
        k = MultiplicityBC(1.3, km, 0.7, n)
        lam = np.array([4.15 + 0.2j, 2.55, 1.07][-n:])
        tables = weyl_sum_tables(k, lam, order)
        images = [apply_weyl(w, lam) for w in weyl_elements(n)]
        assert len(tables) == len(images)
        for (c_w, table), lam_w in zip(tables, images):
            one = compute_coeffs(k, lam_w, order).coeffs
            assert np.array_equal(table.lam, lam_w)
            assert np.max(np.abs(table.coeffs - one)) <= 1e-13 * np.max(np.abs(one))
            c_one = c_normalized(k, lam_w)
            assert abs(c_w - c_one) <= 1e-15 * abs(c_one)


class TestSeriesEval:
    def test_chamber_required(self):
        k = MultiplicityBC(1.0, 1, 0.5, 2)
        table = compute_coeffs(k, [2.55, 1.07], order=6)
        with pytest.raises(ChamberError):
            series_eval(table, [0.4, 1.0])

    @pytest.mark.parametrize("t", [[1.0, 1.0], [1.0, 0.0], [1.0, -0.2],
                                   [np.nan, 0.4], [1.0, np.nan]])
    def test_chamber_walls_and_nan_refused(self, t):
        # the walls, the outside and a NaN coordinate, on a row of a stack
        k = MultiplicityBC(1.0, 1, 0.5, 2)
        row = compute_coeffs(k, [[2.55, 1.07], [1.07, -2.55]], order=6).rows()[1]
        with pytest.raises(ChamberError):
            series_eval(row, t)

    def test_tail_rejected_when_shallow(self):
        k = MultiplicityBC(1.0, 1, 0.5, 2)
        table = compute_coeffs(k, [2.55, 1.07], order=6)
        with pytest.raises(TailTooLarge):
            series_eval(table, [0.9, 0.4], tail_tol=1e-10)

    def test_tail_bound_honest(self):
        # the reported bound must dominate the actual truncation error
        k = MultiplicityBC(1.0, 1, 0.5, 2)
        lam = [2.55, 1.07]
        lo = compute_coeffs(k, lam, order=10)
        hi = compute_coeffs(k, lam, order=22)
        t = [2.7, 1.2]
        sv = series_eval(lo, t, tail_tol=1e-2)
        ref = series_eval(hi, t, tail_tol=1e-10).value
        assert abs(sv.value - ref) <= 2.0 * sv.tail_bound

    def test_tail_is_the_last_shell(self):
        # the tail bound sums exactly the terms of height == order
        k = MultiplicityBC(1.0, 1, 0.5, 2)
        table = compute_coeffs(k, [2.55, 1.07], order=10)
        d, t = table.data, np.array([2.7, 1.2])
        assert np.all(d.mu_vecs[d.last:].cumsum(axis=1).sum(axis=1) == 10)
        assert np.all(d.mu_vecs[:d.last].cumsum(axis=1).sum(axis=1) < 10)
        lead = abs(np.exp((table.lam - table.rho) @ t))
        shell = np.sum(np.abs(table.coeffs * np.exp(-d.mu_vecs @ (2.0 * t)))[d.last:])
        g = 2.0 * min(t[0] - t[1], t[1])
        expected = shell * lead * np.exp(-g) / (1.0 - np.exp(-g))
        assert rel(series_eval(table, t, tail_tol=1e-2).tail_bound, expected) < 1e-12

    def test_leading_exponential(self):
        k = MultiplicityBC(1.0, 1, 0.5, 2)
        lam = np.array([2.55, 1.07])
        table = compute_coeffs(k, lam, order=12)
        t = np.array([10.0, 4.5])
        got = series_eval(table, t, tail_tol=1e-8).value
        lead = np.exp(np.sum((lam - rho(k).real) * t))
        assert rel(got, lead) < 5e-3
