"""Closed-form evaluators: determinant/permanent forms, product form,
partial Weyl-sum spherical function, rational limit, and the divided
differences that take coinciding spectral parameters, walls and the origin.

Frozen references computed with an arbitrary-precision oracle using the
same closed formulas (independent implementation, 40+ digits); confluent
references via the oracle at a split of 1e-18.  The property tests draw
against the mpmath reference of tests/reference.py."""

import itertools
import math

import numpy as np
import pytest
import reference
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hyperbc import _kernels
from hyperbc.errors import (
    ChamberError,
    DegenerateLambda,
    DomainError,
    HalfPlaneError,
    ParameterError,
)
from hyperbc.hyper import (
    EvalRequest,
    bessel_bcn,
    evaluate,
    f_determinant,
    f_permanent,
    f_theta,
    phi_product,
)
from hyperbc.jacobi import jacobi_phi
from hyperbc.rootsystem import MultiplicityBC, apply_weyl, weyl_elements

K1 = MultiplicityBC(k_s=1.0, k_m=1, k_l=0.5, n=2)
K0 = MultiplicityBC(k_s=1.0, k_m=0, k_l=0.5, n=2)
K1_3 = MultiplicityBC(k_s=1.0, k_m=1, k_l=0.5, n=3)

LAM2 = np.array([2.55, 1.07])
T2 = np.array([1.0, 0.4])

F2_REF = 0.5783136644834236
F2_31_REF = 0.6444087364136890  # lambda = (3, 1)
F3_REF = 0.17024906026525241  # lambda = (4.15, 2.55, 1.07), t = (1.5, 0.9, 0.4)
F2_SMALL_REF = 0.9930319499512551  # t = (0.1, 0.06)
F3_SMALL_REF = 0.9896070008805628  # t = (0.1, 0.07, 0.035)
FPERM2_REF = 0.9932591963032883
PHIPROD_REF = -0.0027191113401309988  # t = (2.7, 1.2)
FTHETA2_REF = -5.058910091302564
BESS2_KM1_REF = 1.4341583026391662
BESS2_KM0_REF = 1.7096936114126717
F2_CONFLUENT_REF = 0.5869896167882035  # lambda = (2, 2)
BESS_CONFLUENT_REF = 1.4556642311438184  # lambda = (2, 2)


def rel(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def _permutation_sum(a):
    n = len(a)
    return sum(math.prod(a[i, p[i]] for i in range(n)) for p in itertools.permutations(range(n)))


class TestDeterminant:
    def test_rank_two_reference(self):
        assert rel(f_determinant(K1, LAM2, T2).value, F2_REF) < 1e-12

    def test_integer_lambda_reference(self):
        assert rel(f_determinant(K1, [3.0, 1.0], T2).value, F2_31_REF) < 1e-12

    def test_rank_three_reference(self):
        got = f_determinant(K1_3, [4.15, 2.55, 1.07], [1.5, 0.9, 0.4]).value
        assert rel(got, F3_REF) < 1e-12

    def test_small_t_path_matches_reference(self):
        got = f_determinant(K1, LAM2, [0.1, 0.06])
        assert rel(got.value, F2_SMALL_REF) < 1e-12
        got3 = f_determinant(K1_3, [4.15, 2.55, 1.07], [0.1, 0.07, 0.035])
        assert rel(got3.value, F3_SMALL_REF) < 1e-12

    def test_paths_agree_at_moderate_t(self):
        # the divided-difference route and the plain determinant must agree
        # where both are well-conditioned
        from hyperbc.hyper import _f_det_divided, _knots, _x_clusters

        # s_1 = sinh^2 0.8 lies above ORIGIN_S, so f_determinant takes the
        # plain route there; the reducer, with s_2 in the cluster at the
        # origin and an ODE step to s_1, must agree, for BesselBC as well
        t, lam = np.array([0.8, 0.3]), LAM2.astype(complex)
        plain = f_determinant(K1, LAM2, t).value
        direct = _f_det_divided(K1, lam, _x_clusters(lam), _knots(t, False)).value
        assert rel(direct, plain) < 1e-11
        plain = bessel_bcn(K1, LAM2, t).value
        direct = _f_det_divided(K1, lam, _x_clusters(lam), _knots(t, True), bessel=True).value
        assert rel(direct, plain) < 1e-11

    def test_cancelling_plain_point_reduced_again(self):
        # s_1 = sinh^2 0.968 is above ORIGIN_S and four knots are below it:
        # the plain det / Delta_m gave 1.3e-8 off, with an estimate of 1.6e15
        ks, kl = 1.2718164851747105, 0.8659844008597055
        lam = [4.284358107818537, 2.6697225473926434, 1.9483279916921261,
               1.542884155819548, 1.0656737829094935]
        t = [0.9678809863544485, 0.59650124003417, 0.26931501764841775,
             0.21580980205489153, 0.1293119448409498]
        got = f_determinant(MultiplicityBC(k_s=ks, k_m=1, k_l=kl, n=5), lam, t)
        assert rel(got.value, reference.value("F", ks, kl, lam, t)) < 1e-12
        assert got.condition_estimate < 1e3 and not got.degenerate_path

    def test_rank_one_reduces_to_jacobi(self):
        k = MultiplicityBC(1.0, 1, 0.5, 1)
        got = f_determinant(k, [2.3], [0.7]).value
        assert rel(got, jacobi_phi(k.jacobi, 2.3, 0.7)) < 1e-13

    def test_wrong_multiplicity_rejected(self):
        with pytest.raises(ParameterError):
            f_determinant(K0, LAM2, T2)

    def test_chamber_required(self):
        with pytest.raises(ChamberError):
            f_determinant(K1, LAM2, [0.4, 1.0])

    def test_coinciding_lambda_value(self):
        # lambda_1^2 = lambda_2^2: rows of divided differences in lambda^2
        res = f_determinant(K1, [2.0, 2.0], T2)
        assert res.degenerate_path
        assert rel(res.value, F2_CONFLUENT_REF) < 1e-12

    def test_divided_path_independent_of_layout(self):
        # the CLI passes a reversed view of a sorted point; a contiguous
        # copy of it must give the same bits on the divided-difference path
        rng = np.random.default_rng(11)
        lam = np.array([4.15, 2.55, 1.07])
        for _ in range(200):
            t = np.sort(rng.uniform(0.02, 0.6, 3))[::-1]
            contiguous = f_determinant(K1_3, lam, np.ascontiguousarray(t)).value
            assert f_determinant(K1_3, lam, t).value == contiguous

    def test_weyl_invariance_spot(self):
        base = f_determinant(K1, LAM2, T2).value
        for w in weyl_elements(2):
            got = f_determinant(K1, apply_weyl(w, LAM2), T2).value
            assert rel(got, base) < 1e-12


class TestPermanent:
    def test_rank_two_reference(self):
        assert rel(f_permanent(K0, LAM2, T2).value, FPERM2_REF) < 1e-12

    def test_wrong_multiplicity_rejected(self):
        with pytest.raises(ParameterError):
            f_permanent(K1, LAM2, T2)

    def test_degenerate_lambda_harmless(self):
        v = f_permanent(K0, [2.0, 2.0], T2).value
        assert rel(v, jacobi_phi(K0.jacobi, 2.0, 1.0) * jacobi_phi(K0.jacobi, 2.0, 0.4)) < 1e-12

    @pytest.mark.parametrize("n", range(7))
    def test_kernel_against_permutation_sum(self, n):
        rng = np.random.default_rng(n)
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        assert rel(_kernels.permanent(a), _permutation_sum(a)) < 1e-13

    def test_kernel_scales_apart(self):
        """Columns 10^6 apart in scale, where Ryser's alternating sum of
        row sums was 3.8e-3 off, and the transpose, whose rows are 10^6
        apart."""
        a = np.random.default_rng(5).uniform(0.5, 1.5, (5, 5)) * np.logspace(0, 6, 5)
        ref = _permutation_sum(a)
        assert rel(_kernels.permanent(a), ref) < 1e-14
        assert rel(_kernels.permanent(a.T), ref) < 1e-14


class TestProductForm:
    def test_reference(self):
        assert rel(phi_product(K1, LAM2, [2.7, 1.2]), PHIPROD_REF) < 1e-12

    def test_chamber_required(self):
        with pytest.raises(ChamberError):
            phi_product(K1, LAM2, [1.2, 2.7])

    def test_resonant_lambda_rejected(self):
        with pytest.raises(DegenerateLambda):
            phi_product(K1, [3.0, 1.0], [2.7, 1.2])


class TestPartialSphericalFunction:
    def test_reference(self):
        assert rel(f_theta(K1, LAM2, T2).value, FTHETA2_REF) < 1e-12

    def test_half_plane_required(self):
        with pytest.raises(HalfPlaneError):
            f_theta(K1, [2.55, -1.07], T2)

    @pytest.mark.parametrize("lam", [[2.0, 2.0], [2.5, 2.5]])
    def test_coinciding_lambda_rejected(self, lam):
        with pytest.raises(DegenerateLambda):
            f_theta(K1, lam, T2)

    @pytest.mark.parametrize("split, refused", [(1e-6, True), (1e-3, False)])
    def test_near_coinciding_lambda(self, split, refused):
        # det / pi(lambda) loses about eps / |lambda_1^2 - lambda_2^2|; below
        # the cluster gap 1e-4 of lambda^2 (a split of about 1.2e-4 here) it
        # is refused, not returned with an error near 1e-8
        lam = [2.5 + split, 2.5]
        if refused:
            with pytest.raises(DegenerateLambda):
                f_theta(K1, lam, T2)
        else:
            assert np.isfinite(f_theta(K1, lam, T2).value)

    def test_permutation_invariance(self):
        a = f_theta(K0, LAM2, T2).value
        b = f_theta(K0, LAM2[::-1].copy(), T2).value
        assert rel(a, b) < 1e-12


class TestBessel:
    def test_references(self):
        assert rel(bessel_bcn(K1, LAM2, T2).value, BESS2_KM1_REF) < 1e-12
        assert rel(bessel_bcn(K0, LAM2, T2).value, BESS2_KM0_REF) < 1e-12

    def test_zero_rejected(self):
        with pytest.raises(DomainError):
            bessel_bcn(K1, [2.55, 0.0], T2)

    @pytest.mark.parametrize("lam", [[2.55, 1.07], [2.0, 2.0]])
    @pytest.mark.parametrize("t", [[0.4, 1.0], [1.0, 2.0], [0.5, -1.0], [-0.3, 0.5]])
    def test_any_order_and_sign_of_t(self, lam, t):
        # BesselBC has no chamber: it is even in each t_j and symmetric in
        # their order, on the plain and the divided-difference path alike
        got = bessel_bcn(K1, lam, t).value
        assert rel(got, bessel_bcn(K1, lam, sorted(np.abs(t), reverse=True)).value) < 1e-13

    def test_scaling_symmetry(self):
        # the rational limit depends on lambda and t through the products
        # lambda_i t_j only, up to the explicit homogeneous prefactors
        a = bessel_bcn(K1, LAM2, T2).value
        b = bessel_bcn(K1, 2.0 * LAM2, T2 / 2.0).value
        assert rel(a, b) < 1e-12


class TestEvaluate:
    def test_dispatch_permanent(self):
        req = EvalRequest(k=K0, lam=LAM2, t=T2, target="F")
        assert rel(evaluate(req).value, FPERM2_REF) < 1e-12

    def test_confluent_determinant(self):
        req = EvalRequest(k=K1, lam=np.array([2.0, 2.0]), t=T2, target="F")
        res = evaluate(req)
        assert res.degenerate_path
        assert rel(res.value, F2_CONFLUENT_REF) < 1e-12

    def test_confluent_bessel(self):
        req = EvalRequest(k=K1, lam=np.array([2.0, 2.0]), t=T2, target="BesselBC")
        res = evaluate(req)
        assert res.degenerate_path
        assert rel(res.value, BESS_CONFLUENT_REF) < 1e-12

    @pytest.mark.parametrize("lam", [[2.0, 1.0], [2.0, 2.0]])
    def test_bessel_complex_alpha_rejected(self, lam):
        # the divided-difference path (lambda = (2, 2)) checks alpha as the
        # plain determinant does
        k = MultiplicityBC(k_s=1.0 + 0.5j, k_m=1, k_l=0.5, n=2)
        req = EvalRequest(k=k, lam=np.array(lam), t=T2, target="BesselBC")
        with pytest.raises(ParameterError, match="real alpha"):
            evaluate(req)

    @pytest.mark.parametrize("target", ["F", "BesselBC"])
    def test_triple_confluence_value(self, target):
        lam, t = [2.0, 2.0, 2.0], [1.5, 0.9, 0.4]
        res = evaluate(EvalRequest(k=K1_3, lam=np.array(lam), t=np.array(t), target=target))
        assert res.degenerate_path
        assert rel(res.value, reference.value(target, 1.0, 0.5, lam, t)) < 1e-12

    def test_unknown_target_rejected(self):
        with pytest.raises(ParameterError):
            EvalRequest(k=K1, lam=LAM2, t=T2, target="nope")

    def test_condition_estimate_positive(self):
        req = EvalRequest(k=K1, lam=LAM2, t=T2, target="F")
        assert evaluate(req).condition_estimate >= 1.0


class TestStacks:
    """An (N, n) stack of points gives, point by point, what each point
    gives alone."""

    STACK = np.array([[1.0, 0.4], [1.3, 0.4], [1.3, 0.9], [0.5, 0.2]])

    def test_table_index_matches_numpy_unique(self):
        from hyperbc.hyper import _table

        x = np.round(np.random.default_rng(0).uniform(0.0, 1.0, (200, 3)) * 20) / 20
        table, inv = _table(lambda li, u: li * u, [1.0, -2.0], x)
        u, ref_inv = np.unique(x, return_inverse=True)
        assert np.array_equal(inv, ref_inv.reshape(x.shape))
        assert np.array_equal(table, np.array([u, -2.0 * u]))

    @pytest.mark.parametrize("target,km,lam", [
        ("F", 1, [2.55, 1.07]),
        ("F", 0, [2.55 + 0.3j, 1.07]),
        ("F", 1, [2.0, 2.0]),
        ("BesselBC", 1, [2.55, 1.07]),
        ("BesselBC", 0, [2.55, 1.07]),
        ("FTheta", 1, [2.55, 1.07]),
        ("PhiSeries", 0, [2.55, 1.07]),
    ])
    def test_stack_equals_single_points(self, target, km, lam):
        k = MultiplicityBC(k_s=1.0, k_m=km, k_l=0.5, n=2)
        lam = np.array(lam, dtype=complex)
        got = evaluate(EvalRequest(k=k, lam=lam, t=self.STACK, target=target))
        assert isinstance(got, list) and len(got) == len(self.STACK)
        for t, res in zip(self.STACK, got):
            one = evaluate(EvalRequest(k=k, lam=lam, t=t.copy(), target=target))
            assert res == one

    def test_stack_names_first_point_outside_chamber(self):
        with pytest.raises(ChamberError, match=r"\[0\.4 1\. \]"):
            f_determinant(K1, LAM2, np.array([[1.0, 0.4], [0.4, 1.0], [0.3, 0.3]]))


class TestShapes:
    """Every evaluator, and so evaluate, refuses lambda not shaped (n,) or
    t not shaped (n,) or (N, n) with ParameterError."""

    # (lambda, t) at n = 2: lambda too short, one point too narrow, a stack
    # too wide
    MISMATCHED = [([2.55], [1.0, 0.4]), ([2.55, 1.07], [1.0]),
                  ([2.55, 1.07], [[1.3, 0.9, 0.4]])]

    @pytest.mark.parametrize("lam,t", MISMATCHED)
    @pytest.mark.parametrize("km", [0, 1])
    @pytest.mark.parametrize("target", ["F", "PhiSeries", "FTheta", "BesselBC"])
    def test_evaluate_refuses(self, target, km, lam, t):
        k = MultiplicityBC(k_s=1.0, k_m=km, k_l=0.5, n=2)
        req = EvalRequest(k=k, lam=np.array(lam), t=np.array(t), target=target)
        with pytest.raises(ParameterError, match=r"do not match n = 2"):
            evaluate(req)

    def test_scalar_t_refused(self):
        k = MultiplicityBC(k_s=1.0, k_m=1, k_l=0.5, n=1)
        req = EvalRequest(k=k, lam=np.array([2.3]), t=np.array(0.7), target="F")
        with pytest.raises(ParameterError, match=r"t of shape \(\) do not match n = 1"):
            evaluate(req)

    @pytest.mark.parametrize("fn,k", [(f_determinant, K1), (f_permanent, K0),
                                      (f_theta, K1), (bessel_bcn, K1), (phi_product, K1)])
    @pytest.mark.parametrize("lam,t", [([2.55], [1.0, 0.4]), ([2.55, 1.07], [[1.3, 0.9, 0.4]])])
    def test_evaluators_refuse(self, fn, k, lam, t):
        with pytest.raises(ParameterError, match=r"lambda of shape \(\d,\) and t of shape"):
            fn(k, lam, t)


@st.composite
def _clustered(draw, kind):
    """(target, k_s, k_l, lambda, t) at k_m = 1, n <= 4, with lambda_i^2
    coinciding in a pair or a triple, a wall 1e-7 wide, or every t_j near
    the origin; BesselBC's t unordered and signed."""
    n = draw(st.integers(3 if kind == "triple" else 2, 4))
    target = draw(st.sampled_from(["F", "BesselBC"]))
    ks, kl = draw(st.floats(0.6, 1.4)), draw(st.floats(0.3, 1.0))
    re = draw(st.lists(st.floats(0.5, 6.0), min_size=n, max_size=n))
    im = draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n)) \
        if draw(st.booleans()) else [0.0] * n
    lam = [complex(a, b) for a, b in zip(re, im)]
    top = 0.6 if kind == "origin" else 2.5
    t = sorted(draw(st.lists(st.floats(0.001, top), min_size=n, max_size=n)), reverse=True)
    i = draw(st.integers(0, n - 2))
    if kind == "pair":
        lam[i + 1] = draw(st.sampled_from([1, -1])) * lam[draw(st.integers(0, i))]
    elif kind == "triple":
        lam[i + 1] = lam[i] = lam[draw(st.integers(0, n - 1))]
    elif kind == "wall":
        t[i + 1] = t[i] - 1e-7
    assume(all(a > b for a, b in zip(t, t[1:])) and t[-1] > 0.0)
    if target == "BesselBC":
        # no chamber there: t in any order, with any signs
        t = [draw(st.sampled_from([1, -1])) * v for v in draw(st.permutations(t))]
    return target, ks, kl, lam, t


@st.composite
def _permanent_case(draw, region):
    """(k_s, k_l, lambda, t) for F at k_m = 0, n <= 5, lambda real or
    complex; t_1 up to 2.5, or in [2.5, 3.3], where the entries of a row
    of phi_{lambda_i}(t_j) are orders of magnitude apart."""
    n = draw(st.integers(2, 5))
    ks, kl = draw(st.floats(0.6, 1.4)), draw(st.floats(0.3, 1.0))
    re = draw(st.lists(st.floats(0.5, 6.0), min_size=n, max_size=n))
    im = draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n)) \
        if draw(st.booleans()) else [0.0] * n
    t = draw(st.lists(st.floats(0.1, 2.5), min_size=n - 1, max_size=n - 1))
    t.append(draw(st.floats(0.1, 2.5) if region == "moderate" else st.floats(2.5, 3.3)))
    t = sorted(t, reverse=True)
    assume(all(a > b for a, b in zip(t, t[1:])))
    return ks, kl, [complex(a, b) for a, b in zip(re, im)], t


class TestAgainstReference:
    """Every clustered point, and every permanent, within 1e-13 times its
    condition estimate of the mpmath reference."""

    @pytest.mark.parametrize("kind, examples", [
        ("pair", 16), ("triple", 8), ("wall", 16), ("origin", 16),
    ])
    def test_clustered_points(self, kind, examples):
        @settings(max_examples=examples, deadline=None, derandomize=True)
        @given(_clustered(kind))
        def check(case):
            target, ks, kl, lam, t = case
            k = MultiplicityBC(k_s=ks, k_m=1, k_l=kl, n=len(lam))
            res = evaluate(EvalRequest(k=k, lam=np.array(lam), t=np.array(t), target=target))
            err = rel(res.value, reference.value(target, ks, kl, lam, t))
            assert err <= 1e-13 * res.condition_estimate

        check()

    @pytest.mark.parametrize("region", ["moderate", "large"])
    def test_permanent_points(self, region):
        @settings(max_examples=12, deadline=None, derandomize=True)
        @given(_permanent_case(region))
        def check(case):
            ks, kl, lam, t = case
            k = MultiplicityBC(k_s=ks, k_m=0, k_l=kl, n=len(lam))
            res = evaluate(EvalRequest(k=k, lam=np.array(lam), t=np.array(t), target="F"))
            err = rel(res.value, reference.permanent_value(ks, kl, lam, t))
            assert err <= 1e-13 * res.condition_estimate

        check()
