"""How each workload drives hyperbc, and how its outputs are checked.

run_* functions are the timed part of one operation: they call the
package through its public entry points and return what it produced.
check_* functions run afterwards, untimed, and compare every value of the
operations they are given with the mpmath reference.  An operation fails
when it raises, when the CLI exits nonzero, or when a value misses the
reference by more than REL_TOL.
"""

import csv
import io
import itertools
import json
import math
from dataclasses import dataclass, field

import numpy as np

import workloads

#: the acceptance gate's oracle tolerance
REL_TOL = 1e-8
#: the verify suite's tolerances for the series oracle and the eigen-residual
ORACLE_TAIL_TOL = 1e-9
EIGEN_TOL = 1e-5
#: whole cycles of a points (or frontier) run that are checked.  The
#: reference of one evaluation costs about six times the evaluation, so
#: checking all of a run's ~400 cycles would take over a minute; the checked
#: cycles are spread evenly over the run, and only their values count as
#: delivered (run.py).  Grid and verify runs are checked whole.
POINTS_CHECKED_CYCLES = 60


@dataclass
class Outcome:
    """What one operation produced: values it claims (before checking),
    the exception it raised, and anything the checker needs."""

    values: int = 0
    error: str = ""
    data: object = None
    bad: list = field(default_factory=list)

    @property
    def failed(self):
        return bool(self.error or self.bad)


def _hb():
    import hyperbc
    import hyperbc.cli
    return hyperbc


def _k(hb, op):
    return hb.MultiplicityBC(k_s=op.ks, k_m=op.km, k_l=op.kl, n=op.n)


# ----------------------------------------------------------------- points


def run_point(op, out):
    hb = _hb()
    req = hb.EvalRequest(k=_k(hb, op), lam=np.array(op.lam, dtype=complex),
                         t=np.array(op.t, dtype=float), target=op.target)
    out.data = complex(hb.evaluate(req).value)
    out.values = 1


def check_points(ops, outs):
    """Compare every evaluation with the reference."""
    import reference
    checked = 0
    for op, out in zip(ops, outs):
        if out.error:
            continue
        ref = reference.value(op.target, op.ks, op.km, op.kl, op.lam, op.t)
        err = reference.rel_err(out.data, ref)
        checked += 1
        if not err <= REL_TOL:
            out.bad.append(f"{op.cls} lam={op.lam} t={op.t}: rel err {err:.2e}")
    return checked


# ------------------------------------------------------------------- grid


class GridRunner:
    """Calls hyperbc.cli.main in-process, writing to an output file in the
    benchmark's work directory (.perfbench/)."""

    def __init__(self, scratch):
        self.path = str(scratch / "grid.out")

    def __call__(self, op, out):
        code = _hb().cli.main(op.argv(self.path))
        if code != 0:
            out.error = f"exit code {code}"
            return
        out.values = op.rows


def _grid_rows(op, text):
    """(t, value) per row of a grid output file."""
    n = op.n
    if op.fmt == "json":
        return [(tuple(r["request"]["t"]), complex(*r["value"]))
                for r in json.loads(text)]
    rows = list(csv.reader(io.StringIO(text)))[1:]
    return [(tuple(float(x) for x in r[:n]),
             complex(float(r[3 * n]), float(r[3 * n + 1]))) for r in rows]


def digest_grid(op, out, path):
    """Untimed, right after the call: parse the output file, check the row
    count and the row-major order of the (canonicalized) points, and keep
    the rows for the reference check."""
    with open(path) as fh:
        rows = _grid_rows(op, fh.read())
    if len(rows) != op.rows:
        out.bad.append(f"{op.cls}: {len(rows)} rows, expected {op.rows}")
        return
    axes = [np.linspace(a, b, c) for a, b, c in op.axes]
    for (t, _), raw in zip(rows, itertools.product(*axes)):
        if not np.allclose(t, np.sort(np.abs(raw))[::-1], rtol=1e-15, atol=0):
            out.bad.append(f"{op.cls}: row t={t} is not grid point {raw}")
            return
    # as arrays: a run keeps every row until the check, and peak_rss_mb,
    # read before it, should not grow with the number of calls
    out.data = (np.array([t for t, _ in rows]), np.array([v for _, v in rows]))


def check_grids(ops, outs):
    """Compare every row of every call with the reference, whose rank-one
    entries are memoised, so a row costs one small reduction."""
    import reference
    checked = 0
    for op, out in zip(ops, outs):
        for t, val in zip(*out.data) if out.data else ():
            ref = reference.value(op.target, op.ks, op.km, op.kl, op.lam, t)
            err = reference.rel_err(val, ref)
            checked += 1
            if not err <= REL_TOL:
                out.bad.append(f"{op.cls} t={t}: rel err {err:.2e}")
    return checked


# ----------------------------------------------------------------- verify


def run_check(op, out):
    """One oracle cross-check: Weyl-sum series tables for (k, lambda), the
    c-weighted series sum at each deep point against F there, and one
    eigen-residual of L(k) on F at a moderate point."""
    hb = _hb()
    k = _k(hb, op)
    lam = np.array(op.lam, dtype=complex)

    def f(t):
        req = hb.EvalRequest(k=k, lam=lam, t=np.asarray(t, dtype=float), target="F")
        return complex(hb.evaluate(req).value)

    tables = hb.verify.weyl_sum_tables(k, lam, op.order)
    pairs = []
    for t in op.deep:
        total, tail = 0.0 + 0.0j, 0.0
        for c_w, table in tables:
            sv = hb.series_eval(table, np.array(t), tail_tol=math.inf)
            total += c_w * sv.value
            tail += abs(c_w) * sv.tail_bound
        if tail > ORACLE_TAIL_TOL * abs(total):
            out.error = f"oracle tail {tail:.2e} at t={t}"
            return
        pairs.append((f(t), total))
    cfg = hb.StencilConfig(h=1e-3, richardson=True, scheme=2)
    lhs = hb.apply_L(k, f, np.array(op.moderate), cfg)
    rho2 = hb.rho(k) ** 2
    eig = complex(np.sum(lam**2 - rho2))
    scale = float(np.sum(np.abs(lam) ** 2 + np.abs(rho2)))
    out.data = (pairs, lhs, f(op.moderate), eig, scale)
    out.values = sum(1 for fv, ov in pairs if abs(fv - ov) <= REL_TOL * abs(ov))


def check_checks(ops, outs):
    """Every comparison: F and the oracle each against the reference, and
    the eigen-residual against the reference value at the moderate point.
    The residual |L F - eig F| is measured against the operator's scale
    sum |lambda_j|^2 + |rho_j|^2 times |F|, not against |eig F|: the
    eigenvalue sum(lambda_j^2 - rho_j^2) can all but vanish for a drawn
    lambda (0.001 against a scale of 108 was seen), and a residual
    relative to it then measures that cancellation, not L or F."""
    import reference
    checked = 0
    for op, out in zip(ops, outs):
        if out.error:
            continue
        pairs, lhs, f0, eig, scale = out.data
        if out.values != len(pairs):
            out.bad.append(f"{op.cls}: F and oracle disagree beyond {REL_TOL}")
        for t, (fv, ov) in zip(op.deep, pairs):
            ref = reference.value("F", op.ks, op.km, op.kl, op.lam, t)
            checked += 1
            for what, v in (("F", fv), ("oracle", ov)):
                err = reference.rel_err(v, ref)
                if not err <= REL_TOL:
                    out.bad.append(f"{op.cls} {what} at t={t}: rel err {err:.2e}")
        ref0 = reference.value("F", op.ks, op.km, op.kl, op.lam, op.moderate)
        checked += 1
        res = abs(lhs - eig * ref0) / max(scale * abs(ref0), 1e-300)
        if not (reference.rel_err(f0, ref0) <= REL_TOL and res <= EIGEN_TOL):
            out.bad.append(f"{op.cls} eigen-residual {res:.2e} at t={op.moderate}")
    return checked


# ------------------------------------------------------------------ table


@dataclass(frozen=True)
class Workload:
    stream: object  # seed -> iterator of cycles (lists of operations)
    check: object  # (ops, outcomes) -> number of reference comparisons
    value_unit: str
    checked_cycles: object = None  # cycles of a run to check; None: all


WORKLOADS = {
    "points": Workload(workloads.points, check_points, "evaluation",
                       POINTS_CHECKED_CYCLES),
    "grid": Workload(workloads.grids, check_grids, "grid point"),
    "verify": Workload(workloads.checks, check_checks, "F-versus-oracle comparison"),
    "frontier": Workload(workloads.frontier, check_points, "evaluation",
                         POINTS_CHECKED_CYCLES),
}


def runner(name, scratch):
    if name == "grid":
        return GridRunner(scratch)
    return run_check if name == "verify" else run_point


def warm_up(name, seed, scratch):
    """Fill every lazy cache the workload uses and deliver its first
    result.  Caches are reached through public entry points only: one
    product-form evaluation per rank fills root_data for the genericity
    check (points), one coefficient table per (n, order) fills it for the
    oracle (verify).  Then the workload's first operation runs (on
    frontier, the first one that does not raise)."""
    hb = _hb()
    run = runner(name, scratch)
    first = next(WORKLOADS[name].stream(seed))
    if name in ("points", "frontier"):
        for op in first:
            if op.target == "PhiSeries":
                run(op, Outcome())
    elif name == "verify":
        for op in first:
            hb.compute_coeffs(_k(hb, op), op.lam, op.order)
    for op in first:
        out = Outcome()
        try:
            run(op, out)
        except Exception as exc:  # frontier inputs raise; take the next one
            out.error = f"{type(exc).__name__}: {exc}"
        if out.values and not out.error:
            break
    return out
