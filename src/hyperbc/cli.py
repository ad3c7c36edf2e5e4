"""Command-line front end: single-point and grid evaluation of the BC_n
hypergeometric function and its relatives, plus named verification suites
with machine-readable output.

Exit codes: 0 success (and all checks passed), 2 argument parse error,
3 precondition rejection, 4 numerical failure."""

import argparse
import itertools
import json
import re
import sys
from dataclasses import asdict

import numpy as np

from .errors import NumericalError, PreconditionError
from .hyper import EvalRequest, evaluate
from .rootsystem import MultiplicityBC, canonical_points
from .verify import SUITE_NAMES, run_suite

_CLI_TARGETS = ("F", "Phi", "FTheta", "BesselBC")
_TARGET_MAP = {"F": "F", "Phi": "PhiSeries", "FTheta": "FTheta", "BesselBC": "BesselBC"}

_COMPLEX_RE = re.compile(
    r"^\s*(?P<re>[+-]?\d+(?:\.\d*)?(?:[eE][+-]?\d+)?)"
    r"(?:\s*(?P<sign>[+-])\s*(?P<im>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?)\s*i)?\s*$"
)


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def parse_complex(text: str) -> complex:
    """Parse 're' or 're+im i' / 're-im i' (the 'i' suffix marks the
    imaginary part)."""
    m = _COMPLEX_RE.match(text)
    if m is None:
        raise argparse.ArgumentTypeError(f"cannot parse complex number {text!r}")
    re_part = float(m.group("re"))
    im_part = 0.0
    if m.group("im") is not None:
        im_part = float(m.group("im"))
        if m.group("sign") == "-":
            im_part = -im_part
    return complex(re_part, im_part)


def _parse_lambda(text: str):
    return [parse_complex(p) for p in text.split(",") if p.strip()]


def _parse_reals(text: str):
    try:
        return [float(p) for p in text.split(",") if p.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"cannot parse real list {text!r}: {exc}")


def _parse_k(text: str):
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("--k needs exactly k_s,k_m,k_l")
    try:
        ks, kl = float(parts[0]), float(parts[2])
        km = int(parts[1])
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"cannot parse --k {text!r}: {exc}")
    return ks, km, kl


def _parse_ranges(text: str):
    """Comma-separated 'start:stop:count' axis specs."""
    axes = []
    for part in text.split(","):
        bits = part.split(":")
        if len(bits) != 3:
            raise argparse.ArgumentTypeError(
                f"grid axis {part!r} is not start:stop:count"
            )
        try:
            start, stop, count = float(bits[0]), float(bits[1]), int(bits[2])
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"cannot parse axis {part!r}: {exc}")
        if count < 1:
            raise argparse.ArgumentTypeError(f"axis {part!r} needs count >= 1")
        axes.append(np.linspace(start, stop, count))
    return axes


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="hyperbc",
        description="Evaluate BC_n hypergeometric functions (middle "
        "multiplicity 0 or 1) and run verification suites.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, grid=False):
        p.add_argument("--target", choices=_CLI_TARGETS, required=True)
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--k", type=_parse_k, required=True,
                       metavar="K_S,K_M,K_L")
        p.add_argument("--lambda", dest="lam", type=_parse_lambda, required=True,
                       metavar="RE[+IM i],...")
        if grid:
            p.add_argument("--t", type=_parse_ranges, required=True,
                           metavar="START:STOP:COUNT,...")
        else:
            p.add_argument("--t", type=_parse_reals, required=True,
                           metavar="T1,...")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--output", default=None, help="output path (default stdout)")

    common(sub.add_parser("eval", help="evaluate at a single point"))
    common(sub.add_parser("grid", help="evaluate on a t grid, row-major"), grid=True)

    pv = sub.add_parser("verify", help="run a named verification suite")
    pv.add_argument("--suite", choices=SUITE_NAMES, required=True)
    pv.add_argument("--n", type=int, default=None)
    pv.add_argument("--format", choices=("csv", "json"), default="csv")
    pv.add_argument("--output", default=None)
    return ap


def _csv_header(n: int) -> str:
    cols = [f"t_{j}" for j in range(1, n + 1)]
    for j in range(1, n + 1):
        cols += [f"re(lambda_{j})", f"im(lambda_{j})"]
    cols += ["re(value)", "im(value)", "condition_estimate", "degenerate_path"]
    return ",".join(cols)


def _csv_row(t, lam, result) -> str:
    cells = [_fmt(x) for x in t]
    for z in lam:
        cells += [_fmt(z.real), _fmt(z.imag)]
    cells += [
        _fmt(result.value.real),
        _fmt(result.value.imag),
        _fmt(result.condition_estimate),
        "true" if result.degenerate_path else "false",
    ]
    return ",".join(cells)


def _json_record(args, t, lam, result) -> dict:
    return {
        "request": {
            "command": args.command,
            "target": args.target,
            "n": args.n,
            "k": {"k_s": args.k[0], "k_m": args.k[1], "k_l": args.k[2]},
            "lambda": [[z.real, z.imag] for z in lam],
            "t": [float(x) for x in t],
        },
        "value": [result.value.real, result.value.imag],
        "condition_estimate": result.condition_estimate,
        "degenerate_path": result.degenerate_path,
    }


def _emit(args, chunks) -> None:
    """Write the strings of chunks, in order, to --output or stdout."""
    if args.output:
        with open(args.output, "w") as fh:
            fh.writelines(chunks)
    else:
        sys.stdout.writelines(chunks)


def _json_list(records):
    """The chunks of json.dumps(list(records), indent=2) + "\n", one
    record at a time; records must not be empty."""
    sep = "[\n  "
    for rec in records:
        yield sep + json.dumps(rec, indent=2).replace("\n", "\n  ")
        sep = ",\n  "
    yield "\n]\n"


def _canonical_t(args, t: np.ndarray) -> np.ndarray:
    """F and BesselBC are invariant under signed permutations of t, so raw
    points (one, or a stack) are moved into the canonical chamber; Phi and
    FTheta are not."""
    if args.target in ("F", "BesselBC"):
        return canonical_points(t)
    return t


def _run_grid(args) -> int:
    """One evaluation of the whole row-major grid, eval's being the grid
    of its one point; the library checks the shapes of lambda and t
    against n.  The output is written only once every point has a value,
    so a failed grid writes nothing."""
    ks, km, kl = args.k
    k = MultiplicityBC(k_s=ks, k_m=km, k_l=kl, n=args.n)
    lam = np.array(args.lam, dtype=complex)
    axes = [[x] for x in args.t] if args.command == "eval" else args.t
    ts = _canonical_t(args, np.array(list(itertools.product(*axes)), dtype=float))
    results = evaluate(EvalRequest(k=k, lam=lam, t=ts, target=_TARGET_MAP[args.target]))
    if args.format == "json":
        records = (_json_record(args, t, lam, r) for t, r in zip(ts, results))
        _emit(args, _json_list(records) if args.command == "grid"
              else [json.dumps(next(records), indent=2) + "\n"])
    else:
        _emit(args, itertools.chain(
            [_csv_header(args.n) + "\n"],
            (_csv_row(t, lam, r) + "\n" for t, r in zip(ts, results)),
        ))
    return 0


def _run_verify(args) -> int:
    records = run_suite(args.suite, args.n)
    if args.format == "json":
        _emit(args, [json.dumps([asdict(r) for r in records], indent=2) + "\n"])
    else:
        _emit(args, itertools.chain(
            ["suite,name,error,tolerance,passed\n"],
            (f"{r.suite},\"{r.name}\",{_fmt(r.error)},{_fmt(r.tolerance)},"
             f"{'pass' if r.passed else 'FAIL'}\n" for r in records),
        ))
    return 0 if all(r.passed for r in records) else 4


def main(argv=None) -> int:
    ap = _build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        if args.command == "verify":
            return _run_verify(args)
        return _run_grid(args)
    except PreconditionError as exc:
        print(f"rejected: {exc}", file=sys.stderr)
        return 3
    except (NumericalError, FloatingPointError, OverflowError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
