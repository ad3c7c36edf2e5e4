"""Layered benchmark of hyperbc.

    python3 perfbench/run.py --workload points --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --workload all --seed 1     # every workload, both runs
    python3 perfbench/run.py --compare A.json B.json     # refuses unlike environments
    python3 perfbench/run.py --self-test                 # checks the mpmath reference

Run from the repository root.  The package is imported from ./src of the
checkout this file sits in; without it the benchmark exits with code 1.
One run measures one workload as a closed loop with a single client in this
process, then checks the outputs against the mpmath reference, untimed.
The last line of standard output is the result as one JSON object; the
full result, with the environment block, is written under .perfbench/.
See perfbench/README.md for the metrics and the workloads.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench"

SETUP_PROBES = 9
#: the run length of BENCHMARK.json, which the seed baseline was measured at
RUN_SECONDS = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
#: cycles of the stream that one traced pass covers
TRACE_CYCLES = {"points": 2, "grid": 1, "verify": 1, "frontier": 1}
SCORED = ("points", "grid", "verify")
END_TO_END_UNITS = {"setup_s": "s", "values_per_s": "1/s", "latency_p50_ms": "ms",
                    "latency_tail_ms": "ms", "peak_rss_mb": "MB"}


def _import_package():
    if not (SRC / "hyperbc" / "__init__.py").is_file():
        sys.exit(f"perfbench: no package source at {SRC / 'hyperbc'}; "
                 "run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import hyperbc
    if Path(hyperbc.__file__).resolve().parent != SRC / "hyperbc":
        sys.exit(f"perfbench: imported hyperbc from {hyperbc.__file__}, not {SRC}")
    return hyperbc


def environment():
    """Everything that decides which code path a number comes from."""
    import importlib.util

    kernels = sys.modules.get("hyperbc._kernels")
    digest = hashlib.sha256()
    for path in sorted((SRC / "hyperbc").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        commit = proc.stdout.strip() or None
    return {
        "numba": importlib.util.find_spec("numba") is not None,
        "numba_disabled": getattr(kernels, "NUMBA_DISABLED", None),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cores": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "commit": commit,
        "src_sha256": digest.hexdigest(),
    }


#: environment keys that must match before two results are compared
COMPARABLE = ("numba", "numba_disabled", "python", "numpy", "cores", "machine")


# ------------------------------------------------------------------ setup


def setup_seconds(workload, seed):
    """Median over SETUP_PROBES fresh processes that import hyperbc, warm
    up and deliver the workload's first result.  Each probe's wall time is
    scaled by calibration samples the probe takes right after its first
    result: in the probe's own process they follow the machine's speed
    during the probe more closely than samples taken in this one (the
    median of nine probes moved by about 6-9 % between rounds, against
    20-24 % with this process's samples).  Returns the scaled median and
    the raw wall times."""
    raw, scaled = [], []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=False)
        raw.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {proc.stderr.strip()[-500:]}")
        samples = json.loads(proc.stdout.strip().splitlines()[-1])
        scaled.append(raw[-1] * CALIBRATION_NOMINAL_S / statistics.median(samples))
    return statistics.median(scaled), raw


#: calibration samples a setup probe takes after its first result
PROBE_SAMPLES = 15


def setup_probe(workload, seed):
    _import_package()
    import harness
    out = harness.warm_up(workload, seed, SCRATCH)
    if not out.values or out.error:
        return 1
    print(json.dumps([calibration() for _ in range(PROBE_SAMPLES)]))
    return 0


# -------------------------------------------------------------- measuring


def _run_op(run, op, out):
    t0 = time.perf_counter()
    try:
        run(op, out)
    except Exception as exc:  # the program's failure is the measurement
        out.error = f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - t0


#: seconds of operations between two calibration samples
CALIBRATE_EVERY = 0.05
#: reported times are in seconds of a nominal machine on which
#: calibration() takes this long (about its time on the 2-core x86_64
#: machine the baseline was measured on)
CALIBRATION_NOMINAL_S = 0.9e-3
_CAL_ROWS = np.arange(300.0).reshape(100, 3)
_CAL_LAM = np.array([0.3 + 0.1j, 0.2, 0.1])
#: bound here, before the traced run replaces numpy.linalg.det with its
#: wrapper, so that calibration never shows up as package work
_det = np.linalg.det


def calibration():
    """Seconds for a fixed slice of the kinds of work the program does: a
    complex Gauss-series loop in the interpreter (the scalar and rank-one
    layers), element access to small numpy arrays in Python loops (the
    series recursion) and a few 3x3 numpy determinants (the reduction).
    The machine's speed drifts by 10-50 % from one second to the next when
    it is shared; each operation's time is divided by the calibration
    time measured around it."""
    v, lam = _CAL_ROWS, _CAL_LAM
    t0 = time.perf_counter()
    a, b, c, w = 0.3 + 0.2j, 1.7 - 0.1j, 2.2 + 0.0j, 0.999 + 0.0j
    s = term = 1.0 + 0.0j
    for k in range(1500):
        r = (a + k) * (b + k) / ((c + k) * (k + 1.0)) * w
        term *= r
        s += term
        abs(r)
    acc = 0.0j
    for p in range(100):
        for i in range(3):
            acc += v[p, i] * (lam[i] - v[p, i])
    m = np.arange(9.0).reshape(3, 3) + np.eye(3)
    for _ in range(30):
        _det(m)
    return time.perf_counter() - t0


#: calibration samples in one burst
BURST = 3
#: seconds of operation time on each side of an operation's window whose
#: calibration bursts also set its scale
SCALE_SPAN = 0.15


def _burst():
    return [calibration() for _ in range(BURST)]


class Clock:
    """Bursts of calibration samples taken between operations, every
    CALIBRATE_EVERY seconds of operation time, and the window each
    operation fell in.  Adjacent samples differ by about 9 %
    (interquartile), so an operation's scale is CALIBRATION_NOMINAL_S over
    the median of the bursts that bracket its window and of those within
    SCALE_SPAN of it on either side: for a 1-ms evaluation in a 50-ms
    window, six bursts over about 0.25 s; for a 0.6-s grid call, only the
    two bursts around the call itself."""

    def __init__(self):
        self.bursts = [_burst()]
        #: operation time of each window, between burst k and burst k + 1
        self.lengths = []
        self.window_of = []
        self.window = 0.0
        #: running estimate of the calibrated time, for the stopping rule
        self.busy = 0.0

    def _close_window(self):
        self.bursts.append(_burst())
        self.lengths.append(self.window)
        self.window = 0.0

    def record(self, lat):
        self.window_of.append(len(self.bursts) - 1)
        self.busy += lat * CALIBRATION_NOMINAL_S / statistics.median(self.bursts[-1])
        self.window += lat
        if self.window >= CALIBRATE_EVERY:
            self._close_window()

    def scales(self):
        if self.window_of and self.window_of[-1] == len(self.bursts) - 1:
            self._close_window()
        out = []
        for k in self.window_of:
            side = int(SCALE_SPAN // max(self.lengths[k], CALIBRATE_EVERY))
            near = self.bursts[max(0, k - side):k + 2 + side]
            out.append(CALIBRATION_NOMINAL_S / statistics.median(sum(near, [])))
        return out


def run_ops(name, ops, clock, post):
    """Run a list of operations, timing each into clock and handing each
    outcome to post.  Returns (outcomes, wall latencies)."""
    import harness
    run = harness.runner(name, SCRATCH)
    outs, lats = [], []
    for op in ops:
        out = harness.Outcome()
        lats.append(_run_op(run, op, out))
        clock.record(lats[-1])
        post(op, out)
        outs.append(out)
    return outs, lats


def _post(name):
    """What runs, untimed, after each operation: for grid, parsing and
    checking the output file."""
    import harness
    if name != "grid":
        return lambda op, out: None
    path = harness.runner(name, SCRATCH).path

    def post(op, out):
        if not out.error:
            harness.digest_grid(op, out, path)
    return post


#: a run stops at this multiple of --seconds of wall time even when the
#: calibrated time has not reached --seconds (a very slow machine)
WALL_CAP = 4.0


def measure(name, seed, seconds):
    """Whole cycles of the stream until the operations have taken `seconds`
    of calibrated time.  Stopping on calibrated rather than wall time keeps
    the number of cycles, and so the mix of operations behind each latency
    quantile, the same whatever the machine's speed during the run.
    Returns (operations, outcomes, wall latencies, scales, cycle lengths)."""
    import harness
    ops, outs, lats, cycles = [], [], [], []
    clock, post = Clock(), _post(name)
    began = time.perf_counter()
    for cycle in harness.WORKLOADS[name].stream(seed):
        o, lat = run_ops(name, cycle, clock, post)
        ops += cycle
        outs += o
        lats += lat
        cycles.append(len(cycle))
        if clock.busy >= seconds or time.perf_counter() - began >= WALL_CAP * seconds:
            break
    return ops, outs, lats, clock.scales(), cycles


def _checked(cycles, count):
    """Indices of the operations in `count` whole cycles spread evenly over
    the run (every cycle when count is None or the run is shorter)."""
    starts = np.cumsum([0] + cycles)
    n = len(cycles)
    keep = range(n) if count is None or count >= n else \
        sorted(set(np.linspace(0, n - 1, count).round().astype(int)))
    return [i for c in keep for i in range(starts[c], starts[c + 1])]


def _tail(lats):
    """The highest percentile with at least ten samples beyond it, or the
    median when fewer than 21 samples leave no such percentile above it."""
    s = sorted(lats)
    k = max(len(s) - 11, len(s) // 2)
    return s[k], 100.0 * (k + 1) / len(s)


def end_to_end(name, seed, seconds):
    """values_per_s counts only the values that passed the reference
    check, over the time of the operations that were checked."""
    import harness
    setup, setup_raw = setup_seconds(name, seed)
    harness.warm_up(name, seed, SCRATCH)
    ops, outs, lats, scales, cycles = measure(name, seed, seconds)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    wl = harness.WORKLOADS[name]
    idx = _checked(cycles, wl.checked_cycles)
    checked = wl.check([ops[i] for i in idx], [outs[i] for i in idx])
    delivered = sum(outs[i].values for i in idx if not outs[i].failed)
    norm = [lat * sc for lat, sc in zip(lats, scales)]
    checked_s = sum(norm[i] for i in idx)
    tail, tail_p = _tail(norm)
    metrics = {
        "setup_s": setup,
        "values_per_s": delivered / checked_s,
        "latency_p50_ms": 1e3 * statistics.median(norm),
        "latency_tail_ms": 1e3 * tail,
        "peak_rss_mb": rss_mb,
    }
    detail = {
        "samples": len(lats), "tail_percentile": tail_p,
        "values": delivered, "value_unit": wl.value_unit,
        "reference_checks": checked, "checked_ops": len(idx),
        "wall": {"busy_s": sum(lats),
                 "values_per_s": delivered / sum(lats[i] for i in idx),
                 "latency_p50_ms": 1e3 * statistics.median(lats),
                 "latency_tail_ms": 1e3 * _tail(lats)[0],
                 "setup_probes_s": setup_raw},
        "speed_scale_median": statistics.median(scales),
    }
    return {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}, ops, outs, detail


def traced_pass(name, ops, post, tracer):
    """Each operation of ops runs with the tracer installed and then
    untraced, so that both runs of an operation meet the same machine
    speed.  The traced run comes first, so that the layer metrics count
    each operation's first run: a cache across calls, filled by the
    untraced run, would otherwise hide the work.  Returns the outcomes and
    the calibrated seconds of the untraced and of the traced runs."""
    import harness
    run, clock = harness.runner(name, SCRATCH), Clock()
    outs, lats = ([], []), ([], [])
    for i, op in enumerate(ops):
        for on in (1, 0):
            out = harness.Outcome()
            if on:
                tracer.op = i
                tracer.install()
                try:
                    lat = tracer.span("bench.op", _run_op, run, op, out)
                finally:
                    tracer.uninstall()
            else:
                lat = _run_op(run, op, out)
            clock.record(lat)
            post(op, out)
            outs[on].append(out)
            lats[on].append(lat)
    scales = clock.scales()
    secs = [sum(lat * x for lat, x in zip(lats[on], scales[1 - on::2])) for on in (0, 1)]
    return outs, secs


def traced(name, seed, seconds):
    """Passes over the same fixed prefix of the stream until `seconds` have
    passed; layer metrics come from the first pass, so their counts repeat
    exactly between runs of the same code and seed."""
    import harness
    import tracing

    harness.warm_up(name, seed, SCRATCH)
    stream = harness.WORKLOADS[name].stream(seed)
    ops = [op for _ in range(TRACE_CYCLES[name]) for op in next(stream)]
    plain, with_trace, first = [], [], None
    post = _post(name)
    began = time.perf_counter()
    while True:
        tracer = tracing.Tracer()
        (outs_u, outs_t), (u, t) = traced_pass(name, ops, post, tracer)
        plain.append(u)
        with_trace.append(t)
        if first is None:
            first = (tracer, outs_u, outs_t)
        elapsed = time.perf_counter() - began
        if elapsed >= seconds or elapsed + u + t > 1.5 * seconds:
            break
    tracer, outs_u, outs_t = first
    checked = harness.WORKLOADS[name].check(ops + ops, outs_u + outs_t)
    values = sum(o.values for o in outs_t if not o.failed)
    layers, absent = tracing.layer_metrics(tracer, len(ops), values)
    layers["trace.overhead_frac"] = 1.0 - sum(plain) / sum(with_trace)
    SCRATCH.mkdir(exist_ok=True)
    tracer.dump(SCRATCH / f"spans-{name}-s{seed}.jsonl")
    metrics = {k: (v, _layer_unit(k)) for k, v in layers.items()}
    detail = {"traced_ops": len(ops), "passes": len(plain), "absent": absent,
              "absent_spans": tracer.absent,
              "untraced_pass_s": plain, "traced_pass_s": with_trace,
              "values": values, "reference_checks": checked}
    return metrics, ops + ops, outs_u + outs_t, detail


def _layer_unit(name):
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("_frac"):
        return "fraction"
    if name.endswith("per_value") or name.endswith("per_check") or name.endswith("per_apply"):
        return "ratio"
    return "bytes" if name.endswith("bytes_out") else "count"


def one_run(name, seed, seconds, trace_on):
    """One workload, untraced or traced.  The result is correct only when
    no operation failed: none raised, none exited nonzero, and no checked
    value missed the reference."""
    hyperbc = _import_package()
    SCRATCH.mkdir(exist_ok=True)
    run = traced if trace_on else end_to_end
    metrics, ops, outs, detail = run(name, seed, seconds)
    failures = [f"{op.cls}: {o.error or '; '.join(o.bad)}"
                for op, o in zip(ops, outs) if o.failed]
    result = {
        "correct": not failures,
        "attempted": len(outs),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    full = dict(result, workload=name, seed=seed, seconds=seconds,
                trace=int(trace_on), env=environment(),
                hyperbc_version=getattr(hyperbc, "__version__", None),
                detail=detail, fail_frac=len(failures) / len(outs),
                failures=failures[:20])
    (SCRATCH / "results").mkdir(parents=True, exist_ok=True)
    path = SCRATCH / "results" / f"{name}-s{seed}-trace{int(trace_on)}.json"
    path.write_text(json.dumps(full, indent=1) + "\n")
    _print_run(full)
    print(json.dumps(result))
    return 0


def _print_run(full):
    d = full["detail"]
    print(f"workload {full['workload']}  seed {full['seed']}  trace {full['trace']}  "
          f"env {json.dumps(full['env'])}")
    for name, m in full["metrics"].items():
        note = ""
        if name == "values_per_s":
            note = (f"{d['values']} checked values ({d['value_unit']}) of "
                    f"{d['checked_ops']} checked operations")
        elif name.startswith("latency"):
            p = 50.0 if name == "latency_p50_ms" else d["tail_percentile"]
            note = f"p{p:.1f} of {d['samples']} operations"
        elif name == "setup_s":
            note = f"median of {SETUP_PROBES} fresh processes"
        if name in d.get("absent", ()):
            note = "absent: its wrap target is gone from the package"
        print(f"  {name:34s} {m['value']:14.6g} {m['unit']:8s} {note}")
    if d.get("absent_spans"):
        print(f"  wrap targets gone from the package: {', '.join(d['absent_spans'])}")
    print(f"  fail_frac {full['fail_frac']:.4f} ({full['failed']} of {full['attempted']} "
          f"operations)  correct {full['correct']}")
    for f in full["failures"][:5]:
        print(f"    failed: {f[:200]}")


# ------------------------------------------------------------ other modes


def run_all(seed, seconds, save):
    """Every workload, untraced then traced, each in its own process."""
    merged = {}
    for name in SCORED + ("frontier",):
        for trace_on in ((0, 1) if name in SCORED else (0,)):
            subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", name,
                            "--seed", str(seed), "--seconds", str(seconds),
                            "--trace", str(trace_on)],
                           cwd=ROOT, check=True, stdout=subprocess.DEVNULL, timeout=600)
            path = SCRATCH / "results" / f"{name}-s{seed}-trace{trace_on}.json"
            merged[f"{name}/trace{trace_on}"] = json.loads(path.read_text())
    print(f"env {json.dumps(next(iter(merged.values()))['env'])}")
    for key, full in merged.items():
        _print_run(full)
    if save:
        Path(save).write_text(json.dumps(merged, indent=1) + "\n")
    return 0


def _load(path):
    data = json.loads(Path(path).read_text())
    if "workload" in data:
        data = {f"{data['workload']}/trace{data['trace']}": data}
    return data


def compare(path_a, path_b):
    """Per-metric change from A to B; refuses results whose environments
    differ in anything that selects the code path."""
    a, b = _load(path_a), _load(path_b)
    bounds = {m["name"]: m for m in
              json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    for key in sorted(set(a) & set(b)):
        ea, eb = a[key]["env"], b[key]["env"]
        diff = [k for k in COMPARABLE if ea.get(k) != eb.get(k)]
        if diff:
            print(f"refusing to compare {key}: environments differ in "
                  + ", ".join(f"{k} ({ea.get(k)} vs {eb.get(k)})" for k in diff))
            return 3
        print(f"{key}")
        for name, ma in a[key]["metrics"].items():
            mb = b[key]["metrics"].get(name)
            if mb is None:
                print(f"  {name:34s} {ma['value']:12.6g} -> absent")
                continue
            va, vb = ma["value"], mb["value"]
            change = (vb - va) / abs(va) if va else float("nan")
            flag = ""
            if name in bounds:
                worse = -change if bounds[name]["better"] == "higher" else change
                flag = "  WORSE than bound" if worse > bounds[name]["bound"] else ""
            print(f"  {name:34s} {va:12.6g} -> {vb:12.6g} {ma['unit']:8s} "
                  f"{100 * change:+7.1f}%{flag}")
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=SCORED + ("frontier", "all"), default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--save", help="with --workload all: write the merged results here")
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"))
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.self_test:
        _import_package()
        import selftest
        return selftest.main()
    if args.setup_probe:
        return setup_probe(args.workload, args.seed)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.save)
    return one_run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
