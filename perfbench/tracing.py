"""Span tracing of hyperbc's layers from outside the package.

Tracer.install() replaces each layer entry point listed in TARGETS by a
wrapper that records a span (name, start, end, parent span, operation id,
extra count, exception raised).  A function is replaced under every name
the package binds it to, because modules import each other's functions by
name.  A target the package no longer has is reported as absent rather
than failing, so the benchmark keeps working when a later change removes
or renames a private helper.  Spans stay in memory and are written out by
dump() when the run ends; layer_metrics() derives the per-layer metrics.
"""

import json
import os
import sys
import time
from collections import Counter, defaultdict

#: exceptions that mean a request was refused, not that a computation failed
PRECONDITION = {"ParameterError", "DomainError", "ChamberError",
                "HalfPlaneError", "SizeError", "PoleError",
                "SingularityTooClose", "DegenerateLambda", "PreconditionError"}


def _nterms(args, kwargs, out, pre):
    return int(out[1])


def _ryser_ops(args, kwargs, out, pre):
    n = args[0].shape[0]
    return n * 2**n


def _edges(args, kwargs, out, pre):
    return len(args[2])


def _points(args, kwargs, out, pre):
    return len(out.coeffs)


def _ntables(args, kwargs, out, pre):
    return len(out)


def _jacobi_key(args, kwargs, out, pre):
    p, lam, t = args[:3]
    return (complex(p.alpha), complex(p.beta), complex(lam), float(t))


def _cache_size():
    cache = getattr(sys.modules.get("hyperbc.hcseries"), "_ROOT_DATA_CACHE", None)
    return None if cache is None else len(cache)


def _cache_growth(args, kwargs, out, pre):
    after = _cache_size()
    return None if pre is None or after is None else after - pre


def _bytes_out(args, kwargs, out, pre):
    argv = list(args[0]) if args else list(kwargs.get("argv") or [])
    if "--output" not in argv:
        return 0
    return os.path.getsize(argv[argv.index("--output") + 1])


# (module, attribute, span name, extra count, pre-call hook)
TARGETS = (
    ("hyperbc._kernels", "hyp2f1_series", "kernels.hyp2f1_series", _nterms, None),
    ("hyperbc._kernels", "bessel_series", "kernels.bessel_series", _nterms, None),
    ("hyperbc._kernels", "ryser_permanent", "kernels.ryser_permanent", _ryser_ops, None),
    ("hyperbc._kernels", "hc_coeffs", "kernels.hc_coeffs", _edges, None),
    ("hyperbc.special", "gauss_2f1", "special.gauss_2f1", None, None),
    ("hyperbc.special", "bessel_j_normalized", "special.bessel_j_normalized", None, None),
    ("hyperbc.jacobi", "jacobi_phi", "jacobi.jacobi_phi", _jacobi_key, None),
    ("hyperbc.jacobi", "jacobi_phi_asymptotic", "jacobi.jacobi_phi_asymptotic", _jacobi_key, None),
    ("hyperbc.jacobi", "c_rank1", "jacobi.c_rank1", None, None),
    ("hyperbc.hyper", "_phi_matrix", "hyper.assembly.phi", None, None),
    ("hyperbc.hyper", "_bessel_matrix", "hyper.assembly.bessel", None, None),
    ("numpy.linalg", "det", "hyper.reduction.det", None, None),
    ("hyperbc.hyper", "_cond", "hyper.reduction.cond", None, None),
    ("hyperbc.hyper", "_f_det_divided", "hyper.reduction.divided", None, None),
    ("hyperbc.hyper", "_confluent_det_ratio", "hyper.reduction.confluent", None, None),
    ("hyperbc.hyper", "evaluate", "hyper.eval.evaluate", None, None),
    ("hyperbc.hyper", "f_determinant", "hyper.eval.f_determinant", None, None),
    ("hyperbc.hyper", "f_permanent", "hyper.eval.f_permanent", None, None),
    ("hyperbc.hyper", "f_theta", "hyper.eval.f_theta", None, None),
    ("hyperbc.hyper", "bessel_bcn", "hyper.eval.bessel_bcn", None, None),
    ("hyperbc.hyper", "phi_product", "hyper.eval.phi_product", None, None),
    ("hyperbc.rootsystem", "c_normalized", "rootsystem.c_normalized", None, None),
    ("hyperbc.rootsystem", "c_tilde", "rootsystem.c_tilde", None, None),
    ("hyperbc.rootsystem", "constant_B", "rootsystem.constant_B", None, None),
    ("hyperbc.rootsystem", "delta_m", "rootsystem.delta_m", None, None),
    ("hyperbc.rootsystem", "delta_m_rational", "rootsystem.delta_m_rational", None, None),
    ("hyperbc.rootsystem", "weyl_elements", "rootsystem.weyl_elements", None, None),
    ("hyperbc.hcseries", "root_data", "hcseries.root_data", _cache_growth, _cache_size),
    ("hyperbc.hcseries", "compute_coeffs", "hcseries.compute_coeffs", _points, None),
    ("hyperbc.hcseries", "series_eval", "hcseries.series_eval", None, None),
    ("hyperbc.verify", "weyl_sum_tables", "verify.weyl_sum_tables", _ntables, None),
    ("hyperbc.diffops", "apply_L", "diffops.apply_L", None, None),
    ("hyperbc.cli", "main", "cli.main", _bytes_out, None),
)

# span record fields
NAME, START, END, PARENT, OP, EXTRA, ERROR = range(7)


class Tracer:
    """Wraps the layer entry points while installed; one per traced pass."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = -1
        self.absent = []
        #: (holder, attribute, original, wrapper), found at the first install
        self._plan = None

    def span(self, name, fn, *args, **kwargs):
        """Run fn under a span of the benchmark's own (one per operation)."""
        return self._wrapper(fn, name, None, None)(*args, **kwargs)

    def _wrapper(self, orig, name, extra, pre):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None, None]
            stack.append(len(spans))
            spans.append(rec)
            before = pre() if pre else None
            rec[START] = clock()
            try:
                out = orig(*args, **kwargs)
            except Exception as exc:
                rec[ERROR] = [c.__name__ for c in type(exc).__mro__]
                raise
            finally:
                rec[END] = clock()
                stack.pop()
            if extra is not None:
                try:
                    rec[EXTRA] = extra(args, kwargs, out, before)
                except (AttributeError, IndexError, KeyError, TypeError, ValueError):
                    pass  # the target's signature changed: lose the count, not the call
            return out

        wrapper.__wrapped__ = orig
        return wrapper

    def _find(self):
        self._plan = []
        for modname, attr, name, extra, pre in TARGETS:
            mod = sys.modules.get(modname)
            orig = getattr(mod, attr, None) if mod is not None else None
            if orig is None:
                self.absent.append(name)
                continue
            wrapped = self._wrapper(orig, name, extra, pre)
            holders = [mod] + [
                m for key, m in list(sys.modules.items())
                if key.split(".")[0] == "hyperbc" and m is not None
                and getattr(m, attr, None) is orig
            ]
            for holder in dict.fromkeys(holders):
                self._plan.append((holder, attr, orig, wrapped))

    def install(self):
        """Put the wrappers in place; cheap after the first call, so a pass
        can install and uninstall around every operation."""
        if self._plan is None:
            self._find()
        for holder, attr, _, wrapped in self._plan:
            setattr(holder, attr, wrapped)

    def uninstall(self):
        for holder, attr, orig, _ in reversed(self._plan or ()):
            setattr(holder, attr, orig)

    def dump(self, path):
        with open(path, "w") as fh:
            fh.write(json.dumps({"absent": self.absent,
                                 "fields": ["name", "start", "end", "parent",
                                            "op", "extra", "error"]}) + "\n")
            for rec in self.spans:
                extra = rec[EXTRA]
                if isinstance(extra, tuple):
                    extra = repr(extra)
                fh.write(json.dumps([rec[NAME], rec[START], rec[END], rec[PARENT],
                                     rec[OP], extra,
                                     rec[ERROR][0] if rec[ERROR] else None]) + "\n")


def _layer(name):
    return name.split(".")[0]


def layer_metrics(tracer, ops, values):
    """Per-layer metrics of one traced pass over `ops` operations that
    delivered `values` checked values.  Returns (metrics, absent), where
    absent lists the metrics whose spans could not be installed; they read
    0 in metrics."""
    spans = tracer.spans
    dur = [r[END] - r[START] for r in spans]
    child = [0.0] * len(spans)
    kids = defaultdict(list)
    for i, r in enumerate(spans):
        if r[PARENT] >= 0:
            child[r[PARENT]] += dur[i]
            kids[r[PARENT]].append(i)
    self_t = [d - c for d, c in zip(dur, child)]
    by_name = defaultdict(list)
    for i, r in enumerate(spans):
        by_name[r[NAME]].append(i)
    m, absent = {}, []
    gone = set(tracer.absent)

    def put(metric, value, *sources):
        """Record a metric; it is absent when all the spans it is made
        from are."""
        m[metric] = value
        if sources and gone.issuperset(sources):
            absent.append(metric)

    def calls(name):
        return len(by_name[name])

    def secs(name):
        return sum(dur[i] for i in by_name[name])

    def extra_sum(name):
        return sum(spans[i][EXTRA] or 0 for i in by_name[name])

    def self_of(layer):
        return sum(self_t[i] for i, r in enumerate(spans) if _layer(r[NAME]) == layer)

    def names(layer):
        return [t[2] for t in TARGETS if _layer(t[2]) == layer]

    for k, count in (("hyp2f1_series", "terms"), ("bessel_series", "terms"),
                     ("ryser_permanent", "ops"), ("hc_coeffs", "edges")):
        name = f"kernels.{k}"
        put(f"{name}.calls", calls(name), name)
        put(f"{name}.{count}", extra_sum(name), name)
        put(f"{name}.s", secs(name), name)

    # special: count failures and the series terms they consumed
    put("special.gauss_2f1.calls", calls("special.gauss_2f1"), "special.gauss_2f1")
    put("special.self_s", self_of("special"), *names("special"))
    put("special.nonconvergence", sum(
        1 for n in names("special") for i in by_name[n]
        if spans[i][ERROR] and "NonConvergence" in spans[i][ERROR]), *names("special"))
    series = by_name["kernels.hyp2f1_series"] + by_name["kernels.bessel_series"]
    terms = sum(spans[i][EXTRA] or 0 for i in series)
    wasted = sum(spans[i][EXTRA] or 0 for i in series
                 if spans[i][PARENT] >= 0 and spans[spans[i][PARENT]][ERROR])
    put("special.wasted_terms_frac", wasted / terms if terms else 0.0,
        "kernels.hyp2f1_series", "kernels.bessel_series")

    rank_one = ("jacobi.jacobi_phi", "jacobi.jacobi_phi_asymptotic")
    for name in rank_one + ("jacobi.c_rank1",):
        put(f"{name}.calls", calls(name), name)
    put("jacobi.self_s", self_of("jacobi"), *names("jacobi"))
    # a call that raised has no key; count its arguments as distinct
    keys = [(spans[i][NAME], spans[i][EXTRA] or i) for n in rank_one for i in by_name[n]]
    put("jacobi.distinct_frac", len(set(keys)) / len(keys) if keys else 0.0, *rank_one)
    put("jacobi.calls_per_value", len(keys) / values if values else 0.0, *rank_one)

    assembly = ("hyper.assembly.phi", "hyper.assembly.bessel")
    put("hyper.assembly.calls", sum(calls(n) for n in assembly), *assembly)
    put("hyper.assembly.s", sum(secs(n) for n in assembly), *assembly)
    put("hyper.reduction.det.calls", calls("hyper.reduction.det"), "hyper.reduction.det")
    for part in ("det", "cond", "divided", "confluent"):
        name = f"hyper.reduction.{part}"
        put(f"{name}.s", secs(name), name)

    evaluators = [n for n in names("hyper") if n.startswith("hyper.eval.")]

    def is_eval(i):
        return spans[i][NAME].startswith("hyper.eval.")

    top = [i for i in range(len(spans))
           if is_eval(i) and not (spans[i][PARENT] >= 0 and is_eval(spans[i][PARENT]))]
    put("hyper.eval.calls", len(top), *evaluators)
    put("hyper.eval.self_s", sum(self_t[i] for i in range(len(spans)) if is_eval(i)),
        *evaluators)
    errs = [spans[i][ERROR] for i in top if spans[i][ERROR]]
    put("hyper.eval.rejected", sum(1 for e in errs if PRECONDITION & set(e)), *evaluators)
    put("hyper.eval.failed", sum(1 for e in errs if not PRECONDITION & set(e)), *evaluators)
    paths = Counter(_path(spans, kids, i) for i in top)
    for p, marks in PATHS.items():
        put(f"hyper.path.{p}", paths[p], *(marks or evaluators))

    put("rootsystem.c_normalized.calls", calls("rootsystem.c_normalized"),
        "rootsystem.c_normalized")
    put("rootsystem.self_s", self_of("rootsystem"), *names("rootsystem"))

    put("hcseries.root_data.calls", calls("hcseries.root_data"), "hcseries.root_data")
    grown = [i for i in by_name["hcseries.root_data"] if spans[i][EXTRA]]
    no_cache = ("hcseries.root_data",) if _cache_size() is None else ()
    put("hcseries.root_data.builds", len(grown), "hcseries.root_data", *no_cache)
    put("hcseries.root_data.build_s", sum(dur[i] for i in grown),
        "hcseries.root_data", *no_cache)
    for name, count in (("hcseries.compute_coeffs", "points"), ("hcseries.series_eval", None)):
        put(f"{name}.calls", calls(name), name)
        if count:
            put(f"{name}.{count}", extra_sum(name), name)
        put(f"{name}.s", secs(name), name)

    put("verify.weyl_sum_tables.calls", calls("verify.weyl_sum_tables"),
        "verify.weyl_sum_tables")
    put("verify.tables_per_check",
        extra_sum("verify.weyl_sum_tables") / ops if ops else 0.0, "verify.weyl_sum_tables")
    put("verify.self_s", self_of("verify"), *names("verify"))

    applies = by_name["diffops.apply_L"]
    put("diffops.apply_L.calls", len(applies), "diffops.apply_L")
    put("diffops.self_s", self_of("diffops"), *names("diffops"))
    under = sum(1 for i in top if _ancestor(spans, i, "diffops.apply_L"))
    put("diffops.evals_per_apply", under / len(applies) if applies else 0.0,
        "diffops.apply_L", *evaluators)

    mains = by_name["cli.main"]
    put("cli.main.calls", len(mains), "cli.main")
    put("cli.bytes_out", extra_sum("cli.main"), "cli.main")
    put("cli.self_s", sum(dur[i] for i in mains) - sum(
        dur[i] for i in top if _ancestor(spans, i, "cli.main")), "cli.main")
    return m, absent


#: evaluation paths of hyper.path.*, each with the spans whose presence
#: beneath an evaluator call marks it, in the order they are tested; det
#: is what is left
PATHS = {
    "confluent": ("hyper.reduction.confluent",),
    "det-divided": ("hyper.reduction.divided",),
    "bessel": ("hyper.assembly.bessel", "special.bessel_j_normalized"),
    "asymptotic": ("jacobi.jacobi_phi_asymptotic",),
    "perm": ("hyper.eval.f_permanent",),
    "det": (),
}


def _ancestor(spans, i, name):
    p = spans[i][PARENT]
    while p >= 0:
        if spans[p][NAME] == name:
            return True
        p = spans[p][PARENT]
    return False


def _path(spans, kids, i):
    """Which evaluation path produced a top-level evaluator span, inferred
    from the spans that ran beneath it."""
    names = set()
    todo = [i]
    while todo:
        j = todo.pop()
        names.add(spans[j][NAME])
        todo.extend(kids.get(j, ()))
    return next(p for p, marks in PATHS.items() if not marks or names.intersection(marks))
