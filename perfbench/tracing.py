"""Spans and work counters around the public functions of each layer.

A traced worker calls `Tracer.install()` after `import hyperalpha.cli` and
before the operation. Each listed function is wrapped once, and every
attribute of every loaded `hyperalpha.*` module that *is* that function
object is pointed at the wrapper, so the trace follows a function to
wherever it is imported from. Spans are kept in memory as
`[name, start, end, parent]` and written out by the worker when it exits.
"""

import functools
import sys
import time

# (metric prefix, module, function); the prefix names the layer the
# function lives in today and stays fixed if the function moves.
TRACED = (
    ("cli.main", "cli", "main"),
    ("cli.read_pattern_csv", "cli", "read_pattern_csv"),
    ("geometry.normalize_intensity", "geometry", "normalize_intensity"),
    ("tapers.build_taper_set", "tapers", "build_taper_set"),
    ("transforms.transform_grid", "transforms", "transform_grid"),
    ("transforms.curve_C", "transforms", "curve_C"),
    ("estimator.calibrate_jmax", "estimator", "calibrate_jmax"),
    ("estimator.select_jmin", "estimator", "select_jmin"),
    ("estimator.estimate_alpha", "estimator", "estimate_alpha"),
    ("covariance.sigma_transient", "covariance", "sigma_transient"),
    ("numerics.psd_factor", "numerics", "psd_factor"),
    ("numerics.quad_radial", "numerics", "quad_radial"),
    ("inference.sample_Z", "inference", "sample_Z"),
    ("inference.pivot_quantiles", "inference", "pivot_quantiles"),
    ("inference.confidence_interval", "inference", "confidence_interval"),
    ("simulate.cloaked_lattice", "simulate", "cloaked_lattice"),
)

# Work counters that depend only on the inputs and the code; a traced run
# checks that they repeat exactly from op to op and against the reference.
EXACT_COUNTERS = (
    "transforms.evals",
    "covariance.matrix_dim",
    "covariance.entries_nonzero_frac",
    "covariance.matrix_mb",
    "inference.sample_Z.draws",
    "numerics.psd_factor.calls",
    "numerics.quad_radial.calls",
)


def _count_transform_grid(counts, args, out):
    # n points times |J| times |I| taper evaluations
    counts["transforms.evals"] += len(args[0]) * out.values.size


def _count_sigma_transient(counts, args, out):
    stored = out.matrix.size
    counts["covariance.stored"] += stored
    counts["covariance.useful"] += stored - int(out.structural_zero.sum())
    counts["covariance.matrix_dim"] = max(counts["covariance.matrix_dim"], out.dim)
    mb = (out.matrix.nbytes + out.structural_zero.nbytes) / 1e6
    counts["covariance.matrix_mb"] = max(counts["covariance.matrix_mb"], mb)


def _count_sample_Z(counts, args, out):
    counts["inference.sample_Z.draws"] += len(out.values)


COUNTERS = {
    "transforms.transform_grid": _count_transform_grid,
    "covariance.sigma_transient": _count_sigma_transient,
    "inference.sample_Z": _count_sample_Z,
}


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = {
            "transforms.evals": 0, "covariance.stored": 0,
            "covariance.useful": 0, "covariance.matrix_dim": 0,
            "covariance.matrix_mb": 0.0, "inference.sample_Z.draws": 0,
        }
        self.missing = []
        self._stack = []

    def wrap(self, name, fn):
        count = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            span = [name, 0.0, 0.0, parent]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if count is not None:
                count(self.counts, args, out)
            return out

        return traced

    def install(self):
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "hyperalpha"
                                         or key.startswith("hyperalpha."))]
        for name, module, attr in TRACED:
            fn = _find(modules, module, attr)
            if fn is None:
                self.missing.append(name)
                continue
            wrapper = self.wrap(name, fn)
            for m in modules:
                for key, val in list(vars(m).items()):
                    if val is fn:
                        setattr(m, key, wrapper)


def _find(modules, module, attr):
    """The function `attr` of `hyperalpha.<module>`, or wherever it moved."""
    home = sys.modules.get(f"hyperalpha.{module}")
    fn = getattr(home, attr, None)
    if callable(fn):
        return fn
    for m in modules:
        fn = getattr(m, attr, None)
        if callable(fn) and getattr(fn, "__module__", "").startswith("hyperalpha"):
            return fn
    return None


def layer_metrics(spans, counts):
    """Per-layer self time and call count from one op's spans, plus counts.

    Self time is a span's duration minus the durations of its direct child
    spans; spans nest strictly because the program runs on one thread.
    """
    child = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    out = {}
    for name, _, _ in TRACED:
        out[f"{name}.self_s"] = 0.0
        out[f"{name}.calls"] = 0
    for k, (name, start, end, _) in enumerate(spans):
        out[f"{name}.self_s"] += (end - start) - child[k]
        out[f"{name}.calls"] += 1
    for key in ("transforms.evals", "covariance.matrix_dim",
                "covariance.matrix_mb", "inference.sample_Z.draws"):
        out[key] = counts[key]
    stored = counts["covariance.stored"]
    out["covariance.entries_nonzero_frac"] = (
        counts["covariance.useful"] / stored if stored else 0.0)
    grid_s = out["transforms.transform_grid.self_s"]
    out["transforms.evals_per_s"] = out["transforms.evals"] / grid_s if grid_s else 0.0
    return out
