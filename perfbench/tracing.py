"""Per-layer tracing from outside the package.

A Tracer replaces public functions of the cubicmaps modules with wrappers,
at every module attribute that binds them, so callers that looked them up
by name reach the wrapper.  A span wrapper records name, parent span,
start and end; a counter wrapper only counts calls, and span hooks add
counts of what the calls returned.  `restore` puts every
original object back.  A span's self time is its duration minus the
durations of its direct child spans.

`layer_metrics` turns two traced sections into the per-layer metrics:
`first_touch` traces a workload's `prepare` after the scan caches were
dropped, and `traced` traces one warm pass.  Counts are per pass.
"""

import sys
import time
from collections import Counter
from contextlib import contextmanager

from cubicmaps import _scan, certify, dataset, finitefield, forms, linsys, network, ratpoly, surjectivity
from cubicmaps.surjectivity import NOT_UNRULY, POSITIVE_DIMENSIONAL, UNRULY

LEVELS = range(1, 10)
VERDICTS = (UNRULY, NOT_UNRULY, POSITIVE_DIMENSIONAL)


class Span:
    __slots__ = ("name", "parent", "start", "end", "child")

    def __init__(self, name, parent):
        self.name = name
        self.parent = parent
        self.child = 0.0

    @property
    def duration(self):
        return self.end - self.start

    @property
    def self_time(self):
        return self.duration - self.child


def _package_modules():
    return [m for n, m in list(sys.modules.items()) if n == "cubicmaps" or n.startswith("cubicmaps.")]


class Tracer:
    """Spans and counters recorded by wrappers installed in the package."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.missing = []
        self._stack = []
        self._patches = []

    # -- wrappers --

    def span_wrapper(self, name, fn, on_call=None):
        """Wrap fn in a span; name may be a function of the call's arguments."""
        stack = self._stack
        spans = self.spans

        def wrapper(*args, **kwargs):
            span = Span(name if isinstance(name, str) else name(args), stack[-1] if stack else None)
            stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if span.parent is not None:
                    span.parent.child += span.end - span.start
                spans.append(span)
            if on_call is not None:
                on_call(self, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counter_wrapper(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation --

    def patch(self, owner, attr, wrapper):
        original = vars(owner)[attr]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def patch_function(self, fn, wrapper):
        """Replace fn at every package module attribute that binds it."""
        for module in _package_modules():
            for attr in [a for a, v in vars(module).items() if v is fn]:
                self.patch(module, attr, wrapper)

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self):
        try:
            install_package_wrappers(self)
            yield self
        finally:
            self.restore()

    # -- aggregates --

    def calls(self, name):
        return sum(1 for s in self.spans if s.name == name)

    def total(self, name):
        return sum(s.duration for s in self.spans if s.name == name)

    def self_time(self, name):
        return sum(s.self_time for s in self.spans if s.name == name)

    def outer_total(self, name):
        """Duration of the spans of a name that are not inside another span of that name."""
        return sum(s.duration for s in self.spans
                   if s.name == name and (s.parent is None or s.parent.name != name))


# -- what is wrapped, and what each call records --


def _on_generate(tracer, args, result):
    cfg = args[0]
    tracer.counts["dataset.triples"] += cfg.p ** (3 * cfg.system.dim)


def _on_make_plane(tracer, args, result):
    tracer.counts["linsys.planes_admitted"] += result is not None
    parent = tracer._stack[-1] if tracer._stack else None
    if parent is not None and parent.name == "dataset.generate_dataset":
        tracer.counts["dataset.subspaces"] += 1


def _on_test_pencil(tracer, args, result):
    tracer.counts[f"surjectivity.verdict.{result.status}"] += 1
    if result.witness is not None:
        tracer.counts[f"surjectivity.witness_degree.d{result.witness.field.k}"] += 1


def _on_forward_oracle(tracer, args, result):
    tracer.counts["surjectivity.uncovered_targets"] += len(result)


def gemm_flop(params, n):
    """FLOPs of the three dense-layer GEMM pairs in one loss_and_grad on a batch of n.

    Forward, weight gradient and input gradient each multiply through the
    (flat x hidden) and (hidden x 1) layers, at 2 FLOPs per multiply-add.
    """
    flat = 2 * (params.w - 1) * params.filters
    return 3 * (2 * n * flat * params.hidden + 2 * n * params.hidden)


def adam_bytes(params):
    """Bytes one Adam step must move at least: read a, g, m, v and write a, m, v in float64."""
    return 7 * 8 * sum(a.size for a in params.arrays())


def _on_loss_and_grad(tracer, args, result):
    params, x = args[0], args[1]
    tracer.counts["network.gemm_flop"] += gemm_flop(params, len(x))


def _on_adam_step(tracer, args, result):
    tracer.counts["network.adam_bytes"] += adam_bytes(args[1])


def _on_verify_case(tracer, args, result):
    tracer.counts["certify.checks"] += len(result.checks)


def _level_name(prefix, ext_index):
    return lambda args: f"{prefix}.d{args[ext_index].k}"


# (module, attribute or Class.attribute, span name, hook)
SPANS = (
    (dataset, "generate_dataset", "dataset.generate_dataset", _on_generate),
    (dataset, "write_output", "dataset.write_output", None),
    (dataset, "read_output", "dataset.read_output", None),
    (linsys, "make_plane", "linsys.make_plane", _on_make_plane),
    (linsys, "pencil", "linsys.pencil", None),
    (forms, "combine", "forms.combine", None),
    (forms, "has_common_factor", "forms.gcd", None),
    (forms, "common_factor_all", "forms.gcd", None),
    (surjectivity, "label_plane", "surjectivity.label_plane", None),
    (surjectivity, "test_pencil", "surjectivity.test_pencil", _on_test_pencil),
    (surjectivity, "forward_oracle", "surjectivity.forward_oracle", _on_forward_oracle),
    (_scan, "find_witness_encoding", _level_name("_scan.witness", 2), None),
    (_scan, "covered_target_encodings", _level_name("_scan.covered", 1), None),
    (_scan, "FieldTables", "_scan.tables", None),
    (_scan, "_cached_chunks", "_scan.tables", None),
    (network, "features_and_labels", "network.features", None),
    (network, "loss_and_grad", "network.loss_and_grad", _on_loss_and_grad),
    (network, "Adam.step", "network.adam_step", _on_adam_step),
    (network, "forward", "network.forward", None),
    (network, "save_checkpoint", "network.checkpoint", None),
    (network, "train", "network.train", None),
    (certify, "verify_case", "certify.verify_case", _on_verify_case),
    (certify, "numeric_preimage", "certify.numeric_preimage", None),
)
# (module, attribute or Class.attribute, counter name)
COUNTERS = (
    (certify, "solve_roots", "certify.solve_roots"),
    (finitefield, "Scalar.__mul__", "finitefield.scalar_mul"),
    (finitefield, "Scalar.__add__", "finitefield.scalar_add"),
    (ratpoly, "RationalPoly.__mul__", "ratpoly.mul"),
    (ratpoly, "RationalPoly.__rmul__", "ratpoly.mul"),
)


def install_package_wrappers(tracer):
    """Install every span and counter; a target the package no longer has is listed in `missing`."""
    targets = [(m, path, lambda fn, n=name, h=hook: tracer.span_wrapper(n, fn, h))
               for m, path, name, hook in SPANS]
    targets += [(m, path, lambda fn, n=name: tracer.counter_wrapper(n, fn)) for m, path, name in COUNTERS]
    for module, path, make_wrapper in targets:
        class_name, _, attr = path.rpartition(".")
        owner = getattr(module, class_name, None) if class_name else module
        original = vars(owner).get(attr) if owner is not None else None
        if original is None:
            tracer.missing.append(f"{module.__name__}.{path}")
        elif class_name:
            tracer.patch(owner, attr, make_wrapper(original))
        else:
            tracer.patch_function(original, make_wrapper(original))


# -- the per-layer metrics: name, unit, better --
# Metrics of the `_scan` module are named `scan.*`: a metric name starts
# with a letter or digit.  `*_self_s` is self time, other `*_s` inclusive.

LAYER_METRICS = (
    ("dataset.self_s", "s", "lower"),
    ("dataset.triples", "count", "lower"),
    ("dataset.subspaces", "count", "lower"),
    ("dataset.subspace_yield", "ratio", "higher"),
    ("dataset.write_s", "s", "lower"),
    ("dataset.read_s", "s", "lower"),
    ("linsys.make_plane_calls", "count", "lower"),
    ("linsys.make_plane_s", "s", "lower"),
    ("linsys.plane_admit_ratio", "ratio", "higher"),
    ("linsys.pencil_s", "s", "lower"),
    ("forms.combine_calls", "count", "lower"),
    ("forms.combine_s", "s", "lower"),
    ("forms.gcd_calls", "count", "lower"),
    ("forms.gcd_s", "s", "lower"),
    ("finitefield.scalar_mul_calls", "count", "lower"),
    ("finitefield.scalar_add_calls", "count", "lower"),
    ("surjectivity.label_plane_calls", "count", "lower"),
    ("surjectivity.label_plane_self_s", "s", "lower"),
    ("surjectivity.test_pencil_calls", "count", "lower"),
    ("surjectivity.test_pencil_self_s", "s", "lower"),
    *((f"surjectivity.verdict.{v}", "count", "lower") for v in VERDICTS),
    *((f"surjectivity.witness_degree.d{d}", "count", "lower") for d in LEVELS),
    ("surjectivity.forward_oracle_calls", "count", "lower"),
    ("surjectivity.forward_oracle_self_s", "s", "lower"),
    ("surjectivity.uncovered_targets", "count", "lower"),
    *((f"scan.witness_s.d{d}", "s", "lower") for d in LEVELS),
    *((f"scan.witness_points.d{d}", "count", "lower") for d in LEVELS),
    ("scan.witness_mpts_per_s", "Mpts/s", "higher"),
    *((f"scan.covered_s.d{d}", "s", "lower") for d in LEVELS),
    *((f"scan.covered_points.d{d}", "count", "lower") for d in LEVELS),
    ("scan.covered_mpts_per_s", "Mpts/s", "higher"),
    ("scan.tables_s", "s", "lower"),
    ("network.features_s", "s", "lower"),
    ("network.features_calls", "count", "lower"),
    ("network.loss_and_grad_s", "s", "lower"),
    ("network.loss_and_grad_calls", "count", "lower"),
    ("network.gemm_mflop_per_step", "MFLOP", "lower"),
    ("network.gemm_gflops_per_s", "GFLOP/s", "higher"),
    ("network.adam_step_s", "s", "lower"),
    ("network.adam_share", "ratio", "lower"),
    ("network.adam_mbytes_per_step", "MB", "lower"),
    ("network.adam_gbytes_per_s", "GB/s", "higher"),
    ("network.forward_s", "s", "lower"),
    ("network.checkpoint_s", "s", "lower"),
    ("certify.verify_case_s", "s", "lower"),
    ("certify.checks", "count", "higher"),
    ("certify.numeric_preimage_s", "s", "lower"),
    ("certify.solve_roots_calls", "count", "lower"),
    ("ratpoly.mul_calls", "count", "lower"),
    ("trace.overhead_ratio", "ratio", "higher"),
)

# derived from shapes and call counts rather than timed or counted directly
COMPUTED = frozenset(
    ["dataset.triples", "scan.witness_mpts_per_s", "scan.covered_mpts_per_s",
     "network.gemm_mflop_per_step", "network.gemm_gflops_per_s",
     "network.adam_mbytes_per_step", "network.adam_gbytes_per_s"]
    + [f"scan.{kind}_points.d{d}" for kind in ("witness", "covered") for d in LEVELS]
)


def _ratio(num, den):
    return num / den if den else 0.0


def _scan_metrics(tracer, kind):
    out = {}
    points = seconds = 0.0
    for d in LEVELS:
        name = f"_scan.{kind}.d{d}"
        q = 2**d
        level_points = tracer.calls(name) * (q * q + q + 1)
        level_s = tracer.self_time(name)
        out[f"scan.{kind}_s.d{d}"] = level_s
        out[f"scan.{kind}_points.d{d}"] = level_points
        points += level_points
        seconds += level_s
    out[f"scan.{kind}_mpts_per_s"] = _ratio(points, seconds) / 1e6
    return out


def layer_metrics(first_touch, traced, overhead_ratio):
    """Every per-layer metric; a layer the workload does not run reports 0."""
    v = traced.counts
    m = {
        "dataset.self_s": traced.self_time("dataset.generate_dataset"),
        "dataset.triples": v["dataset.triples"],
        "dataset.subspaces": v["dataset.subspaces"],
        "dataset.subspace_yield": _ratio(v["dataset.subspaces"], v["dataset.triples"]),
        "dataset.write_s": traced.total("dataset.write_output"),
        "dataset.read_s": first_touch.total("dataset.read_output"),
        "linsys.make_plane_calls": traced.calls("linsys.make_plane"),
        "linsys.make_plane_s": traced.total("linsys.make_plane"),
        "linsys.plane_admit_ratio": _ratio(v["linsys.planes_admitted"], traced.calls("linsys.make_plane")),
        "linsys.pencil_s": traced.total("linsys.pencil"),
        "forms.combine_calls": traced.calls("forms.combine"),
        "forms.combine_s": traced.total("forms.combine"),
        "forms.gcd_calls": traced.calls("forms.gcd"),
        "forms.gcd_s": traced.total("forms.gcd"),
        "finitefield.scalar_mul_calls": v["finitefield.scalar_mul"],
        "finitefield.scalar_add_calls": v["finitefield.scalar_add"],
        "surjectivity.label_plane_calls": traced.calls("surjectivity.label_plane"),
        "surjectivity.label_plane_self_s": traced.self_time("surjectivity.label_plane"),
        "surjectivity.test_pencil_calls": traced.calls("surjectivity.test_pencil"),
        "surjectivity.test_pencil_self_s": traced.self_time("surjectivity.test_pencil"),
    }
    for verdict in VERDICTS:
        m[f"surjectivity.verdict.{verdict}"] = v[f"surjectivity.verdict.{verdict}"]
    for d in LEVELS:
        m[f"surjectivity.witness_degree.d{d}"] = v[f"surjectivity.witness_degree.d{d}"]
    m["surjectivity.forward_oracle_calls"] = traced.calls("surjectivity.forward_oracle")
    m["surjectivity.forward_oracle_self_s"] = traced.self_time("surjectivity.forward_oracle")
    m["surjectivity.uncovered_targets"] = v["surjectivity.uncovered_targets"]
    m.update(_scan_metrics(traced, "witness"))
    m.update(_scan_metrics(traced, "covered"))
    m["scan.tables_s"] = first_touch.outer_total("_scan.tables")
    steps = traced.calls("network.loss_and_grad")
    grad_s = traced.total("network.loss_and_grad")
    adam_steps = traced.calls("network.adam_step")
    adam_s = traced.total("network.adam_step")
    m.update({
        "network.features_s": traced.total("network.features"),
        "network.features_calls": traced.calls("network.features"),
        "network.loss_and_grad_s": grad_s,
        "network.loss_and_grad_calls": steps,
        "network.gemm_mflop_per_step": _ratio(v["network.gemm_flop"], steps) / 1e6,
        "network.gemm_gflops_per_s": _ratio(v["network.gemm_flop"], grad_s) / 1e9,
        "network.adam_step_s": adam_s,
        "network.adam_share": _ratio(adam_s, traced.total("network.train")),
        "network.adam_mbytes_per_step": _ratio(v["network.adam_bytes"], adam_steps) / 1e6,
        "network.adam_gbytes_per_s": _ratio(v["network.adam_bytes"], adam_s) / 1e9,
        "network.forward_s": traced.total("network.forward"),
        "network.checkpoint_s": traced.total("network.checkpoint"),
        "certify.verify_case_s": traced.total("certify.verify_case"),
        "certify.checks": v["certify.checks"],
        "certify.numeric_preimage_s": traced.total("certify.numeric_preimage"),
        "certify.solve_roots_calls": v["certify.solve_roots"],
        "ratpoly.mul_calls": v["ratpoly.mul"],
        "trace.overhead_ratio": overhead_ratio,
    })
    return m

