"""Tracing of the netcontrast layers from outside the program.

A `Tracer` wraps every public function (and every public method of a public
class) that a layer module defines, at every module attribute that binds it:
the home module, any layer that imported it by name, and the package
namespace.  Calls between layers then pass through a wrapper that records a
span (name, layer, start, end, parent span, op id) plus counts read from the
return value.  Spans stay in memory; `write` dumps them when the run ends.

The wrappers are installed only inside `Tracer.active`, so untraced ops run
the unmodified program.
"""

import contextlib
import functools
import importlib
import inspect
import json
import os
import time

from dataclasses import dataclass, field

PACKAGE = "netcontrast"
LAYERS = ("cli", "matio", "model", "spectral", "support", "refine", "harness")


def _solver_counts(args, kwargs, out):
    return {"iterations": int(out.iterations), "converged": bool(out.converged)}


def _read_counts(args, kwargs, out):
    path = args[0] if args else kwargs["path"]
    return {"bytes": os.path.getsize(path)}


# counts read from return values (or arguments) at the layer boundary
COUNTERS = {
    "support.solve_sdp": _solver_counts,
    "support.group_lasso": _solver_counts,
    "matio.read_matrix": _read_counts,
}


@dataclass
class Span:
    sid: int
    name: str           # "<layer>.<function>" or "<layer>.<Class>.<method>"
    layer: str
    start: float
    end: float
    parent: int | None
    op: str
    counts: dict = field(default_factory=dict)
    error: bool = False

    @property
    def duration(self):
        return self.end - self.start


def _public_callables(module):
    """(owner, attribute, function, span name) for everything `module` defines."""
    layer = module.__name__.rsplit(".", 1)[-1]
    found = []
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            found.append((module, name, obj, f"{layer}.{name}"))
        elif inspect.isclass(obj):
            for attr, member in vars(obj).items():
                if not attr.startswith("_") and inspect.isfunction(member):
                    found.append((obj, attr, member, f"{layer}.{name}.{attr}"))
    return found


class Tracer:
    """Span recorder for one benchmark run."""

    def __init__(self):
        self.package = importlib.import_module(PACKAGE)
        self.modules = {layer: importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS}
        self.spans = []
        self._stack = []
        self._op = None
        self._patches = self._plan_patches()

    def _plan_patches(self):
        """Every (owner, attribute) to replace, with its wrapper.

        Functions get one wrapper each, installed at every module attribute
        that is bound to the function object; class methods are patched on
        the class, which every binding of the class shares.
        """
        wrappers = {}
        patches = []
        for module in self.modules.values():
            for owner, attr, fn, name in _public_callables(module):
                wrapper = self._wrap(fn, name)
                if inspect.isclass(owner):
                    patches.append((owner, attr, fn, wrapper))
                else:
                    wrappers[fn] = wrapper
        for ns in (self.package, *self.modules.values()):
            for attr, obj in vars(ns).items():
                if inspect.isfunction(obj) and obj in wrappers:
                    patches.append((ns, attr, obj, wrappers[obj]))
        return patches

    def _wrap(self, fn, name):
        layer = name.split(".", 1)[0]
        counter = COUNTERS.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else None
            span = Span(sid, name, layer, 0.0, 0.0, parent, tracer._op)
            tracer.spans.append(span)
            tracer._stack.append(sid)
            span.start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                span.error = True
                raise
            finally:
                span.end = time.perf_counter()
                tracer._stack.pop()
            if counter is not None:
                span.counts = counter(args, kwargs, out)
            return out

        return wrapper

    @property
    def bindings(self):
        """(owner, attribute, original) for every patched name."""
        return [(owner, attr, orig) for owner, attr, orig, _ in self._patches]

    @contextlib.contextmanager
    def active(self, op):
        """Install the wrappers for the duration of one op (or one set-up)."""
        self._op = op
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)
        try:
            yield
        finally:
            for owner, attr, orig, _ in self._patches:
                setattr(owner, attr, orig)
            self._op = None

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "id": s.sid, "name": s.name, "layer": s.layer, "op": s.op,
                    "start": s.start, "end": s.end, "parent": s.parent,
                    "counts": s.counts, "error": s.error,
                }) + "\n")


def self_times(spans):
    """Span duration minus the durations of its direct children, by span id.

    Spans of one thread nest strictly, so the children cover disjoint parts
    of the parent's interval.
    """
    own = {s.sid: s.duration for s in spans}
    for s in spans:
        if s.parent is not None and s.parent in own:
            own[s.parent] -= s.duration
    return own


# span name -> per-layer time metric; names not listed go to the layer default
_BUCKETS = {
    "matio.write_matrix": "matio.write_s",
    "spectral.spectral_init": "spectral.init_s",
    "support.build_cost": "support.cost_s",
    "support.solve_sdp": "support.sdp_s",
    "support.select_m": "support.sdp_s",
    "support.SdpSolution.z": "support.sdp_s",
    "support.group_lasso": "support.glasso_s",
    "support.group_lasso_path": "support.glasso_s",
    "support.group_lasso_support": "support.glasso_s",
    "support.lambda_grid": "support.glasso_s",
    "support.lambda_max": "support.glasso_s",
    "support.GroupLassoResult.perturbation": "support.glasso_s",
    "refine.asymmetric_eigenpairs": "refine.asym_eig_s",
    "refine.eigenspace_correction": "refine.correction_s",
}
_LAYER_BUCKET = {
    "cli": "cli.self_s",
    "matio": "matio.read_s",
    "model": "model.sample_s",
    "spectral": "spectral.screen_s",
    "support": "support.extract_s",
    "refine": "refine.other_s",
    "harness": "harness.self_s",
}

# every per-layer metric a traced run reports, with its unit
PER_LAYER = {
    "cli.self_s": "s",
    "matio.read_s": "s",
    "matio.read_calls": "count",
    "matio.read_mb": "MB",
    "matio.write_s": "s",
    "model.sample_s": "s",
    "model.calls": "count",
    "model.setup_sample_s": "s",
    "spectral.init_s": "s",
    "spectral.screen_s": "s",
    "support.cost_s": "s",
    "support.sdp_s": "s",
    "support.sdp_calls": "count",
    "support.sdp_iterations": "count",
    "support.sdp_converged_frac": "ratio",
    "support.glasso_s": "s",
    "support.glasso_calls": "count",
    "support.glasso_iterations": "count",
    "support.glasso_converged_frac": "ratio",
    "support.extract_s": "s",
    "refine.asym_eig_s": "s",
    "refine.asym_eig_calls": "count",
    "refine.correction_s": "s",
    "refine.other_s": "s",
    "harness.self_s": "s",
    **{f"{layer}.share": "ratio" for layer in LAYERS},
    "trace.self_sum_frac": "ratio",
    "trace.overhead_frac": "ratio",
}


def layer_metrics(spans, op_ids, setup_ids, op_wall_s):
    """Per-layer metrics from the spans of traced ops and traced set-ups.

    Times, calls and iterations are means per op; matio.write_s and
    model.setup_sample_s are means per set-up; shares divide a layer's self
    time by the summed wall time of the traced ops.  A converged fraction
    over zero calls reads 0.  trace.overhead_frac is filled in by the caller.
    """
    own = self_times(spans)
    op_ids, setup_ids = set(op_ids), set(setup_ids)
    per_op = {name: 0.0 for name in PER_LAYER}
    per_setup = {"matio.write_s": 0.0, "model.setup_sample_s": 0.0}
    layer_self = {layer: 0.0 for layer in LAYERS}
    converged = {"sdp": 0, "glasso": 0}
    for s in spans:
        if s.op in setup_ids:
            if s.layer == "matio":
                per_setup["matio.write_s"] += own[s.sid]
            elif s.layer == "model":
                per_setup["model.setup_sample_s"] += own[s.sid]
            continue
        if s.op not in op_ids:
            continue
        layer_self[s.layer] += own[s.sid]
        per_op[_BUCKETS.get(s.name, _LAYER_BUCKET[s.layer])] += own[s.sid]
        if s.name == "matio.read_matrix":
            per_op["matio.read_calls"] += 1
            per_op["matio.read_mb"] += s.counts.get("bytes", 0) / 1e6
        elif s.layer == "model":
            per_op["model.calls"] += 1
        elif s.name == "refine.asymmetric_eigenpairs":
            per_op["refine.asym_eig_calls"] += 1
        elif s.name in ("support.solve_sdp", "support.group_lasso"):
            kind = "sdp" if s.name == "support.solve_sdp" else "glasso"
            per_op[f"support.{kind}_calls"] += 1
            per_op[f"support.{kind}_iterations"] += s.counts.get("iterations", 0)
            converged[kind] += bool(s.counts.get("converged"))
    out = {}
    n_ops = max(len(op_ids), 1)
    for name, total in per_op.items():
        out[name] = total / n_ops
    for kind, hits in converged.items():
        calls = per_op[f"support.{kind}_calls"]
        out[f"support.{kind}_converged_frac"] = hits / calls if calls else 0.0
    for name, total in per_setup.items():
        out[name] = total / max(len(setup_ids), 1)
    for layer, total in layer_self.items():
        out[f"{layer}.share"] = total / op_wall_s if op_wall_s > 0 else 0.0
    out["trace.self_sum_frac"] = sum(layer_self.values()) / op_wall_s if op_wall_s > 0 else 0.0
    out["trace.overhead_frac"] = 0.0
    return out
