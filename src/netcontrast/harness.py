"""Reproducible Monte-Carlo experiment harness.

Presets mirror the synthetic studies behind the estimators at desk scale:
support-recovery phase transitions, the decoy construction where row-energy
methods fail, multi-copy and truncated costs under heteroscedastic or
heavy-tailed noise, screening on spiky eigenvectors, refinement error sweeps,
and the group-lasso penalty path.  Runs are deterministic for a given base
seed regardless of thread count: every trial derives its generators from
(seed, n-index, point-index, trial, stream) and rows are emitted in a fixed
order.
"""

import ast
import csv
import logging
import math
import operator
import time

from collections import UserDict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields, replace
from functools import partial

import numpy as np

from . import model, refine, spectral, support

logger = logging.getLogger(__name__)


class ConfigError(Exception):
    """Invalid experiment configuration (bad key, value, rule, or preset)."""


# ---------------------------------------------------------------------------
# rule expressions

_RULE_NAMES = {
    name: getattr(math, name)
    for name in ("log", "log2", "log10", "sqrt", "exp", "ceil", "floor", "pi", "e")
}
_RULE_NAMES.update(abs=abs, min=min, max=max)


_RULE_OPS = {
    ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul,
    ast.Div: operator.truediv, ast.Pow: operator.pow,
    ast.UAdd: operator.pos, ast.USub: operator.neg,
}
_RULE_MAX_BITS = 1 << 20


def eval_rule(expr, **variables):
    """Evaluate a scalar rule like "2*n**(-0.25)*log(n)**0.25".

    The expression may hold int and float literals, the supplied variables,
    the math helpers (log, log2, log10, sqrt, exp, ceil, floor, pi, e, abs,
    min, max), binary + - * / **, unary + and -, and calls of the helpers;
    anything else raises ConfigError.  An integer power whose result would
    exceed 2**20 bits is refused rather than computed.
    """
    names = {**_RULE_NAMES, **variables}

    def value(node):
        if isinstance(node, ast.Constant) and type(node.value) in (int, float):
            return node.value
        if isinstance(node, ast.Name) and node.id in names:
            return names[node.id]
        if isinstance(node, ast.BinOp) and type(node.op) in _RULE_OPS:
            left, right = value(node.left), value(node.right)
            if (isinstance(node.op, ast.Pow) and isinstance(left, int)
                    and isinstance(right, int) and left.bit_length() * right > _RULE_MAX_BITS):
                raise ValueError("integer power is too large")
            return _RULE_OPS[type(node.op)](left, right)
        if isinstance(node, ast.UnaryOp) and type(node.op) in _RULE_OPS:
            return _RULE_OPS[type(node.op)](value(node.operand))
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in _RULE_NAMES and not node.keywords):
            return names[node.func.id](*[value(arg) for arg in node.args])
        raise ValueError(f"{type(node).__name__} {ast.unparse(node)!r} is not allowed")

    try:
        return float(value(ast.parse(expr, mode="eval").body))
    except Exception as exc:
        raise ConfigError(f"cannot evaluate rule {expr!r}: {exc}") from None


# ---------------------------------------------------------------------------
# configuration

_CONFIG_KEYS = {
    "preset", "n", "trials", "seed", "methods", "params", "timing",
    "r", "m", "mu", "sigma_b", "eigenvalues",
    "noise", "sigma", "sigma_min", "sigma_max", "truncation",
    "c_screen",
} | {f.name for f in fields(support.SolverOptions)}


@dataclass
class ExperimentConfig:
    """A preset name plus overrides; None fields fall back to preset defaults."""

    preset: str
    n_list: tuple = None
    trials: int = None
    seed: int = 0
    methods: tuple = None
    params: tuple = None
    timing: bool = False
    options: dict = field(default_factory=dict)


def read_config(path):
    """Parse a flat key=value config file ('#' starts a comment)."""
    return config_from_mapping(read_config_mapping(path))


def read_config_mapping(path):
    """The key -> value strings of a config file, before any conversion."""
    raw = {}
    try:
        fh = open(path, encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"{path}: {exc.strerror or exc}") from None
    with fh:
        for lineno, line in enumerate(fh, 1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            if "=" not in text:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
            key, _, val = text.partition("=")
            key = key.strip()
            val = val.strip()
            if key not in _CONFIG_KEYS:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            if key in raw:
                raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
            if not val:
                raise ConfigError(f"{path}:{lineno}: empty value for {key!r}")
            raw[key] = val
    if "preset" not in raw:
        raise ConfigError(f"{path}: missing required key 'preset'")
    return raw


def config_from_mapping(raw):
    raw = dict(raw)
    for key in raw:
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"unknown key {key!r}")
    try:
        cfg = ExperimentConfig(
            preset=raw.pop("preset"),
            n_list=_int_tuple(raw.pop("n")) if "n" in raw else None,
            trials=int(raw.pop("trials")) if "trials" in raw else None,
            seed=int(raw.pop("seed", 0)),
            methods=_str_tuple(raw.pop("methods")) if "methods" in raw else None,
            params=_str_tuple(raw.pop("params")) if "params" in raw else None,
            timing=_parse_bool("timing", raw.pop("timing", "0")),
            options=raw,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return cfg


def _int_tuple(text):
    return tuple(int(tok) for tok in text.split(",") if tok.strip() != "")


def _str_tuple(text):
    return tuple(tok.strip() for tok in text.split(",") if tok.strip() != "")


def _parse_bool(key, text):
    lowered = str(text).strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"{key} expects a boolean, got {text!r}")


# ---------------------------------------------------------------------------
# results

@dataclass
class ResultRow:
    n: int
    method: str
    param: str
    trial: int
    value: float
    runtime_ms: float
    converged: bool


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    rows: list

    def summary(self):
        """Per-(n, method, param) mean, sd and 95% bootstrap CI (1000
        resamples) over non-nan values."""
        groups = {}
        for row in self.rows:
            groups.setdefault((row.n, row.method, row.param), []).append(row.value)
        out = []
        for gi, ((n, method, param), values) in enumerate(groups.items()):
            vals = np.array([v for v in values if not math.isnan(v)])
            mean = sd = lo = hi = math.nan
            if vals.size:
                mean = lo = hi = float(vals.mean())
                sd = 0.0
            if vals.size > 1:
                sd = float(vals.std(ddof=1))
                rng = np.random.default_rng(
                    np.random.SeedSequence(self.config.seed, spawn_key=(1 << 20, gi)))
                lo, hi = bootstrap_ci(vals, rng=rng)
            out.append({"n": n, "method": method, "param": param, "mean": mean, "sd": sd,
                        "ci_low": lo, "ci_high": hi, "count": int(vals.size)})
        return out


def bootstrap_ci(samples, level=0.95, resamples=1000, rng=None):
    """Percentile bootstrap interval for the mean."""
    arr = np.asarray(samples, dtype=float)
    if arr.size < 2:
        raise ValueError("need at least 2 samples")
    if not 0.0 < level < 1.0:
        raise ValueError("level must be in (0, 1)")
    rng = rng if rng is not None else np.random.default_rng(0)
    idx = rng.integers(0, arr.size, size=(resamples, arr.size))
    means = arr[idx].mean(axis=1)
    half = 100.0 * (1.0 - level) / 2.0
    return float(np.percentile(means, half)), float(np.percentile(means, 100.0 - half))


def _fmt_value(v):
    return "nan" if math.isnan(v) else f"{v:.10g}"


def write_results(result, path):
    """Rows as CSV with header n,method,param,trial,value,runtime_ms,converged."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["n", "method", "param", "trial", "value", "runtime_ms", "converged"])
        for r in result.rows:
            writer.writerow([r.n, r.method, r.param, r.trial,
                             _fmt_value(r.value), f"{r.runtime_ms:.3f}", int(r.converged)])


def write_summary(result, path):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["n", "method", "param", "mean", "sd", "ci_low", "ci_high", "count"])
        for g in result.summary():
            writer.writerow([g["n"], g["method"], g["param"],
                             _fmt_value(g["mean"]), _fmt_value(g["sd"]),
                             _fmt_value(g["ci_low"]), _fmt_value(g["ci_high"]), g["count"]])


# ---------------------------------------------------------------------------
# engine

@dataclass
class _Plan:
    n_list: tuple
    trials: int
    methods: tuple
    params: tuple           # the param labels of the rows
    points: tuple           # the converted points, one seeded task each
    cell: object
    # cell(n, point, data_rng) -> {method: run}, one run per method of the
    # trial drawn from data_rng; run(rng) -> {param: (value, converged)}


def _child_rng(seed, ni, pj, trial, stream):
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(ni, pj, trial, stream)))


def run_experiment(cfg, threads=1):
    """Run a configured experiment; deterministic given cfg and seed.

    Each method's run gets its own generator and, under cfg.timing, its
    runtime, shared evenly by the rows it fills.  A trial that cannot be
    drawn, or a run that raises, is logged and leaves nan rows with a
    cleared convergence flag; it never aborts the sweep.
    """
    if threads < 1:
        raise ConfigError(f"threads must be >= 1, got {threads}")
    plan = build_plan(cfg)
    tasks = [(ni, pj, t)
             for ni in range(len(plan.n_list))
             for pj in range(len(plan.points))
             for t in range(plan.trials)]

    def work(key):
        ni, pj, t = key
        n = plan.n_list[ni]
        try:
            runs = plan.cell(n, plan.points[pj], _child_rng(cfg.seed, ni, pj, t, 0))
        except Exception:
            logger.warning("trial failed (n=%d, point-index=%d, trial=%d)",
                           n, pj, t, exc_info=True)
            return {}
        out = {}
        for k, meth in enumerate(plan.methods):
            t0 = time.perf_counter()
            try:
                got = runs[meth](_child_rng(cfg.seed, ni, pj, t, 1 + k))
            except Exception:
                logger.warning("method %s failed (n=%d, point-index=%d, trial=%d)",
                               meth, n, pj, t, exc_info=True)
                continue
            ms = (time.perf_counter() - t0) * 1e3 / max(len(got), 1) if cfg.timing else 0.0
            out.update(((meth, param), (value, ms, conv)) for param, (value, conv) in got.items())
        return out

    if threads <= 1:
        outs = [work(key) for key in tasks]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            outs = list(pool.map(work, tasks))
    emitted = {}
    for (ni, _, t), out in zip(tasks, outs):
        emitted.setdefault((ni, t), {}).update(out)

    rows = [ResultRow(n, meth, param, t,
                      *emitted[ni, t].get((meth, param), (math.nan, 0.0, False)))
            for ni, n in enumerate(plan.n_list)
            for param in plan.params
            for t in range(plan.trials)
            for meth in plan.methods]
    return ExperimentResult(config=cfg, rows=rows)


# ---------------------------------------------------------------------------
# shared cell helpers

def _convert(key, value, kind):
    """kind(value), int or float, with a ConfigError that names key when the
    value does not convert."""
    try:
        return kind(value)
    except ValueError:
        what = "an integer" if kind is int else "a number"
        raise ConfigError(f"{key} = {value!r} is not {what}") from None


def _positive(o, key, default, kind):
    """o's key (else default) as a finite kind > 0; anything else is a
    ConfigError that names key."""
    value = _convert(key, o.get(key, default), kind)
    if not (math.isfinite(value) and value > 0):
        raise ConfigError(f"{key} must be finite and > 0, got {value:g}")
    return value


def solver_settings(o):
    """The support.SolverOptions set by the keys of o (strings or numbers)
    that name its fields; other keys are ignored, unset fields keep their
    defaults, and bad values raise ConfigError."""
    try:
        return support.SolverOptions(**{
            f.name: _convert(f.name, o[f.name], int if f.type is int else float)
            for f in fields(support.SolverOptions) if f.name in o})
    except ValueError as exc:
        raise ConfigError(f"bad solver setting: {exc}") from None


def _noise_from(o, family):
    """The model.NoiseSpec of o's noise keys; unset ones keep its defaults."""
    try:
        return model.NoiseSpec(family=o.get("noise", family), **{
            k: _convert(k, o[k], float)
            for k in ("sigma", "sigma_min", "sigma_max", "truncation") if k in o})
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _support_runs(methods, param, resids, m, truth, **recover_kw):
    """One trial's run per support method: its FNR at param.  resids is a
    matrix or list of copies; recover_kw (tau, kept, opts) go to
    support.recover."""
    def run(meth, rng):
        idx, sol = support.recover(meth, resids, m, rng=rng, **recover_kw)
        return {param: (support.false_negative_rate(idx, truth), sol is None or sol.converged)}
    return {meth: partial(run, meth) for meth in methods}


def _planted_runs(methods, noise, opts, param, basis, vals, m, sigma_b, c_screen,
                  data_rng, pool=None):
    """One trial's _support_runs on the planted model: a size-m perturbation
    (its rows drawn from pool when given) on the shared matrix of basis and
    vals, one control and one treatment, then stage one at rank
    basis.shape[1], screening at c_screen (none when None)."""
    n, r = basis.shape
    b, truth_sup = model.sample_node_sparse(n, m, sigma_b, data_rng, support_pool=pool)
    gt = model.GroundTruth(basis=basis, eigenvalues=vals, perturbations=[(b, truth_sup)])
    obs = model.assemble_observations(gt, noise, 1, 1, data_rng)
    resids, kept, tau = spectral.stage_one(obs.g1, obs.g0, r, c_screen)
    return _support_runs(methods, param, resids, m, truth_sup, tau=tau, kept=kept, opts=opts)


def _sizes(cfg, n_list, trials):
    """cfg's n list and trial count, else the preset's defaults."""
    return (n_list if cfg.n_list is None else cfg.n_list,
            trials if cfg.trials is None else cfg.trials)


def _check_methods(cfg, allowed, default):
    methods = cfg.methods or default
    bad = [m for m in methods if m not in allowed]
    if bad:
        raise ConfigError(f"methods {bad} not valid for preset {cfg.preset!r}")
    return methods


# the support methods that a preset's cells can feed: sdp-multi needs two
# residual copies and sdp-trunc a noise scale
_ONE_COPY = tuple(m for m in support.METHODS if m != "sdp-multi")
_TWO_COPIES_NO_TAU = tuple(m for m in support.METHODS if m != "sdp-trunc")


# Builders convert every rule and point once, at plan build, into per-n
# tables {n: value}; a value the samplers would reject is a ConfigError here
def _rule_at(what, expr, n_list, positive=False, **extra):
    """{n: expr at n}; an expr that does not evaluate, or that is not finite
    (and > 0 when positive is set) at some n, is a ConfigError naming what."""
    try:
        values = {n: eval_rule(expr, n=n, **extra) for n in n_list}
    except ConfigError as exc:
        raise ConfigError(f"{what}: {exc}") from None
    for n, val in values.items():
        if not math.isfinite(val) or (positive and val <= 0):
            raise ConfigError(f"{what} is not finite{' and > 0' if positive else ''} at n={n}")
    return values


def _m_rule(o, default, n_list, methods=(), **extra):
    """{n: support size} of the rule m, after checking that it rounds to
    1 <= m < n at every n, as the samplers require, and, when methods hold
    lse, that C(n, m) is within the exhaustive search's bound (screening
    only shrinks n, so the bound at n holds after it)."""
    expr = o.get("m", default)
    sizes = _rule_at(f"rule m = {expr!r}", expr, n_list, **extra)
    for n, m in sizes.items():
        if not 1 <= round(m) < n:
            raise ConfigError(f"rule m = {expr!r} gives m={m:g} at n={n}; "
                              "need 1 <= round(m) < n")
        if "lse" in methods and math.comb(n, round(m)) > support._EXHAUSTIVE_MAX:
            raise ConfigError(f"method lse at n={n}, m={round(m)} would score "
                              f"C(n, m) = {math.comb(n, round(m)):.3g} supports; "
                              f"the limit is {support._EXHAUSTIVE_MAX}")
    return {n: int(round(m)) for n, m in sizes.items()}


def _mu_rule(what, expr, n_list, r):
    """{n: coherence mu} of expr, after checking that it lies in the
    samplers' range [1, n/r] at every n."""
    mus = _rule_at(what, expr, n_list, r=r)
    for n, mu in mus.items():
        if not 1.0 <= mu <= n / r:
            raise ConfigError(f"{what} at n={n}: mu={mu:g} must lie in [1, n/r={n / r:g}]")
    return mus


def _eigenvalues(o, n_list, r):
    """{n: planted eigenvalues i = 1..r} of the rule eigenvalues."""
    expr = o.get("eigenvalues", "3*sqrt(n) + (r - i)*log(n)")
    by_i = [_rule_at(f"rule eigenvalues = {expr!r}", expr, n_list, i=i, r=r)
            for i in range(1, r + 1)]
    return {n: np.array([vals[n] for vals in by_i]) for n in n_list}


def _coefficient_points(cfg, params, o, n_list, **extra):
    """(param, {n: sigma_b}) per C-coefficient param: C must be a number and
    the rule sigma_b finite and positive at every (n, C)."""
    expr = o.get("sigma_b", "C * n**(-0.25) * log(n)**0.25")
    return tuple((param, _rule_at(f"{cfg.preset} point {param!r}: rule sigma_b = {expr!r}",
                                  expr, n_list, True, **extra,
                                  C=_convert(f"{cfg.preset} point C", param, float)))
                 for param in params)


def _point_fields(what, param, required, optional=()):
    """The fields of point param, "key=value|key=value": each of required
    once, and each of optional at most once."""
    fields = {}
    for part in param.split("|"):
        key, _, val = (s.strip() for s in part.partition("="))
        if not val or key not in required + optional or key in fields:
            raise ConfigError(f"{what}: field {part!r} is malformed, unknown or repeated")
        fields[key] = val
    if not set(required) <= fields.keys():
        raise ConfigError(f"{what} needs {'|'.join(k + '=...' for k in required)}")
    return fields


# ---------------------------------------------------------------------------
# presets

def _build_snr(cfg):
    """Planted-model FNR sweep over the perturbation scale coefficient C."""
    n_list, trials = _sizes(cfg, (300,), 20)
    methods = _check_methods(cfg, _ONE_COPY, ("sdp", "glasso"))
    params = cfg.params or ("0.8", "1.2", "1.6", "2.0", "2.4")
    o = cfg.options
    opts = solver_settings(o)
    r = _positive(o, "r", 3, int)
    mus = _mu_rule("exp-snr mu", o.get("mu", "log(n)"), n_list, r)
    sizes = _m_rule(o, "10", n_list, methods, r=r)
    points = _coefficient_points(cfg, params, o, n_list, r=r)
    eigenvalues = _eigenvalues(o, n_list, r)
    planted = partial(_planted_runs, methods, _noise_from(o, "gaussian-iid"), opts)
    c_screen = _positive(o, "c_screen", spectral.C_SCREEN, float)

    def cell(n, point, data_rng):
        param, sigma_b = point
        basis = model.sample_incoherent_basis(n, r, mus[n], data_rng)
        return planted(param, basis, eigenvalues[n], sizes[n], sigma_b[n], c_screen, data_rng)

    return _Plan(n_list, trials, methods, params, points, cell)


def _build_glfail(cfg):
    """Decoy construction: planted rows plus decoy rows with larger energy."""
    n_list, trials = _sizes(cfg, (200,), 50)
    if min(n_list) < 100:
        raise ConfigError(f"{cfg.preset}: the decoy construction needs n >= 100, "
                          f"got n={min(n_list)}")
    # one copy and no noise scale; lse is out, as the decoy support's
    # m = floor(2 sqrt(n)) >= 20 rows puts it far above the search's bound
    methods = _check_methods(cfg, ("sdp", "glasso", "hard"), ("sdp", "glasso", "hard"))
    params = cfg.params or ("decoy",)
    o = cfg.options
    opts = solver_settings(o)
    noise = _noise_from(o, "gaussian-iid")

    def cell(n, param, data_rng):
        b, signal, _ = model.sample_decoy_perturbation(n, data_rng)
        return _support_runs(methods, param, model._noisy(b, noise, data_rng), len(signal),
                             signal, opts=opts)

    return _Plan(n_list, trials, methods, params, params, cell)


def _build_contrast(cfg, copies, family, allowed, default, c_default):
    """Support costs on noisy copies of a planted perturbation: exp-multicopy
    sets the product cost of two copies against the squared average under
    row-hetero noise, exp-heavytail the truncated cost of one copy against
    the vanilla one under scaled Student-t(4) noise."""
    n_list, trials = _sizes(cfg, (400,), 20)
    methods = _check_methods(cfg, allowed, default)
    params = cfg.params or (c_default,)
    o = cfg.options
    opts = solver_settings(o)
    sizes = _m_rule(o, "ceil(2*log(n))", n_list, methods)
    points = _coefficient_points(cfg, params, o, n_list)
    noise = _noise_from(o, family)

    def cell(n, point, data_rng):
        param, sigma_b = point
        m = sizes[n]
        b, truth_sup = model.sample_node_sparse(n, m, sigma_b[n], data_rng)
        ys = [model._noisy(b, noise, data_rng) for _ in range(copies)]
        # only sdp-trunc reads the noise scale: a rank-0 stage one's, of the first copy
        tau = spectral.stage_one(ys[:1], [], 0, None)[2] if "sdp-trunc" in methods else None
        return _support_runs(methods, param, ys, m, truth_sup, tau=tau, opts=opts)

    return _Plan(n_list, trials, methods, params, points, cell)


def _build_coherence(cfg):
    """Screening on/off across eigenvector coherence levels."""
    n_list, trials = _sizes(cfg, (500,), 20)
    methods = _check_methods(cfg, _ONE_COPY, ("sdp",))
    mu_exprs = ("log(n)", "sqrt(n/log(n))", "sqrt(n)*log(n)", "n**0.75")
    params = cfg.params or tuple(
        f"mu={expr}|screen={arm}" for expr in mu_exprs for arm in ("on", "off"))
    o = cfg.options
    opts = solver_settings(o)
    # rank stays at 3 so the whole default mu grid respects the sampler cap
    # mu <= n/r; the screening-necessity band at mu = n^0.75 is sharper at
    # r=4 (spiky-row error energy grows with r) -- set r explicitly for that
    r = _positive(o, "r", 3, int)
    points = []
    for param in params:
        what = f"exp-coherence point {param!r}"
        fields = _point_fields(what, param, ("mu",), ("screen",))
        screen = _parse_bool(f"{what}: screen", fields.get("screen", "on"))
        points.append((param, _mu_rule(what, fields["mu"], n_list, r), screen))
    sizes = _m_rule(o, "10", n_list, methods, r=r)
    sb_expr = o.get("sigma_b", "2 * n**(-0.25) * log(n)**0.25")
    sigma_b = _rule_at(f"rule sigma_b = {sb_expr!r}", sb_expr, n_list, True, r=r)
    eigenvalues = _eigenvalues(o, n_list, r)
    planted = partial(_planted_runs, methods, _noise_from(o, "gaussian-iid"), opts)
    c_screen = _positive(o, "c_screen", spectral.C_SCREEN, float)

    def cell(n, point, data_rng):
        param, mus, screen = point
        m = sizes[n]
        basis = model.sample_incoherent_basis(n, r, mus[n], data_rng)
        pool = None
        if screen:
            quiet = np.flatnonzero(np.linalg.norm(basis, axis=1) <= c_screen * n ** -0.25)
            pool = quiet if quiet.size > m else None
        return planted(param, basis, eigenvalues[n], m, sigma_b[n],
                       c_screen if screen else None, data_rng, pool)

    return _Plan(n_list, trials, methods, params, tuple(points), cell)


def _refine_runs(methods, param, n, mu, vals, noise, data_rng):
    """One trial's run per refinement estimator: its linf error at param,
    from four noisy copies (refine.estimate's layout) of the planted matrix
    of vals on an n x len(vals) basis of coherence mu, kept two to an array."""
    r = len(vals)
    basis = model.sample_incoherent_basis(n, r, mu, data_rng)
    mstar = model.GroundTruth(basis=basis, eigenvalues=vals).shared_matrix()
    copies = spectral._pair_copies(model._noisy(mstar, noise, data_rng) for _ in range(4))

    def run(meth, rng):
        ((_, est, _),) = refine.estimate((meth,), r, copies)
        if est is None:
            return {param: (math.nan, False)}
        return {param: (refine.entry_error(est, mstar), True)}
    return {meth: partial(run, meth) for meth in methods}


def _build_refine(cfg):
    """Refinement-estimator errors across coherence and signal-strength points."""
    # n = 800 is the smallest round size at which mu = n^(5/6) <= n/r
    n_list, trials = _sizes(cfg, (800,), 20)
    methods = _check_methods(cfg, refine.ESTIMATORS, refine.ESTIMATORS)
    params = cfg.params or (
        "mu=n**0.8|lmin=2.05", "mu=n**(5/6)|lmin=2.05",
        "mu=n**0.8|lmin=3", "mu=n**(5/6)|lmin=3",
    )
    o = cfg.options
    r = _positive(o, "r", 3, int)
    noise = _noise_from(o, "gaussian-iid")
    points = []
    for param in params:
        what = f"exp-refine point {param!r}"
        fields = _point_fields(what, param, ("mu", "lmin"))
        lmin = _rule_at(what, fields["lmin"], n_list, r=r)
        points.append((param, _mu_rule(what, fields["mu"], n_list, r), {
            n: np.array([lmin[n] * math.sqrt(n) + (r - i) * math.log(n) for i in range(1, r + 1)])
            for n in n_list}))

    def cell(n, point, data_rng):
        param, mus, vals = point
        return _refine_runs(methods, param, n, mus[n], vals[n], noise, data_rng)

    return _Plan(n_list, trials, methods, params, tuple(points), cell)


def _build_eigengap(cfg):
    """Corrected-estimator error as the eigengap ratio grows."""
    n_list, trials = _sizes(cfg, (400,), 30)
    methods = _check_methods(cfg, refine.ESTIMATORS, ("mhat2",))
    params = cfg.params or ("1", "n**(1/6)", "n**(1/3)")
    o = cfg.options
    r = 3
    mus = _mu_rule("exp-eigengap mu", o.get("mu", "sqrt(n)*log(n)"), n_list, r)
    noise = _noise_from(o, "gaussian-iid")

    def eigenvalues(n, ratio):  # gaps log(n) and ratio * log(n) above 3 sqrt(n)
        lam2 = 3.0 * math.sqrt(n) + math.log(n)
        return np.array([lam2 + ratio * math.log(n), lam2, 3.0 * math.sqrt(n)])

    points = tuple((param, {n: eigenvalues(n, ratio) for n, ratio in _rule_at(
        f"exp-eigengap point {param!r}", param, n_list, r=r).items()}) for param in params)

    def cell(n, point, data_rng):
        param, vals = point
        return _refine_runs(methods, param, n, mus[n], vals[n], noise, data_rng)

    return _Plan(n_list, trials, methods, params, points, cell)


def _build_path(cfg):
    """Group-lasso activation path on a planted perturbation plus noise; one
    point draws the whole path, whose grid labels t00, t01, ... are params."""
    n_list, trials = _sizes(cfg, (300,), 20)
    methods = _check_methods(cfg, ("active-count", "penalty"), ("active-count", "penalty"))
    o = cfg.options
    # the path reads only the group-lasso settings, and draws 60 points unless told
    opts = solver_settings({"gl_grid": 60} | {k: o[k] for k in o if k in (
        "gl_grid", "lambda_floor", "gl_tol", "gl_max_iter")})
    labels = tuple(f"t{t:02d}" for t in range(opts.gl_grid))
    params = cfg.params or labels
    for param in params:
        if param not in labels:
            raise ConfigError(f"exp-path point {param!r} is not a label of its "
                              f"{opts.gl_grid}-point grid ({labels[0]}..{labels[-1]})")
    sizes = _m_rule(o, "5", n_list)
    sb_expr = o.get("sigma_b", "1.9 * n**(-0.25) * log(n)**0.25")
    sigma_b = _rule_at(f"rule sigma_b = {sb_expr!r}", sb_expr, n_list, True)
    noise = _noise_from(o, "gaussian-iid")

    def cell(n, point, data_rng):
        b, _ = model.sample_node_sparse(n, sizes[n], sigma_b[n], data_rng)
        y = model._noisy(b, noise, data_rng)
        grid = support.lambda_grid(y, opts.gl_grid, opts.lambda_floor)
        drawn = labels[:grid.size]

        def active_counts(rng):
            return {label: (float((res.alpha > 0).sum()), bool(res.converged))
                    for label, res in zip(drawn, support.group_lasso_path(y, grid, opts))}
        return {"active-count": active_counts,
                "penalty": lambda rng: {label: (float(grid[t]), True)
                                        for t, label in enumerate(drawn)}}

    return _Plan(n_list, trials, methods, params, (None,), cell)


PRESETS = {
    "exp-snr": _build_snr,
    "exp-glfail": _build_glfail,
    "exp-multicopy": partial(_build_contrast, copies=2, family="gaussian-row-hetero",
                             allowed=_TWO_COPIES_NO_TAU, default=("sdp-multi", "sdp"),
                             c_default="3.2"),
    "exp-heavytail": partial(_build_contrast, copies=1, family="scaled-t4", allowed=_ONE_COPY,
                             default=("sdp-trunc", "sdp"), c_default="2.0"),
    "exp-coherence": _build_coherence,
    "exp-refine": _build_refine,
    "exp-eigengap": _build_eigengap,
    "exp-path": _build_path,
}


def preset_names():
    return sorted(PRESETS)


class _ReadLog(UserDict):
    """Options that record in .read each key looked up through them."""

    def __init__(self, items):
        super().__init__(items)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return self.data[key]


def build_plan(cfg):
    """The preset's plan for cfg; an option key that the preset never reads,
    or a method or param point given twice, is a ConfigError."""
    if cfg.preset not in PRESETS:
        raise ConfigError(
            f"unknown preset {cfg.preset!r}; available: {', '.join(preset_names())}")
    if cfg.n_list is not None and not cfg.n_list:
        raise ConfigError("n list is empty")
    if cfg.n_list is not None and min(cfg.n_list) < 1:
        raise ConfigError("n values must be positive")
    if cfg.trials is not None and cfg.trials < 1:
        raise ConfigError("trials must be >= 1")
    options = _ReadLog(cfg.options)
    plan = PRESETS[cfg.preset](replace(cfg, options=options))
    unread = sorted(options.keys() - options.read)
    if unread:
        raise ConfigError(f"preset {cfg.preset!r} does not read {', '.join(unread)}")
    for what, items in (("method", plan.methods), ("point", plan.params)):
        repeated = [x for i, x in enumerate(items) if x in items[:i]]
        if repeated:
            raise ConfigError(f"{cfg.preset}: {what} {repeated[0]!r} is given twice")
    return plan
