"""Reproducible Monte-Carlo experiment harness.

Presets mirror the synthetic studies behind the estimators at desk scale:
support-recovery phase transitions, the decoy construction where row-energy
methods fail, multi-copy and truncated costs under heteroscedastic or
heavy-tailed noise, screening on spiky eigenvectors, refinement error sweeps,
and the group-lasso penalty path.  Runs are deterministic for a given base
seed regardless of thread count: every trial derives its generators from
(seed, n-index, param-index, trial, stream) and rows are emitted in a fixed
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
    "sdp_rank", "sdp_restarts", "sdp_max_inner",
    "gl_rho", "gl_tol", "gl_max_iter", "gl_grid", "lambda_floor",
}


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
            timing=_parse_bool(raw.pop("timing", "0")),
            options=raw,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    if cfg.trials is not None and cfg.trials < 1:
        raise ConfigError("trials must be >= 1")
    if cfg.n_list is not None and any(n < 1 for n in cfg.n_list):
        raise ConfigError("n values must be positive")
    return cfg


def _int_tuple(text):
    return tuple(int(tok) for tok in text.split(",") if tok.strip() != "")


def _str_tuple(text):
    return tuple(tok.strip() for tok in text.split(",") if tok.strip() != "")


def _parse_bool(text):
    lowered = str(text).strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


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

    def summary(self, level=0.95, resamples=1000):
        """Per-(n, method, param) mean, sd, bootstrap CI over non-nan values."""
        groups = {}
        order = []
        for row in self.rows:
            key = (row.n, row.method, row.param)
            if key not in groups:
                groups[key] = []
                order.append(key)
            groups[key].append(row.value)
        out = []
        for gi, key in enumerate(order):
            vals = np.array([v for v in groups[key] if not math.isnan(v)])
            if vals.size == 0:
                out.append({"n": key[0], "method": key[1], "param": key[2],
                            "mean": math.nan, "sd": math.nan,
                            "ci_low": math.nan, "ci_high": math.nan, "count": 0})
                continue
            mean = float(vals.mean())
            sd = float(vals.std(ddof=1)) if vals.size > 1 else 0.0
            if vals.size > 1:
                rng = np.random.default_rng(
                    np.random.SeedSequence(self.config.seed, spawn_key=(1 << 20, gi)))
                lo, hi = bootstrap_ci(vals, level=level, resamples=resamples, rng=rng)
            else:
                lo = hi = mean
            out.append({"n": key[0], "method": key[1], "param": key[2],
                        "mean": mean, "sd": sd, "ci_low": lo, "ci_high": hi,
                        "count": int(vals.size)})
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


def write_summary(result, path, level=0.95, resamples=1000):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["n", "method", "param", "mean", "sd", "ci_low", "ci_high", "count"])
        for g in result.summary(level=level, resamples=resamples):
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
    params: tuple
    cell: object            # see per_trial
    per_trial: bool = False
    # cell signatures:
    #   per_trial=False: cell(n, param, data_rng, method_rngs, timing)
    #                    -> [(method, value, runtime_ms, converged), ...]
    #   per_trial=True:  cell(n, data_rng, method_rngs, timing)
    #                    -> [(method, param, value, runtime_ms, converged), ...]


def _child_rng(seed, ni, pj, trial, stream):
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(ni, pj, trial, stream)))


def run_experiment(cfg, threads=1):
    """Run a configured experiment; deterministic given cfg and seed.

    Per-trial failures are logged and recorded as nan rows with a cleared
    convergence flag; they never abort the sweep.
    """
    plan = build_plan(cfg)
    if plan.per_trial:
        tasks = [(ni, 0, t) for ni in range(len(plan.n_list)) for t in range(plan.trials)]
    else:
        tasks = [(ni, pj, t)
                 for ni in range(len(plan.n_list))
                 for pj in range(len(plan.params))
                 for t in range(plan.trials)]

    def work(key):
        ni, pj, t = key
        n = plan.n_list[ni]
        data_rng = _child_rng(cfg.seed, ni, pj, t, 0)
        mrngs = {meth: _child_rng(cfg.seed, ni, pj, t, 1 + k)
                 for k, meth in enumerate(plan.methods)}
        try:
            if plan.per_trial:
                out = plan.cell(n, data_rng, mrngs, cfg.timing)
            else:
                out = plan.cell(n, plan.params[pj], data_rng, mrngs, cfg.timing)
        except Exception:
            logger.warning("trial failed (n=%d, param-index=%d, trial=%d)",
                           n, pj, t, exc_info=True)
            if plan.per_trial:
                out = [(meth, param, math.nan, 0.0, False)
                       for param in plan.params for meth in plan.methods]
            else:
                out = [(meth, math.nan, 0.0, False) for meth in plan.methods]
        return key, out

    results = {}
    if threads <= 1:
        for key in tasks:
            key, out = work(key)
            results[key] = out
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            for key, out in pool.map(work, tasks):
                results[key] = out

    rows = []
    for ni, n in enumerate(plan.n_list):
        for pj, param in enumerate(plan.params):
            for t in range(plan.trials):
                if plan.per_trial:
                    emitted = {(meth, par): (val, ms, conv)
                               for meth, par, val, ms, conv in results[(ni, 0, t)]}
                    for meth in plan.methods:
                        val, ms, conv = emitted.get((meth, param), (math.nan, 0.0, False))
                        rows.append(ResultRow(n, meth, param, t, val, ms, conv))
                else:
                    for meth, val, ms, conv in results[(ni, pj, t)]:
                        rows.append(ResultRow(n, meth, param, t, val, ms, conv))
    return ExperimentResult(config=cfg, rows=rows)


# ---------------------------------------------------------------------------
# shared cell helpers

def _timed(fn, timing):
    if not timing:
        return fn(), 0.0
    t0 = time.perf_counter()
    out = fn()
    return out, (time.perf_counter() - t0) * 1e3


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


def _support_fnr(methods, resids, tau, m, truth, kept, mrngs, opts, timing):
    """One trial's FNR per support method; resids is a matrix or list of copies."""
    rows = []
    for meth in methods:
        def run(meth=meth):
            idx, sol = support.recover(meth, resids, m, tau=tau, kept=kept,
                                       opts=opts, rng=mrngs[meth])
            return support.false_negative_rate(idx, truth), sol is None or sol.converged
        try:
            (value, conv), ms = _timed(run, timing)
        except Exception:
            logger.warning("method %s failed", meth, exc_info=True)
            value, conv, ms = math.nan, False, 0.0
        rows.append((meth, value, ms, conv))
    return rows


def _planted_truth(n, r, mu, eig_rule, data_rng):
    basis = model.sample_incoherent_basis(n, r, mu, data_rng)
    vals = np.array([eval_rule(eig_rule, n=n, i=i, r=r) for i in range(1, r + 1)])
    return basis, vals


def _check_methods(cfg, allowed, default):
    methods = cfg.methods or default
    bad = [m for m in methods if m not in allowed]
    if bad:
        raise ConfigError(f"methods {bad} not valid for preset {cfg.preset!r}")
    return methods


# the support methods that a preset's cells can feed: sdp-multi needs two
# residual copies and sdp-trunc a noise scale
_ONE_COPY = tuple(m for m in support.METHODS if m != "sdp-multi")
_ONE_COPY_NO_TAU = tuple(m for m in _ONE_COPY if m != "sdp-trunc")
_TWO_COPIES_NO_TAU = tuple(m for m in support.METHODS if m != "sdp-trunc")


def _rule(o, key, default, n_list, extra=None):
    expr = o.get(key, default)
    for n in n_list:
        val = eval_rule(expr, n=n, **(extra or {}))
        if not val > 0:
            raise ConfigError(f"rule {key} = {expr!r} is not positive at n={n}")
    return expr


def _m_rule(o, default, n_list, extra=None):
    """The support-size rule, after checking that it rounds to 1 <= m < n at
    every n, as the samplers require."""
    expr = _rule(o, "m", default, n_list, extra)
    for n in n_list:
        m = eval_rule(expr, n=n, **(extra or {}))
        if not (math.isfinite(m) and 1 <= round(m) < n):
            raise ConfigError(f"rule m = {expr!r} gives m={m:g} at n={n}; "
                              "need 1 <= round(m) < n")
    return expr


def _check_mu(what, expr, n_list, r):
    """expr, after checking that it gives a coherence mu in the samplers'
    range [1, n/r] at every n."""
    for n in n_list:
        mu = eval_rule(expr, n=n, r=r)
        if not 1.0 <= mu <= n / r:
            raise ConfigError(f"{what} at n={n}: mu={mu:g} must lie in [1, n/r={n / r:g}]")
    return expr


# ---------------------------------------------------------------------------
# presets

def _build_snr(cfg):
    """Planted-model FNR sweep over the perturbation scale coefficient C."""
    n_list = cfg.n_list or (300,)
    trials = cfg.trials or 20
    methods = _check_methods(cfg, _ONE_COPY, ("sdp", "glasso"))
    params = cfg.params or ("0.8", "1.2", "1.6", "2.0", "2.4")
    o = cfg.options
    opts = solver_settings(o)
    r = _positive(o, "r", 3, int)
    mu_rule = _check_mu("exp-snr mu", o.get("mu", "log(n)"), n_list, r)
    m_rule = _m_rule(o, "10", n_list, extra={"r": r})
    sb_rule = _rule(o, "sigma_b", "C * n**(-0.25) * log(n)**0.25", n_list,
                    extra={"r": r, "C": 1.0})
    eig_rule = o.get("eigenvalues", "3*sqrt(n) + (r - i)*log(n)")
    noise = _noise_from(o, "gaussian-iid")
    c_screen = _positive(o, "c_screen", spectral.C_SCREEN, float)

    def cell(n, param, data_rng, mrngs, timing):
        coeff = float(param)
        mu = eval_rule(mu_rule, n=n, r=r)
        m = int(round(eval_rule(m_rule, n=n, r=r)))
        sigma_b = eval_rule(sb_rule, n=n, r=r, C=coeff)
        basis, vals = _planted_truth(n, r, mu, eig_rule, data_rng)
        b, truth_sup = model.sample_node_sparse(n, m, sigma_b, data_rng)
        gt = model.GroundTruth(basis=basis, eigenvalues=vals, perturbations=[(b, truth_sup)])
        obs = model.assemble_observations(gt, noise, 1, 1, data_rng)
        resids, kept, tau = spectral.stage_one(obs.g1, obs.g0, r, c_screen)
        return _support_fnr(methods, resids, tau, m, truth_sup, kept, mrngs, opts, timing)

    return _Plan(n_list, trials, methods, params, cell)


def _build_glfail(cfg):
    """Decoy construction: planted rows plus decoy rows with larger energy."""
    n_list = cfg.n_list or (200,)
    if min(n_list) < 100:
        raise ConfigError(f"{cfg.preset}: the decoy construction needs n >= 100, "
                          f"got n={min(n_list)}")
    trials = cfg.trials or 50
    methods = _check_methods(cfg, _ONE_COPY_NO_TAU, ("sdp", "glasso", "hard"))
    params = cfg.params or ("decoy",)
    o = cfg.options
    opts = solver_settings(o)
    noise = _noise_from(o, "gaussian-iid")

    def cell(n, param, data_rng, mrngs, timing):
        b, signal, _ = model.sample_decoy_perturbation(n, data_rng)
        y = b + model.sample_noise(n, noise, data_rng)
        return _support_fnr(methods, y, None, len(signal), signal, None, mrngs, opts, timing)

    return _Plan(n_list, trials, methods, params, cell)


def _build_multicopy(cfg):
    """Product cost from two copies vs squared averaged copy, row-hetero noise."""
    n_list = cfg.n_list or (400,)
    trials = cfg.trials or 20
    methods = _check_methods(cfg, _TWO_COPIES_NO_TAU, ("sdp-multi", "sdp"))
    params = cfg.params or ("3.2",)
    o = cfg.options
    opts = solver_settings(o)
    m_rule = _m_rule(o, "ceil(2*log(n))", n_list)
    sb_rule = _rule(o, "sigma_b", "C * n**(-0.25) * log(n)**0.25", n_list, extra={"C": 1.0})
    noise = _noise_from(o, "gaussian-row-hetero")

    def cell(n, param, data_rng, mrngs, timing):
        coeff = float(param)
        m = int(round(eval_rule(m_rule, n=n)))
        sigma_b = eval_rule(sb_rule, n=n, C=coeff)
        b, truth_sup = model.sample_node_sparse(n, m, sigma_b, data_rng)
        y1 = b + model.sample_noise(n, noise, data_rng)
        y2 = b + model.sample_noise(n, noise, data_rng)
        return _support_fnr(methods, [y1, y2], None, m, truth_sup, None, mrngs, opts, timing)

    return _Plan(n_list, trials, methods, params, cell)


def _build_heavytail(cfg):
    """Truncated vs vanilla cost under scaled Student-t(4) noise."""
    n_list = cfg.n_list or (400,)
    trials = cfg.trials or 20
    methods = _check_methods(cfg, _ONE_COPY, ("sdp-trunc", "sdp"))
    params = cfg.params or ("2.0",)
    o = cfg.options
    opts = solver_settings(o)
    m_rule = _m_rule(o, "ceil(2*log(n))", n_list)
    sb_rule = _rule(o, "sigma_b", "C * n**(-0.25) * log(n)**0.25", n_list, extra={"C": 1.0})
    noise = _noise_from(o, "scaled-t4")

    def cell(n, param, data_rng, mrngs, timing):
        coeff = float(param)
        m = int(round(eval_rule(m_rule, n=n)))
        sigma_b = eval_rule(sb_rule, n=n, C=coeff)
        b, truth_sup = model.sample_node_sparse(n, m, sigma_b, data_rng)
        y = b + model.sample_noise(n, noise, data_rng)
        resids, _, tau = spectral.stage_one([y], [], 0, c_screen=None)
        return _support_fnr(methods, resids, tau, m, truth_sup, None, mrngs, opts, timing)

    return _Plan(n_list, trials, methods, params, cell)


def _parse_param_fields(param):
    fields = {}
    for part in str(param).split("|"):
        key, _, val = part.partition("=")
        if not val:
            raise ConfigError(f"malformed param {param!r}; expected key=value|key=value")
        fields[key.strip()] = val.strip()
    return fields


def _build_coherence(cfg):
    """Screening on/off across eigenvector coherence levels."""
    n_list = cfg.n_list or (500,)
    trials = cfg.trials or 20
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
    for param in params:
        fields = _parse_param_fields(param)
        if "mu" not in fields:
            raise ConfigError(f"exp-coherence point {param!r} needs mu=...")
        _check_mu(f"exp-coherence point {param!r}", fields["mu"], n_list, r)
    m_rule = _m_rule(o, "10", n_list, extra={"r": r})
    sb_rule = _rule(o, "sigma_b", "2 * n**(-0.25) * log(n)**0.25", n_list, extra={"r": r})
    eig_rule = o.get("eigenvalues", "3*sqrt(n) + (r - i)*log(n)")
    noise = _noise_from(o, "gaussian-iid")
    c_screen = _positive(o, "c_screen", spectral.C_SCREEN, float)

    def cell(n, param, data_rng, mrngs, timing):
        fields = _parse_param_fields(param)
        mu = eval_rule(fields["mu"], n=n, r=r)
        screen = _parse_bool(fields.get("screen", "on"))
        m = int(round(eval_rule(m_rule, n=n, r=r)))
        sigma_b = eval_rule(sb_rule, n=n, r=r)
        basis, vals = _planted_truth(n, r, mu, eig_rule, data_rng)
        pool = None
        if screen:
            norms = np.linalg.norm(basis, axis=1)
            quiet = np.flatnonzero(norms <= c_screen * n ** -0.25)
            if quiet.size > m:
                pool = quiet
        b, truth_sup = model.sample_node_sparse(n, m, sigma_b, data_rng, support_pool=pool)
        gt = model.GroundTruth(basis=basis, eigenvalues=vals, perturbations=[(b, truth_sup)])
        obs = model.assemble_observations(gt, noise, 1, 1, data_rng)
        resids, kept, tau = spectral.stage_one(obs.g1, obs.g0, r, c_screen if screen else None)
        return _support_fnr(methods, resids, tau, m, truth_sup, kept, mrngs, opts, timing)

    return _Plan(n_list, trials, methods, params, cell)


def _refine_errors(methods, r, basis, vals, noise, data_rng, timing):
    """One trial's linf error per refinement estimator from four noisy copies
    of the planted matrix; mhat1 splices the means of copies 0, 2 and 1, 3,
    mhat2 splices copies 0 and 1 and whitens with 2 and 3."""
    mstar = model.GroundTruth(basis=basis, eigenvalues=vals).shared_matrix()
    copies = [mstar + model.sample_noise(basis.shape[0], noise, data_rng) for _ in range(4)]
    rows = []
    for meth in methods:
        def run(meth=meth):
            if meth == "mhat1":
                layout = (0.5 * (copies[0] + copies[2]), 0.5 * (copies[1] + copies[3]))
            else:
                layout = (copies[0], copies[1], copies[2:])
            ((_, est, _),) = refine.estimate((meth,), r, copies, *layout)
            return None if est is None else refine.entry_error(est, mstar)
        value, ms = _timed(run, timing)
        rows.append((meth, math.nan if value is None else value, ms, value is not None))
    return rows


def _build_refine(cfg):
    """Refinement-estimator errors across coherence and signal-strength points."""
    # n = 800 is the smallest round size at which mu = n^(5/6) <= n/r
    n_list = cfg.n_list or (800,)
    trials = cfg.trials or 20
    methods = _check_methods(cfg, refine.ESTIMATORS, refine.ESTIMATORS)
    params = cfg.params or (
        "mu=n**0.8|lmin=2.05", "mu=n**(5/6)|lmin=2.05",
        "mu=n**0.8|lmin=3", "mu=n**(5/6)|lmin=3",
    )
    o = cfg.options
    r = _positive(o, "r", 3, int)
    noise = _noise_from(o, "gaussian-iid")
    for param in params:
        fields = _parse_param_fields(param)
        if "mu" not in fields or "lmin" not in fields:
            raise ConfigError(f"exp-refine point {param!r} needs mu=...|lmin=...")
        _check_mu(f"exp-refine point {param!r}", fields["mu"], n_list, r)

    def cell(n, param, data_rng, mrngs, timing):
        fields = _parse_param_fields(param)
        mu = eval_rule(fields["mu"], n=n, r=r)
        lmin = eval_rule(fields["lmin"], n=n, r=r) * math.sqrt(n)
        vals = np.array([lmin + (r - i) * math.log(n) for i in range(1, r + 1)])
        basis = model.sample_incoherent_basis(n, r, mu, data_rng)
        return _refine_errors(methods, r, basis, vals, noise, data_rng, timing)

    return _Plan(n_list, trials, methods, params, cell)


def _build_eigengap(cfg):
    """Corrected-estimator error as the eigengap ratio grows."""
    n_list = cfg.n_list or (400,)
    trials = cfg.trials or 30
    methods = _check_methods(cfg, refine.ESTIMATORS, ("mhat2",))
    params = cfg.params or ("1", "n**(1/6)", "n**(1/3)")
    o = cfg.options
    r = 3
    mu_rule = _check_mu("exp-eigengap mu", o.get("mu", "sqrt(n)*log(n)"), n_list, r)
    noise = _noise_from(o, "gaussian-iid")

    def cell(n, param, data_rng, mrngs, timing):
        ratio = eval_rule(str(param), n=n, r=r)
        mu = eval_rule(mu_rule, n=n, r=r)
        dmin = math.log(n)
        lam3 = 3.0 * math.sqrt(n)
        lam2 = lam3 + dmin
        lam1 = lam2 + ratio * dmin
        basis = model.sample_incoherent_basis(n, r, mu, data_rng)
        return _refine_errors(methods, r, basis, np.array([lam1, lam2, lam3]), noise,
                              data_rng, timing)

    return _Plan(n_list, trials, methods, params, cell)


def _build_path(cfg):
    """Group-lasso activation path on a planted perturbation plus noise."""
    n_list = cfg.n_list or (300,)
    trials = cfg.trials or 20
    methods = _check_methods(cfg, ("active-count", "penalty"), ("active-count", "penalty"))
    o = cfg.options
    # the path reads only the group-lasso settings, and draws 60 points unless told
    opts = solver_settings({"gl_grid": 60} | {k: o[k] for k in o if k in (
        "gl_grid", "lambda_floor", "gl_rho", "gl_tol", "gl_max_iter")})
    params = cfg.params or tuple(f"t{t:02d}" for t in range(opts.gl_grid))
    m_rule = _m_rule(o, "5", n_list)
    sb_rule = _rule(o, "sigma_b", "1.9 * n**(-0.25) * log(n)**0.25", n_list)
    noise = _noise_from(o, "gaussian-iid")

    def cell(n, data_rng, mrngs, timing):
        m = int(round(eval_rule(m_rule, n=n)))
        sigma_b = eval_rule(sb_rule, n=n)
        b, _ = model.sample_node_sparse(n, m, sigma_b, data_rng)
        y = b + model.sample_noise(n, noise, data_rng)
        grid = support.lambda_grid(y, opts.gl_grid, opts.lambda_floor)
        path, ms = _timed(lambda: support.group_lasso_path(y, grid, opts), timing)
        per_point = ms / max(grid.size, 1)
        rows = []
        for t in range(grid.size):
            label = f"t{t:02d}"
            rows.append(("active-count", label, float((path.alphas[t] > 0).sum()),
                         per_point, bool(path.converged[t])))
            rows.append(("penalty", label, float(grid[t]), 0.0, True))
        return rows

    return _Plan(n_list, trials, methods, params, cell, per_trial=True)


PRESETS = {
    "exp-snr": _build_snr,
    "exp-glfail": _build_glfail,
    "table-exp2": _build_glfail,
    "exp-multicopy": _build_multicopy,
    "exp-heavytail": _build_heavytail,
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
    """The preset's plan for cfg; an option key that the preset never reads
    is a ConfigError."""
    if cfg.preset not in PRESETS:
        raise ConfigError(
            f"unknown preset {cfg.preset!r}; available: {', '.join(preset_names())}")
    options = _ReadLog(cfg.options)
    plan = PRESETS[cfg.preset](replace(cfg, options=options))
    unread = sorted(options.keys() - options.read)
    if unread:
        raise ConfigError(f"preset {cfg.preset!r} does not read {', '.join(unread)}")
    if plan.trials < 1:
        raise ConfigError("trials must be >= 1")
    return plan
