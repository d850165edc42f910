import math

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from netcontrast import model, refine, support
from netcontrast.harness import (
    _RULE_NAMES,
    ConfigError,
    ExperimentConfig,
    bootstrap_ci,
    build_plan,
    config_from_mapping,
    eval_rule,
    preset_names,
    read_config,
    run_experiment,
    solver_settings,
    write_results,
    write_summary,
)
from netcontrast.support import SolverOptions


def small_snr_cfg(**over):
    base = {"preset": "exp-snr", "n": "80", "trials": "2", "seed": "3",
            "params": "2.0", "methods": "sdp,glasso"}
    base.update(over)
    return config_from_mapping(base)


# ---------------------------------------------------------------------------
# rule evaluation

def test_eval_rule_arithmetic():
    assert eval_rule("2*n**(-0.25)*log(n)**0.25", n=400) == pytest.approx(
        2 * 400 ** -0.25 * math.log(400) ** 0.25)
    assert eval_rule("ceil(2*log(n))", n=400) == 12.0
    assert eval_rule("min(a, b)", a=2.0, b=1.0) == 1.0


def test_eval_rule_rejects_unknown_names_and_syntax():
    with pytest.raises(ConfigError):
        eval_rule("__import__('os').getpid()")
    with pytest.raises(ConfigError):
        eval_rule("open('/etc/passwd')")
    with pytest.raises(ConfigError):
        eval_rule("n +", n=1)
    with pytest.raises(ConfigError):
        eval_rule("unknown_var + 1")
    with pytest.raises(ConfigError):
        eval_rule("'x'")
    with pytest.raises(ConfigError):
        eval_rule("[1]")


# Rule expressions as strings.  Exponents are leaves, so integer powers stay
# small enough for Python itself to evaluate.
_LEAVES = st.one_of(
    st.integers(0, 9).map(str),
    st.sampled_from(["0.5", "2.5", "1e-3", "n", "r", "pi", "e"]),
)
_RULE_EXPRS = st.recursive(
    _LEAVES,
    lambda inner: st.one_of(
        st.tuples(inner, st.sampled_from(["+", "-", "*", "/"]), inner).map(
            lambda t: f"({t[0]} {t[1]} {t[2]})"),
        st.tuples(inner, _LEAVES).map(lambda t: f"({t[0]})**{t[1]}"),
        st.tuples(st.sampled_from(["-", "+"]), inner).map(lambda t: f"{t[0]}({t[1]})"),
        st.tuples(st.sampled_from(["log", "log2", "log10", "sqrt", "exp", "ceil",
                                   "floor", "abs"]), inner).map(lambda t: f"{t[0]}({t[1]})"),
        st.tuples(st.sampled_from(["min", "max"]), inner, inner).map(
            lambda t: f"{t[0]}({t[1]}, {t[2]})"),
    ),
    max_leaves=8,
)


def _python_value(expr, **variables):
    try:
        return float(eval(expr, {"__builtins__": {}}, {**_RULE_NAMES, **variables}))
    except Exception:
        return "error"


def _rule_value(expr, **variables):
    try:
        return eval_rule(expr, **variables)
    except ConfigError:
        return "error"


@settings(max_examples=300, deadline=None)
@given(_RULE_EXPRS)
def test_eval_rule_agrees_with_python_on_allowed_expressions(expr):
    want = _python_value(expr, n=400, r=3)
    got = _rule_value(expr, n=400, r=3)
    assert got == want or (got != got and want != want)


@settings(max_examples=200, deadline=None)
@given(_RULE_EXPRS, st.sampled_from([
    "({}).real", "({})[0]", "(lambda: {})()", "[{} for x in (1,)][0]",
    "sum({} for x in (1,))", "{{{} for x in (1,)}}", "({}).__class__",
]))
def test_eval_rule_rejects_disallowed_nodes(expr, template):
    with pytest.raises(ConfigError, match="not allowed"):
        eval_rule(template.format(expr), n=400, r=3)


def test_eval_rule_rejects_escapes_and_huge_powers():
    with pytest.raises(ConfigError, match="not allowed"):
        eval_rule("().__class__.__base__.__subclasses__()")
    with pytest.raises(ConfigError, match="not allowed"):
        eval_rule("True + 1")
    with pytest.raises(ConfigError, match="too large"):
        eval_rule("9**9**9")


# ---------------------------------------------------------------------------
# config parsing

def test_read_config_happy_path(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(
        "# comment line\n"
        "preset = exp-snr\n"
        "n = 100, 200\n"
        "trials = 5   # trailing comment\n"
        "methods = sdp\n"
        "sigma = 0.5\n"
        "\n")
    cfg = read_config(path)
    assert cfg.preset == "exp-snr"
    assert cfg.n_list == (100, 200)
    assert cfg.trials == 5
    assert cfg.methods == ("sdp",)
    assert cfg.options == {"sigma": "0.5"}


def test_read_config_errors_carry_line_numbers(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("preset = exp-snr\nbogus_key = 1\n")
    with pytest.raises(ConfigError, match=r"bad\.cfg:2.*bogus_key"):
        read_config(path)
    path.write_text("preset = exp-snr\ntrials = 3\ntrials = 4\n")
    with pytest.raises(ConfigError, match=r"bad\.cfg:3.*duplicate"):
        read_config(path)
    path.write_text("preset = exp-snr\ntrials =\n")
    with pytest.raises(ConfigError, match=r"bad\.cfg:2.*empty"):
        read_config(path)
    path.write_text("preset = exp-snr\njust some words\n")
    with pytest.raises(ConfigError, match=r"bad\.cfg:2"):
        read_config(path)
    path.write_text("n = 100\n")
    with pytest.raises(ConfigError, match="preset"):
        read_config(path)


def test_config_from_mapping_validation():
    with pytest.raises(ConfigError, match="unknown key"):
        config_from_mapping({"preset": "exp-snr", "nope": "1"})
    with pytest.raises(ConfigError):
        config_from_mapping({"preset": "exp-snr", "trials": "zero"})
    with pytest.raises(ConfigError):
        config_from_mapping({"preset": "exp-snr", "timing": "maybe"})
    # the range checks belong to build_plan, which library configs also reach
    with pytest.raises(ConfigError, match="trials must be >= 1"):
        build_plan(config_from_mapping({"preset": "exp-snr", "trials": "0"}))
    with pytest.raises(ConfigError, match="n values must be positive"):
        build_plan(config_from_mapping({"preset": "exp-snr", "n": "-5"}))


def test_build_plan_rejects_unknown_preset_and_methods():
    with pytest.raises(ConfigError, match="unknown preset"):
        build_plan(ExperimentConfig(preset="exp-nope"))
    with pytest.raises(ConfigError):
        build_plan(small_snr_cfg(methods="sdp,bogus"))


# a library config's 0 trials or empty n list is refused, not read as "unset"
@pytest.mark.parametrize("preset", preset_names())
def test_build_plan_rejects_zero_trials(preset):
    with pytest.raises(ConfigError, match="trials must be >= 1"):
        build_plan(ExperimentConfig(preset=preset, trials=0))


@pytest.mark.parametrize("preset", preset_names())
def test_build_plan_rejects_empty_n_list(preset):
    with pytest.raises(ConfigError, match="n list is empty"):
        build_plan(ExperimentConfig(preset=preset, n_list=()))


@pytest.mark.parametrize("preset", preset_names())
@pytest.mark.parametrize("n_list", [(0,), (-5,)])
def test_build_plan_rejects_nonpositive_n(preset, n_list):
    with pytest.raises(ConfigError, match="n values must be positive"):
        build_plan(ExperimentConfig(preset=preset, n_list=n_list))


def test_threads_is_not_a_config_key(tmp_path):
    with pytest.raises(ConfigError, match="unknown key 'threads'"):
        config_from_mapping({"preset": "exp-snr", "threads": "4"})
    path = tmp_path / "threads.cfg"
    path.write_text("preset = exp-snr\nthreads = 4\n")
    with pytest.raises(ConfigError, match="unknown key 'threads'"):
        read_config(path)


def test_solver_settings_defaults_and_overrides():
    opts = solver_settings({})
    assert opts == SolverOptions()
    assert (opts.sdp_rank, opts.sdp_restarts, opts.sdp_max_inner) == (3, 3, 300)
    assert (opts.gl_grid, opts.lambda_floor, opts.gl_tol,
            opts.gl_max_iter) == (40, 0.85, None, 5000)
    opts = solver_settings({"sdp_rank": "2", "sdp_restarts": 1, "gl_tol": "1e-5",
                            "gl_grid": "7", "lambda_floor": "0.5", "r": "3"})
    assert opts == SolverOptions(sdp_rank=2, sdp_restarts=1, gl_tol=1e-5, gl_grid=7,
                                 lambda_floor=0.5)
    # == would not tell 2 from 2.0: counts must arrive as ints
    assert type(opts.sdp_rank) is type(opts.gl_grid) is int and type(opts.gl_tol) is float


@pytest.mark.parametrize("key,value", [
    ("sdp_rank", "0"), ("sdp_rank", "-1"), ("sdp_restarts", "0"),
    ("sdp_max_inner", "0"), ("gl_grid", "0"), ("gl_max_iter", "0"), ("sdp_rank", "two"),
    ("gl_tol", "0"), ("gl_tol", "-1"), ("lambda_floor", "0"), ("lambda_floor", "-0.5"),
    ("truncation", "0"), ("truncation", "-1"), ("gl_tol", "abc"), ("sigma", "abc"),
    ("sigma", "nan"), ("sigma", "inf"), ("sigma_max", "inf"), ("sigma_min", "nan"),
])
def test_bad_solver_settings_fail_at_plan_build(key, value):
    with pytest.raises(ConfigError, match=key):
        build_plan(small_snr_cfg(**{key: value}))


@pytest.mark.parametrize("preset", ["exp-glfail", "exp-multicopy", "exp-heavytail",
                                    "exp-coherence", "exp-path"])
def test_every_support_preset_checks_solver_settings(preset):
    with pytest.raises(ConfigError, match="gl_grid"):
        build_plan(config_from_mapping({"preset": preset, "gl_grid": "0"}))


def test_build_plan_rejects_nonpositive_rule():
    cfg = small_snr_cfg(sigma_b="-2.0")
    with pytest.raises(ConfigError):
        build_plan(cfg)


def test_preset_names_cover_documented_set():
    names = preset_names()
    for expected in ("exp-snr", "exp-glfail", "exp-multicopy",
                     "exp-heavytail", "exp-coherence", "exp-refine",
                     "exp-eigengap", "exp-path"):
        assert expected in names
    assert "table-exp2" not in names


# ---------------------------------------------------------------------------
# bootstrap

def test_bootstrap_ci_basics():
    with pytest.raises(ValueError):
        bootstrap_ci([1.0])
    with pytest.raises(ValueError):
        bootstrap_ci([1.0, 2.0], level=1.5)
    lo, hi = bootstrap_ci([3.0] * 10)
    assert lo == hi == 3.0


def test_bootstrap_ci_width_calibration():
    rng = np.random.default_rng(7)
    samples = rng.standard_normal(200)
    lo, hi = bootstrap_ci(samples, rng=np.random.default_rng(1))
    assert lo <= samples.mean() <= hi
    width = hi - lo
    # normal-theory width is 2 * 1.96 / sqrt(200) = 0.277
    assert 0.2 < width < 0.36


# ---------------------------------------------------------------------------
# engine

def test_run_experiment_row_grid_and_determinism(tmp_path):
    cfg = small_snr_cfg()
    res1 = run_experiment(cfg, threads=1)
    res4 = run_experiment(cfg, threads=4)
    assert len(res1.rows) == 1 * 1 * 2 * 2  # n x param x trials x methods
    out1, out4 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_results(res1, out1)
    write_results(res4, out4)
    assert out1.read_bytes() == out4.read_bytes()
    header = out1.read_text().splitlines()[0]
    assert header == "n,method,param,trial,value,runtime_ms,converged"


def test_run_experiment_zero_noise_recovers_exactly():
    cfg = small_snr_cfg(sigma="0.0", trials="1", methods="sdp")
    rows = run_experiment(cfg).rows
    assert len(rows) == 1
    assert rows[0].value == 0.0
    assert rows[0].converged
    assert rows[0].runtime_ms == 0.0


def test_glasso_rows_report_a_binding_iteration_cap():
    # one FISTA iteration cannot meet the tolerance on any grid point
    rows = run_experiment(small_snr_cfg(methods="glasso", gl_max_iter="1")).rows
    assert len(rows) == 2 and not any(r.converged for r in rows)
    assert all(r.converged for r in run_experiment(small_snr_cfg(methods="glasso")).rows)


def test_run_experiment_timing_flag():
    cfg = small_snr_cfg(trials="1", methods="sdp", timing="1")
    rows = run_experiment(cfg).rows
    assert rows[0].runtime_ms > 0.0


def test_summary_groups_and_csv(tmp_path):
    cfg = small_snr_cfg()
    res = run_experiment(cfg)
    groups = res.summary()
    assert len(groups) == 2  # one per method
    for g in groups:
        assert g["count"] == 2
        assert g["ci_low"] <= g["mean"] <= g["ci_high"]
    out = tmp_path / "summary.csv"
    write_summary(res, out)
    lines = out.read_text().splitlines()
    assert lines[0] == "n,method,param,mean,sd,ci_low,ci_high,count"
    assert len(lines) == 3


def test_summary_deterministic_given_seed():
    cfg = small_snr_cfg()
    res = run_experiment(cfg)
    a = res.summary()
    b = res.summary()
    assert a == b


def test_value_formatting(tmp_path):
    cfg = small_snr_cfg(trials="1", methods="sdp")
    res = run_experiment(cfg)
    res.rows[0].value = 1 / 3
    out = tmp_path / "fmt.csv"
    write_results(res, out)
    line = out.read_text().splitlines()[1]
    assert ",0.3333333333," in line
    assert line.endswith(",0.000,1")


def test_per_trial_path_preset_rows():
    cfg = config_from_mapping({"preset": "exp-path", "n": "60", "trials": "2",
                               "seed": "5", "gl_grid": "12", "timing": "1"})
    rows = run_experiment(cfg).rows
    # the one path solve of a trial is charged evenly to its grid points
    for t in range(2):
        times = {r.runtime_ms for r in rows if r.method == "active-count" and r.trial == t}
        assert len(times) == 1 and times.pop() > 0
    rows = [r for r in rows if r.trial == 0]
    labels = sorted({r.param for r in rows})
    assert labels == [f"t{i:02d}" for i in range(12)]
    methods = {r.method for r in rows}
    assert methods == {"active-count", "penalty"}
    assert len(rows) == 12 * 2
    counts = {r.param: r.value for r in rows if r.method == "active-count"}
    assert counts["t00"] <= counts["t11"]  # activation never reverses
    penalties = [r.value for r in rows if r.method == "penalty"]
    assert all(np.diff(penalties) < 0)


def test_refine_preset_smoke():
    cfg = config_from_mapping({"preset": "exp-refine", "n": "120", "trials": "2",
                               "seed": "9", "params": "mu=log(n)|lmin=3"})
    rows = run_experiment(cfg).rows
    assert len(rows) == 2 * 3  # trials x (spec, mhat1, mhat2)
    by_method = {r.method for r in rows}
    assert by_method == {"spec", "mhat1", "mhat2"}
    for r in rows:
        assert math.isnan(r.value) or r.value >= 0


def test_path_penalty_rows_do_not_solve_the_path(monkeypatch):
    def fail(*args, **kwargs):
        raise RuntimeError("no path")

    monkeypatch.setattr(support, "group_lasso_path", fail)
    cfg = config_from_mapping({"preset": "exp-path", "n": "60", "trials": "1",
                               "gl_grid": "6", "methods": "penalty"})
    rows = run_experiment(cfg).rows
    assert [r.param for r in rows] == [f"t{i:02d}" for i in range(6)]
    assert all(math.isfinite(r.value) and r.converged for r in rows)


def test_refine_preset_isolates_a_raising_estimator(monkeypatch):
    def fail(*args, **kwargs):
        raise RuntimeError("no correction")

    monkeypatch.setattr(refine, "eigenspace_correction", fail)
    cfg = config_from_mapping({"preset": "exp-refine", "n": "120", "trials": "1",
                               "params": "mu=log(n)|lmin=3"})
    rows = {r.method: r for r in run_experiment(cfg).rows}
    assert math.isnan(rows["mhat2"].value) and not rows["mhat2"].converged
    for meth in ("spec", "mhat1"):
        assert math.isfinite(rows[meth].value) and rows[meth].converged


def test_refine_preset_csv_bytes_identical_across_thread_counts(tmp_path):
    # every preset but exp-snr (see test_run_experiment_row_grid_and_determinism);
    # exp-path draws its whole path in one seeded task at each n
    for k, mapping in enumerate([
        {"preset": "exp-refine", "n": "120", "params": "mu=sqrt(n)|lmin=2.05,mu=log(n)|lmin=3"},
        {"preset": "exp-path", "n": "60,80", "gl_grid": "9"},
        {"preset": "exp-coherence", "n": "80",
         "params": "mu=log(n)|screen=on,mu=sqrt(n/log(n))|screen=off"},
        {"preset": "exp-glfail", "n": "100"},
        {"preset": "exp-multicopy", "n": "60"},
        {"preset": "exp-heavytail", "n": "60", "methods": "sdp"},
        {"preset": "exp-heavytail", "n": "60", "methods": "sdp-trunc,sdp"},
        {"preset": "exp-eigengap", "n": "300"},
    ]):
        cfg = config_from_mapping({"trials": "2", "seed": "4", **mapping})
        paths = []
        for threads in (1, 2):
            paths.append(tmp_path / f"rows{k}_{threads}.csv")
            write_results(run_experiment(cfg, threads=threads), paths[-1])
        assert paths[0].read_bytes() == paths[1].read_bytes(), mapping["preset"]
        assert "nan" not in paths[0].read_text(), mapping["preset"]


def test_refine_preset_points_respect_sampler_cap():
    # the default grid includes mu = n^(5/6), which needs n >= 729 at r = 3
    plan = build_plan(config_from_mapping({"preset": "exp-refine"}))
    assert plan.n_list == (800,)
    for param in plan.params:
        mu = eval_rule(param.split("|")[0].partition("=")[2], n=800, r=3)
        assert 1.0 <= mu <= 800 / 3
    cfg = config_from_mapping({"preset": "exp-refine", "n": "400",
                               "params": "mu=n**(5/6)|lmin=3"})
    with pytest.raises(ConfigError, match=r"mu=n\*\*\(5/6\).*n=400"):
        build_plan(cfg)
    with pytest.raises(ConfigError, match="lmin"):
        build_plan(config_from_mapping({"preset": "exp-refine", "params": "mu=2"}))


@pytest.mark.parametrize("over,match", [
    ({"preset": "exp-glfail"}, "n >= 100"),
    ({"preset": "exp-coherence"}, r"point 'mu=sqrt\(n\)\*log\(n\)\|screen=on' at n=60"),
    ({"preset": "exp-eigengap"}, r"exp-eigengap mu at n=60"),
    ({"preset": "exp-snr", "n": "10", "params": "2.0"}, "gives m=10 at n=10"),
    ({"preset": "exp-snr", "m": "0.4"}, "gives m=0.4 at n=60"),
    ({"preset": "exp-snr", "m": "1e308 * 10"}, r"rule m = '1e308 \* 10' is not finite at n=60"),
    ({"preset": "exp-multicopy", "n": "3"}, r"rule m = 'ceil\(2\*log\(n\)\)' gives m=3 at n=3"),
    ({"preset": "exp-heavytail", "n": "3"}, "gives m=3 at n=3"),
    ({"preset": "exp-coherence", "n": "10", "params": "mu=1|screen=on"}, "gives m=10 at n=10"),
    ({"preset": "exp-path", "n": "5"}, "gives m=5 at n=5"),
    ({"preset": "exp-snr", "c_screen": "0"}, "c_screen must be finite and > 0, got 0"),
    ({"preset": "exp-snr", "c_screen": "abc"}, "c_screen = 'abc' is not a number"),
    ({"preset": "exp-coherence", "params": "mu=1|screen=on", "c_screen": "inf"},
     "c_screen must be finite and > 0, got inf"),
    ({"preset": "exp-snr", "r": "0"}, "r must be finite and > 0, got 0"),
    ({"preset": "exp-snr", "r": "two"}, "r = 'two' is not an integer"),
    ({"preset": "exp-coherence", "r": "two"}, "r = 'two' is not an integer"),
    ({"preset": "exp-refine", "r": "two"}, "r = 'two' is not an integer"),
    ({"preset": "exp-snr", "params": "abc"}, "exp-snr point C = 'abc' is not a number"),
    ({"preset": "exp-snr", "params": "-1.0"},
     r"exp-snr point '-1\.0': rule sigma_b = .* is not finite and > 0 at n=60"),
    ({"preset": "exp-multicopy", "params": "-2"}, "exp-multicopy point '-2': rule sigma_b"),
    ({"preset": "exp-snr", "eigenvalues": "two"}, "rule eigenvalues = 'two'"),
    ({"preset": "exp-snr", "eigenvalues": "1e308*10"},
     r"rule eigenvalues = '1e308\*10' is not finite at n=60"),
    ({"preset": "exp-coherence", "params": "mu=1|screen=on", "eigenvalues": "1e308*10"},
     r"rule eigenvalues = '1e308\*10' is not finite at n=60"),
    ({"preset": "exp-refine", "params": "mu=2|lmin=1e308*10"},
     r"exp-refine point 'mu=2\|lmin=1e308\*10' is not finite at n=60"),
    ({"preset": "exp-eigengap", "n": "300", "params": "1e308*10"},
     r"exp-eigengap point '1e308\*10' is not finite at n=300"),
    ({"preset": "exp-eigengap", "n": "300", "params": "abc"}, "exp-eigengap point 'abc'"),
    ({"preset": "exp-coherence", "params": "mu=1|screen=maybe"},
     r"point 'mu=1\|screen=maybe': screen expects a boolean, got 'maybe'"),
    ({"preset": "exp-coherence", "params": "mu=1|scren=off"},
     r"point 'mu=1\|scren=off': field 'scren=off' is malformed, unknown or repeated"),
    ({"preset": "exp-refine", "params": "mu=2|lmin=abc"},
     r"point 'mu=2\|lmin=abc': cannot evaluate rule 'abc'"),
    ({"preset": "exp-path", "params": "foo"}, "exp-path point 'foo' is not a label"),
    ({"preset": "exp-snr", "params": "2.0,2.0"}, r"exp-snr: point '2\.0' is given twice"),
    ({"preset": "exp-snr", "methods": "sdp,sdp"}, "exp-snr: method 'sdp' is given twice"),
], ids=["exp-glfail", "exp-coherence", "exp-eigengap", "exp-snr-m", "exp-snr-m-rounds-to-0",
        "exp-snr-m-inf", "exp-multicopy-m", "exp-heavytail-m", "exp-coherence-m",
        "exp-path-m", "exp-snr-c_screen-0", "exp-snr-c_screen-abc", "exp-coherence-c_screen-inf",
        "exp-snr-r-0", "exp-snr-r-two", "exp-coherence-r-two", "exp-refine-r-two",
        "exp-snr-C-abc", "exp-snr-C-negative", "exp-multicopy-C-negative",
        "exp-snr-eigenvalues-two", "exp-snr-eigenvalues-inf", "exp-coherence-eigenvalues-inf",
        "exp-refine-lmin-inf", "exp-eigengap-ratio-inf", "exp-eigengap-ratio-abc",
        "exp-coherence-screen-maybe",
        "exp-coherence-field-typo", "exp-refine-lmin-abc", "exp-path-label",
        "repeated-point", "repeated-method"])
def test_presets_reject_points_the_samplers_reject(over, match):
    # at n = 60 the decoy construction is too small, and mu = sqrt(n)*log(n)
    # (an exp-coherence point and the exp-eigengap default) exceeds n/r = 20;
    # the samplers need a support size 1 <= m < n.  Every point is converted
    # when the plan is built, so a point that does not convert fails there
    # too, and rows need each (method, param) pair once
    with pytest.raises(ConfigError, match=match):
        build_plan(config_from_mapping({"n": "60", **over}))


@pytest.mark.parametrize("over,unread", [
    ({"preset": "exp-eigengap", "r": "5"}, "r"),
    ({"preset": "exp-path", "c_screen": "5", "sdp_rank": "7"}, "c_screen, sdp_rank"),
    ({"preset": "exp-glfail", "mu": "3", "r": "9"}, "mu, r"),
    ({"preset": "exp-refine", "sdp_rank": "9", "m": "1000"}, "m, sdp_rank"),
], ids=["exp-eigengap", "exp-path", "exp-glfail", "exp-refine"])
def test_presets_reject_keys_they_never_read(over, unread):
    with pytest.raises(ConfigError, match=f"does not read {unread}$"):
        build_plan(config_from_mapping(over))


@pytest.mark.parametrize("mapping", [
    {"preset": "exp-snr", "params": "1.6,2.4", "methods": "hard,glasso"},
    {"preset": "exp-path", "gl_grid": "4"},
], ids=["exp-snr", "exp-path"])
def test_a_failing_cell_gives_one_nan_row_per_param_and_method(tmp_path, monkeypatch, mapping):
    def fail(*args, **kwargs):
        raise RuntimeError("no noise")

    monkeypatch.setattr(model, "sample_noise", fail)
    cfg = config_from_mapping({"n": "60", "trials": "1", **mapping})
    plan = build_plan(cfg)
    out = tmp_path / "rows.csv"
    write_results(run_experiment(cfg), out)
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert [row[1:3] for row in rows] == [[meth, param] for param in plan.params
                                          for meth in plan.methods]
    assert all(row[3:] == ["0", "nan", "0.000", "0"] for row in rows)


def test_multicopy_preset_row_count():
    cfg = config_from_mapping({"preset": "exp-multicopy", "n": "60", "trials": "1",
                               "seed": "2", "params": "2.0"})
    rows = run_experiment(cfg).rows
    assert len(rows) == 2  # sdp-multi and sdp
    assert {r.method for r in rows} == {"sdp-multi", "sdp"}


@pytest.mark.parametrize("preset,method", [
    ("exp-snr", "sdp-multi"), ("exp-glfail", "sdp-multi"), ("exp-heavytail", "sdp-multi"),
    ("exp-coherence", "sdp-multi"), ("exp-glfail", "sdp-trunc"), ("exp-multicopy", "sdp-trunc"),
    ("exp-glfail", "lse"),
])
def test_support_presets_reject_methods_their_cells_cannot_feed(preset, method):
    # sdp-multi needs two residual copies and sdp-trunc a noise scale, and
    # exp-glfail's decoy support (m >= 20) is beyond any exhaustive search; a
    # preset whose cells cannot feed one refuses it before any trial runs
    with pytest.raises(ConfigError, match=f"{method}.*not valid for preset"):
        build_plan(config_from_mapping({"preset": preset, "methods": method}))


@pytest.mark.parametrize("preset", ["exp-snr", "exp-multicopy", "exp-heavytail", "exp-coherence"])
def test_support_presets_refuse_lse_above_the_search_bound(preset):
    # at the default sizes C(n, m) is far above the bound on the supports
    # lse scores, so the plan is refused instead of writing nan rows
    with pytest.raises(ConfigError, match=r"method lse at n=\d+, m=\d+ would score"):
        build_plan(config_from_mapping({"preset": preset, "methods": "sdp,lse"}))
    # at the boundary, C(n - 1, 2) is within the bound and C(n, 2) is not
    n = next(n for n in range(3, 10**4) if math.comb(n, 2) > support._EXHAUSTIVE_MAX)
    with pytest.raises(ConfigError, match=f"method lse at n={n}, m=2"):
        build_plan(config_from_mapping({"preset": preset, "methods": "lse", "m": "2",
                                        "n": f"{n - 1},{n}"}))


def test_coherence_preset_feeds_sdp_trunc_a_noise_scale():
    cfg = config_from_mapping({"preset": "exp-coherence", "n": "80", "trials": "1",
                               "params": "mu=log(n)|screen=on,mu=log(n)|screen=off",
                               "methods": "sdp-trunc"})
    rows = run_experiment(cfg).rows
    assert len(rows) == 2 and all(math.isfinite(r.value) for r in rows)
