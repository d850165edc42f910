"""Tests of the benchmark itself, at tiny sizes so they finish in seconds.

    python3 -m pytest bench/test_bench.py
"""

import json
import math
import shutil
import subprocess
import sys

from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

run.import_program()

import tracing  # noqa: E402
import workloads  # noqa: E402

from netcontrast import harness, refine, spectral  # noqa: E402

TINY = {
    "recover-sdp": lambda: workloads.Recover("sdp", n=60, m=4),
    "recover-glasso": lambda: workloads.Recover("glasso", n=60, m=4),
    # the preset's default points need n >= 729 (mu = n^(5/6) <= n/r)
    "mc-refine": lambda: workloads.MonteCarloRefine(
        n=120, params=("mu=log(n)|lmin=2.05", "mu=log(n)|lmin=3")),
}
OPS = 3
SEED = 5


def _run(name, seed=SEED, traced=False, wl=None):
    tracer = tracing.Tracer() if traced else None
    return run.run(wl or TINY[name](), seed, 0, tracer=tracer, max_ops=OPS, name=name)


@pytest.fixture(scope="module")
def records():
    return {(name, traced): _run(name, traced=traced) for name in TINY for traced in (False, True)}


@pytest.mark.parametrize("name", list(TINY))
def test_tiny_smoke_run_is_correct(records, name):
    rec = records[name, False]
    assert rec["correct"] and rec["attempted"] == OPS and rec["failed"] == 0
    for key in run.END_TO_END:
        assert rec["end_to_end"][key] > 0
    assert math.isfinite(rec["end_to_end"][TINY[name]().QUALITY])


@pytest.mark.parametrize("name", list(TINY))
def test_same_seed_gives_identical_outputs(records, name):
    first, second = records[name, False], _run(name)
    assert second["outputs"] == first["outputs"]
    for key in ("fnr_mean", "linf_err_mean", "failed_frac", "unconverged_frac"):
        assert second["end_to_end"].get(key) == first["end_to_end"].get(key)
    assert _run(name, seed=SEED + 1)["outputs"] != first["outputs"]


@pytest.mark.parametrize("name", list(TINY))
def test_traced_and_untraced_outputs_agree(records, name):
    traced = records[name, True]
    assert traced["correct"] and traced["trace_mismatches"] == 0
    assert traced["outputs"] == records[name, False]["outputs"]


@pytest.mark.parametrize("name", list(TINY))
def test_layer_self_times_cover_the_op(records, name):
    layers = records[name, True]["per_layer"]
    assert set(layers) == set(tracing.PER_LAYER)
    assert 0.9 <= layers["trace.self_sum_frac"] <= 1.0 + 1e-9
    shares = sum(layers[f"{layer}.share"] for layer in tracing.LAYERS)
    assert shares == pytest.approx(layers["trace.self_sum_frac"])


def test_counts_predicted_zero_are_zero(records):
    mc = records["mc-refine", True]["per_layer"]
    assert mc["support.sdp_calls"] == mc["support.glasso_calls"] == mc["matio.read_calls"] == 0
    assert mc["refine.asym_eig_calls"] > 0
    for name in ("recover-sdp", "recover-glasso"):
        layers = records[name, True]["per_layer"]
        assert layers["refine.asym_eig_calls"] == 0
        assert layers["matio.read_calls"] == 3
        assert layers["matio.read_mb"] > 0
    assert records["recover-sdp", True]["per_layer"]["support.sdp_calls"] == 1
    assert records["recover-sdp", True]["per_layer"]["support.glasso_calls"] == 0
    assert records["recover-glasso", True]["per_layer"]["support.glasso_calls"] >= 1
    assert records["recover-glasso", True]["per_layer"]["support.sdp_calls"] == 0


def test_wrappers_cover_every_binding_and_are_removed():
    tracer = tracing.Tracer()
    original = spectral.spectral_init
    bound = {(getattr(owner, "__name__", ""), attr)
             for owner, attr, fn in tracer.bindings if fn is original}
    assert {("netcontrast", "spectral_init"), ("netcontrast.spectral", "spectral_init"),
            ("netcontrast.refine", "spectral_init")} <= bound
    with tracer.active("probe"):
        assert refine.spectral_init is not original
        refine.spectral_baseline([[[2.0, 0.0], [0.0, 1.0]]], 1)
    assert refine.spectral_init is original
    names = [s.name for s in tracer.spans]
    assert names == ["refine.spectral_baseline", "spectral.spectral_init",
                     "spectral.RankDecomposition.reconstruct"]
    assert tracer.spans[1].parent == tracer.spans[0].sid


def test_nested_calls_become_child_spans():
    tracer = tracing.Tracer()
    run.run(TINY["recover-glasso"](), SEED, 0, tracer=tracer, max_ops=1, name="recover-glasso")
    op_spans = [s for s in tracer.spans if s.op.startswith("op-")]
    by_id = {s.sid: s for s in op_spans}
    roots = [s for s in op_spans if s.parent is None]
    assert [s.name for s in roots] == ["cli.main"]
    admm = [s for s in op_spans if s.name == "support.group_lasso"]
    assert admm
    assert all(by_id[s.parent].name == "support.group_lasso_support" for s in admm)


def test_failures_are_counted_not_raised():
    # the preset's mu = n^(5/6) exceeds the sampler cap n/r at small n
    wl = workloads.MonteCarloRefine(n=120, params=("mu=n**(5/6)|lmin=3",))
    rec = _run("mc-refine", wl=wl)
    assert rec["attempted"] == OPS and rec["failed"] == OPS and not rec["correct"]

    wl = TINY["recover-sdp"]()
    wl.op = lambda i: 1
    rec = _run("recover-sdp", wl=wl)
    assert rec["failed"] == OPS and not rec["correct"]

    def boom(i):
        raise RuntimeError("op crashed")
    wl.op = boom
    rec = _run("recover-sdp", wl=wl)
    assert rec["failed"] == OPS and "fnr_mean" not in rec["end_to_end"]


def test_declared_estimator_failure_is_unconverged_not_failed():
    wl = workloads.MonteCarloRefine(n=120, params=("a", "b"))

    def result(*bad):
        rows = [harness.ResultRow(120, meth, p, 0, math.nan if (p, meth) in bad else 1.5,
                                  0.0, (p, meth) not in bad)
                for p in ("a", "b") for meth in wl.METHODS]
        return harness.ExperimentResult(config=None, rows=rows)

    assert wl.check(0, result()).ok
    declared = wl.check(0, result(("b", "mhat2")))
    assert declared.ok and declared.unconverged and declared.quality == 1.5
    assert not wl.check(0, result(("a", "spec"))).ok
    assert not wl.check(0, harness.ExperimentResult(config=None, rows=result().rows[:-1])).ok


def test_tail_needs_ten_samples_beyond():
    assert run.tail([1.0] * 10) is None
    assert run.tail([float(i) for i in range(11)]) == (0.0, 100.0 / 11)
    value, pct = run.tail([float(i) for i in range(100)])
    assert value == 89.0 and pct == 90.0


def test_benchmark_json_lists_what_the_run_reports():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(workloads.NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.PER_LAYER


def test_fails_cleanly_without_the_program(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    (tmp_path / "bench").mkdir()
    for path in BENCH.glob("*.py"):
        shutil.copy(path, tmp_path / "bench")
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "recover-sdp", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
