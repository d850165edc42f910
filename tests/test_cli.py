import dataclasses
import json
import os
import subprocess
import sys

from pathlib import Path

import numpy as np
import pytest

import netcontrast
from netcontrast import harness, refine, support
from netcontrast.cli import main
from netcontrast.matio import read_matrix, write_matrix


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("data")
    rc = main([
        "generate", "--n", "60", "--r", "2", "--m", "4", "--sigma-b", "3.0",
        "--g0", "4", "--g1", "2", "--shared", "--seed", "7",
        "--out-dir", str(out),
    ])
    assert rc == 0
    return out


def load_meta(dataset):
    return json.loads((dataset / "meta.json").read_text())


def test_generate_writes_consistent_files(dataset):
    meta = load_meta(dataset)
    assert meta["n"] == 60 and meta["m"] == 4
    assert len(meta["supports"]) == 1  # --shared: one perturbation for all
    mstar = read_matrix(dataset / "mstar.txt")
    assert mstar.shape == (60, 60)
    for name in ("y0_00.txt", "y0_03.txt", "y1_00.txt", "y1_01.txt", "b_00.txt"):
        assert (dataset / name).exists()
    b = read_matrix(dataset / "b_00.txt")
    sup = meta["supports"][0]
    comp = np.setdiff1d(np.arange(60), sup)
    assert np.all(b[np.ix_(comp, comp)] == 0)
    assert meta["mu_realized"] >= 1.0


def test_recover_sdp_finds_planted_support(dataset, tmp_path):
    meta = load_meta(dataset)
    out = tmp_path / "rec.json"
    rc = main([
        "recover",
        "--y1", str(dataset / "y1_00.txt"), str(dataset / "y1_01.txt"),
        "--y0", str(dataset / "y0_00.txt"), str(dataset / "y0_01.txt"),
        "--rank", "2", "--method", "sdp", "--m", "4", "--out", str(out),
    ])
    assert rc == 0
    rec = json.loads(out.read_text())
    assert rec["support"] == meta["supports"][0]
    assert rec["converged"] is True
    assert "complement_energy" not in rec  # lse's objective only
    assert rec["sdp"]["trace_residual"] <= 1e-6 * (rec["kept_count"] - 4)
    sdp = rec["sdp"]
    # the block is SdpSolution's scalar fields: a new field is a new output key
    assert set(sdp) == {"objective", "trace_residual", "sum_residual", "iterations",
                        "total_iterations", "matvecs", "lambda_min", "converged"}
    assert 0 < sdp["iterations"] <= sdp["total_iterations"] <= sdp["matvecs"]
    # converged means certified: S = C + y1 I + y2 J is positive semidefinite
    assert sdp["converged"] is True and sdp["lambda_min"] >= -support._CERT_TOL
    assert rec["tau"] is not None and 0.2 < rec["tau"] < 3.0


def test_recover_does_not_load_arpack(tmp_path):
    # no command loads scipy, not even the stage-3 eigensolves of refine; a
    # fresh process is needed because other tests load scipy into this one
    script = (
        "import sys\n"
        "from netcontrast.cli import main\n"
        f"d = {str(tmp_path)!r}\n"
        "assert main(['generate', '--n', '40', '--r', '2', '--m', '3', '--sigma-b', '3',\n"
        "             '--g0', '3', '--g1', '1', '--seed', '1', '--out-dir', d]) == 0\n"
        "assert main(['recover', '--y1', d + '/y1_00.txt', '--y0', d + '/y0_00.txt',\n"
        "             d + '/y0_01.txt', '--rank', '2', '--m', '3', '--method', 'sdp',\n"
        "             '--out', d + '/rec.json']) == 0\n"
        "assert main(['refine', '--y1', d + '/y1_00.txt', '--y0', d + '/y0_00.txt',\n"
        "             d + '/y0_01.txt', d + '/y0_02.txt', '--rank', '2', '--refine', 'all',\n"
        "             '--out', d + '/ref.json']) == 0\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
    )
    src = str(Path(netcontrast.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip().splitlines()[-1] == "[]"
    assert json.loads((tmp_path / "rec.json").read_text())["support"]
    estimators = json.loads((tmp_path / "ref.json").read_text())["estimators"]
    assert sorted(m for m, e in estimators.items() if e["ok"]) == ["mhat1", "mhat2", "spec"]


def test_recover_other_methods_agree(dataset, tmp_path):
    meta = load_meta(dataset)
    for method in ("sdp-trunc", "sdp-multi", "glasso", "hard"):
        out = tmp_path / f"{method}.json"
        rc = main([
            "recover",
            "--y1", str(dataset / "y1_00.txt"), str(dataset / "y1_01.txt"),
            "--y0", str(dataset / "y0_00.txt"), str(dataset / "y0_01.txt"),
            "--rank", "2", "--method", method, "--m", "4", "--out", str(out),
        ])
        assert rc == 0
        rec = json.loads(out.read_text())
        assert rec["support"] == meta["supports"][0]
        assert "complement_energy" not in rec  # lse's objective only


def test_recover_exhaustive_on_a_tiny_set(tmp_path):
    data = tmp_path / "tiny"
    assert main(["generate", "--n", "12", "--r", "1", "--m", "2", "--sigma-b", "4.0",
                 "--seed", "3", "--out-dir", str(data)]) == 0
    out = tmp_path / "lse.json"
    rc = main([
        "recover", "--y1", str(data / "y1_00.txt"), "--y0", str(data / "y0_00.txt"),
        "--rank", "1", "--method", "lse", "--m", "2", "--no-screen", "--out", str(out),
    ])
    assert rc == 0
    rec = json.loads(out.read_text())
    assert rec["support"] == load_meta(data)["supports"][0]
    assert rec["kept_count"] == 12 and "sdp" not in rec
    assert rec["complement_energy"] > 0


def with_small_matrix(flags, tmp_path):
    """flags with "{small}" replaced by the path of a 40 x 40 matrix, which
    does not match the 60 x 60 data set."""
    small = tmp_path / "small.txt"
    write_matrix(small, np.eye(40))
    return [f.replace("{small}", str(small)) for f in flags]


@pytest.mark.parametrize("flags", [
    ["--sdp-rank", "0"], ["--sdp-rank", "-1"], ["--sdp-restarts", "0"],
    ["--sdp-restarts", "-1"], ["--gl-grid", "0"], ["--gl-tol", "nan"],
    ["--gl-max-iter", "0"], ["--m", "0"], ["--m", "60"],
    ["--mu", "'x'"], ["--mu", "[1]"],
    ["--rank", "-1"], ["--rank", "61"], ["--c-screen", "0"],
    ["--y0", "{small}"], ["--gl-tol", "0"], ["--gl-tol", "-1"],
    # screening keeps 2 nodes, then 1: too few for the walk over m in [1, n - 2]
    ["--m-auto", "--c-screen", "0.1"], ["--m-auto", "--c-screen", "0.07"],
    # a slack constant that is not finite and positive
    ["--m-auto", "--c-thresh", "0"], ["--m-auto", "--c-thresh", "nan"],
])
def test_recover_bad_settings_exit_one(dataset, tmp_path, capsys, flags):
    flags = with_small_matrix(flags, tmp_path)
    if flags[0] == "--mu":  # a generate rule that is not a number
        argv = ["generate", "--n", "20", "--out-dir", str(tmp_path), *flags]
    else:
        method = "glasso" if flags[0].startswith("--gl") else "sdp"
        m = [] if flags[0] == "--m" else ["--m", "4"]
        argv = ["recover", "--y1", str(dataset / "y1_00.txt"),
                "--y0", str(dataset / "y0_00.txt"), "--rank", "2",
                "--method", method, *m, *flags]
    rc = main(argv)
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("knob", ["sdp_max_outer", "sdp_feas_tol", "gl_rho"])
def test_deleted_solver_knobs_are_refused(dataset, capsys, knob):
    # the settings of the removed ALM (SDP) and ADMM (group lasso) solvers
    # are unknown, as a recover flag and as an experiment config key
    flag = "--" + knob.replace("_", "-")
    rc = main(["recover", "--y1", str(dataset / "y1_00.txt"), "--m", "4", flag, "1"])
    assert rc == 1
    assert capsys.readouterr().err == f"error: unrecognized arguments: {flag} 1\n"
    with pytest.raises(harness.ConfigError, match=f"^unknown key '{knob}'$"):
        harness.config_from_mapping({"preset": "exp-snr", knob: "1"})


@pytest.mark.parametrize("flags", [
    ["--r", "0"], ["--g0", "0"], ["--mu", "0.5"], ["--m", "0"], ["--n", "5"],
    ["--sigma", "-1"], ["--sigma-b", "-1"],
    ["--m", "1e308*10"], ["--m", "(1e308*10)-(1e308*10)"],
    ["--sigma-b", "(1e308*10)-(1e308*10)"], ["--eigenvalues", "1e308*10"],
])
def test_generate_bad_input_exit_one(tmp_path, capsys, flags):
    # the samplers' and NoiseSpec's checks, and a rule that is not finite,
    # are usage errors; nothing is written
    out = tmp_path / "out"
    rc = main(["generate", "--n", "40", "--out-dir", str(out), *flags])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    if "1e308" in flags[1]:   # a rule that is not finite names its flag
        assert err.startswith(f"error: {flags[0]} ")
    assert not out.exists()


@pytest.mark.parametrize("flags", [
    ["generate", "--sigma", "nan"], ["generate", "--sigma", "inf"],
    ["generate", "--noise", "gaussian-row-hetero", "--sigma-max", "inf"],
    ["generate", "--noise", "gaussian-entry-hetero", "--sigma-max", "inf"],
    ["experiment", "--preset", "exp-snr", "--params", "2", "--methods", "hard",
     "--set", "sigma=nan"],
    ["experiment", "--preset", "exp-refine", "--n", "300", "--params", "mu=n**0.8|lmin=3",
     "--set", "sigma=inf"],
])
def test_noise_scales_that_are_not_finite_exit_one(tmp_path, capsys, flags):
    # NoiseSpec refuses them: one error line, and no file or row is written
    out = tmp_path / "out"
    if flags[0] == "generate":
        argv = [*flags, "--n", "20", "--r", "2", "--m", "2", "--out-dir", str(out)]
    else:
        argv = [*flags, "--trials", "1", "--out", str(out)] + (
            [] if "--n" in flags else ["--n", "60"])
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "sigma" in err and err.count("\n") == 1
    assert not out.exists()


def test_recover_m_auto(dataset, tmp_path):
    meta = load_meta(dataset)
    out = tmp_path / "auto.json"
    rc = main([
        "recover",
        "--y1", str(dataset / "y1_00.txt"), str(dataset / "y1_01.txt"),
        "--y0", str(dataset / "y0_00.txt"), str(dataset / "y0_01.txt"),
        "--rank", "2", "--m-auto", "--c-thresh", "3.0", "--out", str(out),
    ])
    rec = json.loads(out.read_text())
    assert rc == 0
    assert rec["m_auto"]["converged"] is True and rec["converged"] is True
    assert rec["m_auto"]["m"] == rec["m"]
    assert set(rec["m_auto"]) == {"m", "converged", "steps"}
    assert set(meta["supports"][0]) <= set(rec["support"]) or rec["m"] <= 4


def test_recover_m_auto_failed_walk_exits_two(tmp_path):
    # the SDP converges at every m, but the support-size walk hits its step cap
    data = tmp_path / "data"
    assert main(["generate", "--n", "60", "--r", "2", "--m", "4", "--sigma-b", "3",
                 "--g0", "4", "--g1", "2", "--seed", "5", "--out-dir", str(data)]) == 0
    out = tmp_path / "auto.json"
    rc = main(["recover", "--y1", str(data / "y1_00.txt"),
               "--y0", str(data / "y0_00.txt"), str(data / "y0_01.txt"),
               "--rank", "2", "--m-auto", "--out", str(out)])
    rec = json.loads(out.read_text())
    assert rec["m_auto"]["converged"] is False and rec["sdp"]["converged"] is True
    assert rec["converged"] is False and rc == 2


def test_recover_validation_errors(dataset, tmp_path, capsys):
    assert main(["recover", "--y1", str(dataset / "y1_00.txt"),
                 "--rank", "2", "--m", "4"]) == 1
    assert "control" in capsys.readouterr().err
    assert main(["recover", "--y1", str(dataset / "y1_00.txt"),
                 "--y0", str(dataset / "y0_00.txt"), "--rank", "2"]) == 1
    assert "--m" in capsys.readouterr().err
    assert main(["recover", "--y1", "/nonexistent.txt", "--m", "2"]) == 1
    assert main(["recover", "--y1", str(dataset / "y1_00.txt"),
                 "--method", "sdp-multi", "--m", "4"]) == 1
    assert "sdp-multi" in capsys.readouterr().err
    # the noise scale of a control near 1e160 overflows, so stage 1 has none
    # to give the support-size walk
    data = tmp_path / "e160"
    assert main(["generate", "--n", "30", "--r", "2", "--m", "3", "--sigma", "1e160",
                 "--g0", "4", "--g1", "1", "--seed", "1", "--out-dir", str(data)]) == 0
    capsys.readouterr()
    assert main(["recover", "--y1", str(data / "y1_00.txt"),
                 "--y0", *map(str, sorted(data.glob("y0_0*.txt"))),
                 "--rank", "2", "--m-auto"]) == 1
    assert capsys.readouterr().err == "error: --m-auto needs a noise-scale estimate\n"


def test_recover_rejects_non_finite_input(dataset, tmp_path, capsys):
    y = read_matrix(dataset / "y1_00.txt")
    y[3, 5] = y[5, 3] = np.nan
    bad = tmp_path / "nan.txt"
    write_matrix(bad, y)
    assert main(["recover", "--y1", str(bad), "--method", "sdp", "--m", "4"]) == 1
    assert "nan.txt" in capsys.readouterr().err


def test_recover_nonconverged_exit_code(dataset, tmp_path, monkeypatch):
    # one descent iteration per run cannot reach the gradient tolerance
    settings = harness.solver_settings
    monkeypatch.setattr(harness, "solver_settings",
                        lambda o: dataclasses.replace(settings(o), sdp_max_inner=1))
    out = tmp_path / "bad.json"
    rc = main([
        "recover", "--y1", str(dataset / "y1_00.txt"),
        "--method", "sdp", "--m", "4", "--sdp-restarts", "1", "--out", str(out),
    ])
    assert rc == 2
    rec = json.loads(out.read_text())
    assert rec["converged"] is False and rec["sdp"]["converged"] is False
    assert rec["sdp"]["iterations"] == 1


def test_recover_glasso_iteration_cap_exits_two(dataset, tmp_path, caplog):
    # one FISTA iteration cannot meet the tolerance: the support path's cap binds
    out = tmp_path / "cap.json"
    rc = main(["recover", "--y1", str(dataset / "y1_00.txt"), "--y0", str(dataset / "y0_00.txt"),
               "--rank", "2", "--m", "4", "--method", "glasso", "--gl-max-iter", "1",
               "--out", str(out)])
    rec = json.loads(out.read_text())
    assert "stopped at gl_max_iter = 1" in caplog.text
    assert rc == 2 and rec["converged"] is False and "sdp" not in rec
    assert len(rec["support"]) == 4


def test_refine_all_estimators(dataset, tmp_path):
    meta = load_meta(dataset)
    sup = ",".join(str(i) for i in meta["supports"][0])
    out = tmp_path / "ref.json"
    emit = tmp_path / "mats"
    rc = main([
        "refine",
        "--y0", str(dataset / "y0_00.txt"), str(dataset / "y0_01.txt"),
        str(dataset / "y0_02.txt"), str(dataset / "y0_03.txt"),
        "--rank", "2", "--support", sup,
        "--truth", str(dataset / "mstar.txt"), "--truth-support", sup,
        "--emit", str(emit), "--out", str(out),
    ])
    assert rc == 0
    rec = json.loads(out.read_text())
    assert rec["contaminated"] is False
    for meth in ("spec", "mhat1", "mhat2"):
        entry = rec["estimators"][meth]
        assert entry["ok"], entry
        assert entry["linf_complement"] < entry["linf_full"] + 1e-12
        est = read_matrix(emit / f"{meth}.txt")
        assert est.shape == (60, 60)
    truth = read_matrix(dataset / "mstar.txt")
    spec_est = read_matrix(emit / "spec.txt")
    comp_err = rec["estimators"]["spec"]["linf_complement"]
    assert comp_err < 0.6 * np.abs(truth).max()
    assert np.array_equal(spec_est, spec_est.T)


def test_refine_estimates_are_the_library_layout(dataset, tmp_path):
    # four --y0 give refine.estimate's one layout: mhat1 splices the mean of
    # copies 0, 2 with that of copies 1, 3, as the harness measures it
    sup = load_meta(dataset)["supports"][0]
    paths = [dataset / f"y0_0{i}.txt" for i in range(4)]
    emit = tmp_path / "mats"
    assert main(["refine", "--y0", *map(str, paths), "--rank", "2",
                 "--support", ",".join(map(str, sup)), "--emit", str(emit),
                 "--out", str(tmp_path / "ref.json")]) == 0
    copies = [refine.mask_support(read_matrix(p), sup) for p in paths]
    for meth, est, error in refine.estimate(refine.ESTIMATORS, 2, copies):
        assert error is None and np.array_equal(read_matrix(emit / f"{meth}.txt"), est), meth


def test_refine_contaminated_flag_and_failure_exit(dataset, tmp_path):
    meta = load_meta(dataset)
    sup = meta["supports"][0]
    partial = ",".join(str(i) for i in sup[:2])
    out = tmp_path / "contam.json"
    rc = main([
        "refine", "--y0", str(dataset / "y0_00.txt"), str(dataset / "y0_01.txt"),
        "--rank", "2", "--support", partial,
        "--truth-support", ",".join(str(i) for i in sup),
        "--refine", "mhat1", "--out", str(out),
    ])
    assert rc == 0
    assert json.loads(out.read_text())["contaminated"] is True
    # mhat2 without the two extra copies cannot run -> exit 2
    out2 = tmp_path / "fail.json"
    rc = main([
        "refine", "--y0", str(dataset / "y0_00.txt"), str(dataset / "y0_01.txt"),
        "--rank", "2", "--refine", "mhat2", "--out", str(out2),
    ])
    assert rc == 2
    rec = json.loads(out2.read_text())
    assert rec["estimators"]["mhat2"]["ok"] is False


def test_refine_needs_two_views(dataset):
    assert main(["refine", "--y0", str(dataset / "y0_00.txt"), "--rank", "2"]) == 1


def test_refine_rejects_negative_rank(dataset, capsys):
    # a negative rank used to report spec as ok for a rank n - 1 truncation
    assert main(["refine", "--y0", str(dataset / "y0_00.txt"), str(dataset / "y0_01.txt"),
                 "--rank", "-1", "--refine", "spec"]) == 1
    assert capsys.readouterr().err.startswith("error: --rank")


@pytest.mark.parametrize("flags", [
    ["--rank", "61"], ["--y0", "{small}", "{small}", "{small}"], ["--truth", "{small}"],
    ["--support", "99"], ["--support", "-1"], ["--support", "60"], ["--support", "1,x"],
    ["--truth-support", "60"], ["--rank", "0"],
])
def test_refine_bad_input_exit_one(dataset, tmp_path, capsys, flags):
    # rejected before any estimator runs, so no JSON record is printed
    rc = main(["refine", "--y1", str(dataset / "y1_00.txt"),
               "--y0", str(dataset / "y0_00.txt"), str(dataset / "y0_01.txt"),
               "--rank", "2", *with_small_matrix(flags, tmp_path)])
    assert rc == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ")


def lse_argv(path, m, *flags):
    """recover --method lse on one matrix, with no shared structure removed."""
    return ["recover", "--y1", str(path), "--rank", "0", "--no-screen",
            "--method", "lse", "--m", str(m), *flags]


def test_recover_lse_matches_support(tmp_path, capsys):
    rng = np.random.default_rng(3)
    from netcontrast.model import sample_node_sparse

    b, sup = sample_node_sparse(12, 2, 4.0, rng)
    path = tmp_path / "mat.txt"
    write_matrix(path, b)
    out = tmp_path / "lse.json"
    rc = main(lse_argv(path, 2, "--out", str(out)))
    assert rc == 0
    rec = json.loads(out.read_text())
    assert rec["support"] == [int(i) for i in sup]
    assert rec["complement_energy"] == pytest.approx(0.0, abs=1e-20)
    # a search over more supports than the bound, C(40, 20), is a usage error
    big = tmp_path / "big.txt"
    write_matrix(big, np.eye(40))
    capsys.readouterr()
    assert main(lse_argv(big, 20)) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and "Traceback" not in err


def generate_huge(out_dir, sigma_b):
    """The n = 40 planted perturbation b_00.txt at a huge scale; its support
    is [9, 10, 27]."""
    assert main(["generate", "--n", "40", "--r", "2", "--m", "3", "--sigma-b", sigma_b,
                 "--seed", "1", "--out-dir", str(out_dir)]) == 0
    return out_dir / "b_00.txt"


def test_recover_on_overflowing_input_writes_no_traceback_or_infinity(tmp_path, capsys):
    # finite entries near 1e200 overflow once squared: lse refuses them with
    # one error line; near 1e153 they do not, and hard has no noise scale,
    # so its tau is null
    def refuse(const):
        raise ValueError(f"not JSON: {const}")

    path = generate_huge(tmp_path / "e200", "1e200")
    capsys.readouterr()
    assert main(lse_argv(path, 3)) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: --method lse: ") and err.count("\n") == 1
    path = generate_huge(tmp_path / "e153", "1e153")
    capsys.readouterr()
    assert main(["recover", "--y1", str(path), "--rank", "0", "--no-screen",
                 "--method", "hard", "--m", "3"]) == 0
    rec = json.loads(capsys.readouterr().out, parse_constant=refuse)
    assert rec["tau"] is None and rec["support"] == [9, 10, 27]


@pytest.mark.parametrize("method", ["hard", "glasso"])
def test_recover_refuses_row_norms_that_overflow(tmp_path, capsys, method):
    # every row norm of the 1e200 set is inf; both methods used to return
    # the first three nodes as a converged support and exit 0
    path = generate_huge(tmp_path, "1e200")
    capsys.readouterr()
    assert main(["recover", "--y1", str(path), "--rank", "0", "--no-screen",
                 "--method", method, "--m", "3"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: --method {method}: residual row norms are not finite\n"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("sigma_b, methods", [
    ("1e80", ["sdp", "sdp-trunc"]),
    ("1e153", ["sdp", "sdp-trunc", "glasso"]),
    ("1e200", ["sdp", "sdp-trunc", "glasso"]),
])
def test_recover_refuses_overflowing_costs_with_one_error_line(tmp_path, capsys, sigma_b,
                                                                methods):
    # at 1e80 the SDP cost's norm overflows, which scaled the cost to zero and
    # certified support [0, 1, 2]; at 1e153 the group lasso's total energy
    # overflows, which made its tolerance inf
    path = generate_huge(tmp_path, sigma_b)
    for method in methods:
        capsys.readouterr()
        assert main(["recover", "--y1", str(path), "--rank", "0", "--no-screen",
                     "--method", method, "--m", "3"]) == 1, method
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"error: --method {method}: ") and err.count("\n") == 1


@pytest.mark.parametrize("method", ["hard", "glasso"])
def test_recover_row_norm_methods_find_the_support_at_1e80(tmp_path, capsys, method):
    path = generate_huge(tmp_path, "1e80")
    capsys.readouterr()
    assert main(["recover", "--y1", str(path), "--rank", "0", "--no-screen",
                 "--method", method, "--m", "3"]) == 0
    rec = json.loads(capsys.readouterr().out)
    assert rec["support"] == [9, 10, 27] and rec["converged"]


def upper_energy(y, support):
    comp = np.setdiff1d(np.arange(y.shape[0]), support)
    block = y[np.ix_(comp, comp)]
    return float(np.triu(block * block).sum())


def test_recover_lse_energy_is_the_objective(dataset, tmp_path):
    # the library search's support on a noisy matrix, and its energy is the
    # least-squares objective at that support
    from netcontrast.model import sample_node_sparse

    rng = np.random.default_rng(5)
    b, _ = sample_node_sparse(12, 2, 3.0, rng)
    noise = rng.standard_normal((12, 12))
    path = tmp_path / "y.txt"
    write_matrix(path, b + 0.3 * (noise + noise.T))
    y = read_matrix(path)
    assert main(lse_argv(path, 2, "--out", str(tmp_path / "lse.json"))) == 0
    rec = json.loads((tmp_path / "lse.json").read_text())
    assert rec["support"] == support.exhaustive_support(y, 2).tolist()
    assert rec["complement_energy"] == pytest.approx(upper_energy(y, rec["support"]), rel=1e-12)
    # with screening on, the energy is of the averaged residual on the kept
    # nodes, with the support in that residual's numbering
    y1s = [dataset / "y1_00.txt", dataset / "y1_01.txt"]
    y0s = [dataset / "y0_00.txt", dataset / "y0_01.txt"]
    out = tmp_path / "screened.json"
    assert main(["recover", "--y1", *map(str, y1s), "--y0", *map(str, y0s), "--rank", "2",
                 "--c-screen", "0.8", "--method", "lse", "--m", "2", "--out", str(out)]) == 0
    rec = json.loads(out.read_text())
    resids, kept, _ = netcontrast.stage_one([read_matrix(p) for p in y1s],
                                            [read_matrix(p) for p in y0s], 2, 0.8)
    assert rec["kept_count"] == len(kept) < 60
    avg = (resids[0] + resids[1]) / 2
    local = np.flatnonzero(np.isin(kept, rec["support"]))
    assert rec["support"] == kept[support.exhaustive_support(avg, 2)].tolist()
    assert rec["complement_energy"] == pytest.approx(upper_energy(avg, local), rel=1e-12)


def test_experiment_cli_roundtrip(tmp_path):
    out = tmp_path / "rows.csv"
    summary = tmp_path / "summary.csv"
    args = ["experiment", "--preset", "exp-snr", "--n", "80", "--trials", "2",
            "--params", "2.0", "--methods", "sdp", "--seed", "3",
            "--out", str(out), "--summary", str(summary)]
    assert main(args) == 0
    first = out.read_bytes()
    assert main(args) == 0
    assert out.read_bytes() == first
    lines = out.read_text().splitlines()
    assert lines[0] == "n,method,param,trial,value,runtime_ms,converged"
    assert len(lines) == 3
    assert summary.read_text().splitlines()[0].startswith("n,method,param,mean")


def test_experiment_config_file_and_set(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("preset = exp-snr\nn = 80\ntrials = 1\nparams = 2.0\n"
                   "methods = sdp\nseed = 3\n")
    rc = main(["experiment", "--config", str(cfg), "--set", "sigma=0.0"])
    assert rc == 0
    text = capsys.readouterr().out
    assert "mean=0.0000" in text
    assert main(["experiment", "--config", str(cfg), "--set", "bogus"]) == 1

    # --set beats --timing, which beats the file; named flags override the file
    cfg.write_text("preset = exp-snr\nn = 80\ntrials = 1\nparams = 2.0\n"
                   "methods = sdp\nseed = 3\ntiming = 0\n")
    out = tmp_path / "rows.csv"

    def runtimes(*flags):
        assert main(["experiment", "--config", str(cfg), "--methods", "hard",
                     "--out", str(out), *flags]) == 0
        rows = out.read_text().splitlines()[1:]
        assert [row.split(",")[1] for row in rows] == ["hard"]
        return [float(row.split(",")[5]) for row in rows]

    assert runtimes() == [0.0]
    assert runtimes("--timing")[0] > 0
    assert runtimes("--timing", "--set", "timing=0") == [0.0]
    assert runtimes("--set", "timing=1")[0] > 0


@pytest.mark.parametrize("threads", ["0", "-3"])
def test_experiment_threads_below_one_exit_one(capsys, threads):
    rc = main(["experiment", "--preset", "exp-snr", "--n", "60", "--trials", "1",
               "--params", "2", "--methods", "hard", "--threads", threads])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: threads must be >= 1")


def test_experiment_lse_above_the_search_bound_exit_one(capsys):
    # C(300, 10) supports: refused at plan build, before any trial writes nan
    rc = main(["experiment", "--preset", "exp-snr", "--n", "300", "--trials", "2",
               "--params", "2.4", "--methods", "lse"])
    assert rc == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: method lse at n=300, m=10")
    assert main(["experiment", "--preset", "exp-snr", "--n", "14", "--trials", "3",
                 "--params", "2.4", "--set", "m=2", "--methods", "sdp,lse,hard"]) == 0
    assert "method=lse param=2.4 mean=0.0000" in capsys.readouterr().out


def test_experiment_bad_config_path():
    assert main(["experiment", "--config", "/nonexistent.cfg"]) == 1


def test_cli_argparse_errors_return_one(capsys):
    assert main(["recover"]) == 1  # missing required --y1
    capsys.readouterr()
    assert main(["bogus-subcommand"]) == 1
    capsys.readouterr()
