import logging
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netcontrast import support
from netcontrast.harness import config_from_mapping, run_experiment
from netcontrast.model import sample_node_sparse
from netcontrast.support import (
    SolverOptions,
    build_cost,
    exhaustive_support,
    extract_support,
    false_negative_rate,
    group_lasso,
    group_lasso_path,
    group_lasso_support,
    hard_threshold,
    lambda_grid,
    select_m,
    solve_sdp,
)


def rng_of(seed):
    return np.random.default_rng(seed)


def symmetric_noise(n, rng, sigma=1.0):
    w = rng.standard_normal((n, n))
    w = (w + w.T) / np.sqrt(2)
    w[np.diag_indices(n)] = rng.standard_normal(n) * np.sqrt(2)
    return sigma * w


def planted_residual(n, m, sigma_b, seed, sigma=0.0):
    rng = rng_of(seed)
    b, sup = sample_node_sparse(n, m, sigma_b, rng)
    resid = b if sigma == 0 else b + symmetric_noise(n, rng, sigma)
    return resid, sup


# ---------------------------------------------------------------------------
# cost construction

def test_cost_single_is_entrywise_square():
    y = rng_of(0).standard_normal((7, 7))
    assert np.array_equal(build_cost(y), y * y)


def test_cost_single_averages_copies():
    rng = rng_of(1)
    mats = [rng.standard_normal((5, 5)) for _ in range(3)]
    c = build_cost(mats)
    avg = sum(mats) / 3
    assert np.allclose(c, avg * avg)


def test_cost_truncated_caps_at_tau_squared():
    y = np.array([[0.0, 3.0], [3.0, 0.5]])
    c = build_cost(y, "sdp-trunc", tau=1.0)
    assert c.max() <= 1.0
    assert np.allclose(c, [[0.0, 1.0], [1.0, 0.25]])


def test_cost_truncated_needs_positive_tau():
    y = np.eye(3)
    with pytest.raises(ValueError):
        build_cost(y, "sdp-trunc")
    with pytest.raises(ValueError):
        build_cost(y, "sdp-trunc", tau=0.0)


def test_cost_multi_is_product_of_half_averages():
    rng = rng_of(2)
    mats = [rng.standard_normal((4, 4)) for _ in range(3)]
    c = build_cost(mats, "sdp-multi")
    expect = (mats[0] + mats[1]) / 2 * mats[2]
    assert np.allclose(c, expect)
    assert c.min() < 0  # cross products keep sign


def test_cost_multi_needs_two_copies():
    with pytest.raises(ValueError):
        build_cost(np.eye(3), "sdp-multi")


def test_cost_unknown_mode():
    for method in ("squared", "glasso", "single"):
        with pytest.raises(ValueError, match="unknown SDP cost"):
            build_cost(np.eye(3), method)


# ---------------------------------------------------------------------------
# SDP

def test_sdp_recovers_planted_support_noiseless():
    resid, sup = planted_residual(60, 5, 1.0, 3)
    sol = solve_sdp(build_cost(resid), 5)
    assert sol.converged
    assert np.array_equal(extract_support(sol, 5), sup)


def test_sdp_residuals_within_tolerance_when_converged():
    resid, _ = planted_residual(50, 4, 1.0, 4, sigma=0.5)
    sol = solve_sdp(build_cost(resid), 4)
    k = 50 - 4
    assert sol.converged
    # every iterate is feasible, so the residuals are rounding only
    assert sol.trace_residual <= 1e-12 * k
    assert sol.sum_residual <= 1e-12 * k * k
    z = sol.factor @ sol.factor.T
    assert np.linalg.eigvalsh(z).min() >= -1e-9
    # monitors only: the relaxation does not constrain entries or the diagonal
    assert -z.min() < 0.5
    assert np.diagonal(z).max() - 1.0 < 1.0


def test_sdp_row_sums_split_cleanly_noiseless():
    resid, sup = planted_residual(40, 4, 1.0, 5)
    sol = solve_sdp(build_cost(resid), 4)
    comp = np.setdiff1d(np.arange(40), sup)
    assert sol.row_sums[sup].max() < 0.1 * sol.row_sums[comp].min()


def test_sdp_deterministic_given_seed():
    resid, _ = planted_residual(30, 3, 1.0, 6, sigma=0.8)
    c = build_cost(resid)
    a = solve_sdp(c, 3, rng=rng_of(9))
    b = solve_sdp(c, 3, rng=rng_of(9))
    assert np.array_equal(a.factor, b.factor)
    assert a.objective == b.objective


def test_sdp_support_invariant_to_cost_scale():
    resid, _ = planted_residual(30, 3, 1.0, 7, sigma=1.0)
    c = build_cost(resid)
    a = extract_support(solve_sdp(c, 3, rng=rng_of(1)), 3)
    b = extract_support(solve_sdp(7.25 * c, 3, rng=rng_of(1)), 3)
    assert np.array_equal(a, b)


@pytest.mark.parametrize("field,value", [
    ("sdp_rank", 0), ("sdp_restarts", 0), ("sdp_max_inner", 0), ("gl_grid", 0),
    ("gl_max_iter", 0), ("lambda_floor", 0.0), ("gl_tol", 0.0),
    ("gl_tol", -1.0), ("lambda_floor", math.nan),
])
def test_solver_options_reject_out_of_range_values(field, value):
    with pytest.raises(ValueError, match=field):
        SolverOptions(**{field: value})


def test_sdp_input_validation():
    with pytest.raises(ValueError):
        solve_sdp(np.zeros((3, 4)), 1)
    with pytest.raises(ValueError):
        solve_sdp(np.zeros((5, 5)), 0)
    with pytest.raises(ValueError):
        solve_sdp(np.zeros((5, 5)), 5)
    c = build_cost(rng_of(3).standard_normal((6, 6)))
    with pytest.raises(ValueError, match="symmetric"):
        solve_sdp(c, 2)
    sym = 0.5 * (c + c.T)
    sym[0, 1] *= 1 + 1e-12  # rounding-level asymmetry is accepted
    assert solve_sdp(sym, 2).factor.shape == (6, 3)


def _sphere_start(n, m, p, rng):
    """A random feasible factor (a, Y) and the two sphere radii."""
    k = n - m
    ra, ry = k / n, math.sqrt(k - k * k / n)
    a = rng.standard_normal(p)
    y = rng.standard_normal((n, p))
    y -= y.mean(axis=0)
    return a * (ra / np.linalg.norm(a)), y * (ry / np.linalg.norm(y)), ra, ry


def test_line_search_closed_form_matches_direct_evaluation():
    rng = rng_of(11)
    n, p = 25, 3
    b = rng.standard_normal((n, n))
    c = b + b.T
    a, y, ra, ry = _sphere_start(n, 5, p, rng)
    c1 = c @ np.ones(n)
    _, g_a, g_y, _ = support._sphere_grad(c1, a, y, c @ y, ra * ra, ry * ry)
    coef = support._retraction_coefficients(a, y, c @ y, g_a, g_y, c @ g_y)
    for t in (0.0, 1e-6, 1e-3, 0.1, 0.5, 2.0):
        at = (a - t * g_a) * (ra / np.linalg.norm(a - t * g_a))
        yt = (y - t * g_y) * (ry / np.linalg.norm(y - t * g_y))
        xt = np.outer(np.ones(n), at) + yt
        direct = float(np.vdot(c @ xt, xt))
        closed = support._retraction_value(coef, t, float(c1.sum()), ra * ra, ry * ry)
        assert closed == pytest.approx(direct, rel=1e-10)


def test_sphere_gradient_is_the_tangent_projection():
    # 1 g_a^T + g_y is 2 C X minus its components along the two constraint
    # normals, and the cost is <C X, X>
    rng = rng_of(12)
    n, p = 30, 3
    b = rng.standard_normal((n, n))
    c = b + b.T
    a, y, ra, ry = _sphere_start(n, 4, p, rng)
    x = np.outer(np.ones(n), a) + y
    f, g_a, g_y, gn2 = support._sphere_grad(c @ np.ones(n), a, y, c @ y, ra * ra, ry * ry)
    assert f == pytest.approx(float(np.vdot(c @ x, x)), rel=1e-12)
    g = np.outer(np.ones(n), g_a) + g_y
    assert gn2 == pytest.approx(float(np.vdot(g, g)), rel=1e-12)
    assert abs(float(g_a @ a)) <= 1e-12 * np.linalg.norm(g_a) * ra
    assert abs(float(np.vdot(g_y, y))) <= 1e-12 * np.linalg.norm(g_y) * ry
    assert np.abs(g_y.sum(axis=0)).max() <= 1e-10 * np.abs(g_y).max()
    # what was removed from 2 C X lies in span{1 a^T, Y}
    resid = 2.0 * (c @ x) - g
    basis = np.stack([np.outer(np.ones(n), a).ravel(), y.ravel()], axis=1)
    coef, *_ = np.linalg.lstsq(basis, resid.ravel(), rcond=None)
    np.testing.assert_allclose(basis @ coef, resid.ravel(), atol=1e-10 * np.abs(resid).max())


@pytest.mark.parametrize("n,m,seed", [(2, 1, 11), (40, 5, 14)])
def test_sphere_descent_iterates_stay_exactly_feasible(n, m, seed):
    # at n = 2, seed 11, rounding in the mean of Y grows to 1e-9 within nine
    # steps unless the retraction removes it
    rng = rng_of(seed)
    k = n - m
    c = build_cost(symmetric_noise(n, rng))
    c /= np.linalg.norm(c)
    c1 = c @ np.ones(n)
    a0, y0, ra, ry = _sphere_start(n, m, 3, rng)
    for cap in range(1, 31):
        a, y, cy, it, _ = support._sphere_descent(c, c1, a0, y0, c @ y0, ra, ry, cap)
        x = np.outer(np.ones(n), a) + y
        assert abs(float(np.linalg.norm(a)) - k / n) <= 1e-12 * (k / n)
        assert abs(float(np.vdot(y, y)) - (k - k * k / n)) <= 1e-12 * (k - k * k / n)
        assert np.abs(y.sum(axis=0)).max() <= 1e-12 * ry
        # hence tr Z = K and <J, Z> = K^2
        assert abs(float(np.vdot(x, x)) - k) <= 1e-12 * k
        assert abs(float(np.sum(x.sum(axis=0) ** 2)) - k * k) <= 1e-12 * k * k
        np.testing.assert_allclose(cy, c @ y, rtol=0, atol=1e-12)
        if it < cap:
            break
    assert it >= 5


class _CountingOperator:
    def __init__(self, a):
        self.a, self.products = a, 0

    def __matmul__(self, v):
        self.products += 1
        return self.a @ v


def _record_runs(monkeypatch):
    """The iteration counts of the descent runs that solve_sdp makes."""
    runs = []
    descent = support._sphere_descent

    def counted(*args):
        out = descent(*args)
        runs.append(out[3])
        return out

    monkeypatch.setattr(support, "_sphere_descent", counted)
    return runs


def test_sdp_one_cost_product_per_descent_step(monkeypatch):
    rng = rng_of(13)
    n = 30
    c = build_cost(symmetric_noise(n, rng))
    c /= np.linalg.norm(c)
    op = _CountingOperator(c)
    a0, y0, ra, ry = _sphere_start(n, 3, 3, rng)
    *_, it, gnorm = support._sphere_descent(op, c @ np.ones(n), a0, y0, c @ y0, ra, ry, 25)
    assert 0 < it <= 25 and op.products == it
    assert it == 25 or gnorm <= support._GRAD_TOL

    runs = _record_runs(monkeypatch)
    resid, _ = planted_residual(30, 3, 1.0, 6, sigma=0.8)
    opts = SolverOptions(sdp_restarts=3)
    sol = solve_sdp(build_cost(resid), 3, opts=opts, rng=rng_of(2))
    # the first run is certified, so no restart runs
    assert sol.converged and len(runs) == 1
    assert sol.iterations == sol.total_iterations == runs[0] <= opts.sdp_max_inner
    # one product per descent step plus C Y at the start of each run
    assert sol.matvecs == sol.total_iterations + len(runs)


def test_sdp_restarts_only_while_uncertified(monkeypatch):
    resid, _ = planted_residual(30, 3, 1.0, 6, sigma=0.8)
    runs = _record_runs(monkeypatch)
    monkeypatch.setattr(support, "_certificate", lambda c, x, cx: -1.0)
    sol = solve_sdp(build_cost(resid), 3, opts=SolverOptions(sdp_restarts=3), rng=rng_of(2))
    assert not sol.converged and sol.lambda_min == -1.0
    assert len(runs) == 3 and sol.total_iterations == sum(runs)
    assert sol.iterations in runs
    assert sol.matvecs == sol.total_iterations + 3


def test_certificate_matches_least_squares_dual():
    resid, _ = planted_residual(40, 4, 1.0, 15, sigma=0.5)
    c = build_cost(resid)
    sol = solve_sdp(c, 4)
    ch = c / np.linalg.norm(c)
    x = sol.factor
    n = x.shape[0]
    ones = np.ones((n, 1))
    basis = np.stack([x.ravel(), (ones @ (ones.T @ x)).ravel()], axis=1)
    (y1, y2), *_ = np.linalg.lstsq(basis, -(ch @ x).ravel(), rcond=None)
    s = ch + y1 * np.eye(n) + y2
    assert sol.lambda_min == pytest.approx(np.linalg.eigvalsh(s)[0], abs=1e-12)
    assert sol.converged and sol.lambda_min >= -support._CERT_TOL
    assert np.linalg.norm(s @ x) <= 1e-7 * np.linalg.norm(x)


def test_every_sdp_solve_of_a_preset_run_is_certified(monkeypatch):
    solutions = []
    solve = support.solve_sdp

    def recorder(*args, **kwargs):
        sol = solve(*args, **kwargs)
        solutions.append(sol)
        return sol

    monkeypatch.setattr(support, "solve_sdp", recorder)
    run_experiment(config_from_mapping({"preset": "exp-snr", "n": "300", "trials": "2",
                                        "seed": "0", "methods": "sdp"}))
    assert len(solutions) == 10  # 5 default points x 2 trials
    for sol in solutions:
        assert sol.converged
        assert sol.lambda_min >= -support._CERT_TOL


def test_sdp_matches_exhaustive_noiseless():
    resid, sup = planted_residual(30, 3, 1.0, 8)
    sdp_est = extract_support(solve_sdp(build_cost(resid), 3), 3)
    lse_est = exhaustive_support(resid, 3)
    assert np.array_equal(sdp_est, sup)
    assert np.array_equal(lse_est, sup)


def test_sdp_matches_exhaustive_under_noise():
    # signal at several times the recovery scale, where the relaxation is
    # tight; n = 40, m = 5 is the paper's SDP-versus-least-squares size.  There
    # the two agreed on 60 of seeds 100-159 at sigma_b = 2.0, 9 or 10 of each
    # ten at 1.5, and 6 or 7 at 1.0
    for n, m, sigma_b in ((12, 2, 6.0), (40, 5, 2.0)):
        agree = 0
        for seed in range(10):
            resid, _ = planted_residual(n, m, sigma_b, 100 + seed, sigma=1.0)
            sdp_est = extract_support(solve_sdp(build_cost(resid), m, rng=rng_of(seed)), m)
            lse_est = exhaustive_support(resid, m)
            agree += np.array_equal(sdp_est, lse_est)
        assert agree >= 9, (n, m)


# ---------------------------------------------------------------------------
# simple estimators and scoring

def test_extract_support_stable_tie_break():
    class Fake:
        row_sums = np.array([1.0, 0.0, 0.0, 1.0, 0.0])

    assert np.array_equal(extract_support(Fake(), 2), [1, 2])


def test_hard_threshold_picks_largest_rows():
    resid, sup = planted_residual(50, 5, 2.0, 9, sigma=0.3)
    assert np.array_equal(hard_threshold(resid, 5), sup)
    with pytest.raises(ValueError):
        hard_threshold(resid, 0)


def test_exhaustive_limit_guard():
    # the guard counts supports, not nodes: C(17, 2) = 136 runs, and the
    # least n at which C(n, 2) is above the bound is refused
    assert np.array_equal(exhaustive_support(np.zeros((17, 17)), 2), [0, 1])
    # a support costs O(m^2), not O(n^2): m = 1 at n = 1000 is one pass of 1000
    y = np.ones((1000, 1000))
    y[7] = y[:, 7] = 5.0
    assert np.array_equal(exhaustive_support(y, 1), [7])
    assert math.comb(16, 8) <= support._EXHAUSTIVE_MAX < math.comb(40, 20)
    n = next(n for n in range(3, 10**6) if math.comb(n, 2) > support._EXHAUSTIVE_MAX)
    with pytest.raises(ValueError, match="exhaustive search over"):
        exhaustive_support(np.zeros((n, n)), 2)


def test_exhaustive_refuses_a_residual_whose_squares_overflow():
    # entries of 1e200 are finite, but their squares are not: on both sides
    # of n/2 the search refuses them instead of scoring inf and nan
    big = np.full((6, 6), 1e200)
    for m in (2, 5):
        with pytest.raises(ValueError, match="finite"):
            exhaustive_support(big, m)


def test_row_norm_methods_refuse_norms_that_overflow():
    # entries of 1e200 are finite, but every row norm is inf: hard and the
    # group-lasso path refuse them instead of taking the first m rows
    big = np.full((6, 6), 1e200)
    with pytest.raises(ValueError, match="row norms are not finite"):
        hard_threshold(big, 2)
    with pytest.raises(ValueError, match="row norms are not finite"):
        group_lasso_support(big, 2)


@pytest.mark.filterwarnings("error")
def test_group_lasso_refuses_a_residual_whose_squares_overflow():
    # each row norm of 40 entries of 1e153 is finite, but their squares sum
    # to inf, which made the default tolerance inf: every solve was "done"
    big = np.full((40, 40), 1e153)
    assert np.isfinite(np.linalg.norm(big, axis=1)).all()
    with pytest.raises(ValueError, match="squared residual does not sum to a finite number"):
        group_lasso(big, 1e150)
    with pytest.raises(ValueError, match="squared residual does not sum to a finite number"):
        group_lasso_support(big, 3)


@pytest.mark.filterwarnings("error")
def test_sdp_refuses_a_cost_whose_norm_overflows():
    # finite symmetric entries of 1e160 whose Frobenius norm is inf: scaled
    # by it the cost was all zeros, certified at once
    with pytest.raises(ValueError, match="norm is not finite"):
        solve_sdp(np.full((6, 6), 1e160), 2)
    big = np.full((40, 40), 1e80)
    for method in ("sdp", "sdp-trunc"):
        with pytest.raises(ValueError, match="norm is not finite"):
            support.recover(method, big, 3, tau=1e80)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("method", ["sdp", "sdp-trunc", "sdp-multi"])
def test_sdp_methods_refuse_overflowing_costs_without_a_warning(method):
    # squares of 1e200 overflow in build_cost (and so does sdp-trunc's cap
    # tau^2 at tau = 1e200); the refusal is the one report
    big = np.full((6, 6), 1e200)
    with pytest.raises(ValueError, match="finite"):
        support.recover(method, [big, big], 2, tau=1e200)


def test_exhaustive_lex_smallest_on_ties():
    assert np.array_equal(exhaustive_support(np.zeros((6, 6)), 2), [0, 1])
    # above n/2 the complements are scored, in the reverse order
    assert np.array_equal(exhaustive_support(np.ones((6, 6)), 4), [0, 1, 2, 3])


def test_exhaustive_objective_is_complement_energy():
    rng = rng_of(10)
    y = symmetric_noise(8, rng)
    est = exhaustive_support(y, 2)
    sq = y * y

    def energy(combo):
        comp = np.setdiff1d(np.arange(8), combo)
        block = sq[np.ix_(comp, comp)]
        return 0.5 * (block.sum() + np.trace(block))

    import itertools
    vals = {c: energy(c) for c in itertools.combinations(range(8), 2)}
    assert energy(tuple(est)) == min(vals.values())
    assert all(support.complement_energy(y, c) == v for c, v in vals.items())
    # m = 6 scores the complements, and a matrix that is not symmetric
    # counts both Y_ij^2 and Y_ji^2 off the support
    for mat, m in ((y, 6), (rng.standard_normal((8, 8)), 3)):
        vals = {c: support.complement_energy(mat, c) for c in itertools.combinations(range(8), m)}
        assert tuple(exhaustive_support(mat, m)) == min(vals, key=vals.get)


def test_false_negative_rate_values():
    assert false_negative_rate([1, 2, 3], [1, 2, 3]) == 0.0
    assert false_negative_rate([1, 2], [1, 2, 3, 4]) == 0.5
    assert false_negative_rate([], [5]) == 1.0
    with pytest.raises(ValueError):
        false_negative_rate([1], [])


# ---------------------------------------------------------------------------
# support-size selection

def test_select_m_finds_boundary():
    # the test at m0 fixes the one direction of the walk: up from m0 = 1 and
    # 2, down from m0 >= 4; at c_thresh 50 every m passes and the cap binds
    # on the way down, at the last m tested
    n, m_true = 60, 4
    rng = rng_of(12)
    b, sup = sample_node_sparse(n, m_true, 3.0, rng)
    resid = b + symmetric_noise(n, rng)
    for m0, c_thresh, want in [(8, 3.0, (4, True, 6)), (1, 3.0, (4, True, 4)),
                               (2, 3.0, (4, True, 3)), (4, 3.0, (4, True, 2)),
                               (12, 3.0, (4, True, 10)), (40, 50.0, (21, False, 20))]:
        sel = select_m(resid, sigma_hat=1.0, m0=m0, c_thresh=c_thresh, rng=rng_of(0))
        assert (sel.m, sel.converged, sel.steps) == want, (m0, c_thresh)
    assert np.array_equal(extract_support(solve_sdp(build_cost(resid), m_true), m_true), sup)


def test_select_m_pure_noise_shrinks_to_one():
    y = symmetric_noise(40, rng_of(13))
    sel = select_m(y, sigma_hat=1.0, m0=4, c_thresh=4.0, rng=rng_of(0))
    assert sel.converged
    assert sel.m == 1


def test_select_m_cap_reports_nonconverged(monkeypatch, caplog):
    # at sigma_hat 1e-8 every m fails, so the walk goes up: at n = 10 it is
    # pinned at the ceiling n - 2, and at n = 30 the cap binds at m = 21 and
    # returns 22, one past the last m tested
    for n, want, message in [(10, (8, False, 7), "pinned at the ceiling m=8"),
                             (30, (22, False, 20), "hit the 20-step cap")]:
        caplog.clear()
        sel = select_m(symmetric_noise(n, rng_of(14)), sigma_hat=1e-8, m0=2, rng=rng_of(0))
        assert (sel.m, sel.converged, sel.steps) == want, n
        assert message in caplog.text
    monkeypatch.setattr(support, "_M_STEPS", 3)
    y = symmetric_noise(30, rng_of(14))
    sel = select_m(y, sigma_hat=1e-8, m0=2, rng=rng_of(0))
    assert (sel.m, sel.converged, sel.steps) == (5, False, 3)


def test_select_m_rejects_bad_sigma():
    with pytest.raises(ValueError):
        select_m(np.eye(5), sigma_hat=0.0, m0=1)


@pytest.mark.parametrize("c_thresh", [0.0, -1.0, math.nan, math.inf])
def test_select_m_rejects_bad_c_thresh(c_thresh):
    with pytest.raises(ValueError, match="c_thresh"):
        select_m(np.eye(5), sigma_hat=1.0, m0=1, c_thresh=c_thresh)


# ---------------------------------------------------------------------------
# group lasso: independent proximal-gradient oracle

def glasso_objective(y, v, lam):
    fit = 0.25 * np.linalg.norm(v + v.T - y) ** 2
    return fit + lam * np.linalg.norm(v, axis=1).sum()


def fista_oracle(y, lam, iters=4000):
    lstep = 4.0
    a = np.zeros_like(y)
    zk = a.copy()
    t = 1.0
    for _ in range(iters):
        w = zk - (zk + zk.T - y) / lstep
        norms = np.linalg.norm(w, axis=1)
        shrink = np.maximum(0.0, 1.0 - (lam / lstep) / np.maximum(norms, 1e-300))
        a_new = w * shrink[:, None]
        t_new = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
        zk = a_new + ((t - 1.0) / t_new) * (a_new - a)
        a, t = a_new, t_new
    return a


def test_group_lasso_matches_proximal_oracle():
    rng = rng_of(15)
    y = symmetric_noise(25, rng)
    b, sup = sample_node_sparse(25, 3, 2.0, rng)
    y = y + b
    lam = 0.5 * lambda_grid(y)[0]
    res = group_lasso(y, lam)
    assert res.converged
    ref = fista_oracle(y, lam)
    f_admm = glasso_objective(y, res.factor, lam)
    f_ref = glasso_objective(y, ref, lam)
    assert f_admm <= f_ref + 1e-5 * max(1.0, abs(f_ref))
    assert np.array_equal(res.alpha > 0, np.linalg.norm(ref, axis=1) > 1e-6)


def test_group_lasso_kkt_conditions():
    rng = rng_of(16)
    y = symmetric_noise(20, rng)
    b, _ = sample_node_sparse(20, 3, 2.0, rng)
    y = y + b
    lam = 0.4 * lambda_grid(y)[0]
    res = group_lasso(y, lam, SolverOptions(gl_tol=1e-10 * np.linalg.norm(y), gl_max_iter=20000))
    z = res.factor
    grad = z + z.T - y
    scale = np.linalg.norm(y)
    for i in range(20):
        row_norm = np.linalg.norm(z[i])
        if row_norm > 0:
            kkt = grad[i] + lam * z[i] / row_norm
            assert np.linalg.norm(kkt) <= 1e-5 * scale
        else:
            assert np.linalg.norm(grad[i]) <= lam * (1 + 1e-8) + 1e-5 * scale


def assert_kkt_on_every_row(y, res, lam, tol):
    grad = res.factor + res.factor.T - y
    assert np.allclose(res.grad_norms, np.linalg.norm(grad, axis=1), atol=tol)
    for i in range(y.shape[0]):
        if res.alpha[i] > 0:
            assert np.linalg.norm(grad[i] + lam * res.factor[i] / res.alpha[i]) <= tol
        else:
            assert np.linalg.norm(grad[i]) <= lam * (1 + 1e-12)


def test_group_lasso_few_active_rows_meet_kkt_on_every_row():
    resid, _ = planted_residual(80, 4, 2.0, 26, sigma=0.5)
    norms = np.linalg.norm(resid, axis=1)
    lam = 0.95 * np.sort(norms)[-4]
    tol = 1e-8 * np.linalg.norm(resid)
    res = group_lasso(resid, lam, SolverOptions(gl_tol=1e-3 * tol, gl_max_iter=20000))
    assert res.converged
    assert 1 <= int((res.alpha > 0).sum()) <= 4
    # most rows never enter the working set: the cold-start strong rule drops them
    discarded = norms < 2 * lam - norms.max()
    assert discarded.sum() >= 60
    assert_kkt_on_every_row(resid, res, lam, tol)


def test_group_lasso_working_set_grows_past_a_wrong_strong_rule():
    # a warm start that claims zero gradients keeps no row in the working set;
    # the optimality check must add every row the solution needs
    resid, _ = planted_residual(40, 3, 2.0, 27, sigma=0.5)
    lam = 0.6 * lambda_grid(resid)[0]
    opts = SolverOptions(gl_tol=1e-12 * np.linalg.norm(resid), gl_max_iter=20000)
    cold = group_lasso(resid, lam, opts)
    empty = group_lasso(resid, lam, opts, init=(np.zeros((40, 40)), lam, np.zeros(40)))
    assert empty.converged and cold.converged
    assert np.array_equal(empty.alpha > 0, cold.alpha > 0)
    assert np.allclose(empty.alpha, cold.alpha, atol=1e-8 * np.linalg.norm(resid))
    assert_kkt_on_every_row(resid, empty, lam, 1e-8 * np.linalg.norm(resid))


def test_group_lasso_warm_and_cold_starts_agree():
    resid, _ = planted_residual(60, 4, 2.0, 28, sigma=0.5)
    grid = lambda_grid(resid, 12)
    scale = np.linalg.norm(resid)
    for lam_prev, lam in zip(grid[2:8], grid[3:9]):
        prev = group_lasso(resid, lam_prev)
        warm = group_lasso(resid, lam, init=(prev.factor, lam_prev, prev.grad_norms))
        cold = group_lasso(resid, lam)
        assert warm.converged and cold.converged
        assert np.abs(warm.alpha - cold.alpha).max() <= 1e-5 * scale
        assert np.array_equal(warm.alpha > 1e-5 * scale, cold.alpha > 1e-5 * scale)


def test_group_lasso_solves_an_asymmetric_y_by_its_symmetric_part():
    y = rng_of(29).standard_normal((20, 20))
    lam = 0.5 * lambda_grid(y)[0]
    opts = SolverOptions(gl_tol=1e-10 * np.linalg.norm(y), gl_max_iter=20000)
    res = group_lasso(y, lam, opts)
    assert res.converged
    assert np.allclose(res.factor, group_lasso(0.5 * (y + y.T), lam, opts).factor)
    ref = fista_oracle(0.5 * (y + y.T), lam)
    assert glasso_objective(y, res.factor, lam) <= glasso_objective(y, ref, lam) + 1e-8


def test_group_lasso_zero_above_lambda_max():
    y = symmetric_noise(15, rng_of(17))
    res = group_lasso(y, lambda_grid(y)[0] * 1.0001)
    assert res.converged
    assert np.all(res.alpha == 0)
    assert np.all(res.factor == 0)


def test_group_lasso_lam_zero_reproduces_symmetric_part():
    y = symmetric_noise(12, rng_of(18))
    res = group_lasso(y, 0.0)
    assert res.converged
    assert np.allclose(res.factor + res.factor.T, y, atol=1e-5)


def test_group_lasso_scale_equivariance():
    y = symmetric_noise(14, rng_of(19))
    lam = 0.3 * lambda_grid(y)[0]
    a = group_lasso(y, lam)
    b = group_lasso(2.5 * y, 2.5 * lam)
    assert np.allclose(2.5 * a.factor, b.factor, atol=1e-5 * np.linalg.norm(y))


def test_group_lasso_validation_and_max_iter_warning(caplog):
    y = symmetric_noise(10, rng_of(20))
    with pytest.raises(ValueError):
        group_lasso(y, -1.0)
    with caplog.at_level(logging.WARNING, logger="netcontrast.support"):
        res = group_lasso(y, 0.1 * lambda_grid(y)[0], SolverOptions(gl_max_iter=2))
    assert not res.converged
    assert res.iterations == 2
    assert "max_iter" in caplog.text


def test_lambda_max_is_exact_boundary():
    y = symmetric_noise(10, rng_of(21))
    hi = lambda_grid(y)[0]
    assert hi == np.linalg.norm(y, axis=1).max()
    assert np.all(group_lasso(y, hi * 1.001).alpha == 0)
    assert np.any(group_lasso(y, hi * 0.97).alpha > 0)


def test_lambda_grid_shape_and_bounds():
    y = symmetric_noise(10, rng_of(22))
    grid = lambda_grid(y)
    norms = np.linalg.norm(y, axis=1)
    assert grid.size == 40
    assert grid[0] == norms.max()
    assert np.isclose(grid[-1], 0.85 * norms.min())
    assert np.all(np.diff(grid) < 0)
    assert np.array_equal(lambda_grid(np.zeros((4, 4))), [0.0])


def test_path_orders_activation_by_signal():
    resid, sup = planted_residual(30, 3, 2.5, 23, sigma=0.5)
    grid = lambda_grid(resid)
    path = list(group_lasso_path(resid, grid))
    alphas = np.stack([res.alpha for res in path])
    comp = np.setdiff1d(np.arange(30), sup)
    # the first (largest) penalty at which each row is above 1e-6 times the
    # path's largest row norm, nan if never
    active = alphas > 1e-6 * float(alphas.max())
    act = np.where(active.any(axis=0), grid[active.argmax(axis=0)], np.nan)
    assert np.all(np.isfinite(act[sup]))
    finite_comp = act[comp][np.isfinite(act[comp])]
    if finite_comp.size:
        assert act[sup].min() > finite_comp.max()
    assert alphas.shape == (40, 30)
    assert all(res.converged for res in path)


def test_path_rejects_bad_grids():
    y = symmetric_noise(8, rng_of(24))
    for grid in ([1.0, 1.0], [1.0, -0.5], [], [1.0, np.nan]):
        with pytest.raises(ValueError, match="grid"):
            list(group_lasso_path(y, np.array(grid)))


def test_path_accepts_every_lambda_grid():
    # a zero row puts the grid's floor at 0, and a zero matrix gives [0.0]
    y = symmetric_noise(8, rng_of(24))
    y[3] = y[:, 3] = 0.0
    grid = lambda_grid(y, 6)
    assert grid[-1] == 0.0
    path = list(group_lasso_path(y, grid))
    assert len(path) == 6 and all(res.converged for res in path)
    assert np.allclose(path[-1].factor + path[-1].factor.T, y, atol=1e-5)
    zero = np.zeros((4, 4))
    (res,) = group_lasso_path(zero, lambda_grid(zero))
    assert res.converged and np.all(res.factor == 0)


def test_path_warm_starts_each_point_from_the_one_before(monkeypatch):
    y = symmetric_noise(10, rng_of(26))
    grid = lambda_grid(y, 5)
    inits = []
    solve = support.group_lasso

    def spy(residual, lam, opts=None, init=None):
        inits.append(init)
        return solve(residual, lam, opts, init)

    monkeypatch.setattr(support, "group_lasso", spy)
    path = list(group_lasso_path(y, grid))
    assert inits[0] is None
    for prev, lam, init in zip(path, grid, inits[1:]):
        assert init[0] is prev.factor and init[1] == lam and init[2] is prev.grad_norms


def test_group_lasso_support_recovers_planted():
    resid, sup = planted_residual(40, 4, 2.0, 25, sigma=0.5)
    got, res = group_lasso_support(resid, 4)
    assert np.array_equal(got, sup) and res.converged
    with pytest.raises(ValueError):
        group_lasso_support(resid, 0)


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10_000), st.floats(0.2, 5.0))
def test_group_lasso_shrinks_row_norms(seed, lam_frac):
    y = symmetric_noise(9, rng_of(seed))
    lam = lam_frac * lambda_grid(y)[0] / 2
    res = group_lasso(y, lam, SolverOptions(gl_max_iter=3000))
    assert np.all(res.alpha <= np.linalg.norm(y, axis=1) + 1e-6)
    if lam >= lambda_grid(y)[0]:
        assert np.all(res.alpha == 0)


# ---------------------------------------------------------------------------
# method dispatch

def _direct_support(method, copies, m, tau, opts, rng):
    """The call chain each method stood for before `recover` (local indices)."""
    avg = np.mean(np.stack(copies), axis=0)
    if method == "glasso":
        # the first point of the path over lambda_grid(avg, 12, 0.7) with m
        # active rows, else the last; its m largest row norms
        alphas = np.stack([res.alpha for res in
                           group_lasso_path(avg, lambda_grid(avg, 12, 0.7), opts)])
        active = (alphas > 0).sum(axis=1) >= m
        alpha = alphas[np.argmax(active) if active.any() else -1]
        return np.sort(np.argsort(-alpha, kind="stable")[:m])
    if method == "hard":
        return hard_threshold(avg, m)
    if method == "lse":
        return exhaustive_support(avg, m)
    if method == "sdp":
        cost = avg * avg
    elif method == "sdp-trunc":
        cost = np.minimum(avg * avg, tau * tau)
    else:
        cost = copies[0] * copies[1]
    return extract_support(solve_sdp(cost, m, opts=opts, rng=rng), m)


@pytest.mark.parametrize("method", support.METHODS)
def test_recover_matches_direct_call_chain(method):
    rng = rng_of(21)
    b, _ = sample_node_sparse(14, 3, 2.0, rng)
    copies = [b + symmetric_noise(14, rng) for _ in range(2)]
    kept = np.arange(3, 17)  # 14 screened rows of a 20-node graph
    opts = SolverOptions(sdp_restarts=2, sdp_rank=2, gl_grid=12, lambda_floor=0.7,
                         gl_max_iter=800)
    want = kept[_direct_support(method, copies, 3, 1.5, opts, rng_of(5))]
    got, sol = support.recover(method, copies, 3, tau=1.5, kept=kept, opts=opts,
                               rng=rng_of(5))
    assert np.array_equal(got, want)
    kinds = {"glasso": support.GroupLassoResult, "hard": type(None), "lse": type(None)}
    assert type(sol) is kinds.get(method, support.SdpSolution)
    local, _ = support.recover(method, copies, 3, tau=1.5, opts=opts, rng=rng_of(5))
    assert np.array_equal(kept[local], want)


def test_recover_rejects_bad_requests():
    resid, _ = planted_residual(12, 2, 3.0, 4, sigma=0.5)
    with pytest.raises(ValueError, match="unknown support method"):
        support.recover("sdp-fast", resid, 2)
    with pytest.raises(ValueError, match="tau"):
        support.recover("sdp-trunc", resid, 2)
    with pytest.raises(ValueError, match="2 residual copies"):
        support.recover("sdp-multi", [resid], 2)


@pytest.mark.parametrize("method", support.METHODS)
def test_recover_rejects_non_finite_residuals(method):
    resid, _ = planted_residual(12, 2, 3.0, 4, sigma=0.5)
    bad = resid.copy()
    bad[2, 5] = bad[5, 2] = np.inf
    with pytest.raises(ValueError, match="finite"):
        support.recover(method, [resid, bad], 2, tau=1.0)
