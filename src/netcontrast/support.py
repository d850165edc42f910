"""Stage two: node-support recovery from residual matrices.

Four estimators over a common interface — a semidefinite relaxation solved in
factored form, a node-wise group lasso solved by ADMM, a row-energy hard
threshold, and an exhaustive least-squares search for tiny problems — plus
cost construction for one or many residual copies, automatic support-size
selection, the false-negative-rate metric, and `recover`, the dispatch from a
method name in METHODS to a support in original node numbering.

The SDP minimizes <C, Z> over Z >= 0 with tr Z = K and <J, Z> = K^2
(K = n - m); its optimum is the rank-one indicator of the complement of the
node support, so support nodes are the m smallest row sums of Z.
"""

from collections import deque
from dataclasses import dataclass
import itertools
import logging
import math

import numpy as np

logger = logging.getLogger(__name__)


# ---------------------------------------------------------------------------
# cost construction

def build_cost(residuals, mode="single", tau=None):
    """Cost matrix for the support SDP.

    single:    elementwise square of the (averaged) residual
    truncated: entrywise min of the square and tau^2
    multi:     split copies into two halves, average each, take the
               entrywise product (may be negative)
    """
    mats = [residuals] if isinstance(residuals, np.ndarray) else list(residuals)
    mats = [np.asarray(y, dtype=float) for y in mats]
    if mode in ("single", "truncated"):
        avg = mats[0] if len(mats) == 1 else np.mean(np.stack(mats), axis=0)
        c = avg * avg
        if mode == "truncated":
            if tau is None or tau <= 0:
                raise ValueError("truncated mode needs tau > 0")
            c = np.minimum(c, tau * tau)
        return c
    if mode == "multi":
        if len(mats) < 2:
            raise ValueError("multi mode needs at least 2 residual copies")
        half = (len(mats) + 1) // 2
        a = np.mean(np.stack(mats[:half]), axis=0)
        b = np.mean(np.stack(mats[half:]), axis=0)
        return a * b
    raise ValueError(f"unknown cost mode {mode!r}")


# ---------------------------------------------------------------------------
# factored SDP solver

_OBJ_TOL = 1e-7         # relative objective change across outer rounds
_PENALTY_INIT = 1.0
_PENALTY_GROWTH = 5.0   # applied when feasibility improves by less than _STALL_RATIO
_STALL_RATIO = 0.25
_JITTER = 0.1           # scale of the random start perturbation of later restarts
_SEED = 0               # solver generator when no rng is passed


@dataclass
class SdpOptions:
    factor_rank: int = 3
    feas_tol: float = 1e-6       # relative: |tr Z - K| <= feas_tol*K, |<J,Z>-K^2| <= feas_tol*K^2
    restarts: int = 2
    max_outer: int = 80
    max_inner: int = 300

    def __post_init__(self):
        for name in ("factor_rank", "restarts", "max_inner", "max_outer"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not self.feas_tol > 0:
            raise ValueError(f"feas_tol must be > 0, got {self.feas_tol}")


@dataclass
class SdpSolution:
    factor: np.ndarray
    objective: float
    row_sums: np.ndarray
    trace_residual: float
    sum_residual: float
    negative_entry: float       # monitor: max(0, -min Z_ij)
    diag_excess: float          # monitor: max(0, max Z_ii - 1)
    iterations: int             # descent iterations of the kept restart
    converged: bool
    total_iterations: int       # descent iterations over all restarts
    matvecs: int                # products with the cost matrix over all restarts

    def z(self):
        return self.factor @ self.factor.T


def _lagrangian(q, h1, h2, y1, y2, rho):
    return q + y1 * h1 + y2 * h2 + 0.5 * rho * (h1 * h1 + h2 * h2)


def _column_sums(x):
    # a product with ones: several times faster than x.sum(axis=0) on a thin x
    return np.ones(x.shape[0]) @ x


def _al_value_grad(cx, x, y1, y2, rho, k, k2):
    """Augmented Lagrangian, its gradient and the residuals h1, h2 at x,
    given cx = C x for a symmetric C."""
    s = _column_sums(x)
    h1 = float(np.vdot(x, x)) - k
    h2 = float(s @ s) - k2
    f = _lagrangian(float(np.vdot(cx, x)), h1, h2, y1, y2, rho)
    g = 2.0 * cx + (2.0 * (y1 + rho * h1)) * x + (2.0 * (y2 + rho * h2)) * s
    return f, g, h1, h2


def _line_coefficients(cx, cg, x, g):
    """Coefficients (a0, a1, a2) with which <C x_t, x_t>, ||x_t||^2 and
    ||1^T x_t||^2 each equal a0 - 2 t a1 + t^2 a2 along x_t = x - t g, for a
    symmetric C."""
    s = _column_sums(x)
    sg = _column_sums(g)
    return (
        (float(np.vdot(cx, x)), float(np.vdot(cx, g)), float(np.vdot(cg, g))),
        (float(np.vdot(x, x)), float(np.vdot(x, g)), float(np.vdot(g, g))),
        (float(s @ s), float(s @ sg), float(sg @ sg)),
    )


def _line_value(coef, t, y1, y2, rho, k, k2):
    """Augmented Lagrangian at x - t g from _line_coefficients."""
    q, nx, ns = (a0 - t * (2.0 * a1 - t * a2) for a0, a1, a2 in coef)
    return _lagrangian(q, nx - k, ns - k2, y1, y2, rho)


def _bb_descent(c, x, y1, y2, rho, k, k2, gtol, max_iter):
    # Barzilai-Borwein steps with a nonmonotone Armijo backtrack.  Along -g
    # the Lagrangian is a quartic in t whose coefficients need only c @ g, so
    # an iteration makes one product with c however many trial steps it takes;
    # c @ x follows the accepted steps linearly and restarts fresh each call.
    # Returns (x, c @ x, h1, h2, iterations, matvecs).
    cx = c @ x
    matvecs = 1
    f, g, h1, h2 = _al_value_grad(cx, x, y1, y2, rho, k, k2)
    hist = deque([f], maxlen=10)
    step = 1.0 / max(np.linalg.norm(g), 1.0)
    it = 0
    for it in range(1, max_iter + 1):
        gn2 = float(np.vdot(g, g))
        if math.sqrt(gn2) <= gtol * max(1.0, np.linalg.norm(x)):
            break
        cg = c @ g
        matvecs += 1
        coef = _line_coefficients(cx, cg, x, g)
        fref = max(hist)
        t = 2.0 * step
        for _ in range(40):
            t *= 0.5
            if _line_value(coef, t, y1, y2, rho, k, k2) <= fref - 1e-4 * t * gn2:
                break
        x = x - t * g
        cx = cx - t * cg
        f, gnew, h1, h2 = _al_value_grad(cx, x, y1, y2, rho, k, k2)
        # BB step from dx = -t g and dg = gnew - g
        sy = -t * float(np.vdot(g, gnew - g))
        ss = t * t * gn2
        step = ss / sy if sy > 1e-16 else 2.0 * t
        step = min(max(step, 1e-12), 1e6)
        g = gnew
        hist.append(f)
    return x, cx, h1, h2, it, matvecs


def _alm(c, x, k, k2, opts):
    """Augmented-Lagrangian rounds; returns (x, iterations, matvecs, converged)."""
    y1 = y2 = 0.0
    rho = _PENALTY_INIT
    gtol = 1e-3
    prev_feas = math.inf
    prev_obj = math.inf
    total = matvecs = 0
    for _ in range(opts.max_outer):
        x, cx, h1, h2, it, mv = _bb_descent(c, x, y1, y2, rho, k, k2, gtol, opts.max_inner)
        total += it
        matvecs += mv
        obj = float(np.vdot(cx, x))
        feas = max(abs(h1) / k, abs(h2) / k2)
        if feas <= opts.feas_tol and abs(obj - prev_obj) <= _OBJ_TOL * max(1.0, abs(obj)):
            return x, total, matvecs, True
        prev_obj = obj
        y1 += rho * h1
        y2 += rho * h2
        if feas > _STALL_RATIO * prev_feas:
            rho = min(rho * _PENALTY_GROWTH, 1e12)
        prev_feas = feas
        gtol = max(0.3 * gtol, 1e-9)
    return x, total, matvecs, False


def solve_sdp(cost, m, opts=None, rng=None):
    """Solve the support SDP by augmented-Lagrangian descent on a thin factor.

    Z is parameterized as X X^T with X of width opts.factor_rank (default 3;
    a rank-one optimum exists, the extra columns help descent escape saddle
    points).  opts.restarts jittered starts are run and the best feasible
    objective kept.  Never raises on non-convergence: the best iterate is
    returned with converged=False.

    Parameters
    ----------
    cost : ndarray
        Symmetric: a max |C - C^T| entry above 1e-6 times max |C| raises.
    m : int
        Support size, 1 <= m < n.
    """
    c = np.asarray(cost, dtype=float)
    nt = c.shape[0]
    if c.shape != (nt, nt):
        raise ValueError(f"cost must be square, got {c.shape}")
    if not 1 <= m < nt:
        raise ValueError(f"support size must satisfy 1 <= m < n, got m={m}, n={nt}")
    # the gradient 2 C X and the line search both assume C = C^T
    dev = float(np.max(np.abs(c - c.T)))
    if not dev <= 1e-6 * float(np.max(np.abs(c))):
        raise ValueError(f"cost must be finite and symmetric (max |C - C^T| = {dev:.3g})")
    opts = opts or SdpOptions()
    rng = rng if rng is not None else np.random.default_rng(_SEED)
    k = float(nt - m)
    k2 = k * k
    p = min(opts.factor_rank, nt)
    scale = float(np.linalg.norm(c))
    ch = c / scale if scale > 0 else c

    # first start is deterministic and exactly feasible: a uniform column
    # carries the sum constraint, a mean-zero column tops up the trace
    base = np.zeros((nt, p))
    base[:, 0] = k / nt
    if p > 1:
        spill = np.where(np.arange(nt) % 2 == 0, 1.0, -1.0) / math.sqrt(nt)
        base[:, 1] = math.sqrt(max(k - k * k / nt, 0.0)) * spill
    best = None
    total_iters = total_matvecs = 0
    for start in range(opts.restarts):
        if start == 0:
            x0 = base
        else:
            x0 = base + _JITTER * math.sqrt(k / nt) * rng.standard_normal((nt, p))
        x, iters, matvecs, ok = _alm(ch, x0, k, k2, opts)
        total_iters += iters
        total_matvecs += matvecs + 1
        norm = np.linalg.norm(x)
        if norm > 0:
            scaled = x * (math.sqrt(k) / norm)
            s = scaled.sum(axis=0)
            if abs(float(s @ s) - k2) <= opts.feas_tol * k2:
                x = scaled
        obj = float(((c @ x) * x).sum())
        if best is None or (ok, -obj) > (best[2], -best[1]):
            best = (x, obj, ok, iters)
    x, obj, ok, iters = best

    s = x.sum(axis=0)
    row_sums = x @ s
    z = x @ x.T
    sol = SdpSolution(
        factor=x,
        objective=obj,
        row_sums=row_sums,
        trace_residual=abs(float((x * x).sum()) - k),
        sum_residual=abs(float(s @ s) - k2),
        negative_entry=max(0.0, -float(z.min())),
        diag_excess=max(0.0, float(np.diagonal(z).max()) - 1.0),
        iterations=iters,
        converged=ok,
        total_iterations=total_iters,
        matvecs=total_matvecs,
    )
    if not ok:
        logger.warning(
            "SDP solver did not converge (trace residual %.3g, sum residual %.3g)",
            sol.trace_residual, sol.sum_residual,
        )
    return sol


# ---------------------------------------------------------------------------
# support extraction and scoring
#
# Every estimator returns its support as a sorted index array.

def extract_support(solution, m):
    """m smallest row sums of the SDP solution (ascending-index tie-break)."""
    order = np.argsort(solution.row_sums, kind="stable")
    return np.sort(order[:m])


def hard_threshold(residual, m):
    """m rows with the largest l2 norms (ascending-index tie-break)."""
    residual = np.asarray(residual, dtype=float)
    if not 1 <= m < residual.shape[0]:
        raise ValueError(f"need 1 <= m < n, got m={m}")
    norms = np.linalg.norm(residual, axis=1)
    order = np.argsort(-norms, kind="stable")
    return np.sort(order[:m])


def exhaustive_support(residual, m, limit=16):
    """Exact minimizer of the complement upper-triangle energy over all
    size-m supports; lexicographically smallest on exact ties.  Guarded to
    n <= limit."""
    residual = np.asarray(residual, dtype=float)
    nt = residual.shape[0]
    if nt > limit:
        raise ValueError(f"exhaustive search limited to n <= {limit}, got {nt}")
    if not 1 <= m < nt:
        raise ValueError(f"need 1 <= m < n, got m={m}")
    sq = residual * residual
    nodes = np.arange(nt)
    best = None
    best_val = math.inf
    for combo in itertools.combinations(range(nt), m):
        comp = np.setdiff1d(nodes, combo)
        block = sq[np.ix_(comp, comp)]
        val = 0.5 * (float(block.sum()) + float(np.trace(block)))
        if val < best_val:
            best_val = val
            best = combo
    return np.array(best, dtype=int)


def false_negative_rate(estimate, truth):
    """1 - |estimated ∩ true| / |true|."""
    true_set = set(np.asarray(truth, dtype=int).tolist())
    if not true_set:
        raise ValueError("true support is empty")
    est_set = set(np.asarray(estimate, dtype=int).tolist())
    return len(true_set - est_set) / len(true_set)


# ---------------------------------------------------------------------------
# support-size selection

@dataclass
class MSelection:
    m: int
    converged: bool
    steps: int


def select_m(residual, sigma_hat, m0, c_thresh=1.0, opts=None, rng=None, max_steps=20):
    """Walk the support size until the complement looks like pure noise.

    At each m the SDP support is removed and the largest complement row
    energy is compared against its noise-only level sigma^2 (n - m), with
    slack c_thresh * sigma^2 * sqrt((n - m) log n): too much energy grows m,
    a noise-consistent complement shrinks it.  Returns the boundary m where
    the test flips; if the step cap binds, the last passing m is returned
    with converged=False.
    """
    residual = np.asarray(residual, dtype=float)
    nt = residual.shape[0]
    if sigma_hat <= 0:
        raise ValueError("sigma_hat must be positive")
    sq = residual * residual
    cache = {}

    def passes(m):
        if m not in cache:
            sol = solve_sdp(sq, m, opts=opts, rng=rng)
            comp = np.setdiff1d(np.arange(nt), extract_support(sol, m))
            s_max = float(sq[np.ix_(comp, comp)].sum(axis=1).max())
            slack = c_thresh * sigma_hat**2 * math.sqrt((nt - m) * math.log(nt))
            cache[m] = abs(s_max - sigma_hat**2 * (nt - m)) <= slack
        return cache[m]

    m = min(max(int(m0), 1), nt - 2)
    last_pass = None
    for step in range(1, max_steps + 1):
        if passes(m):
            last_pass = m
            if cache.get(m - 1) is False:
                return MSelection(m=m, converged=True, steps=step)
            if m == 1:
                return MSelection(m=1, converged=True, steps=step)
            m -= 1
        else:
            if cache.get(m + 1) is True:
                return MSelection(m=m + 1, converged=True, steps=step)
            if m == nt - 2:
                logger.warning("support-size walk pinned at the ceiling m=%d", m)
                return MSelection(m=last_pass if last_pass is not None else m,
                                  converged=False, steps=step)
            m += 1
    logger.warning("support-size walk hit the %d-step cap", max_steps)
    return MSelection(m=last_pass if last_pass is not None else m,
                      converged=False, steps=max_steps)


# ---------------------------------------------------------------------------
# group lasso (ADMM)

@dataclass
class GroupLassoResult:
    factor: np.ndarray          # row-sparse V with B = V + V^T
    dual: np.ndarray            # scaled ADMM dual, kept for warm starts
    alpha: np.ndarray           # row l2 norms of V
    iterations: int
    converged: bool
    primal_residual: float
    dual_residual: float

    def perturbation(self):
        return self.factor + self.factor.T


def group_lasso(residual, lam, rho=1.0, tol=None, max_iter=5000, init=None):
    """Row-sparse symmetric fit by ADMM.

    Solves min_V  1/4 ||V + V^T - Y||_F^2 + lam * sum_i ||v_i||_2
    with the three-step scheme: closed-form V update, row-wise soft threshold
    of V + U at lam/rho, dual ascent U += V - Z.  Stops when the primal
    ||V - Z||_F and dual rho*||Z_t - Z_{t-1}||_F residuals both fall below
    tol (default 1e-6 * ||Y||_F).  The thresholded iterate Z — which carries
    exact zero rows — is returned as the solution.

    init, when given, is the (factor, dual) pair of a previous result.
    """
    y = np.asarray(residual, dtype=float)
    if lam < 0 or rho <= 0:
        raise ValueError("need lam >= 0 and rho > 0")
    tol_abs = 1e-6 * float(np.linalg.norm(y)) if tol is None else float(tol)
    if init is None:
        z = np.zeros_like(y)
        u = np.zeros_like(y)
    else:
        z, u = (np.array(a, dtype=float) for a in init)
    q = lam / rho
    nt = y.shape[0]
    converged = False
    primal = dual = math.inf
    it = 0
    for it in range(1, max_iter + 1):
        d = z - u
        v = (y - d.T + (rho + 1.0) * d) / (rho + 2.0)
        a = v + u
        if lam == 0.0:
            z_new = a.copy()
        else:
            norms = np.linalg.norm(a, axis=1)
            shrink = np.zeros(nt)
            nz = norms > 0
            shrink[nz] = np.maximum(0.0, 1.0 - q / norms[nz])
            z_new = a * shrink[:, None]
        u = u + v - z_new
        primal = float(np.linalg.norm(v - z_new))
        dual = rho * float(np.linalg.norm(z_new - z))
        z = z_new
        if primal <= tol_abs and dual <= tol_abs:
            converged = True
            break
    if not converged:
        logger.warning(
            "group lasso hit max_iter=%d (primal %.3g, dual %.3g, tol %.3g)",
            max_iter, primal, dual, tol_abs,
        )
    return GroupLassoResult(
        factor=z,
        dual=u,
        alpha=np.linalg.norm(z, axis=1),
        iterations=it,
        converged=converged,
        primal_residual=primal,
        dual_residual=dual,
    )


def lambda_max(residual):
    """Smallest penalty whose solution is all-zero: the largest row norm."""
    return float(np.max(np.linalg.norm(np.asarray(residual, dtype=float), axis=1)))


def lambda_grid(residual, num=40, floor_ratio=0.85):
    """Descending linspace from lambda_max down to floor_ratio * min row norm."""
    norms = np.linalg.norm(np.asarray(residual, dtype=float), axis=1)
    hi = float(norms.max())
    lo = floor_ratio * float(norms.min())
    if not lo < hi:
        return np.array([hi])
    return np.linspace(hi, lo, num)


@dataclass
class GroupLassoPath:
    lambdas: np.ndarray
    alphas: np.ndarray            # grid x n row norms
    activation_lambda: np.ndarray  # first (largest) active lambda per node, nan if never
    converged: np.ndarray


def group_lasso_path(residual, grid, rho=1.0, tol=None, max_iter=5000):
    """Warm-started ADMM down a strictly descending positive penalty grid."""
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0 or np.any(grid <= 0):
        raise ValueError("grid must be positive")
    if grid.size > 1 and np.any(np.diff(grid) >= 0):
        raise ValueError("grid must be strictly descending")
    y = np.asarray(residual, dtype=float)
    nt = y.shape[0]
    alphas = np.zeros((grid.size, nt))
    conv = np.zeros(grid.size, dtype=bool)
    state = None
    for t, lam in enumerate(grid):
        res = group_lasso(y, lam, rho=rho, tol=tol, max_iter=max_iter, init=state)
        state = (res.factor, res.dual)
        alphas[t] = res.alpha
        conv[t] = res.converged
    act_tol = 1e-6 * float(alphas.max()) if alphas.size else 0.0
    activation = np.full(nt, np.nan)
    for i in range(nt):
        hits = np.flatnonzero(alphas[:, i] > act_tol)
        if hits.size:
            activation[i] = grid[hits[0]]
    return GroupLassoPath(lambdas=grid, alphas=alphas,
                          activation_lambda=activation, converged=conv)


def group_lasso_support(residual, m, grid=None, rho=1.0, tol=None, max_iter=5000):
    """Support via the penalty path: descend until at least m rows are active,
    then take the m largest row norms (falls back to the last grid point)."""
    y = np.asarray(residual, dtype=float)
    if not 1 <= m < y.shape[0]:
        raise ValueError(f"need 1 <= m < n, got m={m}")
    if grid is None:
        grid = lambda_grid(y)
    state = None
    res = None
    for lam in grid:
        res = group_lasso(y, lam, rho=rho, tol=tol, max_iter=max_iter, init=state)
        state = (res.factor, res.dual)
        if int((res.alpha > 0).sum()) >= m:
            break
    order = np.argsort(-res.alpha, kind="stable")
    return np.sort(order[:m])


# ---------------------------------------------------------------------------
# method dispatch

METHODS = ("sdp", "sdp-trunc", "sdp-multi", "glasso", "hard", "lse")


def recover(method, residuals, m, tau=None, kept=None, opts=None, rng=None,
            grid_size=40, floor_ratio=0.85, rho=1.0, tol=None, max_iter=5000):
    """Size-m support of a residual, or a list of copies, by a METHODS name.

    The SDP costs: sdp squares the averaged copy, sdp-trunc caps that at
    tau^2, sdp-multi multiplies the two half-averages.  glasso, hard and lse
    work on the averaged copy.  Returns (indices, solution): the support in
    original node numbering (through kept, the screening map, when given)
    and the SdpSolution of an SDP method, else None.  Non-finite residuals
    raise ValueError.
    """
    if method not in METHODS:
        raise ValueError(f"unknown support method {method!r}; use one of {', '.join(METHODS)}")
    copies = [residuals] if isinstance(residuals, np.ndarray) else list(residuals)
    avg = copies[0] if len(copies) == 1 else np.mean(np.stack(copies), axis=0)
    # a NaN or inf in any copy reaches the average
    if not np.isfinite(avg).all():
        raise ValueError("residuals must be finite")
    sol = None
    if method == "glasso":
        grid = lambda_grid(avg, num=grid_size, floor_ratio=floor_ratio)
        idx = group_lasso_support(avg, m, grid=grid, rho=rho, tol=tol, max_iter=max_iter)
    elif method == "hard":
        idx = hard_threshold(avg, m)
    elif method == "lse":
        idx = exhaustive_support(avg, m)
    else:
        if method == "sdp":
            cost = build_cost(avg)
        elif method == "sdp-trunc":
            cost = build_cost(avg, mode="truncated", tau=tau)
        else:
            cost = build_cost(copies, mode="multi")
        sol = solve_sdp(cost, m, opts=opts, rng=rng)
        idx = extract_support(sol, m)
    return (idx if kept is None else np.asarray(kept, dtype=int)[idx]), sol
