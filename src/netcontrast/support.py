"""Stage two: node-support recovery from residual matrices.

Four estimators over a common interface — a semidefinite relaxation solved in
factored form, a node-wise group lasso solved by working-set FISTA, a
row-energy hard threshold, and an exhaustive least-squares search for small
problems — plus cost construction for one or many residual copies, automatic
support-size selection, the false-negative-rate metric, and `recover`, the
dispatch from a method name in METHODS to a support in original node numbering.

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

from .spectral import _average

logger = logging.getLogger(__name__)
C_THRESH = 1.0          # default slack constant of select_m
_M_STEPS = 20           # step cap of select_m's walk
_EXHAUSTIVE_MAX = 2_000_000  # most supports exhaustive_support scores: any m at n <= 23
_CHUNK = 65_536          # supports exhaustive_support scores per numpy pass


# ---------------------------------------------------------------------------
# cost construction

def build_cost(residuals, method="sdp", tau=None):
    """Cost matrix of the support SDP named method (a METHODS name).

    sdp:       elementwise square of the (averaged) residual
    sdp-trunc: entrywise min of that square and tau^2
    sdp-multi: split copies into two halves, average each, take the
               entrywise product (may be negative)
    """
    mats = [residuals] if isinstance(residuals, np.ndarray) else list(residuals)
    if method == "sdp-multi":
        if len(mats) < 2:
            raise ValueError("sdp-multi needs at least 2 residual copies")
        half = (len(mats) + 1) // 2
        left, right = _average(mats[:half]), _average(mats[half:])
    elif method in ("sdp", "sdp-trunc"):
        left = right = _average(mats)
        if method == "sdp-trunc" and (tau is None or tau <= 0):
            raise ValueError("sdp-trunc needs tau > 0")
    else:
        raise ValueError(f"unknown SDP cost {method!r}")
    with np.errstate(over="ignore"):  # solve_sdp refuses a cost that is not finite
        c = left * right
    return np.minimum(c, tau * tau) if method == "sdp-trunc" else c


# ---------------------------------------------------------------------------
# factored SDP solver
#
# Z = X X^T with X = 1 a^T + Y and 1^T Y = 0, so <J, Z> = n^2 |a|^2 and
# tr Z = n |a|^2 + |Y|_F^2: the constraints say |a| = K/n and
# |Y|_F^2 = K - K^2/n, and the feasible factors form a product of two spheres.

_GRAD_TOL = 1e-8        # Riemannian gradient norm on the cost scaled to |C|_F = 1
_CERT_TOL = 1e-8        # least eigenvalue of S that still certifies, same scale
_JITTER = 0.1           # scale of the random start perturbation of later restarts
_SEED = 0               # solver generator when no rng is passed


@dataclass(frozen=True)
class SolverOptions:
    """SDP and group-lasso settings, each named after its config key (and the
    dest of its --sdp-*/--gl-* flag), with every default and range check."""

    sdp_rank: int = 3           # factor width
    sdp_restarts: int = 3       # most runs: jittered restarts follow while none is certified
    sdp_max_inner: int = 300    # descent iterations per restart
    gl_grid: int = 40           # penalty-path grid size
    lambda_floor: float = 0.85  # grid floor, as a fraction of the least row norm
    gl_tol: float | None = None  # group-lasso bound on |V_{k+1} - V_k|_F; None is 1e-7 * ||Y||_F
    gl_max_iter: int = 5000     # group-lasso iteration cap

    def __post_init__(self):
        for name in ("sdp_rank", "sdp_restarts", "sdp_max_inner", "gl_grid", "gl_max_iter"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        for name in ("lambda_floor", "gl_tol"):
            value = getattr(self, name)
            if value is not None and not value > 0:
                raise ValueError(f"{name} must be > 0, got {value}")


@dataclass
class SdpSolution:
    factor: np.ndarray
    objective: float
    row_sums: np.ndarray
    trace_residual: float
    sum_residual: float
    iterations: int             # descent iterations of the kept restart
    converged: bool             # gradient test and certificate both hold
    total_iterations: int       # descent iterations over all restarts
    matvecs: int                # products with the cost matrix over all restarts
    lambda_min: float           # least eigenvalue of S = C + y1 I + y2 J, over |C|_F


def _column_sums(x):
    # a product with ones: several times faster than x.sum(axis=0) on a thin x
    return np.ones(x.shape[0]) @ x


def _sphere_grad(c1, a, y, cy, ra2, ry2):
    """Cost <C X, X> at X = 1 a^T + Y, its Riemannian gradient (g_a, g_y)
    and the gradient's squared norm, given c1 = C 1 and cy = C Y for a
    symmetric C.  The metric is the one X inherits, n |da|^2 + |dY|_F^2, so
    1 g_a^T + g_y is the projection of 2 C X onto the tangent space."""
    cx = np.outer(c1, a) + cy
    w = _column_sums(cx)
    f = float(w @ a) + float(np.vdot(cx, y))
    u = (2.0 / y.shape[0]) * w
    g_a = u - (float(u @ a) / ra2) * a
    m = 2.0 * cx - u
    g_y = m - (float(np.vdot(y, m)) / ry2) * y
    return f, g_a, g_y, y.shape[0] * float(g_a @ g_a) + float(np.vdot(g_y, g_y))


def _retraction_coefficients(a, y, cy, g_a, g_y, cg):
    """Scalars from which _retraction_value gives the cost along the
    retraction of X - t (1 g_a^T + g_y), given cg = C g_y."""
    wy, wg = _column_sums(cy), _column_sums(cg)
    return (
        (float(a @ a), float(a @ g_a), float(g_a @ g_a)),
        (float(np.vdot(y, y)), float(np.vdot(y, g_y)), float(np.vdot(g_y, g_y))),
        (float(a @ wy), 0.5 * (float(a @ wg) + float(g_a @ wy)), float(g_a @ wg)),
        (float(np.vdot(cy, y)), float(np.vdot(cy, g_y)), float(np.vdot(cg, g_y))),
    )


def _retraction_value(coef, t, s1, ra2, ry2):
    """<C X_t, X_t> at X_t = 1 a_t^T + Y_t, where a_t and Y_t are a - t g_a
    and Y - t g_y rescaled onto their spheres and s1 = 1^T C 1.  Each
    coefficient triple (b0, b1, b2) stands for b0 - 2 t b1 + t^2 b2."""
    na, ny, cross, quad = (b0 - t * (2.0 * b1 - t * b2) for b0, b1, b2 in coef)
    return s1 * ra2 + 2.0 * math.sqrt(ra2 * ry2 / (na * ny)) * cross + (ry2 / ny) * quad


def _sphere_descent(c, c1, a, y, cy, ra, ry, max_iter):
    """Riemannian Barzilai-Borwein descent of <C X, X> over X = 1 a^T + Y
    with |a| = ra, 1^T Y = 0 and |Y|_F = ry, for a symmetric C; stops when
    the gradient norm reaches _GRAD_TOL or after max_iter iterations.

    An iteration makes one product with C, C g_y: along the retraction the
    cost is a function of a few scalars (_retraction_value), so the
    nonmonotone Armijo backtrack needs no more, and C Y follows each step.
    The retraction recentres Y and rescales each block by its computed
    norm; rounding in the mean of Y would otherwise grow along the steps.
    Returns (a, y, cy, iterations, gradient norm)."""
    ra2, ry2 = ra * ra, ry * ry
    s1 = float(np.sum(c1))
    f, g_a, g_y, gn2 = _sphere_grad(c1, a, y, cy, ra2, ry2)
    hist = deque([f], maxlen=10)
    step = 1.0 / max(math.sqrt(gn2), 1.0)
    it = 0
    while math.sqrt(gn2) > _GRAD_TOL and it < max_iter:
        it += 1
        cg = c @ g_y
        coef = _retraction_coefficients(a, y, cy, g_a, g_y, cg)
        fref = max(hist)
        t = 2.0 * step
        for _ in range(40):
            t *= 0.5
            if _retraction_value(coef, t, s1, ra2, ry2) <= fref - 1e-4 * t * gn2:
                break
        a = a - t * g_a
        a *= ra / np.linalg.norm(a)
        y = y - t * g_y
        mean = _column_sums(y) / y.shape[0]
        y -= mean
        beta = ry / np.linalg.norm(y)
        y *= beta
        cy = beta * (cy - t * cg - np.outer(c1, mean))
        f, ga_new, gy_new, gn2_new = _sphere_grad(c1, a, y, cy, ra2, ry2)
        # BB1 step from the step -t g and the gradient change, in the X metric
        sy = -t * (y.shape[0] * float(g_a @ (ga_new - g_a)) + float(np.vdot(g_y, gy_new - g_y)))
        step = t * t * gn2 / sy if sy > 1e-16 else 2.0 * t
        step = min(max(step, 1e-12), 1e6)
        g_a, g_y, gn2 = ga_new, gy_new, gn2_new
        hist.append(f)
    return a, y, cy, it, math.sqrt(gn2)


def _certificate(c, x, cx):
    """Least eigenvalue of S = C + y1 I + y2 J, with y1, y2 the least-squares
    fit of S X = 0.  When S X = 0 and S >= 0, X X^T solves the SDP."""
    sigma = _column_sums(x)
    ss = float(sigma @ sigma)
    gram = np.array([[float(np.vdot(x, x)), ss], [ss, x.shape[0] * ss]])
    rhs = -np.array([float(np.vdot(x, cx)), float(sigma @ _column_sums(cx))])
    y1, y2 = np.linalg.solve(gram, rhs)
    s = c + y2
    s[np.diag_indices_from(s)] += y1
    return float(np.linalg.eigvalsh(s)[0])


def solve_sdp(cost, m, opts=None, rng=None):
    """Solve the support SDP by Riemannian descent on a thin, exactly
    feasible factor.

    Z is parameterized as X X^T with X of width opts.sdp_rank (default 3;
    a rank-one optimum exists, the extra columns help descent escape saddle
    points).  A run is certified when its gradient is below tolerance and
    the dual matrix S = C + y1 I + y2 J fitted to S X = 0 is positive
    semidefinite, which makes X X^T a global optimum; converged=True means
    exactly that.  The first start is deterministic; jittered restarts, up
    to opts.sdp_restarts runs in all, follow only while no run is certified,
    and the certified (else the lowest-objective) run is kept.  Never raises
    on non-convergence.

    Parameters
    ----------
    cost : ndarray
        Symmetric: a max |C - C^T| entry above 1e-6 times max |C| raises,
        and so does a Frobenius norm that is not finite.
    m : int
        Support size, 1 <= m < n.
    """
    c = np.asarray(cost, dtype=float)
    nt = c.shape[0]
    if c.shape != (nt, nt):
        raise ValueError(f"cost must be square, got {c.shape}")
    if not 1 <= m < nt:
        raise ValueError(f"support size must satisfy 1 <= m < n, got m={m}, n={nt}")
    # the gradient 2 C X and the line search both assume C = C^T; the
    # descent runs on C / |C|_F, so that norm must be finite too
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        dev = float(np.max(np.abs(c - c.T)))
        scale = float(np.linalg.norm(c))
    if not dev <= 1e-6 * float(np.max(np.abs(c))):
        raise ValueError(f"cost must be finite and symmetric (max |C - C^T| = {dev:.3g})")
    if not math.isfinite(scale):
        raise ValueError("cost Frobenius norm is not finite")
    opts = opts or SolverOptions()
    rng = rng if rng is not None else np.random.default_rng(_SEED)
    k = float(nt - m)
    ra, ry = k / nt, math.sqrt(k - k * k / nt)
    p = min(opts.sdp_rank, nt)
    ch = c / scale if scale > 0 else c
    c1 = ch @ np.ones(nt)

    # a feasible first start, the uniform column plus an alternating one;
    # later starts jitter it, and each start is split onto the two spheres
    base = np.zeros((nt, p))
    base[:, min(1, p - 1)] = np.where(np.arange(nt) % 2 == 0, 1.0, -1.0)
    base -= base.mean(axis=0)
    base *= ry / np.linalg.norm(base)
    base[:, 0] += ra
    best = None
    total_iters = 0
    for runs in range(1, opts.sdp_restarts + 1):
        x = base
        if runs > 1:
            x = base + _JITTER * math.sqrt(k / nt) * rng.standard_normal((nt, p))
        a = _column_sums(x) / nt
        y = x - a
        a, y = a * (ra / np.linalg.norm(a)), y * (ry / np.linalg.norm(y))
        a, y, cy, iters, gnorm = _sphere_descent(ch, c1, a, y, ch @ y, ra, ry, opts.sdp_max_inner)
        total_iters += iters
        x = y + a
        cx = np.outer(c1, a) + cy
        lam = _certificate(ch, x, cx)
        ok = gnorm <= _GRAD_TOL and lam >= -_CERT_TOL
        obj = scale * float(np.vdot(cx, x))
        if best is None or (ok, -obj) > (best[2], -best[1]):
            best = (x, obj, ok, iters, lam, gnorm)
        if ok:
            break
    x, obj, ok, iters, lam, gnorm = best

    s = _column_sums(x)
    sol = SdpSolution(
        factor=x,
        objective=obj,
        row_sums=x @ s,
        trace_residual=abs(float(np.vdot(x, x)) - k),
        sum_residual=abs(float(s @ s) - k * k),
        iterations=iters,
        converged=ok,
        total_iterations=total_iters,
        matvecs=total_iters + runs,
        lambda_min=lam,
    )
    if not ok:
        logger.warning("SDP solver not certified (gradient norm %.3g, lambda_min %.3g)",
                       gnorm, lam)
    return sol


# ---------------------------------------------------------------------------
# support extraction and scoring
#
# Every estimator returns its support as a sorted index array.

def extract_support(solution, m):
    """m smallest row sums of the SDP solution (ascending-index tie-break)."""
    order = np.argsort(solution.row_sums, kind="stable")
    return np.sort(order[:m])


def _row_norms(residual):
    """l2 norm of each row; ValueError when one is not finite, as when the
    squares of finite entries overflow."""
    with np.errstate(over="ignore"):  # an overflow is refused below
        norms = np.linalg.norm(np.asarray(residual, dtype=float), axis=1)
    if not np.isfinite(norms).all():
        raise ValueError("residual row norms are not finite")
    return norms


def hard_threshold(residual, m):
    """m rows with the largest l2 norms (ascending-index tie-break); row
    norms that are not finite raise ValueError."""
    residual = np.asarray(residual, dtype=float)
    if not 1 <= m < residual.shape[0]:
        raise ValueError(f"need 1 <= m < n, got m={m}")
    order = np.argsort(-_row_norms(residual), kind="stable")
    return np.sort(order[:m])


def complement_energy(residual, support):
    """Energy of the residual off the support: the sum of Y_ij^2 over the
    upper triangle, diagonal included, of the complement block."""
    residual = np.asarray(residual, dtype=float)
    comp = np.setdiff1d(np.arange(residual.shape[0]), support)
    block = residual[np.ix_(comp, comp)] ** 2
    return 0.5 * (float(block.sum()) + float(np.trace(block)))


def exhaustive_support(residual, m):
    """Exact minimizer of complement_energy over all size-m supports;
    lexicographically smallest on exact ties.  A search over more than
    _EXHAUSTIVE_MAX supports raises ValueError.

    With R = Y∘Y + (Y∘Y)^T and r its row sums, twice the energy off S is
    ½(ΣR + tr R) − Σ_{i∈S} r_i + Σ_{i<j∈S} R_ij, and twice the energy on its
    complement T is Σ_{i∈T} R_ii + Σ_{i<j∈T} R_ij.  The smaller of S and T is
    enumerated, so a support costs O(min(m, n − m)²) after an O(n²) set-up.
    Complements come in the reverse of the supports' lexicographic order, so
    on that side ties go to the last minimum.  A residual whose squared
    entries do not sum to a finite number raises ValueError."""
    residual = np.asarray(residual, dtype=float)
    nt = residual.shape[0]
    if not 1 <= m < nt:
        raise ValueError(f"need 1 <= m < n, got m={m}")
    count = math.comb(nt, m)
    if count > _EXHAUSTIVE_MAX:
        raise ValueError(f"exhaustive search over C(n={nt}, m={m}) = {count:.3g} supports; "
                         f"the limit is {_EXHAUSTIVE_MAX}")
    with np.errstate(over="ignore"):  # an overflow is refused below
        sq = residual * residual
        sq += sq.T
        total = sq.sum()
    if not np.isfinite(total):
        raise ValueError("squared residual does not sum to a finite number")
    k, lin = (nt - m, np.diag(sq)) if 2 * m > nt else (m, -sq.sum(axis=1))
    combos = itertools.combinations(range(nt), k)
    best, best_val = None, math.inf
    while len(chunk := np.fromiter(itertools.chain.from_iterable(itertools.islice(combos, _CHUNK)),
                                   np.intp).reshape(-1, k)):
        score, cols = lin.take(chunk).sum(axis=1), chunk.T
        for a, b in itertools.combinations(range(k), 2):
            score += sq.take(cols[a] * nt + cols[b])  # take reads sq flattened
        i = len(score) - 1 - np.argmin(score[::-1]) if k < m else np.argmin(score)
        if score[i] < best_val or (k < m and score[i] == best_val):
            best_val, best = score[i], chunk[i]
    return np.setdiff1d(np.arange(nt), best) if k < m else np.array(best, dtype=int)


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


def select_m(residual, sigma_hat, m0, c_thresh=C_THRESH, opts=None, rng=None):
    """Walk the support size until the complement looks like pure noise.

    At each m the SDP support is removed and the largest complement row
    energy is compared against its noise-only level sigma^2 (n - m), with
    slack c_thresh * sigma^2 * sqrt((n - m) log n).  The test at m0 fixes
    the one direction of the walk, which tests each m once: from a passing
    m0 it walks down while m passes, from a failing one up until m passes.
    With converged=True it returns the passing m next to the failing one
    where the test flips, or 1 when every m down to 1 passes.  With
    converged=False it returns n - 2 when no m up to that ceiling passes,
    and when the cap of _M_STEPS tests binds, the last m tested on the way
    down or the m one past the last tested on the way up.
    """
    residual = np.asarray(residual, dtype=float)
    nt = residual.shape[0]
    if sigma_hat <= 0:
        raise ValueError("sigma_hat must be positive")
    if not (math.isfinite(c_thresh) and c_thresh > 0):
        raise ValueError(f"c_thresh must be finite and > 0, got {c_thresh}")
    if nt < 3:
        raise ValueError(f"the walk over m in [1, n - 2] needs n >= 3 nodes, got n={nt}")
    sq = residual * residual

    def passes(m):
        idx = extract_support(solve_sdp(sq, m, opts=opts, rng=rng), m)
        comp = np.setdiff1d(np.arange(nt), idx)
        s_max = float(sq[np.ix_(comp, comp)].sum(axis=1).max())
        slack = c_thresh * sigma_hat**2 * math.sqrt((nt - m) * math.log(nt))
        return abs(s_max - sigma_hat**2 * (nt - m)) <= slack

    m = min(max(int(m0), 1), nt - 2)
    down = passes(m)
    edge, step = (1 if down else nt - 2), 1
    while m != edge and step < _M_STEPS:
        step += 1
        m += -1 if down else 1
        if passes(m) != down:
            return MSelection(m=m + 1 if down else m, converged=True, steps=step)
    if m != edge:
        logger.warning("support-size walk hit the %d-step cap", _M_STEPS)
        return MSelection(m=m if down else m + 1, converged=False, steps=step)
    if not down:
        logger.warning("support-size walk pinned at the ceiling m=%d", m)
    return MSelection(m=m, converged=down, steps=step)


# ---------------------------------------------------------------------------
# group lasso (working-set FISTA)

@dataclass
class GroupLassoResult:
    factor: np.ndarray          # row-sparse V with B = V + V^T
    alpha: np.ndarray           # row l2 norms of V
    grad_norms: np.ndarray      # row l2 norms of the gradient V + V^T - Y
    iterations: int
    converged: bool


def group_lasso(residual, lam, opts=None, init=None):
    """Row-sparse symmetric fit by working-set FISTA.

    Solves min_V  1/4 ||V + V^T - Y||_F^2 + lam * sum_i ||v_i||_2 (Y taken
    by its symmetric part) by FISTA (step 1/2, row soft threshold at lam/2,
    gradient restart) on the rows of a working set A, the rest held at zero.
    A starts from init's nonzero rows and the strong-rule survivors
    |R_i(lam_prev)| >= 2 lam - lam_prev of the gradient R = V + V^T - Y;
    held rows that fail |R_i| <= lam after a solve join A for another, so
    the result is the exact optimum.  A solve stops at |V_{k+1} - V_k|_F <=
    opts.gl_tol (None: 1e-7 * ||Y||_F); converged is False when
    opts.gl_max_iter, the cap on the iterations of all solves, binds.

    init is (factor, lam_prev, grad_norms) of a result at a larger penalty;
    the default is V = 0, the solution at lam_prev = max_i ||Y_i||.
    """
    y = np.asarray(residual, dtype=float)
    if lam < 0:
        raise ValueError("need lam >= 0")
    opts = opts or SolverOptions()
    if not np.array_equal(y, y.T):
        y = 0.5 * (y + y.T)
    nt = y.shape[0]
    with np.errstate(over="ignore"):  # an overflow is refused below
        y2 = np.einsum("ij,ij->i", y, y)
        energy = float(y2.sum())
    if not math.isfinite(energy):
        raise ValueError("squared residual does not sum to a finite number")
    tol = 1e-7 * math.sqrt(energy) if opts.gl_tol is None else opts.gl_tol
    factor, lam_prev, grad_prev = init or (np.zeros((nt, nt)), math.sqrt(y2.max()), np.sqrt(y2))
    work = factor.any(axis=1) | (grad_prev >= 2.0 * lam - lam_prev)
    rows = np.flatnonzero(work)
    x = factor[rows]
    its = 0
    while True:
        ya = y[rows]
        z, t, done = x, 1.0, False
        while not done and its < opts.gl_max_iter:
            its += 1
            w = 0.5 * (z + ya)
            w[:, rows] -= 0.5 * z[:, rows].T
            norms = np.linalg.norm(w, axis=1)
            shrink = np.maximum(norms - 0.5 * lam, 0.0) / np.where(norms > 0, norms, 1.0)
            x_new = w * shrink[:, None]
            dx = x_new - x
            done = float(np.linalg.norm(dx)) <= tol
            if float(np.vdot(z - x_new, dx)) > 0:
                t = 1.0
            t_new = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
            z, t, x = x_new + ((t - 1.0) / t_new) * dx, t_new, x_new
        # |R_i|^2 of a row i held at zero is |Y_i|^2 - |Y_i[A]|^2 + |V[A, i] - Y_i[A]|^2
        d = x - ya
        grad2 = np.maximum(y2 - np.einsum("ij,ij->j", ya, ya), 0.0) + np.einsum("ij,ij->j", d, d)
        d[:, rows] += x[:, rows].T
        grad2[rows] = np.einsum("ij,ij->i", d, d)
        fail = np.flatnonzero((grad2 > lam * lam) & ~work)
        if not done or not fail.size:
            break
        work[fail] = True
        rows = np.concatenate([rows, fail])
        x = np.vstack([x, np.zeros((fail.size, nt))])
    if not done:
        logger.warning("group lasso stopped at gl_max_iter = %d (tol %.3g)", opts.gl_max_iter, tol)
    v = np.zeros((nt, nt))
    v[rows] = x
    alpha = np.zeros(nt)
    alpha[rows] = np.linalg.norm(x, axis=1)
    return GroupLassoResult(factor=v, alpha=alpha, grad_norms=np.sqrt(grad2),
                            iterations=its, converged=done)


def lambda_grid(residual, num=SolverOptions.gl_grid, floor_ratio=SolverOptions.lambda_floor):
    """Descending linspace from the largest row norm, the smallest penalty
    whose solution is all-zero, down to floor_ratio * min row norm; row
    norms that are not finite raise ValueError."""
    norms = _row_norms(residual)
    hi = float(norms.max())
    lo = floor_ratio * float(norms.min())
    if not lo < hi:
        return np.array([hi])
    return np.linspace(hi, lo, num)


def group_lasso_path(residual, grid, opts=None):
    """Yield the GroupLassoResult at each point of a nonnegative, strictly
    descending penalty grid, each solve warm-started from the one before;
    opts is the SolverOptions of every group_lasso call."""
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0 or not (np.all(grid >= 0) and np.all(np.diff(grid) < 0)):
        raise ValueError("grid must be nonempty, nonnegative and strictly descending")
    state = None
    for lam in grid:
        res = group_lasso(residual, lam, opts, init=state)
        yield res
        state = (res.factor, lam, res.grad_norms)


def group_lasso_support(residual, m, opts=None):
    """(support, last GroupLassoResult) of group_lasso_path over
    lambda_grid(y, opts.gl_grid, opts.lambda_floor): descend until at least
    m rows are active, then take the m largest row norms (falls back to the
    last grid point)."""
    if not 1 <= m < len(residual):
        raise ValueError(f"need 1 <= m < n, got m={m}")
    opts = opts or SolverOptions()
    for res in group_lasso_path(residual, lambda_grid(residual, opts.gl_grid, opts.lambda_floor),
                                opts):
        if int((res.alpha > 0).sum()) >= m:
            break
    return np.sort(np.argsort(-res.alpha, kind="stable")[:m]), res


# ---------------------------------------------------------------------------
# method dispatch

METHODS = ("sdp", "sdp-trunc", "sdp-multi", "glasso", "hard", "lse")


def recover(method, residuals, m, tau=None, kept=None, opts=None, rng=None):
    """Size-m support of a residual, or a list of copies, by a METHODS name.

    The SDP costs: sdp squares the averaged copy, sdp-trunc caps that at
    tau^2, sdp-multi multiplies the two half-averages.  glasso, hard and lse
    work on the averaged copy.  Returns (indices, solution): the support in
    original node numbering (through kept, the screening map, when given)
    and the SdpSolution of an SDP method, the last GroupLassoResult of
    glasso, else None; opts is a SolverOptions.  Non-finite residuals raise
    ValueError.
    """
    if method not in METHODS:
        raise ValueError(f"unknown support method {method!r}; use one of {', '.join(METHODS)}")
    # a NaN or inf in any copy reaches the average, which rejects it
    avg = _average(residuals)
    sol = None
    if method == "glasso":
        idx, sol = group_lasso_support(avg, m, opts)
    elif method == "hard":
        idx = hard_threshold(avg, m)
    elif method == "lse":
        idx = exhaustive_support(avg, m)
    else:
        sol = solve_sdp(build_cost(residuals, method, tau), m, opts=opts, rng=rng)
        idx = extract_support(sol, m)
    return (idx if kept is None else np.asarray(kept, dtype=int)[idx]), sol
