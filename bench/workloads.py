"""The benchmark's workloads: inputs made from the seed, one op, output checks.

Each workload drives the program only through a front end: `cli.main` for
the two recover workloads, `harness.run_experiment` for mc-refine.
"""

import json
import math
import os

from dataclasses import dataclass

import numpy as np

from netcontrast import cli, harness, matio, model

# exp-snr's perturbation-scale coefficients: below, at and above the
# support-recovery phase transition
SNR_COEFFS = (0.8, 1.6, 2.4)
# op configs made at set-up; ops cycle through them
CONFIG_POOL = 64


def op_seed(seed, i):
    """Solver / harness seed of op i, derived from the workload seed."""
    return int(np.random.SeedSequence([seed, i]).generate_state(1)[0])


@dataclass
class Outcome:
    """What one op returned, judged by the workload's checks."""

    ok: bool
    unconverged: bool
    quality: float      # FNR (recover) or mean linf error (mc-refine)
    detail: tuple       # the op's output, compared across runs
    reason: str = ""


@dataclass
class Dataset:
    y1: str
    planted: frozenset


class Recover:
    """`netcontrast recover` on data written with matio at set-up.

    One shared matrix (n nodes, rank r) with two control observations, and
    one treatment observation per SNR coefficient, each with its own m
    perturbed nodes.  Op i passes the two controls and treatment i mod 3,
    with a solver seed derived from the workload seed.
    """

    QUALITY = "fnr_mean"

    def __init__(self, method, n=400, r=3, m=10, coeffs=SNR_COEFFS):
        self.method, self.n, self.r, self.m, self.coeffs = method, n, r, m, coeffs
        self.datasets = []
        self.y0 = ()
        self.seed = None
        self.out = None

    def setup(self, seed, workdir):
        n, r, m = self.n, self.r, self.m
        rng = np.random.default_rng(seed)
        noise = model.NoiseSpec(family="gaussian-iid", sigma=1.0)
        vals = np.array([3 * math.sqrt(n) + (r - i) * math.log(n) for i in range(1, r + 1)])
        basis = model.sample_incoherent_basis(n, r, math.log(n), rng)
        perturbations = [
            model.sample_node_sparse(n, m, coeff * n ** -0.25 * math.log(n) ** 0.25, rng)
            for coeff in self.coeffs]
        truth = model.GroundTruth(basis=basis, eigenvalues=vals, perturbations=perturbations)
        obs = model.assemble_observations(truth, noise, 2, len(self.coeffs), rng)
        self.y0 = tuple(os.path.join(workdir, f"y0_{k}.txt") for k in range(2))
        for path, mat in zip(self.y0, obs.g0):
            matio.write_matrix(path, mat)
        self.datasets = []
        for c, (y, (_, planted)) in enumerate(zip(obs.g1, perturbations)):
            path = os.path.join(workdir, f"y1_c{c}.txt")
            matio.write_matrix(path, y)
            self.datasets.append(Dataset(path, frozenset(int(i) for i in planted)))
        self.seed = seed
        self.out = os.path.join(workdir, "support.json")

    def prepare(self, i):
        """Untimed per-op housekeeping: no stale output can pass the checks."""
        if os.path.exists(self.out):
            os.remove(self.out)

    def op(self, i):
        data = self.datasets[i % len(self.datasets)]
        argv = ["recover", "--y1", data.y1, "--y0", *self.y0,
                "--rank", str(self.r), "--m", str(self.m), "--method", self.method,
                "--seed", str(op_seed(self.seed, i)), "--out", self.out]
        return cli.main(argv)

    def check(self, i, code):
        if code not in (0, 2):
            return Outcome(False, False, math.nan, (code,), f"exit code {code}")
        with open(self.out, encoding="utf-8") as fh:
            text = fh.read()
        support = json.loads(text).get("support")
        valid = (isinstance(support, list) and len(support) == self.m
                 and all(type(v) is int and 0 <= v < self.n for v in support)
                 and len(set(support)) == self.m)
        if not valid:
            return Outcome(False, False, math.nan, (code, text), f"bad support {support!r}")
        planted = self.datasets[i % len(self.datasets)].planted
        fnr = len(planted - set(support)) / len(planted)
        return Outcome(True, code == 2, fnr, (code, text))


class MonteCarloRefine:
    """`harness.run_experiment` on preset exp-refine, one trial per op.

    Methods spec, mhat1 and mhat2 at each of the preset's parameter points
    (its four defaults unless `params` is given), one thread, timing off,
    and a harness seed derived from the workload seed.
    """

    QUALITY = "linf_err_mean"
    METHODS = ("spec", "mhat1", "mhat2")
    DEFAULT_POINTS = 4

    def __init__(self, n=800, params=None):
        self.n, self.params = n, params
        self.configs = []

    def setup(self, seed, workdir):
        base = {"preset": "exp-refine", "n": str(self.n), "trials": "1",
                "methods": ",".join(self.METHODS), "timing": "0"}
        if self.params is not None:
            base["params"] = ",".join(self.params)
        self.configs = [harness.config_from_mapping({**base, "seed": str(op_seed(seed, i))})
                        for i in range(CONFIG_POOL)]

    def prepare(self, i):
        pass

    def op(self, i):
        return harness.run_experiment(self.configs[i % len(self.configs)], threads=1)

    def check(self, i, result):
        """One row per (point, method); converged rows finite and >= 0.

        A row with converged=0 and a NaN value is an estimator that declared
        failure (complex top eigenvalues, singular correction): the op counts
        as unconverged, as `refine` exits 2 when no estimator succeeds.  The
        spectral baseline has no failure of its own, so a NaN there means the
        whole trial raised, and the op fails.
        """
        rows = result.rows
        detail = tuple((r.method, r.param, repr(r.value), r.converged) for r in rows)
        points = len(self.params) if self.params is not None else self.DEFAULT_POINTS
        keys = {(r.param, r.method) for r in rows}
        if (len(rows) != points * len(self.METHODS) or len(keys) != len(rows)
                or {r.method for r in rows} != set(self.METHODS)):
            return Outcome(False, False, math.nan, detail, "wrong set of estimator rows")
        for r in rows:
            if r.converged and not (math.isfinite(r.value) and r.value >= 0):
                return Outcome(False, False, math.nan, detail, f"bad {r.method} row {r.value!r}")
            if not r.converged and (r.method == "spec" or not math.isnan(r.value)):
                return Outcome(False, False, math.nan, detail, f"trial failed at {r.param}")
        values = [r.value for r in rows if r.converged]
        unconverged = len(values) < len(rows)
        return Outcome(True, unconverged, sum(values) / len(values), detail)


def make(name):
    """The named workload at its benchmark size."""
    if name == "recover-sdp":
        return Recover("sdp")
    if name == "recover-glasso":
        return Recover("glasso")
    if name == "mc-refine":
        return MonteCarloRefine()
    raise KeyError(name)


NAMES = ("recover-sdp", "recover-glasso", "mc-refine")
