"""Command-line interface.

Subcommands: generate (synthetic observation sets), recover (node-support
recovery on matrices from disk; --method lse is the exhaustive search),
refine (low-rank refinement given a support), experiment (preset/config
Monte-Carlo sweeps to CSV).

Exit codes: 0 success, 1 configuration/usage error, 2 solver
non-convergence (or total estimator failure) in single-shot modes.
"""

import argparse
import json
import math
import sys

from pathlib import Path

import numpy as np

from . import harness, matio, model, refine, spectral, support
from .harness import ConfigError


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def _add_solver_flags(p):
    # unset flags stay out of args, so the support.SolverOptions defaults hold
    unset = argparse.SUPPRESS
    p.add_argument("--sdp-rank", type=int, default=unset, help="factor width of the SDP solver")
    p.add_argument("--sdp-restarts", type=int, default=unset, help="most SDP runs, until one is certified")
    p.add_argument("--gl-tol", type=float, default=unset,
                   help="group-lasso bound on the iterate change (default 1e-7*||Y||_F)")
    p.add_argument("--gl-max-iter", type=int, default=unset, help="group-lasso iteration cap")
    p.add_argument("--gl-grid", type=int, default=unset, help="penalty-path grid size")
    p.add_argument("--seed", type=int, default=0, help="solver RNG seed")


def _build_parser():
    parser = _Parser(prog="netcontrast",
                     description="Shared low-rank structure and node-sparse "
                                 "contrasts between groups of networks.")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="write a synthetic observation set")
    g.add_argument("--n", type=int, default=200)
    g.add_argument("--r", type=int, default=3)
    g.add_argument("--mu", default="log(n)", help="coherence target (expression in n, r)")
    g.add_argument("--m", default="10", help="support size (expression in n, r)")
    g.add_argument("--sigma-b", default="2*n**(-0.25)*log(n)**0.25",
                   help="perturbation scale (expression in n, r)")
    g.add_argument("--eigenvalues", default="3*sqrt(n) + (r - i)*log(n)",
                   help="eigenvalue rule (expression in n, r, i)")
    g.add_argument("--noise", default="gaussian-iid", choices=model.NOISE_FAMILIES)
    g.add_argument("--sigma", type=float, default=model.NoiseSpec.sigma)
    g.add_argument("--sigma-min", type=float, default=model.NoiseSpec.sigma_min)
    g.add_argument("--sigma-max", type=float, default=model.NoiseSpec.sigma_max)
    g.add_argument("--g0", type=int, default=1, help="number of control observations")
    g.add_argument("--g1", type=int, default=1, help="number of treatment observations")
    g.add_argument("--shared", action="store_true",
                   help="all treatments share one perturbation")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out-dir", required=True)
    g.set_defaults(func=_cmd_generate)

    r = sub.add_parser("recover", help="node-support recovery on matrices from disk")
    r.add_argument("--y1", nargs="+", required=True, help="treatment matrices")
    r.add_argument("--y0", nargs="*", default=[], help="control matrices")
    r.add_argument("--rank", type=int, default=0, help="shared-structure rank (0 = none)")
    r.add_argument("--method", default="sdp", choices=support.METHODS)
    r.add_argument("--m", type=int, default=None, help="support size")
    r.add_argument("--m-auto", action="store_true", help="select the support size automatically")
    r.add_argument("--c-thresh", type=float, default=support.C_THRESH,
                   help="m-selection slack constant")
    r.add_argument("--no-screen", action="store_true", help="skip coherence screening")
    r.add_argument("--c-screen", type=float, default=spectral.C_SCREEN, help="screening constant")
    r.add_argument("--out", default=None, help="write the JSON record here (default stdout)")
    _add_solver_flags(r)
    r.set_defaults(func=_cmd_recover)

    f = sub.add_parser("refine", help="refine the shared low-rank matrix")
    f.add_argument("--y1", nargs="*", default=[], help="treatment matrices")
    f.add_argument("--y0", nargs="+", required=True, help="control matrices")
    f.add_argument("--rank", type=int, required=True)
    f.add_argument("--support", default="", help="comma-separated node indices to mask")
    f.add_argument("--refine", default="all", choices=[*refine.ESTIMATORS, "all"],
                   dest="which", help="which estimators to emit")
    f.add_argument("--truth", default=None, help="matrix to report linf errors against")
    f.add_argument("--truth-support", default=None,
                   help="true support for the contamination flag")
    f.add_argument("--emit", default=None, help="directory for estimate matrices")
    f.add_argument("--out", default=None, help="write the JSON record here (default stdout)")
    f.set_defaults(func=_cmd_refine)

    e = sub.add_parser("experiment", help="run a Monte-Carlo preset or config file")
    group = e.add_mutually_exclusive_group(required=True)
    group.add_argument("--preset", choices=harness.preset_names())
    group.add_argument("--config", help="flat key=value config file")
    e.add_argument("--out", default=None, help="results CSV path")
    e.add_argument("--summary", default=None, help="summary CSV path")
    e.add_argument("--threads", type=int, default=1)
    e.add_argument("--timing", action="store_true", help="record per-method runtimes")
    e.add_argument("--seed", type=int, default=None)
    e.add_argument("--trials", type=int, default=None)
    e.add_argument("--n", default=None, help="comma-separated n values")
    e.add_argument("--methods", default=None, help="comma-separated method names")
    e.add_argument("--params", default=None, help="comma-separated parameter points")
    e.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                   help="override any config key")
    e.set_defaults(func=_cmd_experiment)

    return parser


def _emit_json(record, path):
    text = json.dumps(record, indent=2, sort_keys=True)
    if path:
        Path(path).write_text(text + "\n", encoding="utf-8")
    else:
        print(text)


def _cmd_generate(args):
    rng = np.random.default_rng(args.seed)
    n, r = args.n, args.r

    def rule(flag, expr, **extra):
        return harness._rule_at(flag, expr, [n], r=r, **extra)[n]

    mu = rule("--mu", args.mu)
    m = int(round(rule("--m", args.m)))
    sigma_b = rule("--sigma-b", args.sigma_b)
    vals = np.array([rule("--eigenvalues", args.eigenvalues, i=i) for i in range(1, r + 1)])
    try:
        noise = model.NoiseSpec(family=args.noise, sigma=args.sigma,
                                sigma_min=args.sigma_min, sigma_max=args.sigma_max)
        basis = model.sample_incoherent_basis(n, r, mu, rng)
        n_perturb = 1 if args.shared else args.g1
        perturbations = [model.sample_node_sparse(n, m, sigma_b, rng)
                         for _ in range(n_perturb)]
        truth = model.GroundTruth(basis=basis, eigenvalues=vals, perturbations=perturbations)
        obs = model.assemble_observations(truth, noise, args.g0, args.g1, rng,
                                          shared=args.shared)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None

    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    matio.write_matrix(out / "mstar.txt", truth.shared_matrix())
    for k, y in enumerate(obs.g0):
        matio.write_matrix(out / f"y0_{k:02d}.txt", y)
    for j, y in enumerate(obs.g1):
        matio.write_matrix(out / f"y1_{j:02d}.txt", y)
    for j, (b, _) in enumerate(truth.perturbations):
        matio.write_matrix(out / f"b_{j:02d}.txt", b)
    meta = {
        "n": n, "r": r, "m": m, "mu_target": mu, "mu_realized": truth.mu,
        "kappa": truth.kappa, "sigma_b": sigma_b,
        "eigenvalues": [float(v) for v in truth.eigenvalues],
        "supports": [[int(i) for i in sup] for _, sup in truth.perturbations],
        "noise": {"family": noise.family, "sigma": noise.sigma,
                  "sigma_min": noise.sigma_min, "sigma_max": noise.sigma_max},
        "g0": args.g0, "g1": args.g1, "shared": args.shared, "seed": args.seed,
    }
    _emit_json(meta, out / "meta.json")
    print(f"wrote {args.g0} control and {args.g1} treatment matrices to {out}")
    return 0


def _read_matrices(*groups):
    """One list of (square) matrices per list of paths.  A file that cannot
    be read, or whose shape differs from the first file's, is a ConfigError."""
    out, shape = [], None
    for paths in groups:
        out.append([])
        for path in paths:
            try:
                mat = matio.read_matrix(path)
            except (OSError, ValueError) as exc:
                raise ConfigError(str(exc)) from None
            shape = shape or mat.shape
            if mat.shape != shape:
                raise ConfigError(f"{path}: shape {mat.shape} differs from the first file's {shape}")
            out[-1].append(mat)
    return out


def _cmd_recover(args):
    opts = harness.solver_settings(vars(args))
    y1s, y0s = _read_matrices(args.y1, args.y0)
    n = y1s[0].shape[0]
    rank = args.rank
    if rank < 0:
        raise ConfigError(f"--rank must be >= 0, got {rank}")
    if rank > 0 and not y0s:
        raise ConfigError("--rank > 0 needs at least one control matrix (--y0)")
    try:
        resids, kept, tau = spectral.stage_one(y1s, y0s, rank,
                                               None if args.no_screen else args.c_screen)
    except ValueError as exc:
        raise ConfigError(f"stage 1: {exc}") from None
    nt = resids[0].shape[0]

    record = {"n": n, "rank": rank, "method": args.method,
              "kept_count": int(nt), "tau": tau}
    rng = np.random.default_rng(args.seed)

    m, sel = args.m, None
    if args.m_auto:
        if tau is None:
            raise ConfigError("--m-auto needs a noise-scale estimate")
        m0 = m if m is not None else int(math.ceil(2 * math.log(nt)))
        try:
            sel = support.select_m(spectral._average(resids), tau, m0,
                                   c_thresh=args.c_thresh, opts=opts, rng=rng)
        except ValueError as exc:
            raise ConfigError(f"--m-auto: {exc}") from None
        m = sel.m
        record["m_auto"] = dict(vars(sel))
    if m is None:
        raise ConfigError("either --m or --m-auto is required")
    record["m"] = int(m)

    try:
        indices, sol = support.recover(args.method, resids, m, tau=tau, kept=kept,
                                       opts=opts, rng=rng)
    except ValueError as exc:
        raise ConfigError(f"--method {args.method}: {exc}") from None
    converged = (sol is None or sol.converged) and (sel is None or sel.converged)
    if isinstance(sol, support.SdpSolution):
        # the scalar fields: a new SdpSolution field is a new output key
        record["sdp"] = {k: v for k, v in vars(sol).items() if not isinstance(v, np.ndarray)}
    if args.method == "lse":  # its objective, on the residual's own node numbering
        local = indices if kept is None else np.searchsorted(kept, indices)
        record["complement_energy"] = support.complement_energy(spectral._average(resids), local)
    record["support"] = [int(i) for i in indices]
    record["converged"] = bool(converged)
    _emit_json(record, args.out)
    return 0 if converged else 2


def _parse_indices(flag, text, n):
    """Sorted distinct node indices from flag's comma-separated list; each
    must lie in [0, n)."""
    text = text.strip()
    if not text:
        return np.array([], dtype=int)
    try:
        idx = sorted({int(tok) for tok in text.split(",")})
    except ValueError:
        raise ConfigError(f"{flag}: bad index list {text!r}") from None
    if not 0 <= idx[0] <= idx[-1] < n:
        raise ConfigError(f"{flag}: node indices must lie in [0, n={n}), got {text!r}")
    return np.array(idx, dtype=int)


def _cmd_refine(args):
    y1s, y0s, truths = _read_matrices(args.y1, args.y0, [args.truth] if args.truth else [])
    truth = truths[0] if truths else None
    n = y0s[0].shape[0]
    if not 1 <= args.rank <= n:
        raise ConfigError(f"--rank must lie in [1, n={n}], got {args.rank}")
    sup = _parse_indices("--support", args.support, n)
    if not y1s and len(y0s) < 2:
        raise ConfigError("refine needs either --y1 plus one --y0, or two --y0")
    record = {"rank": args.rank, "support": [int(i) for i in sup], "estimators": {}}
    if args.truth_support is not None:
        truth_sup = _parse_indices("--truth-support", args.truth_support, n)
        record["contaminated"] = not set(truth_sup.tolist()) <= set(sup.tolist())
    if args.emit:
        Path(args.emit).mkdir(parents=True, exist_ok=True)

    masked1 = [refine.mask_support(y, sup) for y in y1s]
    masked0 = [refine.mask_support(y, sup) for y in y0s]
    # the composite splices the treatment mean (else the first control) with
    # the next control; the two controls after it are mhat2's extras
    if masked1:
        upper, rest = spectral._average(masked1), masked0
    else:
        upper, rest = masked0[0], masked0[1:]
    wanted = refine.ESTIMATORS if args.which == "all" else (args.which,)
    for meth, est, error in refine.estimate(wanted, args.rank, masked1 + masked0,
                                            upper, rest[0], rest[1:]):
        entry = record["estimators"][meth] = {"ok": est is not None}
        if est is None:
            entry["error"] = error
            continue
        if truth is not None:
            entry["linf_complement"] = refine.entry_error(est, refine.mask_support(truth, sup))
            entry["linf_full"] = refine.entry_error(est, truth)
        if args.emit:
            path = Path(args.emit) / f"{meth}.txt"
            matio.write_matrix(path, est)
            entry["file"] = str(path)
    _emit_json(record, args.out)
    return 0 if any(e["ok"] for e in record["estimators"].values()) else 2


def _cmd_experiment(args):
    # one mapping of config strings; later sources win: the file (or
    # --preset), then --timing, then the named flags, then --set
    raw = harness.read_config_mapping(args.config) if args.config else {"preset": args.preset}
    if args.timing:
        raw["timing"] = "1"
    for key in ("seed", "trials", "n", "methods", "params"):
        if getattr(args, key) is not None:
            raw[key] = str(getattr(args, key))
    for item in args.set:
        key, eq, val = item.partition("=")
        if not eq:
            raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
        raw[key.strip()] = val.strip()
    cfg = harness.config_from_mapping(raw)

    result = harness.run_experiment(cfg, threads=args.threads)
    if args.out:
        harness.write_results(result, args.out)
        print(f"wrote {len(result.rows)} rows to {args.out}")
    if args.summary:
        harness.write_summary(result, args.summary)
        print(f"wrote summary to {args.summary}")
    if not args.out and not args.summary:
        for g in result.summary():
            print(f"n={g['n']} method={g['method']} param={g['param']} "
                  f"mean={g['mean']:.4f} sd={g['sd']:.4f} "
                  f"ci=[{g['ci_low']:.4f}, {g['ci_high']:.4f}] count={g['count']}")
    return 0


def main(argv=None):
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
