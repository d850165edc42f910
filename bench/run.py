"""netcontrast benchmark: one workload, one seed, one timed closed loop.

    python3 bench/run.py --workload recover-sdp --seed 1 --seconds 30 --trace 0

Run from anywhere; the program is imported from `src/` beside this
directory.  One client runs ops back to back in this process (closed loop,
BLAS pinned to one thread).  With --trace 0 the last stdout line carries the
end-to-end metrics; with --trace 1 every op runs once traced and once
untraced, the two outputs must agree, and the last line carries the
per-layer metrics.  Earlier lines print every metric with its unit and the
environment.  See bench/README.md.
"""

import os
import sys

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# pinning only takes effect if numpy has not been imported yet
_NUMPY_PREIMPORTED = "numpy" in sys.modules
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import contextlib
import json
import math
import platform
import resource
import shutil
import statistics
import time
import traceback

from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
WORK_DIR = BENCH_DIR / ".work"
# set up at least this many times, and more until the set-ups took SETUP_MIN_S,
# so a set-up of a few milliseconds still gets a steady median
SETUP_REPEATS = 3
SETUP_MIN_S = 2.0
TAIL_BEYOND = 10

END_TO_END = {
    "setup_s": "s",
    "op_p50_s": "s",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}
NO_WAIT_NOTE = ("no wait-time metric: one client in one process, so no layer "
                "queues or waits for another")


class ProgramMissing(Exception):
    """The checkout holds no netcontrast sources to benchmark."""


def import_program():
    """Import netcontrast from ROOT/src, never from an installed copy."""
    src = ROOT / "src"
    if not (src / "netcontrast" / "__init__.py").is_file():
        raise ProgramMissing(f"no netcontrast package under {src}")
    sys.path.insert(0, str(src))
    import netcontrast
    if Path(netcontrast.__file__).resolve().parent != (src / "netcontrast").resolve():
        raise ProgramMissing(f"imported netcontrast from {netcontrast.__file__}, not {src}")
    return netcontrast


def _git_sha():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed):
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = "unknown"
    threads = {var: os.environ.get(var) for var in BLAS_THREAD_VARS}
    pinned = not _NUMPY_PREIMPORTED and all(v == "1" for v in threads.values())
    env = {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": threads,
        "blas_threads_pinned_to_1": pinned,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "seed": seed,
    }
    if not pinned:
        env["warning"] = "BLAS threads not pinned to 1 (numpy imported before pinning)"
    return env


def tail(latencies):
    """Highest percentile with at least TAIL_BEYOND samples above it.

    Returns (value, percentile) or None when there are too few samples.
    """
    xs = sorted(latencies)
    if len(xs) <= TAIL_BEYOND:
        return None
    k = len(xs) - TAIL_BEYOND
    return xs[k - 1], 100.0 * k / len(xs)


def _run_op(wl, i, tracer):
    """Run op i once; returns (latency_s, Outcome)."""
    from workloads import Outcome
    wl.prepare(i)
    ctx = tracer.active(f"op-{i}") if tracer else contextlib.nullcontext()
    with ctx:
        t0 = time.perf_counter()
        try:
            raw = wl.op(i)
        except Exception:
            dt = time.perf_counter() - t0
            traceback.print_exc()
            return dt, Outcome(False, False, math.nan, ("exception",), "exception")
        dt = time.perf_counter() - t0
    try:
        return dt, wl.check(i, raw)
    except (OSError, ValueError, TypeError, AttributeError) as exc:
        return dt, Outcome(False, False, math.nan, ("unreadable",), f"output unreadable: {exc}")


def run(wl, seed, seconds, tracer=None, max_ops=None, name="workload"):
    """Set up `wl` from `seed`, run its ops, and return the full record.

    Ops run until `seconds` have passed (at least one op), or exactly
    `max_ops` ops when given.  With a `tracer`, set-ups are traced and every
    op runs once traced and once untraced.
    """
    from tracing import layer_metrics

    workdir = WORK_DIR / f"{name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setup_times = []
        while len(setup_times) < SETUP_REPEATS or sum(setup_times) < SETUP_MIN_S:
            k = len(setup_times)
            ctx = tracer.active(f"setup-{k}") if tracer else contextlib.nullcontext()
            with ctx:
                t0 = time.perf_counter()
                wl.setup(seed, str(workdir))
                setup_times.append(time.perf_counter() - t0)

        latencies, plain, outcomes, mismatches = [], [], [], 0
        start = time.perf_counter()

        def more(i):
            if max_ops is not None:
                return i < max_ops
            return i == 0 or time.perf_counter() - start < seconds

        i = 0
        while more(i):
            if tracer is None:
                dt, res = _run_op(wl, i, None)
            else:
                # alternate which run goes first so neither always finds warm caches
                runs = {}
                for traced in ((True, False) if i % 2 else (False, True)):
                    runs[traced] = _run_op(wl, i, tracer if traced else None)
                (dt, res), (dt_plain, res_plain) = runs[True], runs[False]
                plain.append(dt_plain)
                if res.detail != res_plain.detail:
                    mismatches += 1
                    res.ok = False
                    res.reason = "traced and untraced outputs differ"
            latencies.append(dt)
            outcomes.append(res)
            i += 1
        loop_s = time.perf_counter() - start
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(outcomes)
    failed = sum(not o.ok for o in outcomes)
    quality = [o.quality for o in outcomes if o.ok]
    record = {
        "workload": name,
        "trace": int(tracer is not None),
        "seconds": seconds,
        "attempted": attempted,
        "failed": failed,
        "failures": [f"op {k}: {o.reason}" for k, o in enumerate(outcomes) if not o.ok],
        "outputs": [list(o.detail) for o in outcomes],
        "setup_runs_s": setup_times,
        "op_latencies_s": latencies,
        "note": NO_WAIT_NOTE,
    }
    e2e = {}
    if tracer is None:
        # traced runs time only the per-layer split; end-to-end timing is untraced
        e2e = {
            "setup_s": statistics.median(setup_times),
            "op_p50_s": statistics.median(latencies),
            "ops_per_s": attempted / loop_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        t = tail(latencies)
        if t is not None:
            e2e["op_tail_s"], record["op_tail_percentile"] = t
    e2e["failed_frac"] = failed / attempted
    e2e["unconverged_frac"] = sum(o.unconverged for o in outcomes) / attempted
    if quality:
        e2e[wl.QUALITY] = statistics.fmean(quality)
    record["end_to_end"] = e2e

    if tracer is not None:
        op_ids = [f"op-{k}" for k in range(attempted)]
        setup_ids = [f"setup-{k}" for k in range(len(setup_times))]
        layers = layer_metrics(tracer.spans, op_ids, setup_ids, sum(latencies))
        # paired per op, so host-speed drift between ops cancels
        layers["trace.overhead_frac"] = statistics.median(
            t / u for t, u in zip(latencies, plain)) - 1.0
        record["per_layer"] = layers
        record["trace_mismatches"] = mismatches
        record["untraced_latencies_s"] = plain
    record["correct"] = attempted >= 1 and failed == 0
    return record


_UNITS = {"op_tail_s": "s", "fnr_mean": "ratio", "linf_err_mean": "1",
          "failed_frac": "ratio", "unconverged_frac": "ratio", **END_TO_END}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        import_program()
    except (ProgramMissing, ImportError) as exc:
        print(f"error: cannot import the program: {exc}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(BENCH_DIR))
    import workloads
    from tracing import PER_LAYER, Tracer
    if args.workload not in workloads.NAMES:
        print(f"error: unknown workload {args.workload!r}; choose from {workloads.NAMES}",
              file=sys.stderr)
        return 2

    env = environment(args.seed)
    tracer = Tracer() if args.trace else None
    record = run(workloads.make(args.workload), args.seed, args.seconds, tracer,
                 name=args.workload)
    record["environment"] = env

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        tracer.write(OUT_DIR / f"{stem}.spans.jsonl")
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"ops {record['attempted']}  failed {record['failed']}")
    print("environment " + json.dumps(env, sort_keys=True))
    for key, value in record["end_to_end"].items():
        print(f"end_to_end {key} = {value:.6g} {_UNITS[key]}")
    if "op_tail_percentile" in record:
        print(f"op_tail_s is p{record['op_tail_percentile']:.1f} of {record['attempted']} ops")
    for key, value in record.get("per_layer", {}).items():
        print(f"per_layer {key} = {value:.6g} {PER_LAYER[key]}")
    for line in record["failures"]:
        print(f"failure {line}")
    print(f"note: {NO_WAIT_NOTE}")

    if args.trace:
        metrics = {k: {"value": v, "unit": PER_LAYER[k]} for k, v in record["per_layer"].items()}
    else:
        metrics = {k: {"value": record["end_to_end"][k], "unit": u} for k, u in END_TO_END.items()}
    print(json.dumps({"correct": record["correct"], "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
