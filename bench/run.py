"""Benchmark for termlq: one seeded workload, run as a closed loop in one
process, through the command line entry point ``termlq.cli.main``.

Usage (from the repository root):

    python3 bench/run.py --workload verify-long --seed 0 --seconds 25 --trace 0

Workloads (sizes, instance mix and the reason for each: bench/workloads.py):

    verify-long     verify, n=3 m=2 N=64
    learn-wide      learn from the plant, then from a replay log, n=8 m=4 N=16
    solve-long      reach, then solve, n=8 m=4 N=256
    campaign-small  campaign --trials 20 over the default ranges

One op is one or two CLI commands run in-process; the next op starts when the
previous one returns. Every op is checked against the Riccati reference and
failures are counted by class (uncaught:<Exception>, exit:<code>, mismatch,
bounds); a failure never aborts the run. BLAS and OpenMP are pinned to one
thread before numpy is imported, because the thread count changes report
bytes. Set-up (import, instance files and replay logs, one warm-up op) runs
SETUP_REPS times; the warm-up op is op 0, so its reports must repeat byte for
byte across set-ups and in the timed loop.

With --trace 0 the run measures the end-to-end metrics. With --trace 1 every
op runs twice, untraced and then with the layer functions wrapped from
outside (bench/spans.py); the untraced twin gives the tracing overhead and
must produce the same report bytes. A horizon probe then times verify and
reach at N in PROBE_N. The spans go to
.bench_run/spans-<workload>-seed<seed>.jsonl.

Output: a human-readable line per metric, then one line holding
{"details": {...}}, then as the last line the result:

    {"correct": bool,      # every repeated op reproduced its report bytes
     "attempted": int,     # ops timed
     "failed": int,        # ops whose check disagrees with the reference
     "metrics": {name: {"value": float, "unit": str}, ...}}

End-to-end metrics (--trace 0):

    setup_s      s      import time + median over SETUP_REPS set-ups of
                        (write the files + one warm-up op)
    op_p50_ms    ms     median op wall time
    op_tail_ms   ms     highest order statistic with >= 10 ops beyond it (the
                        median below 21 ops); details.tail_percentile names it
    ops_per_s    1/s    ops / summed op wall time
    pass_share   ratio  ops that pass their check / ops attempted
                        (details.fail_share = 1 - pass_share)
    peak_rss_mb  MB     ru_maxrss of the process

Per-layer metrics (--trace 1), per op:

    <span>.calls_per_op     count  calls of the span
    <span>.self_ms_per_op   ms     span time minus its child spans
    <span>.fails_per_op     count  calls that raised
    qlearn.oracle_steps_per_op  count  SimulatedPlant/ReplayLog step() calls
    trace.unattributed_share    ratio  op time outside the top-level spans
    trace.overhead_share        ratio  median over ops of traced / untraced time - 1
    <span>.n_slope          exponent  log-log slope of the span's time
                                      (children included) against N in the
                                      horizon probe, for SLOPE_SPANS

with <span> one of spans.SPAN_NAMES, "<module>.<function>".

Details: {"workload", "seed", "seconds", "trace", "size", "environment":
{"python", "numpy", "blas", "cpu_count", "threads", "commit"}, "ops",
"tail_percentile", "fail_share", "failures_by_class", "failed_ops" ([op,
class] pairs; the workload's commands(op) reproduces an op), "digest" (sha256
of the report bytes of the first DIGEST_OPS ops), "digest_ops",
"repeat_identical", "import_s", "setup_reps_s", "op_ms" (every op's wall
time, in order); with --trace 1 also "probe_N" and "spans_file"}.

Exit status: 0 with a result; 2 (no result printed) when the checkout has no
termlq sources or the arguments are invalid.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:   # must precede the first numpy import
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPS = 3
DIGEST_OPS = 8
PROBE_N = {"full": (16, 32, 64, 128), "small": (2, 4, 8, 16)}
PROBE_DIMS = {"full": (3, 2), "small": (2, 1)}
SLOPE_SPANS = ("model.riccati_backward", "model.build_schedule", "model.check_reachability",
               "model.rollout", "harness.kkt_oracle", "qlearn.learn")


def load_termlq():
    """Import termlq from this checkout's src/; returns (cli module, seconds)."""
    src = ROOT / "src"
    if not (src / "termlq" / "__init__.py").is_file():
        print(f"bench: no termlq sources under {src}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(src))
    start = time.perf_counter()
    importlib.import_module("numpy")
    cli = importlib.import_module("termlq.cli")
    seconds = time.perf_counter() - start
    if Path(cli.__file__).resolve().parent != src / "termlq":
        print(f"bench: termlq imported from {cli.__file__}, not {src}", file=sys.stderr)
        raise SystemExit(2)
    return cli, seconds


def run_op(cli, commands):
    """Run each argv through cli.main (looked up per call, so tracing
    patches apply) with stdout and stderr captured."""
    from workloads import Outcome
    outcomes = []
    for argv in commands:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            try:
                code, raised = cli.main(argv), None
            except Exception as exc:  # cli.main re-raises non-termlq errors; count, never abort
                code, raised = None, type(exc).__name__
        outcomes.append(Outcome(code, out.getvalue(), raised))
    return outcomes


def check(wl, i, outcomes) -> str | None:
    try:
        return wl.check(i, outcomes)
    except (KeyError, TypeError, ValueError, IndexError):   # report lacks a checked field
        return "mismatch"


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"python": platform.python_version(), "numpy": np.__version__, "blas": blas,
            "cpu_count": os.cpu_count(), "threads": {v: os.environ[v] for v in THREAD_VARS},
            "commit": git_commit()}


def tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest order statistic with at least ten
    ops beyond it; the median when there are fewer than 21 ops."""
    s = sorted(times)
    k = max(len(s) - 11, (len(s) - 1) // 2)
    return s[k], 100.0 * (k + 1) / len(s)


def set_up(cli, wl_cls, seed: int, size: str, directory: Path):
    """SETUP_REPS set-ups into the same directory; returns the last workload,
    the seconds of each set-up, the warm-up reports, and whether they repeat."""
    reps, warm, repeat = [], None, True
    for _ in range(SETUP_REPS):
        shutil.rmtree(directory, ignore_errors=True)
        start = time.perf_counter()
        directory.mkdir(parents=True)
        wl = wl_cls(seed, size, directory)
        wl.prepare()
        texts = [o.out for o in run_op(cli, wl.commands(0))]
        reps.append(time.perf_counter() - start)
        repeat &= warm is None or texts == warm
        warm = texts
    return wl, reps, warm, repeat


def horizon_probe(cli, tracer, seed: int, size: str, directory: Path) -> dict:
    """Traced verify and reach on one native and one contractive instance at
    each probe horizon; returns the log-log slope against N of each
    SLOPE_SPANS span's full duration. Self time would leave out the children
    that carry a layer's growth: stacked_operators for kkt_oracle, the stage
    fits for learn."""
    from spans import loglog_slope
    from workloads import draw_pool
    n, m = PROBE_DIMS[size]
    directory.mkdir(parents=True, exist_ok=True)
    total_ns = {name: [] for name in SLOPE_SPANS}
    for N in PROBE_N[size]:
        op = f"probe-{N}"
        tracer.op = op
        tracer.install()
        try:
            for inst in draw_pool(seed, 100 + N, 2, (n, m, N), directory):
                path = str(inst.path)
                run_op(cli, [["verify", "--instance", path, "--seed", "0"],
                             ["reach", "--instance", path]])
        finally:
            tracer.remove()
        totals = tracer.layer_totals([op])
        for name in SLOPE_SPANS:
            total_ns[name].append(totals[name]["total_ns"])
    return {name: loglog_slope(PROBE_N[size], ys) for name, ys in total_ns.items()}


def measure(cli, args, import_s: float, workdir: Path):
    from spans import SPAN_NAMES, Tracer
    from workloads import WORKLOADS

    wl, reps, warm, repeat = set_up(cli, WORKLOADS[args.workload], args.seed, args.size,
                                    workdir / "files")
    tracer = Tracer() if args.trace else None
    times: dict[int, int] = {}
    untraced: dict[int, int] = {}
    failures: list[tuple[int, str]] = []
    digest = hashlib.sha256()
    i = 0
    start = time.perf_counter()
    # ops 2i and 2i+1 run a native and a contractive instance; a run ends on a
    # whole pair so both halves weigh the same
    while i < 2 or i % 2 or time.perf_counter() - start < args.seconds:
        if tracer is not None:
            # the same op untraced first: the overhead baseline, and its
            # reports must equal the traced ones
            t0 = time.perf_counter_ns()
            plain = [o.out for o in run_op(cli, wl.commands(i))]
            untraced[i] = time.perf_counter_ns() - t0
            tracer.op = i
            tracer.install()
        t0 = time.perf_counter_ns()
        outcomes = run_op(cli, wl.commands(i))
        times[i] = time.perf_counter_ns() - t0
        if tracer is not None:
            tracer.remove()
            repeat &= plain == [o.out for o in outcomes]
        failure = check(wl, i, outcomes)
        if failure:
            failures.append((i, failure))
        texts = [o.out for o in outcomes]
        if i == 0:
            repeat &= texts == warm
        if i < DIGEST_OPS:
            for text in texts:
                digest.update(text.encode())
        i += 1

    ops = len(times)
    failed = len(failures)
    by_class: dict[str, int] = {}
    for _, failure in failures:
        by_class[failure] = by_class.get(failure, 0) + 1
    details = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
               "trace": args.trace, "size": args.size, "environment": environment(),
               "ops": ops, "fail_share": failed / ops,
               "failures_by_class": dict(sorted(by_class.items())), "failed_ops": failures,
               "digest": digest.hexdigest(), "digest_ops": min(ops, DIGEST_OPS),
               "repeat_identical": repeat, "import_s": import_s, "setup_reps_s": reps,
               "op_ms": [round(t / 1e6, 3) for t in times.values()]}
    metrics: dict[str, tuple[float, str]] = {}
    if tracer is None:
        ms = [t / 1e6 for t in times.values()]
        tail_ms, pct = tail(ms)
        details["tail_percentile"] = pct
        metrics = {
            "setup_s": (import_s + statistics.median(reps), "s"),
            "op_p50_ms": (statistics.median(ms), "ms"),
            "op_tail_ms": (tail_ms, "ms"),
            "ops_per_s": (ops / (sum(times.values()) / 1e9), "1/s"),
            "pass_share": (1.0 - failed / ops, "ratio"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    else:
        totals = tracer.layer_totals(times)
        for name in SPAN_NAMES:
            t = totals[name]
            metrics[f"{name}.calls_per_op"] = (t["calls"] / ops, "count")
            metrics[f"{name}.self_ms_per_op"] = (t["self_ns"] / 1e6 / ops, "ms")
            metrics[f"{name}.fails_per_op"] = (t["fails"] / ops, "count")
        steps = sum(tracer.oracle_steps[j] for j in times)
        metrics["qlearn.oracle_steps_per_op"] = (steps / ops, "count")
        covered = tracer.root_ns()
        metrics["trace.unattributed_share"] = (
            sum(t - covered[j] for j, t in times.items()) / sum(times.values()), "ratio")
        # paired per op: op times are bimodal on verify-long, so two medians
        # taken separately can fall in different modes
        metrics["trace.overhead_share"] = (
            statistics.median(t / untraced[j] for j, t in times.items()) - 1.0, "ratio")
        slopes = horizon_probe(cli, tracer, args.seed, args.size, workdir / "probe")
        for name, slope in slopes.items():
            metrics[f"{name}.n_slope"] = (slope, "exponent")
        spans_file = ROOT / ".bench_run" / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(spans_file)
        details.update(probe_N=list(PROBE_N[args.size]),
                       spans_file=str(spans_file.relative_to(ROOT)))
    result = {"correct": repeat, "attempted": ops, "failed": failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    return result, details


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("verify-long", "learn-wide", "solve-long", "campaign-small"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "small"), default="full",
                        help="small: the smallest sizes, for bench/selfcheck.py")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    cli, import_s = load_termlq()
    workdir = ROOT / ".bench_run" / f"{args.workload}-{os.getpid()}"
    try:
        result, details = measure(cli, args, import_s, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for name, m in result["metrics"].items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"details": details}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
