"""Run bench/run.py over several seeds and summarise each metric.

Usage (from the repository root):

    python3 bench/collect.py --seeds 0-9 [--workloads verify-long,solve-long]
                             [--seconds 20] [--trace 0] [--out FILE]

Runs one process at a time. For each workload and metric it prints the
median, the quartiles (statistics.quantiles, n=4) and the spread
(q3 - q1) / median. With --trace 0 each spread is compared with a third of
the metric's bound in BENCHMARK.json (setup_s is exempt). --out writes every
run's result and details plus the summaries as JSON; bench/baseline.json was
written this way.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])["details"]


def summarise(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0-9")
    parser.add_argument("--workloads")
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    doc: dict = {"seconds": seconds, "trace": args.trace, "workloads": {}}
    steady = True
    for name in names:
        runs = [run(name, s, seconds, args.trace) for s in seeds(args.seeds)]
        metrics = runs[0][0]["metrics"]
        summary = {m: dict(summarise([r["metrics"][m]["value"] for r, _ in runs]),
                           unit=metrics[m]["unit"]) for m in metrics}
        doc["workloads"][name] = {"summary": summary,
                                  "runs": [{"result": r, "details": d} for r, d in runs]}
        print(f"{name}: {len(runs)} runs, correct {all(r['correct'] for r, _ in runs)}, "
              f"failed/attempted {sum(r['failed'] for r, _ in runs)}/"
              f"{sum(r['attempted'] for r, _ in runs)}")
        for m, s in summary.items():
            flag = ""
            if args.trace == 0 and m != "setup_s":
                ok = s["spread"] < bounds[m] / 3
                steady &= ok
                flag = "ok" if ok else f"SPREAD > {bounds[m] / 3:.3f}"
            print(f"  {m:44s} {s['median']:12.6g} {s['unit']:9s} "
                  f"q1 {s['q1']:10.6g} q3 {s['q3']:10.6g} spread {s['spread']:.4f} {flag}")
    if args.out:
        Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    raise SystemExit(main())
