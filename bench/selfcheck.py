"""Quick self-check of the benchmark (about half a minute).

Usage (from the repository root):

    python3 bench/selfcheck.py

Runs every workload at the smallest sizes (--size small) for one second,
once untraced and once traced, and asserts that:

- the last stdout line has exactly the keys correct, attempted, failed and
  metrics, with correct true and attempted >= 1;
- the metric names and units are exactly BENCHMARK.json's end_to_end list
  (untraced) or per_layer list (traced), every value a finite number;
- both runs report the same digest of their report bytes, so the reports
  repeat across processes;
- run.py in a directory holding only BENCHMARK.json and bench/ exits with
  a nonzero status and prints no result.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 3


def bench(root: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace), "--size", "small"],
        cwd=root, capture_output=True, text=True, timeout=180)


def check_run(proc, expected: dict[str, str], label: str) -> tuple[list[str], str | None]:
    if proc.returncode != 0:
        return [f"{label}: exit {proc.returncode}: {proc.stderr.strip()[-400:]}"], None
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    details = json.loads(lines[-2])["details"]
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{label}: result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("attempted", 0) < 1:
        errors.append(f"{label}: correct {result.get('correct')}, "
                      f"attempted {result.get('attempted')}")
    got = {name: m["unit"] for name, m in result.get("metrics", {}).items()}
    if got != expected:
        missing = sorted(set(expected) - set(got))
        extra = sorted(set(got) - set(expected))
        wrong = sorted(n for n in set(got) & set(expected) if got[n] != expected[n])
        errors.append(f"{label}: missing {missing}, extra {extra}, wrong units {wrong}")
    for name, m in result.get("metrics", {}).items():
        if not isinstance(m["value"], (int, float)) or not math.isfinite(m["value"]):
            errors.append(f"{label}: {name} = {m['value']!r}")
    return errors, details["digest"]


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    errors = []
    for w in spec["workloads"]:
        name = w["name"]
        e0, digest0 = check_run(bench(ROOT, name, 0), end_to_end, f"{name} untraced")
        e1, digest1 = check_run(bench(ROOT, name, 1), per_layer, f"{name} traced")
        errors += e0 + e1
        if digest0 and digest1 and digest0 != digest1:
            errors.append(f"{name}: report digests differ between runs")
        print(f"{name}: {'ok' if not e0 + e1 else 'FAILED'}")

    bare = ROOT / ".bench_run" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "bench", bare / "bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench(bare, spec["workloads"][0]["name"], 0)
        if proc.returncode == 0 or proc.stdout.strip():
            errors.append(f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}")
        print(f"bare directory: exit {proc.returncode}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    for e in errors:
        print("FAIL", e)
    return 1 if errors else 0


if __name__ == "__main__":
    raise SystemExit(main())
