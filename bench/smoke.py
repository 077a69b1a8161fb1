"""Smoke check of the benchmark harness at tiny sizes.

    python3 bench/smoke.py

Runs every workload once untraced and once traced with `run.py --smoke`
(a few hundred ticks, sub-second serving), and checks that each run exits
0 and ends with the result line BENCHMARK.json promises: every declared
metric by name and unit, all outputs correct, nothing failed.  Takes
about a minute; it is not part of the test suite.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def run(workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "5",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )


def check_result(proc: subprocess.CompletedProcess, declared: list[dict]) -> list[str]:
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}: {proc.stderr[-2000:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"result keys {sorted(result)}")
    if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
        problems.append(f"outputs not correct: {proc.stderr[-2000:]}")
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        problems.append(f"metrics {sorted(set(got) ^ set(want))} differ from BENCHMARK.json")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    failures = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            declared = spec["per_layer"] if trace else spec["end_to_end"]
            problems = check_result(run(workload, trace), declared)
            if trace and not (BENCH_DIR / ".out" / f"spans-{workload}.jsonl").is_file():
                problems.append("no span file written")
            print(f"{workload:14s} trace={trace} {'ok' if not problems else 'FAIL'}")
            failures += [f"{workload} trace={trace}: {p}" for p in problems]

    for f in failures:
        print(f, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
