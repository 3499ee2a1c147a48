#!/usr/bin/env python3
"""Self-test of the benchmark:  python3 perfbench/selftest.py

1. Every workload of run.py runs at a tiny length (``--quick``), untraced and traced.
   Each result line must have exactly the keys correct, attempted, failed
   and metrics, report no failure, and carry every metric BENCHMARK.json
   names for that mode, with its unit.
2. ``run.corrupt_delta`` injected on the fedmim verify leg of
   quad-baselines must make the run count as failed, which shows the output
   checks can fail.
3. A seed other than the default passes on every workload.

Exit code 0 when every check holds.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

from run import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run(workload: str, seed: int, trace: int, *extra: str) -> tuple:
    """(exit code, parsed result line) of one quick benchmark invocation."""
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", "0", "--trace", str(trace), "--quick", *extra]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, json.loads(lines[-1]) if lines else None


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expected = {trace: {m["name"]: m["unit"] for m in spec[key]}
                for trace, key in ((0, "end_to_end"), (1, "per_layer"))}
    failures = []

    def check(label: str, ok: bool) -> None:
        print(f"{'PASS' if ok else 'FAIL'} {label}", flush=True)
        if not ok:
            failures.append(label)

    for workload in WORKLOADS:
        for trace in (0, 1):
            code, result = run(workload, 0, trace)
            label = f"{workload} --trace {trace}"
            check(f"{label}: exit 0 and a result line with exactly {sorted(RESULT_KEYS)}",
                  code == 0 and result is not None and set(result) == RESULT_KEYS)
            if result is None or set(result) != RESULT_KEYS:
                continue
            check(f"{label}: correct, no failed runs", result["correct"] and result["failed"] == 0
                  and result["attempted"] >= 1)
            emitted = {name: m.get("unit") for name, m in result["metrics"].items()}
            check(f"{label}: every metric of BENCHMARK.json with its unit", emitted == expected[trace])
            check(f"{label}: every value is a finite number",
                  all(isinstance(m["value"], (int, float)) and m["value"] == m["value"]
                      and abs(m["value"]) != float("inf") for m in result["metrics"].values()))

    code, result = run("quad-baselines", 0, 0, "--corrupt-delta", "1e-3")
    check("corrupt_delta on the fedmim verify leg: exit 1 and counted as failed",
          code == 1 and result is not None and not result["correct"] and result["failed"] >= 1)

    for workload in WORKLOADS:
        code, result = run(workload, 12345, 0)
        check(f"{workload} --seed 12345: passes", code == 0 and result is not None and result["correct"])

    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
