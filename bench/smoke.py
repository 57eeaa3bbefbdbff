"""Harness smoke check: every workload at 48 identities, untraced and
traced, one invocation each, through the benchmark's own oracle.

    python3 bench/smoke.py

Run from the repository root; it takes a few seconds.  It also checks
that the metric names the benchmark prints are the ones BENCHMARK.json
declares.  Exits 0 when everything passed, 1 otherwise.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import run_bench

IDENTITIES = 48


def main() -> int:
    root = Path.cwd()
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {
        run_bench.measure: [m["name"] for m in spec["end_to_end"]],
        run_bench.trace: [m["name"] for m in spec["per_layer"]],
    }
    if sorted(w["name"] for w in spec["workloads"]) != sorted(run_bench.WORKLOADS):
        print("smoke: BENCHMARK.json workloads differ from run_bench.WORKLOADS")
        return 1
    ok = True
    for workload in run_bench.WORKLOADS.values():
        tiny = dataclasses.replace(workload, name=f"smoke-{workload.name}", identities=IDENTITIES)
        for run, names in declared.items():
            metrics, tally, _ = run(tiny, 0, 0.0, root)
            problems = list(tally.failures)
            if sorted(metrics) != sorted(names):
                problems.append(f"metrics {sorted(metrics)} != declared {sorted(names)}")
            absent = [name for name, (value, _) in metrics.items() if value is None]
            verdict = "ok" if not problems else "FAILED"
            print(f"{tiny.name} {run.__name__}: {verdict}, {tally.attempted} children"
                  + (f", absent: {absent}" if absent else ""))
            for problem in problems:
                print(f"  {problem}")
            ok = ok and not problems
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
