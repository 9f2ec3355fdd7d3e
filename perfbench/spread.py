"""Run a workload over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload attach_churn --seeds 1-10 [--trace 0]

Runs ``run.py`` once per seed, one after another, and prints for each
metric the median over seeds and the interquartile range as a share of
that median (quartiles as ``statistics.quantiles(values, n=4)`` gives
them), next to the metric's bound from ``BENCHMARK.json``.  A spread
should stay below a third of its bound for the bound to be meaningful.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parent.parent


def _seeds(text: str) -> List[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--seconds", type=float)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    values: Dict[str, List[float]] = {}
    for seed in _seeds(args.seeds):
        proc = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "run.py"),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=600,
        )
        last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
        if proc.returncode != 0 or not last.startswith("{"):
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stdout[-2000:]}"
                  f"{proc.stderr[-2000:]}")
            return 1
        result = json.loads(last)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: ok", flush=True)
    print(f"{'metric':42s} {'median':>12s} {'spread':>8s} {'bound':>6s}")
    for name, xs in values.items():
        med = statistics.median(xs)
        q1, _, q3 = statistics.quantiles(xs, n=4)
        share = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        flag = "" if bound is None or share < bound / 3 else "  WIDE"
        print(f"{name:42s} {med:12.4f} {share:8.3f} "
              f"{'' if bound is None else format(bound, '6.2f')}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
