"""Run two sets of benchmark runs of the same checkout and compare them.

Usage, from the root of a checkout:

    python3 bench/compare.py

For every workload in BENCHMARK.json it makes ten runs per set, each with
its own seed (set A seeds 1..10, set B seeds 11..20), alternating the sets.
For each workload and end-to-end metric it prints both medians, each set's
spread (interquartile range over median), the change of B against A, and
whether that change is within the metric's bound. It also compares the
share of failed operations. Every result line is kept in
bench/out/compare.json. Exit code 0 when everything agrees, 1 otherwise.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
RUNS = 10  # runs per set and workload


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result.update(workload=workload, seed=seed)
    print(f"{workload} seed {seed}: correct={result['correct']} "
          f"failed={result['failed']}/{result['attempted']} "
          + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
          flush=True)
    return result


def spread(values: list) -> float:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def main() -> int:
    workloads = [w["name"] for w in SPEC["workloads"]]
    seconds = SPEC["run_seconds"]

    sets = {"A": [], "B": []}
    for i in range(RUNS):
        for workload in workloads:
            order = ("A", "B") if i % 2 == 0 else ("B", "A")
            for name in order:
                seed = 1 + i + (RUNS if name == "B" else 0)
                sets[name].append(run_once(workload, seed, seconds))
    out = ROOT / "bench" / "out" / "compare.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(sets, indent=1) + "\n")

    agree = True
    print(f"\n{'workload':20} {'metric':16} {'median A':>12} {'median B':>12} "
          f"{'spread A':>9} {'spread B':>9} {'change':>8} {'bound':>6}  verdict")
    for workload in workloads:
        runs = {name: [r for r in results if r["workload"] == workload]
                for name, results in sets.items()}
        for metric in SPEC["end_to_end"]:
            values = {name: [r["metrics"][metric["name"]]["value"] for r in rs]
                      for name, rs in runs.items()}
            med_a, med_b = (statistics.median(values[name]) for name in ("A", "B"))
            change = (med_b - med_a) / med_a
            ok = abs(change) <= metric["bound"]
            agree &= ok
            print(f"{workload:20} {metric['name']:16} {med_a:12.6g} {med_b:12.6g} "
                  f"{spread(values['A']):9.3f} {spread(values['B']):9.3f} "
                  f"{change:+8.3f} {metric['bound']:6.2f}  {'agree' if ok else 'DIFFER'}")
        shares = {name: sum(r["failed"] for r in rs) / sum(r["attempted"] for r in rs)
                  for name, rs in runs.items()}
        correct = all(r["correct"] for rs in runs.values() for r in rs)
        agree &= correct and shares["A"] == shares["B"]
        print(f"{workload:20} failed share A {shares['A']:.6g}, B {shares['B']:.6g}; "
              f"all outputs correct: {correct}")
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main())
