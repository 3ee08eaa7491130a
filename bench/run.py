"""Benchmark of the zwform command line, one workload per process.

Usage, from the root of a checkout:

    python3 bench/run.py --workload search-box --seed 1 --seconds 15 --trace 0

With ``--trace 0`` it repeats whole rounds of the workload's operations
until their command time reaches ``--seconds`` and prints the end-to-end
metrics. With ``--trace 1`` it runs the traced pass of ``layers.py`` and
prints the per-layer metrics. The last line of stdout is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``. The
exit code is 0 when that line is printed, also when an output is wrong;
it is 2, with no result line, when the checkout holds no ``src/zwform``.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
OUT_DIR = ROOT / "bench" / "out"
SETUP_PROBES = 15
READY_PROBE = (
    "import sys; sys.path.insert(0, sys.argv[1]); import zwform.cli; print('ready', flush=True)"
)


def setup_probe() -> float:
    """Time from starting a Python process to `zwform.cli` imported."""
    start = time.perf_counter()
    with subprocess.Popen([sys.executable, "-c", READY_PROBE, str(SRC)],
                          stdout=subprocess.PIPE, text=True) as child:
        line = child.stdout.readline()
        elapsed = time.perf_counter() - start
        child.stdout.read()
    if line.strip() != "ready" or child.returncode != 0:
        raise RuntimeError(f"set-up probe failed with exit code {child.returncode}")
    return elapsed


def measure(workload, seconds: float) -> dict:
    """Whole rounds of operations until their command time reaches `seconds`.

    Only each operation's figures are kept, so that its captured output is
    freed before the next one runs. The SETUP_PROBES set-up probes are
    spread evenly over the run's command time, between rounds, so that
    their median, like the operations' figures, spans the whole run and
    not only the host's speed at its start.
    """
    latencies, first_records, setups, problems, failed, solutions = [], [], [], [], 0, 0
    elapsed = 0.0
    while elapsed < seconds:
        while len(setups) < SETUP_PROBES and len(setups) * seconds <= elapsed * SETUP_PROBES:
            setups.append(setup_probe())
        for _ in range(workload.ops_per_round):
            op = workload.operation()
            latencies.append(op.latency)
            elapsed += op.latency
            first_records.append(op.first_record)
            solutions += op.solutions
            # Exit 2 is a domain error, which a check may accept; any other
            # nonzero exit is a failed operation, and its outputs are not checked.
            if any(c.code not in (0, 2) for c in op.commands):
                failed += 1
            else:
                try:
                    problems += workload.check(op)
                except (KeyError, ValueError, IndexError, TypeError) as exc:
                    problems.append(f"malformed output: {exc!r}")
            del op
    while len(setups) < SETUP_PROBES:
        setups.append(setup_probe())
    for problem in problems[:10]:
        print(f"check failed: {problem}", file=sys.stderr)
    return {
        "correct": not problems,
        "attempted": len(latencies),
        "failed": failed,
        "metrics": {
            "setup_s": statistics.median(setups),
            "solutions_per_s": solutions / elapsed,
            "first_record_s": statistics.median(first_records),
            "op_p50_ms": 1000 * statistics.median(latencies),
        },
    }


def main() -> int:
    ap = argparse.ArgumentParser(description="Benchmark of the zwform command line.")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (SRC / "zwform" / "__init__.py").is_file():
        print(f"error: no zwform package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads  # noqa: E402, needs zwform on sys.path
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    if args.trace:
        import layers  # noqa: E402
        result = layers.traced_run(args.seed, OUT_DIR / f"spans-{args.workload}-{args.seed}.jsonl")
    else:
        result = measure(workloads.WORKLOADS[args.workload](args.seed), args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        result["metrics"]["peak_rss_mb"] = peak_rss_mb

    declared = json.loads(SPEC.read_text())["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if set(units) != set(result["metrics"]):
        print(f"error: measured {sorted(result['metrics'])}, "
              f"{SPEC.name} declares {sorted(units)}", file=sys.stderr)
        return 1
    result["metrics"] = {name: {"value": result["metrics"][name], "unit": unit}
                         for name, unit in units.items()}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
