"""Run each workload on several seeds and summarize every metric.

    python3 perfbench/spread.py [--workloads a,b] [--seeds 10] [--seconds 25] [--trace 0|1]

For each workload and metric it prints the median, the quartiles
(``statistics.quantiles(values, n=4)``), the quartile spread as a share
of the median, and the run count; this is how the reference figures in
README.md are made.  Each run is a separate ``run.py`` process.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ALL = ("explore_present", "harden_suite", "attack_campaign", "serve_serial")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(ALL))
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    for workload in args.workloads.split(","):
        runs, walls = [], []
        for seed in range(1, args.seeds + 1):
            t0 = time.perf_counter()
            out = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)],
                capture_output=True, text=True, check=True,
            ).stdout
            walls.append(time.perf_counter() - t0)
            runs.append(json.loads(out.strip().splitlines()[-1]))
        failed = {(r["failed"], r["attempted"]) for r in runs}
        correct = all(r["correct"] for r in runs)
        print(f"{workload}: {len(runs)} runs, correct {correct}, "
              f"(failed, attempted) {sorted(failed)}, "
              f"run wall median {statistics.median(walls):.1f} s")
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            unit = runs[0]["metrics"][name]["unit"]
            med = statistics.median(values)
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
            else:
                q1 = q3 = med
            spread = (q3 - q1) / med if med else 0.0
            print(f"  {name:28s} median {med:12.5g} {unit:6s} "
                  f"q1 {q1:12.5g} q3 {q3:12.5g} spread {spread:6.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
