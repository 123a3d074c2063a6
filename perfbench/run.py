"""Benchmark command: one workload, one seed, end-to-end or traced.

    python3 perfbench/run.py --workload explore_present [--seed N]
        [--seconds S] [--trace 0|1]

Workloads: explore_present, harden_suite, attack_campaign, serve_serial
(see README.md).  Without ``--seed`` each workload runs its pinned seed.

``--trace 0`` sets up (several times where set-up is cheap, reporting
the median), then runs whole rounds until ``--seconds`` have passed,
checks the last round's outputs and prints the end-to-end metrics.
``--trace 1`` sets up once with the per-layer wrappers installed, runs
an untraced, a traced and another untraced round, and prints the
per-layer metrics of the traced round together with the tracing
overhead.  Either way the
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.

Work counts (evaluations, op-cache hits, nets routed, ...) must repeat
exactly: rounds of one run are compared with each other, and every run
is compared with earlier runs of the same code, workload and seed kept
in ``.perfbench_ledger/`` at the root of the checkout.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import shutil
import signal
import statistics
import sys
import time
import traceback
from pathlib import Path
from typing import Dict, List, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".perfbench_work"
LEDGER_DIR = ROOT / ".perfbench_ledger"

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_latency_p50_s", "s"),
    ("cpu_s_per_op", "s"),
    ("peak_rss_mb", "MB"),
)


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def measure(w, seconds: float):
    """Run whole rounds, at least one, until ``seconds`` of round time
    have passed.

    Returns (rounds, wall seconds, CPU seconds) of the rounds alone;
    resets between rounds and in-round checks are not timed.  Each round
    starts after a full garbage collection: the attack pool forks its
    workers, and what they cost depends on the collector's state in the
    parent at the fork (one more set-up made the same rounds 50% dearer).
    """
    from workloads import cpu_s

    rounds, wall, cpu = [], 0.0, 0.0
    while True:
        if rounds:
            w.reset()
        gc.collect()
        c0 = cpu_s() + w.live_children_cpu_s()
        t0 = time.perf_counter()
        rnd = w.run_round()
        wall += time.perf_counter() - t0 - rnd.untimed_s
        cpu += cpu_s() + w.live_children_cpu_s() - c0 - rnd.untimed_cpu_s
        rounds.append(rnd)
        if wall >= seconds:
            return rounds, wall, cpu


def code_fingerprint() -> str:
    """Hash of the program and benchmark sources: "the same code"."""
    h = hashlib.sha256()
    for base in (SRC / "repro", HERE):
        for path in sorted(base.rglob("*.py")):
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def ledger_check(workload: str, seed: int, work: Dict[str, int]) -> List[str]:
    """Compare this run's per-round work counts with earlier runs of the
    same code, workload and seed; record them when new."""
    LEDGER_DIR.mkdir(exist_ok=True)
    path = LEDGER_DIR / f"{workload}.json"
    try:
        ledger = json.loads(path.read_text())
    except (OSError, ValueError):
        ledger = {}
    key = f"{code_fingerprint()}:{seed}"
    known = ledger.get(key)
    if known is not None:
        if known != work:
            return [f"work counts {work} differ from an earlier run of the same code: {known}"]
        return []
    ledger[key] = work
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(ledger, indent=1, sort_keys=True))
    os.replace(tmp, path)
    return []


def round_problems(rounds) -> Tuple[Dict[str, int], List[str]]:
    work = rounds[0].work
    problems = [
        f"round {i} work counts {r.work} differ from round 0 {work}"
        for i, r in enumerate(rounds[1:], 1)
        if r.work != work
    ]
    return work, problems


def run_end_to_end(w, seconds: float):
    setups = []
    for _ in range(w.setup_repeats):
        t0 = time.perf_counter()
        w.setup()
        setups.append(time.perf_counter() - t0)
    rounds, wall, cpu = measure(w, seconds)
    w.finish()
    peak = _peak_rss_mb()
    ops = [op for r in rounds for op in r.ops]
    done = [op for op in ops if op.ok]
    if not done:
        raise RuntimeError("no op completed")
    metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_s": len(done) / wall,
        "op_latency_p50_s": statistics.median(op.latency_s for op in done),
        "cpu_s_per_op": cpu / len(done),
        "peak_rss_mb": peak,
    }
    units = dict(END_TO_END)
    info = {
        "rounds": len(rounds),
        "ops": len(ops),
        "timed_s": round(wall, 3),
        "setup_samples_s": [round(s, 3) for s in setups],
    }
    return rounds, len(ops), len(ops) - len(done), {
        k: {"value": v, "unit": units[k]} for k, v in metrics.items()
    }, info


def run_traced(w):
    """Untraced, traced, untraced round: the overhead ratio compares the
    traced round with the mean of its neighbours, so a drift in host
    speed over the run cancels instead of reading as overhead."""
    import tracer
    from repro.obs.metrics import Metrics
    from workloads import obs_snapshot

    tracer.install()
    w.setup()
    setup_snap = obs_snapshot()
    tracer.uninstall()
    before, before_wall, _ = measure(w, 0.0)
    tracer.install()
    w.set_traced(True)
    start = obs_snapshot()
    traced, traced_wall, _ = measure(w, 0.0)
    pairs = [(start, obs_snapshot())] + w.layer_snapshots()
    tracer.uninstall()
    w.set_traced(False)
    after, after_wall, _ = measure(w, 0.0)
    w.finish()

    merged = Metrics()
    for first, last in pairs:
        merged.merge_snapshot(tracer.diff_snapshot(last, first))
    build_s = sum(
        snap.get("perfbench.bench.build.s", {}).get("sum", 0.0)
        for snap in [setup_snap] + [first for first, _ in pairs[1:]]
    )
    client = dict(traced[0].client)
    client["trace_overhead_ratio"] = traced_wall / ((before_wall + after_wall) / 2)
    values = tracer.layer_metrics(merged.snapshot(), build_s, client)
    metrics = {
        name: {"value": values[name], "unit": unit}
        for name, unit in tracer.PER_LAYER
    }
    rounds = before + traced + after
    ops = [op for r in rounds for op in r.ops]
    info = {
        "traced_s": round(traced_wall, 3),
        "untraced_s": [round(before_wall, 3), round(after_wall, 3)],
    }
    return rounds, len(ops), sum(not op.ok for op in ops), metrics, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="perfbench: GDSII-Guard benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated run still unwinds, so its daemon and pool are stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2

    from repro import obs

    # The program's own counters (nets routed, rip-up victims, op-cache
    # hits) are the work counts; no trace file is written.
    obs.enable()
    work_dir = WORK_DIR / f"run-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    w = WORKLOADS[args.workload](args.seed, work_dir)
    try:
        if args.trace:
            rounds, attempted, failed, metrics, info = run_traced(w)
        else:
            rounds, attempted, failed, metrics, info = run_end_to_end(w, args.seconds)
        work, problems = round_problems(rounds)
        problems += ledger_check(w.name, w.seed, work)
        problems += w.check(rounds[-1])
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        w.finish()
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            WORK_DIR.rmdir()
        except OSError:
            pass

    print(f"workload {w.name}  seed {w.seed}  trace {args.trace}  {info}")
    for name, m in metrics.items():
        print(f"  {name:28s} {m['value']:14.6g} {m['unit']}")
    print(f"  work per round: {work}")
    for p in problems:
        print(f"  CHECK FAILED: {p}")
    print(f"  ops attempted {attempted}, failed {failed}, checks "
          f"{'passed' if not problems else 'FAILED'}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
