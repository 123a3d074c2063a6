"""The four workloads: what each sets up, runs as one round, and checks.

A *round* is a fixed, seed-determined sequence of ops that starts from
fresh program state, so every round of a run repeats the same work and
the same work counts.  ``setup`` is everything before the first round
(design builds, hardened targets, daemon start).
"""

from __future__ import annotations

import json
import os
import random
import shutil
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import checks
import tracer

HERE = Path(__file__).resolve().parent

#: RWS layer count of every benchmark design (``nangate45_like(10)``).
LAYERS = 10


@dataclass
class Op:
    latency_s: float
    ok: bool = True


@dataclass
class Round:
    ops: List[Op]
    work: Dict[str, int]
    outputs: Any = None
    #: client-side service numbers for the per-layer report
    client: Dict[str, float] = field(default_factory=dict)
    #: wall and CPU seconds of in-round checking, excluded from timing
    untimed_s: float = 0.0
    untimed_cpu_s: float = 0.0


def cpu_s() -> float:
    """CPU time of this process and its reaped children."""
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def obs_snapshot() -> Dict[str, dict]:
    from repro import obs

    return obs.get_metrics().snapshot()


def counter_delta(before: Dict[str, dict], after: Dict[str, dict], name: str) -> int:
    def value(snap: Dict[str, dict]) -> int:
        return int(snap.get(name, {}).get("value") or 0)

    return value(after) - value(before)


def fresh_designs(names) -> Dict[str, Any]:
    """Build designs from scratch (the build cache is emptied first)."""
    from repro.bench import designs

    # build_design memoizes per process; set-up must pay for real builds.
    cached = getattr(designs, "_build_design_cached", None)
    if hasattr(cached, "cache_clear"):
        cached.cache_clear()
    return {name: designs.build_design(name) for name in names}


def flow_config(op: str, n: int, n_iter: int, rws: float):
    from repro.core.params import FlowConfig

    return FlowConfig(op, n, n_iter, tuple([rws] * LAYERS))


def make_guard(design, **options):
    from repro.core.flow import GDSIIGuard

    return GDSIIGuard(
        design.layout,
        design.constraints,
        design.assets,
        baseline_routing=design.routing,
        **options,
    )


class _OpTimer:
    """Stands in for a guard and times every ``run`` (one op each)."""

    def __init__(self, guard) -> None:
        self._guard = guard
        self.latencies: List[float] = []

    def run(self, config):
        t0 = time.perf_counter()
        result = self._guard.run(config)
        self.latencies.append(time.perf_counter() - t0)
        return result

    def __getattr__(self, name):
        return getattr(self._guard, name)


class Workload:
    name = ""
    pinned_seed = 0
    setup_repeats = 1
    #: an op slower than this counts as failed
    op_deadline_s = 120.0

    def __init__(self, seed: Optional[int], work_dir: Path) -> None:
        self.seed = self.pinned_seed if seed is None else seed
        self.work_dir = work_dir

    def setup(self) -> None:
        raise NotImplementedError

    def run_round(self) -> Round:
        raise NotImplementedError

    def reset(self) -> None:
        """Return to fresh program state between rounds (untimed)."""

    def finish(self) -> None:
        """Stop what the timed phase needed (before peak RSS is read)."""

    def check(self, rnd: Round) -> List[str]:
        raise NotImplementedError

    def live_children_cpu_s(self) -> float:
        """CPU time of child processes that outlive the timed phase."""
        return 0.0

    def set_traced(self, traced: bool) -> None:
        """Whether processes started from now on carry the wrappers."""

    def layer_snapshots(self) -> List[Tuple[Dict[str, dict], Dict[str, dict]]]:
        """(round start, round end) obs snapshots of other processes."""
        return []

    def _ops(self, latencies) -> List[Op]:
        return [Op(t, t <= self.op_deadline_s) for t in latencies]

    def _flow_work(self, before, after) -> Dict[str, int]:
        return {
            name.split(".")[-1]: counter_delta(before, after, name)
            for name in (
                "flow.evaluations",
                "flow.incremental.op_cache_hits",
                "route.nets_routed",
                "route.ripup_victims",
            )
        }


# ---------------------------------------------------------------------- #


class ExplorePresent(Workload):
    """The pinned exploration: PRESENT, population 10, 4 generations,
    GA seed 9, serial.  One op is one flow evaluation.

    The exploration's cost depends strongly on its GA seed, so the
    workload seed does not reach it: every run explores with seed 9.
    """

    name = "explore_present"
    pinned_seed = 9
    setup_repeats = 3
    op_deadline_s = 60.0
    GA_SEED = 9
    POPULATION = 10
    GENERATIONS = 4

    def setup(self) -> None:
        self.design = fresh_designs(["PRESENT"])["PRESENT"]

    def run_round(self) -> Round:
        from repro.optimize.explorer import ParetoExplorer
        from repro.optimize.nsga2 import NSGA2Config

        before = obs_snapshot()
        timer = _OpTimer(make_guard(self.design))
        result = ParetoExplorer(
            timer,
            config=NSGA2Config(
                population_size=self.POPULATION,
                generations=self.GENERATIONS,
                seed=self.GA_SEED,
            ),
        ).explore()
        work = self._flow_work(before, obs_snapshot())
        work["memo_hits"] = result.cache_hits
        front = [(ind.genome, tuple(ind.objectives)) for ind in result.pareto_front]
        return Round(self._ops(timer.latencies), work, front)

    def check(self, rnd: Round) -> List[str]:
        front = rnd.outputs
        if not front:
            return ["the exploration returned an empty front"]
        problems = checks.front_non_dominated([obj for _, obj in front])
        return problems + checks.front_reproduces(
            front, make_guard(self.design, incremental=False)
        )


class HardenSuite(Workload):
    """All 12 designs hardened cold with two configurations each: the
    ``repro harden`` default (CS, RWS 1.0) and LDA N 16, 2 iterations,
    RWS 1.2.  One op is one ``GDSIIGuard.run`` on a fresh guard; the
    workload seed shuffles the op order."""

    name = "harden_suite"
    pinned_seed = 0
    CONFIGS = (("CS", 16, 2, 1.0), ("LDA", 16, 2, 1.2))
    DESIGNS: Tuple[str, ...] = ()  # empty: the whole suite

    def setup(self) -> None:
        from repro.bench.designs import DESIGN_NAMES

        names = self.DESIGNS or DESIGN_NAMES
        self.designs = fresh_designs(names)
        self.plan = [
            (name, flow_config(*cfg)) for name in names for cfg in self.CONFIGS
        ]
        random.Random(self.seed).shuffle(self.plan)

    def run_round(self) -> Round:
        """Each op's output is checked right after it, off the clock, so
        the round never holds more than one hardened layout."""
        before = obs_snapshot()
        latencies, problems = [], []
        paused_s = paused_cpu_s = 0.0
        for name, config in self.plan:
            d = self.designs[name]
            guard = make_guard(d)
            t0 = time.perf_counter()
            result = guard.run(config)
            t1 = time.perf_counter()
            latencies.append(t1 - t0)
            c1 = cpu_s()
            with tracer.paused():
                problems += checks.hardened_layout(
                    f"{name}/{config.op_select}",
                    result.layout,
                    result.routing,
                    result.tns,
                    d,
                    d.constraints,
                    d.assets,
                )
            paused_cpu_s += cpu_s() - c1
            paused_s += time.perf_counter() - t1
            del guard, result
        work = self._flow_work(before, obs_snapshot())
        return Round(self._ops(latencies), work, problems,
                     untimed_s=paused_s, untimed_cpu_s=paused_cpu_s)

    def check(self, rnd: Round) -> List[str]:
        return rnd.outputs


class AttackCampaignWorkload(Workload):
    """``AttackCampaign`` over the ``default`` grid, 4 attempts per spec,
    against PRESENT, MISTY and AES_1, each as a baseline and as a
    hardened target (the ``repro attack --hardened`` configuration), on
    the supervised pool with 2 workers.  One op is one (target, spec)
    batch; the workload seed is the campaign seed."""

    name = "attack_campaign"
    pinned_seed = 0
    setup_repeats = 2
    DESIGNS = ("PRESENT", "MISTY", "AES_1")
    GRID = "default"
    ATTEMPTS = 4
    PROCESSES = 2

    def setup(self) -> None:
        from repro.redteam import LayoutAttackSurface
        from repro.timing.sta import run_sta

        built = fresh_designs(self.DESIGNS)
        self.targets = []
        self.pairs = []
        for name in self.DESIGNS:
            d = built[name]
            hardened = make_guard(d).run(flow_config("CS", 2, 1, 1.0))
            sta = run_sta(hardened.layout, d.constraints, routing=hardened.routing)
            for kind, layout, timing, routing in (
                ("baseline", d.layout, d.sta, d.routing),
                ("hardened", hardened.layout, sta, hardened.routing),
            ):
                tid = f"{name}/{kind}"
                self.targets.append((tid, LayoutAttackSurface(
                    tid, layout, timing, d.assets,
                    routing=routing, constraints=d.constraints,
                )))
            self.pairs.append((f"{name}/baseline", f"{name}/hardened"))

    def _campaign(self, processes: int, on_batch=None):
        from repro.redteam import AttackCampaign, AttackGrid

        return AttackCampaign(
            self.targets,
            AttackGrid.preset(self.GRID),
            attempts=self.ATTEMPTS,
            seed=self.seed,
            processes=processes,
            on_batch=on_batch,
        )

    def run_round(self) -> Round:
        before = obs_snapshot()
        marks = [time.perf_counter()]
        result = self._campaign(
            self.PROCESSES, lambda *_: marks.append(time.perf_counter())
        ).run()
        after = obs_snapshot()
        summary = result.summary()
        rows = summary["results"]
        work = {
            "batches": len(rows),
            "attempts": sum(r["attempts"] for r in rows),
            "successes": sum(r["successes"] for r in rows),
            "retries": counter_delta(before, after, "resilience.retries"),
            "nets_routed": counter_delta(before, after, "route.nets_routed"),
        }
        latencies = [b - a for a, b in zip(marks, marks[1:])]
        return Round(self._ops(latencies), work, summary)

    def check(self, rnd: Round) -> List[str]:
        serial = self._campaign(0).run().summary()
        return checks.summaries_equal(rnd.outputs, serial) + checks.hardened_not_easier(
            rnd.outputs, self.pairs
        )


# ---------------------------------------------------------------------- #


def _proc_cpu_s(pid: int) -> float:
    """utime + stime of a live process, from /proc (Linux)."""
    try:
        fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    except OSError:
        return 0.0
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


class _Daemon:
    """One ``repro.service`` daemon process (``perfbench/daemon.py``)."""

    def __init__(self, work_dir: Path, designs, traced: bool) -> None:
        self.dir = Path(work_dir) / f"daemon-{time.monotonic_ns()}"
        self.dir.mkdir(parents=True)
        ready = self.dir / "ready"
        self.log = open(self.dir / "daemon.log", "wb")
        cmd = [
            sys.executable, str(HERE / "daemon.py"),
            "--state-dir", str(self.dir / "state"),
            "--ready-file", str(ready),
            "--designs", ",".join(designs),
        ] + (["--trace"] if traced else [])
        self.proc = subprocess.Popen(cmd, stdout=self.log, stderr=subprocess.STDOUT)
        deadline = time.monotonic() + 120
        while not ready.exists():
            if self.proc.poll() is not None or time.monotonic() > deadline:
                self.stop()
                raise RuntimeError(
                    f"service daemon did not start; see {self.dir / 'daemon.log'}"
                )
            time.sleep(0.01)
        self.url = ready.read_text().strip()

    def cpu_s(self) -> float:
        return _proc_cpu_s(self.proc.pid)

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.log.close()


def _timed_client(url: str):
    """A ``ServiceClient`` that counts its requests and their time."""
    from repro.service.client import ServiceClient

    class TimedClient(ServiceClient):
        requests = 0
        request_s = 0.0

        def _request(self, method, path, body=None):
            t0 = time.perf_counter()
            try:
                return super()._request(method, path, body)
            finally:
                self.requests += 1
                self.request_s += time.perf_counter() - t0

    return TimedClient(url)


class ServeSerial(Workload):
    """The ``repro.service`` daemon over HTTP, one client, one job in
    flight (closed loop).  One op is one job from ``POST /jobs`` to the
    result in hand; the workload seed shuffles the job order.  A round
    has an odd number of jobs, so the median latency over whole rounds
    is always the middle copies of one job, not the gap between two.

    Latency is the daemon's own finish stamp minus the client's submit
    time, plus the result fetch, so the client's poll step does not
    round it.  Jobs run one at a time because concurrent jobs share the
    process-global ``_WORKER_GUARD`` slot (see README).
    """

    name = "serve_serial"
    pinned_seed = 0
    setup_repeats = 3
    op_deadline_s = 60.0
    POLL_S = 0.05
    _CS = {"op_select": "CS", "lda_n": 16, "lda_n_iter": 2, "rws_scales": [1.0] * LAYERS}
    _LDA = {"op_select": "LDA", "lda_n": 16, "lda_n_iter": 2, "rws_scales": [1.2] * LAYERS}
    JOBS: Tuple[Dict[str, Any], ...] = (
        {"kind": "harden", "design": "openMSP430_1"},
        {"kind": "harden", "design": "TDEA"},
        {"kind": "harden", "design": "Camellia"},
        {"kind": "harden", "design": "openMSP430_1", "config": _LDA},
        {"kind": "harden", "design": "PRESENT", "config": _LDA},
        {"kind": "explore", "design": "PRESENT", "seed": 9, "population": 4, "generations": 1},
        {"kind": "explore", "design": "PRESENT", "seed": 9, "population": 4, "generations": 1},
        {"kind": "explore", "design": "PRESENT", "seed": 3, "population": 4, "generations": 1},
        {"kind": "explore", "design": "PRESENT", "seed": 3, "population": 4, "generations": 1},
        {"kind": "attack", "design": "PRESENT", "grid": "ci", "attempts": 4},
        {"kind": "attack", "design": "PRESENT", "grid": "ci", "attempts": 4, "config": _CS},
    )
    DESIGNS = ("openMSP430_1", "TDEA", "Camellia", "PRESENT")

    def __init__(self, seed, work_dir) -> None:
        super().__init__(seed, work_dir)
        self.traced = False
        self.daemon: Optional[_Daemon] = None
        self.order = list(self.JOBS)
        random.Random(self.seed).shuffle(self.order)

    def set_traced(self, traced: bool) -> None:
        self.traced = traced
        if self.daemon is not None:
            self.reset()

    def setup(self) -> None:
        if self.daemon is not None:
            self.daemon.stop()
        self.daemon = _Daemon(self.work_dir, self.DESIGNS, self.traced)

    def reset(self) -> None:
        self.setup()

    def finish(self) -> None:
        if self.daemon is not None:
            self.daemon.stop()
            self.daemon = None

    def live_children_cpu_s(self) -> float:
        return self.daemon.cpu_s() if self.daemon else 0.0

    def run_round(self) -> Round:
        from repro.errors import ServiceError

        client = _timed_client(self.daemon.url)
        before = client.metrics()["metrics"]
        client.requests, client.request_s = 0, 0.0
        ops, outputs = [], []
        stats = {"latency_s": 0.0, "queue_wait_s": 0.0, "cache_hits": 0.0, "cache_requests": 0.0}
        work = {"jobs": 0, "jobs_done": 0, "evaluations": 0, "memo_hits": 0}
        for spec in self.order:
            t_post = time.time()
            job = client.submit(spec)
            work["jobs"] += 1
            try:
                record = client.wait(job["id"], timeout_s=self.op_deadline_s, poll_s=self.POLL_S)
            except ServiceError:  # stuck past its deadline: failed, the run goes on
                ops.append(Op(self.op_deadline_s, False))
                outputs.append((spec, None))
                continue
            if record["state"] != "done":
                ops.append(Op(time.time() - t_post, False))
                outputs.append((spec, None))
                continue
            t_fetch = time.time()
            result = client.result(job["id"])
            latency = record["finished_at"] - t_post + (time.time() - t_fetch)
            ops.append(Op(latency, latency <= self.op_deadline_s))
            outputs.append((spec, result))
            work["jobs_done"] += 1
            stats["latency_s"] += latency
            stats["queue_wait_s"] += record["started_at"] - record["submitted_at"]
            if spec["kind"] == "explore":
                work["evaluations"] += result["evaluations"]
                work["memo_hits"] += result["cache_hits"]
                stats["cache_hits"] += result["cache_hits"]
                stats["cache_requests"] += result["cache_requests"]
        http = {"http_s": client.request_s, "http_requests": float(client.requests)}
        after = client.metrics()["metrics"]
        self._snapshots = (before, after)
        for name in ("route.nets_routed", "route.ripup_victims", "redteam.batches", "redteam.attempts"):
            work[name.split(".")[-1]] = counter_delta(before, after, name)
        return Round(ops, work, outputs, client={**stats, **http})

    def layer_snapshots(self):
        return [self._snapshots]

    def check(self, rnd: Round) -> List[str]:
        from repro.service.jobs import JobSpec
        from repro.service.runner import (
            DesignGuardFactory,
            run_attack_job,
            run_explore_job,
            run_harden_job,
        )

        factory = DesignGuardFactory()
        problems, direct, seen = [], {}, set()
        scratch = self.work_dir / "direct"
        for i, (spec, served) in enumerate(rnd.outputs):
            if served is None:
                continue  # already counted as a failed op
            key = json.dumps(spec, sort_keys=True)
            if key not in direct:
                job = JobSpec.from_payload(spec)
                ckpt = scratch / str(i)
                if job.kind == "harden":
                    direct[key] = run_harden_job(job, factory.build(job.design))
                elif job.kind == "explore":
                    direct[key] = run_explore_job(job, factory.build(job.design), ckpt)
                else:
                    direct[key] = run_attack_job(job, factory.build_attack(job), ckpt)
            problems += checks.served_equals_direct(spec, served, direct[key])
            if spec["kind"] == "explore" and key in seen:
                problems += checks.repeat_is_cached(spec, served)
            seen.add(key)
        shutil.rmtree(scratch, ignore_errors=True)
        return problems


WORKLOADS = {
    w.name: w
    for w in (ExplorePresent, HardenSuite, AttackCampaignWorkload, ServeSerial)
}
