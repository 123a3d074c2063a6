"""Per-layer timing for the traced run.

The traced run wraps the program's public entry points at the names
their callers look up, times every call, and folds the numbers into the
``repro.obs`` registry under ``perfbench.<layer>.*``.  Recording into
that registry (rather than a private one) is what lets numbers from
forked pool workers reach the parent: the supervisor already merges
each worker's registry delta back after every task.

Each wrapper keeps a per-thread stack of open layers, so a call records
both its wall time and the part of it spent in nested wrapped layers
(``child_s``); a layer's self time is the difference.  A call into a
layer that is already open on the stack (``measure_security`` calling
``find_exploitable_regions``) passes straight through, so nothing is
counted twice.

Nothing here edits ``src/repro``: :func:`install` swaps module
attributes and :func:`uninstall` puts the originals back.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import os
import sys
import threading
import time
from typing import Callable, Dict, List, Tuple

#: (layer, defining module, function name).  Every loaded ``repro``
#: module that holds the same function object is patched too, so both
#: ``from x import f`` call sites and call-time ``x.f`` lookups see the
#: wrapper.
FUNCTIONS: Tuple[Tuple[str, str, str], ...] = (
    ("bench.build", "repro.bench.designs", "build_design"),
    ("place.cs", "repro.core.cell_shift", "cell_shift"),
    ("place.lda", "repro.core.local_density", "local_density_adjustment"),
    ("route", "repro.route.router", "global_route"),
    ("sta", "repro.timing.sta", "run_sta"),
    ("security.scan", "repro.security.metrics", "measure_security"),
    ("security.scan", "repro.security.exploitable",
     "find_exploitable_regions"),
    ("power", "repro.power.power", "analyze_power"),
    ("drc", "repro.drc.checker", "check_drc"),
    ("trojan.attempt", "repro.security.trojan", "attempt_insertion"),
    ("trojan.materialize", "repro.security.trojan", "materialize_implant"),
    ("service.exec", "repro.service.runner", "run_explore_job"),
    ("service.exec", "repro.service.runner", "run_harden_job"),
    ("service.exec", "repro.service.runner", "run_attack_job"),
)

#: (layer, module, class, method) — patched on the class itself.
METHODS: Tuple[Tuple[str, str, str, str], ...] = (
    ("sta", "repro.timing.sta", "IncrementalSTA", "update"),
    ("optimize.explore", "repro.optimize.explorer", "ParetoExplorer",
     "explore"),
    ("service.guard_build", "repro.service.runner", "DesignGuardFactory",
     "build"),
    ("service.guard_build", "repro.service.runner", "DesignGuardFactory",
     "build_attack"),
    ("service.journal", "repro.service.store", "JobStore",
     "write_snapshot"),
    ("service.cache", "repro.service.cache", "SharedEvalCache",
     "snapshot_for"),
    ("service.cache", "repro.service.cache", "SharedEvalCache", "absorb"),
    ("pool", "repro.resilience.supervisor", "TaskSupervisor", "run"),
)

_local = threading.local()
_undo: List[Callable[[], None]] = []


def _stack() -> list:
    stack = getattr(_local, "stack", None)
    if stack is None:
        stack = _local.stack = []
    return stack


def _record(layer: str, wall: float, child: float) -> None:
    from repro import obs

    m = obs.get_metrics()
    m.counter(f"perfbench.{layer}.calls").inc()
    m.histogram(f"perfbench.{layer}.s").observe(wall)
    m.histogram(f"perfbench.{layer}.child_s").observe(child)


def _children_cpu_s() -> float:
    t = os.times()
    return t.children_user + t.children_system


@contextlib.contextmanager
def paused():
    """Let calls through untimed (the benchmark's own checks)."""
    _local.paused = True
    try:
        yield
    finally:
        _local.paused = False


def _timed(layer: str, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        stack = _stack()
        if getattr(_local, "paused", False) or any(
            frame[0] == layer for frame in stack
        ):
            return fn(*args, **kwargs)
        frame = [layer, 0.0]
        stack.append(frame)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            wall = time.perf_counter() - t0
            stack.pop()
            if stack:
                stack[-1][1] += wall
            _record(layer, wall, frame[1])

    return wrapper


def _pool_timed(fn: Callable) -> Callable:
    """``TaskSupervisor.run``: pooled calls also record worker CPU.

    Pool workers are reaped before ``run`` returns, so the change in
    children CPU time across the call is the workers' CPU.
    """
    inner = _timed("pool", fn)

    @functools.wraps(fn)
    def wrapper(self, tasks):
        workers = getattr(self, "workers", 0)
        if workers <= 1:
            return inner(self, tasks)
        cpu0 = _children_cpu_s()
        t0 = time.perf_counter()
        try:
            return inner(self, tasks)
        finally:
            wall = time.perf_counter() - t0
            from repro import obs

            m = obs.get_metrics()
            m.histogram("perfbench.pool.pooled_s").observe(wall)
            m.histogram("perfbench.pool.slot_s").observe(wall * workers)
            m.histogram("perfbench.pool.worker_cpu_s").observe(
                _children_cpu_s() - cpu0
            )

    return wrapper


def _patch_everywhere(original: Callable, replacement: Callable) -> None:
    for name, module in list(sys.modules.items()):
        if not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                _undo.append(
                    lambda m=module, a=attr, v=original: setattr(m, a, v)
                )


def _lookup(mod: str, name: str):
    """``mod.name``, or ``None`` when the program no longer has it."""
    try:
        return getattr(importlib.import_module(mod), name, None)
    except ImportError:
        return None


def install() -> None:
    """Enable ``repro.obs`` collection and wrap every listed entry point.

    An entry point the program no longer has is skipped; its layer then
    reads 0 instead of breaking the run.
    """
    from repro import obs

    if _undo:
        return
    # Import the call sites first, so no module loaded later can bind
    # an unwrapped original.
    for mod in ("repro.core.flow", "repro.optimize.explorer",
                "repro.redteam.surface", "repro.incremental.engine",
                "repro.service.scheduler", "repro.service.app"):
        _lookup(mod, "__name__")
    if not obs.is_enabled():
        obs.enable()
    for layer, mod, name in FUNCTIONS:
        original = _lookup(mod, name)
        if original is not None:
            _patch_everywhere(original, _timed(layer, original))
    for layer, mod, cls_name, meth in METHODS:
        cls = _lookup(mod, cls_name)
        original = getattr(cls, "__dict__", {}).get(meth)
        if original is None:
            continue
        wrapped = (
            _pool_timed(original) if layer == "pool" else _timed(layer, original)
        )
        setattr(cls, meth, wrapped)
        _undo.append(lambda c=cls, n=meth, v=original: setattr(c, n, v))


def uninstall() -> None:
    """Restore every original entry point."""
    while _undo:
        _undo.pop()()


def is_installed() -> bool:
    return bool(_undo)


# ---------------------------------------------------------------------- #
# per-layer metrics
# ---------------------------------------------------------------------- #

#: name → unit, in report order.  The same list goes in BENCHMARK.json.
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("bench.build_s", "s"),
    ("flow.evaluations", "count"),
    ("flow.eval_s", "s"),
    ("flow.op_cache_hit_ratio", "ratio"),
    ("place.cs.calls", "count"),
    ("place.cs.time_s", "s"),
    ("place.lda.calls", "count"),
    ("place.lda.time_s", "s"),
    ("place.moved_cells", "count"),
    ("route.calls", "count"),
    ("route.time_s", "s"),
    ("route.initial_s", "s"),
    ("route.ripup_s", "s"),
    ("route.nets_routed", "count"),
    ("route.ripup_victims", "count"),
    ("route.ripup_ratio", "ratio"),
    ("sta.calls", "count"),
    ("sta.time_s", "s"),
    ("security.scan.calls", "count"),
    ("security.scan.time_s", "s"),
    ("trojan.attempt.time_s", "s"),
    ("trojan.materialize.time_s", "s"),
    ("power.time_s", "s"),
    ("drc.calls", "count"),
    ("drc.time_s", "s"),
    ("optimize.self_s", "s"),
    ("optimize.cache_hit_ratio", "ratio"),
    ("resilience.pool.time_s", "s"),
    ("resilience.pool.cpu_util", "ratio"),
    ("resilience.retries", "count"),
    ("redteam.batches", "count"),
    ("redteam.attempts", "count"),
    ("redteam.batch_s", "s"),
    ("service.http.time_s", "s"),
    ("service.http.requests", "count"),
    ("service.queue_wait_s", "s"),
    ("service.guard_build_s", "s"),
    ("service.exec_s", "s"),
    ("service.overhead_s", "s"),
    ("service.journal.writes", "count"),
    ("service.journal.time_s", "s"),
    ("service.cache.hit_ratio", "ratio"),
    ("obs.trace_overhead_ratio", "ratio"),
)


def diff_snapshot(after: Dict[str, dict], before: Dict[str, dict]) -> Dict[str, dict]:
    """What ``after`` added to ``before``: counters and histogram
    count/sum subtract, gauges keep their later value."""
    out = {}
    for name, snap in after.items():
        prev = before.get(name)
        if prev is None or snap["type"] == "gauge":
            out[name] = snap
        elif snap["type"] == "counter":
            out[name] = {**snap, "value": snap["value"] - prev["value"]}
        else:
            count = snap["count"] - prev["count"]
            total = snap["sum"] - prev["sum"]
            out[name] = {
                "type": "histogram", "count": count, "sum": total,
                "mean": total / count if count else 0.0, "stddev": 0.0,
                "min": None, "max": None,
            }
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    snap: Dict[str, dict], build_s: float, client: Dict[str, float]
) -> Dict[str, float]:
    """Derive every per-layer metric from the traced round.

    ``snap`` holds what the round added to the program's own counters
    and to the wrappers' ``perfbench.*`` entries; ``build_s`` is the
    design-build time of set-up; ``client`` holds what the client measured
    (HTTP time, queue waits, job latencies) and the trace overhead.
    Layers that did not run read 0.
    """

    def counter(name: str) -> float:
        return float(snap.get(name, {}).get("value") or 0)

    def total(name: str) -> float:
        return float(snap.get(name, {}).get("sum") or 0.0)

    def calls(layer: str) -> float:
        return counter(f"perfbench.{layer}.calls")

    def wall(layer: str) -> float:
        return total(f"perfbench.{layer}.s")

    op_hits = counter("flow.incremental.op_cache_hits")
    op_misses = counter("flow.incremental.op_cache_misses")
    nets = counter("route.nets_routed")
    victims = counter("route.ripup_victims")
    slot_s = total("perfbench.pool.slot_s")
    batches = counter("redteam.batches")
    guard_build = wall("service.guard_build")
    service_exec = wall("service.exec")
    return {
        "bench.build_s": build_s,
        "flow.evaluations": counter("flow.evaluations"),
        "flow.eval_s": total("flow.run.wall_s"),
        "flow.op_cache_hit_ratio": _ratio(op_hits, op_hits + op_misses),
        "place.cs.calls": calls("place.cs"),
        "place.cs.time_s": wall("place.cs"),
        "place.lda.calls": calls("place.lda"),
        "place.lda.time_s": wall("place.lda"),
        "place.moved_cells": counter("place.eco.moved_cells"),
        "route.calls": calls("route"),
        "route.time_s": wall("route"),
        "route.initial_s": total("route.initial.wall_s"),
        "route.ripup_s": total("route.ripup.wall_s"),
        "route.nets_routed": nets,
        "route.ripup_victims": victims,
        "route.ripup_ratio": _ratio(victims, nets),
        "sta.calls": calls("sta"),
        "sta.time_s": wall("sta"),
        "security.scan.calls": calls("security.scan"),
        "security.scan.time_s": wall("security.scan"),
        "trojan.attempt.time_s": wall("trojan.attempt"),
        "trojan.materialize.time_s": wall("trojan.materialize"),
        "power.time_s": wall("power"),
        "drc.calls": calls("drc"),
        "drc.time_s": wall("drc"),
        "optimize.self_s": wall("optimize.explore")
        - total("perfbench.optimize.explore.child_s"),
        "optimize.cache_hit_ratio": _ratio(
            counter("explorer.cache_hits"), counter("explorer.cache_requests")
        ),
        "resilience.pool.time_s": total("perfbench.pool.pooled_s"),
        "resilience.pool.cpu_util": _ratio(
            total("perfbench.pool.worker_cpu_s"), slot_s
        ),
        "resilience.retries": counter("resilience.retries"),
        "redteam.batches": batches,
        "redteam.attempts": counter("redteam.attempts"),
        "redteam.batch_s": _ratio(total("redteam.batch.wall_s"), batches),
        "service.http.time_s": client.get("http_s", 0.0),
        "service.http.requests": client.get("http_requests", 0.0),
        "service.queue_wait_s": client.get("queue_wait_s", 0.0),
        "service.guard_build_s": guard_build,
        "service.exec_s": service_exec,
        "service.overhead_s": max(
            0.0, client.get("latency_s", 0.0) - guard_build - service_exec
        )
        if client.get("latency_s")
        else 0.0,
        "service.journal.writes": calls("service.journal"),
        "service.journal.time_s": wall("service.journal"),
        "service.cache.hit_ratio": _ratio(
            client.get("cache_hits", 0.0), client.get("cache_requests", 0.0)
        ),
        "obs.trace_overhead_ratio": client.get("trace_overhead_ratio", 0.0),
    }
