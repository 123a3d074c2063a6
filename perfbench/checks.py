"""Output checks, one function per property.

Every check compares an output against a separate computation or a
property the method must have — never against a stored copy of an
earlier output.  Each returns a list of problems; an empty list passes.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List, Sequence, Tuple

#: Placement rules of ``repro.lint`` a hardened layout must pass.
LAYOUT_RULES = ("L001", "L002", "L003", "L004", "L005")


def _dominates(a: Sequence[float], b: Sequence[float]) -> bool:
    return all(x <= y for x, y in zip(a, b)) and any(
        x < y for x, y in zip(a, b)
    )


def front_non_dominated(objectives: Sequence[Sequence[float]]) -> List[str]:
    """No front member may dominate another."""
    problems = []
    for i, a in enumerate(objectives):
        for j, b in enumerate(objectives):
            if i != j and _dominates(a, b):
                problems.append(f"front member {i} {tuple(a)} dominates member {j} {tuple(b)}")
    return problems


def front_reproduces(
    members: Sequence[Tuple[Any, Sequence[float]]], oracle: Any
) -> List[str]:
    """Each (config, objectives) re-run on ``oracle`` gives the same
    objectives bitwise.  ``oracle`` is a fresh non-incremental guard."""
    problems = []
    for config, objectives in members:
        again = tuple(oracle.run(config).objectives)
        if again != tuple(objectives):
            problems.append(
                f"front member {config} reported {tuple(objectives)}, "
                f"a full re-run gives {again}"
            )
    return problems


def hardened_layout(
    name: str,
    layout: Any,
    routing: Any,
    reported_tns: float,
    baseline: Any,
    constraints: Any,
    assets: Any,
    thresh_er: int = 20,
) -> List[str]:
    """A hardened layout is legal, no easier to attack, and its TNS is real.

    * the placement passes the ``repro.lint`` layout rules;
    * a fresh exploitable-region scan finds no more sites than one of
      the baseline;
    * a fresh ``run_sta`` on the layout and its routing gives the
      reported TNS.
    """
    from repro.lint.engine import run_lint
    from repro.lint.violations import Severity
    from repro.security.metrics import measure_security
    from repro.timing.sta import run_sta

    problems = []
    reference = {
        cell: baseline.layout.placement(cell)
        for cell in layout.fixed
        if baseline.layout.is_placed(cell)
    }
    report = run_lint(
        layout,
        assets=assets,
        reference_placements=reference,
        rules=list(LAYOUT_RULES),
        thresh_er=thresh_er,
    )
    if report.errors:
        first = next(v for v in report.violations if v.severity >= Severity.ERROR)
        problems.append(f"{name}: {report.errors} lint error(s), first {first.format()}")
        return problems
    sta = run_sta(layout, constraints, routing=routing)
    if sta.tns != reported_tns:
        problems.append(f"{name}: reported TNS {reported_tns!r}, fresh STA gives {sta.tns!r}")
    sites = measure_security(
        layout, sta, assets, routing=routing, thresh_er=thresh_er
    ).er_sites
    base_sites = measure_security(
        baseline.layout, baseline.sta, assets, routing=baseline.routing,
        thresh_er=thresh_er,
    ).er_sites
    if sites > base_sites:
        problems.append(f"{name}: {sites} exploitable sites after hardening, baseline has {base_sites}")
    return problems


def summaries_equal(pooled: Dict[str, Any], serial: Dict[str, Any]) -> List[str]:
    """The pooled campaign summary equals the serial one, byte for byte."""
    a = json.dumps(pooled, sort_keys=True)
    b = json.dumps(serial, sort_keys=True)
    if a == b:
        return []
    rows_a = {(r["target"], r["spec_id"]): r for r in pooled.get("results", [])}
    rows_b = {(r["target"], r["spec_id"]): r for r in serial.get("results", [])}
    differing = sorted(k for k in set(rows_a) | set(rows_b) if rows_a.get(k) != rows_b.get(k))
    return [f"pooled campaign summary differs from the serial one at {differing[:3] or 'header'}"]


def hardened_not_easier(summary: Dict[str, Any], pairs: Iterable[Tuple[str, str]]) -> List[str]:
    """On every spec, each hardened target's success rate is at or below
    its baseline's.  ``pairs`` maps (baseline id, hardened id)."""
    rate = {
        (r["target"], r["spec_id"]): r["successes"] / r["attempts"]
        for r in summary["results"]
    }
    specs = [p["spec_id"] for p in summary["grid"]["points"]]
    problems = []
    for base, hard in pairs:
        for spec in specs:
            if rate[(hard, spec)] > rate[(base, spec)]:
                problems.append(
                    f"{hard} is easier to attack than {base} on {spec}: "
                    f"{rate[(hard, spec)]:.2f} > {rate[(base, spec)]:.2f}"
                )
    return problems


def served_equals_direct(spec: Dict[str, Any], served: Dict[str, Any], direct: Dict[str, Any]) -> List[str]:
    """A served result equals the same spec run through the runner directly.

    Explore results are compared on everything the search decides (the
    front and the spec echo); their evaluation counts legitimately differ
    when the shared cache answered, which :func:`repeat_is_cached`
    checks.  Harden and attack results compare whole.
    """
    label = f"{spec['kind']} {spec['design']} seed {spec.get('seed', 0)}"
    if spec["kind"] == "explore":
        keys = ("kind", "design", "seed", "population", "generations", "front")
        served = {k: served.get(k) for k in keys}
        direct = {k: direct.get(k) for k in keys}
    if json.dumps(served, sort_keys=True) != json.dumps(direct, sort_keys=True):
        return [f"served {label} differs from the direct run"]
    return []


def repeat_is_cached(spec: Dict[str, Any], served: Dict[str, Any]) -> List[str]:
    """A repeated explore job is answered by the shared cache alone."""
    if served.get("evaluations") != 0:
        return [
            f"repeated explore {spec['design']} seed {spec['seed']} ran "
            f"{served.get('evaluations')} evaluations, expected 0"
        ]
    return []
