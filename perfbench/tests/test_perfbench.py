"""Tests of the benchmark itself.

    python -m pytest perfbench/tests -q

Shortened runs of every workload go through the same harness and
output checks as the real ones; then each check is shown to fail on
one corrupted output.
"""

from __future__ import annotations

import copy
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import checks  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from repro import obs  # noqa: E402


class SmallExplore(workloads.ExplorePresent):
    POPULATION = 4
    GENERATIONS = 1


class SmallHarden(workloads.HardenSuite):
    DESIGNS = ("PRESENT", "openMSP430_1")


class SmallAttack(workloads.AttackCampaignWorkload):
    DESIGNS = ("PRESENT",)
    GRID = "ci"
    ATTEMPTS = 2


class SmallServe(workloads.ServeSerial):
    _EXPLORE = {"kind": "explore", "design": "PRESENT", "seed": 9,
                "population": 4, "generations": 1}
    JOBS = (
        {"kind": "harden", "design": "PRESENT"},
        _EXPLORE,
        _EXPLORE,
        {"kind": "attack", "design": "PRESENT", "grid": "ci", "attempts": 2},
    )
    DESIGNS = ("PRESENT",)


SMALL = (SmallExplore, SmallHarden, SmallAttack, SmallServe)


@pytest.fixture(autouse=True)
def obs_on():
    obs.enable()
    obs.get_metrics().reset()
    yield
    tracer.uninstall()
    obs.disable()


@pytest.fixture
def work_dir(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "LEDGER_DIR", tmp_path / "ledger")
    return tmp_path / "work"


# ---------------------------------------------------------------------- #
# shortened runs through every check
# ---------------------------------------------------------------------- #


@pytest.mark.parametrize("cls", SMALL, ids=lambda c: c.name)
def test_short_run_passes_every_check(cls, work_dir):
    w = cls(None, work_dir)
    try:
        rounds, attempted, failed, metrics, _ = run.run_end_to_end(w, 0.0)
        work, problems = run.round_problems(rounds)
        problems += run.ledger_check(w.name, w.seed, work)
        problems += w.check(rounds[-1])
    finally:
        w.finish()
    assert problems == []
    assert attempted > 0 and failed == 0
    assert set(metrics) == {name for name, _ in run.END_TO_END}
    assert all(m["value"] > 0 for m in metrics.values())
    assert any(work.values())


@pytest.mark.parametrize("cls", (SmallExplore, SmallAttack, SmallServe),
                         ids=lambda c: c.name)
def test_traced_run_reports_every_layer_metric(cls, work_dir):
    w = cls(None, work_dir)
    try:
        rounds, _, failed, metrics, _ = run.run_traced(w)
        work, problems = run.round_problems(rounds)
    finally:
        w.finish()
    # the traced and the untraced round did the same work
    assert problems == [] and failed == 0
    assert [name for name, _ in tracer.PER_LAYER] == list(metrics)
    assert not tracer.is_installed()
    value = {k: m["value"] for k, m in metrics.items()}
    assert value["obs.trace_overhead_ratio"] > 0
    assert value["bench.build_s"] > 0
    if cls is SmallExplore:
        assert value["flow.evaluations"] == work["evaluations"]
        assert value["route.nets_routed"] == work["nets_routed"]
        assert value["route.calls"] > 0 and value["sta.calls"] > 0
    if cls is SmallAttack:
        assert value["redteam.batches"] == work["batches"]
        # worker-side wrappers reach the parent through the pool
        assert value["trojan.attempt.time_s"] > 0
        assert value["resilience.pool.cpu_util"] > 0
    if cls is SmallServe:
        assert value["service.exec_s"] > 0
        assert value["service.journal.writes"] > 0
        assert value["service.http.requests"] > 0


def test_ledger_flags_runs_that_disagree(work_dir):
    assert run.ledger_check("w", 1, {"evaluations": 40}) == []
    assert run.ledger_check("w", 1, {"evaluations": 40}) == []
    assert run.ledger_check("w", 1, {"evaluations": 41})
    assert run.ledger_check("w", 2, {"evaluations": 41}) == []


# ---------------------------------------------------------------------- #
# one corrupted output per check
# ---------------------------------------------------------------------- #


def test_dominated_front_member_fails():
    assert checks.front_non_dominated([(0.5, 2.0), (1.0, 1.0)]) == []
    assert checks.front_non_dominated([(0.5, 2.0), (0.5, 1.0)])


def test_swapped_objective_fails(work_dir):
    w = SmallExplore(None, work_dir)
    w.setup()
    front = w.run_round().outputs
    assert w.check(workloads.Round([], {}, front)) == []
    # Swap the two objectives; where they are equal, shift the score.
    config, (a, b) = front[0]
    corrupted = (b, a) if a != b else (a + 0.25, b)
    oracle = workloads.make_guard(w.design, incremental=False)
    assert checks.front_reproduces([(config, corrupted)], oracle)


@pytest.fixture(scope="module")
def hardened_present():
    d = workloads.fresh_designs(["PRESENT"])["PRESENT"]
    result = workloads.make_guard(d).run(workloads.flow_config("CS", 16, 2, 1.0))
    return d, result


def _check_hardened(d, layout, routing, tns, baseline=None):
    return checks.hardened_layout(
        "PRESENT", layout, routing, tns, baseline or d, d.constraints, d.assets
    )


def test_hardened_layout_passes(hardened_present):
    d, r = hardened_present
    assert _check_hardened(d, r.layout, r.routing, r.tns) == []


def test_overlapping_cells_fail(hardened_present):
    from repro.layout.layout import Placement

    d, r = hardened_present
    layout = r.layout.clone()
    occ = layout.occupancy[0]
    first, second = occ.placements[0], occ.placements[1]
    occ.starts[1] = second.start = first.end - 1
    layout.placements[second.name] = Placement(row=0, start=second.start)
    problems = _check_hardened(d, layout, r.routing, r.tns)
    assert problems and "L001" in problems[0]


def test_misreported_tns_fails(hardened_present):
    d, r = hardened_present
    assert _check_hardened(d, r.layout, r.routing, r.tns - 1e-9)


def test_more_exploitable_sites_than_baseline_fails(hardened_present):
    from repro.timing.sta import run_sta

    d, r = hardened_present
    # Swap roles: the unhardened layout judged against the hardened one.
    hardened_as_baseline = SimpleNamespace(
        layout=r.layout, routing=r.routing,
        sta=run_sta(r.layout, d.constraints, routing=r.routing),
    )
    tns = run_sta(d.layout, d.constraints, routing=d.routing).tns
    problems = _check_hardened(d, d.layout, d.routing, tns, hardened_as_baseline)
    assert problems and "exploitable sites" in problems[0]


@pytest.fixture(scope="module")
def campaign_summary(tmp_path_factory):
    w = SmallAttack(None, tmp_path_factory.mktemp("attack"))
    w.setup()
    return w, w.run_round().outputs


def test_pooled_summary_mismatch_fails(campaign_summary):
    w, summary = campaign_summary
    assert w.check(workloads.Round([], {}, summary)) == []
    tampered = copy.deepcopy(summary)
    row = tampered["results"][0]
    row["successes"] += 1 if row["successes"] < row["attempts"] else -1
    assert checks.summaries_equal(tampered, summary)


def test_hardened_easier_than_baseline_fails(campaign_summary):
    w, summary = campaign_summary
    tampered = copy.deepcopy(summary)
    for row in tampered["results"]:
        row["successes"] = row["attempts"] if row["target"].endswith("hardened") else 0
    assert checks.hardened_not_easier(tampered, w.pairs)


def test_served_result_from_another_seed_fails(work_dir):
    from repro.service.jobs import JobSpec
    from repro.service.runner import DesignGuardFactory, run_explore_job

    factory = DesignGuardFactory()
    spec = dict(SmallServe._EXPLORE)
    results = {}
    for seed in (9, 3):
        job = JobSpec.from_payload({**spec, "seed": seed})
        results[seed] = run_explore_job(job, factory.build("PRESENT"), work_dir / str(seed))
    assert checks.served_equals_direct(spec, results[9], results[9]) == []
    served = {**results[3], "seed": 9}  # another seed's front, relabelled
    assert checks.served_equals_direct(spec, served, results[9])


def test_uncached_repeat_fails():
    spec = SmallServe._EXPLORE
    assert checks.repeat_is_cached(spec, {"evaluations": 0}) == []
    assert checks.repeat_is_cached(spec, {"evaluations": 6})
