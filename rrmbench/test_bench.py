"""Tests of the benchmark itself.

    python -m pytest rrmbench -q

Each workload runs for a single pass (seconds=0), in this process.
"""

import json
from pathlib import Path

import pytest

import bench
from rrmgnn import harness, objectives

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json")
                  .read_text(encoding="utf-8"))


@pytest.fixture(scope="module", params=sorted(bench.WORKLOADS))
def runs(request):
    """One untraced and two traced single-pass runs of a workload at one seed."""
    name = request.param
    return (bench.run_workload(name, 5, 0),
            bench.run_workload(name, 5, 0, trace=True),
            bench.run_workload(name, 5, 0, trace=True))


def units(entries):
    return {e["name"]: e["unit"] for e in entries}


def test_metric_names_and_units(runs):
    plain, traced, _ = runs
    assert plain["correct"] and traced["correct"], plain["problems"] + traced["problems"]
    assert plain["attempted"] >= 1
    assert {k: m["unit"] for k, m in plain["metrics"].items()} == units(SPEC["end_to_end"])
    assert {k: m["unit"] for k, m in traced["metrics"].items()} == units(SPEC["per_layer"])
    assert all(m["value"] > 0 for m in plain["metrics"].values())


def test_self_times_add_up_to_traced_wall(runs):
    layers = runs[1]["metrics"]
    total = sum(m["value"] for k, m in layers.items() if k.endswith(".self_s"))
    assert total == pytest.approx(layers["traced.wall_s"]["value"], rel=1e-9)
    assert layers["other.self_s"]["value"] >= 0


def test_counts_and_sum_rate_repeat_at_one_seed(runs):
    plain, a, b = runs
    counts = {k: m["value"] for k, m in a["metrics"].items() if m["unit"] in ("count", "B")}
    assert counts == {k: b["metrics"][k]["value"] for k in counts}
    assert plain["sum_rate"] == a["sum_rate"] == b["sum_rate"]
    assert (plain["attempted"], plain["failed"]) == (a["attempted"], a["failed"])


def test_injected_infeasible_solution_is_counted(monkeypatch):
    monkeypatch.setattr(bench, "SOLVE_SETS", [("coop", 5, 2, 2, ("gp",), 2, 909)])
    monkeypatch.setattr(bench, "SOLVE_PROBE", 2)
    solve = harness.run_baseline

    def over_budget(scenario, instance, which, solver_cfg=None):
        result = solve(scenario, instance, which, solver_cfg)
        result.variables = result.variables * 2.0
        return result

    monkeypatch.setattr(harness, "run_baseline", over_budget)
    result = bench.run_workload("solve-baselines", 5, 0)
    assert not result["correct"]
    assert result["failed"] == 2 and result["attempted"] == 2 + 2
    assert all("feasibility residual" in p for p in result["problems"])


def test_failing_call_is_counted_not_raised(monkeypatch):
    monkeypatch.setattr(bench, "EVAL_PER_SHAPE", 2)
    project = objectives.normalize

    def over_budget(raw, instance):
        return project(raw, instance) + 10.0   # 10 W on every entry

    monkeypatch.setattr(objectives, "normalize", over_budget)
    result = bench.run_workload("eval-mixed", 5, 0)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] == 2 * len(bench.EVAL_SHAPES)
