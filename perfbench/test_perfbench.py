"""Tests of the benchmark itself: its checker, its metric table and a smoke run.

    python3 -m pytest perfbench -q
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import loops  # noqa: E402
import ops  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402


def load_reference():
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as handle:
        return json.load(handle)


@pytest.mark.parametrize("workload", sorted(ops.WORKLOADS))
def test_reference_matches_itself(workload):
    for entry in load_reference()[workload]:
        assert ops.compare(dict(entry), entry) == []


@pytest.mark.parametrize("workload", sorted(ops.WORKLOADS))
def test_perturbation_of_1e6_is_flagged(workload):
    entry = load_reference()[workload][0]
    floats = [k for k, v in entry.items() if isinstance(v, float) and v != 0.0]
    for key in floats:
        perturbed = dict(entry)
        perturbed[key] = entry[key] * (1.0 + 1e-6)
        assert ops.compare(perturbed, entry), key
        # Far inside the 1e-9 tolerance: accepted.
        perturbed[key] = entry[key] * (1.0 + 1e-12)
        assert ops.compare(perturbed, entry) == [], key


def test_flipped_decision_is_flagged():
    entry = load_reference()["long"][0]
    perturbed = dict(entry, **{"detect.reject": not entry["detect.reject"]})
    assert ops.compare(perturbed, entry)


def test_invariants_flag_disagreeing_views():
    summary = dict(load_reference()["long"][1])
    assert ops.invariants(summary) == []
    summary["localize.tau_hat"] += 1
    assert ops.invariants(summary)


def test_raising_operation_counts_as_failed():
    tally = loops.Tally()

    def boom():
        raise ValueError("wrong shape")

    ok, _ = tally.run(boom)
    assert not ok
    assert (tally.attempted, tally.failed) == (1, 1)
    assert "ValueError" in tally.problems[0]


def small_op(w, tmp_path):
    """One full operation, with checks, on a reduced shape."""
    inp = ops.make_input(w, 5, ops.MEASURE_STREAM, 0, str(tmp_path / "x.csv"))
    _, outputs = ops.run_inprocess(w, inp)
    _, cli_outputs = ops.run_cli(w, inp, ops.child_env(ROOT))
    outputs.update(cli_outputs)
    return inp, outputs


def test_cli_output_perturbed_by_1e6_is_flagged(tmp_path):
    w = ops.Workload("long", False, 60, 8)
    inp, outputs = small_op(w, tmp_path)
    assert ops.check_op(w, inp, outputs, None)[0] == []
    outputs["cli"]["t_n"] *= 1.0 + 1e-6
    assert ops.check_op(w, inp, outputs, None)[0]


def test_cli_csv_report_restores_every_value_exactly():
    text = "n,p,t_n,p_combined,reject\r\n200,5000,1234.5678901234567,5e-324,True\r\n"
    assert ops.parse_report_csv(text) == {
        "n": 200, "p": 5000, "t_n": 1234.5678901234567, "p_combined": 5e-324, "reject": True,
    }
    assert type(ops.parse_report_csv(text)["reject"]) is bool


@pytest.mark.parametrize("shape", [("long", 120, 6), ("wide", 24, 300), ("paper_sim", 0, 0)])
def test_smoke_every_workload(shape, tmp_path):
    name, n, p = shape
    w = ops.WORKLOADS[name] if name == "paper_sim" else ops.Workload(name, False, n, p)
    inp, outputs = small_op(w, tmp_path)
    problems, _ = ops.check_op(w, inp, outputs, None)
    assert problems == []
    tracer = spans.Tracer()
    tracer.op_id = 0
    with tracer.span("op"):
        scores = ops.replay_stages(inp.x, tracer)
    durations = tracer.durations(0)
    assert set(loops.STAGES) <= set(durations)
    assert scores.size > 0
    self_times = tracer.self_times(0)
    assert self_times["op"] <= durations["op"]


def test_every_metric_is_declared_with_its_unit():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert sorted(run.WORKLOADS) == sorted(ops.WORKLOADS)


@pytest.mark.parametrize("trace, units", [(0, run.END_TO_END_UNITS), (1, run.PER_LAYER_UNITS)])
def test_run_emits_every_metric_with_its_unit(trace, units):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "paper_sim",
         "--seed", "9", "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=170, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "wide", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, check=False,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
