"""Tests of the benchmark itself, including its negative control.

    python3 -m pytest perfbench/test_perfbench.py

Not part of the repository's tier-1 suite (pytest collects `tests/` by
default); they take under a minute.
"""

import copy
import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import criteria  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())

# the smallest configs each step accepts that still reach the same layers
TINY = {
    "strichartz2d": {"Ns": [1, 8], "kinds": ["comparable", "low-high"]},
    "strichartz3d": {"Ns": [1, 8]},
    "evolve": {"T": 0.02},
    "picard": {"iters": 3},
    "illposed-scaling": {"etaQuadPoints": 32},
    "bilinear-ratio": {"Ns": [1, 8]},
}


def tiny(workload):
    steps = tuple(
        dataclasses.replace(s, config={**s.config, **TINY[s.subcommand]})
        for s in workload.steps
    )
    return dataclasses.replace(workload, steps=steps)


@pytest.fixture
def quick(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "OUT", tmp_path)
    monkeypatch.setattr(run, "MIN_PASSES", 1)
    monkeypatch.setattr(run, "SETUP_SAMPLES", 1)


def _declared(kind):
    return {m["name"]: m["unit"] for m in BENCHMARK[kind]}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_pass_reports_every_metric_with_its_unit(name, quick):
    workload = tiny(WORKLOADS[name])
    reference = run.record([workload], seed=0)

    lines, env, tally, metrics = run.run_benchmark(workload, 0, 0.0, 0, reference)
    assert tally.failed == 0 and tally.attempted > 0, tally.failures
    assert {k: m["unit"] for k, m in metrics.items()} == _declared("end_to_end")
    assert all(m["value"] > 0 for m in metrics.values())
    assert all(a["computed_bytes"] > 0 for a in env["largest_array_per_step"])

    lines, env, tally, metrics = run.run_benchmark(workload, 0, 0.0, 1, reference)
    assert tally.failed == 0, tally.failures
    assert {k: m["unit"] for k, m in metrics.items()} == _declared("per_layer")
    # cli.run is the root span, so the self times partition its busy time
    self_total = sum(m["value"] for k, m in metrics.items() if k.endswith(".self_s"))
    assert self_total == pytest.approx(metrics["cli.run.busy_s"]["value"], rel=1e-9)
    assert metrics["cli.run.calls"]["value"] == len(workload.steps)
    assert metrics["failed_share"]["value"] == 0
    assert metrics["trace.overhead_ratio"]["value"] > 0


@pytest.fixture(scope="module")
def flow_pass(tmp_path_factory):
    """One full flow-experiments pass at the reference seed."""
    outroot = tmp_path_factory.mktemp("flow")
    workload = WORKLOADS["flow-experiments"]
    _, _, errors = run.run_pass(workload, 0, outroot)
    assert not errors
    return workload, outroot


def _tally(reference, workload, outroot, seed=0):
    tally = check.Tally()
    tally.check_pass(reference, workload, outroot, seed, {})
    return tally


def test_negative_control_stored_reference(flow_pass):
    workload, outroot = flow_pass
    reference = check.load_reference()
    assert _tally(reference, workload, outroot).failed == 0

    for step, key in (("illposed-a2-s0", "thirdNorm"), ("evolve", "observedOrder")):
        perturbed = copy.deepcopy(reference)
        entry = perturbed["workloads"][workload.name][step]
        if key in entry["columns"]:
            entry["columns"][key][2] *= 1 + 1e-6
        else:
            entry["summary"][key] *= 1 + 1e-6
        assert _tally(perturbed, workload, outroot).share > 0, key

    flipped = copy.deepcopy(reference)
    flipped["workloads"][workload.name]["illposed-a2-s-0.75"]["verdict"] = (
        "no failure detected")
    assert _tally(flipped, workload, outroot).share > 0


def test_exception_counts_as_failure(flow_pass):
    workload, outroot = flow_pass
    tally = check.Tally()
    tally.check_pass(check.load_reference(), workload, outroot, 0,
                     {step.label: "RuntimeError()" for step in workload.steps})
    assert tally.attempted == tally.failed == len(workload.steps)


def _step(**summary):
    return {"subcommand": "strichartz2d", "verdict": "bounded", "summary": summary,
            "columns": {"N": [8, 64], "seed": [0, 0], "value": [1.0, 2.0]}}


def _failures(ref, obs, seed=0):
    return [n for n, reason in check.check_step("s", ref, obs, seed, 0) if reason]


def test_other_seed_checks_verdicts_and_finiteness_only():
    ref = _step(fittedExponent=0.01)
    obs = copy.deepcopy(ref)
    obs["columns"]["seed"] = [5, 5]
    obs["columns"]["value"] = [1.5, 2.5]
    obs["summary"]["fittedExponent"] = 0.02
    assert _failures(ref, obs, seed=5) == []
    assert _failures(ref, obs, seed=0) != []
    obs["columns"]["value"][1] = float("nan")
    assert _failures(ref, obs, seed=5) == ["s: value[1]"]
    obs["verdict"] = "estimate fails"
    assert "s: verdict" in _failures(ref, obs, seed=5)


def test_thresholds_replace_digit_checks():
    ref = {"subcommand": "picard", "verdict": None,
           "summary": {"crossCheckRelDiff": 2e-13, "contractionRatios.0": 4e-4},
           "columns": {"diffNorm": [1.0, 1e-4, 1e-9]}}
    obs = copy.deepcopy(ref)
    obs["summary"]["crossCheckRelDiff"] = 5e-7
    obs["columns"]["diffNorm"] = [1.0, 1e-4, 1e-10]
    assert _failures(ref, obs) == []
    obs["summary"]["crossCheckRelDiff"] = 2e-6
    obs["summary"]["contractionRatios.0"] = 1.5
    obs["columns"]["diffNorm"] = [1.0, 1e-4, 1e-3]
    failed = _failures(ref, obs)
    assert "s: summary crossCheckRelDiff" in failed
    assert "s: summary contractionRatios.0" in failed
    assert "s: column diffNorm decreasing" in failed


def test_tracer_rebinds_every_name_and_restores():
    import kplab.cli  # noqa: F401

    originals = {}
    for mod, fns in spans.TARGETS.items():
        for fn in fns:
            originals[id(getattr(sys.modules[f"kplab.{mod}"], fn))] = f"{mod}.{fn}"
    tracer = spans.Tracer()
    tracer.install()
    try:
        leftover = [
            (m.__name__, attr) for m in spans._kplab_modules()
            for attr, value in vars(m).items() if id(value) in originals
        ]
        assert leftover == []
        assert sys.modules["kplab.illposed"].phi1.__wrapped__ is not None
        assert sys.modules["kplab.cli"].evolve_nonlinear.__wrapped__ is not None
    finally:
        tracer.uninstall()
    restored = {id(getattr(sys.modules[f"kplab.{name.split('.')[0]}"], name.split(".")[1]))
                for name in originals.values()}
    assert restored == set(originals)


def test_typical_pass_takes_each_steps_median():
    # a burst in one step of one pass does not move the result
    per_pass = [[1.0, 10.0], [2.0, 1.0], [3.0, 2.0]]
    assert run.typical_pass(per_pass) == 2.0 + 2.0


def test_criteria_lines_parse():
    text = ("criterion 06 [PASS] time-cutoff bilinear estimate boundedness (2d): "
            "per-N max slope +0.0030 over N=8..128, 100 samples, residual 0.010 "
            "(237.4s / budget 300s)\nunrelated line\n")
    (rec,) = criteria.parse(text)
    assert rec["criterion"] == 6 and rec["status"] == "PASS"
    assert rec["elapsed_s"] == 237.4 and rec["budget_s"] == 300.0
    assert rec["name"] == "time-cutoff bilinear estimate boundedness (2d)"


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload", "flow-experiments",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
