"""Orchestration: validation, sweeps, envelopes, determinism, exit codes."""

import concurrent.futures
import json
import math
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

import kplab
from kplab import cli, estimates, evolution
from kplab.cli import SUBCOMMANDS, main, rows_to_csv, run, sweep_parallel
from kplab.errors import (
    InsufficientSpanError,
    InvalidSpecError,
    NonFiniteValueError,
    SolverDivergenceError,
    SweepWorkerError,
    WindowTooSmallError,
)
from kplab.evolution import CutoffSpec
from kplab.fields import make_grid
from kplab.symbols import IDENTITY_TOL, DispersionParams, ResonanceSampleAudit


_NO_SCIPY_RUNS = """
import math, sys
import kplab, kplab.cli
# a fitted product, a boxed space-time product and the Picard solver's
# cumulative Simpson quadrature
kplab.cli.run("strichartz2d", {"Ns": [1, 8], "seeds": [0], "kinds": ["random"]})
kplab.cli.run("bilinear-ratio", {"Ns": [1, 8], "seeds": [0], "kinds": ["random"]})
kplab.cli.run("picard", {"kMax": 4, "yPoints": 16, "yLength": 8 * math.pi,
                         "tPoints": 16, "tWindow": 0.2, "T": 0.05, "iters": 2})
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def _python(args, cwd, check=True):
    # a fresh interpreter that imports this checkout's kplab
    src = str(Path(kplab.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300, check=check)


def test_kplab_runs_without_importing_scipy(tmp_path):
    # scipy is a test-only oracle: importing it (scipy.fft, scipy.integrate)
    # pulls in scipy.special, linalg and sparse, and more than doubles the
    # start-up time and resident memory of every run
    proc = _python(["-c", _NO_SCIPY_RUNS], tmp_path)
    assert proc.stdout.strip().splitlines()[-1] == "[]"


def test_validation_reports_field_names():
    with pytest.raises(InvalidSpecError) as err:
        run("evolve", {"yPoints": 100, "dt": -1.0})
    joined = " ".join(err.value.violations)
    assert "yPoints" in joined
    assert "dt" in joined
    with pytest.raises(InvalidSpecError) as err:
        run("picard", {"T": 0.2, "tWindow": 0.2})
    assert err.value.violations == ["T: cutoff support 2T exceeds tWindow"]
    with pytest.raises(InvalidSpecError) as err:
        run("evolve", {"dt": 0.5, "T": 0.1})
    assert err.value.violations == ["dt: exceeds T"]


def test_cli_and_solver_share_the_cutoff_window_rule():
    # 2T above tWindow by less than the 1e-12 relative slack of
    # CutoffSpec.check_window: both accept it, and both reject 1e-11
    for shrink, fits in ((1e-13, True), (1e-11, False)):
        config = {"T": 0.1, "tWindow": 0.2 * (1 - shrink), "crossCheck": False}
        grid = make_grid(4, 16, 8 * math.pi, tPoints=16, tWindow=config["tWindow"])
        if fits:
            assert cli._resolve("picard", config)["tWindow"] == config["tWindow"]
            CutoffSpec(T=0.1).check_window(grid)
            continue
        with pytest.raises(InvalidSpecError) as err:
            cli._resolve("picard", config)
        assert err.value.violations == ["T: cutoff support 2T exceeds tWindow"]
        with pytest.raises(WindowTooSmallError):
            CutoffSpec(T=0.1).check_window(grid)


# T is 16 steps of the t lattice's 3.125 to 6e-10 relative; at dt = 3.125
# Picard and ETDRK4 disagree completely (relative L2 difference 1.000005)
DISAGREEING_PICARD = {"T": 50.00000003, "tWindow": 200.0, "tPoints": 128, "dt": 3.125,
                      "kMax": 4, "yPoints": 16, "iters": 2}


def test_cli_and_picard_share_the_t_lattice_rule():
    # the config check accepts T, and so must the read of the Picard iterate
    # at T: the run gets past that read, to the cross-check's bound
    config = DISAGREEING_PICARD
    assert cli._resolve("picard", config)["T"] == config["T"]
    with pytest.raises(SolverDivergenceError, match="Picard and ETDRK4 disagree"):
        run("picard", config)


def test_a_failed_picard_cross_check_stops_the_run(tmp_path, capsys):
    # past criterion 5's 1e-6 the two solvers do not agree, and the run says
    # so with an error instead of writing the difference as a result
    with pytest.raises(SolverDivergenceError, match=r"relative L2 difference 1\.00000.* exceeds 1e-6"):
        run("picard", DISAGREEING_PICARD)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(DISAGREEING_PICARD))
    assert main(["picard", "--config", str(cfg)]) == 1
    out, err = capsys.readouterr()
    [line] = err.splitlines()
    assert out == "" and json.loads(line)["error"] == "SolverDivergenceError"


def test_validation_checks_kinds_per_subcommand():
    # strichartz3d has one ensemble: a kinds key would be silently ignored
    with pytest.raises(InvalidSpecError) as err:
        run("strichartz3d", {"Ns": [1, 8], "seeds": [0], "kinds": ["comparable"]})
    assert err.value.violations == ["kinds: strichartz3d takes no kinds"]
    # low-high is a strichartz2d ensemble only; bilinear-ratio used to crash on it
    with pytest.raises(InvalidSpecError) as err:
        run("bilinear-ratio", {"Ns": [8, 64], "seeds": [0], "kinds": ["low-high"]})
    assert [v.split(":")[0] for v in err.value.violations] == ["kinds"]
    with pytest.raises(InvalidSpecError):
        run("counterexample", {"kinds": ["random"]})


@pytest.mark.parametrize(
    "subcommand, config, key",
    [
        # a misspelt key is an error, never a silent fall-back to the default
        ("counterexample", {"Ns": [16, 32, 64, 128], "quadPoint": 16}, "quadPoint"),
        ("bilinear-ratio", {"Ns": [8, 64], "seeds": [0], "lhsFlavr": "x"}, "lhsFlavr"),
        # a boolean is not a number, also inside a list
        ("illposed-scaling", {"t": True}, "t"),
        ("strichartz2d", {"seeds": [True]}, "seeds"),
        # each key has a type and a range check
        ("evolve", {"etaWidth": 0}, "etaWidth"),
        ("evolve", {"measureOrder": "no"}, "measureOrder"),
        ("evolve", {"dealias": 1.5}, "dealias"),
        ("picard", {"crossCheck": 1}, "crossCheck"),
        # the counterexample lhs does not depend on alpha, so it is not a key
        ("counterexample", {"alpha": 3.0}, "alpha"),
        # a repeated seed or alpha would only repeat rows
        ("strichartz3d", {"seeds": [0, 0]}, "seeds"),
        ("resonance-audit", {"alphas": [2.0, 3.0, 2.0]}, "alphas"),
        ("strichartz2d", {"kinds": ["random", "low-high", "random"]}, "kinds"),
        ("bilinear-ratio", {"kinds": ["comparable", "comparable"]}, "kinds"),
    ],
)
def test_validation_rejects_unknown_and_mistyped_keys(subcommand, config, key):
    with pytest.raises(InvalidSpecError) as err:
        run(subcommand, config)
    assert [v.split(":")[0] for v in err.value.violations] == [key]
    if key not in cli._TABLE[subcommand].keys:
        assert err.value.violations == [f"{key}: {subcommand} takes no {key}"]


def test_every_default_passes_its_own_checks():
    for subcommand in SUBCOMMANDS:
        cfg = cli._resolve(subcommand, {})
        assert set(cfg) == set(cli._TABLE[subcommand].keys)
    # the resolved config holds copies: editing one leaves the defaults alone
    cli._resolve("resonance-audit", {})["alphas"].append(1.0)
    assert cli._resolve("resonance-audit", {})["alphas"] == [2.0, 2.5, 3.0, 4.0]


@pytest.mark.parametrize(
    "subcommand, text",
    [("resonance-audit", '{"identitySamples": "3"}'), ("evolve", "[0.01]")],
)
def test_main_reports_mistyped_config_as_invalid(tmp_path, capsys, subcommand, text):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    assert main([subcommand, "--config", str(cfg)]) == 1
    assert json.loads(capsys.readouterr().err)["error"] == "config-invalid"


def test_a_number_key_takes_an_integer_as_a_float_and_only_in_the_float_range(
        tmp_path, capsys, monkeypatch):
    # an integer is a number, handed to the runner as a float; one past the
    # float range is rejected before any arithmetic, where it would overflow
    # (alpha, T) or, as an exact integer power N**s, not finish (s)
    assert repr(cli._resolve("counterexample", {"s": 3})["s"]) == "3.0"
    assert repr(cli._resolve("evolve", {"alpha": 3})["alpha"]) == "3.0"
    assert [repr(a) for a in cli._resolve("resonance-audit", {"alphas": [2, 3]})["alphas"]] == [
        "2.0", "3.0"]
    huge = 10**400
    monkeypatch.setattr(cli, "evolve_nonlinear", lambda *a, **k: pytest.fail("a solve ran"))
    for subcommand, key in (("evolve", "alpha"), ("picard", "T"), ("counterexample", "s")):
        with pytest.raises(InvalidSpecError) as err:
            cli._resolve(subcommand, {key: huge})
        assert err.value.violations == [f"{key}: expected finite number, got {huge!r}"]
    with pytest.raises(InvalidSpecError) as err:
        run("evolve", {"alpha": huge})
    assert [v.split(":")[0] for v in err.value.violations] == ["alpha"]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"alpha": huge}))
    assert main(["evolve", "--config", str(cfg)]) == 1
    (line,) = capsys.readouterr().err.splitlines()
    assert json.loads(line)["error"] == "config-invalid"


def test_main_reports_a_config_json_cannot_read_as_one_json_line(tmp_path, capsys):
    # not UTF-8, and an integer longer than Python converts from text
    cfg = tmp_path / "cfg.json"
    for blob in (b"\xff\xfe{}", b'{"alpha": ' + b"1" * 4400 + b"}"):
        cfg.write_bytes(blob)
        assert main(["evolve", "--config", str(cfg)]) == 1
        (line,) = capsys.readouterr().err.splitlines()
        assert json.loads(line)["error"] == "config-unreadable"


def test_run_rejects_fewer_than_one_worker(tmp_path):
    for workers in (0, -2, True):
        with pytest.raises(InvalidSpecError) as err:
            run("resonance-audit", {"alphas": [2.0], "kMax": 10}, workers=workers)
        assert err.value.violations[0].startswith("workers:")
    assert main(["resonance-audit", "--workers", "0"]) == 1


def test_negative_seeds_are_rejected_before_the_run(tmp_path, capsys):
    # numpy takes no negative seed, so these must fail before the run starts
    sweep = {"Ns": [1, 8], "seeds": [0], "kinds": ["random"]}
    with pytest.raises(InvalidSpecError) as err:
        run("strichartz2d", {**sweep, "seeds": [-1]})
    assert [v.split(":")[0] for v in err.value.violations] == ["seeds"]
    for subcommand, config, base_seed in (
        ("strichartz2d", sweep, -1),
        ("resonance-audit", {"alphas": [2.0], "kMax": 10, "identitySamples": 5}, -3),
        ("resonance-audit", {"alphas": [2.0], "kMax": 10}, True),
    ):
        with pytest.raises(InvalidSpecError) as err:
            run(subcommand, config, base_seed=base_seed)
        assert [v.split(":")[0] for v in err.value.violations] == ["base_seed"]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(sweep))
    assert main(["strichartz2d", "--config", str(cfg), "--seed", "-1"]) == 1
    assert json.loads(capsys.readouterr().err)["error"] == "config-invalid"


def test_evolve_measures_order_with_the_config_dealias(monkeypatch):
    seen = {}

    def fake_order(*args, **kwargs):
        seen.update(kwargs)
        return 4.0

    monkeypatch.setattr(cli, "observed_order", fake_order)
    env = run(
        "evolve",
        {"kMax": 8, "yPoints": 32, "yLength": 16 * math.pi, "dt": 1e-3, "T": 0.008,
         "dealias": 0.5, "measureOrder": True},
    )
    assert seen["dealias"] == 0.5
    assert seen["finest"] is not None
    assert env["summary"]["observedOrder"] == 4.0


@pytest.mark.parametrize("T", [0.12, 0.08])
def test_evolve_order_from_the_main_solve_matches_a_separate_finest_solve(T):
    # above T = 0.1 the finest order solve is the main solve's first 100 steps,
    # at or below it the whole main solve
    config = cli._resolve(
        "evolve",
        {"kMax": 8, "yPoints": 32, "yLength": 16 * math.pi, "dt": 1e-3, "T": T,
         "measureOrder": True},
    )
    env = run("evolve", config)
    grid = make_grid(config["kMax"], config["yPoints"], config["yLength"])
    f0 = cli._small_smooth_data(grid, config["amplitude"], config["etaWidth"])
    order_T, order_dt = cli._order_span(config)
    alone = evolution.observed_order(
        f0, DispersionParams(config["alpha"]), T=order_T, dt=order_dt,
        dealias=config["dealias"],
    )
    assert env["summary"]["observedOrder"] == alone


def test_evolve_with_order_skips_the_repeated_finest_solve(monkeypatch):
    # the benchmark's evolve step: 250 main steps plus 25 and 50 for the coarser
    # order solves; the finest order solve's 100 steps come from the main solve
    steps = []
    solve = evolution.evolve_nonlinear

    def counting(f, cfg, *args, **kwargs):
        steps.append(round(cfg.T / cfg.dt))
        return solve(f, cfg, *args, **kwargs)

    monkeypatch.setattr(cli, "evolve_nonlinear", counting)
    monkeypatch.setattr(evolution, "evolve_nonlinear", counting)
    run(
        "evolve",
        {"alpha": 2.0, "kMax": 32, "yPoints": 128, "yLength": 32 * math.pi,
         "dt": 1e-3, "T": 0.25, "amplitude": 0.01, "dealias": 2.0 / 3.0,
         "measureOrder": True},
    )
    assert sorted(steps) == [25, 50, 250]
    assert sum(steps) == 325


def test_evolve_checks_the_order_ladder_before_the_solve(monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("the solve started")

    monkeypatch.setattr(cli, "evolve_nonlinear", no_solve)
    # T is 30 steps of dt, but min(T, 0.1) = 0.09 is 7.5 steps of 4*dt
    config = {"kMax": 8, "yPoints": 32, "dt": 0.003, "T": 0.09, "measureOrder": True}
    with pytest.raises(InvalidSpecError) as err:
        run("evolve", config)
    assert [v.split(":")[0] for v in err.value.violations] == ["T"]
    assert "4*dt" in err.value.violations[0]
    # the same steps without the order measurement are a valid config
    assert cli._resolve("evolve", {**config, "measureOrder": False})["T"] == 0.09
    # the ladder is checked at min(T, 0.1): T = 0.25 with dt = 1e-3 measures over 0.1
    cli._resolve("evolve", {"dt": 1e-3, "T": 0.25, "measureOrder": True})


@pytest.mark.parametrize("config, messages", [
    # T = 0.05 is 10.67 steps of the t lattice's 0.6/128
    ({"tWindow": 0.3}, ["t lattice"]),
    # T = 0.051 is 81.6 steps of dt = 6.25e-4 and 16.32 of the lattice's 0.4/128
    ({"T": 0.051}, ["dt = ", "t lattice"]),
])
def test_picard_checks_its_cross_check_time_before_the_solve(monkeypatch, config, messages):
    def no_solve(*args, **kwargs):
        raise AssertionError("the solve started")

    monkeypatch.setattr(cli, "picard_solve", no_solve)
    with pytest.raises(InvalidSpecError) as err:
        run("picard", config)
    assert [v.split(":")[0] for v in err.value.violations] == ["T"] * len(messages)
    assert all(m in v for m, v in zip(messages, err.value.violations))
    # without the cross-check the Picard solve alone needs neither
    assert cli._resolve("picard", {**config, "crossCheck": False})["crossCheck"] is False


def test_unknown_subcommand():
    with pytest.raises(InvalidSpecError):
        run("frobnicate", {})


def _square(x):
    return {"v": x * x}


def _fail_on_three(x):
    if x == 3:
        raise ValueError("boom")
    return {"v": x}


def test_sweep_parallel_contract():
    pts = list(range(7))
    seq = sweep_parallel(pts, _square, workers=1)
    par = sweep_parallel(pts, _square, workers=3)
    assert seq == par == [{"v": x * x} for x in pts]
    assert sweep_parallel([], _square, workers=4) == []
    with pytest.raises(SweepWorkerError) as err:
        sweep_parallel(pts, _fail_on_three, workers=1)
    assert err.value.index == 3


def _fail_on_one_slowly_and_two_at_once(x):
    if x == 1:
        time.sleep(0.5)
    if x in (1, 2):
        raise ValueError(f"point {x}")
    return {"v": x}


def test_a_failing_sweep_reports_its_lowest_failing_point():
    # point 2 fails first in time; results are read in point order, so point 1
    # is reported at every worker count
    indices = []
    for workers in (1, 2):
        with pytest.raises(SweepWorkerError) as err:
            sweep_parallel(range(4), _fail_on_one_slowly_and_two_at_once, workers=workers)
        indices.append(err.value.index)
    assert indices == [1, 1]


def test_a_sweep_pool_has_at_most_one_process_per_point(monkeypatch):
    sizes = []

    class FakePool:
        """Records its size and maps in this process: no process is started."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
    assert sweep_parallel([1, 2, 3], _square, workers=64) == [{"v": 1}, {"v": 4}, {"v": 9}]
    assert sizes == [3]
    # one point maps in this process, with no pool
    assert sweep_parallel([5], _square, workers=64) == [{"v": 25}]
    assert sizes == [3]


def test_resonance_audit_run():
    env = run("resonance-audit", {"alphas": [2.0, 3.0], "kMax": 30})
    assert env["verdict"] == "bounded"
    assert env["summary"]["totalViolations"] == 0
    assert env["configEcho"]["kMax"] == 30
    assert env["configEcho"]["subcommand"] == "resonance-audit"
    assert len(env["rows"]) == 2
    env = run("resonance-audit", {"alphas": [2.0, 4.0], "kMax": 30, "identitySamples": 2000})
    assert env["verdict"] == "bounded"
    for row in env["rows"]:
        assert row["lowerBoundViolations"] == row["signDisagreements"] == 0
        assert 0.0 < row["maxResidual"] <= IDENTITY_TOL


@pytest.mark.parametrize("residual, lower, sign", [(0.5, 0, 0), (0.0, 7, 0), (0.0, 0, 3)])
def test_resonance_audit_fails_on_the_sampled_audit(monkeypatch, residual, lower, sign):
    # the exhaustive bound audit passes; only the sampled audit reports failures
    monkeypatch.setattr(cli, "resonance_sample_audit",
                        lambda params, n, seed: ResonanceSampleAudit(residual, lower, sign))
    env = run("resonance-audit", {"alphas": [2.0, 3.0], "kMax": 10, "identitySamples": 5})
    assert env["verdict"] == "estimate fails"
    assert env["summary"]["totalViolations"] == 2 * (lower + sign)
    for row in env["rows"]:
        assert row["violations"] == 0
        assert (row["maxResidual"], row["lowerBoundViolations"], row["signDisagreements"]) == (
            residual, lower, sign)
    # a residual at the audit's own tolerance still passes
    monkeypatch.setattr(cli, "resonance_sample_audit",
                        lambda params, n, seed: ResonanceSampleAudit(IDENTITY_TOL, 0, 0))
    assert run("resonance-audit", {"alphas": [2.0], "kMax": 10,
                                   "identitySamples": 5})["verdict"] == "bounded"


@pytest.mark.parametrize("samples", [0, 500])
def test_resonance_audit_gives_no_verdict_from_overflowed_arithmetic(tmp_path, capsys, samples):
    # phi0 overflows at alpha = 200, so every r is NaN: it read "bounded"
    # (or "estimate fails" with a NaN maxResidual) instead of failing
    config = {"alphas": [200.0], "kMax": 200, "identitySamples": samples}
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NonFiniteValueError):
        run("resonance-audit", config)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    with np.errstate(over="ignore", invalid="ignore"):
        assert main(["resonance-audit", "--config", str(path)]) == 1
    error = json.loads(capsys.readouterr().err.splitlines()[-1])
    assert error["error"] == "NonFiniteValueError"


def test_resonance_audit_overflow_is_an_error_not_a_warning():
    # the audit's own finiteness check reports the overflow; numpy's overflow
    # and invalid-value RuntimeWarnings from the same arithmetic are not raised
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteValueError):
            run("resonance-audit", {"alphas": [200.0], "kMax": 200})


@pytest.mark.parametrize("subcommand, alpha", [
    ("strichartz2d", 400.0), ("strichartz3d", 400.0),
    ("bilinear-ratio", 150.0), ("bilinear-ratio", 400.0),
])
def test_an_overflowed_phase_stops_a_ratio_sweep_with_one_error(tmp_path, subcommand, alpha):
    # |k|^alpha k, or the modulation tau - phi squared, overflows at N = 8 (at
    # alpha = 400 bilinear-ratio's product already at N = 1); the sweep used to
    # print numpy's RuntimeWarnings and then fail on a NaN value
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"alpha": alpha, "Ns": [1, 8], "seeds": [0]}))
    proc = _python(["-W", "default", "-m", "kplab.cli", subcommand, "--config", str(path)],
                   tmp_path, check=False)
    assert proc.returncode == 1
    assert "RuntimeWarning" not in proc.stderr
    [line] = proc.stderr.splitlines()
    error = json.loads(line)
    assert error["error"] == "SweepWorkerError"
    assert "NonFiniteValueError" in error["detail"]
    assert f"alpha = {alpha}" in error["detail"]


@pytest.mark.parametrize("subcommand, config", [
    ("evolve", {"kMax": 8, "yPoints": 16, "T": 0.01, "dt": 0.005}),
    ("picard", {"kMax": 4, "yPoints": 16, "tPoints": 16, "tWindow": 0.2, "T": 0.05,
                "iters": 2}),
    ("illposed-scaling", {"Ns": [16, 32, 64, 128], "etaQuadPoints": 32}),
])
def test_an_overflowed_alpha_stops_a_solver_or_the_derivative_sweep_with_one_error(
        tmp_path, subcommand, config):
    # at alpha = 400: evolve's |k|^alpha k overflows; picard's phase is finite
    # (about 1e241) but the ETDRK4 cross-check's (dt phi)^2 is not; the
    # derivative sweep's A is inf - inf. Each used to print numpy's
    # RuntimeWarnings and then fail on a NaN ("reduce dt", "not finite: nan")
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"alpha": 400.0, **config}))
    proc = _python(["-W", "default", "-m", "kplab.cli", subcommand, "--config", str(path)],
                   tmp_path, check=False)
    assert proc.returncode == 1
    assert "RuntimeWarning" not in proc.stderr
    [line] = proc.stderr.splitlines()
    error = json.loads(line)
    assert "NonFiniteValueError" in line  # the error, or the sweep point's cause
    assert "alpha = 400.0" in error["detail"]


def test_envelope_echo_contains_defaults():
    env = run("counterexample", {"Ns": [16, 32, 64, 128], "quadPoints": 48})
    assert env["configEcho"]["halfWidthExponent"] == 0.0  # default filled in
    assert env["verdict"] == "estimate fails"
    assert env["summary"]["routeAgreement"] <= 0.01


# every fitted subcommand, on a small config, with the summary keys it adds
# to the fit of its per-N envelope
FITTED_RUNS = [
    ("strichartz2d", {"Ns": [1, 8], "seeds": [0], "kinds": ["random", "comparable"]}, set()),
    ("strichartz3d", {"Ns": [1, 8], "seeds": [0, 1]}, set()),
    ("bilinear-ratio", {"Ns": [1, 8], "seeds": [0], "kinds": ["random", "comparable"]}, set()),
    ("counterexample", {"Ns": [8, 16, 64], "quadPoints": 16},
     {"predictedExponent", "routeAgreement"}),
    ("illposed-scaling", {"Ns": [8, 16, 32, 64], "etaQuadPoints": 32},
     {"restrictedExponent", "predictedExponent", "wNormExponent"}),
]


@pytest.mark.parametrize("subcommand, config, own_keys", FITTED_RUNS)
def test_every_fitted_summary_has_one_shape(subcommand, config, own_keys):
    env = run(subcommand, config)
    summary = env["summary"]
    assert set(summary) == {"fittedExponent", "residual", "perNMax"} | own_keys
    envelope = {}
    for row in env["rows"]:
        envelope[str(row["N"])] = max(row["value"], envelope.get(str(row["N"]), row["value"]))
    assert summary["perNMax"] == envelope
    if "seeds" in env["configEcho"]:  # an (N, kind, seed) sweep: a maximum over many rows
        assert len(env["rows"]) > len(envelope)
    else:  # one row per N, the only input its Ns rule admits
        assert len(env["rows"]) == len(envelope)


@pytest.mark.parametrize("subcommand", [entry[0] for entry in FITTED_RUNS])
def test_every_fitted_subcommand_rejects_a_repeated_N(subcommand):
    # the fit takes one value per N, so a repeated N would be computed again,
    # and weighted twice by illposed-scaling's fits over every row
    with pytest.raises(InvalidSpecError) as err:
        cli._resolve(subcommand, {"Ns": [16, 32, 32, 64, 128]})
    assert [v.split(":")[0] for v in err.value.violations] == ["Ns"]


@pytest.mark.parametrize("subcommand, config", [
    ("strichartz2d", {"Ns": [4, 8], "seeds": [0]}),
    ("illposed-scaling", {"Ns": [16, 17, 18, 19]}),
])
def test_ns_too_narrow_to_fit_are_rejected_before_the_run(monkeypatch, subcommand, config):
    # the fit needs N to span a factor of 8; no point may run before that is known
    monkeypatch.setattr(cli, "sweep_parallel", lambda *args: pytest.fail("the sweep ran"))
    with pytest.raises(InvalidSpecError) as err:
        run(subcommand, config)
    assert [v.split(":")[0] for v in err.value.violations] == ["Ns"]
    # the fit's own rule, and an N of 8 times the smallest passes both
    with pytest.raises(InsufficientSpanError):
        estimates.fit_exponent([(n, 1.0) for n in config["Ns"]])
    wide = config["Ns"] + [8 * min(config["Ns"])]
    cli._resolve(subcommand, {**config, "Ns": wide})
    estimates.fit_exponent([(n, 1.0) for n in wide])


def test_counterexample_and_illposed_fan_out_over_the_workers(monkeypatch):
    seen = []
    fan_out = cli.sweep_parallel

    def recording(points, worker, workers=1):
        seen.append((worker.__name__, len(points), workers))
        return fan_out(points, worker, workers)

    monkeypatch.setattr(cli, "sweep_parallel", recording)
    configs = {subcommand: config for subcommand, config, _ in FITTED_RUNS}
    serial = run("counterexample", configs["counterexample"])
    pooled = run("counterexample", configs["counterexample"], workers=2)
    assert pooled["rows"] == serial["rows"]
    run("illposed-scaling", configs["illposed-scaling"], workers=2)
    assert seen == [("counterexample_point", 3, 1), ("counterexample_point", 3, 2),
                    ("illposed_point", 4, 2)]


SMALL_SWEEP = {
    "Ns": [8, 64],
    "seeds": [0],
    "kinds": ["comparable"],
}


def test_csv_identical_across_runs_and_workers(tmp_path):
    outs = []
    for i, workers in enumerate((1, 2, 1)):
        out = tmp_path / f"run{i}"
        run("strichartz2d", SMALL_SWEEP, workers=workers, outdir=str(out))
        outs.append((out / "results.csv").read_bytes())
    assert outs[0] == outs[1] == outs[2]
    head = outs[0].decode().splitlines()
    assert head[0] == "N,kind,seed,value"
    assert len(head) == 3


def test_rows_echo_recompute_inputs():
    env = run("strichartz2d", SMALL_SWEEP)
    for row in env["rows"]:
        assert set(row) == {"N", "kind", "seed", "value"}
    # seeds echoed; recomputing one row in isolation reproduces its value
    from kplab.estimates import strichartz2d_point

    row = env["rows"][0]
    again = strichartz2d_point(
        {
            "alpha": env["configEcho"]["alpha"],
            "N": row["N"],
            "kind": row["kind"],
            "seed": row["seed"],
            "s1": env["configEcho"]["s1"],
            "s2": env["configEcho"]["s2"],
        }
    )
    assert again["value"] == row["value"]


def test_summary_json_written(tmp_path):
    out = tmp_path / "ce"
    run(
        "counterexample",
        {"Ns": [16, 32, 64, 128], "quadPoints": 48},
        outdir=str(out),
    )
    data = json.loads((out / "summary.json").read_text())
    assert data["verdict"] == "estimate fails"
    assert data["provenance"]["tool"] == "kplab"
    assert "rows" not in data
    csv_lines = (out / "results.csv").read_text().splitlines()
    assert csv_lines[0] == "N,halfWidth,lhs,lhsTauRoute,denominator,value"
    assert len(csv_lines) == 5


def test_rows_to_csv_float_formatting():
    text = rows_to_csv([{"a": 0.1, "b": 3}], ["a", "b"])
    assert text == "a,b\n0.1,3\n"


def test_rows_to_csv_writes_numpy_scalars_like_python_numbers():
    text = rows_to_csv([{"a": np.float64(0.1), "b": np.int64(3)}], ["a", "b"])
    assert text == "a,b\n0.1,3\n"


def test_an_unusable_output_path_fails_before_the_run(tmp_path, monkeypatch):
    not_a_dir = tmp_path / "results"
    not_a_dir.write_text("")
    monkeypatch.setattr(estimates, "strichartz2d_point", lambda p: pytest.fail("a point ran"))
    with pytest.raises(OSError):
        run("strichartz2d", {"Ns": [1, 8], "seeds": [0], "kinds": ["random"]},
            outdir=str(not_a_dir))


def test_main_reports_an_unusable_output_path_as_json(tmp_path, capsys):
    not_a_dir = tmp_path / "results"
    not_a_dir.write_text("")
    assert main(["resonance-audit", "--out", str(not_a_dir)]) == 1
    error = json.loads(capsys.readouterr().err.splitlines()[-1])
    assert error["error"] == "FileExistsError"


def test_main_exit_codes(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"Ns": [16, 32, 64, 128], "quadPoints": 48}))
    # verdict 'estimate fails' + expectation fails -> 0
    assert main(["counterexample", "--config", str(cfg), "--expect", "fails"]) == 0
    # expectation bounded -> 2
    assert main(["counterexample", "--config", str(cfg), "--expect", "bounded"]) == 2
    # malformed config -> 1
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"yPoints": 100}))
    assert main(["evolve", "--config", str(bad)]) == 1
    missing = tmp_path / "nope.json"
    assert main(["evolve", "--config", str(missing)]) == 1


def test_illposed_expectation_exit_code(tmp_path):
    cfg = tmp_path / "ip.json"
    cfg.write_text(
        json.dumps({"s": -0.75, "Ns": [16, 32, 64, 128], "etaQuadPoints": 32})
    )
    # verdict 'C3 fails' matches the declared expectation -> success
    assert main(["illposed-scaling", "--config", str(cfg), "--expect", "fails"]) == 0
    assert main(["illposed-scaling", "--config", str(cfg), "--expect", "bounded"]) == 2


# at alpha = 8 the float resonance arithmetic cancels, and the envelope is no
# power law (fitted exponent -4.86 against a predicted +0.5, RMS residual 1.646)
NOT_A_POWER_LAW = {"alpha": 8.0, "s": -3.5, "Ns": [16, 33, 65, 130], "etaQuadPoints": 32}


def test_a_fit_that_is_not_a_power_law_is_inconclusive(tmp_path, capsys):
    env = run("illposed-scaling", NOT_A_POWER_LAW)
    assert env["summary"]["residual"] > estimates.MAX_RESIDUAL
    assert env["verdict"] == "inconclusive"
    cfg = tmp_path / "ip.json"
    cfg.write_text(json.dumps(NOT_A_POWER_LAW))
    # the result line is printed, and the exit code is 3 with or without --expect
    for expect in ([], ["--expect", "fails"], ["--expect", "bounded"]):
        assert main(["illposed-scaling", "--config", str(cfg), *expect]) == 3
        assert json.loads(capsys.readouterr().out)["verdict"] == "inconclusive"


@pytest.mark.parametrize("expect", ["bounded", "fails"])
def test_expect_without_a_verdict_is_an_error(tmp_path, capsys, expect):
    # picard gives no verdict, so a declared expectation cannot be checked
    cfg = tmp_path / "pc.json"
    cfg.write_text(json.dumps(
        {"kMax": 4, "yPoints": 16, "yLength": 8 * math.pi, "tPoints": 16,
         "tWindow": 0.2, "T": 0.05, "iters": 2, "crossCheck": False}
    ))
    assert main(["picard", "--config", str(cfg), "--expect", expect]) == 1
    error = json.loads(capsys.readouterr().err)
    assert error["error"] == "expectation-uncheckable"
    assert expect in error["detail"]


def test_evolve_and_picard_runners(tmp_path):
    out = tmp_path / "ev"
    env = run(
        "evolve",
        {"kMax": 8, "yPoints": 32, "yLength": 16 * math.pi, "dt": 1e-3, "T": 0.02,
         "saveFields": True},
        outdir=str(out),
    )
    assert env["summary"]["finalDrift"] < 1e-10
    assert (out / "fields" / "final.bin").exists()
    progress = (out / "progress.jsonl").read_text().splitlines()
    assert len(progress) == len(env["rows"])
    assert json.loads(progress[0])["t"] == 0.0

    env = run(
        "picard",
        {"kMax": 8, "yPoints": 32, "yLength": 16 * math.pi, "tPoints": 64,
         "tWindow": 0.2, "T": 0.05, "iters": 5, "dt": 1.25e-3},
    )
    ratios = env["summary"]["contractionRatios"]
    assert ratios and all(r < 1 for r in ratios)
    assert env["summary"]["crossCheckRelDiff"] < 1e-6
    assert env["verdict"] is None


def test_save_fields_without_an_output_directory_is_rejected_before_the_solve(
        tmp_path, capsys, monkeypatch):
    # the fields have nowhere to go, so the run is refused instead of dropping them
    monkeypatch.setattr(cli, "evolve_nonlinear", lambda *a, **k: pytest.fail("a solve ran"))
    config = {"kMax": 4, "yPoints": 16, "T": 0.01, "dt": 0.005, "saveFields": True}
    with pytest.raises(InvalidSpecError) as err:
        run("evolve", config)
    assert [v.split(":")[0] for v in err.value.violations] == ["saveFields"]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert main(["evolve", "--config", str(cfg)]) == 1
    assert json.loads(capsys.readouterr().err)["error"] == "config-invalid"


# a small config of every subcommand
SMALL_RUNS = {
    **{subcommand: config for subcommand, config, _ in FITTED_RUNS},
    "evolve": {"kMax": 4, "yPoints": 16, "T": 0.01, "dt": 0.005},
    "picard": {"kMax": 4, "yPoints": 16, "yLength": 8 * math.pi, "tPoints": 16,
               "tWindow": 0.2, "T": 0.05, "iters": 2, "crossCheck": False},
    "resonance-audit": {"alphas": [2.0, 3.0], "kMax": 10},
}


@pytest.mark.parametrize("subcommand", SUBCOMMANDS)
def test_the_rows_name_the_results_csv_columns(tmp_path, subcommand):
    env = run(subcommand, SMALL_RUNS[subcommand], outdir=str(tmp_path))
    keys = list(env["rows"][0])
    assert all(list(row) == keys for row in env["rows"])
    lines = (tmp_path / "results.csv").read_text().splitlines()
    assert lines[0] == ",".join(keys)
    assert len(lines) == len(env["rows"]) + 1
    assert json.loads((tmp_path / "summary.json").read_text())["columns"] == keys
