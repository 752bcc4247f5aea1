"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report lines and timings.  Every tolerance is pinned here; nothing is
deferred to later calibration.
"""

import math
import time

import numpy as np

from kplab import cli
from kplab.evolution import (
    SolveConfig,
    evolve_nonlinear,
    free_evolve,
    observed_order,
)
from kplab.fields import (
    BandSpec,
    NormSpec,
    bourgain_norm,
    make_grid,
    mixed_norm,
    random_field,
    sobolev_norm,
    st_random_field,
    to_physical,
    to_spectral,
)
from kplab.symbols import (
    DispersionParams,
    resonance_bounds_audit,
    resonance_sample_audit,
)
from lattice_helpers import smooth_data

ALPHAS = (2.0, 2.5, 3.0, 4.0)


def report(num, name, ok, detail, elapsed, budget):
    status = "PASS" if ok else "FAIL"
    print(
        f"criterion {num:02d} [{status}] {name}: {detail} "
        f"({elapsed:.1f}s / budget {budget:.0f}s)"
    )
    assert ok, f"criterion {num}: {detail}"
    assert elapsed < budget, f"criterion {num} exceeded runtime budget: {elapsed:.1f}s"


def test_criterion_01_resonance_bound_audit():
    t0 = time.time()
    worst = 0
    checked = 0
    for alpha in ALPHAS:
        audit = resonance_bounds_audit(DispersionParams(alpha), 200)
        worst += len(audit.violations)
        checked += audit.checked
    report(
        1,
        "resonance bound audit",
        worst == 0,
        f"{checked} pairs over alpha in {ALPHAS}, {worst} violations",
        time.time() - t0,
        5.0,
    )


def test_criterion_02_resonance_identity_and_lower_bound():
    t0 = time.time()
    worst_res = 0.0
    lb = 0
    signs = 0
    for alpha in ALPHAS:
        audit = resonance_sample_audit(
            DispersionParams(alpha), 100_000, seed=2024
        )
        worst_res = max(worst_res, audit.max_rel_residual)
        lb += audit.lower_bound_violations
        signs += audit.sign_disagreements
    ok = worst_res <= 1e-9 and lb == 0 and signs == 0
    report(
        2,
        "resonance identity + lower bound",
        ok,
        f"4x1e5 samples, max residual {worst_res:.2e}, "
        f"{lb} bound / {signs} sign violations",
        time.time() - t0,
        5.0,
    )


def test_criterion_03_plancherel_unitarity_group_law():
    t0 = time.time()
    worst = 0.0

    g = make_grid(12, 64, 16 * math.pi, tPoints=32, tWindow=2.0)
    p = DispersionParams(2.0)
    f = random_field(g, BandSpec(1, 10, 1.9), seed=31)
    u = to_physical(f)
    worst = max(worst, float(np.max(np.abs(to_spectral(u, g).coeffs - f.coeffs))))
    phys = (2 * math.pi / g.nx) * g.dy * np.sum(np.abs(u) ** 2)
    worst = max(worst, abs(phys - f.l2_norm() ** 2) / f.l2_norm() ** 2)
    worst = max(worst, abs(sobolev_norm(f, 0, 0) - f.l2_norm()) / f.l2_norm())

    g3 = make_grid(6, 16, 8 * math.pi, yDims=2, tPoints=16, tWindow=2.0)
    p3 = DispersionParams(2.5)
    f3 = random_field(g3, BandSpec(1, 5, 1.5), seed=32)
    u3 = to_physical(f3)
    worst = max(worst, float(np.max(np.abs(to_spectral(u3, g3).coeffs - f3.coeffs))))
    phys3 = (2 * math.pi / g3.nx) * g3.dy**2 * np.sum(np.abs(u3) ** 2)
    worst = max(worst, abs(phys3 - f3.l2_norm() ** 2) / f3.l2_norm() ** 2)
    # the same pair takes a SpaceTimeBox, at yDims 2 as at 1
    F3 = st_random_field(g3, BandSpec(1, 5, 1.5), seed=34)
    s3 = to_physical(F3)
    worst = max(worst, float(np.max(np.abs(to_spectral(s3, g3).whole() - F3.whole()))))
    phys3 = g3.dt * (2 * math.pi / g3.nx) * g3.dy**2 * np.sum(np.abs(s3) ** 2)
    worst = max(worst, abs(phys3 - F3.l2_norm() ** 2) / F3.l2_norm() ** 2)

    F = st_random_field(g, BandSpec(1, 10, 1.9), seed=33)
    s = to_physical(F)
    worst = max(worst, float(np.max(np.abs(to_spectral(s, g).whole() - F.whole()))))
    phys = g.dt * (2 * math.pi / g.nx) * g.dy * np.sum(np.abs(s) ** 2)
    worst = max(worst, abs(phys - F.l2_norm() ** 2) / F.l2_norm() ** 2)
    worst = max(
        worst,
        abs(bourgain_norm(F, NormSpec(flavor="x"), p) - F.l2_norm()) / F.l2_norm(),
    )
    worst = max(
        worst, abs(mixed_norm(F, 2, 2, 2) - F.l2_norm()) / F.l2_norm()
    )

    worst = max(
        worst,
        float(np.max(np.abs(free_evolve(f, 0.0, p).coeffs - f.coeffs))),
    )
    for t in (0.4, -1.3):
        worst = max(worst, abs(free_evolve(f, t, p).l2_norm() - f.l2_norm()) / f.l2_norm())
    ab = free_evolve(free_evolve(f, 0.7, p), 0.6, p)
    worst = max(
        worst,
        float(np.max(np.abs(ab.coeffs - free_evolve(f, 1.3, p).coeffs)))
        / float(np.max(np.abs(f.coeffs))),
    )
    for t3 in (0.5,):
        worst = max(
            worst,
            abs(free_evolve(f3, t3, p3).l2_norm() - f3.l2_norm()) / f3.l2_norm(),
        )

    report(
        3,
        "Plancherel/unitarity/group-law suite",
        worst <= 1e-10,
        f"worst deviation {worst:.2e}",
        time.time() - t0,
        10.0,
    )


def test_criterion_04_l2_conservation_and_order():
    t0 = time.time()
    p = DispersionParams(2.0)
    grid = make_grid(32, 128, 32 * math.pi)
    f0 = smooth_data(grid, 0.01)
    traj = evolve_nonlinear(f0, SolveConfig(dt=1e-3, T=1.0), p)
    drift = float(max(traj.l2_drift))

    rich = smooth_data(grid, 0.5, modes=((1, 1.0), (2, 0.6)))
    order = observed_order(rich, p, T=0.1, dt=4e-3)
    ok = drift <= 1e-8 and order >= 3.5
    report(
        4,
        "nonlinear solver L2 conservation",
        ok,
        f"relative drift {drift:.2e} over T=1 at dt=1e-3, observed order {order:.2f}",
        time.time() - t0,
        60.0,
    )


def test_criterion_05_picard_duhamel_cross_validation():
    t0 = time.time()
    env = cli.run("picard", {
        "alpha": 2.0, "kMax": 10, "yPoints": 64, "yLength": 16 * math.pi,
        "dt": 6.25e-4, "T": 0.05, "amplitude": 0.01, "etaWidth": 1.0,
        "tPoints": 128, "tWindow": 0.2, "iters": 8, "crossCheck": True,
    })
    rel = env["summary"]["crossCheckRelDiff"]
    diff = env["summary"]["crossCheckL2Diff"]
    diffs = [row["diffNorm"] for row in env["rows"]]
    geometric = all(
        diffs[i + 1] < diffs[i] for i in range(len(diffs) - 1) if diffs[i] > 0
    )
    ok = rel <= 1e-6 and geometric
    report(
        5,
        "Picard vs exponential integrator",
        ok,
        f"relative L2 difference {rel:.2e} at t=0.05 (abs {diff:.2e}), "
        f"differences decay geometrically: {geometric}",
        time.time() - t0,
        60.0,
    )


def test_criterion_06_cutoff_bilinear_estimate_boundedness():
    t0 = time.time()
    env = cli.run("strichartz2d", {
        "alpha": 2.0, "Ns": [8, 16, 32, 64, 128], "seeds": [0, 1, 2, 3, 4],
        "s1": 0.25, "s2": 0.0,
        "kinds": ["random", "comparable", "high-high-to-low", "low-high"],
    })
    slope = env["summary"]["fittedExponent"]
    ok = -0.15 <= slope <= 0.1
    report(
        6,
        "time-cutoff bilinear estimate boundedness (2d)",
        ok,
        f"per-N max slope {slope:+.4f} over N=8..128, "
        f"{len(env['rows'])} samples, residual {env['summary']['residual']:.3f}",
        time.time() - t0,
        300.0,
    )


def test_criterion_07_global_bilinear_estimate_3d():
    t0 = time.time()
    env = cli.run("strichartz3d", {
        "alpha": 2.0, "Ns": [4, 8, 16, 32], "seeds": [0, 1, 2], "s1": 0.6, "s2": 0.6,
    })
    slope = env["summary"]["fittedExponent"]
    ok = slope <= 0.1
    report(
        7,
        "global bilinear estimate boundedness (3d)",
        ok,
        f"per-N max slope {slope:+.4f} over N=4..32",
        time.time() - t0,
        300.0,
    )


def test_criterion_08_global_estimate_failure_2d():
    t0 = time.time()
    const, shrink = (
        cli.run("counterexample", {
            "Ns": [16, 32, 64, 128, 256], "s": 0.0, "halfWidthExponent": a, "quadPoints": 96,
        })
        for a in (0.0, -1.0)
    )
    agreement = max(const["summary"]["routeAgreement"], shrink["summary"]["routeAgreement"])
    ok = (
        abs(const["summary"]["fittedExponent"] - 0.5) <= 0.15
        and abs(shrink["summary"]["fittedExponent"] - 1.0) <= 0.15
        and const["verdict"] == "estimate fails"
        and shrink["verdict"] == "estimate fails"
        and agreement <= 0.01
    )
    report(
        8,
        "failure of the global 2d estimate",
        ok,
        f"|I|=1 slope {const['summary']['fittedExponent']:.4f} (predicted 0.5), "
        f"|I|=1/N slope {shrink['summary']['fittedExponent']:.4f} (predicted 1.0), "
        f"two-route agreement {agreement:.2e}",
        time.time() - t0,
        120.0,
    )


def test_criterion_09_flow_derivative_scaling():
    t0 = time.time()
    results = {}
    for alpha, s in ((2.0, 0.0), (2.0, -0.75), (3.0, -0.5)):
        results[(alpha, s)] = cli.run("illposed-scaling", {
            "alpha": alpha, "s": s, "Ns": [16, 32, 64, 128],
            "betaInterval": 0.05, "t": 0.1, "etaQuadPoints": 64,
        })
    checks = []
    for (alpha, s), env in results.items():
        predicted = 1.5 - alpha - 2 * s
        checks.append(abs(env["summary"]["fittedExponent"] - predicted) <= 0.2)
        below_threshold = s < 0.75 - alpha / 2
        checks.append((env["verdict"] == "C3 fails") == below_threshold)
        checks.append(abs(env["summary"]["wNormExponent"] - (s + 0.25)) <= 0.05)
    ok = all(checks)
    detail = "; ".join(
        f"(a={a},s={s}): slope {env['summary']['fittedExponent']:+.3f} "
        f"vs {1.5 - a - 2 * s:+.2f}, {env['verdict']}"
        for (a, s), env in results.items()
    )
    report(9, "third-derivative scaling + verdict flip", ok, detail,
           time.time() - t0, 600.0)


def test_criterion_10_bourgain_bilinear_spot_checks():
    t0 = time.time()
    slopes = {}
    for label, params in (
        ("alpha=3 weighted", {"alpha": 3.0, "s1": 0.2, "s2": 0.0, "b": 0.55,
                              "bPrime": -0.45, "beta": 0.4,
                              "lhsFlavor": "xweighted", "rhsFlavor": "xweighted"}),
        ("alpha=3 plain", {"alpha": 3.0, "s1": -0.6, "s2": 0.0, "b": 0.55,
                           "bPrime": -0.45, "beta": 0.0,
                           "lhsFlavor": "x", "rhsFlavor": "x"}),
    ):
        env = cli.run("bilinear-ratio", {
            **params, "Ns": [8, 16, 32, 64], "seeds": [0, 1],
            "kinds": ["random", "comparable", "high-high-to-low"],
        })
        slopes[label] = env["summary"]["fittedExponent"]
    ok = all(v <= 0.1 for v in slopes.values())
    report(
        10,
        "Bourgain-norm bilinear spot checks",
        ok,
        ", ".join(f"{k}: slope {v:+.3f}" for k, v in slopes.items()),
        time.time() - t0,
        600.0,
    )


def test_criterion_11_determinism_across_workers(tmp_path):
    t0 = time.time()
    cfg = {"Ns": [8, 64], "seeds": [0], "kinds": ["comparable"]}
    blobs = []
    for i, workers in enumerate((1, 2, 1)):
        out = tmp_path / f"d{i}"
        cli.run("strichartz2d", cfg, workers=workers, outdir=str(out))
        blobs.append((out / "results.csv").read_bytes())
    # counterexample and illposed-scaling fan their N out through the same
    # point runner: each pair holds a serial run against a pooled one
    for name, subcommand, config in (
        ("c", "counterexample", {"Ns": [16, 32, 64, 128], "quadPoints": 48}),
        ("i", "illposed-scaling", {"s": -0.75, "Ns": [16, 32, 64, 128], "etaQuadPoints": 32}),
    ):
        for workers in (1, 2):
            out = tmp_path / f"{name}{workers}"
            cli.run(subcommand, config, workers=workers, outdir=str(out))
            blobs.append((out / "results.csv").read_bytes())
    ok = blobs[0] == blobs[1] == blobs[2] and blobs[3] == blobs[4] and blobs[5] == blobs[6]
    report(
        11,
        "bit-identical CSV across runs and worker counts",
        ok,
        f"{len(blobs)} artifacts compared",
        time.time() - t0,
        120.0,
    )
