"""Experiment orchestration: config parsing, dispatch, sweeps, result emission.

Each subcommand resolves a JSON config against its defaults, validates every
field up front (reporting the complete violation list), fans the sweep points
out over a worker pool, and writes two artifacts into the output directory:

    results.csv   one row per sample, fixed column order, repr-formatted
                  floats (bit-identical across runs and worker counts)
    summary.json  fit/verdict/diagnostics plus the fully resolved config echo
                  and provenance (tool version, timestamp, seeds)

Exit codes: 0 on success (and when a declared expectation matches the
verdict), 2 when the verdict contradicts --expect, 1 on any error.
"""

import argparse
import concurrent.futures
import datetime
import functools
import json
import math
import os
import sys

import numpy as np

from . import __version__, estimates, evolution, illposed
from .errors import InvalidSpecError, KPLabError, SweepWorkerError
from .estimates import envelope_fit, grows
from .evolution import CutoffSpec, SolveConfig, evolve_nonlinear, observed_order, picard_solve
from .fields import SpectralField, make_grid, save_field
from .symbols import DispersionParams, resonance_bounds_audit, resonance_sample_audit

SUBCOMMANDS = (
    "evolve",
    "picard",
    "strichartz2d",
    "strichartz3d",
    "counterexample",
    "bilinear-ratio",
    "illposed-scaling",
    "resonance-audit",
)

_DEFAULTS = {
    "resonance-audit": {
        "alphas": [2.0, 2.5, 3.0, 4.0],
        "kMax": 200,
        "identitySamples": 0,
    },
    "evolve": {
        "alpha": 2.0,
        "kMax": 32,
        "yPoints": 128,
        "yLength": 32 * math.pi,
        "dt": 1e-3,
        "T": 1.0,
        "amplitude": 0.01,
        "etaWidth": 1.0,
        "dealias": 2.0 / 3.0,
        "measureOrder": False,
        "saveFields": False,
    },
    "picard": {
        "alpha": 2.0,
        "kMax": 10,
        "yPoints": 64,
        "yLength": 16 * math.pi,
        "tPoints": 128,
        "tWindow": 0.2,
        "T": 0.05,
        "iters": 8,
        "amplitude": 0.01,
        "etaWidth": 1.0,
        "crossCheck": True,
        "dt": 6.25e-4,
    },
    "strichartz2d": {
        "alpha": 2.0,
        "Ns": [8, 16, 32, 64, 128],
        "seeds": [0, 1, 2, 3, 4],
        "s1": 0.25,
        "s2": 0.0,
        "kinds": list(estimates.STRICHARTZ2D_KINDS),
    },
    "strichartz3d": {
        "alpha": 2.0,
        "Ns": [4, 8, 16, 32],
        "seeds": [0, 1, 2],
        "s1": 0.6,
        "s2": 0.6,
    },
    "counterexample": {
        "alpha": 2.0,
        "Ns": [16, 32, 64, 128, 256],
        "s": 0.0,
        "halfWidthExponent": 0.0,
        "quadPoints": 96,
    },
    "bilinear-ratio": {
        "alpha": 3.0,
        "Ns": [8, 16, 32, 64],
        "seeds": [0, 1, 2],
        "s1": 0.2,
        "s2": 0.0,
        "b": 0.55,
        "bPrime": -0.45,
        "beta": 0.4,
        "lhsFlavor": "xweighted",
        "rhsFlavor": "xweighted",
        "kinds": list(estimates.BILINEAR_KINDS),
    },
    "illposed-scaling": {
        "alpha": 2.0,
        "s": -0.75,
        "Ns": [16, 32, 64, 128],
        "betaInterval": 0.05,
        "t": 0.1,
        "etaQuadPoints": 64,
    },
}

# the ensembles a sweep may ask for; no other subcommand takes `kinds`
_KINDS = {
    "strichartz2d": estimates.STRICHARTZ2D_KINDS,
    "bilinear-ratio": estimates.BILINEAR_KINDS,
}

_SWEEP_COLUMNS = ["N", "kind", "seed", "value"]

_COLUMNS = {
    "resonance-audit": ["alpha", "kMax", "checked", "violations", "maxResidual"],
    "evolve": ["t", "l2RelDrift"],
    "picard": ["iteration", "diffNorm"],
    "strichartz2d": _SWEEP_COLUMNS,
    "strichartz3d": _SWEEP_COLUMNS,
    "counterexample": ["N", "halfWidth", "lhs", "lhsTauRoute", "denominator", "value"],
    "bilinear-ratio": _SWEEP_COLUMNS,
    "illposed-scaling": ["N", "thirdNorm", "restrictedNorm", "wNorm", "value"],
}


def _validate(subcommand, cfg):
    problems = []

    def need(key, kinds, pred=None, what=""):
        if key not in cfg:
            problems.append(f"{key}: missing")
            return
        v = cfg[key]
        if not isinstance(v, kinds):
            problems.append(f"{key}: expected {what or kinds}, got {v!r}")
            return
        if pred is not None and not pred(v):
            problems.append(f"{key}: invalid value {v!r} {what}")

    num = (int, float)
    if "alpha" in cfg or subcommand != "resonance-audit":
        need("alpha", num, lambda v: v >= 2, "(alpha >= 2)")
    if subcommand == "resonance-audit":
        need("alphas", list, lambda v: all(isinstance(a, num) and a >= 2 for a in v))
        need("kMax", int, lambda v: v >= 2, "(kMax >= 2)")
    if subcommand in ("evolve", "picard"):
        need("kMax", int, lambda v: v >= 1)
        need(
            "yPoints",
            int,
            lambda v: v >= 8 and (v & (v - 1)) == 0,
            "(power of two >= 8)",
        )
        need("yLength", num, lambda v: v > 0)
        need("amplitude", num, lambda v: v > 0)
        need("T", num, lambda v: v > 0)
        need("dt", num, lambda v: 0 < v <= cfg.get("T", float("inf")))
    if subcommand == "picard":
        need("iters", int, lambda v: v >= 1)
        need("tPoints", int, lambda v: v >= 8 and (v & (v - 1)) == 0)
        need("tWindow", num, lambda v: v > 0)
        T, window = cfg.get("T"), cfg.get("tWindow")
        if isinstance(T, num) and isinstance(window, num) and 2 * T > window:
            problems.append("T: cutoff support 2T exceeds tWindow")
    if subcommand in ("strichartz2d", "strichartz3d", "bilinear-ratio"):
        need("Ns", list, lambda v: v and all(isinstance(n, int) and n >= 1 for n in v))
        need("seeds", list, lambda v: v and all(isinstance(s, int) for s in v))
    if subcommand == "counterexample":
        need("Ns", list, lambda v: len(v) >= 3 and all(isinstance(n, int) and n >= 8 for n in v))
        need("s", num)
        need("halfWidthExponent", num)
        need("quadPoints", int, lambda v: v >= 16)
    if subcommand == "bilinear-ratio":
        for key in ("s1", "s2", "b", "bPrime"):
            need(key, num)
        need("beta", num, lambda v: v >= 0)
        need("lhsFlavor", str, lambda v: v in ("x", "xweighted", "z"))
        need("rhsFlavor", str, lambda v: v in ("x", "xweighted"))
    if subcommand in ("strichartz2d", "strichartz3d"):
        need("s1", num, lambda v: v >= 0)
        need("s2", num, lambda v: v >= 0)
    if subcommand == "illposed-scaling":
        need("Ns", list, lambda v: len(v) >= 4 and all(isinstance(n, int) and n >= 8 for n in v))
        need("s", num)
        need("betaInterval", num, lambda v: 0 < v <= 0.1)
        need("t", num, lambda v: v != 0)
        need("etaQuadPoints", int, lambda v: v >= 32 and v % 2 == 0)
    if "kinds" in cfg:
        known = _KINDS.get(subcommand)
        if known is None:
            problems.append(f"kinds: {subcommand} takes no kinds")
        else:
            need("kinds", list, lambda v: v and all(k in known for k in v), f"(from {known})")
    if problems:
        raise InvalidSpecError(problems)


def sweep_parallel(points, worker, workers=1):
    """Run a pure worker over points; results ordered by point index.

    With workers > 1 the points fan out over a process pool; the reduce is by
    index so output is identical to sequential execution.  The first worker
    failure aborts the sweep and is reported with its point index.
    """
    points = list(points)
    if not points:
        return []
    if workers <= 1:
        results = []
        for i, p in enumerate(points):
            try:
                results.append(worker(p))
            except Exception as exc:  # noqa: BLE001 - reported with index
                raise SweepWorkerError(i, exc) from exc
        return results
    results = [None] * len(points)
    with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
        futures = {pool.submit(worker, p): i for i, p in enumerate(points)}
        for fut in concurrent.futures.as_completed(futures):
            i = futures[fut]
            try:
                results[i] = fut.result()
            except Exception as exc:  # noqa: BLE001
                for other in futures:
                    other.cancel()
                raise SweepWorkerError(i, exc) from exc
    return results


# ---------------------------------------------------------------------------
# subcommand runners


def _small_smooth_data(grid, amplitude, eta_width):
    """amplitude * cos(x) times a smooth transverse bump, spectrally exact."""
    c = np.zeros(grid.spatial_shape, dtype=complex)
    # the decaying flank of the cutoff bump: exp(1 - 1/(1 - x^2)) on |x| < 1
    prof = evolution.bump(1.0 + np.abs(grid.eta_axis()) / eta_width)
    prof[grid.yPoints // 2] = 0.0
    kaxis = grid.k_axis()
    c[kaxis == 1] = 0.5 * amplitude * prof / grid.deta / (2.0 * math.pi)
    c[kaxis == -1] = 0.5 * amplitude * prof / grid.deta / (2.0 * math.pi)
    return SpectralField(grid, c)


def _run_resonance_audit(cfg, workers, outdir):
    rows = []
    for alpha in cfg["alphas"]:
        params = DispersionParams(float(alpha), 1)
        audit = resonance_bounds_audit(params, cfg["kMax"])
        max_res = 0.0
        if cfg["identitySamples"]:
            sample = resonance_sample_audit(
                params, cfg["identitySamples"], seed=cfg["baseSeed"]
            )
            max_res = sample.max_rel_residual
        rows.append(
            {
                "alpha": float(alpha),
                "kMax": cfg["kMax"],
                "checked": audit.checked,
                "violations": len(audit.violations),
                "maxResidual": max_res,
            }
        )
    total = sum(r["violations"] for r in rows)
    summary = {"totalViolations": total}
    return rows, summary, ("bounded" if total == 0 else "estimate fails")


def _run_evolve(cfg, workers, outdir):
    params = DispersionParams(cfg["alpha"], 1)
    grid = make_grid(cfg["kMax"], cfg["yPoints"], cfg["yLength"])
    f0 = _small_smooth_data(grid, cfg["amplitude"], cfg["etaWidth"])
    solve = SolveConfig(dt=cfg["dt"], T=cfg["T"], dealias=cfg["dealias"])
    traj = evolve_nonlinear(f0, solve, params)
    rows = [
        {"t": float(t), "l2RelDrift": float(d)}
        for t, d in zip(traj.times, traj.l2_drift)
    ]
    summary = {"finalDrift": float(traj.l2_drift[-1])}
    if cfg["measureOrder"]:
        summary["observedOrder"] = observed_order(
            f0, params, T=min(cfg["T"], 0.1), dt=4 * cfg["dt"]
        )
    if outdir:
        os.makedirs(outdir, exist_ok=True)
        with open(os.path.join(outdir, "progress.jsonl"), "w", encoding="utf-8") as fh:
            for row in rows:
                fh.write(json.dumps(row) + "\n")
    if cfg["saveFields"] and outdir:
        fdir = os.path.join(outdir, "fields")
        os.makedirs(fdir, exist_ok=True)
        save_field(os.path.join(fdir, "initial.bin"), traj.snapshots[0])
        save_field(os.path.join(fdir, "final.bin"), traj.final)
    return rows, summary, None


def _run_picard(cfg, workers, outdir):
    params = DispersionParams(cfg["alpha"], 1)
    grid = make_grid(
        cfg["kMax"],
        cfg["yPoints"],
        cfg["yLength"],
        tPoints=cfg["tPoints"],
        tWindow=cfg["tWindow"],
    )
    f0 = _small_smooth_data(grid, cfg["amplitude"], cfg["etaWidth"])
    result = picard_solve(f0, CutoffSpec(T=cfg["T"]), cfg["iters"], params)
    rows = [
        {"iteration": i + 1, "diffNorm": float(d)}
        for i, d in enumerate(result.diff_norms)
    ]
    ratios = [
        result.diff_norms[i + 1] / result.diff_norms[i]
        for i in range(len(result.diff_norms) - 1)
        if result.diff_norms[i] > 0
    ]
    summary = {"contractionRatios": ratios}
    if cfg["crossCheck"]:
        solve = SolveConfig(dt=cfg["dt"], T=cfg["T"])
        traj = evolve_nonlinear(f0, solve, params, save_every=10**9)
        pic = result.at_time(cfg["T"])
        diff = math.sqrt(
            grid.xy_measure
            * float(np.sum(np.abs(pic.coeffs - traj.final.coeffs) ** 2))
        )
        rel = diff / traj.final.l2_norm()
        summary["crossCheckL2Diff"] = diff
        summary["crossCheckRelDiff"] = rel
    return rows, summary, None


def _run_sweep(point_name, cfg, workers, outdir):
    """A ratio sweep over (N, kind, seed) points, fitted by its per-N envelope."""
    kinds = cfg.get("kinds", ["random"])
    # rows come back in this (N, kind, seed) order for any worker count
    points = [
        {**cfg, "N": int(n), "kind": kind, "seed": int(seed) + cfg["baseSeed"]}
        for n in cfg["Ns"]
        for kind in kinds
        for seed in cfg["seeds"]
    ]
    # looked up at call time, so that a wrapper installed on the module runs
    rows = sweep_parallel(points, getattr(estimates, point_name), workers)
    fit = envelope_fit(rows)
    summary = {
        "fittedExponent": fit.exponent,
        "residual": fit.residual,
        "perNMax": {str(s.N): s.value for s in fit.samples},
    }
    verdict = "estimate fails" if grows(fit.exponent) else "bounded"
    return [{k: r[k] for k in _SWEEP_COLUMNS} for r in rows], summary, verdict


def _run_counterexample(cfg, workers, outdir):
    params = DispersionParams(cfg["alpha"], 1)
    report = estimates.counterexample_verdict(
        cfg["Ns"], cfg["s"], cfg["halfWidthExponent"], params, cfg["quadPoints"]
    )
    summary = {
        "fittedExponent": report.fit.exponent,
        "predictedExponent": report.predicted_exponent,
        "residual": report.fit.residual,
        "routeAgreement": report.route_agreement,
    }
    return list(report.rows), summary, report.verdict


def _run_illposed(cfg, workers, outdir):
    params = DispersionParams(cfg["alpha"], 1)
    report = illposed.illposed_scaling(
        cfg["Ns"],
        params,
        s=cfg["s"],
        betaInterval=cfg["betaInterval"],
        t=cfg["t"],
        etaQuadPoints=cfg["etaQuadPoints"],
    )
    rows = []
    for (n, rep, wn), sample in zip(report.samples, report.fit.samples):
        rows.append(
            {
                "N": n,
                "thirdNorm": rep.total,
                "restrictedNorm": rep.restricted,
                "wNorm": wn,
                "value": sample.value,
            }
        )
    summary = {
        "fittedExponent": report.fit.exponent,
        "restrictedExponent": report.restricted_fit.exponent,
        "predictedExponent": report.predicted_exponent,
        "wNormExponent": report.wnorm_exponent,
        "residual": report.fit.residual,
    }
    return rows, summary, report.verdict


_RUNNERS = {
    "resonance-audit": _run_resonance_audit,
    "evolve": _run_evolve,
    "picard": _run_picard,
    "strichartz2d": functools.partial(_run_sweep, "strichartz2d_point"),
    "strichartz3d": functools.partial(_run_sweep, "strichartz3d_point"),
    "counterexample": _run_counterexample,
    "bilinear-ratio": functools.partial(_run_sweep, "bilinear_point"),
    "illposed-scaling": _run_illposed,
}


def _format_cell(v):
    if isinstance(v, float):
        return repr(v)
    return str(v)


def rows_to_csv(rows, columns):
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(_format_cell(row[c]) for c in columns))
    return "\n".join(lines) + "\n"


def run(subcommand, config, workers=1, outdir=None, base_seed=0):
    """Resolve, validate, dispatch; returns the result envelope as a dict."""
    if subcommand not in SUBCOMMANDS:
        raise InvalidSpecError([f"unknown subcommand {subcommand!r}"])
    if isinstance(workers, bool) or not isinstance(workers, int) or workers < 1:
        raise InvalidSpecError([f"workers: expected an integer >= 1, got {workers!r}"])
    cfg = dict(_DEFAULTS[subcommand])
    cfg.update(config or {})
    cfg["baseSeed"] = int(base_seed)
    _validate(subcommand, cfg)

    rows, summary, verdict = _RUNNERS[subcommand](cfg, workers, outdir)
    envelope = {
        "configEcho": {**cfg, "subcommand": subcommand},
        "rows": rows,
        "columns": _COLUMNS[subcommand],
        "summary": summary,
        "verdict": verdict,
        "provenance": {
            "tool": "kplab",
            "version": __version__,
            "timestampUtc": datetime.datetime.now(datetime.timezone.utc).isoformat(),
            "workers": workers,
            "baseSeed": base_seed,
        },
    }
    if outdir:
        os.makedirs(outdir, exist_ok=True)
        with open(os.path.join(outdir, "results.csv"), "w", encoding="utf-8") as fh:
            fh.write(rows_to_csv(rows, _COLUMNS[subcommand]))
        with open(os.path.join(outdir, "summary.json"), "w", encoding="utf-8") as fh:
            json.dump(
                {k: v for k, v in envelope.items() if k != "rows"},
                fh,
                indent=2,
                sort_keys=True,
                default=str,
            )
            fh.write("\n")
    return envelope


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="kplab",
        description="Spectral experiments for the generalized-dispersion KP-II flow.",
    )
    parser.add_argument("subcommand", choices=SUBCOMMANDS)
    parser.add_argument("--config", help="path to a JSON config file")
    parser.add_argument("--out", help="output directory for results.csv/summary.json")
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--seed", type=int, default=0, help="base seed offset")
    parser.add_argument("--expect", choices=["bounded", "fails"])
    args = parser.parse_args(argv)

    config = {}
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                config = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            print(
                json.dumps({"error": "config-unreadable", "detail": str(exc)}),
                file=sys.stderr,
            )
            return 1

    try:
        envelope = run(
            args.subcommand,
            config,
            workers=args.workers,
            outdir=args.out,
            base_seed=args.seed,
        )
    except InvalidSpecError as exc:
        print(json.dumps({"error": "config-invalid", "violations": exc.violations}),
              file=sys.stderr)
        return 1
    except KPLabError as exc:
        print(json.dumps({"error": type(exc).__name__, "detail": str(exc)}),
              file=sys.stderr)
        return 1

    verdict = envelope["verdict"]
    print(json.dumps({"verdict": verdict, "summary": envelope["summary"]}, default=str))
    if args.expect and verdict is not None:
        ok = verdict in ("bounded", "no failure detected")
        if (args.expect == "bounded") != ok:
            return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
