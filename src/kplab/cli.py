"""Experiment orchestration: config parsing, dispatch, sweeps, result emission.

Each subcommand is one entry of `_TABLE`: its runner and every config key it
takes, with the key's default, type and range check.  A JSON config is
resolved against that entry and validated up front (a key the subcommand does
not take is an error; the complete violation list is reported), the output
directory is made, the sweep points fan out over a worker pool, and the
artifacts are written into the output directory:

    results.csv     one row per sample, its columns the keys of the runner's
                    rows in order, each cell written by str (bit-identical
                    across runs and worker counts)
    summary.json    fit/verdict/diagnostics plus the fully resolved config
                    echo and provenance (tool version, timestamp, seeds)
    progress.jsonl  evolve's drift rows, one JSON object per line
    fields/*.bin    evolve's initial and final fields, if saveFields (which
                    needs an output directory)

Exit codes: 0 on success (and when a declared expectation matches the
verdict), 2 when the verdict contradicts --expect, 3 when the verdict is
"inconclusive" (the fit's residual exceeds `estimates.MAX_RESIDUAL`), with or
without --expect, and 1 on any error, which includes an --expect on a
subcommand that gives no verdict (evolve, picard), a picard cross-check off
by more than 1e-6 relative, and an output path that cannot be made or
written (an OSError, such as --out naming a file).
"""

import argparse
import concurrent.futures
import contextlib
import copy
import datetime
import functools
import json
import math
import os
import sys
from typing import NamedTuple

import numpy as np

from . import __version__, estimates, evolution, illposed
from .errors import InvalidSpecError, KPLabError, SolverDivergenceError, SweepWorkerError, check
from .evolution import (CutoffSpec, SolveConfig, evolve_nonlinear, observed_order, picard_solve,
                        whole_steps)
from .fields import SpectralField, make_grid, save_field
from .symbols import (IDENTITY_TOL, DispersionParams, ResonanceSampleAudit,
                      resonance_bounds_audit, resonance_sample_audit)


def sweep_parallel(points, worker, workers=1):
    """Run a pure worker over points; results in point order, at any worker count.

    One worker (or one point) maps in this process; more fan out over a pool
    of at most one process per point.  Results are read in point order, so the
    first failing point, the lowest index, aborts the sweep: it is reported
    with its index, and the points not yet started are cancelled.
    """
    points = list(points)
    workers = min(workers, len(points))
    with contextlib.ExitStack() as stack:
        mapper = map
        if workers > 1:
            pool = concurrent.futures.ProcessPoolExecutor(max_workers=workers)
            mapper = stack.enter_context(pool).map
        rows = []
        try:
            for row in mapper(worker, points):
                rows.append(row)
        except Exception as exc:  # noqa: BLE001 - reported with its index
            raise SweepWorkerError(len(rows), exc) from exc
    return rows


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
    """The exhaustive bound audit per alpha, and the sampled audit if identitySamples > 0.

    The verdict fails on any bound violation, any sampled lower-bound or sign
    failure, or a sampled identity residual above `symbols.IDENTITY_TOL`.
    """
    rows = []
    for alpha in cfg["alphas"]:
        params = DispersionParams(float(alpha))
        audit = resonance_bounds_audit(params, cfg["kMax"])
        sample = ResonanceSampleAudit(0.0, 0, 0)
        if cfg["identitySamples"]:
            sample = resonance_sample_audit(params, cfg["identitySamples"], seed=cfg["baseSeed"])
        rows.append({
            "alpha": float(alpha),
            "kMax": cfg["kMax"],
            "checked": audit.checked,
            "violations": len(audit.violations),
            "maxResidual": sample.max_rel_residual,
            "lowerBoundViolations": sample.lower_bound_violations,
            "signDisagreements": sample.sign_disagreements,
        })
    total = sum(r["violations"] + r["lowerBoundViolations"] + r["signDisagreements"]
                for r in rows)
    ok = total == 0 and all(r["maxResidual"] <= IDENTITY_TOL for r in rows)
    return rows, {"totalViolations": total}, ("bounded" if ok else "estimate fails")


def _order_span(cfg):
    """The (T, dt) of evolve's order measurement, which also steps dt/2 and dt/4.

    Its finest solve steps dt/4, which is the config's dt exactly (scaling by
    4 is exact in binary floating point), from the same data: it is the main
    solve up to step round(T / (dt/4)), so `_run_evolve` takes that state from
    the main solve instead of solving again.
    """
    return min(cfg["T"], 0.1), 4 * cfg["dt"]


def _flow_setup(cfg, **t_axis):
    """evolve's and picard's dispersion and initial data, on the grid their keys give."""
    g = make_grid(cfg["kMax"], cfg["yPoints"], cfg["yLength"], **t_axis)
    return DispersionParams(cfg["alpha"]), _small_smooth_data(g, cfg["amplitude"], cfg["etaWidth"])


def _run_evolve(cfg, workers, outdir):
    params, f0 = _flow_setup(cfg)
    solve = SolveConfig(dt=cfg["dt"], T=cfg["T"], dealias=cfg["dealias"])
    if cfg["measureOrder"]:
        order_T, order_dt = _order_span(cfg)
        keep_step = int(round(order_T / cfg["dt"]))
    else:
        keep_step = None
    traj = evolve_nonlinear(f0, solve, params, keep_step=keep_step)
    rows = [
        {"t": float(t), "l2RelDrift": float(d)}
        for t, d in zip(traj.times, traj.l2_drift)
    ]
    summary = {"finalDrift": float(traj.l2_drift[-1])}
    if cfg["measureOrder"]:
        summary["observedOrder"] = observed_order(
            f0, params, T=order_T, dt=order_dt, dealias=cfg["dealias"], finest=traj.kept
        )
    if outdir:
        with open(os.path.join(outdir, "progress.jsonl"), "w", encoding="utf-8") as fh:
            for row in rows:
                fh.write(json.dumps(row) + "\n")
    if cfg["saveFields"]:
        fdir = os.path.join(outdir, "fields")
        os.makedirs(fdir, exist_ok=True)
        save_field(os.path.join(fdir, "initial.bin"), f0)
        save_field(os.path.join(fdir, "final.bin"), traj.final)
    return rows, summary, None


def _run_picard(cfg, workers, outdir):
    params, f0 = _flow_setup(cfg, tPoints=cfg["tPoints"], tWindow=cfg["tWindow"])
    result = picard_solve(f0, CutoffSpec(T=cfg["T"]), cfg["iters"], params)
    d = result.diff_norms
    rows = [{"iteration": i + 1, "diffNorm": float(x)} for i, x in enumerate(d)]
    summary = {"contractionRatios": [b / a for a, b in zip(d, d[1:]) if a > 0]}
    if cfg["crossCheck"]:
        solve = SolveConfig(dt=cfg["dt"], T=cfg["T"])
        traj = evolve_nonlinear(f0, solve, params)
        pic = result.at_time(cfg["T"])
        diff = SpectralField(f0.grid, pic.coeffs - traj.final.coeffs).l2_norm()
        rel = diff / traj.final.l2_norm()
        if not rel <= 1e-6:  # criterion 5's bound; a NaN fails it too
            raise SolverDivergenceError(f"Picard and ETDRK4 disagree at t = {cfg['T']!r}: "
                                        f"relative L2 difference {rel!r} exceeds 1e-6")
        summary["crossCheckL2Diff"] = diff
        summary["crossCheckRelDiff"] = rel
    return rows, summary, None


def _run_sweep(module, point_name, extra_name, labels, cfg, workers, outdir):
    """A fitted sweep: `module.<point_name>` makes each row, the verdict step fits them.

    `module.<extra_name>` (rows, cfg) -> dict adds the subcommand's own summary
    keys; `labels` are the verdict's (fails, holds) words.
    """
    # one point per (N, kind, seed), in this order for any worker count; a
    # subcommand without kinds or seeds has one point per N
    points = [
        {**cfg, "N": int(n), "kind": kind, "seed": int(seed) + cfg["baseSeed"]}
        for n in cfg["Ns"]
        for kind in cfg.get("kinds", ["random"])
        for seed in cfg.get("seeds", [0])
    ]
    # looked up at call time, so that a wrapper installed on the module runs
    rows = sweep_parallel(points, getattr(module, point_name), workers)
    summary, verdict = estimates.sweep_verdict(rows, *labels)
    if extra_name:
        summary.update(getattr(module, extra_name)(rows, cfg))
    return rows, summary, verdict


# ---------------------------------------------------------------------------
# the subcommand table


class _Key(NamedTuple):
    """One config key of a subcommand: its default, its type and its range check."""

    default: object
    type: object  # float (a finite number), int, bool, str, or [type] for a list of them
    ok: object = None  # range check, applied to a value of the right type
    what: str = ""  # the range check in words


def _has_type(v, type_):
    if isinstance(type_, list):
        return isinstance(v, list) and all(_has_type(x, type_[0]) for x in v)
    if isinstance(v, bool):  # an int subclass in Python, never a number here
        return type_ is bool
    if type_ is float:  # an int only if it fits a float, which the runner is handed
        return isinstance(v, (int, float)) and abs(v) <= sys.float_info.max
    return isinstance(v, type_)


def _type_name(type_):
    if isinstance(type_, list):
        return f"list of {_type_name(type_[0])}s"
    return {float: "finite number", int: "integer", bool: "boolean", str: "string"}[type_]


_POSITIVE = (lambda v: v > 0, "(must be > 0)")
_POW2 = (lambda v: v >= 8 and (v & (v - 1)) == 0, "(power of two >= 8)")


def _ge(lo):
    return (lambda v: v >= lo, f"(must be >= {lo})")


def _at_least(count, lo):
    """At least `count` distinct values, each >= lo: a repeat would only be computed again."""
    return (
        lambda v: len(set(v)) == len(v) >= count and all(n >= lo for n in v),
        f"(at least {count} distinct, each >= {lo})",
    )


def _fit_ns(default, count, lo):
    """The Ns key of a fitted sweep: `_at_least(count, lo)`, spanning what the fit needs."""
    ok, what = _at_least(count, lo)
    return _Key(default, [int], lambda v: ok(v) and estimates.spans_fit(v),
                f"{what} (max >= 8 * min)")


def _one_of(choices):
    return (lambda v: v in choices, f"(one of {choices})")


def _some_of(choices):
    """At least one distinct value, each from `choices`: a repeat would only be computed again."""
    return (lambda v: len(set(v)) == len(v) >= 1 and all(k in choices for k in v),
            f"(at least 1 distinct, from {choices})")


def _alpha(default):
    return _Key(default, float, *_ge(2))


def _flow_keys(kMax, yPoints, yLength, T, dt):
    """The keys evolve and picard share: dispersion, grid, time step and initial data."""
    return {
        "alpha": _alpha(2.0),
        "kMax": _Key(kMax, int, *_ge(1)),
        "yPoints": _Key(yPoints, int, *_POW2),
        "yLength": _Key(yLength, float, *_POSITIVE),
        "dt": _Key(dt, float, *_POSITIVE),
        "T": _Key(T, float, *_POSITIVE),
        "amplitude": _Key(0.01, float, *_POSITIVE),
        "etaWidth": _Key(1.0, float, *_POSITIVE),
    }


class _Subcommand(NamedTuple):
    runner: object  # (cfg, workers, outdir) -> (rows, summary, verdict); rows name the columns
    keys: dict  # every config key the subcommand takes, name -> _Key


def _sweep(point_name, alpha, Ns, seeds, **keys):
    """The entry of an (N, kind, seed) ratio sweep over `estimates.<point_name>`."""
    runner = functools.partial(_run_sweep, estimates, point_name, None, ())
    return _Subcommand(runner, {
        "alpha": _alpha(alpha),
        "Ns": _fit_ns(Ns, 1, 1),
        "seeds": _Key(seeds, [int], *_at_least(1, 0)),
        **keys,
    })


_TABLE = {
    "evolve": _Subcommand(_run_evolve, {
        **_flow_keys(kMax=32, yPoints=128, yLength=32 * math.pi, T=1.0, dt=1e-3),
        "dealias": _Key(2.0 / 3.0, float, lambda v: 0 < v <= 1, "(must lie in (0, 1])"),
        "measureOrder": _Key(False, bool),
        "saveFields": _Key(False, bool),
    }),
    "picard": _Subcommand(_run_picard, {
        **_flow_keys(kMax=10, yPoints=64, yLength=16 * math.pi, T=0.05, dt=6.25e-4),
        "tPoints": _Key(128, int, *_POW2),
        "tWindow": _Key(0.2, float, *_POSITIVE),
        "iters": _Key(8, int, *_ge(1)),
        "crossCheck": _Key(True, bool),
    }),
    "strichartz2d": _sweep(
        "strichartz2d_point", 2.0, [8, 16, 32, 64, 128], [0, 1, 2, 3, 4],
        s1=_Key(0.25, float, *_ge(0)),
        s2=_Key(0.0, float, *_ge(0)),
        kinds=_Key(list(estimates.STRICHARTZ2D_KINDS), [str],
                   *_some_of(estimates.STRICHARTZ2D_KINDS)),
    ),
    "strichartz3d": _sweep(
        "strichartz3d_point", 2.0, [4, 8, 16, 32], [0, 1, 2],
        s1=_Key(0.6, float, *_ge(0)),
        s2=_Key(0.6, float, *_ge(0)),
    ),
    "counterexample": _Subcommand(
        functools.partial(_run_sweep, estimates, "counterexample_point",
                          "counterexample_summary", ()), {
            # no alpha: the lhs is measured from the fold, where alpha drops out
            "Ns": _fit_ns([16, 32, 64, 128, 256], 3, 8),
            "s": _Key(0.0, float),
            "halfWidthExponent": _Key(0.0, float),
            "quadPoints": _Key(96, int, *_ge(16)),
        }),
    "bilinear-ratio": _sweep(
        "bilinear_point", 3.0, [8, 16, 32, 64], [0, 1, 2],
        s1=_Key(0.2, float),
        s2=_Key(0.0, float),
        b=_Key(0.55, float),
        bPrime=_Key(-0.45, float),
        beta=_Key(0.4, float, *_ge(0)),
        lhsFlavor=_Key("xweighted", str, *_one_of(("x", "xweighted", "z"))),
        rhsFlavor=_Key("xweighted", str, *_one_of(("x", "xweighted"))),
        kinds=_Key(list(estimates.BILINEAR_KINDS), [str], *_some_of(estimates.BILINEAR_KINDS)),
    ),
    "illposed-scaling": _Subcommand(
        functools.partial(_run_sweep, illposed, "illposed_point", "illposed_scaling",
                          ("C3 fails", "no failure detected")), {
            "alpha": _alpha(2.0),
            "s": _Key(-0.75, float),
            "Ns": _fit_ns([16, 32, 64, 128], 4, 8),
            "betaInterval": _Key(0.05, float, lambda v: 0 < v <= 0.1, "(must lie in (0, 0.1])"),
            "t": _Key(0.1, float, lambda v: v != 0, "(must be nonzero)"),
            "etaQuadPoints": _Key(64, int, lambda v: v >= 32 and v % 2 == 0, "(even, >= 32)"),
        }),
    "resonance-audit": _Subcommand(
        _run_resonance_audit, {
            "alphas": _Key([2.0, 2.5, 3.0, 4.0], [float], *_at_least(1, 2)),
            "kMax": _Key(200, int, *_ge(2)),
            "identitySamples": _Key(0, int, *_ge(0)),
        }),
}

SUBCOMMANDS = tuple(_TABLE)


def _resolve(subcommand, config):
    """The config with its defaults filled in; raises InvalidSpecError with every violation."""
    if not isinstance(config, dict):
        raise InvalidSpecError([f"config: expected a JSON object, got {config!r}"])
    keys = _TABLE[subcommand].keys
    problems = [f"{k}: {subcommand} takes no {k}" for k in config if k not in keys]
    # a copy, so that a caller editing its config echo cannot change a default
    cfg = {name: copy.copy(key.default) for name, key in keys.items()}
    cfg.update(config)
    valid = set()
    for name, key in keys.items():
        v = cfg[name]
        if not _has_type(v, key.type):
            problems.append(f"{name}: expected {_type_name(key.type)}, got {v!r}")
        elif key.ok is not None and not key.ok(v):
            problems.append(f"{name}: invalid value {v!r} {key.what}")
        else:
            valid.add(name)
            if key.type in (float, [float]):  # every number reaches the runner as a float
                cfg[name] = list(map(float, v)) if isinstance(v, list) else float(v)
    # the only rules that tie keys together
    if {"dt", "T"} <= valid and cfg["dt"] > cfg["T"]:
        problems.append("dt: exceeds T")
    if {"T", "tWindow"} <= valid and not CutoffSpec(cfg["T"]).fits(cfg["tWindow"]):
        problems.append("T: cutoff support 2T exceeds tWindow")
    if {"dt", "T", "measureOrder"} <= valid and cfg["measureOrder"]:
        T, dt = _order_span(cfg)
        if not whole_steps(T, dt):
            problems.append(
                f"T: measureOrder needs min(T, 0.1) = {T!r} to be a multiple of 4*dt = {dt!r}"
            )
    if {"dt", "T", "tWindow", "tPoints", "crossCheck"} <= valid and cfg["crossCheck"]:
        # the cross-check steps to T by dt and reads the Picard iterate at t = T
        if not whole_steps(cfg["T"], cfg["dt"]):
            problems.append(f"T: crossCheck needs T = {cfg['T']!r} to be a multiple of "
                            f"dt = {cfg['dt']!r}")
        spacing = 2.0 * cfg["tWindow"] / cfg["tPoints"]
        if not whole_steps(cfg["T"], spacing):
            problems.append(f"T: crossCheck needs T = {cfg['T']!r} on the t lattice, a "
                            f"multiple of 2*tWindow/tPoints = {spacing!r}")
    if problems:
        raise InvalidSpecError(problems)
    return cfg


def rows_to_csv(rows, columns):
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(str(row[c]) for c in columns))
    return "\n".join(lines) + "\n"


def run(subcommand, config, workers=1, outdir=None, base_seed=0):
    """Resolve, validate, dispatch; returns the result envelope as a dict."""
    if subcommand not in SUBCOMMANDS:
        raise InvalidSpecError([f"unknown subcommand {subcommand!r}"])
    # every seed, offset by base_seed, must stay a valid numpy seed
    check((_has_type(workers, int) and workers >= 1,
           f"workers: expected an integer >= 1, got {workers!r}"),
          (_has_type(base_seed, int) and base_seed >= 0,
           f"base_seed: expected an integer >= 0, got {base_seed!r}"))
    cfg = _resolve(subcommand, config or {})
    check((outdir or not cfg.get("saveFields"), "saveFields: needs an output directory (--out)"))
    cfg["baseSeed"] = base_seed

    if outdir:
        os.makedirs(outdir, exist_ok=True)
    rows, summary, verdict = _TABLE[subcommand].runner(cfg, workers, outdir)
    columns = list(rows[0])  # every run makes at least one row
    envelope = {
        "configEcho": {**cfg, "subcommand": subcommand},
        "rows": rows,
        "columns": columns,
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
        with open(os.path.join(outdir, "results.csv"), "w", encoding="utf-8") as fh:
            fh.write(rows_to_csv(rows, columns))
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


def _error(error, **detail):
    """Print one JSON error line on stderr; the exit code of every error, 1."""
    print(json.dumps({"error": error, **detail}), file=sys.stderr)
    return 1


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
        except (OSError, ValueError) as exc:  # ValueError: bad JSON, UTF-8 or a too-long integer
            return _error("config-unreadable", detail=str(exc))

    try:
        envelope = run(
            args.subcommand,
            config,
            workers=args.workers,
            outdir=args.out,
            base_seed=args.seed,
        )
    except InvalidSpecError as exc:
        return _error("config-invalid", violations=exc.violations)
    except (KPLabError, OSError) as exc:
        return _error(type(exc).__name__, detail=str(exc))

    verdict = envelope["verdict"]
    print(json.dumps({"verdict": verdict, "summary": envelope["summary"]}, default=str))
    if verdict == "inconclusive":
        return 3
    if args.expect and verdict is None:
        return _error("expectation-uncheckable", detail=f"{args.subcommand} gives no verdict "
                      f"to hold --expect {args.expect} against")
    if args.expect:
        ok = verdict in ("bounded", "no failure detected")
        if (args.expect == "bounded") != ok:
            return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
