"""Output checks against a stored reference.

The reference (reference.json) holds, for every step of every workload at
the reference seed, the verdict, every numeric summary value and every
`results.csv` column, read back from the files `kplab.cli.run` wrote.

Rules, one check per compared value:

* ratio values, norms and other plain results: relative tolerance 1e-12
  (the tolerance of ROADMAP item 1);
* fitted exponents and fit residuals: 1e-12 relative or absolute, since an
  exponent can sit near zero;
* `observedOrder`: a recorded reference value at relative tolerance 1e-8,
  not a gate at 3.5 (the CLI's amplitude-0.01 data measures about 3.07);
* differences of nearly equal numbers are held to their acceptance
  thresholds, not digit for digit: L2 drift <= 1e-8, cross-check relative
  difference <= 1e-6, Picard difference norms finite and decreasing
  (contraction ratios below 1);
* integers and strings (N, kind, verdict): exact; the `seed` column is the
  reference seed column shifted by the base seed.

At any other seed the random ensembles differ, so steps whose inputs depend
on the seed are checked for verdicts, finiteness, exact integer/string
columns and the thresholds only.  `evolve`, `picard` and `illposed-scaling`
use no seed, so they get the full check at every seed.

An exception, a non-finite number, a verdict mismatch or a value outside its
tolerance each counts as one failed check.
"""

import csv
import json
import math
from pathlib import Path

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"
SEED_FREE = {"evolve", "picard", "illposed-scaling"}

REL_TOL = 1e-12
FIT_KEYS = {"fittedExponent", "restrictedExponent", "predictedExponent",
            "wNormExponent", "residual"}
LOOSE_REL_TOL = {"observedOrder": 1e-8}
UPPER_BOUNDS = {"l2RelDrift": 1e-8, "finalDrift": 1e-8, "crossCheckRelDiff": 1e-6}
FINITE_ONLY = {"crossCheckL2Diff", "diffNorm"}


def _parse_cell(text):
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def _flatten(prefix, value, out):
    if isinstance(value, dict):
        for k, v in value.items():
            _flatten(f"{prefix}.{k}" if prefix else str(k), v, out)
    elif isinstance(value, list):
        for i, v in enumerate(value):
            _flatten(f"{prefix}.{i}", v, out)
    else:
        out[prefix] = value
    return out


def observe(outdir):
    """Verdict, flattened summary and results.csv columns of one step's output."""
    outdir = Path(outdir)
    with open(outdir / "summary.json", encoding="utf-8") as fh:
        summary = json.load(fh)
    with open(outdir / "results.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    columns = {c: [_parse_cell(r[i]) for r in body] for i, c in enumerate(header)}
    return {
        "subcommand": summary["configEcho"]["subcommand"],
        "verdict": summary["verdict"],
        "summary": _flatten("", summary["summary"], {}),
        "columns": columns,
    }


def load_reference(path=REFERENCE_PATH):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _finite(v):
    return isinstance(v, (int, float)) and math.isfinite(v)


def _compare(key, ref, obs, full):
    """Return None when obs passes against ref, else a short reason."""
    base = key.split(".")[0]
    if isinstance(ref, str) or ref is None:
        return None if obs == ref else f"expected {ref!r}"
    if isinstance(ref, int):
        return None if obs == ref and type(obs) is type(ref) else f"expected {ref!r}"
    if not _finite(obs):
        return "not finite"
    if base in UPPER_BOUNDS:
        return None if abs(obs) <= UPPER_BOUNDS[base] else f"above {UPPER_BOUNDS[base]:g}"
    if base in FINITE_ONLY or not full:
        return None
    if base in LOOSE_REL_TOL:
        ok = math.isclose(obs, ref, rel_tol=LOOSE_REL_TOL[base])
    elif base in FIT_KEYS:
        ok = math.isclose(obs, ref, rel_tol=REL_TOL, abs_tol=REL_TOL)
    else:
        ok = math.isclose(obs, ref, rel_tol=REL_TOL)
    return None if ok else f"expected {ref!r}"


def check_step(label, ref, obs, base_seed, ref_seed):
    """Yield (check name, failure reason or None) for one step."""
    full = base_seed == ref_seed or ref["subcommand"] in SEED_FREE
    yield f"{label}: subcommand", None if obs["subcommand"] == ref["subcommand"] else (
        f"expected {ref['subcommand']!r}")
    yield f"{label}: verdict", None if obs["verdict"] == ref["verdict"] else (
        f"expected {ref['verdict']!r}, got {obs['verdict']!r}")
    for key, value in ref["summary"].items():
        name = f"{label}: summary {key}"
        if key not in obs["summary"]:
            yield name, "missing"
        elif key.startswith("contractionRatios."):
            v = obs["summary"][key]
            yield name, None if _finite(v) and 0 <= v < 1 else "not a contraction"
        else:
            yield name, _compare(key, value, obs["summary"][key], full)
    for column, values in ref["columns"].items():
        got = obs["columns"].get(column)
        if got is None or len(got) != len(values):
            yield f"{label}: column {column}", "missing or wrong length"
            continue
        if column == "seed":
            values = [v + base_seed - ref_seed for v in values]
        if column == "diffNorm":
            decreasing = all(b < a for a, b in zip(got, got[1:]))
            yield f"{label}: column diffNorm decreasing", None if decreasing else "grew"
        for i, (r, o) in enumerate(zip(values, got)):
            yield f"{label}: {column}[{i}]", _compare(column, r, o, full)


class Tally:
    """Counts attempted and failed checks over a run; keeps the first failures."""

    def __init__(self, keep=20):
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self._keep = keep

    def add(self, name, reason):
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            if len(self.failures) < self._keep:
                self.failures.append(f"{name}: {reason}")

    def check_pass(self, reference, workload, outroot, base_seed, errors):
        """Check one pass's outputs; `errors` maps step label -> exception text."""
        ref_steps = reference["workloads"][workload.name]
        for step in workload.steps:
            if step.label in errors:
                self.add(f"{step.label}: run", f"raised {errors[step.label]}")
                continue
            try:
                obs = observe(Path(outroot) / step.label)
            except (OSError, ValueError, KeyError, IndexError) as exc:
                self.add(f"{step.label}: outputs", f"unreadable: {exc!r}")
                continue
            for name, reason in check_step(
                step.label, ref_steps[step.label], obs, base_seed, reference["seed"]
            ):
                self.add(name, reason)

    @property
    def share(self):
        return self.failed / self.attempted if self.attempted else 1.0
