"""kplab benchmark: times verdict workloads end to end, or per layer when traced.

    python3 perfbench/run.py --workload product-sweep --seed 0 --seconds 50 --trace 0

Run from the root of a source checkout; the library is imported from
`src/`.  `--seconds` (default: `run_seconds` of BENCHMARK.json) is the budget
of the whole run, set-up included, counted from the start of `main`; the
minimum pass counts below may stretch a run past it on a slow machine, and
the run's wall time is printed.  With `--trace 0` the last line of standard
output is a JSON object with the end-to-end metrics (verdict_s, cpu_s,
peak_rss_mb, setup_s); with `--trace 1` it carries the per-layer metrics of
a traced run.  Both check every output against reference.json.
`--record-reference` rewrites that file from one pass of each workload at
seed 0.  See README.md.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

sys.path.insert(0, str(HERE))
import check  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS, largest_array  # noqa: E402

MIN_PASSES = 3  # per untraced run; a traced run makes at least one of each kind
SETUP_SAMPLES = 5
SETUP_CODE = (
    "import kplab.cli; "
    "kplab.cli.run('resonance-audit', {'alphas': [2.0], 'kMax': 8})"
)
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def _cpu_seconds():
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def measure_setup():
    """Wall seconds from interpreter start through `import kplab.cli` and a tiny run."""
    times = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=_child_env(),
                       check=True, stdout=subprocess.DEVNULL, timeout=120)
        times.append(time.perf_counter() - start)
    return times


def run_pass(workload, seed, outroot, tracer=None):
    """One closed-loop pass: each step's cli.run call in turn, workers=1.

    Returns the wall and the CPU seconds of each step, and the errors by step.
    """
    from kplab import cli

    if tracer is not None:
        tracer.begin_pass()
    walls, cpus, errors = [], [], {}
    for step in workload.steps:
        cpu0, start = _cpu_seconds(), time.perf_counter()
        try:
            cli.run(step.subcommand, step.config, workers=1,
                    outdir=str(outroot / step.label), base_seed=seed)
        except Exception as exc:  # noqa: BLE001 - counted as a failed check
            errors[step.label] = repr(exc)
        walls.append(time.perf_counter() - start)
        cpus.append(_cpu_seconds() - cpu0)
    return walls, cpus, errors


def typical_pass(per_pass):
    """Sum over the steps of each step's median over the passes.

    A burst of load from other processes that hits one step of one pass
    moves this less than it moves the median of the pass totals.
    """
    return sum(statistics.median(step) for step in zip(*per_pass))


def _next_fits(totals, deadline):
    return time.perf_counter() + statistics.median(totals) <= deadline


def run_passes(workload, seed, deadline, outroot, tally, reference):
    """At least MIN_PASSES passes, then more while the next is expected to end
    by `deadline`; checks the outputs of each pass.  Returns the per-step wall
    and CPU seconds of each pass."""
    walls, cpus = [], []
    while len(walls) < MIN_PASSES or _next_fits([sum(w) for w in walls], deadline):
        wall, cpu, errors = run_pass(workload, seed, outroot)
        walls.append(wall)
        cpus.append(cpu)
        tally.check_pass(reference, workload, outroot, seed, errors)
    return walls, cpus


def run_traced(workload, seed, deadline, outroot, tally, reference):
    """Untraced and traced passes in turn, at least one of each, then more while
    the next is expected to end by `deadline`; checks the outputs of each pass.

    Alternating keeps a drift in machine load out of the traced/untraced
    ratio.  The wrappers are installed for the traced passes only.
    """
    tracer = spans.Tracer()
    plain, traced = [], []
    while not traced or _next_fits(plain + traced, deadline):
        tracing = len(traced) < len(plain)
        if tracing:
            tracer.install()
        try:
            wall, _, errors = run_pass(workload, seed, outroot, tracer if tracing else None)
        finally:
            tracer.uninstall()
        (traced if tracing else plain).append(sum(wall))
        tally.check_pass(reference, workload, outroot, seed, errors)
    return tracer, plain, traced


def _read(path):
    try:
        return Path(path).read_text(encoding="utf-8").strip()
    except OSError:
        return None


def _git_commit():
    # the ceiling keeps git from taking the commit of a repository above the checkout
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30, check=False)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _caches():
    out = {}
    for index in sorted((Path("/sys/devices/system/cpu/cpu0/cache")).glob("index*")):
        level, kind, size = (_read(index / f) for f in ("level", "type", "size"))
        if level and kind != "Instruction":
            out[f"L{level}"] = size
    return out


def environment(workload):
    import numpy
    import scipy

    model = None
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    arrays = []
    for step in workload.steps:
        what, shape, nbytes = largest_array(step)
        arrays.append({"step": step.label, "what": what, "shape": list(shape),
                       "computed_bytes": nbytes})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "caches_per_core": _caches(),
        "fft_backend": "numpy.fft (pocketfft)"
        if hasattr(numpy.fft, "_pocketfft_umath") else "numpy.fft",
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "git_commit": _git_commit(),
        "largest_array_per_step": arrays,
    }


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _describe(name, values, unit):
    # a tail percentile is given only with at least ten samples beyond it
    tail = (f"p90 {statistics.quantiles(values, n=10)[-1]:.6g}" if len(values) >= 100
            else "no tail percentile: fewer than ten samples beyond p90")
    return (f"{name}: median {statistics.median(values):.6g} {unit} over n={len(values)} "
            f"(min {min(values):.6g}, max {max(values):.6g}; {tail})")


def run_benchmark(workload, seed, deadline, trace, reference=None):
    """Measure one workload until about `deadline` (a time.perf_counter() value);
    returns (report lines, environment, tally, metrics)."""
    if reference is None:
        reference = check.load_reference()
    outroot = OUT / workload.name
    outroot.mkdir(parents=True, exist_ok=True)
    tally = check.Tally()
    lines = []
    if not trace:
        setup = measure_setup()
        walls, cpus = run_passes(workload, seed, deadline, outroot, tally, reference)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        metrics = {
            "verdict_s": _metric(typical_pass(walls), "s"),
            "cpu_s": _metric(typical_pass(cpus), "s"),
            "setup_s": _metric(statistics.median(setup), "s"),
            "peak_rss_mb": _metric(rss_mb, "MB"),
        }
        for name in ("verdict_s", "cpu_s"):
            lines.append(f"{name}: {metrics[name]['value']:.6g} s, the sum over "
                         f"{len(workload.steps)} steps of each step's median over "
                         f"n={len(walls)} passes")
        lines.append(_describe("  pass wall time", [sum(w) for w in walls], "s"))
        lines.append(_describe("  pass cpu time", [sum(c) for c in cpus], "s"))
        lines.append(_describe("setup_s", setup, "s"))
        lines.append(f"peak_rss_mb: {rss_mb:.1f} MB (this process ran only {workload.name})")
    else:
        tracer, plain, traced = run_traced(workload, seed, deadline, outroot, tally,
                                           reference)
        tracer.write(outroot / "spans.jsonl")
        per_pass = [tracer.layer_metrics(p) for p in range(tracer.pass_id + 1)]
        metrics = {}
        for name in per_pass[0]:
            value = statistics.median(p[name] for p in per_pass)
            timed = name.endswith("_s")
            metrics[name] = _metric(value if timed else int(value), "s" if timed else "count")
        overhead = statistics.median(traced) / statistics.median(plain)
        metrics["trace.overhead_ratio"] = _metric(overhead, "ratio")
        metrics["failed_share"] = _metric(tally.share, "ratio")
        lines.append(_describe("untraced verdict_s", plain, "s"))
        lines.append(_describe("traced verdict_s", traced, "s"))
        lines += _self_time_table(metrics, statistics.median(traced))
    lines.append(f"failed_share: {tally.failed}/{tally.attempted} = {tally.share:.3g}")
    lines += [f"  failed check {f}" for f in tally.failures]
    env = environment(workload)
    (outroot / "environment.json").write_text(json.dumps(env, indent=2) + "\n")
    return lines, env, tally, metrics


def _self_time_table(metrics, traced_wall):
    rows = sorted(((m["value"], name[: -len(".self_s")]) for name, m in metrics.items()
                   if name.endswith(".self_s")), reverse=True)
    covered = sum(v for v, _ in rows)
    out = [f"wrapped self time covers {covered / traced_wall:.1%} of traced verdict_s"]
    out += [f"  {v / traced_wall:6.1%} self  {name}" for v, name in rows if v > 0]
    return out


def record(workloads, seed):
    """Reference entries from one pass of each workload at `seed`."""
    reference = {"seed": seed, "workloads": {}}
    for workload in workloads:
        outroot = OUT / "reference" / workload.name
        _, _, errors = run_pass(workload, seed, outroot)
        if errors:
            raise RuntimeError(f"{workload.name} failed while recording: {errors}")
        reference["workloads"][workload.name] = {
            step.label: check.observe(outroot / step.label) for step in workload.steps
        }
    return reference


def record_reference(seed=0):
    reference = record(WORKLOADS.values(), seed)
    with open(check.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv=None):
    start = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0, help="becomes cli.run(base_seed=...)")
    parser.add_argument("--seconds", type=float,
                        default=json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"],
                        help="budget of the whole run, set-up included")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true",
                        help="rewrite reference.json from one pass per workload at seed 0")
    args = parser.parse_args(argv)

    if not (SRC / "kplab" / "cli.py").is_file():
        print(f"kplab sources not found under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.record_reference:
        record_reference()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    workload = WORKLOADS[args.workload]
    lines, env, tally, metrics = run_benchmark(workload, args.seed, start + args.seconds,
                                               args.trace)
    lines.append(f"run wall time: {time.perf_counter() - start:.1f} s "
                 f"(budget {args.seconds:g} s, set-up included)")
    print(f"workload {workload.name}: {workload.why}")
    print("closed loop, one process, one cli.run call at a time, workers=1")
    for line in lines:
        print(line)
    for big in env["largest_array_per_step"]:
        print(f"largest array of {big['step']}: {big['computed_bytes'] / 1e6:.2f} MB computed"
              f" ({big['what']}, shape {big['shape']}) vs L2 {env['caches_per_core'].get('L2')}")
    print(json.dumps({"environment": env}))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
