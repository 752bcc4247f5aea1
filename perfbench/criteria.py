"""Opt-in per-criterion timing capture from the acceptance gate.

    python3 perfbench/criteria.py

Runs `pytest tests/test_acceptance.py -s` once, over every criterion,
parses every `criterion NN [PASS|FAIL] name: detail (x.xs / budget Ys)`
line, prints one JSON object and writes it to perfbench/out/criteria.json.
The numbers are informational and ungated; this is not a benchmark workload
and the benchmark command never runs it.  The full gate takes several minutes.
"""

import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

LINE = re.compile(
    r"criterion (?P<num>\d+) \[(?P<status>PASS|FAIL)\] (?P<name>[^:]+): (?P<detail>.*) "
    r"\((?P<elapsed>[0-9.]+)s / budget (?P<budget>[0-9.]+)s\)"
)


def parse(text):
    """Criterion records from pytest output, in the order they were printed."""
    out = []
    for line in text.splitlines():
        m = LINE.search(line)
        if m:
            out.append({
                "criterion": int(m["num"]),
                "status": m["status"],
                "name": m["name"],
                "detail": m["detail"],
                "elapsed_s": float(m["elapsed"]),
                "budget_s": float(m["budget"]),
            })
    return out


def main():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "tests/test_acceptance.py", "-s", "-q"],
        cwd=ROOT, env=env, capture_output=True, text=True, check=False,
    )
    result = {
        "pytest_exit_code": proc.returncode,
        "wall_s": time.perf_counter() - start,
        "criteria": parse(proc.stdout),
    }
    (HERE / "out").mkdir(exist_ok=True)
    (HERE / "out" / "criteria.json").write_text(json.dumps(result, indent=2) + "\n")
    print(json.dumps(result))
    return 0 if proc.returncode == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
