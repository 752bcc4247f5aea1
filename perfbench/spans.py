"""Per-layer tracing for the benchmark's traced run.

The benchmark wraps the public functions of each `kplab` module from the
outside; the library itself is not changed.  A wrapper records one span per
call (name, start, end, parent span, pass id) in memory.  Self times are
computed from the spans after the run, and the spans are written out then.

A wrapper replaces the original under every name it is reached by: modules
that did `from .fields import sobolev_norm` hold their own reference, so each
`kplab` module's namespace is searched for the original function object.
Untraced passes never install the wrappers.
"""

import functools
import json
import sys
import time
from collections import defaultdict

import numpy as np

# module -> wrapped public functions (`errors` does no work and is left out)
TARGETS = {
    "cli": ("run", "sweep_parallel"),
    "estimates": (
        "strichartz2d_point", "strichartz3d_point", "bilinear_point",
        "adversarial_pair", "spacetime_pair", "strichartz2d_ratio",
        "strichartz3d_ratio", "bilinear_ratio", "envelope_fit",
    ),
    "fields": (
        "phi_grid", "random_field", "st_random_field", "sobolev_norm",
        "bourgain_norm", "st_product_exact",
    ),
    "evolution": ("evolve_nonlinear", "picard_solve", "observed_order"),
    "illposed": ("illposed_scaling", "third_derivative_norm"),
    "symbols": ("phi1", "phi2", "phi3", "phase_grid"),
}


def _evolve_steps(args, kwargs):
    cfg = kwargs["cfg"] if "cfg" in kwargs else args[1]
    return int(round(cfg.T / cfg.dt))


def _phi_elements(args, kwargs):
    return int(np.size(kwargs["z"] if "z" in kwargs else args[0]))


# input-determined counts, taken at the same boundaries as the spans
COUNTERS = {
    "evolution.evolve_nonlinear": ("evolution.evolve_nonlinear.steps", _evolve_steps),
    "symbols.phi1": ("symbols.phi.elements", _phi_elements),
    "symbols.phi2": ("symbols.phi.elements", _phi_elements),
    "symbols.phi3": ("symbols.phi.elements", _phi_elements),
}

SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fns in TARGETS.items() for fn in fns)
COUNT_NAMES = tuple(dict.fromkeys(name for name, _ in COUNTERS.values()))


def _kplab_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "kplab" or name.startswith("kplab."))]


class Tracer:
    """Installs span-recording wrappers on the `kplab` functions in TARGETS."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, pass id]
        self.counts = []  # [(counter name, amount, pass id)]
        self.pass_id = -1
        self._stack = []
        self._rebound = []  # (module, attribute, original)

    def begin_pass(self):
        self.pass_id += 1

    def _wrap(self, name, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1] if self._stack else -1
            if counter is not None:
                self.counts.append((counter[0], counter[1](args, kwargs), self.pass_id))
            self._stack.append(index)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index] = [name, start, end, parent, self.pass_id]

        return wrapper

    def install(self):
        import kplab.cli  # noqa: F401 - loads every kplab module

        modules = _kplab_modules()
        for mod_name, fns in TARGETS.items():
            home = sys.modules[f"kplab.{mod_name}"]
            for fn_name in fns:
                original = getattr(home, fn_name)
                wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._rebound.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._rebound):
            setattr(module, attr, original)
        self._rebound.clear()

    def layer_metrics(self, pass_id):
        """calls / busy_s / self_s per wrapped function, plus the counts, for one pass.

        busy_s is inclusive wall time; a recursive call inside a span of the
        same name is not counted twice.  self_s is busy time minus the time
        covered by wrapped children.
        """
        child_time = defaultdict(float)
        for name, start, end, parent, pid in self.spans:
            if pid == pass_id and parent >= 0:
                child_time[parent] += end - start
        out = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = 0
            out[f"{name}.busy_s"] = 0.0
            out[f"{name}.self_s"] = 0.0
        for index, (name, start, end, parent, pid) in enumerate(self.spans):
            if pid != pass_id:
                continue
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += (end - start) - child_time[index]
            if not self._inside_same_name(index):
                out[f"{name}.busy_s"] += end - start
        for name in COUNT_NAMES:
            out[name] = 0
        for name, amount, pid in self.counts:
            if pid == pass_id:
                out[name] += amount
        return out

    def _inside_same_name(self, index):
        name, parent = self.spans[index][0], self.spans[index][3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def write(self, path):
        """Spans as JSON lines, times relative to the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for index, (name, start, end, parent, pid) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": index, "name": name, "start": start - t0, "end": end - t0,
                    "parent": parent, "pass": pid,
                }) + "\n")
