"""The benchmark's workloads: fixed sequences of `kplab.cli.run` calls.

Every workload is a closed loop: one process makes one call at a time with
`workers=1`, and the next call starts when the previous one has returned and
written its `results.csv` / `summary.json`.  The benchmark's `--seed` is
passed to every call as `base_seed`.

Configs pin every key that sets the amount of work, so a later change to a
CLI default does not silently change what is measured.  Sizes are cut down
from the acceptance-suite sizes so that several passes fit in one run (see
README.md); each workload still reaches the layer it exists to stress.
"""

import inspect
import math
from dataclasses import dataclass

COMPLEX_BYTES = 16


@dataclass(frozen=True)
class Step:
    label: str  # unique within the workload: output sub-directory and reference key
    subcommand: str
    config: dict


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    steps: tuple


_STRICHARTZ2D_KINDS = ["random", "comparable", "high-high-to-low", "low-high"]
_BILINEAR_KINDS = ["random", "comparable", "high-high-to-low"]

# criterion 9's three (alpha, s) pairs: one on each side of s = 3/4 - alpha/2
_ILLPOSED_PAIRS = ((2.0, 0.0), (2.0, -0.75), (3.0, -0.5))

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "product-sweep",
            "exact doubled-grid products: the strichartz2d/3d ratio kernel on 2-D and 3-D "
            "grids across the L2 size, and the Bourgain-norm space-time product",
            (
                Step(
                    "strichartz2d",
                    "strichartz2d",
                    {"alpha": 2.0, "Ns": [4, 32], "seeds": [0], "s1": 0.25, "s2": 0.0,
                     "kinds": _STRICHARTZ2D_KINDS},
                ),
                Step(
                    "strichartz3d",
                    "strichartz3d",
                    {"alpha": 2.0, "Ns": [1, 8], "seeds": [0], "s1": 0.6, "s2": 0.6},
                ),
                Step(
                    "bilinear-ratio",
                    "bilinear-ratio",
                    {"alpha": 3.0, "Ns": [8, 64], "seeds": [0], "s1": 0.2,
                     "s2": 0.0, "b": 0.55, "bPrime": -0.45, "beta": 0.4,
                     "lhsFlavor": "xweighted", "rhsFlavor": "xweighted",
                     "kinds": _BILINEAR_KINDS},
                ),
            ),
        ),
        Workload(
            "flow-experiments",
            "ETDRK4 and Picard solves plus the third-derivative quadrature: dealiased "
            "quadratic term and phi1, never the exact doubled-grid products",
            (
                Step(
                    "evolve",
                    "evolve",
                    {"alpha": 2.0, "kMax": 32, "yPoints": 128, "yLength": 32 * math.pi,
                     "dt": 1e-3, "T": 0.25, "amplitude": 0.01, "dealias": 2.0 / 3.0,
                     "measureOrder": True},
                ),
                Step(
                    "picard",
                    "picard",
                    {"alpha": 2.0, "kMax": 10, "yPoints": 64, "yLength": 16 * math.pi,
                     "tPoints": 128, "tWindow": 0.2, "T": 0.05, "iters": 8,
                     "amplitude": 0.01, "crossCheck": True, "dt": 6.25e-4},
                ),
            )
            + tuple(
                Step(
                    f"illposed-a{alpha:g}-s{s:g}",
                    "illposed-scaling",
                    {"alpha": alpha, "s": s, "Ns": [16, 32, 64, 128], "t": 0.1,
                     "betaInterval": 0.05, "etaQuadPoints": 48},
                )
                for alpha, s in _ILLPOSED_PAIRS
            ),
        ),
    )
}


def largest_array(step):
    """(what, shape, computed bytes) of the largest complex array a step allocates.

    Computed from the grids the library builds for the step's largest size;
    these are sizes, not measurements of cache traffic.
    """
    from kplab import estimates, fields, illposed
    from kplab.fields import make_grid

    cfg = step.config
    if step.subcommand in ("strichartz2d", "strichartz3d"):
        make = estimates.strichartz2d_grid if step.subcommand == "strichartz2d" else (
            estimates.strichartz3d_grid
        )
        # _product_l2_lhs works on the doubled (product) grid
        shape = fields.product_grid(make(max(cfg["Ns"]))).spatial_shape
        what = "doubled-grid product factor"
    elif step.subcommand == "bilinear-ratio":
        shape = fields.product_grid(estimates.bilinear_grid(max(cfg["Ns"]))).st_shape
        what = "space-time product on the doubled (tau, k, eta) grid"
    elif step.subcommand == "evolve":
        g = make_grid(cfg["kMax"], cfg["yPoints"], cfg["yLength"])
        shape = fields.dealias_grid(g, cfg["dealias"]).spatial_shape
        what = "dealiased quadratic-term grid"
    elif step.subcommand == "picard":
        shape = make_grid(
            cfg["kMax"], cfg["yPoints"], cfg["yLength"],
            tPoints=cfg["tPoints"], tWindow=cfg["tWindow"],
        ).st_shape
        what = "Picard iterate over the t lattice"
    elif step.subcommand == "illposed-scaling":
        m = cfg["etaQuadPoints"]
        chunk = inspect.signature(illposed.third_derivative_norm).parameters["chunk"].default
        shape = (chunk, 2 * m, m)
        what = "phi1 argument chunk in third_derivative_norm"
    else:
        raise ValueError(f"no array-size rule for {step.subcommand!r}")
    return what, shape, math.prod(shape) * COMPLEX_BYTES
