"""Ratio-sweep harnesses for the bilinear space-time estimates.

Every experiment has the same falsification-resistant shape: an estimate
LHS <= C * RHS with a non-constructive constant is probed by computing the
ratio LHS/RHS over ensembles of band-limited data at dyadic frequency scales
N, and fitting the log-log slope of the per-N worst case.  A bounded estimate
shows a flat-or-decaying envelope; the known failure regimes show growth at
their predicted exponents.

Ensembles mix seeded random band data with directional generators that
realize the binding interaction geometries (two comparable high bands, two
opposite high bands producing low output, and a low-high pair).  The
'comparable' generator fills the x-frequencies +-N, +-(N+1) and +-(N+2) with
transverse width proportional to sqrt(N), the geometry that saturates the
cutoff product estimate, so the two-sided slope windows are meaningful.

The failure-of-global-estimate experiment evaluates the explicit closed form
of the squared free flow for characteristic-function data.  Its exact
space-time L2 integral diverges logarithmically at the fold omega -> 0, so
both quadrature routes share a smooth lower taper at a fixed fraction of the
interval half-width; the taper scales with the support, which preserves the
N^(1/2) |I|^(1/2) law exactly and keeps the two routes comparable.
"""

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from . import fields
from .errors import InvalidSpecError, NonFiniteValueError, check
from .evolution import CutoffSpec, raised_cosine_window
from .fields import (
    BandSpec,
    NormSpec,
    SpaceTimeBox,
    SpectralField,
    bourgain_norm,
    make_grid,
    random_field,
    sobolev_norm,
    st_product_exact,
    st_random_field,
)
from .symbols import DispersionParams, require_finite


@dataclass(frozen=True)
class ScalingFit:
    samples: tuple  # the fitted (N, value) pairs
    exponent: float
    residual: float


def spans_fit(ns):
    """Whether the N values `ns` span the factor of 8 that `fit_exponent` needs."""
    return max(ns) >= 8 * min(ns)


def fit_exponent(samples):
    """Least squares on (log N, log value) over (N, value) pairs; slope and RMS residual.

    The samples must span at least a factor of 8 in N (`spans_fit`), and
    every value must be finite and positive.
    """
    pts = list(samples)
    check((len(pts) >= 2, f"need at least 2 samples, got {len(pts)}"))
    ns, vals = np.array(pts, dtype=float).T
    if not np.all(np.isfinite(vals)):
        raise NonFiniteValueError(f"sample values must be finite, got {vals.tolist()}")
    check((spans_fit(ns), f"N span {ns.min():g}..{ns.max():g} is below the required 8x"),
          (np.all(vals > 0), "all sample values must be positive for a log fit"))
    x, y = np.log(ns), np.log(vals)
    slope, intercept = np.polyfit(x, y, 1)
    resid = float(np.sqrt(np.mean((y - (slope * x + intercept)) ** 2)))
    return ScalingFit(tuple((int(n), float(v)) for n, v in pts), float(slope), resid)


# the largest RMS residual of a log-log fit that is still read as a power law;
# every fitted acceptance criterion's is at most 0.06
MAX_RESIDUAL = 0.25


def grows(exponent):
    """The verdict rule: a fitted exponent above 0.1 means the ratio grows with N."""
    if not math.isfinite(exponent):
        raise NonFiniteValueError(f"fitted exponent {exponent} is not finite")
    return exponent > 0.1


# ---------------------------------------------------------------------------
# bilinear Strichartz ratios (free flows, physical-space time quadrature)


def _product_l2_lhs(u0, v0, weights, params):
    # each distinct factor's occupied box of coefficients, with the phase read
    # on the same box, on a smooth-length grid just large enough for the
    # product; the samples give the integral of |uv|^2 exactly with the cell
    # (2 pi) L^d / plan.size.  phi is odd, so the free flow keeps real fields
    # real, and the plan of the boxes at t = 0 serves every t.  t_n = -tWindow
    # + n dt, so each box takes np.exp once, a row before the first of nonzero
    # weight, then one multiply by e^{i dt phi} per row: exact conjugates stay
    # exact conjugates, and each row adds a few ulp of rounding per entry
    g = u0.grid
    held = [fields.occupied(f.coeffs) for f in ((u0,) if v0 is u0 else (u0, v0))]
    plan = fields.ProductPlan(*held[0], *held[-1])
    phis = [fields.phase_mesh(params, *fields.box_axes(g, lo, c.shape)) for lo, c in held]
    with np.errstate(over="ignore"):
        require_finite(params, "t phi on the time window", *(g.tWindow * p for p in phis))
    rows = np.flatnonzero(weights)
    t0 = g.t_axis()[rows[0]] - g.dt
    boxes = [c * np.exp(1j * t0 * p) for (_, c), p in zip(held, phis)]
    steps = [np.exp(1j * g.dt * p) for p in phis]
    cell = 2.0 * math.pi * g.yLength**g.yDims / plan.size
    total = 0.0
    for w in weights[rows[0] : rows[-1] + 1]:
        for box, step in zip(boxes, steps):
            box *= step
        if w != 0.0:
            total += w * w * plan.sample_energy(boxes[0], boxes[-1])
    return math.sqrt(g.dt * cell * total) * g.deta ** (2 * g.yDims)


def _strichartz_ratio(u0, v0, s1, s2, params, y_dims, weights, *rules):
    # the body of both ratios; `weights` are the lhs's time weights on the
    # grid's t axis, `rules` the caller's own argument rules
    g = u0.grid
    check((g == v0.grid, "u0 and v0 must share a grid"),
          (g.yDims == y_dims, f"this estimate needs yDims = {y_dims}, got {g.yDims}"),
          (s1 >= 0 and s2 >= 0, f"s1, s2 must be >= 0, got {s1}, {s2}"), *rules)
    denom = sobolev_norm(u0, s1, 0.0) * sobolev_norm(v0, s2, 0.0)
    check((denom != 0.0, "zero data: the ratio is undefined"))
    return _product_l2_lhs(u0, v0, weights, params) / denom


def strichartz2d_ratio(u0, v0, s1, s2, cutoff, params):
    """Cutoff bilinear ratio ||psi (e^{itphi}u0)(e^{itphi}v0)|| / (H^s1 x H^s2) on T x R.

    The product is formed in collocation space on a grid fitted to the two
    factors' supports (exact, no aliasing) and integrated over the grid's
    time window; the cutoff must vanish at the window edge.
    """
    return _strichartz_ratio(u0, v0, s1, s2, params, 1, cutoff.values(u0.grid.t_axis()),
                             cutoff.window_rule(u0.grid.tWindow))


def strichartz3d_ratio(u0, v0, s1, s2, params):
    """Global-in-time bilinear ratio on T x R^2 (wide tapered window surrogate)."""
    return _strichartz_ratio(u0, v0, s1, s2, params, 2, raised_cosine_window(u0.grid))


# ---------------------------------------------------------------------------
# adversarial data generators


def adversarial_pair(kind, N, grid, seed):
    """Band-limited pairs realizing the named frequency-interaction geometry.

    comparable:        both factors at x-frequencies +-[N, N+2], transverse
                       width 0.35 sqrt(N) (the parabolic packet family);
                       returns the same field twice.
    random:            two independent real fields on [N, 2N].
    high-high-to-low:  one-sided complex factors on [N, 2N] and [-2N, -N], so
                       the product's x-support is [-N, N].
    low-high:          a low band [1, max(2, N/8)] against [N, 2N].

    The last three are random fields with |eta| <= min(2, 0.45 eta_Nyquist).
    On T x R^2, random is strichartz3d's pair: |eta| <= min(0.8, 0.4 eta_Nyquist).
    """
    eta_nyq = grid.eta_nyquist
    eta_hi = min(2.0, 0.45 * eta_nyq)
    if kind == "comparable":
        check((N + 2 <= grid.kMax, f"comparable band [N, N+2] needs kMax >= {N + 2}"))
        width = min(0.35 * math.sqrt(N), 0.45 * eta_nyq)
        rng = np.random.default_rng(np.random.SeedSequence((seed, N, 5)))
        c = np.zeros(grid.spatial_shape, dtype=complex)
        band = np.sqrt(grid.eta_sq_grid()) <= width
        for k in range(N, N + 3):  # FFT order: k >= 0 at index k
            c[k, band] = 1.0 + 0.05 * rng.standard_normal(int(band.sum()))
        c = (c + fields.conj_mirror(c)) / 2.0
        u = SpectralField(grid, c)
        return u, u
    hi = BandSpec(kLo=N, kHi=2 * N, etaHi=eta_hi)
    lo = BandSpec(kLo=1, kHi=max(2, N // 8), etaHi=eta_hi)
    hi3 = BandSpec(kLo=N, kHi=2 * N, etaHi=min(0.8, 0.4 * eta_nyq))
    # each factor's (band, side, seed tag)
    factors = {
        "random": ((hi, None, 21), (hi, None, 22)) if grid.yDims == 1 else (
            (hi3, None, 31), (hi3, None, 32)),
        "high-high-to-low": ((hi, "+", 1), (hi, "-", 2)),
        "low-high": ((lo, None, 3), (hi, None, 4)),
    }
    if kind not in factors:
        raise InvalidSpecError([f"unknown adversarial kind {kind!r}"])
    return tuple(
        random_field(grid, band, np.random.SeedSequence((seed, N, tag)), side=side)
        for band, side, tag in factors[kind]
    )


# ---------------------------------------------------------------------------
# failure of the global estimate (characteristic-interval data)

_FLOOR = (0.02, 0.08)  # smooth taper of omega/|I|: zero below, one above


def _smoothstep(x):
    x = np.clip(np.asarray(x, dtype=float), 0.0, 1.0)
    # exp(-1/0) = 0 exactly, so the ends are 0 and 1
    with np.errstate(divide="ignore"):
        f = np.exp(-1.0 / x)
        g = np.exp(-1.0 / (1.0 - x))
    return f / (f + g)


def _floor_weight(omega, half_width):
    a, b = _FLOOR
    return _smoothstep((omega / half_width - a) / (b - a))


@dataclass(frozen=True)
class CounterexampleConfig:
    N: int
    halfWidth: float

    def __post_init__(self):
        check((self.N >= 8, f"N must be >= 8, got {self.N}"),
              (self.halfWidth > 0, f"halfWidth must be positive, got {self.halfWidth}"))


def counterexample_lhs(cfg, quad_points=96, route="omega"):
    """L2 norm of the squared-free-flow transform for interval data at k = 2N.

    The integrand is (N/2)^2 omega^-2 chi(eta/2+omega) chi(eta/2-omega) over
    the region omega^2 = N phi0(N) - N tau/2 - eta^2/4 > 0, with the smooth
    support-proportional taper regularizing the integrable-only-after-taper
    fold at omega = 0.

    route='omega' integrates in the (eta, omega) variables (the reference
    route, where d tau = (4 omega / N) d omega collapses the weight to
    omega^-1); route='tau' integrates in the (eta, tau) variables directly,
    parameterized about the fold to avoid N^(alpha+1)-scale cancellation.
    Both use nested Gauss-Legendre panels and converge to the same value.

    alpha moves only the fold, tau = 2 phi0(N) - eta^2/(2N), and both routes
    measure from it, so the lhs does not depend on alpha, and neither does
    the `counterexample` subcommand, which takes no alpha.
    """
    if quad_points < 16:
        warnings.warn(
            "counterexample quadrature with < 16 nodes per axis; "
            "support is degenerate at this resolution",
            stacklevel=2,
        )
    half = cfg.halfWidth
    n = float(cfg.N)
    nodes, wts = np.polynomial.legendre.leggauss(quad_points)

    # eta in [0, 2I] (even integrand), omega_max(eta) = I - eta/2
    eta = half * (nodes + 1.0)
    eta_w = half * wts
    omega_max = half - eta / 2.0

    a_floor = _FLOOR[0] * half
    if route == "omega":
        lo = np.minimum(a_floor, omega_max)
        mid = 0.5 * (omega_max[:, None] + lo[:, None]) + 0.5 * (
            omega_max[:, None] - lo[:, None]
        ) * nodes[None, :]
        wq = 0.5 * (omega_max[:, None] - lo[:, None]) * wts[None, :]
        inner = np.sum(_floor_weight(mid, half) / mid * wq, axis=1)
        j = n * 2.0 * float(np.sum(eta_w * inner))
        return math.sqrt(max(j, 0.0))
    if route == "tau":
        # tau = tau_fold(eta) - s, omega^2 = (N/2) s, s in (0, 2 omega_max^2 / N]
        s_max = 2.0 * omega_max**2 / n
        mid = 0.5 * s_max[:, None] * (nodes[None, :] + 1.0)
        wq = 0.5 * s_max[:, None] * wts[None, :]
        om = np.sqrt(n * mid / 2.0)
        inner = np.sum(_floor_weight(om, half) / (n * mid / 2.0) * wq, axis=1)
        j = (n**2 / 4.0) * 2.0 * float(np.sum(eta_w * inner))
        return math.sqrt(max(j, 0.0))
    raise InvalidSpecError([f"unknown quadrature route {route!r}"])


def _power(n, e):
    """float(n)**e, inf past the float range (where a Python float power raises)."""
    try:
        return float(n) ** e
    except OverflowError:
        return math.inf


def counterexample_denominator(cfg, s):
    """||D_x^s u0|| ||u0|| for the interval data, constants dropped: 2 N^s |I|."""
    return 2.0 * _power(cfg.N, s) * cfg.halfWidth


def counterexample_point(point):
    """One N's ratio lhs / (N^s |I|), |I| = N^a, with the lhs by both quadrature routes.

    |I|, 2 N^s |I|, the ratio and the tau route's lhs must be finite and nonzero floats.
    """
    n, quad, s, a = point["N"], point["quadPoints"], point["s"], point["halfWidthExponent"]

    def rule(name, v):
        return (0.0 < v < math.inf,
                f"{name} = {v!r} is not finite and nonzero at N = {n}, s = {s!r}, "
                f"halfWidthExponent = {a!r}")
    half_width = _power(n, a)
    check(rule("|I| = N**a", half_width))
    cfg = CounterexampleConfig(N=n, halfWidth=half_width)
    denom = counterexample_denominator(cfg, s)
    check(rule("2 N**s |I|", denom))
    with np.errstate(all="ignore"):  # |I|^2 past the float range: the rules below name it
        lhs, lhs_tau = (counterexample_lhs(cfg, quad, route=r) for r in ("omega", "tau"))
    value = lhs / denom
    check(rule("the ratio lhs / (2 N**s |I|)", value), rule("the tau route's lhs", lhs_tau))
    return {"N": n, "halfWidth": cfg.halfWidth, "lhs": lhs, "lhsTauRoute": lhs_tau,
            "denominator": denom, "value": value}


def counterexample_summary(rows, cfg):
    """`counterexample`'s own summary keys: the predicted exponent 1/2 - s - a/2 and
    routeAgreement, the worst two-route quadrature disagreement.

    The verdict step has fitted every row's value, so every lhs is positive.
    """
    return {
        "predictedExponent": 0.5 - cfg["s"] - 0.5 * cfg["halfWidthExponent"],
        "routeAgreement": max(abs(r["lhsTauRoute"] - r["lhs"]) / r["lhs"] for r in rows),
    }


# ---------------------------------------------------------------------------
# Bourgain-norm bilinear ratios


def bilinear_ratio(u, v, lhs_spec, rhs_spec, params):
    """||d_x(uv)||_lhs / (||u||_rhs ||v||_rhs) for SpaceTimeBoxes.

    The factors are read on their boxes, as `spacetime_pair` makes them (an
    FFT-ordered array on its occupied box, `fields.box_of`).  The product is
    computed by inverse transform to (t, x, y) samples, pointwise
    multiplication, and forward transform, on a lattice fitted to the two
    boxes so no coefficient of the product is lost or aliased; it is
    returned on its occupied box of the doubled lattice (`st_product_exact`,
    whose `fields.ProductPlan` alone decides how to form the samples: the
    random and comparable members are two real fields and share one inverse
    transform).  d_x is applied to the box in place, so the box is the one
    product-sized array live while the lhs norm runs, and the norm's own
    scratch memory is per tau block: it does not grow with tPoints.
    """
    check((lhs_spec.flavor in ("x", "xweighted", "z"),
           f"lhs flavor must be x/xweighted/z, got {lhs_spec.flavor!r}"),
          (rhs_spec.flavor in ("x", "xweighted"),
           f"rhs flavor must be x/xweighted, got {rhs_spec.flavor!r}"))
    denom = bourgain_norm(u, rhs_spec, params) * bourgain_norm(v, rhs_spec, params)
    check((denom != 0.0, "zero data: the bilinear ratio is undefined"))
    prod = st_product_exact(u, v)
    # a fresh buffer: d_x is applied in place, not in a second product-sized array
    dx = prod.coeffs
    dx.flags.writeable = True
    dx *= 1j * prod.axes()[1].reshape((1, -1) + (1,) * prod.grid.yDims)
    return bourgain_norm(prod, lhs_spec, params) / denom


def spacetime_pair(kind, N, grid, seed):
    """Space-time ensemble member for the bilinear sweeps: two SpaceTimeBoxes.

    random:            independent Hermitian random fields, band [N, 2N],
                       |eta| <= min(0.9, 0.45 eta_Nyquist).
    comparable:        the parabolic spatial pair times a single tau profile.
    high-high-to-low:  one-sided spatial pair times random tau profiles.

    The last two are a spatial box times a tau-profile box, each occupied.
    """
    eta_nyq = grid.eta_nyquist
    if kind == "random":
        band = BandSpec(kLo=N, kHi=2 * N, etaHi=min(0.9, 0.45 * eta_nyq))
        u = st_random_field(grid, band, np.random.SeedSequence((seed, N, 11)))
        v = st_random_field(grid, band, np.random.SeedSequence((seed, N, 12)))
        return u, v
    if kind in ("comparable", "high-high-to-low"):
        ua, va = adversarial_pair(kind, N, grid, seed)
        rng = np.random.default_rng(np.random.SeedSequence((seed, N, 13)))
        nt = grid.tPoints
        if kind == "comparable":
            prof_u = np.zeros(nt, dtype=complex)
            prof_u[0] = 1.0  # concentrate at tau = 0
            prof_v = prof_u
        else:
            prof_u = rng.standard_normal(nt) + 1j * rng.standard_normal(nt)
            prof_v = rng.standard_normal(nt) + 1j * rng.standard_normal(nt)
            prof_u[nt // 2] = 0.0
            prof_v[nt // 2] = 0.0
        pair = []
        for prof, f in ((prof_u, ua), (prof_v, va)):
            (lo_t, p), (lo, c) = fields.occupied(prof), fields.occupied(f.coeffs)
            pair.append(SpaceTimeBox(grid, lo_t + lo, np.multiply.outer(p, c)))
        return tuple(pair)
    raise InvalidSpecError([f"unknown space-time ensemble kind {kind!r}"])


# ---------------------------------------------------------------------------
# sweep points (shared by the CLI and the tests) and the one verdict step

STRICHARTZ2D_KINDS = ("random", "comparable", "high-high-to-low", "low-high")
BILINEAR_KINDS = ("random", "comparable", "high-high-to-low")


def strichartz2d_grid(N):
    return make_grid(2 * N + 2, 256, 32 * math.pi, 1, 64, 2.0)


def strichartz3d_grid(N):
    return make_grid(2 * N + 2, 32, 16 * math.pi, 2, 64, 4.0)


def bilinear_grid(N):
    return make_grid(2 * N + 2, 64, 32 * math.pi, 1, 32, 2.0)


def _sample_row(point, kind, value):
    # one results.csv row of a ratio sweep
    return {"N": point["N"], "kind": kind, "seed": point["seed"], "value": value}


def strichartz2d_point(point):
    """One (N, kind, seed) ratio sample; `point` is a plain dict (picklable)."""
    params = DispersionParams(point["alpha"])
    grid = strichartz2d_grid(point["N"])
    cutoff = CutoffSpec(T=1.0)
    u, v = adversarial_pair(point["kind"], point["N"], grid, point["seed"])
    value = strichartz2d_ratio(u, v, point["s1"], point["s2"], cutoff, params)
    return _sample_row(point, point["kind"], value)


def strichartz3d_point(point):
    params = DispersionParams(point["alpha"])
    grid = strichartz3d_grid(point["N"])
    u, v = adversarial_pair("random", point["N"], grid, point["seed"])
    value = strichartz3d_ratio(u, v, point["s1"], point["s2"], params)
    return _sample_row(point, "random", value)


def bilinear_point(point):
    params = DispersionParams(point["alpha"])
    grid = bilinear_grid(point["N"])
    u, v = spacetime_pair(point["kind"], point["N"], grid, point["seed"])
    lhs = NormSpec(flavor=point["lhsFlavor"], s1=point["s1"], s2=point["s2"],
                   b=point["bPrime"], beta=point["beta"])
    rhs = replace(lhs, flavor=point["rhsFlavor"], b=point["b"])
    value = bilinear_ratio(u, v, lhs, rhs, params)
    return _sample_row(point, point["kind"], value)


def envelope_fit(rows):
    """Fit the per-N maximum ratio (the empirical operator norm) over a sweep.

    A non-finite value raises, naming its N: a NaN loses every comparison.
    """
    best = {}
    for row in rows:
        n, v = int(row["N"]), float(row["value"])
        if not math.isfinite(v):
            raise NonFiniteValueError(f"sweep value at N={n} is not finite: {v}")
        if n not in best or v > best[n]:
            best[n] = v
    return fit_exponent(sorted(best.items()))


def sweep_verdict(rows, fails="estimate fails", holds="bounded"):
    """The one verdict step: fit the rows' per-N envelope and apply `grows`.

    Returns (summary, verdict); the summary holds fittedExponent, residual
    and perNMax, the envelope keyed by str(N).  A fit whose residual exceeds
    `MAX_RESIDUAL` is no power law, and its verdict is "inconclusive".
    """
    fit = envelope_fit(rows)
    summary = {"fittedExponent": fit.exponent, "residual": fit.residual,
               "perNMax": {str(n): v for n, v in fit.samples}}
    verdict = fails if grows(fit.exponent) else holds
    return summary, ("inconclusive" if fit.residual > MAX_RESIDUAL else verdict)
