"""Free propagator, the smooth time cutoff, and the two nonlinear solvers.

The linear flow is the unitary multiplier exp(i t phi(k, eta)) acting on
spectral coefficients.  The quadratic term is written in divergence form,
-(1/2) d_x(u^2), evaluated pseudospectrally with zero-padding, which keeps the
semi-discrete system exactly L2-conservative; the only drift comes from time
integration.

Two independent integrators solve the same truncated system:

* an exponential Runge-Kutta stepper (fourth order, exact on the linear part,
  coefficients built from the phi1/phi2/phi3 family), and
* Picard iteration of the time-localized integral equation, with a smooth
  cutoff of scale T and composite-Simpson prefix quadrature on the t lattice.

Their agreement on small smooth data is the cross-validation oracle used by
the acceptance suite.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import fields
from .errors import NonFiniteValueError, SolverDivergenceError, check
from .fields import SpectralField
from .symbols import phi1, phi2, phi3, require_finite


def _cumulative_simpson(y, dx):
    """Composite-Simpson integrals of `y` from its first sample to each sample, along axis 0.

    A port of `scipy.integrate.cumulative_simpson(y, dx=dx, axis=0,
    initial=0)` for equal intervals and at least 3 samples (GridSpec has
    tPoints >= 8), with its arithmetic step for step, so the values are the
    same bits: each interval is integrated by the quadratic through the
    three samples that start (h1) or end (h2) there; h1 serves the even
    intervals and h2 the odd ones and the last; then a running sum.  As
    scipy's routine is real-only, it runs once on `y`'s real view, each
    entry's real and imaginary parts side by side.
    """
    f = y.reshape(len(y), -1).view(float)
    f1, f2, f3 = f[:-2], f[1:-1], f[2:]
    h1 = dx / 3 * (5 * f1 / 4 + 2 * f2 - f3 / 4)
    h2 = dx / 3 * (5 * f3 / 4 + 2 * f2 - f1 / 4)
    sub = np.empty((len(f) - 1, f.shape[1]))
    sub[:-1:2] = h1[::2]
    sub[1::2] = h2[::2]
    sub[-1] = h2[-1]
    out = np.zeros(f.shape)
    np.cumsum(sub, axis=0, out=out[1:])
    out[1:] += 0.0  # scipy adds `initial` here, which turns -0.0 into 0.0
    return out.view(complex).reshape(y.shape)


def bump(t):
    """C^1 cutoff: 1 on |t|<=1, exp(1 - 1/(1-(|t|-1)^2)) on 1<|t|<2, else 0.

    It is smooth except at |t| = 1: with s = |t| - 1 the taper is
    1 - s^2 + O(s^4), so the second derivative jumps from 0 to -2 there.
    """
    t = np.asarray(t, dtype=float)
    a = np.abs(t)
    out = np.zeros_like(a)
    out[a <= 1.0] = 1.0
    mid = (a > 1.0) & (a < 2.0)
    s = a[mid] - 1.0
    out[mid] = np.exp(1.0 - 1.0 / (1.0 - s * s))
    if np.ndim(t) == 0:
        return float(out)
    return out


@dataclass(frozen=True)
class CutoffSpec:
    """Rescaled smooth cutoff psi_T(t) = psi(t/T): 1 on |t|<=T, support (-2T, 2T)."""

    T: float = 1.0

    def __post_init__(self):
        check((self.T > 0, f"cutoff scale T must be positive, got {self.T}"))

    def values(self, t):
        return bump(np.asarray(t, dtype=float) / self.T)

    @property
    def support_halfwidth(self):
        return 2.0 * self.T

    def window_rule(self, t_window):
        """The one cutoff-window rule, as a (holds, message) rule of `errors.check`:
        the support fits tWindow, to 1e-12 relative."""
        return (self.support_halfwidth <= t_window * (1.0 + 1e-12),
                f"cutoff support halfwidth {self.support_halfwidth} exceeds tWindow {t_window}")


def raised_cosine_window(grid):
    """Window equal to 1 inside, cosine-tapered over the outer 10% per side.

    It is C^1: the second derivative jumps where the taper starts,
    at |t| = 0.9 tWindow.
    """
    t = grid.t_axis()
    u = np.abs(t) / grid.tWindow
    w = np.ones_like(u)
    m = u > 0.9
    w[m] = 0.5 * (1.0 + np.cos(math.pi * (u[m] - 0.9) / 0.1))
    return w


def free_evolve(f, t, params):
    """Apply the unitary group exp(i t phi(D)); preserves every |coefficient|."""
    phi = fields.phi_grid(f.grid, params)
    return SpectralField(f.grid, f.coeffs * np.exp(1j * t * phi))


def _quadratic_term(grid, dealias=2.0 / 3.0):
    """Pseudospectral -(1/2) d_x(u^2) on coefficient arrays of one grid.

    Returns the term and its padded grid's size.  The term acts on the
    trailing axes, so an array of several fields (leading axes) gives each
    field's term.  `fields.dealiased_square` builds its index maps once, so
    build this once per solve.
    """
    pad = fields.dealias_grid(grid, dealias)
    square, size = fields.dealiased_square(grid.spatial_shape, pad.spatial_shape)
    k = grid.k_axis().reshape((-1,) + (1,) * grid.yDims)
    half_ik = -0.5j * k * grid.deta**grid.yDims
    k_zero = (Ellipsis, 0) + (slice(None),) * grid.yDims

    def term(c):
        out = half_ik * square(c)
        out[k_zero] = 0.0
        fields.zero_nyquist(out, grid)
        return out

    return term, size


@dataclass(frozen=True)
class SolveConfig:
    dt: float
    T: float
    dealias: float = 2.0 / 3.0

    def __post_init__(self):
        check((0 < self.dt <= self.T < math.inf,
               f"need 0 < dt <= T < inf, got dt={self.dt}, T={self.T}"),
              (0 < self.dealias <= 1.0, f"dealias fraction must lie in (0, 1], got {self.dealias}"))


@dataclass
class Trajectory:
    """What a stepper run hands back: the drift record, the end state and one kept state."""

    times: np.ndarray  # 0, then every max(1, n_steps // 64) steps, and the end
    l2_drift: np.ndarray  # relative drift |norm(t)/norm(0) - 1| at each of `times`
    final: SpectralField
    kept: object = None  # the state after step `keep_step`, when one was asked for


def _etdrk4_tables(grid, params, dt):
    phi = fields.phi_grid(grid, params)
    z = 1j * dt * phi
    with np.errstate(over="ignore", invalid="ignore"):  # (dt phi)^2 may overflow
        p1, p2, p3 = phi1(z), phi2(z), phi3(z)
        tables = (np.exp(z), np.exp(0.5 * z), 0.5 * dt * phi1(0.5 * z),
                  dt * (p1 - 3.0 * p2 + 4.0 * p3), dt * (p2 - 2.0 * p3), dt * (4.0 * p3 - p2))
    require_finite(params, "an ETDRK4 table entry", *tables)
    return tables


def whole_steps(T, dt):
    """True when T is an integer multiple of dt, to 1e-9 relative (absolute below T = 1)."""
    return abs(round(T / dt) * dt - T) <= 1e-9 * max(1.0, T)


def evolve_nonlinear(f, cfg, params, keep_step=None):
    """Fourth-order exponential stepper for the full equation.

    The linear flow is applied exactly; the quadratic term uses the cached
    dealiased product.  The relative L2 drift is recorded every
    max(1, n_steps // 64) steps and at the end; the state after the last
    step is `Trajectory.final`, and the state after step `keep_step`
    (1 <= keep_step <= the step count), if given, is `Trajectory.kept`.  No
    other state is held, so the memory does not grow with the step count.
    Aborts with SolverDivergenceError if the solution stops being finite at
    any step, or if the L2 norm at a drift point has grown tenfold
    (instability / dt too large).
    """
    g = f.grid
    n_steps = int(round(cfg.T / cfg.dt))
    check((whole_steps(cfg.T, cfg.dt), f"T = {cfg.T} is not an integer multiple of dt = {cfg.dt}"),
          (keep_step is None or 1 <= keep_step <= n_steps,
           f"keep_step must lie in [1, {n_steps}], got {keep_step}"))
    every = max(1, n_steps // 64)

    e_full, e_half, q, f1, f2, f3 = _etdrk4_tables(g, params, cfg.dt)
    nl, _ = _quadratic_term(g, cfg.dealias)

    u = fields.project_mean_zero(f).coeffs
    norm0 = math.sqrt(float(np.sum(np.abs(u) ** 2)))
    times = [0.0]
    drift = [0.0]
    kept = None

    for n in range(1, n_steps + 1):
        nu = nl(u)
        a = e_half * u + q * nu
        na = nl(a)
        b = e_half * u + q * na
        nb = nl(b)
        c = e_half * a + q * (2.0 * nb - nu)
        nc = nl(c)
        u = e_full * u + f1 * nu + 2.0 * f2 * (na + nb) + f3 * nc
        if not math.isfinite(np.vdot(u, u).real):
            raise SolverDivergenceError(
                f"the solution is no longer finite at t = {n * cfg.dt:g}; reduce dt"
            )
        if n == keep_step:
            kept = SpectralField(g, u.copy())
        if n % every == 0 or n == n_steps:
            nrm = math.sqrt(float(np.sum(np.abs(u) ** 2)))
            if norm0 > 0 and nrm > 10.0 * norm0:
                raise SolverDivergenceError(
                    f"L2 norm grew by {nrm / norm0:.2f}x at t = {n * cfg.dt:g}; "
                    "reduce dt"
                )
            times.append(n * cfg.dt)
            drift.append(abs(nrm / norm0 - 1.0) if norm0 > 0 else 0.0)

    return Trajectory(np.array(times), np.array(drift), SpectralField(g, u), kept)


def observed_order(f, params, T, dt, dealias=2.0 / 3.0, finest=None):
    """Richardson estimate of the stepper's convergence order on fixed data.

    Solves to T at steps dt, dt/2 and dt/4.  `finest`, if given, is the state
    at T of the dt/4 solve, taken from a solve the caller already ran from the
    same data with the same step and dealias fraction (a longer solve's state
    after step round(T / (dt/4)) is that state bit for bit); it is then not
    solved again.  Raises NonFiniteValueError when a difference between
    successive step sizes is exactly zero (zero data, for one), where no order
    can be read.
    """

    def final(scale):
        cfg = SolveConfig(dt=dt / scale, T=T, dealias=dealias)
        return evolve_nonlinear(f, cfg, params).final

    finals = [final(1), final(2), final(4) if finest is None else finest]
    e1, e2 = (SpectralField(f.grid, a.coeffs - b.coeffs).l2_norm()
              for a, b in zip(finals, finals[1:]))
    if e1 == 0.0 or e2 == 0.0:
        raise NonFiniteValueError(
            f"observed order undefined: step-halving differences {e1!r}, {e2!r}"
        )
    return math.log2(e1 / e2)


@dataclass
class PicardResult:
    grid: object
    coeffs: np.ndarray  # (tPoints, ...) final iterate over the whole lattice
    diff_norms: list  # sup-in-t L2 norm of successive iterate differences

    def at_time(self, t):
        """The iterate at t, a whole number of the grid's dt (`whole_steps`) inside its window."""
        g = self.grid
        row = g.tPoints // 2 + int(round(t / g.dt))
        check((whole_steps(t, g.dt) and 0 <= row < g.tPoints,
               f"t = {t} is not on the time lattice"))
        return SpectralField(g, self.coeffs[row])


def picard_solve(f, cutoff, iters, params):
    """Picard iteration of the time-localized integral equation.

    Iterates u_{n+1}(t) = psi_1(t) e^{it phi(D)} u0
                          - psi_T(t) int_0^t e^{i(t-t') phi(D)}
                                     (psi_T u_n)(psi_T u_n)_x dt'
    on the grid's t lattice, with the prefix integrals evaluated by composite
    Simpson quadrature and the quadratic term dealiased at 2/3.  Returns the
    final iterate over the lattice plus the successive-difference norms;
    aborts if one of those norms is not finite, or if they grow three
    iterations in a row.

    It holds three arrays the size of the (t, k, eta) lattice: e^{it phi},
    formed in one expression before the other two exist, the iterate, and a
    work array that takes the integrand and then, in place, its prefix
    integrals.  The integrand is 0 where psi_T is, so the quadratic term is
    formed only on the t rows where psi_T != 0, and not in the first
    iteration, whose iterate is 0; it goes in blocks of whole t rows,
    `fields.row_blocks` of the padded grid, each row bit for bit as it would
    come alone.  The prefix integrals go in blocks of lattice columns, each
    block in one Simpson pass over its real view; the update goes in blocks
    of t rows: the scratch is a few block-sized arrays, whatever tPoints is.
    """
    g = f.grid
    check((iters >= 1, f"iters must be >= 1, got {iters}"), cutoff.window_rule(g.tWindow))
    t = g.t_axis()
    i_zero = g.tPoints // 2
    assert abs(t[i_zero]) < 1e-12 * g.tWindow

    shape_t = (-1,) + (1,) * (1 + g.yDims)
    phi = fields.phi_grid(g, params)
    psi1 = bump(t).reshape(shape_t)
    psiT = cutoff.values(t).reshape(shape_t)
    live = np.flatnonzero(psiT)  # one run of rows: psi_T > 0 on (-2T, 2T) alone
    lo, hi = live[0], live[-1] + 1
    c0 = fields.project_mean_zero(f).coeffs
    nl, pad_size = _quadratic_term(g)
    blocks = list(fields.row_blocks(g.tPoints, phi.size))
    e_plus = np.exp(1j * t.reshape(shape_t) * phi[None, ...])
    cur, work = np.zeros_like(e_plus), np.zeros_like(e_plus)
    columns = work.reshape(g.tPoints, -1)
    axes = tuple(range(1, e_plus.ndim))
    d = np.empty(g.tPoints)
    diffs = []

    for n in range(iters):
        if n > 0:  # the first iterate is 0, and so is its integrand
            work[:lo] = work[hi:] = 0.0
            for b in fields.row_blocks(hi, pad_size, lo):
                work[b] = np.conj(e_plus[b]) * (psiT[b] ** 2 * nl(cur[b]))
            for q in fields.row_blocks(columns.shape[1], 2 * g.tPoints):
                col = columns[:, q]
                col[...] = _cumulative_simpson(col, g.dt)
                col -= col[i_zero]
        for b in blocks:
            nxt = psi1[b] * e_plus[b] * c0 + psiT[b] * e_plus[b] * work[b]
            d[b] = np.sqrt(g.xy_measure * np.sum(np.abs(nxt - cur[b]) ** 2, axis=axes))
            cur[b] = nxt
        diffs.append(float(d.max()))
        if not math.isfinite(diffs[-1]):
            raise SolverDivergenceError(
                f"Picard successive difference is {diffs[-1]} at iteration "
                f"{len(diffs)}; shrink T or the data"
            )
        if len(diffs) >= 4 and diffs[-4] < diffs[-3] < diffs[-2] < diffs[-1]:
            raise SolverDivergenceError(
                "Picard successive differences grew three iterations in a row; "
                "shrink T or the data"
            )

    return PicardResult(g, cur, diffs)
