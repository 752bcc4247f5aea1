"""Discrete spectral fields on T_x x R_y (and T_x x R_y^2) and their norms.

Representation
--------------
The nonperiodic y (and t) directions are truncated to periodic boxes, so every
field is a trigonometric polynomial and all continuum formulas survive as
lattice sums.  A SpectralField stores coefficients C(k, q) in FFT order with
the synthesis convention

    u(x, y)    = sum_k sum_q C(k, q) * deta^d * exp(i(k x + eta_q . y)),

and a SpaceTimeBox stores G(p, k, q) with

    u(t, x, y) = sum_{p,k,q} G * dtau * deta^d * exp(i(tau_p t + k x + eta_q . y)),

i.e. coefficients are continuum-normalized densities and the lattice spacings
are the quadrature weights.  With these conventions Parseval is exact:

    ||u||_{L2(TxR^d)}^2    = (2 pi)^{1+d} deta^d  sum |C|^2
    ||u||_{L2(RtxTxR^d)}^2 = (2 pi)^{2+d} dtau deta^d sum |G|^2

`to_physical` and `to_spectral` are the one step between coefficients and
samples, for a SpectralField and a SpaceTimeBox alike.

The x axis carries 2*kMax+1 collocation points (modes k in [-kMax, kMax], no
Nyquist ambiguity); y and t axes are even-length power-of-two lattices whose
Nyquist rows are kept identically zero by every constructor so that real
fields have exact Hermitian symmetry.

A SpaceTimeBox holds G over a box of signed frequencies only, the lattice
being zero outside it; every space-time value is one.  `occupied` is the one
step from an FFT-ordered array to its occupied box (`box_of` makes it a
SpaceTimeBox), and SpaceTimeBox.whole() the one step back.
Each quadratic product has its caller's function: `ProductPlan`, the exact
product of two boxes, and `dealiased_square`, the solvers' 2/3-rule square.

Mean-zero condition: all k = 0 coefficients vanish.  project_mean_zero
enforces it.  The phase phi(k, eta) = |k|^alpha k - |eta|^2/k is undefined at
k = 0; `phase_mesh`, the one function that forms phi on a mesh, sets it to 0
there, and Bourgain-type norms give the k = 0 column weight 0 (those
coefficients are zero for any admissible field).
"""

import itertools
import json
import math
import numbers
import struct
from dataclasses import dataclass, asdict, replace

import numpy as np

from . import symbols
from .errors import InvalidSpecError, check


def _eta_sq(etas):
    """|eta|^2 over the open mesh of the eta axes, one per y dimension."""
    return sum(e**2 for e in np.ix_(*etas))


def _next_fast_len(n):
    """The smallest 2^a 3^b 5^c 7^d 11^e >= n: a length pocketfft transforms
    without falling back to Bluestein's algorithm."""
    m = max(n, 1)
    while True:
        r = m
        for p in (2, 3, 5, 7, 11):
            while r % p == 0:
                r //= p
        if r == 1:
            return m
        m += 1


@dataclass(frozen=True)
class GridSpec:
    """Lattice geometry: x modes, y box/resolution, time window/resolution."""

    kMax: int
    yPoints: int
    yLength: float
    yDims: int = 1
    tPoints: int = 64
    tWindow: float = 2.0

    def __post_init__(self):
        counts = {"kMax": self.kMax, "yPoints": self.yPoints,
                  "tPoints": self.tPoints, "yDims": self.yDims}
        problems = [f"{name} must be an integer, got {v!r}" for name, v in counts.items()
                    if isinstance(v, bool) or not isinstance(v, numbers.Integral)]
        if not problems:  # the rules below compare integers
            if self.kMax < 1:
                problems.append(f"kMax must be >= 1, got {self.kMax}")
            for name in ("yPoints", "tPoints"):
                if not (counts[name] >= 8 and (counts[name] & (counts[name] - 1)) == 0):
                    problems.append(f"{name} must be a power of two >= 8, got {counts[name]}")
            if self.yDims not in (1, 2):
                problems.append(f"yDims must be 1 or 2, got {self.yDims}")
        for name, v in (("yLength", self.yLength), ("tWindow", self.tWindow)):
            if isinstance(v, bool) or not (isinstance(v, numbers.Real) and 0 < v < math.inf):
                problems.append(f"{name} must be positive and finite, got {v!r}")
        if problems:
            raise InvalidSpecError(problems)

    # lattice spacings
    @property
    def nx(self):
        return 2 * self.kMax + 1

    @property
    def deta(self):
        return 2.0 * math.pi / self.yLength

    @property
    def eta_nyquist(self):
        return self.deta * self.yPoints / 2

    @property
    def dy(self):
        return self.yLength / self.yPoints

    @property
    def dt(self):
        return 2.0 * self.tWindow / self.tPoints

    @property
    def dtau(self):
        return math.pi / self.tWindow

    # axes (FFT order for frequencies, physical order for samples)
    def k_axis(self):
        return np.fft.fftfreq(self.nx, 1.0 / self.nx).astype(int)

    def eta_axis(self):
        return np.fft.fftfreq(self.yPoints, 1.0 / self.yPoints) * self.deta

    def tau_axis(self):
        return np.fft.fftfreq(self.tPoints, 1.0 / self.tPoints) * self.dtau

    def x_axis(self):
        return 2.0 * math.pi * np.arange(self.nx) / self.nx

    def y_axis(self):
        return -0.5 * self.yLength + self.dy * np.arange(self.yPoints)

    def t_axis(self):
        return -self.tWindow + self.dt * np.arange(self.tPoints)

    @property
    def spatial_shape(self):
        return (self.nx,) + (self.yPoints,) * self.yDims

    @property
    def st_shape(self):
        return (self.tPoints,) + self.spatial_shape

    def eta_sq_grid(self):
        """|eta|^2 on the y-frequency lattice, shape (yPoints,)*yDims."""
        return _eta_sq((self.eta_axis(),) * self.yDims)

    @property
    def xy_measure(self):
        return (2.0 * math.pi) ** (1 + self.yDims) * self.deta**self.yDims

    @property
    def st_measure(self):
        return self.xy_measure * 2.0 * math.pi * self.dtau


make_grid = GridSpec  # it raises InvalidSpecError listing every violation


def _frozen(arr):
    arr = np.ascontiguousarray(arr, dtype=np.complex128)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class SpectralField:
    """Coefficients over the (k, eta) lattice; immutable after construction."""

    grid: GridSpec
    coeffs: np.ndarray

    def __post_init__(self):
        shape, full = self.coeffs.shape, self.grid.spatial_shape
        check((shape == full, f"coeffs shape {shape} != grid {full}"))
        object.__setattr__(self, "coeffs", _frozen(self.coeffs))

    def l2_norm(self):
        return math.sqrt(self.grid.xy_measure * float(np.sum(np.abs(self.coeffs) ** 2)))


@dataclass(frozen=True)
class SpaceTimeBox:
    """Coefficients over a box of the (tau, k, eta) lattice of `grid`: every space-time value.

    Position p of axis i holds the signed frequency lo[i] + p (times the
    lattice step dtau, 1 or deta), inside the range `grid` holds, and the
    lattice is zero outside the box.  The box is a read-only view of
    `coeffs`, which need not be contiguous: wrapping it does not copy it.
    `box_of` takes an FFT-ordered array to its occupied box, and `whole()`
    scatters a box back to one.
    """

    grid: GridSpec
    lo: tuple
    coeffs: np.ndarray

    def __post_init__(self):
        shape, full = self.coeffs.shape, self.grid.st_shape
        inside = len(self.lo) == len(shape) == len(full) and all(
            -(n // 2) <= lo <= (n - 1) // 2 - m + 1 for lo, m, n in zip(self.lo, shape, full))
        check((inside, f"box at {self.lo} of shape {shape} is not inside grid {full}"))
        self.coeffs.flags.writeable = False

    def axes(self):
        """The signed frequencies of each axis, in order: tau, k, then eta per y axis."""
        return box_axes(self.grid, self.lo, self.coeffs.shape)

    def whole(self):
        """The FFT-ordered array of `grid.st_shape` that the box stands for: zero outside it."""
        c = np.zeros(self.grid.st_shape, dtype=complex)
        c[_box_index(self.lo, self.coeffs.shape, c.shape)] = self.coeffs
        return c

    def l2_norm(self):
        return math.sqrt(self.grid.st_measure * float(np.sum(np.abs(self.coeffs) ** 2)))


def box_axes(grid, lo, shape):
    """The signed frequencies of each axis of a box at `lo` of `shape`: (tau,) k, eta per y axis."""
    steps = ((grid.dtau, 1) + (grid.deta,) * grid.yDims)[-len(shape):]
    return tuple(np.arange(a, a + m) * step for a, m, step in zip(lo, shape, steps))


def box_of(grid, c):
    """The SpaceTimeBox of the FFT-ordered coefficients `c` of `grid`: their occupied box."""
    check((c.shape == grid.st_shape, f"coeffs shape {c.shape} != grid {grid.st_shape}"))
    return SpaceTimeBox(grid, *occupied(c))


def project_mean_zero(f):
    """Zero the k = 0 plane of a SpectralField; idempotent, touches nothing else."""
    c = np.array(f.coeffs)
    c[0] = 0.0
    return SpectralField(f.grid, c)


def _origin(g, ndim):
    """The origin character times the lattice weight, over an array of `ndim` axes.

    The one factor where the synthesis convention meets numpy's transforms:
    (-1)^q on every y axis, whose origin is -L/2 (and on t, whose origin is
    -tWindow, for a space-time array), times deta^d (and dtau).  It
    broadcasts over a spatial or a space-time array.
    """
    st = ndim == 2 + g.yDims
    lengths = ((g.tPoints,) if st else ()) + (1,) + (g.yPoints,) * g.yDims
    # on these even-length axes q and its FFT index have the same parity
    signs = np.ix_(*(1.0 - 2.0 * (np.arange(n) % 2) for n in lengths))
    return math.prod(signs) * (g.dtau * g.deta**g.yDims if st else g.deta**g.yDims)


def to_physical(f):
    """A SpectralField or SpaceTimeBox -> its samples on (x_j, y_m) or (t_n, x_j, y_m), complex."""
    a = f.whole() if isinstance(f, SpaceTimeBox) else f.coeffs
    return np.fft.ifftn(a * _origin(f.grid, a.ndim)) * a.size


def to_spectral(samples, grid):
    """Samples of either shape -> SpectralField or SpaceTimeBox: to_physical's exact inverse."""
    a = np.asarray(samples)
    check((a.shape in (grid.spatial_shape, grid.st_shape),
           f"sample shape {a.shape} fits neither grid shape"))
    c = np.fft.fftn(a) / a.size / _origin(grid, a.ndim)
    return SpectralField(grid, c) if a.shape == grid.spatial_shape else box_of(grid, c)


def phase_mesh(params, k, *etas):
    """phi(k, eta) on the open mesh of a k axis and its eta axes, 0 at k = 0, and finite."""
    kc = np.reshape(k, (-1,) + (1,) * len(etas)).astype(float)
    phi = symbols.phase_grid(params, np.where(kc == 0, 1.0, kc), _eta_sq(etas)[None, ...])
    phi[kc.ravel() == 0] = 0.0
    symbols.require_finite(params, "phi", phi)
    return phi


def phi_grid(grid, params):
    """phi(k, eta) over the grid's whole (k, eta) lattice, `phase_mesh` of its axes."""
    return phase_mesh(params, grid.k_axis(), *(grid.eta_axis(),) * grid.yDims)


def _bracket(x):
    return np.sqrt(1.0 + np.asarray(x, dtype=float) ** 2)


# ---------------------------------------------------------------------------
# norms


@dataclass(frozen=True)
class NormSpec:
    """Selects one of the Bourgain norm families (see `bourgain_norm`) and its exponents.

    flavor: 'x' | 'xweighted' | 'y' | 'z'.
    s1/s2 weight <k>/<eta>; b weights the modulation bracket <tau - phi>;
    beta is the exponent of the extra (1 + <sigma>/<k>^(alpha+1)) factor used
    by the weighted/endpoint flavors (the z flavor pins its quadratic part at
    b = -1/2).
    """

    flavor: str
    s1: float = 0.0
    s2: float = 0.0
    b: float = 0.0
    beta: float = 0.0

    def __post_init__(self):
        check((self.flavor in ("x", "xweighted", "y", "z"), f"unknown norm flavor {self.flavor!r}"),
              (self.beta >= 0, f"beta must be >= 0, got {self.beta}"))


def sobolev_norm(f, s1, s2):
    """Anisotropic Sobolev norm ||<k>^s1 <eta>^s2 C|| with the lattice measure."""
    g = f.grid
    w = _sobolev_weight(g.k_axis(), g.eta_sq_grid(), s1, s2)
    total = float(np.sum(np.abs(w * f.coeffs) ** 2))
    return math.sqrt(g.xy_measure * total)


def _sobolev_weight(k, eta_sq, s1, s2):
    """<k>^s1 <eta>^s2 over the (k, eta) lattice of a k axis and the |eta|^2 grid."""
    wk = _bracket(k) ** s1
    weta = _bracket(np.sqrt(eta_sq)) ** s2
    return wk.reshape((-1,) + (1,) * eta_sq.ndim) * weta[None, ...]


# `bourgain_norm`, `ProductPlan.box_product` and `evolution.picard_solve` go
# over blocks of rows (or columns), about this many entries at a time, at
# least one row: each of a block's few temporaries takes 0.5-1 MiB, whatever
# tPoints is
_BLOCK_ENTRIES = 1 << 16


def row_blocks(stop, row_entries, start=0):
    """Slices of rows start..stop, rows of `row_entries` entries, about _BLOCK_ENTRIES each."""
    step = max(1, _BLOCK_ENTRIES // row_entries)
    for p in range(start, stop, step):
        yield slice(p, min(p + step, stop))


def bourgain_norm(F, spec, params):
    """Bourgain-family norms of a SpaceTimeBox.

    x:          l2 of <k>^s1 <eta>^s2 <sigma>^b |G|
    xweighted:  additionally multiplied by (1 + <sigma>/<k>^(alpha+1))^beta
    y:          l2_{k,eta} of l1_tau of <k>^s1 <eta>^s2 <sigma>^(-1) (weight)^beta |G|
    z:          y  +  xweighted at b = -1/2

    All carry the lattice measures that make the zero-exponent case coincide
    with the space-time L2 norm; the k = 0 column has weight 0 (mean zero),
    wherever it falls.  The weights, with sigma = tau - phi(k, eta), are
    built from the box's own axes, lo .. lo + n - 1, so it is summed over
    its own entries only, in one pass over blocks of whole tau rows: the
    scratch memory is a few block-sized float arrays plus a few (k, eta)
    ones, and does not grow with tPoints.
    """
    check((isinstance(F, SpaceTimeBox), "bourgain_norm expects a SpaceTimeBox"))
    if spec.flavor == "z":
        y = bourgain_norm(F, replace(spec, flavor="y"), params)
        xw = bourgain_norm(F, replace(spec, flavor="xweighted", b=-0.5), params)
        return y + xw

    g = F.grid
    tau, k, *etas = F.axes()
    tau = tau.reshape((-1,) + (1,) * (1 + g.yDims))
    b = -1.0 if spec.flavor == "y" else spec.b
    weighted = spec.flavor != "x" and spec.beta != 0.0
    phi = phase_mesh(params, k, *etas)
    # every block's <sigma> is at most sqrt(1 + (max |tau| + |phi|)^2)
    with np.errstate(over="ignore"):
        symbols.require_finite(params, "<tau - phi>", (np.abs(tau).max() + np.abs(phi)) ** 2)
    base = _sobolev_weight(k, _eta_sq(etas), spec.s1, spec.s2)
    base[k == 0] = 0.0  # the k = 0 column (mean zero)
    ka = _bracket(k.reshape((-1,) + (1,) * g.yDims)) ** (params.alpha + 1.0)
    inner = total = 0.0
    for p in row_blocks(tau.shape[0], phi.size):
        bs = tau[p] - phi
        np.square(bs, out=bs)
        bs += 1.0
        np.sqrt(bs, out=bs)  # <sigma>
        w = bs**b
        w *= base
        if weighted:
            bs /= ka
            bs += 1.0
            bs **= spec.beta
            w *= bs
        w *= np.abs(F.coeffs[p], out=bs)
        if spec.flavor == "y":
            inner = inner + np.sum(w, axis=0)  # l1 in tau first
        else:
            np.square(w, out=w)
            total += float(np.sum(w))
    if spec.flavor != "y":
        return math.sqrt(g.st_measure * total)
    prefac = (2.0 * math.pi) ** (0.5 * (2 + g.yDims))
    return prefac * math.sqrt(g.deta**g.yDims * float(np.sum((g.dtau * inner) ** 2)))


def mixed_norm(F, r, p, q):
    """Fourier-in-x mixed norm: per k take L^q_y then L^p_t, then l^{r'}_k.

    The x transform carries the unitary sqrt(2 pi) factor, so r = p = q = 2
    reproduces the space-time L2 norm exactly while single-k fields give
    r-independent values.  It reads the SpaceTimeBox's whole array.
    """
    check((1.0 <= r <= 2.0, f"r must lie in [1, 2], got {r}"),
          (p >= 1.0 and q >= 1.0, f"p, q must lie in [1, inf], got p={p}, q={q}"))
    g = F.grid
    # inverse transform in tau and y only: h(k; t, y), unitary in x
    y_axes = tuple(range(2, 2 + g.yDims))
    a = F.whole()
    h = np.fft.ifftn(a * _origin(g, a.ndim), axes=(0,) + y_axes) * (a.size // g.nx)
    h = h * math.sqrt(2.0 * math.pi)
    mod = np.abs(h)

    dy_d = g.dy**g.yDims
    if math.isinf(q):
        ly = mod.max(axis=y_axes)
    else:
        ly = (dy_d * np.sum(mod**q, axis=y_axes)) ** (1.0 / q)
    if math.isinf(p):
        lt = ly.max(axis=0)
    else:
        lt = (g.dt * np.sum(ly**p, axis=0)) ** (1.0 / p)
    if r == 1.0:
        return float(lt.max())
    rp = r / (r - 1.0)
    return float(np.sum(lt**rp) ** (1.0 / rp))


# ---------------------------------------------------------------------------
# random band-limited data


@dataclass(frozen=True)
class BandSpec:
    """Supported band: kLo <= |k| <= kHi and |eta| <= etaHi."""

    kLo: int
    kHi: int
    etaHi: float


def conj_mirror(arr):
    # conj(arr[-q]): index q -> (-q) mod n on every axis
    return np.roll(np.flip(np.conj(arr)), 1, axis=tuple(range(arr.ndim)))


def zero_nyquist(c, grid):
    # axes counted from the end, so `c` may carry leading batch axes
    for ax in range(grid.yDims):
        c[(Ellipsis, grid.yPoints // 2) + (slice(None),) * ax] = 0.0


def _band_mask(grid, band):
    check((band.kHi <= grid.kMax, f"k band up to {band.kHi} exceeds grid kMax {grid.kMax}"),
          (band.etaHi <= grid.eta_nyquist,
           f"eta band up to {band.etaHi} exceeds lattice Nyquist {grid.eta_nyquist:g}"))
    absk = np.abs(grid.k_axis())
    mk = (absk >= max(band.kLo, 1)) & (absk <= band.kHi)  # never k = 0: mean zero
    meta = np.sqrt(grid.eta_sq_grid()) <= band.etaHi
    return mk.reshape((-1,) + (1,) * grid.yDims) & meta[None, ...]


def random_field(grid, band, seed, side=None):
    """Band-limited complex-Gaussian data; deterministic for a fixed seed.

    side=None Hermitian-symmetrizes so physical samples are real.  side='+'
    or '-' instead keeps only positive/negative k (complex-valued field, used
    by the directional interaction generators).
    """
    rng = np.random.default_rng(seed)
    z = (
        rng.standard_normal(grid.spatial_shape)
        + 1j * rng.standard_normal(grid.spatial_shape)
    ) / math.sqrt(2.0)
    z *= _band_mask(grid, band)
    zero_nyquist(z, grid)
    if side is None:
        z = (z + conj_mirror(z)) / math.sqrt(2.0)
    elif side == "+":
        z[grid.k_axis() < 0] = 0.0
    elif side == "-":
        z[grid.k_axis() > 0] = 0.0
    return SpectralField(grid, z)


def st_random_field(grid, band, seed):
    """Random real mean-zero space-time data, as the SpaceTimeBox of its (k, eta) band.

    The box holds every tau row but the Nyquist one.  Each part (real, then
    imaginary) is one draw of normals over all of st_shape, read on the box
    through the same index as `occupied`.  The box is symmetric, so the
    Hermitian mirror of q is the box reversed.
    """
    mask = _band_mask(grid, band)
    zero_nyquist(mask, grid)
    lo, inside = occupied(mask)
    h = grid.tPoints // 2 - 1
    index = _box_index((-h,) + lo, (2 * h + 1,) + inside.shape, grid.st_shape)
    rng = np.random.default_rng(seed)
    z = rng.standard_normal(grid.st_shape)[index]
    z = (z + 1j * rng.standard_normal(grid.st_shape)[index]) / math.sqrt(2.0)
    z *= inside
    z = (z + np.conj(np.flip(z))) / math.sqrt(2.0)
    return SpaceTimeBox(grid, (-h,) + lo, z)


# ---------------------------------------------------------------------------
# zero-padded products


def _box_index(lo, m, shape):
    # index of the m[i] frequencies from lo[i] per FFT-ordered axis (of `shape`)
    return (Ellipsis,) + np.ix_(*(np.arange(a, a + k) % n for a, k, n in zip(lo, m, shape)))


def occupied(c):
    """The occupied box of the FFT-ordered array `c`: its low corner and its entries there.

    Per axis the box spans the signed frequencies lo..hi of the nonzero
    entries.  An all-zero array gets the one entry at frequency 0 on every
    axis, so its products come out zero with no special case.
    """
    nonzero = c != 0
    spans = []
    for ax, n in enumerate(c.shape):
        hit = np.any(nonzero, axis=tuple(i for i in range(c.ndim) if i != ax))
        q = ((np.arange(n) + n // 2) % n - n // 2)[hit].tolist() or [0]  # fftfreq order
        spans.append((min(q), max(q)))
    lo, hi = zip(*spans)
    return lo, c[_box_index(lo, np.subtract(hi, lo) + 1, c.shape)]


def _runs(at, pad):
    # one axis's map, entry at[i] to padded position pad[i], as runs split
    # where either index stops being consecutive: (unpadded, padded) slices
    cuts = np.flatnonzero((np.diff(at) != 1) | (np.diff(pad) != 1)) + 1
    bounds = [0, *cuts.tolist(), at.size]
    return [
        (slice(int(at[a]), int(at[a]) + b - a), slice(int(pad[a]), int(pad[a]) + b - a))
        for a, b in zip(bounds[:-1], bounds[1:])
    ]


def _box_runs(box, pad_shape):
    # per axis, the run(s) from position q - lo of a box lo..hi to q mod m
    return [_runs(np.arange(hi - lo + 1), np.arange(lo, hi + 1) % m)
            for (lo, hi), m in zip(box, pad_shape)]


def _hermitian_energy(c):
    # sum |c|^2 over a symmetric box `c` if c[-q] == conj(c[q]) bit for bit,
    # else None; the mirror of q is the box reversed
    if not np.array_equal(c, np.conj(np.flip(c))):
        return None
    return float(np.sum(np.square(np.abs(c))))


def _copies(axis_runs):
    # every combination of one run per axis, as a pair of index tuples over
    # the trailing axes: the runs' unpadded slices and their padded ones
    return [
        tuple((Ellipsis, *(run[i] for run in combo)) for i in (0, 1))
        for combo in itertools.product(*axis_runs)
    ]


def _lines(axis_runs, forward):
    # per axis, last first: the index tuples of the views whose lines along
    # that axis get transformed, one view per combination of padded runs.
    # When the inverse reaches axis j, the axes i < j are still nonzero only
    # on the placed runs; when the forward one reaches axis j, the axes i > j
    # are done and the crop reads only their kept runs
    d = len(axis_runs)
    padded = [[run[1] for run in runs] for runs in axis_runs]
    full = [slice(None)]
    plan = []
    for j in reversed(range(d)):
        axes = [padded[i] if (i > j if forward else i < j) else full for i in range(d)]
        plan.append((j - d, [(Ellipsis, *c) for c in itertools.product(*axes)]))
    return plan


def _transform(a, fft, lines):
    # numpy's fftn order, one axis at a time, on views of `a` in place
    for axis, views in lines:
        for index in views:
            v = a[index]
            fft(v, axis=axis, out=v)


def _place(c, copies, pad_shape, lines):
    # `c` in a zero padded array by its copies (leading batch axes kept),
    # then its samples, times the padded size, if given the inverse lines
    big = np.zeros(c.shape[: c.ndim - len(pad_shape)] + pad_shape, dtype=complex)
    for at, pad in copies:
        big[pad] = c[at]
    if lines:
        _transform(big, np.fft.ifft, lines)
        big *= math.prod(pad_shape)
    return big


def dealiased_square(shape, pad_shape):
    """The dealiased square of FFT-ordered coefficients of `shape`, zero-padded to `pad_shape`.

    Returns `(square, size)`: `square(c)` places c (leading batch axes
    allowed) at position q mod m of each padded axis, squares its samples
    and writes the product's frequencies that `shape` holds back to their
    FFT-ordered indices, divided by `size`, the number of padded samples.
    The index maps are built once: on each axis two runs of consecutive
    indices, split where q = 0 wraps, so every move of data is a slice copy.

    The padded transforms go one axis at a time, last axis first as
    `numpy.fft.ifftn`/`fftn` do, in place on views: the inverse skips the
    lines still all zero (an earlier axis outside the placed runs), the
    forward one those the crop drops (a later axis outside the kept runs),
    548 of 710 lines transformed at 65 x 128 padded to 99 x 256.  Every line
    transformed sees the same 1-D transform as in the full n-d one, so the
    results are bit-identical to the full `ifftn`/`fftn` route.  That
    matters: `evolve`'s `observedOrder` moves by 1e-7 under a rounding-level
    change, and `perfbench/check.py` holds it to 1e-8.
    """
    pad_shape = tuple(pad_shape)
    size = math.prod(pad_shape)
    # per axis, frequency q of the grid from index q mod n to q mod m
    runs = [_runs(q % n, q % m) for n, m in zip(shape, pad_shape)
            for q in [np.arange(-(n // 2), (n + 1) // 2)]]
    copies = _copies(runs)
    inverse, forward = _lines(runs, forward=False), _lines(runs, forward=True)

    def square(c):
        u = _place(c, copies, pad_shape, inverse)
        u *= u
        _transform(u, np.fft.fft, forward)
        out = np.zeros(c.shape, dtype=complex)
        for at, pad in copies:
            np.divide(u[pad], size, out=out[at])
        return out

    return square, size


class ProductPlan:
    """Exact pointwise product of two boxes of coefficients on a padded grid.

    Each factor comes as a box of signed frequencies, as `occupied` returns
    it (position p of an axis holds frequency lo + p), and frequency q goes
    to position q mod m of a padded axis of length m, the smallest 11-smooth
    length >= span_a + span_b - 1, so no frequency of the product wraps.
    The samples' product is multiplied by the unimodular character
    e^{-i lo . x}, `lo` = lo_a + lo_b, which moves frequency lo to position
    0: the product's box, lo .. hi_a + hi_b, starts at the front of the
    padded array, and `box_product` returns it there, in place.  |ua ub|,
    and `sample_energy`, the sum of |ua ub|^2 over the samples, do not
    depend on the character.

    A plan forms its samples one of two ways.  Two real factors (`packed`
    is True) share one transform: arrays whose boxes are symmetric (lo = -hi
    on every axis, so no Nyquist row is occupied) and whose coefficients are
    exactly Hermitian, c[-q] == conj(c[q]), have real samples, so both go
    into one padded array as A + iB, and one inverse transform gives u in
    its real part and v in its imaginary part (Numerical Recipes, section
    12.3); one such array with itself is packed too.  B goes in scaled by a
    power of two to A's l2 size, so neither factor's rounding error is set
    by the other's size.  Other pairs take a padded array each.  A packed
    plan serves only such factors.

    Index maps and inverse transform lines are built once per plan and used
    as in `dealiased_square` (a factor's box fills about half of its pad per
    axis).  The forward transform is one `fftn` over the trailing axes: the
    product's box nearly fills the pad, so no line is worth skipping.
    `box_product` and `sample_energy` act on the trailing axes, so the boxes
    may carry leading batch axes, each slice giving what it would alone.

    No y (or t) origin sign is applied.  Moving the y origin to -L/2 (or the
    t origin to -tWindow) multiplies the coefficients by (-1)^q, which on an
    even-length axis (every y and t axis here) is a multiplicative character,
    (-1)^(q1+q2) = (-1)^q1 (-1)^q2 with q taken mod the axis length, so it
    cancels from every product, and sum |ua ub|^2 does not depend on it.
    """

    def __init__(self, lo_a, a, lo_b, b):
        boxes = [[(low, low + m - 1) for low, m in zip(lo, c.shape)]
                 for lo, c in ((lo_a, a), (lo_b, b))]
        spans = [ma + mb - 1 for ma, mb in zip(a.shape, b.shape)]
        self.pad_shape = tuple(_next_fast_len(s) for s in spans)
        self.size = math.prod(self.pad_shape)
        self.lo = tuple(la + lb for la, lb in zip(lo_a, lo_b))
        factors = [_box_runs(box, self.pad_shape) for box in boxes]
        self._copies = [_copies(runs) for runs in factors]
        self._inverse = [_lines(runs, forward=False) for runs in factors]
        # the product's box, at the front of the padded array
        self._box = (Ellipsis,) + tuple(slice(0, s) for s in spans)
        # e^{-i lo x_p}, x_p = 2 pi p / m, its numerator reduced mod m, per
        # axis (np.ix_): the first axis's alone, the others' over their plane
        chars = np.ix_(*(
            np.exp(-2j * math.pi * (shift * np.arange(m) % m) / m)
            for shift, m in zip(self.lo, self.pad_shape)
        ))
        self._char0, self._char_rest = chars[0], np.ones(self.pad_shape[1:], complex)
        for char in chars[1:]:
            self._char_rest *= char[0]
        self.packed = False
        if all(lo == -hi for lo, hi in boxes[0] + boxes[1]):
            energy = [_hermitian_energy(c) for c in (a, b)]
            if all(e is not None and 0.0 < e < math.inf for e in energy):
                # the second factor goes in times 2^balance, to within a
                # factor 2 of the first's l2 norm, and its samples come out
                # times 2^-balance: both exact, so each factor's rounding error
                # in the shared transform stays relative to its own size.  The
                # inverse lines cover the wider box per axis
                self._balance = (math.frexp(energy[0])[1] - math.frexp(energy[1])[1]) // 2
                reach = [(-max(ha, hb), max(ha, hb)) for (_, ha), (_, hb) in zip(*boxes)]
                self._pair_inverse = _lines(_box_runs(reach, self.pad_shape), forward=False)
                self.packed = True

    def _samples(self, a, b):
        # the padded samples u = sum_q a_q e^{i q . x} of `a` and v of `b`,
        # and the complex array that their product goes into: (u + i v, u, v)
        # for two real factors, else (u, u, v)
        u = _place(a, self._copies[0], self.pad_shape, () if self.packed else self._inverse[0])
        if not self.packed:
            return u, u, _place(b, self._copies[1], self.pad_shape, self._inverse[1])
        for at, pad in self._copies[1]:
            big, c = u[pad], b[at]
            big.real -= np.ldexp(c.imag, self._balance)
            big.imag += np.ldexp(c.real, self._balance)
        _transform(u, np.fft.ifft, self._pair_inverse)
        u *= self.size
        if self._balance:
            np.ldexp(u.imag, -self._balance, out=u.imag)
        return u, u.real, u.imag

    def sample_energy(self, a, b):
        """Sum of |u v|^2 over the padded samples u, v of the factors `a`, `b`.

        No character is applied: it does not change |u v|.
        """
        _, u, v = self._samples(a, b)
        uv = np.multiply(u, v, out=u)
        sq = np.abs(uv) if np.iscomplexobj(uv) else uv
        np.square(sq, out=sq)
        return float(np.sum(sq))

    def box_product(self, a, b):
        """The product on its box, from frequency `lo`: a view of the padded array."""
        big, u, v = self._samples(a, b)
        # u v times the character, one block of first-axis rows at a time,
        # so each entry of the padded array is read and written once
        d = len(self.pad_shape)
        for p in row_blocks(self.pad_shape[0], self._char_rest.size):
            at = (Ellipsis, p) + (slice(None),) * (d - 1)
            char = self._char0[p] * self._char_rest
            np.multiply(u[at] * v[at], char, out=big[at])
        np.fft.fftn(big, axes=tuple(range(-d, 0)), out=big)
        box = big[self._box]
        box /= self.size
        return box


def product_grid(grid):
    """Grid holding the exact quadratic product: doubled bands everywhere.

    The y box length (hence deta) and tWindow (hence dtau) are preserved;
    doubling yPoints/tPoints doubles the representable frequency ranges.
    """
    return replace(
        grid,
        kMax=2 * grid.kMax,
        yPoints=2 * grid.yPoints,
        tPoints=2 * grid.tPoints,
    )


def st_product_exact(Fa, Fb):
    """Exact space-time pointwise product of two SpaceTimeBoxes, as one of the doubled grid.

    The product's box, lo_a + lo_b .. hi_a + hi_b, is the `ProductPlan`
    padded array cropped in place: no whole-grid array is formed.  It always
    lies inside `product_grid`, whose every axis holds the sum of two of the
    grid's frequencies.
    """
    check((Fa.grid == Fb.grid, "product requires matching grids"))
    g2 = product_grid(Fa.grid)
    plan = ProductPlan(Fa.lo, Fa.coeffs, Fb.lo, Fb.coeffs)
    box = plan.box_product(Fa.coeffs, Fb.coeffs)
    box *= g2.dtau * g2.deta**g2.yDims
    return SpaceTimeBox(g2, plan.lo, box)


def dealias_grid(grid, frac):
    """Padded grid implementing the zero-padding rule for a retention fraction.

    deta is preserved: padding adds high-frequency headroom, it does not
    refine the lattice.
    """
    # the least odd x length (2 kMax + 1) and power-of-two y length holding the grid's / frac
    return replace(grid, kMax=math.ceil(grid.nx / frac) // 2,
                   yPoints=1 << (math.ceil(grid.yPoints / frac) - 1).bit_length())


# ---------------------------------------------------------------------------
# serialization

_MAGIC = b"KPLF\x01"


def save_field(path, field):
    """A SpectralField in a self-describing container: magic, JSON header, little-endian c16."""
    header = {
        "kind": "spectral",
        "grid": asdict(field.grid),
        "shape": list(field.coeffs.shape),
        "dtype": "complex128",
        "byteorder": "little",
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        fh.write(field.coeffs.astype("<c16").tobytes())


def load_field(path):
    """Read a `save_field` container into its SpectralField.

    A truncated or corrupt file raises InvalidSpecError, and so does a header
    whose kind is not `spectral` or whose shape is not its grid's: one error
    that lists every rule the file breaks.
    """
    with open(path, "rb") as fh:
        magic = fh.read(len(_MAGIC))
        check((magic == _MAGIC, f"bad container magic {magic!r}"))
        prefix = fh.read(4)
        blob = fh.read(struct.unpack("<I", prefix)[0]) if len(prefix) == 4 else b""
        raw = fh.read()
    try:
        header = json.loads(blob.decode("utf-8"))
        grid = GridSpec(**header["grid"])
        kind, shape = header["kind"], header["shape"]
        expected = math.prod(shape) * np.dtype("<c16").itemsize
    # ValueError also covers UnicodeDecodeError and JSONDecodeError
    except (ValueError, KeyError, TypeError) as exc:
        raise InvalidSpecError([f"truncated or corrupt header in {path}: {exc!r}"]) from exc
    want = list(grid.spatial_shape)
    check((kind == "spectral", f"{path}: field kind {kind!r} is not 'spectral'"),
          (shape == want, f"{path}: shape {shape} is not its grid's {want}"),
          (len(raw) == expected, f"{path} holds {len(raw)} coefficient bytes, expected {expected}"))
    # the grid's shape: the header's equals it in value, but may hold floats such as 17.0
    arr = np.frombuffer(raw, dtype="<c16").reshape(want).astype(complex)
    return SpectralField(grid, arr)
