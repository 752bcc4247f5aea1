"""Flow-map derivative experiment: the regularity obstruction at low s.

The data family is a pair of x-frequency columns at +-N carrying a transverse
indicator of half-width betaInterval * sqrt(N).  The first three derivatives
of the solution map at zero data are explicit oscillatory sums over the
admissible frequency sets Gamma_1/Gamma_2; for this family only four sign
patterns (k1, k2, k3) in {+-N}^3 survive, and the patterns whose third
frequency opposes the first two make the combined denominator A + B collapse
to the transverse scale while A alone stays at N^(alpha+1).  That mismatch
produces third-derivative growth like t * N^(s - alpha + 9/4) against data
norm N^(s + 1/4), so the normalized ratio R(N) grows at exponent
3/2 - alpha - 2s: positive (C^3 failure) exactly below s = 3/4 - alpha/2.
A and B are both `symbols.denom_A` on the quadrature lattices, B being A
relabelled at (xi3, xi1 + xi2), and the output phase is `symbols.phase_grid`.

Two of the four patterns are computed, (+,+,+) and (+,+,-), and two are
mirrored.  phi0 is odd, so flipping every sign negates both denominators
exactly; the flipped pattern's coefficients are the complex conjugates of the
original's, and its norm is the same number.

The triple transverse integral is evaluated on dedicated midpoint lattices
tied to the indicator width (a fiber integral along eta_1 + eta_2 = const
inside an integral over the constant), so indicator edges always fall on cell
boundaries and the quadrature error is second order with no edge straddling.
Unimodular prefactors (the i from the x-derivative, integral signs) are
dropped throughout; only coefficient magnitudes enter the norms.

The `illposed-scaling` subcommand runs `illposed_point` once per N, and its
verdict is 'C3 fails' when R(N) grows (the map is not three times
differentiable); `illposed_scaling` adds the summary keys fitted from the rows.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import BandExceedsGridError, InvalidSpecError
from .estimates import fit_exponent
from .fields import SpectralField
from .symbols import DispersionParams, denom_A, phase_grid, phi1


@dataclass(frozen=True)
class IllposedConfig:
    N: int
    betaInterval: float = 0.05
    s: float = 0.0
    t: float = 0.1
    etaQuadPoints: int = 64

    def __post_init__(self):
        problems = []
        if self.N < 8:
            problems.append(f"N must be >= 8, got {self.N}")
        if not (0.0 < self.betaInterval <= 0.1):
            problems.append(
                f"betaInterval must lie in (0, 0.1], got {self.betaInterval}"
            )
        if self.etaQuadPoints < 32 or self.etaQuadPoints % 2:
            problems.append(
                f"etaQuadPoints must be an even integer >= 32, got {self.etaQuadPoints}"
            )
        if problems:
            raise InvalidSpecError(problems)

    @property
    def half_width(self):
        return self.betaInterval * math.sqrt(self.N)


def build_wN(cfg, grid):
    """Indicator data: coefficient 1 at k = +-N for |eta| <= betaInterval sqrt(N)."""
    if grid.yDims != 1:
        raise InvalidSpecError(["the derivative experiment lives on T x R (yDims=1)"])
    if cfg.N > grid.kMax:
        raise BandExceedsGridError(f"N = {cfg.N} exceeds grid kMax = {grid.kMax}")
    w = cfg.half_width
    if w < grid.deta:
        raise BandExceedsGridError(
            f"indicator half-width {w:g} is below the eta spacing {grid.deta:g}"
        )
    if w < 8 * grid.deta:
        warnings.warn(
            f"indicator half-width spans only {w / grid.deta:.1f} eta cells",
            stacklevel=2,
        )
    c = np.zeros(grid.spatial_shape, dtype=complex)
    band = np.abs(grid.eta_axis()) <= w * (1.0 + 1e-12)
    band[grid.yPoints // 2] = False
    kaxis = grid.k_axis()
    c[kaxis == cfg.N] = band.astype(complex)
    c[kaxis == -cfg.N] = band.astype(complex)
    return SpectralField(grid, c)


def wN_norm_exact(cfg, s):
    """Continuum H^s norm of the indicator family: sqrt((2pi)^2 4 W) <N>^s."""
    w = cfg.half_width
    return math.sqrt((2.0 * math.pi) ** 2 * 4.0 * w) * (1.0 + cfg.N**2) ** (s / 2.0)


@dataclass(frozen=True)
class ThirdDerivativeReport:
    total: float
    restricted: float  # k = +-N contribution only
    per_k: dict


def third_derivative_norm(cfg, params, chunk=32):
    """H^s norm of the third data-derivative of the flow for the indicator family.

    Evaluates each transverse triple integral as an exact-limit fiber
    quadrature inside a midpoint sum over the fiber constant, assembles the
    output over k in {+-3N, +-N}, and returns total / k = +-N restricted norms
    plus the per-k breakdown.  Of the four admissible sign patterns only
    (+,+,+) and (+,+,-) are computed.  phi0 is odd, so flipping every sign
    negates both denominators A and B exactly; the flipped patterns'
    coefficients are then the complex conjugates of these two, and their norms
    at -3N and -N are taken from +3N and +N.  `per_k` is filled in the order
    3N, N, -N, -3N, the order `total` sums in.  The third factor's indicator
    confines the sum over the fiber constant u to the band |eta_out - u| <= w:
    output row i meets only the nodes u_{i-m} .. u_{i-1} that exist, so 2m^2
    of the (3m+1) * 2m (eta_out, u) pairs carry weight, and only those pairs
    are formed.  The output eta lattice is processed `chunk` rows at a time,
    each block with its in-band pairs alone.
    """
    n = cfg.N
    w = cfg.half_width
    m = cfg.etaQuadPoints
    t = cfg.t
    delta = 2.0 * w / m

    u_nodes = -2.0 * w + (np.arange(2 * m) + 0.5) * delta
    eta_out = -3.0 * w + np.arange(3 * m + 1) * delta

    lo = np.maximum(-w, u_nodes - w)
    hi = np.minimum(w, u_nodes + w)
    frac = (np.arange(m) + 0.5) / m
    eta1 = lo[:, None] + (hi - lo)[:, None] * frac[None, :]  # (2m, m)
    fiber_w = (hi - lo) / m

    # the in-band (eta_out, u) pairs, row-major, so each block's pairs are contiguous
    rows, cols = np.nonzero(
        np.abs(eta_out[:, None] - u_nodes[None, :]) <= w * (1.0 + 1e-12)
    )
    e_out, u = eta_out[rows], u_nodes[cols]

    # both computed patterns have k1 = k2 = N, so they share the fiber
    # denominator A; eta1 + eta2 is the fiber constant u
    k12 = 2 * n
    a = denom_A(params, n, n, eta1**2, (u_nodes[:, None] - eta1) ** 2, (u_nodes**2)[:, None])

    per_k = {}
    for k3 in (n, -n):
        kout = k12 + k3
        # B is A at (xi3, xi1 + xi2)
        b = denom_A(params, k3, k12, (e_out - u) ** 2, u**2, e_out**2)
        p1 = phi1(1j * t * b)

        x = np.zeros(eta_out.size, dtype=complex)
        for i0 in range(0, eta_out.size, chunk):
            sl = slice(*np.searchsorted(rows, (i0, i0 + chunk)))
            a_sl = a[cols[sl]]
            z2 = 1j * t * (a_sl + b[sl, None])
            bracket = 1j * t * (phi1(z2) - p1[sl, None])
            fib = np.sum(bracket / a_sl, axis=1) * fiber_w[cols[sl]]
            np.add.at(x, rows[sl], fib * delta)
        x *= (k12 * kout) * np.exp(1j * t * phase_grid(params, kout, eta_out**2))

        sq = (1.0 + kout**2) ** cfg.s * float(np.trapezoid(np.abs(x) ** 2, dx=delta))
        per_k[kout] = math.sqrt((2.0 * math.pi) ** 2 * sq)
    # the mirrored patterns (-,-,+) and (-,-,-)
    per_k[-n] = per_k[n]
    per_k[-3 * n] = per_k[3 * n]

    total = math.sqrt(sum(v**2 for v in per_k.values()))
    restricted = math.sqrt(per_k[n] ** 2 + per_k[-n] ** 2)
    return ThirdDerivativeReport(total=total, restricted=restricted, per_k=per_k)


def illposed_point(point):
    """One N's R(N) = ||third derivative||_{H^s} / ||w_N||^3, with the norms it is made of."""
    cfg = IllposedConfig(N=point["N"], betaInterval=point["betaInterval"], s=point["s"],
                         t=point["t"], etaQuadPoints=point["etaQuadPoints"])
    rep = third_derivative_norm(cfg, DispersionParams(point["alpha"]))
    wn = wN_norm_exact(cfg, cfg.s)
    return {"N": cfg.N, "thirdNorm": rep.total, "restrictedNorm": rep.restricted,
            "wNorm": wn, "value": rep.total / wn**3}


def illposed_scaling(rows, cfg):
    """`illposed-scaling`'s own summary keys, fitted from its rows.

    The predicted exponent 3/2 - alpha - 2s, the k = +-N restricted fit's
    exponent and the data-norm exponent (ideal value s + 1/4).
    """
    restricted = [(r["N"], r["restrictedNorm"] / r["wNorm"] ** 3) for r in rows]
    return {
        "restrictedExponent": fit_exponent(restricted).exponent,
        "predictedExponent": 1.5 - cfg["alpha"] - 2.0 * cfg["s"],
        "wNormExponent": fit_exponent([(r["N"], r["wNorm"]) for r in rows]).exponent,
    }
