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

A fiber sums (E(A_j + B) - E(B))/A_j over its nodes j, E(x) = (e^{itx} - 1)/x
= it phi1(itx): sum_j E(A_j + B)/A_j - E(B) sum_j 1/A_j.  On the nodes E is
real arithmetic, E(x) = 2 tau (i - tau)/((1 + tau^2) x) with tau = tan(tx/2),
and E(0) = it where the float A + B is exactly 0.

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

from .errors import check
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
        q = self.etaQuadPoints
        check((self.N >= 8, f"N must be >= 8, got {self.N}"),
              (0.0 < self.betaInterval <= 0.1,
               f"betaInterval must lie in (0, 0.1], got {self.betaInterval}"),
              (q >= 32 and q % 2 == 0, f"etaQuadPoints must be an even integer >= 32, got {q}"))

    @property
    def half_width(self):
        return self.betaInterval * math.sqrt(self.N)


def build_wN(cfg, grid):
    """Indicator data: coefficient 1 at k = +-N for |eta| <= betaInterval sqrt(N)."""
    w = cfg.half_width
    check((grid.yDims == 1, "the derivative experiment lives on T x R (yDims=1)"),
          (cfg.N <= grid.kMax, f"N = {cfg.N} exceeds grid kMax = {grid.kMax}"),
          (w >= grid.deta, f"indicator half-width {w:g} is below the eta spacing {grid.deta:g}"))
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


def _fiber_expm1(x, t):
    """(Re E, Im E) of E(x) = (e^{itx} - 1)/x from tau = tan(tx/2); E(0) = it."""
    tau = np.tan(x * (0.5 * t))
    im = tau * tau  # in place from here on: no more fiber-sized temporaries
    im += 1.0
    im *= x
    with np.errstate(invalid="ignore"):  # 0/0 where x = 0, set to the limit below
        np.divide(tau, im, out=im)
    im *= 2.0
    im[x == 0] = t
    tau *= im
    np.negative(tau, out=tau)
    return tau, im


def _fiber_sums(a, b, rows, cols, weights, t, size, chunk):
    """One sign pattern's output rows from a = A_j per u (2m, m) and b = B per pair."""
    inv_a = 1.0 / a
    inv_sum = np.sum(inv_a, axis=1)
    e_b = 1j * t * phi1(1j * t * b)
    x = np.zeros(size, dtype=complex)
    for i0 in range(0, size, chunk):
        sl = slice(*np.searchsorted(rows, (i0, i0 + chunk)))
        c = cols[sl]
        re, im = _fiber_expm1(a[c] + b[sl, None], t)
        inv = inv_a[c]
        fib = np.einsum("ij,ij->i", re, inv) + 1j * np.einsum("ij,ij->i", im, inv)
        np.add.at(x, rows[sl], (fib - e_b[sl] * inv_sum[c]) * weights[c])
    return x


def third_derivative_norm(cfg, params, chunk=32):
    """H^s norm of the third data-derivative of the flow for the indicator family.

    Returns total / k = +-N restricted norms and `per_k` in the order 3N, N,
    -N, -3N that `total` sums in; -N and -3N mirror N and 3N.  A fiber sums
    to sum_j E(A_j + B)/A_j - E(B) sum_j 1/A_j, the first sum in tangent form
    with E(0) = it.  Only the 2m^2 (eta_out, u) pairs of the (3m+1) * 2m with
    |eta_out - u| <= w (the third factor's band) are formed, `chunk` output
    rows at a time.
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
    rows, cols = np.nonzero(np.abs(eta_out[:, None] - u_nodes[None, :]) <= w * (1.0 + 1e-12))
    e_out, u = eta_out[rows], u_nodes[cols]

    # both computed patterns have k1 = k2 = N and share A; eta1 + eta2 is the fiber constant u
    k12 = 2 * n
    a = denom_A(params, n, n, eta1**2, (u_nodes[:, None] - eta1) ** 2, (u_nodes**2)[:, None])

    per_k = {}
    for k3 in (n, -n):
        kout = k12 + k3
        # B is A at (xi3, xi1 + xi2)
        b = denom_A(params, k3, k12, (e_out - u) ** 2, u**2, e_out**2)
        x = _fiber_sums(a, b, rows, cols, fiber_w * delta, t, eta_out.size, chunk)
        x *= (k12 * kout) * np.exp(1j * t * phase_grid(params, kout, eta_out**2))
        sq = (1.0 + kout**2) ** cfg.s * float(np.trapezoid(np.abs(x) ** 2, dx=delta))
        per_k[kout] = math.sqrt((2.0 * math.pi) ** 2 * sq)
    per_k[-n], per_k[-3 * n] = per_k[n], per_k[3 * n]  # the mirrored (-,-,+) and (-,-,-)

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
