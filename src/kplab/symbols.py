"""Phase and resonance symbols for the generalized-dispersion KP-II flow.

Everything here is exact frequency-space algebra on numpy arrays: the
dispersion symbol phi0(k) = |k|^alpha k, the full phase phi(k, eta) =
phi0(k) - |eta|^2/k, the exhaustive and sampled audits of the resonance
function r(k, k1) (its two-sided |k_min||k_max|^alpha bounds and the
resonance identity), the interaction denominator A, and the stable
divided-difference family phi1/phi2/phi3 of the ETDRK4 tables and the
third-derivative quadrature's per-pair E(B), bits pinned by evolve's
observedOrder check.  Transverse frequencies enter as squared norms.  Nothing
checks admissibility: callers form only admissible frequencies, and the
scalar, checked route through the same algebra is an oracle in the tests.
The second denominator, B(xi1, xi2, xi3) = phi(xi3) + phi(xi1 + xi2) -
phi(xi1 + xi2 + xi3), is A relabelled: `denom_A` at (xi3, xi1 + xi2), with
the same floating-point operations in the same order.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteValueError, check


@dataclass(frozen=True)
class DispersionParams:
    """The dispersion exponent alpha, finite and >= 2 (the y dimension is the grid's)."""

    alpha: float = 2.0

    def __post_init__(self):
        check((2.0 <= self.alpha < math.inf, f"alpha must be finite and >= 2, got {self.alpha}"))


def phi0(params, k):
    """Dispersion term |k|^alpha k; odd in k, zero at k = 0.

    |k|^alpha is evaluated as exp(alpha*log|k|) so non-integer alpha is exact
    to rounding.
    """
    k_arr = np.asarray(k, dtype=float)
    out = np.zeros_like(k_arr)
    nz = k_arr != 0
    ak = np.abs(k_arr[nz])
    with np.errstate(over="ignore"):  # inf on overflow: callers check what they use
        out[nz] = np.exp(params.alpha * np.log(ak)) * k_arr[nz]
    if np.isscalar(k) or np.ndim(k) == 0:
        return float(out)
    return out


def phase_grid(params, k, eta_sq):
    """phi(k, eta) = phi0(k) - |eta|^2/k on arrays; k must be nonzero where used."""
    k_arr = np.asarray(k, dtype=float)
    return phi0(params, k_arr) - np.asarray(eta_sq, dtype=float) / k_arr


def resonance_constants(params):
    """Lower/upper constants of the two-sided resonance bound."""
    a = params.alpha
    return a / 2.0**a, a + 1.0 + 2.0 ** (-a)


def require_finite(params, what, *values):
    """Raises NonFiniteValueError, naming alpha, unless every entry of `values` is finite."""
    if not all(np.isfinite(v).all() for v in values):
        raise NonFiniteValueError(f"{what} is not finite at alpha = {params.alpha}")


def _k_part(params, k1, k2):
    """phi0(k1) + phi0(k2) - phi0(k1 + k2): the k-part of A, and of -r(k1 + k2, k1).

    Raises NonFiniteValueError, with no numpy warning first, if it overflowed.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # inf - inf, or past the float range
        part = phi0(params, k1) + phi0(params, k2) - phi0(params, k1 + k2)
    require_finite(params, "the resonance k-part", part)
    return part


def _resonance(params, k, k1):
    """r(k, k1) = phi0(k) - phi0(k1) - phi0(k - k1) and its scale |k_min||k_max|^alpha.

    k, k1 are integer arrays with k1 != 0 and k != k1; k_min/k_max run over |k|, |k1|, |k - k1|.
    Raises NonFiniteValueError, with no numpy warning first, if r or the scale overflowed.
    """
    k2 = k - k1
    absk = np.abs(np.stack([k, k1, k2]))
    kmin = absk.min(axis=0).astype(float)
    kmax = absk.max(axis=0).astype(float)
    r = -_k_part(params, k1, k2)
    with np.errstate(over="ignore"):
        scale = kmin * np.exp(params.alpha * np.log(kmax))
    require_finite(params, "the resonance scale", scale)
    return r, scale


@dataclass(frozen=True)
class ResonanceAudit:
    checked: int
    violations: tuple


def resonance_bounds_audit(params, kMax):
    """Exhaustively check the two-sided resonance bound on 1 <= |k|,|k1| <= kMax.

    Every admissible pair (k1 != 0, k != 0, k != k1) is tested against
    lower*|k_min||k_max|^alpha <= |r| <= upper*|k_min||k_max|^alpha where
    k_min/k_max run over (|k|, |k1|, |k-k1|). Comparisons carry a relative
    slack of 1e-12 for floating point. Returns the full violation list
    (expected empty).
    """
    check((kMax >= 2, f"kMax must be >= 2, got {kMax}"))
    ks = np.concatenate([np.arange(-kMax, 0), np.arange(1, kMax + 1)])
    K, K1 = np.meshgrid(ks, ks, indexing="ij")
    admissible = K != K1  # k and k1 are nonzero by construction
    K, K1 = K[admissible], K1[admissible]
    r, scale = _resonance(params, K, K1)
    lo, hi = resonance_constants(params)

    bad = (np.abs(r) < lo * scale * (1.0 - 1e-12)) | (
        np.abs(r) > hi * scale * (1.0 + 1e-12)
    )
    violations = tuple(
        (int(k), int(k1), float(rv), float(lo * s), float(hi * s))
        for k, k1, rv, s in zip(K[bad], K1[bad], r[bad], scale[bad])
    )
    return ResonanceAudit(K.size, violations)


# the sampled audit's bound on the relative residual of the resonance identity
IDENTITY_TOL = 1e-9


@dataclass(frozen=True)
class ResonanceSampleAudit:
    max_rel_residual: float
    lower_bound_violations: int
    sign_disagreements: int


def resonance_sample_audit(params, n, seed, y_dims=1):
    """Randomized audit of the resonance identity, sign claim, and lower bound.

    Draws n admissible (tau, k, eta) x (tau_1, k_1, eta_1) pairs, with
    1 <= |k| <= 128, eta in R^y_dims with each coordinate uniform on [-8, 8]
    and tau uniform on [-100, 100], and verifies vectorized:
    |sigma_1+sigma_2-sigma - (r + transverse)| <= IDENTITY_TOL (1 + |lhs|),
    sign(r) == sign(transverse) when both are nonzero, and the max-modulation
    lower bound. Deterministic for a fixed seed.  A residual, r or scale that
    is not finite raises NonFiniteValueError.
    """
    rng = np.random.default_rng(np.random.SeedSequence(seed))

    def draw_k(size):
        return rng.integers(1, 129, size=size) * rng.choice([-1, 1], size=size)

    k = draw_k(n)
    k1 = draw_k(n)
    # resample the degenerate slots (k = k1) until admissible
    while (bad := k == k1).any():
        k1[bad] = draw_k(int(bad.sum()))

    eta = rng.uniform(-8.0, 8.0, size=(n, y_dims))
    eta1 = rng.uniform(-8.0, 8.0, size=(n, y_dims))
    tau = rng.uniform(-100.0, 100.0, size=n)
    tau1 = rng.uniform(-100.0, 100.0, size=n)

    k2 = k - k1
    eta2 = eta - eta1
    sig = tau - phase_grid(params, k, np.sum(eta * eta, axis=1))
    sig1 = tau1 - phase_grid(params, k1, np.sum(eta1 * eta1, axis=1))
    sig2 = (tau - tau1) - phase_grid(params, k2, np.sum(eta2 * eta2, axis=1))
    lhs = sig1 + sig2 - sig

    r, scale = _resonance(params, k, k1)
    trans = np.sum((k[:, None] * eta1 - k1[:, None] * eta) ** 2, axis=1) / (
        k * k1 * k2
    ).astype(float)

    residual = np.abs(lhs - (r + trans)) / (1.0 + np.abs(lhs))
    require_finite(params, "identity residual", residual)
    both = (r != 0) & (trans != 0)
    sign_bad = int(np.sum(np.sign(r[both]) != np.sign(trans[both])))

    lo, _ = resonance_constants(params)
    floor = (lo / 3.0) * scale
    maxsig = np.max(np.abs(np.stack([sig, sig1, sig2])), axis=0)
    lb_bad = int(np.sum(maxsig < floor * (1.0 - 1e-12)))

    return ResonanceSampleAudit(
        max_rel_residual=float(residual.max()),
        lower_bound_violations=lb_bad,
        sign_disagreements=sign_bad,
    )


def denom_A(params, k1, k2, eta1_sq, eta2_sq, eta12_sq):
    """A = phi(xi1) + phi(xi2) - phi(xi1 + xi2) on arrays, xi_j = (k_j, eta_j).

    Takes |eta1|^2, |eta2|^2, |eta1 + eta2|^2; k1, k2, k1 + k2 nonzero (Gamma_1).
    B is this at (xi3, xi1 + xi2): k1 -> k3, k2 -> k1 + k2 (Gamma_2).
    """
    k1 = np.asarray(k1, dtype=float)
    k2 = np.asarray(k2, dtype=float)
    return (
        _k_part(params, k1, k2)
        - np.asarray(eta1_sq) / k1
        - np.asarray(eta2_sq) / k2
        + np.asarray(eta12_sq) / (k1 + k2)
    )


# phi-function family: phi1 = (e^z-1)/z, phi2 = (e^z-1-z)/z^2,
# phi3 = (e^z-1-z-z^2/2)/z^3.  Direct formulas cancel catastrophically near
# z = 0, so below |z| = 1e-4 each switches to an 8-term Taylor series.  The
# direct side still cancels just above the switch: against a 50-digit
# reference on real z, phi3 is off by 2.6e-8 relative at |z| = 1.01e-4
# (1.6e-10 at 1e-3, 4.0e-12 at 1e-2).

_PHI_CROSSOVER = 1e-4
_N_TERMS = 8


def _phi_series(z, m):
    # sum_{n>=0} z^n / (n+m)!
    z = np.asarray(z)
    out = np.zeros_like(z)
    term = np.ones_like(z) / math.factorial(m)
    for n in range(_N_TERMS):
        out = out + term
        term = term * z / (n + m + 1)
    return out


def _phi_eval(z, m, direct):
    z = np.asarray(z, dtype=complex)
    scalar = z.ndim == 0
    z = np.atleast_1d(z)
    # the direct formula everywhere (0/0 at z = 0 included), then the series
    # over the few entries below the switch
    with np.errstate(divide="ignore", invalid="ignore"):
        out = direct(z)
    small = np.abs(z) < _PHI_CROSSOVER
    if small.any():
        out[small] = _phi_series(z[small], m)
    return complex(out[0]) if scalar else out


def phi1(z):
    """(e^z - 1)/z with a series branch near 0; phi1(0) = 1."""
    return _phi_eval(z, 1, lambda w: np.expm1(w) / w)


def phi2(z):
    """(e^z - 1 - z)/z^2 with a series branch near 0; phi2(0) = 1/2."""
    return _phi_eval(z, 2, lambda w: (np.expm1(w) - w) / w**2)


def phi3(z):
    """(e^z - 1 - z - z^2/2)/z^3 with a series branch near 0; phi3(0) = 1/6."""
    return _phi_eval(z, 3, lambda w: (np.expm1(w) - w - w**2 / 2.0) / w**3)

