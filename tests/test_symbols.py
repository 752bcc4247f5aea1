"""Exact-value and property checks for the phase/resonance algebra."""

import math
import warnings
from dataclasses import dataclass

import numpy as np
import pytest

from kplab import symbols
from kplab.errors import InvalidSpecError, NonFiniteValueError
from kplab.symbols import (
    DispersionParams,
    denom_A,
    phi0,
    phi1,
    phi2,
    phi3,
    resonance_bounds_audit,
    resonance_constants,
    resonance_sample_audit,
)

# ---------------------------------------------------------------------------
# the scalar oracle: one frequency point at a time, every admissibility
# condition checked, and every intermediate of the resonance identity in view;
# a second route to what `resonance_sample_audit` checks vectorised


class DegenerateFrequencyError(ValueError):
    """The oracle met an excluded frequency: a k = 0 divisor, k1 = 0 or k = k1."""


@dataclass(frozen=True)
class FrequencyPoint:
    """A single (k, eta) lattice/continuum frequency; eta is a tuple of length yDims."""

    k: int
    eta: tuple

    def __init__(self, k, eta):
        object.__setattr__(self, "k", int(k))
        if np.isscalar(eta):
            eta = (float(eta),)
        object.__setattr__(self, "eta", tuple(float(e) for e in eta))

    @property
    def eta_sq(self):
        return sum(e * e for e in self.eta)


@dataclass(frozen=True)
class ModulationPoint:
    """A space-time frequency (tau, k, eta); sigma = tau - phi is recomputed on demand."""

    tau: float
    point: FrequencyPoint

    def sigma(self, params):
        return self.tau - phase(params, self.point)


@dataclass(frozen=True)
class ResonanceRecord:
    r: float
    transverse: float
    lhs: float
    kmin: int
    kmax: int


def phase(params, p):
    """Full phase at a FrequencyPoint. Rejects k = 0 (mean-zero modes never enter)."""
    if p.k == 0:
        raise DegenerateFrequencyError("phase is undefined at k = 0")
    return float(phi0(params, p.k) - p.eta_sq / p.k)


def resonance_r(params, k, k1):
    """Resonance function r(k, k1) = phi0(k) - phi0(k1) - phi0(k - k1).

    k = 0 is permitted (the value is 0 by oddness); k1 = 0 and k = k1 are
    degenerate and rejected.
    """
    if k1 == 0 or k == k1:
        raise DegenerateFrequencyError(
            f"resonance_r needs k1 != 0 and k != k1, got k={k}, k1={k1}"
        )
    return float(phi0(params, k) - phi0(params, k1) - phi0(params, k - k1))


def transverse_term(k, k1, eta, eta1):
    """|k*eta1 - k1*eta|^2 / (k k1 (k-k1)), the non-resonant part of the identity.

    eta, eta1 are yDims-vectors; the numerator is the squared euclidean norm of
    the vector k*eta1 - k1*eta.
    """
    eta = np.atleast_1d(np.asarray(eta, dtype=float))
    eta1 = np.atleast_1d(np.asarray(eta1, dtype=float))
    num = np.sum((k * eta1 - k1 * eta) ** 2)
    return float(num / (k * k1 * (k - k1)))


def resonance_identity(params, m, m1):
    """Evaluate sigma_1 + sigma_2 - sigma against r + transverse for a pair.

    m carries (tau, k, eta); m1 carries (tau_1, k_1, eta_1); the second factor
    lives at (tau - tau_1, k - k_1, eta - eta_1). The returned record has been
    checked against the identity (1e-12 relative to the largest intermediate)
    and against the lower modulation bound; violations raise AssertionError.
    """
    k, k1 = m.point.k, m1.point.k
    if k1 == 0 or k == 0 or k == k1:
        raise DegenerateFrequencyError(
            f"resonance_identity needs k, k1, k-k1 all nonzero, got k={k}, k1={k1}"
        )
    eta = np.asarray(m.point.eta)
    eta1 = np.asarray(m1.point.eta)
    p2 = FrequencyPoint(k - k1, tuple(eta - eta1))
    m2 = ModulationPoint(m.tau - m1.tau, p2)

    sig = m.sigma(params)
    sig1 = m1.sigma(params)
    sig2 = m2.sigma(params)
    lhs = sig1 + sig2 - sig

    r = resonance_r(params, k, k1)
    trans = transverse_term(k, k1, eta, eta1)
    absk = [abs(k), abs(k1), abs(k - k1)]
    kmin, kmax = min(absk), max(absk)

    scale = 1.0 + max(abs(lhs), abs(sig), abs(sig1), abs(sig2))
    assert abs(lhs - (r + trans)) <= 1e-12 * scale, "resonance identity violated"
    lo, _ = resonance_constants(params)
    floor = (lo / 3.0) * kmin * kmax**params.alpha
    assert max(abs(sig), abs(sig1), abs(sig2)) >= floor * (1.0 - 1e-12), (
        "modulation lower bound violated"
    )
    return ResonanceRecord(r=r, transverse=trans, lhs=lhs, kmin=kmin, kmax=kmax)


# ---------------------------------------------------------------------------

P2 = DispersionParams(2.0)


def test_phi0_hand_values():
    assert phi0(P2, 3) == pytest.approx(27.0, rel=1e-14)
    assert phi0(P2, -3) == pytest.approx(-27.0, rel=1e-14)
    assert phi0(DispersionParams(2.5), 0) == 0.0


@pytest.mark.parametrize("alpha", [2.0, 2.5, 3.0, 4.0])
def test_phi0_odd_exactly(alpha):
    p = DispersionParams(alpha)
    k = np.arange(1, 60)
    assert np.array_equal(phi0(p, k), -phi0(p, -k))


def test_phase_hand_values():
    assert phase(P2, FrequencyPoint(1, 0.0)) == pytest.approx(1.0, rel=1e-14)
    assert phase(P2, FrequencyPoint(1, 2.0)) == pytest.approx(-3.0, rel=1e-14)
    p2d = DispersionParams(2.0)
    assert phase(p2d, FrequencyPoint(-2, (1.0, 1.0))) == pytest.approx(-7.0, rel=1e-14)


def test_phase_rejects_zero_mode():
    with pytest.raises(DegenerateFrequencyError):
        phase(P2, FrequencyPoint(0, 1.0))


def test_resonance_r_values_and_degeneracy():
    assert resonance_r(P2, 2, 1) == pytest.approx(6.0, rel=1e-14)
    # k = 0 is allowed and vanishes by oddness
    assert resonance_r(P2, 0, 1) == pytest.approx(0.0, abs=1e-14)
    with pytest.raises(DegenerateFrequencyError):
        resonance_r(P2, 2, 2)
    with pytest.raises(DegenerateFrequencyError):
        resonance_r(P2, 2, 0)


def test_resonance_bound_single_pairs():
    lo, hi = resonance_constants(P2)
    r = resonance_r(P2, 2, 1)
    assert lo * 1 * 2**2 == pytest.approx(2.0)
    assert hi * 1 * 2**2 == pytest.approx(13.0)
    assert lo * 4 <= abs(r) <= hi * 4

    p4 = DispersionParams(4.0)
    r4 = resonance_r(p4, 2, 1)
    assert r4 == pytest.approx(30.0, rel=1e-13)
    lo4, hi4 = resonance_constants(p4)
    assert lo4 * 16 == pytest.approx(4.0)
    assert hi4 * 16 == pytest.approx(81.0)
    assert lo4 * 16 <= abs(r4) <= hi4 * 16


@pytest.mark.parametrize("alpha", [2.0, 2.5, 3.0, 4.0])
def test_resonance_bounds_audit_small(alpha):
    audit = resonance_bounds_audit(DispersionParams(alpha), 40)
    assert audit.violations == ()
    assert audit.checked == 80 * 80 - 80  # the 80 diagonal pairs k = k1 drop out


def test_resonance_identity_hand_cases():
    m = ModulationPoint(0.0, FrequencyPoint(2, 0.0))
    m1 = ModulationPoint(0.0, FrequencyPoint(1, 0.0))
    rec = resonance_identity(P2, m, m1)
    assert rec.lhs == pytest.approx(6.0, rel=1e-12)
    assert rec.transverse == 0.0
    assert rec.r == pytest.approx(6.0, rel=1e-12)
    assert (rec.kmin, rec.kmax) == (1, 2)

    # parallel frequencies annihilate the transverse term
    m = ModulationPoint(0.0, FrequencyPoint(2, 2.0))
    m1 = ModulationPoint(0.0, FrequencyPoint(1, 1.0))
    rec = resonance_identity(P2, m, m1)
    assert rec.transverse == pytest.approx(0.0, abs=1e-14)

    m = ModulationPoint(0.0, FrequencyPoint(2, 0.0))
    m1 = ModulationPoint(0.0, FrequencyPoint(1, 1.0))
    rec = resonance_identity(P2, m, m1)
    assert rec.transverse == pytest.approx(2.0, rel=1e-12)
    assert rec.lhs == pytest.approx(8.0, rel=1e-12)


def test_modulation_sigma_recomputable():
    m = ModulationPoint(5.0, FrequencyPoint(2, 1.0))
    assert m.sigma(P2) == pytest.approx(5.0 - (8.0 - 0.5), rel=1e-14)


def test_resonance_identity_rejects_degenerate():
    with pytest.raises(DegenerateFrequencyError):
        resonance_identity(
            P2, ModulationPoint(0.0, FrequencyPoint(1, 0.0)),
            ModulationPoint(0.0, FrequencyPoint(1, 0.0)),
        )


@pytest.mark.parametrize("alpha", [2.0, 2.5, 3.0, 4.0])
def test_resonance_sampled_properties(alpha):
    audit = resonance_sample_audit(DispersionParams(alpha), 20000, seed=11)
    assert audit.max_rel_residual <= 1e-9
    assert audit.lower_bound_violations == 0
    assert audit.sign_disagreements == 0


@pytest.mark.parametrize("alpha", [2.0, 2.5, 3.0, 4.0])
def test_resonance_sampled_properties_on_two_transverse_dimensions(alpha):
    audit = resonance_sample_audit(DispersionParams(alpha), 20000, seed=11, y_dims=2)
    assert audit.max_rel_residual <= 1e-9
    assert audit.lower_bound_violations == 0
    assert audit.sign_disagreements == 0


@pytest.mark.parametrize("alpha", [math.inf, math.nan, 1.5])
def test_dispersion_params_rejects_an_alpha_that_is_not_finite_and_at_least_two(alpha):
    with pytest.raises(InvalidSpecError):
        DispersionParams(alpha)


def test_overflowing_resonance_arithmetic_raises_in_both_audits():
    # |k|^200 k overflows at |k| = 200 (and at 128), so r is inf - inf = NaN,
    # which would fail neither bound comparison
    params = DispersionParams(200.0)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NonFiniteValueError):
        resonance_bounds_audit(params, 200)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NonFiniteValueError):
        resonance_sample_audit(params, 500, seed=0)
    # where phi0 stays finite, both audits still run
    assert resonance_bounds_audit(params, 2).violations == ()


def test_transverse_sign_matches_r():
    rng = np.random.default_rng(0)
    for _ in range(500):
        k = int(rng.integers(-30, 31))
        k1 = int(rng.integers(-30, 31))
        if k == 0 or k1 == 0 or k == k1:
            continue
        eta = float(rng.uniform(-5, 5))
        eta1 = float(rng.uniform(-5, 5))
        r = resonance_r(P2, k, k1)
        t = transverse_term(k, k1, eta, eta1)
        if r != 0 and t != 0:
            assert math.copysign(1, r) == math.copysign(1, t)


def test_denom_A_values():
    a = denom_A(P2, 4, 4, 0.0, 0.0, 0.0)
    assert a == pytest.approx(-384.0, rel=1e-13)
    assert abs(a) / 4 ** (P2.alpha + 1) == pytest.approx(6.0, rel=1e-13)
    assert denom_A(P2, 1, 1, 0.0, 0.0, 0.0) == pytest.approx(-resonance_r(P2, 2, 1), rel=1e-13)


def test_denom_B_values_and_cancellation():
    # B(xi1, xi2, xi3) = phi(xi3) + phi(xi1 + xi2) - phi(xi1 + xi2 + xi3) is A
    # relabelled at (xi3, xi1 + xi2): k = (k3, k1 + k2) and the squared
    # transverse norms |eta3|^2, |eta1 + eta2|^2, |eta1 + eta2 + eta3|^2
    n = 4
    a = denom_A(P2, n, n, 0.0, 0.0, 0.0)
    b = denom_A(P2, -n, 2 * n, 0.0, 0.0, 0.0)
    assert a + b == pytest.approx(0.0, abs=1e-11)

    # transverse contributions at eta = (1, 1, -1) keep the exact cancellation:
    # |eta1|^2, |eta2|^2, |eta1 + eta2|^2 = 1, 1, 4 and |eta3|^2,
    # |eta1 + eta2|^2, |eta1 + eta2 + eta3|^2 = 1, 4, 1
    a = denom_A(P2, 4, 4, 1.0, 1.0, 4.0)
    b = denom_A(P2, -4, 8, 1.0, 4.0, 1.0)
    assert a == pytest.approx(-384.0, rel=1e-13)
    assert b == pytest.approx(384.0, rel=1e-13)
    assert a + b == pytest.approx(0.0, abs=1e-11)

    # asymmetric transverse data, eta = (1, 0.5, -0.75): small but nonzero,
    # bounded by the beta^2 scale
    # A = -384 - 1/4 - 1/16 + 9/32, B = 384 + 9/64 - 9/32 + 9/64 (all dyadic)
    a = denom_A(P2, 4, 4, 1.0, 0.25, 2.25)
    b = denom_A(P2, -4, 8, 0.5625, 2.25, 0.5625)
    assert a == pytest.approx(-384.03125, rel=1e-13)
    assert b == pytest.approx(384.0, rel=1e-13)
    assert a + b == pytest.approx(-0.03125, rel=1e-9)
    assert 0 < abs(a + b) <= 9 * 0.5**2

    # the same three cases at once, on arrays
    eta = np.array([[0.0, 0.0, 0.0], [1.0, 1.0, -1.0], [1.0, 0.5, -0.75]])
    e1, e2, e3 = eta.T
    a = denom_A(P2, 4, 4, e1**2, e2**2, (e1 + e2) ** 2)
    b = denom_A(P2, -4, 8, e3**2, (e1 + e2) ** 2, (e1 + e2 + e3) ** 2)
    assert a.shape == b.shape == (3,)
    assert a == pytest.approx([-384.0, -384.0, -384.03125], rel=1e-13)
    assert b == pytest.approx([384.0, 384.0, 384.0], rel=1e-13)
    assert a + b == pytest.approx([0.0, 0.0, -0.03125], rel=1e-9, abs=1e-11)


def test_phi1_values():
    assert phi1(0.0) == pytest.approx(1.0, abs=1e-15)
    assert phi1(1j * math.pi) == pytest.approx(2j / math.pi, abs=1e-14)
    assert abs(phi1(1e-9j) - 1.0) < 1e-8


def test_phi_family_small_z():
    assert phi2(0.0) == pytest.approx(0.5, abs=1e-15)
    assert phi3(0.0) == pytest.approx(1.0 / 6.0, abs=1e-15)
    assert phi2(1.0) == pytest.approx(math.e - 2.0, rel=1e-13)
    assert phi3(1.0) == pytest.approx(math.e - 2.5, rel=1e-12)


def test_phi1_matches_direct_formula():
    rng = np.random.default_rng(3)
    mag = np.exp(rng.uniform(np.log(1e-4), np.log(10.0), size=4000))
    ang = rng.uniform(0, 2 * math.pi, size=4000)
    z = mag * np.exp(1j * ang)
    direct = np.expm1(z) / z
    assert np.max(np.abs(phi1(z) - direct) / np.abs(direct)) < 1e-12


def test_phi1_series_direct_overlap_band():
    rng = np.random.default_rng(4)
    mag = np.exp(rng.uniform(np.log(1e-5), np.log(1e-3), size=2000))
    ang = rng.uniform(0, 2 * math.pi, size=2000)
    z = mag * np.exp(1j * ang)
    direct = np.expm1(z) / z
    series = symbols._phi_series(z, 1)
    assert np.max(np.abs(series - direct)) < 1e-13


def _masked_phi(z, m, direct):
    """The phi evaluation that gathers each branch's entries and scatters them back."""
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    small = np.abs(z) < symbols._PHI_CROSSOVER
    out = np.empty_like(z)
    if small.any():
        out[small] = symbols._phi_series(z[small], m)
    big = ~small
    if big.any():
        out[big] = direct(z[big])
    return out


def test_phi_family_equals_masked_evaluation_without_warnings():
    rng = np.random.default_rng(11)
    mag = np.exp(rng.uniform(np.log(1e-9), np.log(50.0), size=(30, 40)))
    z = mag * np.exp(1j * rng.uniform(0, 2 * math.pi, size=mag.shape))
    z[0, :4] = [0.0, 1e-4, -1e-4, 1e-4 * (1 - 1e-12)]
    z[1, :4] = 1j * z[0, :4]
    z[2, :3] = [0.0, -1e-3j, 1e-5]
    small = np.abs(z) < symbols._PHI_CROSSOVER
    assert small.any() and (~small).any()
    oracles = (
        (phi1, 1, lambda w: np.expm1(w) / w),
        (phi2, 2, lambda w: (np.expm1(w) - w) / w**2),
        (phi3, 3, lambda w: (np.expm1(w) - w - w**2 / 2.0) / w**3),
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for phi, m, direct in oracles:
            assert np.array_equal(phi(z), _masked_phi(z, m, direct).reshape(z.shape))
            assert np.array_equal(phi(z.ravel()), _masked_phi(z.ravel(), m, direct))
            for scalar in (0.0, 2e-5j, 0.5 - 0.25j):
                value = phi(scalar)
                assert type(value) is complex
                assert value == _masked_phi(scalar, m, direct)[0]
