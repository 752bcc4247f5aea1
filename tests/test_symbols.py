"""Exact-value and property checks for the phase/resonance algebra."""

import math
import warnings

import numpy as np
import pytest

from kplab import symbols
from kplab.errors import DegenerateFrequencyError
from kplab.symbols import (
    DispersionParams,
    FrequencyPoint,
    ModulationPoint,
    denom_A,
    denom_B,
    phase,
    phi0,
    phi1,
    phi1_series,
    phi2,
    phi3,
    resonance_bounds_audit,
    resonance_constants,
    resonance_identity,
    resonance_r,
    resonance_sample_audit,
    transverse_term,
)

P2 = DispersionParams(2.0, 1)


def test_phi0_hand_values():
    assert phi0(P2, 3) == pytest.approx(27.0, rel=1e-14)
    assert phi0(P2, -3) == pytest.approx(-27.0, rel=1e-14)
    assert phi0(DispersionParams(2.5, 1), 0) == 0.0


@pytest.mark.parametrize("alpha", [2.0, 2.5, 3.0, 4.0])
def test_phi0_odd_exactly(alpha):
    p = DispersionParams(alpha, 1)
    k = np.arange(1, 60)
    assert np.array_equal(phi0(p, k), -phi0(p, -k))


def test_phase_hand_values():
    assert phase(P2, FrequencyPoint(1, 0.0)) == pytest.approx(1.0, rel=1e-14)
    assert phase(P2, FrequencyPoint(1, 2.0)) == pytest.approx(-3.0, rel=1e-14)
    p2d = DispersionParams(2.0, 2)
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

    p4 = DispersionParams(4.0, 1)
    r4 = resonance_r(p4, 2, 1)
    assert r4 == pytest.approx(30.0, rel=1e-13)
    lo4, hi4 = resonance_constants(p4)
    assert lo4 * 16 == pytest.approx(4.0)
    assert hi4 * 16 == pytest.approx(81.0)
    assert lo4 * 16 <= abs(r4) <= hi4 * 16


@pytest.mark.parametrize("alpha", [2.0, 2.5, 3.0, 4.0])
def test_resonance_bounds_audit_small(alpha):
    audit = resonance_bounds_audit(DispersionParams(alpha, 1), 40)
    assert audit.ok
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
    audit = resonance_sample_audit(DispersionParams(alpha, 1), 20000, seed=11)
    assert audit.max_rel_residual <= 1e-9
    assert audit.lower_bound_violations == 0
    assert audit.sign_disagreements == 0


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
    a = denom_A(P2, 4, 4, 0.0, 0.0)
    assert a == pytest.approx(-384.0, rel=1e-13)
    assert abs(a) / 4 ** (P2.alpha + 1) == pytest.approx(6.0, rel=1e-13)
    assert denom_A(P2, 1, 1, 0.0, 0.0) == pytest.approx(-resonance_r(P2, 2, 1), rel=1e-13)
    with pytest.raises(DegenerateFrequencyError):
        denom_A(P2, 1, -1, 0.0, 0.0)


def test_denom_B_values_and_cancellation():
    n = 4
    a = denom_A(P2, n, n, 0.0, 0.0)
    b = denom_B(P2, n, n, -n, 0.0, 0.0, 0.0)
    assert a + b == pytest.approx(0.0, abs=1e-11)

    # transverse contributions at eta = (1, 1, -1) keep the exact cancellation
    a = denom_A(P2, 4, 4, 1.0, 1.0)
    b = denom_B(P2, 4, 4, -4, 1.0, 1.0, -1.0)
    assert a == pytest.approx(-384.0, rel=1e-13)
    assert b == pytest.approx(384.0, rel=1e-13)
    assert a + b == pytest.approx(0.0, abs=1e-11)

    # asymmetric transverse data: small but nonzero, bounded by the beta^2 scale
    # A = -384 - 1/4 - 1/16 + 9/32, B = 384 + 9/64 - 9/32 + 9/64 (all dyadic)
    a = denom_A(P2, 4, 4, 1.0, 0.5)
    b = denom_B(P2, 4, 4, -4, 1.0, 0.5, -0.75)
    assert a == pytest.approx(-384.03125, rel=1e-13)
    assert b == pytest.approx(384.0, rel=1e-13)
    assert a + b == pytest.approx(-0.03125, rel=1e-9)
    assert 0 < abs(a + b) <= 9 * 0.5**2

    with pytest.raises(DegenerateFrequencyError):
        denom_B(P2, 1, -1, 1, 0.0, 0.0, 0.0)


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
    series = phi1_series(z)
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
