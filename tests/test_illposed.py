"""Indicator-data derivative experiment: construction, kernels, scaling."""

import itertools
import math

import numpy as np
import pytest

from kplab import cli, fields, illposed, symbols
from kplab.errors import InvalidSpecError
from kplab.evolution import free_evolve
from kplab.fields import SpectralField, make_grid, sobolev_norm, to_physical
from kplab.illposed import (
    IllposedConfig,
    ThirdDerivativeReport,
    build_wN,
    third_derivative_norm,
    wN_norm_exact,
)
from kplab.symbols import DispersionParams, denom_A, phase_grid, phi0, phi1

P2 = DispersionParams(2.0)
# the admissible (k1, k2, k3) / N of the indicator family
SIGN_PATTERNS = ((1, 1, 1), (1, 1, -1), (-1, -1, 1), (-1, -1, -1))
# criterion 9's (alpha, s) pairs, which the benchmark's illposed-scaling steps also run
CRITERION_9_PAIRS = ((2.0, 0.0), (2.0, -0.75), (3.0, -0.5))


def wn_grid(n):
    return make_grid(2 * n + 2, 128, 128 * math.pi, tPoints=8, tWindow=1.0)


def test_config_validation():
    with pytest.raises(InvalidSpecError):
        IllposedConfig(N=4)
    with pytest.raises(InvalidSpecError):
        IllposedConfig(N=16, betaInterval=0.5)
    with pytest.raises(InvalidSpecError):
        IllposedConfig(N=16, etaQuadPoints=33)


def test_build_wN_indicator():
    cfg = IllposedConfig(N=16)
    g = wn_grid(16)
    w = build_wN(cfg, g)
    ka = g.k_axis()
    eta = g.eta_axis()
    inside = np.abs(eta) <= cfg.half_width * (1 + 1e-12)
    inside[g.yPoints // 2] = False
    for col in (np.where(ka == 16)[0][0], np.where(ka == -16)[0][0]):
        assert np.all(w.coeffs[col, inside] == 1.0)
        assert np.all(w.coeffs[col, ~inside] == 0.0)
    others = (ka != 16) & (ka != -16)
    assert np.all(w.coeffs[others] == 0)
    assert np.max(np.abs(to_physical(w).imag)) < 1e-12


def test_build_wN_grid_norm_close_to_exact():
    cfg = IllposedConfig(N=64)
    g = wn_grid(64)
    w = build_wN(cfg, g)
    for s in (0.0, -0.5):
        grid_norm = sobolev_norm(w, s, 0.0)
        exact = wN_norm_exact(cfg, s)
        # the lattice indicator count differs from 2W/deta by at most one cell
        assert abs(grid_norm - exact) / exact < 1.5 * g.deta / cfg.half_width


def test_build_wN_errors_and_warning():
    with pytest.raises(InvalidSpecError, match="N = 256 exceeds grid kMax"):
        build_wN(IllposedConfig(N=256), wn_grid(16))
    tiny = make_grid(40, 32, 4 * math.pi, tPoints=8, tWindow=1.0)  # deta = 0.5
    with pytest.raises(InvalidSpecError, match="is below the eta spacing 0.5"):
        build_wN(IllposedConfig(N=16, betaInterval=0.05), tiny)  # W = 0.2 < deta
    with pytest.warns(UserWarning):
        build_wN(IllposedConfig(N=16), make_grid(40, 64, 32 * math.pi, tPoints=8, tWindow=1.0))


def test_build_wN_lists_every_violation():
    # a T x R^2 grid whose kMax is below N breaks two rules, listed together
    with pytest.raises(InvalidSpecError) as err:
        build_wN(IllposedConfig(N=256), make_grid(16, 16, 8 * math.pi, yDims=2))
    assert err.value.violations == ["the derivative experiment lives on T x R (yDims=1)",
                                    "N = 256 exceeds grid kMax = 16"]


def test_first_derivative_is_free_flow():
    # d(flow)/d(data) at zero data is the free evolution itself
    cfg = IllposedConfig(N=16)
    g = wn_grid(16)
    w = build_wN(cfg, g)
    assert np.array_equal(free_evolve(w, 0.0, P2).coeffs, w.coeffs)
    d = free_evolve(w, 0.37, P2)
    for s in (0.0, -0.75):
        assert sobolev_norm(d, s, 0.0) == pytest.approx(
            sobolev_norm(w, s, 0.0), rel=1e-12
        )


def second_derivative(w, t, params):
    """Second data-derivative of the flow at zero: the pair-interaction sum.

    For each output frequency (k, eta) with k = k1 + k2 over admissible pairs
    of populated columns, accumulates
        (k1 + k2) * i t * phi1(i t A) * e^{i t phi(k, eta)}
        * sum_{eta_1} w(k1, eta_1) w(k2, eta - eta_1) * deta.
    Inputs must be band-limited to half the eta lattice so the convolution
    index never wraps onto populated rows.
    """
    g = w.grid
    kaxis = g.k_axis()
    c = w.coeffs
    populated = [int(k) for k in kaxis[np.any(np.abs(c) > 0, axis=1)]]
    eta = g.eta_axis()
    ny = g.yPoints
    out = np.zeros(g.spatial_shape, dtype=complex)
    idx_of_k = {int(k): i for i, k in enumerate(kaxis)}

    qo = np.arange(ny)
    q1 = np.arange(ny)
    shift_idx = (qo[:, None] - q1[None, :]) % ny  # lattice row of eta_out - eta_1

    for k1 in populated:
        for k2 in populated:
            ksum = k1 + k2
            if ksum == 0:
                continue
            assert abs(ksum) <= g.kMax
            pa = phi0(params, k1) + phi0(params, k2) - phi0(params, ksum)
            e1 = eta[None, :]
            e2 = eta[:, None] - e1
            a = pa - e1**2 / k1 - e2**2 / k2 + (eta**2)[:, None] / ksum
            kern = phi1(1j * t * a)
            c1 = c[idx_of_k[k1]]
            c2 = c[idx_of_k[k2]][shift_idx]
            conv = np.sum(kern * c1[None, :] * c2, axis=1) * g.deta
            out[idx_of_k[ksum]] += ksum * 1j * t * conv

    phi = fields.phi_grid(g, params)
    return SpectralField(g, out * np.exp(1j * t * phi))


def test_second_derivative_support_and_t0():
    cfg = IllposedConfig(N=16)
    g = wn_grid(16)
    w = build_wN(cfg, g)
    out = second_derivative(w, 0.0, P2)
    assert np.all(out.coeffs == 0)
    out = second_derivative(w, 0.1, P2)
    ka = g.k_axis()
    nz = np.any(np.abs(out.coeffs) > 1e-15, axis=1)
    assert set(ka[nz].tolist()) <= {32, -32}
    assert np.max(np.abs(out.coeffs)) > 0


def test_second_derivative_single_point_surrogate():
    n, t = 16, 0.1
    g = wn_grid(n)
    c = np.zeros(g.spatial_shape, complex)
    col = np.where(g.k_axis() == n)[0][0]
    c[col, 0] = 1.0  # lattice delta at (N, eta=0) only
    w = SpectralField(g, c)
    out = second_derivative(w, t, P2)

    a = denom_A(P2, n, n, 0.0, 0.0, 0.0)
    expect = 2 * n * 1j * t * phi1(1j * t * a) * g.deta * np.exp(
        1j * t * phase_grid(P2, 2.0 * n, 0.0)
    )
    col2 = np.where(g.k_axis() == 2 * n)[0][0]
    assert out.coeffs[col2, 0] == pytest.approx(expect, rel=1e-10)
    mask = np.ones(g.spatial_shape, bool)
    mask[col2, 0] = False
    assert np.max(np.abs(out.coeffs[mask])) < 1e-15 * abs(expect)


def test_third_derivative_zero_at_t0():
    rep = third_derivative_norm(IllposedConfig(N=16, t=0.0), P2)
    assert rep.total == 0.0


def test_third_derivative_even_in_t():
    r1 = third_derivative_norm(IllposedConfig(N=32, t=0.1), P2)
    r2 = third_derivative_norm(IllposedConfig(N=32, t=-0.1), P2)
    assert abs(r1.total - r2.total) / r1.total <= 1e-10


def test_third_derivative_quadrature_convergence():
    base = third_derivative_norm(IllposedConfig(N=32, t=0.1, etaQuadPoints=64), P2)
    fine = third_derivative_norm(IllposedConfig(N=32, t=0.1, etaQuadPoints=128), P2)
    assert abs(fine.total - base.total) / base.total < 0.01


def test_third_derivative_linear_in_small_t():
    a = third_derivative_norm(IllposedConfig(N=32, t=0.05), P2)
    b = third_derivative_norm(IllposedConfig(N=32, t=0.1), P2)
    assert (b.total / 0.1) / (a.total / 0.05) == pytest.approx(1.0, abs=0.02)


def test_third_derivative_low_output_dominates():
    rep = third_derivative_norm(IllposedConfig(N=32, t=0.1), P2)
    assert isinstance(rep, ThirdDerivativeReport)
    assert rep.restricted / rep.total > 0.999
    assert set(rep.per_k) == {96, 32, -32, -96}


def _dense_third_derivative_norm(cfg, params, chunk=32):
    """The quadrature on every (eta_out, u) pair, masked to the band afterwards (the oracle)."""
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
    eta1 = lo[:, None] + (hi - lo)[:, None] * frac[None, :]
    fiber_w = (hi - lo) / m

    per_k = {}
    for s1, s2, s3 in SIGN_PATTERNS:
        k1, k2, k3 = s1 * n, s2 * n, s3 * n
        k12 = k1 + k2
        kout = k12 + k3
        pa = phi0(params, k1) + phi0(params, k2) - phi0(params, k12)
        pb = phi0(params, k3) + phi0(params, k12) - phi0(params, kout)

        eta2 = u_nodes[:, None] - eta1
        a = pa - eta1**2 / k1 - eta2**2 / k2 + (u_nodes**2)[:, None] / k12
        b = (
            pb
            - (eta_out[:, None] - u_nodes[None, :]) ** 2 / k3
            - (u_nodes**2)[None, :] / k12
            + (eta_out**2)[:, None] / kout
        )
        inside = np.abs(eta_out[:, None] - u_nodes[None, :]) <= w * (1.0 + 1e-12)
        p1 = phi1(1j * t * b)

        x = np.zeros(eta_out.size, dtype=complex)
        for i0 in range(0, eta_out.size, chunk):
            sl = slice(i0, min(i0 + chunk, eta_out.size))
            z2 = 1j * t * (a[None, :, :] + b[sl][:, :, None])
            bracket = 1j * t * (phi1(z2) - p1[sl][:, :, None])
            fib = np.sum(bracket / a[None, :, :], axis=2) * fiber_w[None, :]
            x[sl] = np.sum(fib * inside[sl] * delta, axis=1)
        x *= (k12 * kout) * np.exp(1j * t * (phi0(params, kout) - eta_out**2 / kout))

        sq = (1.0 + kout**2) ** cfg.s * float(np.trapezoid(np.abs(x) ** 2, dx=delta))
        per_k[kout] = math.sqrt((2.0 * math.pi) ** 2 * sq)

    total = math.sqrt(sum(v**2 for v in per_k.values()))
    restricted = math.sqrt(per_k[n] ** 2 + per_k[-n] ** 2)
    return ThirdDerivativeReport(total=total, restricted=restricted, per_k=per_k)


# the float A + B is exactly 0 on some (+,+,-) fiber nodes of these (8 at N = 64,
# 162 at N = 128, 29,012 at alpha = 8), where the kernel takes the limit E(0) = it
ZERO_DENOMINATOR_CASES = [(48, 0.1, 3.0, 64), (48, 0.1, 3.0, 128), (32, 0.1, 8.0, 16)]


@pytest.mark.parametrize(
    "m, t, alpha, n",
    list(itertools.product([32, 48], [0.1, -0.05], [2.0, 3.0], [8, 16, 32]))
    + ZERO_DENOMINATOR_CASES,
)
def test_third_derivative_band_matches_dense_quadrature(m, t, alpha, n):
    cfg = IllposedConfig(N=n, t=t, etaQuadPoints=m, s=-0.5)
    params = DispersionParams(alpha)
    got = third_derivative_norm(cfg, params)
    want = _dense_third_derivative_norm(cfg, params)
    assert set(got.per_k) == set(want.per_k)
    for k, v in want.per_k.items():
        assert got.per_k[k] == pytest.approx(v, rel=1e-13, abs=0.0)
    assert got.total == pytest.approx(want.total, rel=1e-13, abs=0.0)
    assert got.restricted == pytest.approx(want.restricted, rel=1e-13, abs=0.0)


def _four_pattern_third_derivative_norm(cfg, params, chunk=32):
    """The banded quadrature over all four sign patterns, none mirrored (the oracle)."""
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
    eta1 = lo[:, None] + (hi - lo)[:, None] * frac[None, :]
    fiber_w = (hi - lo) / m

    rows, cols = np.nonzero(
        np.abs(eta_out[:, None] - u_nodes[None, :]) <= w * (1.0 + 1e-12)
    )
    e_out, u = eta_out[rows], u_nodes[cols]

    per_k = {}
    for s1, s2, s3 in SIGN_PATTERNS:
        k1, k2, k3 = s1 * n, s2 * n, s3 * n
        k12 = k1 + k2
        kout = k12 + k3
        pa = phi0(params, k1) + phi0(params, k2) - phi0(params, k12)
        pb = phi0(params, k3) + phi0(params, k12) - phi0(params, kout)

        eta2 = u_nodes[:, None] - eta1
        a = pa - eta1**2 / k1 - eta2**2 / k2 + (u_nodes**2)[:, None] / k12
        b = pb - (e_out - u) ** 2 / k3 - u**2 / k12 + e_out**2 / kout
        # the library's per-pattern fiber sum, run here on all four patterns
        x = illposed._fiber_sums(a, b, rows, cols, fiber_w * delta, t, eta_out.size, chunk)
        x *= (k12 * kout) * np.exp(1j * t * (phi0(params, kout) - eta_out**2 / kout))

        sq = (1.0 + kout**2) ** cfg.s * float(np.trapezoid(np.abs(x) ** 2, dx=delta))
        per_k[kout] = math.sqrt((2.0 * math.pi) ** 2 * sq)

    total = math.sqrt(sum(v**2 for v in per_k.values()))
    restricted = math.sqrt(per_k[n] ** 2 + per_k[-n] ** 2)
    return ThirdDerivativeReport(total=total, restricted=restricted, per_k=per_k)


@pytest.mark.parametrize("alpha, s", CRITERION_9_PAIRS)
@pytest.mark.parametrize("m", [48, 64])
def test_third_derivative_mirrored_patterns_match_all_four_exactly(alpha, s, m):
    params = DispersionParams(alpha)
    for n in (16, 32, 64, 128):
        cfg = IllposedConfig(N=n, s=s, etaQuadPoints=m)
        got = third_derivative_norm(cfg, params)
        want = _four_pattern_third_derivative_norm(cfg, params)
        # same keys in the same order, so total sums the same numbers in the same order
        assert list(got.per_k.items()) == list(want.per_k.items())
        assert got.total == want.total
        assert got.restricted == want.restricted


def test_third_derivative_forms_only_in_band_pairs(monkeypatch):
    seen = {"phi1": 0, "fiber": 0}

    def counting_phi1(z):
        seen["phi1"] += np.size(z)
        return phi1(z)

    def counting_fiber(x, t):
        seen["fiber"] += np.size(x)
        return fiber_expm1(x, t)

    fiber_expm1 = illposed._fiber_expm1
    monkeypatch.setattr(illposed, "phi1", counting_phi1)
    monkeypatch.setattr(illposed, "_fiber_expm1", counting_fiber)
    m = 32
    third_derivative_norm(IllposedConfig(N=16, etaQuadPoints=m), P2)
    # per computed sign pattern (two of the four): E(B) = i t phi1(i t B) on the
    # 2m^2 pairs, E(A_j + B) on their m fiber nodes
    assert seen["phi1"] == 2 * 2 * m * m == 4096
    assert seen["fiber"] == 2 * 2 * m * m * m == 131072


ULP = np.finfo(float).eps


@pytest.mark.parametrize("t", [0.1, -0.05, 1.0])
def test_fiber_expm1_matches_phi1_on_both_sides_of_the_switch(t):
    # |t x| from 1e-8 to 1e20, across phi1's series/direct switch at |z| = 1e-4
    rng = np.random.default_rng(7)
    tx = 10.0 ** rng.uniform(-8.0, 20.0, 200_000)
    tx = np.concatenate([tx, np.geomspace(0.5e-4, 2e-4, 1001), [1e-4]])
    x = tx * rng.choice([-1.0, 1.0], tx.size) / abs(t)
    re, im = illposed._fiber_expm1(x, t)
    want = 1j * t * phi1(1j * t * x)
    assert np.all(np.abs(re + 1j * im - want) <= 4 * ULP * np.abs(want))
    # the zero limit exactly, and the mirror bit for bit
    re0, im0 = illposed._fiber_expm1(np.array([0.0, -0.0]), t)
    assert np.array_equal(re0, [0.0, 0.0]) and np.array_equal(im0, [t, t])
    re_neg, im_neg = illposed._fiber_expm1(-x, t)
    assert np.array_equal(re_neg, -re) and np.array_equal(im_neg, im)


def _third_derivative_dilation_defects(alpha, lam):
    """Relative defects of the dilation law of `per_k` at kout = +-N and at kout = 3N.

    The anisotropic dilation (ROADMAP item 18) takes (N, betaInterval, t) to
    (lam N, betaInterval lam^((alpha+1)/2), t / lam^(alpha+1)): the
    indicator's half-width grows by lam^beta, beta = (alpha + 2)/2, A, B and
    the output phase by lam^(alpha+1), so t A, t B and t phi are unchanged,
    and at s = 0 per_k'(lam kout) = lam^((10 - 3 alpha)/4) per_k(kout).
    Base N = 8 and betaInterval 0.005 (the scaled one stays <= 0.1 up to
    alpha = 4, lam = 3), t = 0.1, 32 quadrature points.
    """
    p, s = DispersionParams(alpha), lam ** (alpha + 1.0)
    cfg = IllposedConfig(N=8, betaInterval=0.005, s=0.0, t=0.1, etaQuadPoints=32)
    big = IllposedConfig(N=lam * 8, betaInterval=0.005 * lam ** ((alpha + 1.0) / 2.0), s=0.0,
                         t=0.1 / s, etaQuadPoints=32)
    plain, scaled = third_derivative_norm(cfg, p).per_k, third_derivative_norm(big, p).per_k
    factor = lam ** ((10.0 - 3.0 * alpha) / 4.0)
    defect = {k: abs(scaled[lam * k] / (factor * plain[k]) - 1.0) for k in (8, -8, 24)}
    return max(defect[8], defect[-8]), defect[24]


# the tolerances, measured first at alpha in {2, 2.5, 3, 4} x lam in {2, 3}:
# at kout = +-N the defect is at most 1.9e-15 (8.5 eps), held to 32 eps; at
# kout = 3N it measures the output phase's conditioning (ROADMAP item 17): at
# most 1.36 t |phi0(3N)| eps (1.0e-11 at alpha = 3, lam = 3), held to 8 times that
_AT_N = 32 * np.finfo(float).eps


def _at_3n(alpha):
    return 8 * 0.1 * phi0(DispersionParams(alpha), 24) * np.finfo(float).eps


@pytest.mark.parametrize("lam", [2, 3])
@pytest.mark.parametrize("alpha", [2.0, 2.5, 3.0, 4.0])
def test_third_derivative_norm_obeys_the_anisotropic_dilation(alpha, lam):
    at_n, at_3n = _third_derivative_dilation_defects(alpha, lam)
    assert at_n <= _AT_N and at_3n <= _at_3n(alpha)


def test_third_derivative_dilation_law_fails_for_a_phase_of_the_wrong_degree(monkeypatch):
    # negative control: + sign(k) |k|^2 in phi0, and so in A, B and the output
    # phase, is homogeneous of degree 2, not alpha + 1 (measured defects 2.1e-2
    # at kout = +-N and 0.41 at 3N, at alpha = 2, lam = 2)
    plain = symbols.phi0
    monkeypatch.setattr(symbols, "phi0", lambda params, k: plain(params, k) + np.sign(k) * np.abs(
        np.asarray(k, dtype=float)) ** 2.0)
    at_n, at_3n = _third_derivative_dilation_defects(2.0, 2)
    assert at_n > 1e3 * _AT_N and at_3n > 1e3 * _at_3n(2.0)


def test_illposed_scaling_smoke_bounded_case():
    env = cli.run("illposed-scaling", {"alpha": P2.alpha, "s": 0.0, "Ns": [16, 32, 64, 128]})
    summary = env["summary"]
    assert env["verdict"] == "no failure detected"
    assert summary["fittedExponent"] == pytest.approx(-0.5, abs=0.1)
    assert summary["wNormExponent"] == pytest.approx(0.25, abs=0.05)


def test_wn_norm_exponent_fit():
    from kplab.estimates import fit_exponent

    for s in (0.0, -0.75):
        samples = [
            (n, wN_norm_exact(IllposedConfig(N=n), s)) for n in (16, 32, 64, 128, 256)
        ]
        fit = fit_exponent(samples)
        assert fit.exponent == pytest.approx(s + 0.25, abs=0.05)
