"""Ratio harnesses: oracles, generators, counterexample quadrature, fits."""

import math
from dataclasses import replace

import numpy as np
import pytest

from kplab.errors import (
    BandExceedsGridError,
    InsufficientSpanError,
    InvalidSpecError,
    NonFiniteValueError,
    NonpositiveValueError,
    ZeroDenominatorError,
)
from kplab import cli, estimates, fields
from kplab.estimates import (
    BILINEAR_KINDS,
    CounterexampleConfig,
    adversarial_pair,
    bilinear_ratio,
    counterexample_denominator,
    counterexample_lhs,
    envelope_fit,
    fit_exponent,
    grows,
    spacetime_pair,
    strichartz2d_ratio,
    strichartz3d_ratio,
    sweep_verdict,
)
from kplab.evolution import CutoffSpec, bump, raised_cosine_window
from kplab.fields import (
    BandSpec,
    NormSpec,
    ProductPlan,
    SpaceTimeBox,
    SpectralField,
    box_of,
    make_grid,
    occupied,
    phi_grid,
    product_grid,
    random_field,
    sobolev_norm,
)
from kplab.symbols import DispersionParams, phase_grid
from lattice_helpers import dilate, shear

P2 = DispersionParams(2.0)


# ---------------------------------------------------------------------------
# fits


def test_fit_exponent_basics():
    assert fit_exponent([(10, 1.0), (100, 10.0)]).exponent == pytest.approx(1.0)
    flat = fit_exponent([(8, 3.0), (16, 3.0), (64, 3.0)])
    assert flat.exponent == pytest.approx(0.0, abs=1e-12)
    syn = fit_exponent([(n, 2.5 * n**-0.5) for n in (8, 16, 32, 64)])
    assert syn.exponent == pytest.approx(-0.5, abs=1e-12)
    assert syn.residual < 1e-12


def test_fit_exponent_errors():
    with pytest.raises(InsufficientSpanError):
        fit_exponent([(10, 1.0)])
    with pytest.raises(InsufficientSpanError):
        fit_exponent([(10, 1.0), (20, 2.0)])  # span 2 < 8
    with pytest.raises(NonpositiveValueError):
        fit_exponent([(10, 1.0), (100, 0.0)])
    # an infinite sample used to give a NaN slope, and NaN > 0.1 read "bounded"
    with pytest.raises(NonFiniteValueError):
        fit_exponent([(8, 1.0), (16, math.inf), (64, 2.0)])


def test_growth_verdict_rule():
    assert grows(0.2) and not grows(0.1) and not grows(-3.0)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(NonFiniteValueError):
            grows(bad)


def test_envelope_fit_uses_per_n_max():
    rows = [
        {"N": 8, "value": 1.0},
        {"N": 8, "value": 3.0},
        {"N": 64, "value": 2.9},
        {"N": 64, "value": 0.5},
    ]
    fit = envelope_fit(rows)
    assert fit.samples == ((8, 3.0), (64, 2.9))
    assert fit.exponent == pytest.approx(math.log(2.9 / 3.0) / math.log(8.0))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_envelope_fit_rejects_a_non_finite_member(bad):
    # a NaN loses every comparison, so a per-N maximum used to drop it and
    # fit the remaining members as if it had never been computed
    rows = [
        {"N": 8, "value": 1.0},
        {"N": 8, "value": bad},
        {"N": 64, "value": 2.0},
        {"N": 64, "value": bad},
    ]
    with pytest.raises(NonFiniteValueError, match="N=8"):
        envelope_fit(rows)
    with pytest.raises(NonFiniteValueError, match="N=8"):
        sweep_verdict(rows)


def test_sweep_verdict_summary_and_words():
    rows = [{"N": 8, "value": 1.0}, {"N": 64, "value": 8.0}, {"N": 64, "value": 0.5}]
    summary, verdict = sweep_verdict(rows)
    assert verdict == "estimate fails"
    assert summary["fittedExponent"] == pytest.approx(1.0)
    assert summary["perNMax"] == {"8": 1.0, "64": 8.0}
    assert set(summary) == {"fittedExponent", "residual", "perNMax"}
    flat = [{"N": 8, "value": 1.0}, {"N": 64, "value": 1.0}]
    assert sweep_verdict(flat)[1] == "bounded"
    assert sweep_verdict(flat, fails="C3 fails", holds="no failure detected")[1] == (
        "no failure detected"
    )


# ---------------------------------------------------------------------------
# cutoff bilinear ratio (2d)


def ratio_grid():
    return make_grid(6, 32, 16 * math.pi, tPoints=64, tWindow=2.0)


def test_strichartz2d_zero_denominator():
    g = ratio_grid()
    u = random_field(g, BandSpec(1, 3, 1.0), seed=1)
    z = SpectralField(g, np.zeros(g.spatial_shape, complex))
    with pytest.raises(ZeroDenominatorError):
        strichartz2d_ratio(u, z, 0.25, 0.0, CutoffSpec(T=1.0), P2)


def test_strichartz2d_single_mode_closed_form():
    # u0 = v0 = 2 deta cos(x + eta0 y): |u(t)|^2 is a rigid translate, so the
    # time integral factorizes into ||psi||_{L2} times an explicit L2 norm;
    # 256 t-points put the cutoff's own quadrature error below 1e-14
    g = make_grid(6, 32, 16 * math.pi, tPoints=256, tWindow=2.0)
    q0 = 4
    c = np.zeros(g.spatial_shape, complex)
    c[1, q0] = 1.0
    c[-1, (g.yPoints - q0) % g.yPoints] = 1.0
    u0 = SpectralField(g, c)

    s1, s2 = 0.25, 0.0
    val = strichartz2d_ratio(u0, u0, s1, s2, CutoffSpec(T=1.0), P2)

    L = g.yLength
    de = g.deta
    lhs_sq_per_t = 4 * de**4 * (2 * math.pi * L + math.pi * L)
    psi_l2 = math.sqrt(g.dt * np.sum(bump(g.t_axis()) ** 2))
    denom = sobolev_norm(u0, s1, 0.0) * sobolev_norm(u0, s2, 0.0)
    expect = psi_l2 * math.sqrt(lhs_sq_per_t) / denom
    assert val == pytest.approx(expect, rel=1e-8)

    # dense time-domain quadrature oracle (8x finer lattice, same integrand)
    tfine = np.linspace(-2.0, 2.0, 8 * g.tPoints, endpoint=False)
    dt = tfine[1] - tfine[0]
    lhs_dense = math.sqrt(
        dt * np.sum(bump(tfine) ** 2) * lhs_sq_per_t
    )
    assert val == pytest.approx(lhs_dense / denom, rel=1e-8)


def test_strichartz2d_rejects_wrong_dimension():
    g3 = make_grid(4, 16, 8 * math.pi, yDims=2, tPoints=16, tWindow=2.0)
    u = random_field(g3, BandSpec(1, 3, 0.8), seed=2)
    with pytest.raises(InvalidSpecError):
        strichartz2d_ratio(u, u, 0.25, 0.0, CutoffSpec(T=1.0), P2)


def test_strichartz_ratio_lists_every_violation():
    # mismatched grids and a negative s1 are two violations, reported together
    u = random_field(make_grid(4, 16, 8 * math.pi), BandSpec(1, 3, 0.8), seed=2)
    v = random_field(make_grid(6, 16, 8 * math.pi), BandSpec(1, 3, 0.8), seed=3)
    with pytest.raises(InvalidSpecError) as err:
        strichartz2d_ratio(u, v, -0.25, 0.0, CutoffSpec(T=1.0), P2)
    assert err.value.violations == ["u0 and v0 must share a grid",
                                    "s1, s2 must be >= 0, got -0.25, 0.0"]


def test_strichartz3d_single_mode_and_errors():
    p = DispersionParams(2.0)
    g = make_grid(4, 16, 8 * math.pi, yDims=2, tPoints=32, tWindow=4.0)
    c = np.zeros(g.spatial_shape, complex)
    c[1, 2, 3] = 1.0
    c[-1, -2, -3] = 1.0
    u0 = SpectralField(g, c)
    val = strichartz3d_ratio(u0, u0, 0.6, 0.6, p)

    L = g.yLength
    de = g.deta
    # |u|^2 = 4 de^4 cos^2(theta): ||u^2||^2 = 4 de^8 (2 pi L^2 + pi L^2)... with d=2
    lhs_sq_per_t = 4 * de**8 * (2 * math.pi * L**2 + math.pi * L**2)
    w = raised_cosine_window(g)
    lhs = math.sqrt(g.dt * np.sum(w**2) * lhs_sq_per_t)
    denom = sobolev_norm(u0, 0.6, 0.0) ** 2
    assert val == pytest.approx(lhs / denom, rel=1e-8)

    z = SpectralField(g, np.zeros(g.spatial_shape, complex))
    with pytest.raises(ZeroDenominatorError):
        strichartz3d_ratio(u0, z, 0.6, 0.6, p)


def _doubled_grid_lhs(u0, v0, weights, params):
    # oracle: both evolved factors on the doubled grid (positive frequencies
    # keep their index, negative ones move to the tail of each axis), summed
    # with the doubled grid's cell
    g, g2 = u0.grid, product_grid(u0.grid)
    index = []
    for n, m in zip(g.spatial_shape, g2.spatial_shape):
        q = np.arange(n)
        index.append(np.where(q < (n + 1) // 2, q, m - n + q))
    index = np.ix_(*index)
    phi = phi_grid(g, params)
    size = math.prod(g2.spatial_shape)
    total = 0.0
    for w, t in zip(weights, g.t_axis()):
        samples = []
        for f in (u0, v0):
            big = np.zeros(g2.spatial_shape, complex)
            big[index] = f.coeffs * np.exp(1j * t * phi)
            samples.append(size * np.fft.ifftn(big))
        total += w * w * np.sum(np.abs(samples[0] * samples[1]) ** 2)
    cell = (2.0 * math.pi / g2.nx) * g2.dy**g2.yDims
    return math.sqrt(g.dt * cell * total) * g.deta ** (2 * g.yDims)


@pytest.mark.parametrize("kind", estimates.STRICHARTZ2D_KINDS)
def test_product_l2_lhs_matches_doubled_grid(kind):
    n = 4
    g = make_grid(2 * n + 2, 64, 32 * math.pi, tPoints=32, tWindow=2.0)
    u, v = adversarial_pair(kind, n, g, seed=3)
    w = CutoffSpec(T=1.0).values(g.t_axis())
    got = estimates._product_l2_lhs(u, v, w, P2)
    assert got == pytest.approx(_doubled_grid_lhs(u, v, w, P2), rel=1e-12)


def test_product_l2_lhs_matches_doubled_grid_3d():
    p = DispersionParams(2.0)
    g = make_grid(6, 16, 16 * math.pi, yDims=2, tPoints=16, tWindow=4.0)
    band = BandSpec(kLo=2, kHi=4, etaHi=0.8)
    u, v = random_field(g, band, seed=31), random_field(g, band, seed=32)
    w = raised_cosine_window(g)
    got = estimates._product_l2_lhs(u, v, w, p)
    assert got == pytest.approx(_doubled_grid_lhs(u, v, w, p), rel=1e-12)


def _direct_lhs(u0, v0, weights, phi, packed=True, phase=lambda x: np.exp(1j * x)):
    # oracle: the lhs with each row's phase formed afresh, phase(t phi) read
    # on each factor's occupied box, as before the phase recurrence; with
    # packed False each factor's samples take a padded array of their own
    g = u0.grid
    held = occupied(u0.coeffs), occupied(v0.coeffs)
    (_, a), (_, b) = held
    plan = ProductPlan(*held[0], *held[1])
    plan.packed = plan.packed and packed
    phi_a, phi_b = (phi[fields._box_index(lo, c.shape, phi.shape)] for lo, c in held)
    cell = 2.0 * math.pi * g.yLength**g.yDims / plan.size
    total = 0.0
    for w, t in zip(weights, g.t_axis()):
        if w == 0.0:
            continue
        ua, ub = a * phase(t * phi_a), b * phase(t * phi_b)
        total += w * w * plan.sample_energy(ua, ub)
    return math.sqrt(g.dt * cell * total) * g.deta ** (2 * g.yDims)


@pytest.mark.parametrize(
    "step, kind, n",
    [("2d", "random", 4), ("2d", "random", 32), ("2d", "low-high", 4),
     ("2d", "low-high", 32), ("3d", "random", 1), ("3d", "random", 8)],
)
def test_packed_strichartz_ratios_match_the_two_array_route(step, kind, n):
    # the real pairs of the strichartz2d/3d sweeps, at the benchmark's sizes
    s1, s2 = 0.25, 0.1
    if step == "3d":
        p, g = DispersionParams(2.0), estimates.strichartz3d_grid(n)
        band = BandSpec(kLo=n, kHi=2 * n, etaHi=min(0.8, 0.4 * g.deta * g.yPoints / 2))
        u, v = (random_field(g, band, np.random.SeedSequence((0, n, s))) for s in (31, 32))
    else:
        p, g = P2, estimates.strichartz2d_grid(n)
        u, v = adversarial_pair(kind, n, g, seed=0)
    assert ProductPlan(*occupied(u.coeffs), *occupied(v.coeffs)).packed
    denom = sobolev_norm(u, s1, 0.0) * sobolev_norm(v, s2, 0.0)
    if step == "3d":
        got = strichartz3d_ratio(u, v, s1, s2, p)
        w = raised_cosine_window(g)
    else:
        cutoff = CutoffSpec(T=1.0)
        got = strichartz2d_ratio(u, v, s1, s2, cutoff, p)
        w = cutoff.values(g.t_axis())
    two_array = _direct_lhs(u, v, w, phi_grid(g, p), packed=False)
    assert got == pytest.approx(two_array / denom, rel=1e-13)


RECURRENCE_KINDS = ("random", "comparable", "low-high")


def _sweep_pair(kind, n, t_points):
    # a strichartz2d sweep member on its grid with `t_points` rows, and the weights
    g = replace(estimates.strichartz2d_grid(n), tPoints=t_points)
    return adversarial_pair(kind, n, g, seed=0), CutoffSpec(T=1.0).values(g.t_axis())


@pytest.mark.parametrize("t_points", [64, 1024])
@pytest.mark.parametrize("n", [8, 32])
@pytest.mark.parametrize("kind", RECURRENCE_KINDS)
def test_phase_recurrence_matches_the_per_row_exponential(kind, n, t_points):
    # at alpha = 2 each row advanced adds a few ulp per entry: the bound was
    # set at 1e-13 before measuring (the largest move measured is 5.2e-15)
    (u, v), w = _sweep_pair(kind, n, t_points)
    direct = _direct_lhs(u, v, w, phi_grid(u.grid, P2))
    assert estimates._product_l2_lhs(u, v, w, P2) == pytest.approx(direct, rel=1e-13)


def _longdouble_phase(x):
    # e^{ix} from a long double phase: the argument is not rounded to float64
    return (np.cos(x) + 1j * np.sin(x)).astype(complex)


def _longdouble_phi(g, alpha):
    # phi_grid's phi(k, eta) = |k|^alpha k - eta^2 / k, formed in long double
    k = g.k_axis().astype(np.longdouble)[:, None]
    k[0] = 1.0  # the unused k = 0 row, zeroed below
    eta = g.eta_axis().astype(np.longdouble)[None, :]
    phi = np.abs(k) ** alpha * k - eta**2 / k
    phi[0] = 0.0
    return phi


@pytest.mark.skipif(np.finfo(np.longdouble).eps == np.finfo(float).eps,
                    reason="long double is float64 here")
@pytest.mark.parametrize("n", [8, 32])
@pytest.mark.parametrize("kind", RECURRENCE_KINDS)
def test_phase_recurrence_is_as_close_to_a_long_double_phase_as_the_direct_route(kind, n):
    # at alpha = 4, t phi reaches 1e9 and is not exact in float64; both routes
    # are set off the long double oracle by phi's rounding to float64, the
    # recurrence by at most 1.7x the direct route's distance where measured
    p = DispersionParams(4.0)
    (u, v), w = _sweep_pair(kind, n, 64)
    oracle = _direct_lhs(u, v, w, _longdouble_phi(u.grid, p.alpha), phase=_longdouble_phase)
    direct = abs(_direct_lhs(u, v, w, phi_grid(u.grid, p)) / oracle - 1.0)
    recurrence = abs(estimates._product_l2_lhs(u, v, w, p) / oracle - 1.0)
    assert recurrence <= 3.0 * direct


def _sheared(u, v, m, axis=1):
    """The pair sheared along eta axis `axis`; one field twice stays one field.

    Nothing may wrap: every nonzero entry must land strictly inside the eta
    lattice, off its Nyquist index, so a Hermitian array stays Hermitian.
    """

    def one(f):
        g = f.grid
        j = np.fft.fftfreq(g.yPoints, 1.0 / g.yPoints)  # signed eta indices
        nonzero = np.moveaxis(f.coeffs != 0, axis, 1)  # (k, eta along `axis`, ...)
        hit = nonzero.reshape(len(f.coeffs), g.yPoints, -1).any(axis=2)
        landing = j[None, :] + m * g.k_axis()[:, None]
        assert np.all(np.abs(landing[hit]) < g.yPoints // 2), "the shear would wrap"
        return SpectralField(g, shear(f.coeffs, m, g, axis))

    us = one(u)
    return us, us if v is u else one(v)


def _strichartz2d_shear_change(kind, alpha, m):
    # phi(k, eta + ck) = phi(k, eta) - 2c eta - c^2 k is linear in (k, eta), so
    # the shear moves each e^{it phi} u0 by a translation in (x, y) and leaves
    # |uv|^2 integrated over the torus, and the s2 = 0 denominators, unchanged
    p, g = DispersionParams(alpha), estimates.strichartz2d_grid(8)
    u, v = adversarial_pair(kind, 8, g, seed=0)
    cutoff = CutoffSpec(T=1.0)
    plain = strichartz2d_ratio(u, v, 0.25, 0.0, cutoff, p)
    return abs(strichartz2d_ratio(*_sheared(u, v, m), 0.25, 0.0, cutoff, p) / plain - 1.0)


@pytest.mark.parametrize("m", [1, 3, -2])
@pytest.mark.parametrize("alpha", [2.0, 4.0])
@pytest.mark.parametrize("kind", estimates.STRICHARTZ2D_KINDS)
def test_strichartz2d_is_invariant_under_the_galilean_shear(kind, alpha, m):
    assert _strichartz2d_shear_change(kind, alpha, m) <= 1e-13


@pytest.mark.parametrize("m", [1, -2])
@pytest.mark.parametrize("axis", [1, 2])
def test_strichartz3d_is_invariant_under_the_galilean_shear_of_each_transverse_axis(axis, m):
    g = estimates.strichartz3d_grid(2)
    u, v = adversarial_pair("random", 2, g, seed=0)
    plain = strichartz3d_ratio(u, v, 0.6, 0.0, P2)
    sheared = strichartz3d_ratio(*_sheared(u, v, m, axis), 0.6, 0.0, P2)
    assert sheared == pytest.approx(plain, rel=1e-13)


@pytest.mark.parametrize("kind", estimates.STRICHARTZ2D_KINDS)
def test_strichartz2d_shear_property_fails_for_a_quartic_transverse_phase(monkeypatch, kind):
    # negative control: + sign(k) |eta|^4 makes phi's transverse part not
    # quadratic, so no shear leaves the resonance function unchanged; the
    # sign keeps phi odd, so real fields stay real and the packed route valid
    phase = fields.phase_mesh

    def quartic(params, k, *etas):
        sign = np.sign(k).reshape((-1,) + (1,) * len(etas))
        return phase(params, k, *etas) + sign * fields._eta_sq(etas) ** 2

    monkeypatch.setattr(fields, "phase_mesh", quartic)
    assert _strichartz2d_shear_change(kind, 2.0, 1) > 1e3 * 1e-13


def _strichartz_dilation_defect(y_dims, alpha, lam):
    """(defect, tolerance) of the Strichartz ratio's law under the anisotropic dilation.

    `lattice_helpers.dilate` takes e^{it phi} u0 to (e^{i lam^(alpha+1) t
    phi} u0)(lam x, lam^beta y), beta = (alpha + 2)/2, with tWindow and the
    cutoff scale T going to T / lam^(alpha+1).  At s1 = s2 = 0 (the <k>^s
    weights do not scale) the ratio is multiplied by lam^((beta d - alpha -
    1)/2), d = yDims: lam^(-alpha/4) on T x R, lam^(1/2) on T x R^2.  The
    time weights and the sampled products map row for row, so only the
    phases t phi round apart; the tolerance is tWindow max|phi| eps on the
    plain grid (4.4e-13 at alpha = 2 up to 8.9e-11 at alpha = 4).  The
    defect is the largest over the sweep's kinds, N = 4, seed 0.
    """
    p, s, beta = DispersionParams(alpha), lam ** (alpha + 1.0), (alpha + 2.0) / 2.0
    g = (estimates.strichartz2d_grid if y_dims == 1 else estimates.strichartz3d_grid)(4)

    def ratio(u, v, T):
        if y_dims == 1:
            return strichartz2d_ratio(u, v, 0.0, 0.0, CutoffSpec(T=T), p)
        return strichartz3d_ratio(u, v, 0.0, 0.0, p)

    defect = 0.0
    for kind in estimates.STRICHARTZ2D_KINDS if y_dims == 1 else ("random",):
        u, v = adversarial_pair(kind, 4, g, seed=0)
        du = dilate(u, lam, alpha)
        dv = du if v is u else dilate(v, lam, alpha)
        want = ratio(u, v, 1.0) * lam ** ((beta * y_dims - alpha - 1.0) / 2.0)
        defect = max(defect, abs(ratio(du, dv, 1.0 / s) / want - 1.0))
    return defect, g.tWindow * float(np.max(np.abs(phi_grid(g, p)))) * np.finfo(float).eps


# measured first: defects at most 6.3e-14 on T x R (comparable, alpha = 3) and
# 7.4e-14 on T x R^2 (alpha = 4), at least 59 times under the tolerance
@pytest.mark.parametrize("lam", [2, 3])
@pytest.mark.parametrize("alpha", [2.0, 2.5, 3.0, 4.0])
@pytest.mark.parametrize("y_dims", [1, 2], ids=["strichartz2d", "strichartz3d"])
def test_strichartz_ratios_obey_the_anisotropic_dilation(y_dims, alpha, lam):
    defect, tol = _strichartz_dilation_defect(y_dims, alpha, lam)
    assert defect <= tol


@pytest.mark.parametrize("y_dims", [1, 2], ids=["strichartz2d", "strichartz3d"])
def test_strichartz_dilation_law_fails_for_a_phase_of_the_wrong_degree(monkeypatch, y_dims):
    # negative control: + sign(k) |k|^2 is homogeneous of degree 2, not alpha +
    # 1 (measured defects 1.9e-6 to 5.1e-4 at alpha = 2, lam = 2); it is odd,
    # so real fields stay real
    phase = fields.phase_mesh

    def wrong_degree(params, k, *etas):
        k2 = np.sign(k) * np.asarray(k, dtype=float) ** 2
        return phase(params, k, *etas) + k2.reshape((-1,) + (1,) * len(etas))

    monkeypatch.setattr(fields, "phase_mesh", wrong_degree)
    defect, tol = _strichartz_dilation_defect(y_dims, 2.0, 2)
    assert defect > 1e3 * tol


# ---------------------------------------------------------------------------
# adversarial generators


def test_adversarial_comparable_band_placement():
    g = make_grid(40, 64, 32 * math.pi, tPoints=16, tWindow=2.0)
    u, v = adversarial_pair("comparable", 16, g, seed=0)
    absk = np.abs(g.k_axis())
    nz = np.any(np.abs(u.coeffs) > 0, axis=1)
    assert np.all((absk[nz] >= 16) & (absk[nz] <= 32))
    assert np.array_equal(u.coeffs, v.coeffs)


def test_adversarial_high_high_to_low_product_support():
    n = 8
    g = make_grid(4 * n, 32, 16 * math.pi, tPoints=16, tWindow=2.0)
    u, v = adversarial_pair("high-high-to-low", n, g, seed=1)
    g2 = product_grid(g)
    (lo_u, a), (lo_v, b) = occupied(u.coeffs), occupied(v.coeffs)
    plan = ProductPlan(lo_u, a, lo_v, b)
    box = plan.box_product(a, b)
    prod = np.zeros(g2.spatial_shape, complex)
    prod[fields._box_index(plan.lo, box.shape, prod.shape)] = box * g2.deta
    outside = np.abs(g2.k_axis()) > g2.kMax // 4
    assert np.max(np.abs(prod[outside])) < 1e-14
    assert np.max(np.abs(prod)) > 0


def test_adversarial_determinism_and_errors():
    g = make_grid(40, 64, 32 * math.pi, tPoints=16, tWindow=2.0)
    a1 = adversarial_pair("low-high", 16, g, seed=7)
    a2 = adversarial_pair("low-high", 16, g, seed=7)
    assert np.array_equal(a1[0].coeffs, a2[0].coeffs)
    assert np.array_equal(a1[1].coeffs, a2[1].coeffs)
    with pytest.raises(BandExceedsGridError):
        adversarial_pair("high-high-to-low", 32, g, seed=0)
    with pytest.raises(InvalidSpecError):
        adversarial_pair("nonsense", 8, g, seed=0)


# ---------------------------------------------------------------------------
# failure of the global estimate


def test_counterexample_two_routes_agree():
    for n, hw in ((64, 1.0), (128, 1.0), (64, 1.0 / 64.0)):
        cfg = CounterexampleConfig(N=n, halfWidth=hw)
        a = counterexample_lhs(cfg, 96, route="omega")
        b = counterexample_lhs(cfg, 96, route="tau")
        assert abs(a - b) / a <= 0.01


def test_counterexample_scaling_collapse():
    # the tapered integral scales exactly like N^(1/2) |I|^(1/2)
    vals = []
    for n, hw in ((64, 1.0), (256, 1.0), (64, 0.25)):
        cfg = CounterexampleConfig(N=n, halfWidth=hw)
        vals.append(counterexample_lhs(cfg, 96) / math.sqrt(n * hw))
    assert max(vals) / min(vals) < 1.25  # actual collapse is exact to ~1e-15


def test_counterexample_vanishing_support():
    big = counterexample_lhs(CounterexampleConfig(N=64, halfWidth=1.0), 96)
    small = counterexample_lhs(CounterexampleConfig(N=64, halfWidth=1e-3), 96)
    assert small < 0.05 * big
    assert small == pytest.approx(big * math.sqrt(1e-3), rel=1e-6)


def test_counterexample_resolution_warning():
    with pytest.warns(UserWarning):
        counterexample_lhs(CounterexampleConfig(N=64, halfWidth=1.0), 8)


def test_counterexample_verdicts():
    config = {"Ns": [16, 32, 64, 128], "s": 0.0, "quadPoints": 64}
    env = cli.run("counterexample", {**config, "halfWidthExponent": 0.0})
    summary = env["summary"]
    assert 0.35 <= summary["fittedExponent"] <= 0.65
    assert summary["predictedExponent"] == pytest.approx(0.5)
    assert env["verdict"] == "estimate fails"
    assert summary["routeAgreement"] <= 0.01

    env = cli.run("counterexample", {**config, "halfWidthExponent": -1.0})
    summary = env["summary"]
    assert 0.85 <= summary["fittedExponent"] <= 1.15
    assert summary["predictedExponent"] == pytest.approx(1.0)
    assert env["verdict"] == "estimate fails"

    # two N are too few for the fit, and rejected before any quadrature runs
    with pytest.raises(InvalidSpecError) as err:
        cli.run("counterexample", {"Ns": [16, 32], "s": 0.0, "halfWidthExponent": 0.0})
    assert [v.split(":")[0] for v in err.value.violations] == ["Ns"]


def test_counterexample_denominator_law():
    cfg = CounterexampleConfig(N=32, halfWidth=0.5)
    assert counterexample_denominator(cfg, 0.75) == pytest.approx(
        2.0 * 32**0.75 * 0.5
    )


# ---------------------------------------------------------------------------
# Bourgain-norm bilinear ratio


def bilinear_test_grid():
    return make_grid(8, 32, 16 * math.pi, tPoints=16, tWindow=2.0)


def test_bilinear_ratio_zero_denominator_and_flavors():
    g = bilinear_test_grid()
    u = box_of(g, np.zeros(g.st_shape, complex))
    lhs = NormSpec(flavor="xweighted", s1=0.2, b=-0.45, beta=0.4)
    rhs = NormSpec(flavor="xweighted", s1=0.2, b=0.55, beta=0.4)
    with pytest.raises(ZeroDenominatorError):
        bilinear_ratio(u, u, lhs, rhs, P2)
    with pytest.raises(InvalidSpecError):
        bilinear_ratio(u, u, NormSpec(flavor="y"), rhs, P2)
    with pytest.raises(InvalidSpecError):
        bilinear_ratio(u, u, lhs, NormSpec(flavor="z"), P2)


def test_bilinear_ratio_lists_both_wrong_flavors():
    g = bilinear_test_grid()
    u = box_of(g, np.zeros(g.st_shape, complex))
    with pytest.raises(InvalidSpecError) as err:
        bilinear_ratio(u, u, NormSpec(flavor="y"), NormSpec(flavor="z"), P2)
    assert err.value.violations == ["lhs flavor must be x/xweighted/z, got 'y'",
                                    "rhs flavor must be x/xweighted, got 'z'"]


def test_bilinear_ratio_single_atom_closed_form():
    g = bilinear_test_grid()
    cu = np.zeros(g.st_shape, complex)
    cv = np.zeros(g.st_shape, complex)
    p0, k0i, q0 = 3, 2, 5
    p1, k1i, q1 = 5, 3, 2
    cu[p0, k0i, q0] = 1.5
    cv[p1, k1i, q1] = -0.7 + 0.3j
    u = box_of(g, cu)
    v = box_of(g, cv)
    s1, s2, b, bp, beta = 0.2, 0.1, 0.55, -0.45, 0.4
    lhs_spec = NormSpec(flavor="xweighted", s1=s1, s2=s2, b=bp, beta=beta)
    rhs_spec = NormSpec(flavor="xweighted", s1=s1, s2=s2, b=b, beta=beta)
    val = bilinear_ratio(u, v, lhs_spec, rhs_spec, P2)

    tau = g.tau_axis()
    eta = g.eta_axis()
    karr = g.k_axis()

    def atom_norm(tauv, k, etav, amp, bexp):
        sig = tauv - float(phase_grid(P2, float(k), etav**2))
        bs = math.sqrt(1 + sig**2)
        wt = (1 + bs / (1 + k**2) ** ((P2.alpha + 1) / 2)) ** beta
        base = (1 + k**2) ** (s1 / 2) * (1 + etav**2) ** (s2 / 2)
        return math.sqrt(g.st_measure) * base * bs**bexp * wt * abs(amp)

    denom = atom_norm(tau[p0], karr[k0i], eta[q0], 1.5, b) * atom_norm(
        tau[p1], karr[k1i], eta[q1], -0.7 + 0.3j, b
    )
    # the product atom sits at summed coordinates with density amp1*amp2*dtau*deta;
    # the doubled grid preserves dtau/deta, so the measure constant is unchanged
    ks = karr[k0i] + karr[k1i]
    taus = tau[p0] + tau[p1]
    etas = eta[q0] + eta[q1]
    amp = 1.5 * (-0.7 + 0.3j) * g.dtau * g.deta
    sig = taus - float(phase_grid(P2, float(ks), etas**2))
    bs = math.sqrt(1 + sig**2)
    wt = (1 + bs / (1 + ks**2) ** ((P2.alpha + 1) / 2)) ** beta
    lhs = (
        math.sqrt(g.st_measure)
        * abs(ks)
        * (1 + ks**2) ** (s1 / 2)
        * (1 + etas**2) ** (s2 / 2)
        * bs**bp
        * wt
        * abs(amp)
    )
    assert val == pytest.approx(lhs / denom, rel=1e-10)


def test_bilinear_ratio_symmetric_in_factors():
    g = bilinear_test_grid()
    from kplab.fields import st_random_field

    u = st_random_field(g, BandSpec(1, 4, 1.0), seed=3)
    v = st_random_field(g, BandSpec(1, 4, 1.0), seed=4)
    lhs = NormSpec(flavor="xweighted", s1=0.2, b=-0.45, beta=0.4)
    rhs = NormSpec(flavor="xweighted", s1=0.2, b=0.55, beta=0.4)
    a = bilinear_ratio(u, v, lhs, rhs, P2)
    b = bilinear_ratio(v, u, lhs, rhs, P2)
    assert a == pytest.approx(b, rel=1e-10)


def test_spacetime_pair_kinds():
    g = make_grid(34, 64, 32 * math.pi, tPoints=16, tWindow=2.0)
    for kind in ("random", "comparable", "high-high-to-low"):
        u, v = spacetime_pair(kind, 16, g, seed=0)
        assert isinstance(u, SpaceTimeBox) and u.grid == g
        full = u.whole()
        assert np.max(np.abs(full)) > 0
        assert np.all(full[:, 0] == 0)
    with pytest.raises(InvalidSpecError):
        spacetime_pair("junk", 16, g, seed=0)


def _full_grid_st_random_field(grid, band, seed):
    # `st_random_field`'s values formed on the whole (tau, k, eta) grid
    rng = np.random.default_rng(seed)
    shape = grid.st_shape
    z = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / math.sqrt(2.0)
    z *= fields._band_mask(grid, band)[None, ...]
    z[:, 0] = 0.0
    fields.zero_nyquist(z, grid)
    z[grid.tPoints // 2] = 0.0
    z = (z + fields.conj_mirror(z)) / math.sqrt(2.0)
    z[:, 0] = 0.0
    return z


def _full_grid_spacetime_pair(kind, N, grid, seed):
    # the oracle: `spacetime_pair`'s members formed on the whole grid
    eta_nyq = grid.deta * grid.yPoints / 2
    if kind == "random":
        band = BandSpec(kLo=N, kHi=2 * N, etaHi=min(0.9, 0.45 * eta_nyq))
        return [
            _full_grid_st_random_field(grid, band, np.random.SeedSequence((seed, N, tag)))
            for tag in (11, 12)
        ]
    ua, va = adversarial_pair(kind, N, grid, seed)
    rng = np.random.default_rng(np.random.SeedSequence((seed, N, 13)))
    nt = grid.tPoints
    if kind == "comparable":
        prof_u = np.zeros(nt, dtype=complex)
        prof_u[0] = 1.0
        prof_v = prof_u
    else:
        prof_u = rng.standard_normal(nt) + 1j * rng.standard_normal(nt)
        prof_v = rng.standard_normal(nt) + 1j * rng.standard_normal(nt)
        prof_u[nt // 2] = 0.0
        prof_v[nt // 2] = 0.0
    shape = (-1,) + (1,) * (1 + grid.yDims)
    return [prof_u.reshape(shape) * ua.coeffs[None, ...],
            prof_v.reshape(shape) * va.coeffs[None, ...]]


@pytest.mark.parametrize("seed", [0, 5])
@pytest.mark.parametrize("kind", BILINEAR_KINDS)
@pytest.mark.parametrize("y_dims", [1, 2])
def test_spacetime_pair_boxes_match_the_full_grid_formula(y_dims, kind, seed):
    # the same bits as the whole-grid construction, which is zero outside
    # the box, and the box is the occupied one, so the fitted product's pad
    # is the one the whole grid gave
    if y_dims == 1:
        g = make_grid(10, 64, 32 * math.pi, tPoints=16, tWindow=2.0)
    else:
        g = make_grid(10, 16, 8 * math.pi, yDims=2, tPoints=8, tWindow=2.0)
    pair = spacetime_pair(kind, 4, g, seed)
    for box, want in zip(pair, _full_grid_spacetime_pair(kind, 4, g, seed)):
        assert np.array_equal(box.whole(), want)
        lo, entries = occupied(want)
        assert lo == box.lo and np.array_equal(entries, box.coeffs)
    assert pair[0].coeffs is not pair[1].coeffs  # two arrays: the packed product


def test_strichartz3d_pair_is_the_adversarial_random_pair():
    # strichartz3d's band |eta| <= min(0.8, 0.4 eta_Nyquist) and seed tags 31/32
    n, seed = 4, 3
    g = estimates.strichartz3d_grid(n)
    band = BandSpec(kLo=n, kHi=2 * n, etaHi=min(0.8, 0.4 * g.deta * g.yPoints / 2))
    u, v = adversarial_pair("random", n, g, seed)
    for f, tag in ((u, 31), (v, 32)):
        want = random_field(g, band, np.random.SeedSequence((seed, n, tag)))
        assert np.array_equal(f.coeffs, want.coeffs)
    row = estimates.strichartz3d_point(
        {"N": n, "seed": seed, "alpha": 2.0, "s1": 0.6, "s2": 0.6, "kind": "random"})
    assert row["value"] == strichartz3d_ratio(u, v, 0.6, 0.6, DispersionParams(2.0))
