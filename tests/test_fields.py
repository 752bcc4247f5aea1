"""Grid, transform, norm, random-data, and serialization checks."""

import json
import math
import struct
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.fft import next_fast_len

from kplab.errors import InvalidSpecError
from kplab import fields
from kplab.estimates import bilinear_grid, bilinear_point, bilinear_ratio, spacetime_pair
from kplab.evolution import _quadratic_term
from kplab.fields import (
    BandSpec,
    GridSpec,
    NormSpec,
    ProductPlan,
    SpaceTimeBox,
    SpectralField,
    bourgain_norm,
    box_of,
    dealias_grid,
    dealiased_square,
    load_field,
    make_grid,
    mixed_norm,
    occupied,
    phi_grid,
    product_grid,
    project_mean_zero,
    random_field,
    save_field,
    sobolev_norm,
    st_product_exact,
    st_random_field,
    to_physical,
    to_spectral,
)
from kplab.symbols import DispersionParams, phase_grid

P2 = DispersionParams(2.0)
P3 = DispersionParams(3.0)


def small_grid(**kw):
    args = dict(kMax=8, yPoints=32, yLength=16 * math.pi, yDims=1,
                tPoints=16, tWindow=2.0)
    args.update(kw)
    return make_grid(**args)


def test_make_grid_derived_spacings():
    g = make_grid(32, 128, 64 * math.pi, tPoints=64, tWindow=4.0)
    assert g.deta == pytest.approx(1.0 / 32.0)
    assert g.dtau == pytest.approx(math.pi / 4.0)
    assert g.nx == 65


def test_make_grid_rejects_bad_specs():
    with pytest.raises(InvalidSpecError) as err:
        make_grid(8, 100, 16 * math.pi)
    assert any("yPoints" in v for v in err.value.violations)
    with pytest.raises(InvalidSpecError) as err:
        make_grid(8, 32, 16 * math.pi, yDims=3)
    assert any("yDims" in v for v in err.value.violations)
    # all violations reported at once
    with pytest.raises(InvalidSpecError) as err:
        GridSpec(kMax=0, yPoints=100, yLength=-1.0, yDims=3, tPoints=7, tWindow=0.0)
    assert len(err.value.violations) == 6


@pytest.mark.parametrize(
    "args",
    [
        (8.5, 32, 10.0),  # nx would be 18.0
        (True, 32, 10.0),
        (8, 32.0, 10.0),
        (8, 32, 10.0, 1.0),
        (8, 32, math.inf),
        (8, 32, True),  # a boolean is not a length
        (8, 32, 10.0, 1, 16, True),
    ],
    ids=["kMax-8.5", "kMax-True", "yPoints-32.0", "yDims-1.0", "yLength-inf", "yLength-True",
         "tWindow-True"],
)
def test_make_grid_rejects_non_integer_counts_and_non_finite_lengths(args):
    with pytest.raises(InvalidSpecError):
        make_grid(*args)


def test_make_grid_accepts_numpy_integers():
    g = make_grid(np.int64(8), np.int32(32), np.float64(10.0), tPoints=np.int64(16))
    assert g.nx == 17 and g.spatial_shape == (17, 32)


def test_project_mean_zero():
    g = small_grid()
    c = np.zeros(g.spatial_shape, complex)
    c[0, 3] = 2.0  # k = 0 content only
    f = SpectralField(g, c)
    z = project_mean_zero(f)
    assert np.all(z.coeffs == 0)

    f = random_field(g, BandSpec(1, 5, 1.5), seed=1)
    p1 = project_mean_zero(f)
    p2 = project_mean_zero(p1)
    assert np.array_equal(p1.coeffs, p2.coeffs)

    mixed = SpectralField(g, f.coeffs + c)
    proj = project_mean_zero(mixed)
    assert np.all(proj.coeffs[0] == 0)
    assert np.array_equal(proj.coeffs[1:], mixed.coeffs[1:])


def test_project_mean_zero_takes_a_spectral_field_only():
    # the solvers' data are SpectralFields; a SpaceTimeBox is not projected
    box = st_random_field(small_grid(), BandSpec(1, 6, 1.5), seed=12)
    with pytest.raises(InvalidSpecError, match=r"coeffs shape \(.*\) != grid"):
        project_mean_zero(box)


def test_transform_single_harmonic_concentrates():
    g = small_grid()
    x = g.x_axis()[:, None]
    y = g.y_axis()[None, :]
    u = np.cos(x) * np.exp(-((y / 5.0) ** 2))
    f = to_spectral(u, g)
    mask = np.abs(g.k_axis()) == 1
    energy = np.sum(np.abs(f.coeffs) ** 2)
    assert np.sum(np.abs(f.coeffs[mask]) ** 2) / energy > 1.0 - 1e-12


def _transform_grids():
    # one pair for both kinds of field, at yDims 1 and 2
    return [small_grid(kMax=6, yPoints=16, yLength=8 * math.pi, yDims=d) for d in (1, 2)]


def test_transform_round_trip_and_parseval():
    for g in _transform_grids():
        f = random_field(g, BandSpec(1, 5, 1.5), seed=7)
        u = to_physical(f)
        back = to_spectral(u, g)
        assert isinstance(back, SpectralField)
        assert np.max(np.abs(back.coeffs - f.coeffs)) < 1e-12
        phys = (2 * math.pi / g.nx) * g.dy**g.yDims * np.sum(np.abs(u) ** 2)
        assert phys == pytest.approx(f.l2_norm() ** 2, rel=1e-12)


def test_transform_shape_mismatch():
    for g in _transform_grids():
        wrong = [(3, 3), (3, 3, 3), g.spatial_shape[::-1] + (2,), g.st_shape + (1,),
                 g.st_shape[1:] + (g.tPoints,)]
        for shape in wrong:
            with pytest.raises(InvalidSpecError, match="fits neither grid shape"):
                to_spectral(np.zeros(shape), g)
        assert isinstance(to_spectral(np.zeros(g.spatial_shape), g), SpectralField)
        assert isinstance(to_spectral(np.zeros(g.st_shape), g), SpaceTimeBox)


def test_spacetime_round_trip():
    # a SpaceTimeBox through the same pair: samples of its whole array and back
    for g in _transform_grids():
        F = st_random_field(g, BandSpec(1, 5, 1.5), seed=2)
        samples = to_physical(F)
        assert samples.shape == g.st_shape
        assert np.max(np.abs(samples.imag)) < 1e-12  # Hermitian data is real
        back = to_spectral(samples, g)
        assert isinstance(back, SpaceTimeBox)
        assert np.max(np.abs(back.whole() - F.whole())) < 1e-12
        phys = g.dt * (2 * math.pi / g.nx) * g.dy**g.yDims * np.sum(np.abs(samples) ** 2)
        assert phys == pytest.approx(F.l2_norm() ** 2, rel=1e-12)


def test_sobolev_single_mode_and_l2():
    g = small_grid()
    c = np.zeros(g.spatial_shape, complex)
    c[1, 0] = 1.0
    f = SpectralField(g, c)
    for s1 in (0.0, 0.5, 1.25):
        assert sobolev_norm(f, s1, 0.0) == pytest.approx(
            2 ** (s1 / 2) * math.sqrt(g.xy_measure), rel=1e-13
        )
    f = random_field(g, BandSpec(1, 6, 1.5), seed=3)
    assert sobolev_norm(f, 0.0, 0.0) == pytest.approx(f.l2_norm(), rel=1e-13)
    scaled = SpectralField(g, 3.7 * f.coeffs)
    assert sobolev_norm(scaled, 0.4, 0.2) == pytest.approx(
        3.7 * sobolev_norm(f, 0.4, 0.2), rel=1e-13
    )


def grid_tau_integer():
    # tWindow = pi makes the tau lattice the integers: phi(1, 0) = 1 is on it
    return make_grid(4, 16, 8 * math.pi, tPoints=16, tWindow=math.pi)


def test_bourgain_atom_on_surface_independent_of_b():
    g = grid_tau_integer()
    gc = np.zeros(g.st_shape, complex)
    p_idx = 1  # tau = 1
    gc[p_idx, 1, 0] = 1.0
    F = box_of(g, gc)
    sigma = g.tau_axis()[p_idx] - phase_grid(P2, 1.0, 0.0)
    assert sigma == pytest.approx(0.0, abs=1e-14)
    vals = [
        bourgain_norm(F, NormSpec(flavor="x", s1=0.3, s2=0.2, b=b), P2)
        for b in (-0.5, 0.0, 0.7)
    ]
    expected = 2 ** (0.3 / 2) * math.sqrt(g.st_measure)
    for v in vals:
        assert v == pytest.approx(expected, rel=1e-12)


def test_bourgain_zero_exponents_is_l2():
    g = small_grid()
    F = st_random_field(g, BandSpec(1, 6, 1.5), seed=5)
    assert bourgain_norm(F, NormSpec(flavor="x"), P2) == pytest.approx(
        F.l2_norm(), rel=1e-12
    )


def test_bourgain_weight_factor_direct_substitution():
    g = grid_tau_integer()
    gc = np.zeros(g.st_shape, complex)
    gc[5, 2, 3] = 1.3
    F = box_of(g, gc)
    plain = bourgain_norm(F, NormSpec(flavor="x", s1=0.2, s2=0.1, b=0.4), P2)
    weighted = bourgain_norm(
        F, NormSpec(flavor="xweighted", s1=0.2, s2=0.1, b=0.4, beta=0.6), P2
    )
    sigma = g.tau_axis()[5] - phase_grid(P2, 2.0, (3 * g.deta) ** 2)
    bs = math.sqrt(1 + sigma**2)
    factor = (1.0 + bs / (1 + 2**2) ** ((P2.alpha + 1) / 2)) ** 0.6
    assert weighted / plain == pytest.approx(factor, rel=1e-12)
    # at <sigma> = <k>^(alpha+1) the factor is exactly 2^beta
    assert (1.0 + 1.0) ** 0.6 == pytest.approx(2**0.6)


def test_z_norm_is_sum_of_parts_recomputed_independently():
    g = small_grid()
    F = st_random_field(g, BandSpec(1, 6, 1.5), seed=6)
    spec = NormSpec(flavor="z", s1=0.3, s2=0.1, beta=0.25)
    z = bourgain_norm(F, spec, P2)
    y = bourgain_norm(F, NormSpec(flavor="y", s1=0.3, s2=0.1, beta=0.25), P2)
    xw = bourgain_norm(
        F, NormSpec(flavor="xweighted", s1=0.3, s2=0.1, b=-0.5, beta=0.25), P2
    )
    assert z == y + xw

    # independent recomputation of the y part with plain loops
    phi = np.empty((g.nx,) + (g.yPoints,))
    karr = g.k_axis()
    eta = g.eta_axis()
    C = F.whole()
    acc = 0.0
    for ki, k in enumerate(karr):
        if k == 0:
            continue
        for qi, e in enumerate(eta):
            ph = phase_grid(P2, float(k), e**2)
            inner = 0.0
            for pi, tau in enumerate(g.tau_axis()):
                sig = tau - ph
                bs = math.sqrt(1 + sig**2)
                wt = (1 + bs / (1 + k**2) ** ((P2.alpha + 1) / 2)) ** 0.25
                inner += (
                    (1 + k**2) ** 0.15 * (1 + e**2) ** 0.05 / bs * wt
                    * abs(C[pi, ki, qi])
                )
            acc += (g.dtau * inner) ** 2
    y_manual = (2 * math.pi) ** 1.5 * math.sqrt(g.deta * acc)
    assert y == pytest.approx(y_manual, rel=1e-10)


def _bracket(x):
    return np.sqrt(1.0 + np.asarray(x, dtype=float) ** 2)


def _dense_bourgain_norm(F, spec, params):
    # the Bourgain norms with every weight built over the whole (tau, k, eta)
    # grid at once and the k = 0 column masked out: the oracle for the
    # tau-blocked `bourgain_norm`
    if spec.flavor == "z":
        y = _dense_bourgain_norm(F, replace(spec, flavor="y"), params)
        xw = _dense_bourgain_norm(F, replace(spec, flavor="xweighted", b=-0.5), params)
        return y + xw

    g = F.grid
    phi = phi_grid(g, params)
    tau = g.tau_axis().reshape((-1,) + (1,) * (1 + g.yDims))
    sigma = tau - phi[None, ...]
    bs = _bracket(sigma)
    wk = _bracket(g.k_axis()) ** spec.s1
    weta = _bracket(np.sqrt(g.eta_sq_grid())) ** spec.s2
    base = (wk.reshape((-1,) + (1,) * g.yDims) * weta[None, ...])[None, ...]
    if spec.beta != 0.0:
        ka = _bracket(g.k_axis()) ** (params.alpha + 1.0)
        extra = (1.0 + bs / ka.reshape((-1,) + (1,) * g.yDims)) ** spec.beta
    else:
        extra = 1.0
    absG = np.abs(F.whole())
    mask = np.ones(g.nx, dtype=bool)
    mask[0] = False
    mask = mask.reshape((1, -1) + (1,) * g.yDims)

    if spec.flavor in ("x", "xweighted"):
        w = base * bs**spec.b
        if spec.flavor == "xweighted":
            w = w * extra
        total = float(np.sum((w * absG * mask) ** 2))
        return math.sqrt(g.st_measure * total)

    w = base * bs**-1.0 * (extra if spec.beta != 0.0 else 1.0)
    inner = g.dtau * np.sum(w * absG * mask, axis=0)
    total = float(np.sum(inner**2))
    prefac = (2.0 * math.pi) ** (0.5 * (2 + g.yDims))
    return prefac * math.sqrt(g.deta**g.yDims * total)


_ORACLE_SPECS = (
    NormSpec(flavor="x", s1=0.3, s2=0.1, b=0.4),
    NormSpec(flavor="x", s1=0.2, b=-0.45, beta=0.4),  # x ignores beta
    NormSpec(flavor="xweighted", s1=0.3, s2=0.1, b=-0.5, beta=0.3),
    NormSpec(flavor="xweighted", s1=0.2, b=0.55),
    NormSpec(flavor="y", s1=0.2, s2=0.2, beta=0.2),
    NormSpec(flavor="y", s1=-0.1),
    NormSpec(flavor="z", s1=0.1, s2=0.3, beta=0.2),
)


@pytest.mark.parametrize("rows", [None, 1, 3])
@pytest.mark.parametrize("y_dims", [1, 2])
def test_blocked_bourgain_norm_matches_dense_oracle(monkeypatch, y_dims, rows):
    g = small_grid(yDims=y_dims, yPoints=16)
    params = DispersionParams(3.0)
    c = st_random_field(g, BandSpec(1, 6, 0.9), seed=(20, y_dims)).whole()
    c[:, 0] = 0.3 + 0.1j  # k = 0 content, which every norm skips
    F = box_of(g, c)
    if rows is not None:
        # blocks of `rows` tau rows (the default is one block here), sized
        # by the box's (k, eta) plane, which the norm weights in one pass; 3
        # does not divide tPoints = 16, so the last block has one row
        monkeypatch.setattr(fields, "_BLOCK_ENTRIES", rows * F.coeffs[0].size)
    for spec in _ORACLE_SPECS:
        want = _dense_bourgain_norm(F, spec, params)
        assert bourgain_norm(F, spec, params) == pytest.approx(want, rel=1e-13), spec


def _boxed_plan(a, b):
    # the fitted plan of the occupied boxes of the FFT-ordered arrays `a`,
    # `b`, and the two boxes it reads (one box twice for one array twice)
    held = occupied(a)
    held_b = held if b is a else occupied(b)
    return ProductPlan(*held, *held_b), held[1], held_b[1]


def _on_grid(plan, a, b, shape):
    # the plan's product of the boxes `a`, `b`, its box scattered onto the
    # FFT-ordered grid of `shape` (after any leading batch axes)
    box = plan.box_product(a, b)
    out = np.zeros(box.shape[: box.ndim - len(shape)] + shape, complex)
    out[fields._box_index(plan.lo, box.shape[-len(shape):], shape)] = box
    return out


def _span(c):
    # per axis, the signed frequencies (lo, hi) of the occupied box of `c`
    lo, box = occupied(c)
    return tuple((a, a + m - 1) for a, m in zip(lo, box.shape))


def _doubled_grid_product(Fa, Fb):
    # the oracle: the exact space-time product written onto the whole doubled
    # (tau, k, eta) grid, as `st_product_exact` formed it before it returned
    # the product's box
    g2 = product_grid(Fa.grid)
    plan, a, b = _boxed_plan(Fa.whole(), Fb.whole())
    prod = _on_grid(plan, a, b, g2.st_shape)
    prod *= g2.dtau * g2.deta**g2.yDims
    return box_of(g2, prod)


def _whole(f):
    # the FFT-ordered coefficients of a SpectralField or of a SpaceTimeBox
    return f.whole() if isinstance(f, SpaceTimeBox) else f.coeffs


@pytest.mark.parametrize("kind", ["random", "comparable", "high-high-to-low"])
@pytest.mark.parametrize("flavor", ["x", "xweighted", "z"])
def test_bilinear_ratio_matches_the_dense_route(kind, flavor):
    # the old route: d_x as a second array, both norms built densely
    g = bilinear_grid(4)
    u, v = spacetime_pair(kind, 4, g, seed=2)
    before = np.array(u.coeffs), np.array(v.coeffs)
    lhs = NormSpec(flavor=flavor, s1=0.2, b=-0.45, beta=0.4)
    rhs = NormSpec(flavor="xweighted", s1=0.2, b=0.55, beta=0.4)
    got = bilinear_ratio(u, v, lhs, rhs, P3)

    prod = st_product_exact(u, v)
    g2 = prod.grid
    ik = 1j * g2.k_axis().astype(float).reshape((1, -1) + (1,) * g2.yDims)
    dxprod = box_of(g2, ik * prod.whole())
    denom = _dense_bourgain_norm(u, rhs, P3) * _dense_bourgain_norm(v, rhs, P3)
    assert got == pytest.approx(_dense_bourgain_norm(dxprod, lhs, P3) / denom, rel=1e-13)
    # d_x is applied in place to the product, never to the factors
    assert np.array_equal(u.coeffs, before[0]) and np.array_equal(v.coeffs, before[1])


def _box_case(case):
    # factor pairs whose product boxes are: a generic one, at yDims 1 and 2;
    # a single atom; one tau row (the comparable pair); all zero.  The
    # generators give boxes, the others the boxes of whole arrays
    if case == "random-yDims2":
        g = small_grid(yDims=2, yPoints=16)
        band = BandSpec(1, 6, 0.9)
        return st_random_field(g, band, seed=(30, 1)), st_random_field(g, band, seed=(30, 2))
    g = bilinear_grid(4)
    if case in ("random", "comparable"):
        return spacetime_pair(case, 4, g, seed=2)
    a, b = np.zeros(g.st_shape, complex), np.zeros(g.st_shape, complex)
    if case == "atom":
        a[3, 5, 2] = 1.0 + 0.5j
        b[-2, -7, -3] = 0.7j
    else:
        a = spacetime_pair("random", 4, g, seed=2)[0].whole()
    return box_of(g, a), box_of(g, b)


@pytest.mark.parametrize("case", ["random", "random-yDims2", "atom", "comparable", "zero"])
def test_boxed_product_matches_the_doubled_grid(case):
    u, v = _box_case(case)
    box = st_product_exact(u, v)
    oracle = _doubled_grid_product(u, v)
    assert box.grid == oracle.grid == product_grid(u.grid)
    # the box is the occupied one, lo_a + lo_b .. hi_a + hi_b, inside the grid
    for (la, ha), (lb, hb), n, lo, m in zip(
        _span(u.whole()), _span(v.whole()), box.grid.st_shape, box.lo, box.coeffs.shape,
    ):
        assert lo == max(la + lb, -(n // 2))
        assert lo + m - 1 == min(ha + hb, (n - 1) // 2)
    if case == "atom":
        assert box.coeffs.shape == (1, 1, 1) and box.lo == (3 - 2, 5 - 7, 2 - 3)
    if case == "comparable":
        assert box.coeffs.shape[0] == 1  # both factors sit on the tau = 0 row
    if case == "zero":
        assert not np.any(box.coeffs)
    # the same bits as the doubled grid, which is zero outside the box
    assert np.array_equal(box.whole(), oracle.whole())
    params = DispersionParams(3.0)
    for spec in _ORACLE_SPECS:
        want = bourgain_norm(oracle, spec, params)
        assert bourgain_norm(box, spec, params) == pytest.approx(want, rel=1e-13), spec


@pytest.mark.parametrize("y_dims", [1, 2])
@pytest.mark.parametrize("flavor", ["x", "xweighted", "z"])
def test_bilinear_ratio_matches_the_doubled_grid_route(flavor, y_dims):
    u, v = _box_case("random" if y_dims == 1 else "random-yDims2")
    params = DispersionParams(3.0)
    lhs = NormSpec(flavor=flavor, s1=0.2, s2=0.1, b=-0.45, beta=0.4)
    rhs = NormSpec(flavor="xweighted", s1=0.2, s2=0.1, b=0.55, beta=0.4)
    prod = _doubled_grid_product(u, v)
    g2 = prod.grid
    ik = 1j * g2.k_axis().astype(float).reshape((1, -1) + (1,) * g2.yDims)
    lhs_norm = bourgain_norm(box_of(g2, ik * prod.whole()), lhs, params)
    want = lhs_norm / (bourgain_norm(u, rhs, params) * bourgain_norm(v, rhs, params))
    assert bilinear_ratio(u, v, lhs, rhs, params) == pytest.approx(want, rel=1e-13)


def test_bilinear_ratio_memory_is_the_product_box():
    # the N = 64 member of the bilinear sweep: its doubled grid alone takes
    # 65 MiB, and the doubled-grid route peaked at 95.7 MiB above the inputs;
    # the box route keeps the two padded sample arrays of the product
    g = bilinear_grid(64)
    u, v = spacetime_pair("random", 64, g, seed=0)
    lhs = NormSpec(flavor="xweighted", s1=0.2, b=-0.45, beta=0.4)
    rhs = NormSpec(flavor="xweighted", s1=0.2, b=0.55, beta=0.4)
    tracemalloc.start()
    try:
        bilinear_ratio(u, v, lhs, rhs, P3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 70 * 2**20, peak


def test_bilinear_ratio_memory_is_one_padded_array():
    # the same call: two real factors share one padded array of the packed
    # route (30.3 MiB), and the peak was 32.7 MiB; both factors' own arrays
    # took 60.6 MiB
    g = bilinear_grid(64)
    u, v = spacetime_pair("random", 64, g, seed=0)
    lhs = NormSpec(flavor="xweighted", s1=0.2, b=-0.45, beta=0.4)
    rhs = NormSpec(flavor="xweighted", s1=0.2, b=0.55, beta=0.4)
    tracemalloc.start()
    try:
        bilinear_ratio(u, v, lhs, rhs, P3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 35 * 2**20, peak


def test_spacetime_pair_memory_is_the_band_boxes():
    # the N = 64 random member: each factor's whole (32, 261, 64) grid takes
    # 8.2 MiB, and forming both there peaked at 33.5 MiB; each band box
    # (31, 257, 29) takes 3.5 MiB
    g = bilinear_grid(64)
    tracemalloc.start()
    try:
        spacetime_pair("random", 64, g, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 22 * 2**20, peak


def test_bilinear_point_memory_is_boxes_and_one_padded_array():
    # the whole N = 64 random point, ensemble included: on whole grids it
    # peaked at 49.0 MiB; on boxes, the 30.3 MiB padded product array is
    # most of it
    point = {"N": 64, "kind": "random", "seed": 0, "alpha": 3.0, "s1": 0.2, "s2": 0.0,
             "b": 0.55, "bPrime": -0.45, "beta": 0.4,
             "lhsFlavor": "xweighted", "rhsFlavor": "xweighted"}
    tracemalloc.start()
    try:
        bilinear_point(point)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 44 * 2**20, peak


def test_bourgain_norm_scratch_memory_is_per_tau_block():
    # the doubled grid of the N = 64 bilinear sweep: 65 MiB of coefficients;
    # weighting the whole grid at once allocated 196 MiB of float temporaries
    g = product_grid(bilinear_grid(64))
    assert g.st_shape == (64, 521, 128)
    rng = np.random.default_rng(3)
    c = np.zeros(g.st_shape, complex)
    c[:, 130:390, 32:96] = rng.standard_normal((64, 260, 64))
    F = box_of(g, c)
    for spec in (
        NormSpec(flavor="xweighted", s1=0.2, b=-0.45, beta=0.4),
        NormSpec(flavor="y", s1=0.2, beta=0.4),
        NormSpec(flavor="z", s1=0.2, beta=0.4),
    ):
        tracemalloc.start()
        try:
            bourgain_norm(F, spec, P3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20, (spec.flavor, peak)


def test_mixed_norm_properties():
    g = small_grid()
    F = st_random_field(g, BandSpec(1, 6, 1.5), seed=8)
    assert mixed_norm(F, 2, 2, 2) == pytest.approx(F.l2_norm(), rel=1e-10)

    gc = np.zeros(g.st_shape, complex)
    gc[3, 2, 5] = 0.7
    single = box_of(g, gc)
    vals = [mixed_norm(single, r, 2, 2) for r in (1.0, 1.3, 2.0)]
    assert max(vals) - min(vals) < 1e-12 * vals[0]

    # two-mode field: l^{r'} norms are nonincreasing in r' (r'=inf vs r'=2)
    gc2 = np.zeros(g.st_shape, complex)
    gc2[3, 1, 2] = 1.0
    gc2[4, 2, 5] = 0.5
    two = box_of(g, gc2)
    assert mixed_norm(two, 1, 2, 2) <= mixed_norm(two, 2, 2, 2)

    with pytest.raises(InvalidSpecError, match=r"r must lie in \[1, 2\], got 3.0"):
        mixed_norm(F, 3.0, 2, 2)
    with pytest.raises(InvalidSpecError, match=r"p, q must lie in \[1, inf\], got p=0.5"):
        mixed_norm(F, 2.0, 0.5, 2)
    assert mixed_norm(F, 2, math.inf, math.inf) > 0


def _bourgain_norms(specs, params):
    return [lambda F, spec=spec: bourgain_norm(F, spec, params) for spec in specs]


def test_norm_homogeneity_and_triangle():
    g = small_grid()
    params = P2
    norms = _bourgain_norms(
        [
            NormSpec(flavor="x", s1=0.3, s2=0.1, b=0.4),
            NormSpec(flavor="xweighted", s1=0.3, s2=0.1, b=-0.5, beta=0.3),
            NormSpec(flavor="y", s1=0.2, beta=0.2),
            NormSpec(flavor="z", s1=0.1, beta=0.2),
        ],
        params,
    ) + [lambda F: mixed_norm(F, 1.5, 2.0, 4.0)]
    for seed in range(3):
        a = st_random_field(g, BandSpec(1, 6, 1.5), seed=(10, seed))
        b = st_random_field(g, BandSpec(1, 6, 1.5), seed=(11, seed))
        ab = box_of(g, a.whole() + b.whole())
        for norm in norms:
            na = norm(a)
            nb = norm(b)
            nsum = norm(ab)
            scaled = norm(box_of(g, -2.5 * a.whole()))
            assert scaled == pytest.approx(2.5 * na, rel=1e-10)
            assert nsum <= na + nb + 1e-10 * (na + nb)


def test_mean_zero_projection_never_increases_norms():
    g = small_grid()
    c = st_random_field(g, BandSpec(1, 6, 1.5), seed=12).whole()
    c[:, 0, :] = 0.3 + 0.1j  # inject k = 0 content
    F = box_of(g, c)
    # the projection of a box: the same box with its k = 0 plane zeroed
    z = np.array(F.coeffs)
    z[:, F.axes()[1] == 0] = 0.0
    Fz = SpaceTimeBox(g, F.lo, z)
    assert not np.any(Fz.whole()[:, 0]) and np.array_equal(Fz.whole()[:, 1:], c[:, 1:])
    norms = _bourgain_norms(
        [
            NormSpec(flavor="x", s1=0.3, b=0.4),
            NormSpec(flavor="y", s1=0.2, beta=0.2),
            NormSpec(flavor="z", beta=0.1),
        ],
        P2,
    ) + [lambda F: mixed_norm(F, 1.5, 2.0, 2.0)]
    for norm in norms:
        assert norm(Fz) <= norm(F) + 1e-12


def _gauss_profile(eta, width=0.6, cut=3.0):
    out = np.exp(-((eta / width) ** 2))
    out[np.abs(eta) > cut] = 0.0
    return out


def test_grid_refinement_stability():
    # same continuum field sampled on a grid and its joint (yPoints, yLength)
    # doubling; the profile's tail is below double precision at the cut
    def build(g):
        c = np.zeros(g.spatial_shape, complex)
        prof = _gauss_profile(g.eta_axis())
        prof[g.yPoints // 2] = 0
        ka = g.k_axis()
        for k, amp in [(1, 1.0), (2, 0.5), (3, 0.25)]:
            c[ka == k] = amp * prof
            c[ka == -k] = amp * prof
        return SpectralField(g, c)

    g1 = make_grid(8, 64, 16 * math.pi)
    g2 = make_grid(8, 128, 32 * math.pi)
    for s1, s2 in [(0.0, 0.0), (0.5, 0.25), (1.0, 1.0)]:
        n1 = sobolev_norm(build(g1), s1, s2)
        n2 = sobolev_norm(build(g2), s1, s2)
        assert abs(n2 - n1) / n1 < 1e-8


def test_random_field_contract():
    g = small_grid()
    band = BandSpec(3, 6, 1.0)
    f1 = random_field(g, band, seed=42)
    f2 = random_field(g, band, seed=42)
    assert np.array_equal(f1.coeffs, f2.coeffs)

    absk = np.abs(g.k_axis())
    outside = (absk < 3) | (absk > 6)
    assert np.all(f1.coeffs[outside] == 0)
    abseta = np.abs(g.eta_axis())
    assert np.all(f1.coeffs[:, abseta > 1.0] == 0)

    u = to_physical(f1)
    assert np.max(np.abs(u.imag)) < 1e-12

    with pytest.raises(InvalidSpecError, match="k band up to 20 exceeds grid kMax"):
        random_field(g, BandSpec(1, 20, 1.0), seed=0)
    with pytest.raises(InvalidSpecError, match="eta band up to 100.0 exceeds lattice Nyquist"):
        random_field(g, BandSpec(1, 4, 100.0), seed=0)


def test_argument_rules_are_listed_together():
    # each call names every rule its arguments break, not only the first
    g = small_grid()
    with pytest.raises(InvalidSpecError) as err:
        mixed_norm(st_random_field(g, BandSpec(1, 6, 1.5), seed=8), 3, 0, 0)
    assert err.value.violations == ["r must lie in [1, 2], got 3",
                                    "p, q must lie in [1, inf], got p=0, q=0"]
    with pytest.raises(InvalidSpecError) as err:
        random_field(g, BandSpec(1, 20, 100.0), seed=0)
    assert [v.split(" up to ")[0] for v in err.value.violations] == ["k band", "eta band"]


def _direct_convolution(a, b, out_shape):
    # O(n^2) sum over every pair of nonzero coefficients; frequencies add per
    # axis, and sums outside the output lattice or on its Nyquist are dropped
    freqs = [np.fft.fftfreq(n, 1.0 / n).round().astype(int) for n in a.shape]
    ia, ib = np.nonzero(a), np.nonzero(b)
    total = [f[i][:, None] + f[j][None, :] for f, i, j in zip(freqs, ia, ib)]
    keep = np.all([np.abs(t) <= (m - 1) // 2 for t, m in zip(total, out_shape)], axis=0)
    out = np.zeros(out_shape, complex)
    vals = a[ia][:, None] * b[ib][None, :]
    np.add.at(out, tuple(t[keep] % m for t, m in zip(total, out_shape)), vals[keep])
    return out


def _product_exact(fa, fb):
    # the exact spectral product on the doubled grid, formed as
    # `st_product_exact` forms the space-time one
    g2 = product_grid(fa.grid)
    plan, a, b = _boxed_plan(fa.coeffs, fb.coeffs)
    return SpectralField(g2, _on_grid(plan, a, b, g2.spatial_shape) * g2.deta**g2.yDims)


def _dealiased_product(fa, fb):
    # the 2/3-rule square on the factor's own grid, the solvers' quadratic
    # term: one field twice
    assert fb is fa
    g = fa.grid
    square, _ = dealiased_square(g.spatial_shape, dealias_grid(g, 2.0 / 3.0).spatial_shape)
    return SpectralField(g, square(fa.coeffs) * g.deta**g.yDims)


def test_dealiased_product_matches_direct_convolution():
    g = small_grid()
    band = BandSpec(1, g.kMax // 3, 0.9)
    cases = (
        (_dealiased_product, random_field, g.deta),
        (_product_exact, random_field, g.deta),
        (st_product_exact, st_random_field, g.dtau * g.deta),
    )
    for product, make, weight in cases:
        fa = make(g, band, seed=1)
        fb = make(g, band, seed=2)
        # fa twice takes the squared-term path, the only one a dealiased square has
        for second in (fa,) if product is _dealiased_product else (fb, fa):
            prod = _whole(product(fa, second))
            direct = _direct_convolution(_whole(fa), _whole(second), prod.shape)
            assert np.max(np.abs(prod - weight * direct)) < 1e-12, product.__name__


@st.composite
def _box_coeffs(draw, shape):
    # random coefficients on a random box of signed frequencies per axis (so
    # one-sided and asymmetric boxes occur), never touching a Nyquist row
    c = np.zeros(shape, complex)
    index = []
    for n in shape:
        top = (n - 1) // 2
        lo = draw(st.integers(-top, top))
        hi = draw(st.integers(lo, top))
        index.append(np.arange(lo, hi + 1) % n)
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    box = np.ix_(*index)
    size = c[box].shape
    c[box] = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    c[box] *= rng.random(size) < 0.7  # holes inside the box
    return c


@st.composite
def _hermitian_coeffs(draw, shape):
    # the coefficients of a real field: exactly Hermitian on a random box
    # that is symmetric on every axis (so no Nyquist row), with holes
    c = np.zeros(shape, complex)
    index = []
    for n in shape:
        h = draw(st.integers(0, (n - 1) // 2))
        index.append(np.arange(-h, h + 1) % n)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    box = np.ix_(*index)
    size = c[box].shape
    c[box] = (rng.standard_normal(size) + 1j * rng.standard_normal(size)) * (rng.random(size) < 0.7)
    return (c + np.conj(_mirror(c, range(c.ndim)))) / 2.0


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_fitted_product_matches_direct_convolution(data):
    y_dims = data.draw(st.sampled_from([1, 2]), label="yDims")
    spacetime = data.draw(st.booleans(), label="spacetime")
    g = make_grid(
        kMax=data.draw(st.integers(1, 5), label="kMax"),
        yPoints=8 if y_dims == 2 else data.draw(st.sampled_from([8, 16]), label="yPoints"),
        yLength=8 * math.pi,
        yDims=y_dims,
        tPoints=8,
    )
    shape = g.st_shape if spacetime else g.spatial_shape
    make, product, weight = (
        (box_of, st_product_exact, g.dtau * g.deta**y_dims)
        if spacetime
        else (SpectralField, _product_exact, g.deta**y_dims)
    )
    pairings = ["two", "same", "zero", "hermitian", "hermitian-same"]
    pairing = data.draw(st.sampled_from(pairings), label="pairing")
    coeffs = _hermitian_coeffs if pairing.startswith("hermitian") else _box_coeffs
    fa = make(g, data.draw(coeffs(shape), label="a"))
    if pairing in ("two", "hermitian"):
        fb = make(g, data.draw(coeffs(shape), label="b"))
    elif pairing.endswith("same"):
        fb = fa  # one field twice, as the comparable pair comes
    else:
        fb = make(g, np.zeros(shape, complex))
    # real fields take the packed route, one field twice too: both factors
    # in one transform
    a = _whole(fa)
    b = a if fb is fa else _whole(fb)
    packed = pairing.startswith("hermitian") and bool(np.any(a) and np.any(b))
    assert _boxed_plan(a, b)[0].packed == packed
    prod = _whole(product(fa, fb))
    direct = weight * _direct_convolution(a, b, prod.shape)
    assert np.max(np.abs(prod - direct)) <= 1e-12 * max(1.0, np.max(np.abs(direct)))


def _nudged(c):
    # c with the real part of its largest coefficient moved by one ulp
    c = np.array(c)
    at = np.unravel_index(np.argmax(np.abs(c)), c.shape)
    c[at] = complex(np.nextafter(c[at].real, np.inf), c[at].imag)
    return c


def _with_nyquist_row(c):
    # c plus a Hermitian y-Nyquist row: the box reaches -yPoints/2 there
    c = np.array(c)
    n = c.shape[-1]
    row = np.zeros(c.shape[:-1], complex)
    row[(1,) * row.ndim] = 0.3 + 0.2j
    row += np.conj(_mirror(row, range(row.ndim)))
    c[..., n // 2] = row
    return c


@pytest.mark.parametrize("spacetime", [False, True], ids=["spectral", "spacetime"])
@pytest.mark.parametrize("control", [_nudged, _with_nyquist_row], ids=["one-ulp", "nyquist"])
def test_packed_route_gate_negative_controls(control, spacetime):
    # pairs that are nearly real fields take the general route, and their
    # products still match the direct convolution
    g = small_grid()
    band = BandSpec(1, g.kMax // 2, 0.9)
    make, wrap, product, weight = (
        (st_random_field, box_of, st_product_exact, g.dtau * g.deta)
        if spacetime
        else (random_field, SpectralField, _product_exact, g.deta)
    )
    fa, fb = make(g, band, seed=5), make(g, band, seed=6)
    assert _boxed_plan(_whole(fa), _whole(fb))[0].packed
    fb = wrap(g, control(_whole(fb)))
    assert not _boxed_plan(_whole(fa), _whole(fb))[0].packed
    prod = _whole(product(fa, fb))
    direct = weight * _direct_convolution(_whole(fa), _whole(fb), prod.shape)
    assert np.max(np.abs(prod - direct)) <= 1e-12 * np.max(np.abs(direct))


def test_packed_route_keeps_each_factor_relative_accuracy():
    # a factor 1e-9 the size of the other: its rounding error in the shared
    # transform is scaled with it, so the product is as accurate as on the
    # general route, which transforms each factor alone
    g = small_grid()
    band = BandSpec(1, g.kMax // 2, 0.9)
    a = st_random_field(g, band, seed=1).whole()
    b = st_random_field(g, band, seed=2).whole() * 1e-9
    out = product_grid(g).st_shape
    plan, box_a, box_b = _boxed_plan(a, b)
    assert plan.packed
    direct = _direct_convolution(a, b, out)
    prod = _on_grid(plan, box_a, box_b, out)
    assert np.max(np.abs(prod - direct)) <= 1e-14 * np.max(np.abs(direct))


def test_fitted_plan_is_sized_to_the_occupied_spans():
    g = make_grid(32, 256, 32 * math.pi)
    band = BandSpec(kLo=16, kHi=32, etaHi=2.0)
    u = random_field(g, band, seed=1, side="+")
    v = random_field(g, band, seed=2)
    box_u, box_v = _span(u.coeffs), _span(v.coeffs)
    assert box_u[0] == (16, 32) and box_v[0] == (-32, 32)
    assert box_u[1] == box_v[1] == (-32, 32)  # |eta| <= 2 at deta = 1/16
    assert _span(np.zeros((5, 8), complex)) == ((0, 0), (0, 0))
    plan = _boxed_plan(u.coeffs, v.coeffs)[0]
    assert plan.pad_shape == (next_fast_len(17 + 65 - 1), next_fast_len(65 + 65 - 1))
    # the doubled grid would take 129 x 512 samples; the fitted one has
    # lengths whose prime factors are all small
    for m in plan.pad_shape:
        for p in (2, 3, 5, 7, 11):
            while m % p == 0:
                m //= p
        assert m == 1


def _box_convolution(a, b):
    # the whole linear convolution of two boxes, one entry of `a` at a time
    out = np.zeros([ma + mb - 1 for ma, mb in zip(a.shape, b.shape)], complex)
    for p in np.ndindex(a.shape):
        out[tuple(slice(i, i + m) for i, m in zip(p, b.shape))] += a[p] * b
    return out


@pytest.mark.parametrize("y_dims", [1, 2])
def test_full_grid_product_box_fits_the_product_grid(y_dims):
    # boxes over every frequency of the grid, Nyquist rows included: the
    # product's box is lo_a + lo_b, span_a + span_b - 1 per axis, and
    # `product_grid` holds it, so no product is ever clipped
    g = make_grid(3 if y_dims == 1 else 1, 8, 8 * math.pi, yDims=y_dims, tPoints=8)
    lo = tuple(-(n // 2) for n in g.st_shape)
    rng = np.random.default_rng(12)
    a, b = (SpaceTimeBox(g, lo, _complex_normal(rng, g.st_shape)) for _ in range(2))
    for second in (b, a):
        box = st_product_exact(a, second)
        assert box.grid == product_grid(g)
        assert box.lo == tuple(2 * q for q in lo)
        assert box.coeffs.shape == tuple(2 * n - 1 for n in g.st_shape)
        assert all(q >= -(n // 2) and q + m - 1 <= (n - 1) // 2
                   for q, m, n in zip(box.lo, box.coeffs.shape, box.grid.st_shape))
        direct = g.dtau * g.deta**y_dims * _box_convolution(a.coeffs, second.coeffs)
        assert np.max(np.abs(box.coeffs - direct)) <= 1e-13 * np.max(np.abs(direct))
    if y_dims == 1:
        assert (box.lo, box.coeffs.shape, box.grid.st_shape) == (
            (-8, -6, -8), (15, 13, 15), (16, 13, 16))


def test_next_fast_len_matches_scipy():
    ns = range(1, 4097)
    assert [fields._next_fast_len(n) for n in ns] == [next_fast_len(n) for n in ns]


def test_product_exact_grid_doubles_bands():
    g = small_grid()
    fa = random_field(g, BandSpec(1, 8, 1.9), seed=3)
    fb = random_field(g, BandSpec(1, 8, 1.9), seed=4)
    pe = _product_exact(fa, fb)
    g2 = pe.grid
    assert (g2.kMax, g2.yPoints) == (2 * g.kMax, 2 * g.yPoints)
    assert g2.deta == pytest.approx(g.deta)

    # both factors synthesized directly at the doubled grid's points, with the
    # y origin at -L/2: the product's samples are their pointwise product
    ex = np.exp(1j * np.outer(g2.x_axis(), g.k_axis()))
    ey = np.exp(1j * np.outer(g.eta_axis(), g2.y_axis()))
    ua = g.deta * ex @ fa.coeffs @ ey
    ub = g.deta * ex @ fb.coeffs @ ey
    assert np.max(np.abs(to_physical(pe) - ua * ub)) < 1e-12 * np.max(np.abs(ua * ub))

    # the doubled bands are populated, and the product on the inputs' own
    # grid aliases them back: its coefficients differ from the exact ones
    outside = np.abs(g2.k_axis()) > g.kMax
    assert np.max(np.abs(pe.coeffs[outside])) > 1e-3 * np.max(np.abs(pe.coeffs))
    coarse = to_spectral(to_physical(fa) * to_physical(fb), g)
    keep = np.abs(g2.k_axis()) <= g.kMax
    rows = np.abs(g2.eta_axis()) < g.deta * g.yPoints / 2
    exact_on_g = pe.coeffs[keep][:, rows]
    coarse_on_g = coarse.coeffs[:, np.abs(g.eta_axis()) < g.deta * g.yPoints / 2]
    assert exact_on_g.shape == coarse_on_g.shape
    assert np.max(np.abs(coarse_on_g - exact_on_g)) > 1e-3 * np.max(np.abs(exact_on_g))


class _IxProductPlan:
    """The padded products as `dealiased_square` and `ProductPlan` form them,
    with np.ix_ index maps, whole-array ifftn/fftn and the character applied
    to the whole array at once (the oracle: both must match it bit for bit)."""

    def __init__(self, shape, pad_shape, boxes=None):
        self.pad_shape = tuple(pad_shape)
        self.size = math.prod(self.pad_shape)
        boxed = boxes is not None
        if not boxed:
            boxes = (tuple((-(n // 2), (n - 1) // 2) for n in shape),) * 2
        # every factor unshifted: frequency q at padded position q mod m
        self._factors = [self._placement(shape, box) for box in boxes]
        # a fitted product's box, lo_a + lo_b .. hi_a + hi_b, at the front
        self._box = tuple(slice(0, ha - la + hb - lb + 1) for (la, ha), (lb, hb) in zip(*boxes))
        out_shift = [la + lb for (la, _), (lb, _) in zip(*boxes)]
        # a fitted product is multiplied by e^{-i (lo_a + lo_b) . x}: the
        # first axis's factor times the product of the others', in axis order
        chars = [
            np.exp(-2j * math.pi * (s * np.arange(m) % m) / m)
            for s, m in zip(out_shift, self.pad_shape)
        ]
        rest = np.ones(self.pad_shape[1:], complex)
        for i, char in enumerate(chars[1:]):
            rest *= char.reshape((-1,) + (1,) * (len(chars) - 2 - i))
        self._char = chars[0].reshape((-1,) + (1,) * (len(chars) - 1)) * rest if boxed else None

    def _placement(self, shape, box):
        q = [np.arange(lo, hi + 1) for lo, hi in box]
        src = [p % n for p, n in zip(q, shape)]
        dst = [p % m for p, m in zip(q, self.pad_shape)]
        return np.ix_(*src), np.ix_(*dst)

    def on_box(self, c, factor):
        # the entries of the FFT-ordered `c` on the box of factor 0 or 1
        return c[self._factors[factor][0]]

    def samples(self, box_coeffs, factor):
        big = np.zeros(self.pad_shape, dtype=complex)
        big[self._factors[factor][1]] = box_coeffs
        np.fft.ifftn(big, out=big)
        big *= self.size
        return big

    def _padded_product(self, a, b):
        ua = self.samples(self.on_box(a, 0), 0)
        ua *= ua if b is a else self.samples(self.on_box(b, 1), 1)
        if self._char is not None:
            ua *= self._char
        np.fft.fftn(ua, out=ua)
        ua /= self.size
        return ua

    def square(self, a):
        # the dealiased square, cropped back to the FFT-ordered grid
        ua = self._padded_product(a, a)
        out = np.zeros(a.shape, dtype=complex)
        src, dst = self._factors[0]
        out[src] = ua[dst]
        return out

    def box_product(self, a, b):
        # the fitted product of the FFT-ordered `a` and `b`, on its box
        return self._padded_product(a, b)[self._box]


def _complex_normal(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@pytest.mark.parametrize(
    "grid, frac",
    [
        # the evolve benchmark grid: 65 x 128 -> 99 x 256
        (make_grid(32, 128, 32 * math.pi), 2.0 / 3.0),
        # the picard benchmark grid: 21 x 64 -> 33 x 128
        (make_grid(10, 64, 16 * math.pi), 2.0 / 3.0),
        (make_grid(5, 16, 8 * math.pi, yDims=2), 2.0 / 3.0),
        # no padding: each axis's two runs are adjacent in the padded array
        (make_grid(32, 128, 32 * math.pi), 1.0),
    ],
    ids=["evolve", "picard", "yDims2", "evolve-full"],
)
def test_dealiased_plan_is_bit_identical_to_the_ix_route(grid, frac, monkeypatch):
    pad = dealias_grid(grid, frac).spatial_shape
    square, size = dealiased_square(grid.spatial_shape, pad)
    oracle = _IxProductPlan(grid.spatial_shape, pad)
    assert size == oracle.size
    # a copy of the samples the square forms, as `fields._place` returns them
    placed, place = [], fields._place

    def spy(*args):
        u = place(*args)
        placed.append(np.array(u))
        return u

    monkeypatch.setattr(fields, "_place", spy)
    rng = np.random.default_rng(7)
    a = _complex_normal(rng, grid.spatial_shape)
    assert np.array_equal(square(a), oracle.square(a))
    # no entry is zero, so the occupied box is the whole grid
    lo, box = occupied(a)
    assert lo == tuple(-(n // 2) for n in grid.spatial_shape)
    assert np.array_equal(box, oracle.on_box(a, 1))
    # the dealiased square reads the FFT-ordered array itself
    assert len(placed) == 1
    assert np.array_equal(placed[0], oracle.samples(oracle.on_box(a, 0), 0))


@pytest.mark.parametrize(
    "shape, boxes",
    [
        ((17, 32), (((-5, 6), (-9, 4)), ((-3, 8), (-2, 11)))),
        ((9, 16, 16), (((-2, 3), (-5, 2), (-1, 6)), ((-4, 1), (-3, 7), (-6, 0)))),
    ],
    ids=["2d", "3d"],
)
def test_fitted_plan_is_bit_identical_to_the_ix_route(shape, boxes):
    # every box straddles zero, so each factor's padded indices wrap
    rng = np.random.default_rng(11)
    a, b = np.zeros(shape, complex), np.zeros(shape, complex)
    for c, box in zip((a, b), boxes):
        index = np.ix_(*(np.arange(lo, hi + 1) % n for (lo, hi), n in zip(box, shape)))
        c[index] = _complex_normal(rng, c[index].shape)
    for second in (b, a):
        plan, *held = _boxed_plan(a, second)
        both = (_span(a), _span(second))
        assert both == (boxes[0], boxes[1] if second is b else boxes[0])
        oracle = _IxProductPlan(shape, plan.pad_shape, both)
        assert np.array_equal(plan.box_product(*held), oracle.box_product(a, second))
        for factor, c in enumerate((a, second)):
            assert np.array_equal(held[factor], oracle.on_box(c, factor))
        # a twice is one box: its samples are u = v
        assert (held[1] is held[0]) == (second is a)
        _, u, v = plan._samples(*held)
        assert np.array_equal(u, oracle.samples(held[0], 0))
        assert np.array_equal(v, oracle.samples(held[1], 1))


def test_plan_batches_match_a_loop_over_their_slices():
    g = make_grid(5, 16, 8 * math.pi, yDims=2)
    rng = np.random.default_rng(3)
    batch = _complex_normal(rng, (2, 3) + g.spatial_shape)
    square, _ = dealiased_square(g.spatial_shape, dealias_grid(g, 2.0 / 3.0).spatial_shape)
    got = square(batch)
    assert got.shape == batch.shape
    for i, j in np.ndindex(batch.shape[:2]):
        assert np.array_equal(got[i, j], square(batch[i, j]))
    # a fitted plan reads boxes; no entry is zero, so each box is the whole grid
    fitted, box, _ = _boxed_plan(batch[0, 0], batch[1, 2])
    index = fields._box_index(occupied(batch[0, 0])[0], box.shape, g.spatial_shape)
    boxes, other = batch[index], batch[::-1, ::-1][index]
    got = fitted.box_product(boxes, other)
    for i, j in np.ndindex(batch.shape[:2]):
        assert np.array_equal(got[i, j], fitted.box_product(boxes[i, j], other[i, j]))


def test_serialization_round_trip(tmp_path):
    g = small_grid()
    f = random_field(g, BandSpec(1, 6, 1.5), seed=13)
    path = tmp_path / "field.bin"
    save_field(path, f)
    # the layout every earlier file has: magic, length, sorted JSON header, coefficients
    blob = path.read_bytes()
    (n,) = struct.unpack("<I", blob[5:9])
    assert blob[:5] == b"KPLF\x01" and blob[9 + n :] == f.coeffs.astype("<c16").tobytes()
    assert blob[9 : 9 + n] == json.dumps({
        "kind": "spectral", "grid": vars(g), "shape": [g.nx, g.yPoints],
        "dtype": "complex128", "byteorder": "little"}, sort_keys=True).encode("utf-8")
    back = load_field(path)
    assert isinstance(back, SpectralField)
    assert back.grid == g
    assert np.array_equal(back.coeffs, f.coeffs)


def test_load_field_rejects_truncated_files(tmp_path):
    g = small_grid()
    path = tmp_path / "field.bin"
    save_field(path, random_field(g, BandSpec(1, 6, 1.5), seed=13))
    blob = path.read_bytes()
    header_end = len(blob) - 16 * g.nx * g.yPoints
    # inside the length prefix, inside the JSON header, inside the coefficients
    for cut in (7, header_end - 10, len(blob) - 24):
        path.write_bytes(blob[:cut])
        with pytest.raises(InvalidSpecError):
            load_field(path)


def test_load_field_rejects_a_file_without_the_magic(tmp_path):
    path = tmp_path / "field.bin"
    save_field(path, random_field(small_grid(), BandSpec(1, 6, 1.5), seed=13))
    path.write_bytes(b"KPLF\x02" + path.read_bytes()[5:])  # another container version
    with pytest.raises(InvalidSpecError, match="bad container magic"):
        load_field(path)


def test_load_field_rejects_malformed_headers(tmp_path):
    g = small_grid()
    path = tmp_path / "field.bin"
    save_field(path, random_field(g, BandSpec(1, 6, 1.5), seed=13))
    blob = path.read_bytes()
    magic, (n,) = blob[:5], struct.unpack("<I", blob[5:9])
    header, coeffs = json.loads(blob[9 : 9 + n]), blob[9 + n :]
    no_grid = {k: v for k, v in header.items() if k != "grid"}
    unknown_grid_field = {**header, "grid": {**header["grid"], "zPoints": 8}}
    unknown_kind = {**header, "kind": "physical"}
    for bad in (no_grid, unknown_grid_field, unknown_kind):
        text = json.dumps(bad).encode("utf-8")
        path.write_bytes(magic + struct.pack("<I", len(text)) + text + coeffs)
        with pytest.raises(InvalidSpecError):
            load_field(path)


def test_load_field_rejects_a_fractional_grid(tmp_path):
    # kMax + 1/2 makes nx = 2 kMax + 2, and the shape and the coefficient
    # bytes agree with it: only the integer rule of GridSpec finds the fault
    g = small_grid()
    path = tmp_path / "field.bin"
    save_field(path, random_field(g, BandSpec(1, 6, 1.5), seed=13))
    blob = path.read_bytes()
    magic, (n,) = blob[:5], struct.unpack("<I", blob[5:9])
    header = json.loads(blob[9 : 9 + n])
    nx = 2 * g.kMax + 2
    header.update(grid={**header["grid"], "kMax": g.kMax + 0.5}, shape=[nx, g.yPoints])
    text = json.dumps(header).encode("utf-8")
    path.write_bytes(magic + struct.pack("<I", len(text)) + text + bytes(16 * nx * g.yPoints))
    with pytest.raises(InvalidSpecError):
        load_field(path)


def test_load_field_rejects_a_shape_that_is_not_its_grids(tmp_path):
    g = small_grid()
    path = tmp_path / "field.bin"
    save_field(path, random_field(g, BandSpec(1, 6, 1.5), seed=13))
    blob = path.read_bytes()
    magic, (n,) = blob[:5], struct.unpack("<I", blob[5:9])
    header, coeffs = json.loads(blob[9 : 9 + n]), blob[9 + n :]
    # the same number of coefficients as the grid holds: reshaped, and a
    # spectral shape called space-time
    reshaped = {**header, "shape": [g.yPoints, g.nx]}
    other_kind = {**header, "kind": "spacetime"}
    for bad, broken in ((reshaped, ["shape"]), (other_kind, ["kind"]),
                        ({**reshaped, "kind": "spacetime"}, ["kind", "shape"])):
        text = json.dumps(bad).encode("utf-8")
        path.write_bytes(magic + struct.pack("<I", len(text)) + text + coeffs)
        # one error that lists every rule the header breaks
        with pytest.raises(InvalidSpecError) as err:
            load_field(path)
        assert len(err.value.violations) == len(broken)
        assert all(word in v for word, v in zip(broken, err.value.violations))


def test_load_field_reads_a_header_shape_by_value(tmp_path):
    # JSON holds 17 and 17.0 alike as numbers: a float shape equal to the
    # grid's loads as the same field
    g = small_grid()
    f = random_field(g, BandSpec(1, 6, 1.5), seed=13)
    path = tmp_path / "field.bin"
    save_field(path, f)
    blob = path.read_bytes()
    magic, (n,) = blob[:5], struct.unpack("<I", blob[5:9])
    header, coeffs = json.loads(blob[9 : 9 + n]), blob[9 + n :]
    text = json.dumps({**header, "shape": [float(m) for m in header["shape"]]}).encode("utf-8")
    path.write_bytes(magic + struct.pack("<I", len(text)) + text + coeffs)
    assert np.array_equal(load_field(path).coeffs, f.coeffs)


def test_fields_are_immutable():
    g = small_grid()
    f = random_field(g, BandSpec(1, 5, 1.0), seed=15)
    with pytest.raises(ValueError):
        f.coeffs[1, 2] = 99.0


# ---------------------------------------------------------------------------
# property tests of the transforms, the random data and the nonlinearity


@st.composite
def _grids(draw, min_kmax=1):
    y_dims = draw(st.sampled_from([1, 2]), label="yDims")
    return make_grid(
        kMax=draw(st.integers(min_kmax, 3 * min_kmax + 6), label="kMax"),
        yPoints=draw(st.sampled_from([8, 16] if y_dims == 2 else [8, 16, 32]), label="yPoints"),
        yLength=draw(st.floats(2.0, 100.0), label="yLength"),
        yDims=y_dims,
        tPoints=draw(st.sampled_from([8, 16]), label="tPoints"),
    )


@settings(max_examples=40, deadline=None)
@given(g=_grids(), seed=st.integers(0, 2**32 - 1))
def test_parseval_property(g, seed):
    rng = np.random.default_rng(seed)
    c = rng.standard_normal(g.spatial_shape) + 1j * rng.standard_normal(g.spatial_shape)
    c *= np.exp(rng.uniform(-5.0, 5.0))
    f = SpectralField(g, c)
    u = to_physical(f)
    phys = (2 * math.pi / g.nx) * g.dy**g.yDims * np.sum(np.abs(u) ** 2)
    spec = g.xy_measure * np.sum(np.abs(c) ** 2)
    assert phys == pytest.approx(spec, rel=1e-12)
    scale = np.max(np.abs(c))
    assert np.max(np.abs(to_spectral(u, g).coeffs - c)) <= 1e-12 * scale
    for shape in (g.spatial_shape, g.st_shape):
        samples = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        assert np.max(np.abs(to_physical(to_spectral(samples, g)) - samples)) <= 1e-12
    C = rng.standard_normal(g.st_shape) + 1j * rng.standard_normal(g.st_shape)
    C *= np.exp(rng.uniform(-5.0, 5.0))
    U = to_physical(box_of(g, C))
    phys = g.dt * (2 * math.pi / g.nx) * g.dy**g.yDims * np.sum(np.abs(U) ** 2)
    assert phys == pytest.approx(g.st_measure * np.sum(np.abs(C) ** 2), rel=1e-12)
    assert np.max(np.abs(to_spectral(U, g).whole() - C)) <= 1e-12 * np.max(np.abs(C))


def _mirror(c, axes):
    # c at the negated frequency on each of `axes`: index q -> (-q) mod n
    for ax in axes:
        c = np.roll(np.flip(c, axis=ax), 1, axis=ax)
    return c


@st.composite
def _bands(draw, g):
    k_lo = draw(st.integers(1, g.kMax), label="kLo")
    k_hi = draw(st.integers(k_lo, g.kMax), label="kHi")
    eta_nyq = g.deta * g.yPoints / 2
    return BandSpec(k_lo, k_hi, draw(st.floats(0.0, eta_nyq), label="etaHi"))


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_random_fields_are_hermitian_so_samples_are_real(data):
    g = data.draw(_grids(), label="grid")
    band = data.draw(_bands(g), label="band")
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    f = random_field(g, band, seed)
    c = f.coeffs
    assert np.array_equal(c, np.conj(_mirror(c, range(c.ndim))))
    assert np.all(c[0] == 0)
    u = to_physical(f)
    assert np.max(np.abs(u.imag)) <= 1e-12 * max(1e-300, np.max(np.abs(u.real)))

    box = st_random_field(g, band, seed)
    # the box is symmetric: the mirror of q is the box reversed
    assert all(lo == -(lo + m - 1) for lo, m in zip(box.lo, box.coeffs.shape))
    assert np.array_equal(box.coeffs, np.conj(np.flip(box.coeffs)))
    C = box.whole()
    assert np.array_equal(C, np.conj(_mirror(C, range(C.ndim))))
    assert np.all(C[:, 0] == 0)
    U = to_physical(box)
    assert np.max(np.abs(U.imag)) <= 1e-12 * max(1e-300, np.max(np.abs(U.real)))


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_nonlinearity_matches_direct_convolution(data):
    g = data.draw(_grids(min_kmax=3), label="grid")
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    rng = np.random.default_rng(seed)
    # data on a third of the grid: the square's modes never reach a Nyquist row
    k_top, q_top = g.kMax // 3, g.yPoints // 6
    keep = np.abs(np.fft.fftfreq(g.nx, 1.0 / g.nx)) <= k_top
    keep = keep.reshape((-1,) + (1,) * g.yDims)
    for ax in range(g.yDims):
        q = np.abs(np.fft.fftfreq(g.yPoints, 1.0 / g.yPoints)) <= q_top
        keep = keep & q.reshape((1,) * (ax + 1) + (-1,) + (1,) * (g.yDims - ax - 1))
    c = (rng.standard_normal(g.spatial_shape) + 1j * rng.standard_normal(g.spatial_shape)) * keep
    got = _quadratic_term(g)[0](c)
    k = g.k_axis().reshape((-1,) + (1,) * g.yDims)
    want = -0.5j * k * g.deta**g.yDims * _direct_convolution(c, c, g.spatial_shape)
    assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))
