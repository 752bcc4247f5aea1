"""Free flow, cutoff blocks, nonlinearity, and the two solvers."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import cumulative_simpson

from kplab.errors import (
    InvalidSpecError,
    NonFiniteValueError,
    SolverDivergenceError,
    check,
)
from kplab import evolution, fields
from kplab.evolution import (
    CutoffSpec,
    SolveConfig,
    _quadratic_term,
    bump,
    evolve_nonlinear,
    free_evolve,
    observed_order,
    picard_solve,
)
from kplab.fields import (
    BandSpec,
    SpectralField,
    box_of,
    dealias_grid,
    make_grid,
    phi_grid,
    random_field,
    to_physical,
)
from kplab.symbols import DispersionParams, phase_grid
from lattice_helpers import dilate, shear, smooth_data

P2 = DispersionParams(2.0)


def test_bump_shape():
    t = np.linspace(-3, 3, 1201)
    v = bump(t)
    assert np.all((0.0 <= v) & (v <= 1.0))
    assert np.all(v[np.abs(t) <= 1.0] == 1.0)
    assert np.all(v[np.abs(t) >= 2.0] == 0.0)
    assert 0.0 < bump(1.5) < 1.0
    spec = CutoffSpec(T=0.25)
    assert spec.values(0.2) == 1.0
    assert spec.values(0.6) == 0.0


def test_free_evolve_identity_unitarity_group_law():
    g = make_grid(8, 32, 16 * math.pi)
    f = random_field(g, BandSpec(1, 6, 1.5), seed=1)
    assert np.array_equal(free_evolve(f, 0.0, P2).coeffs, f.coeffs)
    for t in (0.3, -1.7, 12.0):
        assert free_evolve(f, t, P2).l2_norm() == pytest.approx(
            f.l2_norm(), rel=1e-12
        )
    a = free_evolve(free_evolve(f, 0.4, P2), 0.35, P2)
    b = free_evolve(f, 0.75, P2)
    assert np.max(np.abs(a.coeffs - b.coeffs)) < 1e-12 * np.max(np.abs(f.coeffs))


@settings(max_examples=40, deadline=None)
@given(
    y_dims=st.sampled_from([1, 2]),
    alpha=st.floats(2.0, 4.0),
    s=st.floats(-3.0, 3.0),
    t=st.floats(-3.0, 3.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_free_evolve_group_law_property(y_dims, alpha, s, t, seed):
    g = make_grid(6, 16, 8 * math.pi, yDims=y_dims)
    params = DispersionParams(alpha)
    f = random_field(g, BandSpec(1, 6, 1.5), seed)
    a = free_evolve(free_evolve(f, s, params), t, params)
    b = free_evolve(f, s + t, params)
    # the phases agree to rounding of |phi| * (|s| + |t|)
    phase_scale = np.max(np.abs(phi_grid(g, params))) * (abs(s) + abs(t))
    tol = 8 * np.finfo(float).eps * (1.0 + phase_scale) * np.max(np.abs(f.coeffs))
    assert np.max(np.abs(a.coeffs - b.coeffs)) <= tol


def free_block(f, cutoff, params):
    """The cutoff free flow sampled on the t lattice, transformed to (tau, k, eta).

    The space-time coefficients of psi_T(t) e^{it phi(D)} u0, built directly
    from the spectral data: the tests below check the library's space-time
    conventions (`to_physical` of a box, `SpaceTimeBox.l2_norm`, the tau lattice)
    and `CutoffSpec.window_rule` against it.  The grid's tau range must
    contain the data's dispersion surface (keep max |phi| well under pi/dt).
    """
    g = f.grid
    check(cutoff.window_rule(g.tWindow))
    w = cutoff.values(g.t_axis())
    phi = phi_grid(g, params)
    t = g.t_axis().reshape((-1,) + (1,) * (1 + g.yDims))
    samples = w.reshape(t.shape) * np.exp(1j * t * phi[None, ...]) * f.coeffs[None, ...]
    spec = np.fft.fft(samples, axis=0) / (g.tPoints * g.dtau)
    signs = np.where(np.arange(g.tPoints) % 2, -1.0, 1.0).reshape(t.shape)  # t origin -tWindow
    return box_of(g, spec * signs)


def nonlinearity(f):
    """The solvers' dealiased -(1/2) d_x(u^2) of one field."""
    term, _ = _quadratic_term(f.grid)
    return SpectralField(f.grid, term(f.coeffs))


def block_grid():
    # tau range must cover the dispersion surface: kMax=3 keeps |phi| <= 31
    return make_grid(3, 16, 8 * math.pi, tPoints=256, tWindow=2.0)


def test_free_block_single_mode_against_direct_summation():
    g = block_grid()
    c = np.zeros(g.spatial_shape, complex)
    c[2, 3] = 1.0
    f = SpectralField(g, c)
    F = free_block(f, CutoffSpec(T=1.0), P2).whole()

    phi = float(phase_grid(P2, 2.0, (3 * g.deta) ** 2))
    tl = g.t_axis()
    psi = bump(tl)
    for p_idx in (0, 5, 100, 200):
        tau = g.tau_axis()[p_idx]
        direct = np.sum(psi * np.exp(1j * tl * (phi - tau))) / (g.tPoints * g.dtau)
        assert F[p_idx, 2, 3] == pytest.approx(direct, abs=1e-13)
    # energy concentrates at tau near phi
    peak = g.tau_axis()[np.argmax(np.abs(F[:, 2, 3]))]
    assert abs(peak - phi) <= 2 * g.dtau


def test_free_block_l2_factorizes():
    g = block_grid()
    f = random_field(g, BandSpec(1, 3, 1.0), seed=2)
    F = free_block(f, CutoffSpec(T=1.0), P2)
    psi_l2 = math.sqrt(g.dt * np.sum(bump(g.t_axis()) ** 2))
    assert F.l2_norm() == pytest.approx(psi_l2 * f.l2_norm(), rel=1e-8)


def test_free_block_samples_match_windowed_flow():
    g = block_grid()
    f = random_field(g, BandSpec(1, 3, 1.0), seed=3)
    cutoff = CutoffSpec(T=1.0)  # support (-2, 2): the whole window
    F = free_block(f, cutoff, P2)
    samples = to_physical(F)
    w = cutoff.values(g.t_axis())
    for n in (0, 64, 128, 200):
        expect = w[n] * to_physical(free_evolve(f, g.t_axis()[n], P2))
        assert np.max(np.abs(samples[n] - expect)) < 1e-10


def test_free_block_window_too_small():
    g = make_grid(3, 16, 8 * math.pi, tPoints=64, tWindow=1.0)
    f = random_field(g, BandSpec(1, 3, 1.0), seed=4)
    with pytest.raises(InvalidSpecError, match="cutoff support halfwidth 2.0 exceeds tWindow 1.0"):
        free_block(f, CutoffSpec(T=1.0), P2)  # support (-2, 2) vs window 1


def test_nonlinearity_cosine():
    g = make_grid(8, 32, 16 * math.pi)
    c = np.zeros(g.spatial_shape, complex)
    c[1, 0] = 0.5 / g.deta
    c[-1, 0] = 0.5 / g.deta
    f = SpectralField(g, c)  # u = cos(x)
    nl = nonlinearity(f)
    nz = np.argwhere(np.abs(nl.coeffs) > 1e-13)
    assert {int(g.k_axis()[i]) for i, _ in nz} == {2, -2}
    # -(1/2) d_x(u^2) = sin(2x)/2: density amplitudes -+ i/4
    assert nl.coeffs[2, 0] * g.deta == pytest.approx(-0.25j, abs=1e-13)
    assert nl.coeffs[-2, 0] * g.deta == pytest.approx(0.25j, abs=1e-13)


def test_nonlinearity_zero_and_skew_symmetry():
    g = make_grid(8, 32, 16 * math.pi)
    z = SpectralField(g, np.zeros(g.spatial_shape, complex))
    assert np.all(nonlinearity(z).coeffs == 0)

    u = random_field(g, BandSpec(1, 8, 1.9), seed=5)
    nu = nonlinearity(u)
    pairing = g.xy_measure * np.sum(np.conj(u.coeffs) * nu.coeffs)
    assert abs(pairing) < 1e-10 * u.l2_norm() ** 2


def test_solve_config_validation():
    with pytest.raises(InvalidSpecError):
        SolveConfig(dt=0.2, T=0.1)
    with pytest.raises(InvalidSpecError):
        SolveConfig(dt=0.01, T=0.1, dealias=0.0)


@pytest.mark.parametrize("T", [math.inf, math.nan])
def test_solve_config_rejects_a_time_that_is_not_finite(T):
    # an infinite T used to pass and end in an OverflowError from int(T / dt)
    with pytest.raises(InvalidSpecError):
        SolveConfig(dt=0.01, T=T)


def test_evolve_zero_data():
    g = make_grid(8, 32, 16 * math.pi)
    z = SpectralField(g, np.zeros(g.spatial_shape, complex))
    traj = evolve_nonlinear(z, SolveConfig(dt=0.01, T=0.05), P2)
    assert np.all(traj.final.coeffs == 0)
    assert np.all(traj.l2_drift == 0)


def test_evolve_linear_limit_matches_free_flow():
    # at amplitude 1e-12 the quadratic term is ~1e-12 of the linear one, so
    # the stepper, rescaled, must reproduce the exact free flow
    g = make_grid(8, 32, 16 * math.pi)
    scale = 1e-12
    f = random_field(g, BandSpec(1, 6, 1.5), seed=6)
    f = SpectralField(g, scale * f.coeffs)
    traj = evolve_nonlinear(f, SolveConfig(dt=0.01, T=0.05), P2, keep_step=3)
    for t, state in ((0.03, traj.kept), (0.05, traj.final)):
        expect = free_evolve(f, t, P2)
        assert np.max(np.abs(state.coeffs - expect.coeffs)) / scale < 1e-12


def test_evolve_conservation_quick():
    g = make_grid(16, 64, 16 * math.pi)
    f = smooth_data(g)
    traj = evolve_nonlinear(f, SolveConfig(dt=1e-3, T=0.1), P2)
    assert max(traj.l2_drift) <= 1e-10


def test_evolve_rejects_incommensurable_horizon():
    g = make_grid(8, 32, 16 * math.pi)
    f = smooth_data(g)
    with pytest.raises(InvalidSpecError):
        evolve_nonlinear(f, SolveConfig(dt=3e-3, T=0.01), P2)


def test_evolve_blowup_guard():
    g = make_grid(16, 32, 16 * math.pi)
    f = smooth_data(g, amplitude=30.0, modes=((1, 1.0), (2, 1.0), (3, 1.0)))
    with pytest.raises(SolverDivergenceError):
        evolve_nonlinear(f, SolveConfig(dt=0.25, T=50.0), P2)


def test_evolve_stops_when_the_norm_grows_tenfold():
    # large data at a large step: the first step multiplies the L2 norm by
    # about 370 and it stays finite, so the growth check, not the finiteness
    # one, stops the run
    g = make_grid(8, 16, 8 * math.pi)
    f = smooth_data(g, amplitude=30.0, modes=((1, 1.0), (2, 1.0)))
    with pytest.raises(SolverDivergenceError, match="L2 norm grew by"):
        evolve_nonlinear(f, SolveConfig(dt=0.1, T=2.0), P2)


def test_evolve_rejects_nonfinite_between_save_points():
    # huge data overflows within a few steps; 150 steps put a drift point
    # every 2 steps, and the overflow between two of them is seen by the
    # per-step check alone (the tenfold-growth test is False for NaN)
    g = make_grid(10, 64, 16 * math.pi)
    f = smooth_data(g, amplitude=1e6)
    with np.errstate(all="ignore"), pytest.raises(SolverDivergenceError, match="no longer finite"):
        evolve_nonlinear(f, SolveConfig(dt=4e-3, T=0.6), P2)


def test_observed_order_at_least_3p5():
    g = make_grid(10, 64, 16 * math.pi)
    f = smooth_data(g, amplitude=0.5, modes=((1, 1.0), (2, 0.6)))
    p = observed_order(f, P2, T=0.08, dt=4e-3)
    assert p >= 3.5


def test_evolve_keeps_one_step_outside_the_snapshot_schedule():
    # 150 steps put a drift point every 2 steps; step 75 is not one
    g = make_grid(8, 32, 16 * math.pi)
    f = smooth_data(g)
    plain = evolve_nonlinear(f, SolveConfig(dt=0.01, T=1.5), P2)
    kept = evolve_nonlinear(f, SolveConfig(dt=0.01, T=1.5), P2, keep_step=75)
    assert plain.kept is None
    assert len(kept.times) == 76  # 0, 2, ..., 150 steps
    assert np.array_equal(kept.times, plain.times)
    assert np.array_equal(kept.l2_drift, plain.l2_drift)
    assert np.array_equal(kept.final.coeffs, plain.final.coeffs)
    short = evolve_nonlinear(f, SolveConfig(dt=0.01, T=0.75), P2)
    assert np.array_equal(kept.kept.coeffs, short.final.coeffs)
    for bad in (0, 151):
        with pytest.raises(InvalidSpecError):
            evolve_nonlinear(f, SolveConfig(dt=0.01, T=1.5), P2, keep_step=bad)


def test_evolve_memory_does_not_grow_with_the_step_count():
    # only the end state and the kept one are held, so 250 steps on the
    # evolve benchmark grid (65 x 128, 130 KiB a state) peak at a few
    # working arrays; 65 held states would take 8.5 MiB more
    g = make_grid(32, 128, 32 * math.pi)
    f = smooth_data(g)
    tracemalloc.start()
    try:
        evolve_nonlinear(f, SolveConfig(dt=1e-3, T=0.25), P2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_observed_order_rejects_zero_differences():
    g = make_grid(10, 64, 16 * math.pi)
    zero = SpectralField(g, np.zeros(g.spatial_shape, complex))
    with pytest.raises(NonFiniteValueError):
        observed_order(zero, P2, T=0.08, dt=4e-3)


def _scipy_cumulative_simpson(y, dx):
    # the oracle: scipy's real-only routine on each part
    re = cumulative_simpson(y.real, dx=dx, axis=0, initial=0.0)
    im = cumulative_simpson(y.imag, dx=dx, axis=0, initial=0.0)
    return re + 1j * im


def test_cumulative_simpson_matches_scipy():
    rng = np.random.default_rng(5)
    # odd and even lengths from the GridSpec floor of 8 t points, then the
    # shape of Picard's integrand on the picard benchmark grid
    shapes = [(n, 3) for n in range(8, 130)] + [picard_grid().st_shape]
    for shape in shapes:
        y = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        dx = rng.uniform(1e-4, 1.0)
        got = evolution._cumulative_simpson(y, dx)
        assert np.array_equal(got, _scipy_cumulative_simpson(y, dx)), shape


@pytest.mark.parametrize("t_points", [127, 128])
def test_cumulative_simpson_matches_scipy_on_picards_column_blocks(t_points):
    # Picard integrates its (t, k, eta) work array in blocks of columns: views
    # with strided rows, of 2 * tPoints float entries per column
    rng = np.random.default_rng(7)
    shape = (t_points,) + picard_grid().spatial_shape
    columns = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)).reshape(t_points, -1)
    blocks = list(fields.row_blocks(columns.shape[1], 2 * t_points))
    assert len(blocks) > 2 and blocks[-1].stop - blocks[-1].start < blocks[0].stop  # one ragged
    for q in blocks:
        col = columns[:, q]
        assert not col.flags.c_contiguous
        dx = rng.uniform(1e-4, 1.0)
        assert np.array_equal(evolution._cumulative_simpson(col, dx),
                              _scipy_cumulative_simpson(col, dx)), q


def picard_grid():
    return make_grid(10, 64, 16 * math.pi, tPoints=128, tWindow=0.2)


def test_picard_first_iterate_is_free_solution():
    g = picard_grid()
    f = smooth_data(g)
    res = picard_solve(f, CutoffSpec(T=0.05), 1, P2)
    tl = g.t_axis()
    for i in np.where(np.abs(tl) <= 0.05 + 1e-12)[0]:
        expect = free_evolve(f, tl[i], P2)
        assert np.max(np.abs(res.coeffs[i] - expect.coeffs)) < 1e-10


def test_picard_zero_data():
    g = picard_grid()
    z = SpectralField(g, np.zeros(g.spatial_shape, complex))
    res = picard_solve(z, CutoffSpec(T=0.05), 3, P2)
    assert np.all(res.coeffs == 0)
    assert all(d == 0 for d in res.diff_norms)


def test_picard_contracts_and_matches_exponential_stepper():
    g = picard_grid()
    f = smooth_data(g)
    res = picard_solve(f, CutoffSpec(T=0.05), 8, P2)
    diffs = res.diff_norms
    assert all(
        diffs[i + 1] < diffs[i] for i in range(len(diffs) - 1) if diffs[i] > 0
    )
    traj = evolve_nonlinear(f, SolveConfig(dt=6.25e-4, T=0.05), P2)
    pic = res.at_time(0.05)
    diff = math.sqrt(
        g.xy_measure * np.sum(np.abs(pic.coeffs - traj.final.coeffs) ** 2)
    )
    assert diff / traj.final.l2_norm() < 1e-6


def test_picard_rejects_nonfinite_difference():
    # the second iterate overflows: its difference norm is inf, then NaN,
    # and the finiteness check must stop it, as no comparison with NaN holds
    g = make_grid(8, 32, 16 * math.pi, tPoints=64, tWindow=0.2)
    f = smooth_data(g, amplitude=1e150)
    with np.errstate(all="ignore"), pytest.raises(SolverDivergenceError, match="iteration 2"):
        picard_solve(f, CutoffSpec(T=0.05), 6, P2)
    nan = np.array(smooth_data(g).coeffs)
    nan[1, 3] = np.nan
    with np.errstate(all="ignore"), pytest.raises(SolverDivergenceError, match="iteration 1"):
        picard_solve(SpectralField(g, nan), CutoffSpec(T=0.05), 6, P2)


def test_picard_stops_when_differences_grow_three_iterations_in_a_row():
    # the nonlinear term dominates: every difference after the first is
    # larger than the one before, and all of them are finite
    g = make_grid(4, 16, 8 * math.pi, tPoints=16, tWindow=0.8)
    with pytest.raises(SolverDivergenceError, match="grew three iterations in a row"):
        picard_solve(smooth_data(g, amplitude=10.0), CutoffSpec(T=0.4), 6, P2)


def _picard_differences(monkeypatch, steps, iters):
    """Picard's successive differences on zero data under a stand-in quadratic term.

    In iteration n the term is s_n times a fixed array, s_n the running sum
    of `steps`, so iterate n + 1 is s_n W for one fixed W: the differences
    are 0, then `steps` times one norm.  Its padded size of 1 puts every t
    row in one block, one call per iteration.
    """
    levels = iter(np.cumsum(steps))
    monkeypatch.setattr(evolution, "_quadratic_term",
                        lambda grid: ((lambda c: next(levels) * np.ones_like(c)), 1))
    g = make_grid(4, 16, 8 * math.pi, tPoints=16, tWindow=0.8)
    zero = SpectralField(g, np.zeros(g.spatial_shape, complex))
    return picard_solve(zero, CutoffSpec(T=0.4), iters, P2).diff_norms


def test_picard_stops_on_the_third_rise_in_a_row_and_not_after_a_fall(monkeypatch):
    # 0, 1, 2, 1, 2, 3: rise, rise, fall, rise, rise
    diffs = _picard_differences(monkeypatch, [1, 2, 1, 2, 3], 6)
    assert diffs[0] == 0.0
    assert np.allclose(np.array(diffs[1:]) / diffs[1], [1, 2, 1, 2, 3], rtol=1e-12)
    with pytest.raises(SolverDivergenceError, match="grew three iterations in a row"):
        _picard_differences(monkeypatch, [1, 2, 1, 2, 3, 4], 7)
    # 0, 1, 2 are two rises; 0, 1, 2, 3 three
    assert len(_picard_differences(monkeypatch, [1, 2], 3)) == 3
    with pytest.raises(SolverDivergenceError, match="grew three iterations in a row"):
        _picard_differences(monkeypatch, [1, 2, 3], 4)


def test_at_time_reads_the_lattice_rows_inside_the_window():
    g = make_grid(4, 16, 8 * math.pi, tPoints=16, tWindow=0.2)  # dt = 0.025
    rows = np.arange(g.tPoints).reshape((-1, 1, 1)) * np.ones(g.spatial_shape)
    res = evolution.PicardResult(g, rows, [])
    assert res.at_time(0.05).coeffs[0, 0] == 10  # t_n = -0.2 + 0.025 n
    assert res.at_time(-0.2).coeffs[0, 0] == 0
    # a multiple of dt to 1e-9 relative is on the lattice, as the CLI rule has it
    assert res.at_time(0.05 * (1 + 5e-10)).coeffs[0, 0] == 10
    for t in (0.06, 0.2, -0.225):  # between rows, one past the last, one before the first
        with pytest.raises(InvalidSpecError, match="not on the time lattice"):
            res.at_time(t)


def test_picard_window_check():
    g = picard_grid()
    f = smooth_data(g)
    with pytest.raises(InvalidSpecError, match="cutoff support halfwidth 0.4 exceeds tWindow 0.2"):
        picard_solve(f, CutoffSpec(T=0.2), 2, P2)  # support 0.4 > window 0.2


def test_picard_blocks_match_the_per_row_loop(monkeypatch):
    g = picard_grid()
    f = smooth_data(g)
    cutoff = CutoffSpec(T=0.05)
    pad = math.prod(dealias_grid(g, 2.0 / 3.0).spatial_shape)
    # 33 x 128 padded entries per row: blocks of 15 of the 128 t rows, the
    # last one ragged (8 rows)
    assert fields._BLOCK_ENTRIES // pad == 15
    blocked = picard_solve(f, cutoff, 3, P2)
    for rows in (1, 7):  # one row per block is the per-row loop; 128 = 18 * 7 + 2
        monkeypatch.setattr(fields, "_BLOCK_ENTRIES", rows * pad)
        other = picard_solve(f, cutoff, 3, P2)
        assert np.array_equal(other.coeffs, blocked.coeffs)
        assert other.diff_norms == blocked.diff_norms


def test_picard_integrand_scratch_is_per_t_block(monkeypatch):
    # tracemalloc peak of each quadratic-term call above what was live before
    # it: about two block-sized padded arrays (1 MiB each at 15 rows of
    # 33 x 128), where all 128 rows at once would take 8.25 MiB per array
    g = picard_grid()
    cutoff = CutoffSpec(T=0.05)
    build = evolution._quadratic_term
    scratch = []

    def measured_term(grid, *args):
        term, size = build(grid, *args)

        def measured(c):
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            out = term(c)
            scratch.append(tracemalloc.get_traced_memory()[1] - before)
            return out

        return measured, size

    monkeypatch.setattr(evolution, "_quadratic_term", measured_term)
    tracemalloc.start()
    try:
        picard_solve(smooth_data(g), cutoff, 2, P2)
    finally:
        tracemalloc.stop()
    # none in iteration 1, whose iterate is 0; then one call per block of 15
    # of the rows where psi_T != 0 (63 of the 128, so 5 blocks)
    live = np.count_nonzero(cutoff.values(g.t_axis()))
    assert len(scratch) == math.ceil(live / 15)
    assert max(scratch) < 3 * 2**20


def _picard_full_lattice(f, cutoff, iters, params):
    """Oracle: the Picard iteration on whole (t, k, eta) arrays.

    The same operations as `picard_solve`, in the same operand order, but
    with every term held over the whole lattice and the quadratic term formed
    on every t row in every iteration, the iterate 0 and psi_T = 0 included.
    """
    g = f.grid
    t = g.t_axis()
    i_zero = g.tPoints // 2
    shape_t = (-1,) + (1,) * (1 + g.yDims)
    e_plus = np.exp(1j * t.reshape(shape_t) * phi_grid(g, params)[None, ...])
    psiT = cutoff.values(t).reshape(shape_t)
    c0 = np.array(f.coeffs)
    c0[0] = 0.0
    free = bump(t).reshape(shape_t) * e_plus * c0[None, ...]
    nl, _ = _quadratic_term(g)
    cur = np.zeros_like(free)
    diffs = []
    for _ in range(iters):
        cum = evolution._cumulative_simpson(np.conj(e_plus) * (psiT**2 * nl(cur)), g.dt)
        nxt = free + psiT * e_plus * (cum - cum[i_zero][None, ...])
        d = np.sqrt(g.xy_measure * np.sum(np.abs(nxt - cur) ** 2, axis=tuple(range(1, nxt.ndim))))
        diffs.append(float(d.max()))
        cur = nxt
    return cur, diffs


@pytest.mark.parametrize("y_dims, T", [(1, 0.05), (1, 0.1), (2, 0.05)])
def test_picard_matches_the_full_lattice_iteration_bit_for_bit(y_dims, T):
    # at T = 0.1, psi_T != 0 on every t row of the picard grid but the first
    if y_dims == 1:
        g = picard_grid()
        f = smooth_data(g)
    else:
        g = make_grid(4, 16, 8 * math.pi, yDims=2, tPoints=64, tWindow=0.2)
        f = SpectralField(g, 0.01 * random_field(g, BandSpec(1, 3, 1.0), seed=6).coeffs)
    cutoff = CutoffSpec(T=T)
    res = picard_solve(f, cutoff, 8, P2)
    coeffs, diffs = _picard_full_lattice(f, cutoff, 8, P2)
    assert res.coeffs.tobytes() == coeffs.tobytes()
    assert res.diff_norms == diffs
    assert diffs[-1] < 1e-3 * diffs[0]  # a contraction, not a run of zeros


def test_picard_holds_three_lattice_arrays():
    # e^{it phi}, the iterate and the work array take 2.625 MiB each on the
    # picard grid (128 x 21 x 64 complex); the block scratch adds about
    # 3 MiB.  The full-lattice iteration, which held about eight such arrays,
    # peaked at 22.35 MiB.
    f = smooth_data(picard_grid())
    tracemalloc.start()
    try:
        picard_solve(f, CutoffSpec(T=0.05), 8, P2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 12.5 * 2**20


def _shear_tail(plain, m, g):
    # the largest of the moduli `plain` (leading t axis allowed) within m |k|
    # of the eta edge, where the lattice shear wraps, relative to the largest
    j = np.abs(np.fft.fftfreq(g.yPoints, 1.0 / g.yPoints))
    edge = j[None, :] + abs(m) * np.abs(g.k_axis())[:, None] >= g.yPoints // 2
    return np.max(plain[..., edge]) / np.max(plain)


def _picard_shear_defect(m):
    """(defect, tolerance) of Picard's shear equivariance on the picard grid.

    phi(k, eta + ck) = phi(k, eta) - 2c eta - c^2 k is linear in (k, eta),
    so the shear maps solutions to solutions up to a character, and the
    coefficient moduli of the sheared solve are the sheared moduli of the
    plain one.  On the lattice the shear wraps: it differs from the exact one
    only where row k's entries lie within m |k| of the eta edge.  The
    tolerance is measured first: that transverse tail, the largest modulus of
    the plain solution there relative to its largest modulus, plus 16 eps of
    rounding.  (Measured at amplitude 0.01: for m = 1 the tail is 9.8e-18 and
    the defect 4.1e-16; for m = 3 both are 5.2e-13; at yPoints = 32 or wider
    data the defect equals the tail, up to 2e-3.)
    """
    g = picard_grid()
    f = smooth_data(g)
    cutoff = CutoffSpec(T=0.05)
    plain = np.abs(picard_solve(f, cutoff, 8, P2).coeffs)
    tol = _shear_tail(plain, m, g) + 16 * np.finfo(float).eps
    sheared = picard_solve(SpectralField(g, shear(f.coeffs, m, g)), cutoff, 8, P2)
    defect = np.max(np.abs(np.abs(sheared.coeffs) - shear(plain, m, g))) / np.max(plain)
    return defect, tol


@pytest.mark.parametrize("m", [1, 3])
def test_picard_is_equivariant_under_the_galilean_shear(m):
    defect, tol = _picard_shear_defect(m)
    assert defect <= tol


def test_picard_shear_property_fails_for_a_quartic_transverse_phase(monkeypatch):
    # negative control: + |eta|^4 makes phi's transverse part not quadratic,
    # so no shear leaves the resonance function unchanged
    phi = fields.phi_grid
    monkeypatch.setattr(
        fields, "phi_grid", lambda grid, params: phi(grid, params) + grid.eta_sq_grid() ** 2
    )
    defect, tol = _picard_shear_defect(1)
    assert defect > 1e3 * tol


def _picard_scaling_defect(alpha, lam):
    """(defect, tolerance) of Picard under the anisotropic dilation, read through `at_time`.

    The solve of `dilate(f)`, whose tWindow and cutoff scale T go to
    1 / lam^(alpha+1) of the picard grid's, against the dilation of the plain
    solve, at every lattice t in [0, T] (the scaled solve at t /
    lam^(alpha+1)), relative to the largest coefficient, over the whole
    dilated (k, eta) lattice.  psi_1 is not rescaled, so the iterates map
    only where psi_1 = 1 on both lattices: on [0, T] for T < 1, since the
    prefix integral to t reads samples within one lattice step of [0, t].
    The tolerance is `_phase_rounding` over T.  (Measured: defects at most
    2.3e-16 for alpha in {2, 2.5, 3, 4}, lam in {2, 3}, at least 600 times
    under it.)
    """
    g = picard_grid()
    f = smooth_data(g)
    params, s, T = DispersionParams(alpha), lam ** (alpha + 1.0), 0.05
    plain = picard_solve(f, CutoffSpec(T=T), 8, params)
    scaled = picard_solve(dilate(f, lam, alpha), CutoffSpec(T=T / s), 8, params)
    defect = 0.0
    for n in range(int(round(T / g.dt)) + 1):
        want = dilate(plain.at_time(n * g.dt), lam, alpha).coeffs
        got = scaled.at_time(n * scaled.grid.dt).coeffs
        defect = max(defect, np.max(np.abs(got - want)) / np.max(np.abs(want)))
    return defect, _phase_rounding(g, params, T)


@pytest.mark.parametrize("lam", [2, 3])
@pytest.mark.parametrize("alpha", [2.0, 2.5, 3.0, 4.0])
def test_picard_is_equivariant_under_the_anisotropic_dilation(alpha, lam):
    defect, tol = _picard_scaling_defect(alpha, lam)
    assert defect <= tol


def test_picard_dilation_property_fails_for_a_phase_of_the_wrong_degree(monkeypatch):
    # negative control: + sign(k) |k|^2 is homogeneous of degree 2, not alpha + 1
    # (measured defect 7.5e-2 at alpha = 2, lam = 2)
    phi = fields.phi_grid
    monkeypatch.setattr(fields, "phi_grid", lambda grid, params: phi(grid, params) + (
        np.sign(grid.k_axis()) * grid.k_axis() ** 2.0).reshape((-1,) + (1,) * grid.yDims))
    defect, tol = _picard_scaling_defect(2.0, 2)
    assert defect > 1e3 * tol


def _phase_rounding(g, params, T):
    # a solve's rounding allowance: the phase T phi is rounded to eps relative,
    # so allow four times T max|phi| eps (1.0e-13 on the evolve grids below at
    # alpha = 2)
    return 4 * T * float(np.max(np.abs(fields.phi_grid(g, params)))) * np.finfo(float).eps


def _evolve_shear_defect(m, y_points):
    """(defect, tolerance) of the ETDRK4 solve's shear equivariance, as for Picard above.

    The grid and data are `evolve`'s (kMax 8, yLength 16 pi, amplitude 1,
    width 0.8, T = 0.2, dt = 1e-3).  The tolerance is the transverse tail,
    `_shear_tail`, plus `_phase_rounding`.
    (Measured: at yPoints 128 the tail is 1.2e-18 (m = 1) and 5.3e-17
    (m = 3), the defect 1.2e-14 and 5.4e-14, the rounding of 200 steps; at
    yPoints 64, m = 3, the defect equals the tail, 2.7e-7.)
    """
    g = make_grid(8, y_points, 16 * math.pi)
    f = smooth_data(g, 1.0, 0.8)
    cfg = SolveConfig(dt=1e-3, T=0.2)
    plain = np.abs(evolve_nonlinear(f, cfg, P2).final.coeffs)
    tol = _shear_tail(plain, m, g) + _phase_rounding(g, P2, cfg.T)
    sheared = evolve_nonlinear(SpectralField(g, shear(f.coeffs, m, g)), cfg, P2).final
    defect = np.max(np.abs(np.abs(sheared.coeffs) - shear(plain, m, g))) / np.max(plain)
    return defect, tol


@pytest.mark.parametrize("m, y_points", [(1, 128), (3, 128), (3, 64)])
def test_evolve_is_equivariant_under_the_galilean_shear(m, y_points):
    defect, tol = _evolve_shear_defect(m, y_points)
    assert defect <= tol


def test_evolve_shear_property_fails_for_a_quartic_transverse_phase(monkeypatch):
    # negative control, as for Picard: + |eta|^4 (measured defect 3.6e-4)
    phi = fields.phi_grid
    monkeypatch.setattr(
        fields, "phi_grid", lambda grid, params: phi(grid, params) + grid.eta_sq_grid() ** 2
    )
    defect, tol = _evolve_shear_defect(1, 128)
    assert defect > 1e3 * tol


def _evolve_scaling_defect(alpha, lam):
    """(defect, tolerance) of the ETDRK4 solve under the anisotropic dilation.

    The solve of `dilate(f)` over T / lam^(alpha+1), in steps of dt /
    lam^(alpha+1), against the dilation of the plain solve, relative to the
    largest coefficient, over the whole dilated lattice (so off the
    multiples of lam too).  Both solves see the same dt phi and the same
    dealiased products, up to rounding, so the tolerance is
    `_phase_rounding` alone.  (Measured, on `evolve`'s grid at yPoints 64:
    defects 1.4e-16 to 4.7e-15 for alpha in {2, 2.5, 3, 4}, lam in {2, 3}.)
    """
    g = make_grid(8, 64, 16 * math.pi)
    f = smooth_data(g, 1.0, 0.8)
    params = DispersionParams(alpha)
    T, dt, s = 0.2, 1e-3, lam ** (alpha + 1.0)
    plain = evolve_nonlinear(f, SolveConfig(dt=dt, T=T), params).final
    scaled = evolve_nonlinear(dilate(f, lam, alpha), SolveConfig(dt=dt / s, T=T / s), params).final
    want = dilate(plain, lam, alpha).coeffs
    defect = np.max(np.abs(scaled.coeffs - want)) / np.max(np.abs(want))
    return defect, _phase_rounding(g, params, T)


@pytest.mark.parametrize("alpha", [2.0, 2.5, 3.0, 4.0])
@pytest.mark.parametrize("lam", [2, 3])
def test_evolve_is_equivariant_under_the_anisotropic_dilation(alpha, lam):
    defect, tol = _evolve_scaling_defect(alpha, lam)
    assert defect <= tol


def test_evolve_dilation_property_fails_for_a_phase_of_the_wrong_degree(monkeypatch):
    # negative control: + sign(k) |k|^2 is homogeneous of degree 2, not alpha + 1
    # (measured defect 1.0e-1 at alpha = 2, lam = 2)
    phi = fields.phi_grid
    monkeypatch.setattr(fields, "phi_grid", lambda grid, params: phi(grid, params) + (
        np.sign(grid.k_axis()) * grid.k_axis() ** 2.0).reshape((-1,) + (1,) * grid.yDims))
    defect, tol = _evolve_scaling_defect(2.0, 2)
    assert defect > 1e3 * tol
