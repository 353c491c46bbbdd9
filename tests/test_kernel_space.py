"""Kernel construction, norm statistics, and the idempotent projector."""

import functools

import numpy as np
import pytest

from temrecon import (
    Generator,
    InputError,
    MixedNormParams,
    ResolutionError,
    VSignal,
    build_shift_invariant_kernel,
    dual_generator,
    window_for_grid,
)
from temrecon import kernel_space
from temrecon.cli import ExperimentConfig, _encode
from temrecon.generator import DualAxis
from temrecon.kernel_space import (
    MODULUS_MIN_STEPS,
    KappaTable,
    Kernel,
    SplineFactor1D,
    _window_extreme,
    apply_T,
    reproducing_residual,
)
from temrecon.mixed_norm import (
    CoefSeq,
    Grid,
    GridFunction,
    composite_weights,
    mixed_function_norm,
)
from temrecon.reconstruct import ctem_operator

from conftest import (analysis_bound_check, box_modulus_w0_direct_reference, generic_w_norm, grid_function,
                      kernel_slice, random_vsignal, reproducing_bound)


def haar_factor():
    axis = DualAxis(order=1, offsets=np.array([0]), b=np.array([1.0]), tail_bound=0.0)
    return SplineFactor1D(1, axis)


@pytest.fixture(scope="module")
def haar_kernel():
    return Kernel(haar_factor(), haar_factor())


def test_symmetric_kernel_for_orthonormal_generator(haar_kernel):
    rng = np.random.default_rng(0)
    for _ in range(20):
        x, y, s, t = rng.uniform(-3, 3, 4)
        assert haar_kernel.eval(x, y, s, t) == pytest.approx(
            haar_kernel.eval(s, t, x, y), abs=1e-14)


def test_hat_kernel_at_integer_first_arguments(hat_kernel, hat_dual):
    rng = np.random.default_rng(1)
    for _ in range(20):
        k1, k2 = rng.integers(-2, 3, 2)
        s, t = rng.uniform(-2, 2, 2)
        want = hat_dual.eval_t(s - k1) * hat_dual.eval_s(t - k2)
        assert hat_kernel.eval(float(k1), float(k2), s, t) == pytest.approx(want, abs=1e-12)


def test_construction_refusals(hat_gen, hat_dual):
    from dataclasses import replace

    from temrecon.generator import DualGenerator

    bad = DualGenerator(hat_gen, hat_dual.axis_t, hat_dual.axis_s, 1e-6)
    with pytest.raises(InputError):
        build_shift_invariant_kernel(hat_gen, bad)
    leaky_axis = replace(hat_dual.axis_t, tail_bound=1e-8)
    bad_tail = DualGenerator(hat_gen, leaky_axis, hat_dual.axis_s, hat_dual.biorth_residual)
    with pytest.raises(InputError):
        build_shift_invariant_kernel(hat_gen, bad_tail)


def test_w_norm_zero_scaling_and_amalgam_bound(hat_kernel, hat_gen, hat_dual):
    w = hat_kernel.w_norm()
    assert w <= hat_gen.amalgam_norm() * hat_dual.amalgam_norm() + 1e-3


def test_generic_w_norm_matches_factored_path(haar_kernel):
    est = generic_w_norm(haar_kernel.eval, s_reach=1.0, resolution=8)
    fast = haar_kernel.w_norm(resolution=8)
    assert est == pytest.approx(fast, rel=1e-10)


def test_omega_table_strictly_decreasing(hat_kernel):
    vals = [hat_kernel.omega_w_norm(r) for r in (0.4, 0.2, 0.1, 0.05)]
    assert all(b < a for a, b in zip(vals, vals[1:]))
    assert hat_kernel.omega_w_norm(0.0) == 0.0


def per_k_table(factor, resolution, pad):
    """The statistics table by `eval_outer`: one dual evaluation per shift k."""
    R = int(np.ceil(factor.reach)) + 1
    h = 1.0 / resolution
    xs = np.arange(-pad, resolution + pad + 1) * h
    ss = np.arange(-R * resolution - pad, R * resolution + pad + 1) * h
    return factor.eval_outer(xs, ss), R


def box_modulus_w0_reference(factor, radius, resolution):
    """The box modulus by one pass per lattice offset and axis: running max
    and min over every row offset in [-p, p], then over every column offset."""
    if radius * resolution < MODULUS_MIN_STEPS:
        base, _ = per_k_table(factor, resolution, 0)
        return box_modulus_w0_direct_reference(factor, base, radius, resolution)
    pad = int(np.floor(radius * resolution))
    field, _ = per_k_table(factor, resolution, pad)
    nx = field.shape[0] - 2 * pad
    ns = field.shape[1] - 2 * pad
    rows_hi = field[pad: pad + nx].copy()
    rows_lo = rows_hi.copy()
    for o in range(-pad, pad + 1):
        np.maximum(rows_hi, field[pad + o: pad + o + nx], out=rows_hi)
        np.minimum(rows_lo, field[pad + o: pad + o + nx], out=rows_lo)
    base = field[pad: pad + nx, pad: pad + ns]
    hi = base.copy()
    lo = base.copy()
    for o in range(-pad, pad + 1):
        np.maximum(hi, rows_hi[:, pad + o: pad + o + ns], out=hi)
        np.minimum(lo, rows_lo[:, pad + o: pad + o + ns], out=lo)
    return factor._w0_from_field(np.maximum(hi - base, base - lo), resolution)


def modulus_fields(factor, radius, resolution, monkeypatch):
    """(|core|, box modulus) fields of `w0_and_box_modulus`, caught on their
    way to `_w0_from_field`."""
    fields = []
    w0_from_field = SplineFactor1D._w0_from_field

    def catch(field, res):
        fields.append(field.copy())
        return w0_from_field(field, res)

    with monkeypatch.context() as m:
        m.setattr(SplineFactor1D, "_w0_from_field", staticmethod(catch))
        factor.w0_and_box_modulus(radius, resolution)
    return fields


@functools.cache
def spline_factor(order):
    gen = Generator(order, order)
    return build_shift_invariant_kernel(gen, dual_generator(gen)).factor_t


@pytest.mark.parametrize("order", [2, 3, 4, 5])
def test_kappa_table_matches_per_k_referee(order):
    # one dual evaluation sliced per shift must equal a fresh one per shift
    factor = spline_factor(order)
    rng = np.random.default_rng(order)
    for resolution in (32, 64):
        for pad in (0, 22, 33, 64):
            ref, R = per_k_table(factor, resolution, pad)
            table = KappaTable(factor, resolution, pad)
            assert table.R == R and (table.n_rows, table.n_cols) == ref.shape
            assert np.array_equal(table.columns(0, table.n_cols), ref)
            c0 = int(rng.integers(0, table.n_cols - 300))
            assert np.array_equal(table.columns(c0, 300), ref[:, c0: c0 + 300])


@pytest.mark.parametrize("order", [2, 3, 4])
def test_w0_norm_reads_the_padded_core(order):
    # the W0 norm from the core of any padded table is the unpadded value
    factor = spline_factor(order)
    for resolution in (32, 64):
        field, _ = per_k_table(factor, resolution, 0)
        w0 = factor._w0_from_field(np.abs(field), resolution)
        for radius in (0.0, 0.05, 0.3536, 0.53):
            assert factor.w0_and_box_modulus(radius, resolution)[0] == w0


@pytest.mark.parametrize("order", [2, 3, 4, 5])
def test_omega_does_not_fall_as_the_radius_grows(order):
    # the lattice box only grows with the radius, across the switch from the
    # direct off-lattice modulus at MODULUS_MIN_STEPS / resolution too
    factor = spline_factor(order)
    for resolution in (32, 64):
        switch = MODULUS_MIN_STEPS / resolution
        radii = sorted({0.05, 0.4} | {switch * f for f in (0.9, 0.99, 1.0, 1.01, 1.1)})
        vals = [Kernel(factor, factor).omega_w_norm(r, resolution) for r in radii]
        assert all(a <= b for a, b in zip(vals, vals[1:])), (radii, vals)


def test_omega_is_independent_of_call_order():
    factor = spline_factor(3)
    fresh = {r: Kernel(factor, factor).omega_w_norm(r) for r in (0.1, 0.5)}
    kernel = Kernel(factor, factor)
    assert kernel.omega_w_norm(0.5) == fresh[0.5]
    assert kernel.omega_w_norm(0.1) == fresh[0.1]
    assert kernel.omega_w_norm(0.5) == fresh[0.5]


def test_w_norm_is_unchanged_by_omega_calls():
    factor = spline_factor(3)
    kernel = Kernel(factor, factor)
    w = kernel.w_norm()
    for radius in (0.5, 0.05, 0.0, 0.3536):
        kernel.omega_w_norm(radius)
        assert kernel.w_norm() == w
    asked_first = Kernel(factor, factor)
    asked_first.omega_w_norm(0.53)
    assert asked_first.w_norm() == w


MODULUS_RADII = (0.05, 0.2, 0.3, 0.3536, 0.53, 0.7, 1.0198)


@functools.cache
def modulus_reference(order, radius, resolution):
    return box_modulus_w0_reference(spline_factor(order), radius, resolution)


@pytest.mark.parametrize("order", [2, 3, 4])
def test_box_modulus_matches_all_pairs_reference(order):
    # the doubling window passes must equal one pass per offset bit for bit
    factor = spline_factor(order)
    for resolution in (32, 64):
        for radius in MODULUS_RADII:
            if radius * resolution >= MODULUS_MIN_STEPS:
                assert (factor.w0_and_box_modulus(radius, resolution)[1]
                        == modulus_reference(order, radius, resolution))


@pytest.mark.parametrize("order", [2, 3, 4, 5])
def test_direct_box_modulus_matches_one_eval_outer_per_offset(order):
    # off the lattice the offset fields are table products over one dual
    # evaluation per offset: the dual reads (n - k resolution) h + ds where
    # `eval_outer` reads (n h + ds) - k, so the norm may move by a few ulps
    factor = spline_factor(order)
    for resolution in (32, 64):
        switch = MODULUS_MIN_STEPS / resolution
        for radius in MODULUS_RADII + (0.99 * switch,):
            if radius < switch:
                want = modulus_reference(order, radius, resolution)
                assert factor.w0_and_box_modulus(radius, resolution)[1] == pytest.approx(want, rel=2e-15)


@pytest.mark.parametrize("order", [2, 3])
def test_box_modulus_is_the_sup_over_every_offset_pair(order, monkeypatch):
    # the separable sup equals the max of |shift - base| over the full
    # (2 p + 1)^2 offset product, field for field
    factor, resolution, radius = spline_factor(order), 32, 0.3
    pad = int(np.floor(radius * resolution))
    field, _ = per_k_table(factor, resolution, pad)
    nx = field.shape[0] - 2 * pad
    ns = field.shape[1] - 2 * pad
    base = field[pad: pad + nx, pad: pad + ns]
    want = np.zeros_like(base)
    for o1 in range(-pad, pad + 1):
        for o2 in range(-pad, pad + 1):
            shifted = field[pad + o1: pad + o1 + nx, pad + o2: pad + o2 + ns]
            np.maximum(want, np.abs(shifted - base), out=want)
    core, mod = modulus_fields(factor, radius, resolution, monkeypatch)
    assert np.array_equal(core, np.abs(base)) and np.array_equal(mod, want)


def test_window_extreme_matches_naive_sliding_extreme():
    rng = np.random.default_rng(12)
    x = rng.standard_normal(13 * 150)
    for stride in (1, 13):
        for span in range(1, 72):
            m = x.size - (span - 1) * stride
            for op in (np.maximum, np.minimum):
                want = x[:m].copy()
                for k in range(1, span):
                    op(want, x[k * stride: k * stride + m], out=want)
                assert np.array_equal(_window_extreme(op, x, span, stride), want)


def test_hat_box_modulus_dominates_off_lattice_shifts(hat_kernel, monkeypatch):
    # kappa of the hat is bilinear on each lattice square, so the lattice sup
    # bounds every shift in the box, on the lattice or off it
    factor = hat_kernel.factor_t
    resolution = 64
    h = 1.0 / resolution
    rng = np.random.default_rng(13)
    for radius in (0.3536, 0.559):
        box = int(np.floor(radius * resolution)) * h
        _, mod = modulus_fields(factor, radius, resolution, monkeypatch)
        half = (mod.shape[1] - 1) // 2
        i = rng.integers(0, mod.shape[0], 4000)
        n = rng.integers(0, mod.shape[1], 4000)
        du, dv = rng.uniform(-box, box, (2, 4000))
        x, s = i * h, (n - half) * h
        moved = np.abs(factor.eval_pairs(x + du, s + dv) - factor.eval_pairs(x, s))
        assert np.all(moved <= mod[i, n] + 1e-12)


def test_w0_column_fold_matches_per_slice_sums():
    # the fold of the column integrals, one strided 1-D sum per slice
    def reference(field, resolution):
        core = np.abs(field)
        w_s = composite_weights(core.shape[1], 1.0 / resolution)
        col_int = composite_weights(core.shape[0], 1.0 / resolution) @ core
        sup_col = max(float(np.sum(col_int[l::resolution])) for l in range(resolution))
        return max(float(np.max(core @ w_s)), sup_col)

    rng = np.random.default_rng(11)
    for resolution in (8, 32, 64):
        for n_cols in (2 * resolution + 1, 6 * resolution + 1, 7 * resolution,
                       11 * resolution + resolution - 1, 40 * resolution + 3):
            for _ in range(4):
                field = rng.standard_normal((resolution + 1, n_cols)) * rng.uniform(0.1, 100.0)
                assert SplineFactor1D._w0_from_field(np.abs(field), resolution) == reference(
                    field, resolution)


@pytest.mark.parametrize("order", [2, 3, 4])
def test_box_modulus_tiles_change_no_bit(order, monkeypatch):
    # a tile that divides the output width, one that leaves a partial last
    # tile (the width 2 R resolution + 1 is odd) and one wider than it
    factor = spline_factor(order)
    for resolution in (32, 64):
        ns = 2 * (int(np.ceil(factor.reach)) + 1) * resolution + 1
        divisor = next(d for d in range(16, ns + 1) if ns % d == 0)
        for tile in (divisor, 100, ns + 7):
            monkeypatch.setattr(kernel_space, "MODULUS_TILE", tile)
            for radius in (0.3536, 0.53):
                assert (factor.w0_and_box_modulus(radius, resolution)[1]
                        == modulus_reference(order, radius, resolution))


@pytest.mark.parametrize("orders", [(2, 2), (3, 3), (2, 3)])
def test_vsignal_norm_gram_matches_render(orders):
    gen = Generator(*orders)
    grid = Grid.from_spacing(0.0, 12.0, 0.0, 9.0, 1.0 / 32.0)
    window = window_for_grid(grid, gen)
    assert window.n1 != window.n2
    rng = np.random.default_rng(9)
    sig = random_vsignal(window, gen, grid, rng)
    pr = MixedNormParams(2.0, 2.0)
    assert sig.norm(grid, pr) == pytest.approx(
        mixed_function_norm(sig.render(grid), pr), rel=1e-13, abs=0.0)
    for p, q in [(1.0, np.inf), (2.0, np.inf), (3.0, 1.5)]:
        pr = MixedNormParams(p, q)
        assert sig.norm(grid, pr) == mixed_function_norm(sig.render(grid), pr)
    zero = VSignal(CoefSeq(np.zeros((window.n1, window.n2)), window.k1_first,
                           window.k2_first), gen)
    for p, q in [(2.0, 2.0), (1.0, np.inf)]:
        assert zero.norm(grid, MixedNormParams(p, q)) == 0.0


TILED_PQ = [(1.0, np.inf), (2.0, np.inf), (3.0, 1.5), (np.inf, 1.0), (np.inf, np.inf)]


@pytest.mark.parametrize("orders", [(2, 2), (3, 3), (4, 4)])
def test_tiled_norm_equals_render_on_desk_grid(orders):
    # 1025 grid rows: full tiles of NORM_TILE rows and a one-row remainder
    grid = ExperimentConfig().grid()
    assert grid.shape[0] % kernel_space.NORM_TILE != 0
    gen = Generator(*orders)
    window = window_for_grid(grid, gen)
    sig = random_vsignal(window, gen, grid, np.random.default_rng(10))
    for p, q in TILED_PQ:
        pr = MixedNormParams(p, q)
        assert sig.norm(grid, pr) == mixed_function_norm(sig.render(grid), pr)


def test_tiled_norm_equals_render_for_blind_updates():
    # blind mode monitors the norm of each Richardson update
    kernel, grid, window, devices, _, out = _encode(ExperimentConfig(), 3)
    op = ctem_operator(out, kernel, devices, window)
    C = np.zeros((window.n1, window.n2))
    for _ in range(2):
        dC = op.step(C)
        upd = VSignal(CoefSeq(dC, window.k1_first, window.k2_first), kernel.generator)
        for p, q in TILED_PQ:
            pr = MixedNormParams(p, q)
            assert upd.norm(grid, pr) == mixed_function_norm(upd.render(grid), pr)
        C += dC


def test_tiled_norm_raises_on_overflowing_render():
    # cubic weights sum to 1 only up to rounding, so coefficients at the
    # largest double overflow some rows of the render, here in a later tile
    grid = ExperimentConfig().grid()
    gen = Generator(4, 4)
    window = window_for_grid(grid, gen)
    C = np.zeros((window.n1, window.n2))
    C[-6:] = np.finfo(float).max
    sig = VSignal(CoefSeq(C, window.k1_first, window.k2_first), gen)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(InputError, match="non-finite"):
            sig.render(grid)
        for p, q in TILED_PQ:
            with pytest.raises(InputError, match="non-finite"):
                sig.norm(grid, MixedNormParams(p, q))


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_tiled_norm_raises_on_a_non_finite_tile(value, monkeypatch):
    # one grid row of the third tile reads NaN throughout, or overflows to
    # value at some points and stays finite at others: at q = inf max and
    # min carry NaN and either infinity into the row norm, as |.| and the
    # sums do at finite q
    grid = Grid.from_spacing(0.0, 12.0, 0.0, 9.0, 1.0 / 32.0)
    gen = Generator(2, 2)
    window = window_for_grid(grid, gen)
    rng = np.random.default_rng(11)
    B_t = rng.uniform(0.5, 1.0, (grid.shape[0], window.n1))
    B_s = rng.uniform(0.5, 1.0, (grid.shape[1], window.n2))
    C = rng.uniform(0.5, 1.0, (window.n1, window.n2))
    row = B_t[2 * kernel_space.NORM_TILE + 2]
    row[:] = 0.0
    row[0] = np.nan if np.isnan(value) else 1.0
    C[0, :2] = 1.5e308 * np.sign(value) if np.isinf(value) else 1.0
    monkeypatch.setattr(kernel_space, "synthesis_matrices", lambda *args: (B_t, B_s))
    sig = VSignal(CoefSeq(C, window.k1_first, window.k2_first), gen)
    with np.errstate(over="ignore"):
        tile = (row @ C) @ B_s.T
    assert np.all(np.isnan(tile)) if np.isnan(value) else 0 < np.sum(tile == value) < tile.size
    with np.errstate(over="ignore"):
        for p, q in TILED_PQ:
            with pytest.raises(InputError, match="non-finite"):
                sig.norm(grid, MixedNormParams(p, q))


def test_tiled_norm_of_a_finite_render_may_overflow_at_finite_q():
    # every render value is finite, but their powers overflow at q = 2 and
    # 1.5: the norm reads inf, as the render's does, and raises nothing
    grid = Grid.from_spacing(0.0, 12.0, 0.0, 9.0, 1.0 / 32.0)
    gen = Generator(2, 2)
    window = window_for_grid(grid, gen)
    sig = VSignal(CoefSeq(np.full((window.n1, window.n2), 1e200), window.k1_first,
                          window.k2_first), gen)
    render = sig.render(grid)
    with np.errstate(over="ignore"):
        for p, q in [(1.0, 2.0), (3.0, 1.5), (np.inf, 2.0)]:
            pr = MixedNormParams(p, q)
            assert sig.norm(grid, pr) == mixed_function_norm(render, pr) == np.inf


def test_projector_biorthogonal_delta(hat_kernel, small_grid, small_window, hat_gen):
    k0 = (small_window.k1_first + 2, small_window.k2_first + 1)
    f = grid_function(
        small_grid, lambda x, y: hat_gen.eval(x - k0[0], y - k0[1]))
    sig = apply_T(hat_kernel, f, window=small_window)
    want = np.zeros((small_window.n1, small_window.n2))
    want[2, 1] = 1.0
    assert np.max(np.abs(sig.coeffs.entries - want)) <= 1e-10


def test_projector_round_trip_and_idempotency(hat_kernel, small_grid, small_window, hat_gen):
    rng = np.random.default_rng(2)
    sig = random_vsignal(small_window, hat_gen, small_grid, rng)
    back = apply_T(hat_kernel, sig.render(small_grid), window=small_window)
    assert np.max(np.abs(back.coeffs.entries - sig.coeffs.entries)) <= 1e-8
    noise = GridFunction(small_grid, rng.standard_normal(small_grid.shape))
    t1 = apply_T(hat_kernel, noise, window=small_window)
    t2 = apply_T(hat_kernel, t1.render(small_grid), window=small_window)
    assert np.max(np.abs(t2.coeffs.entries - t1.coeffs.entries)) <= 1e-8


def test_projector_boundedness(hat_kernel, small_grid, small_window):
    rng = np.random.default_rng(3)
    pr = MixedNormParams(2.0, 2.0)
    W = hat_kernel.w_norm()
    for _ in range(20):
        noise = GridFunction(small_grid, rng.standard_normal(small_grid.shape))
        proj = apply_T(hat_kernel, noise, window=small_window)
        lhs = mixed_function_norm(proj.render(small_grid), pr)
        assert lhs <= W * mixed_function_norm(noise, pr) + 1e-6


def test_resolution_error_on_coarse_grid(hat_kernel):
    grid = Grid(0.0, 32.0, 0.0, 32.0, 96, 96)  # spacing 1/3: knots miss panels
    with pytest.raises(ResolutionError):
        apply_T(hat_kernel, GridFunction(grid, np.zeros(grid.shape)))


def test_reproducing_identity_residual(hat_kernel):
    rng = np.random.default_rng(4)
    probes = [tuple(rng.uniform(10, 22, 4)) for _ in range(20)]
    res = reproducing_residual(hat_kernel, probes)
    assert float(res.max()) <= 1e-6


def test_reproducing_bound_holds(hat_kernel, hat_gen, small_grid, small_window):
    rng = np.random.default_rng(5)
    pr = MixedNormParams(2.0, 2.0)
    for _ in range(10):
        sig = random_vsignal(small_window, hat_gen, small_grid, rng)
        nrm = mixed_function_norm(sig.render(small_grid), pr)
        for _ in range(5):
            x, y = rng.uniform(4, 8, 2)
            C = reproducing_bound(hat_kernel, x, y, pr, small_grid)
            assert abs(sig.eval_pairs([x], [y])[0]) <= C * nrm + 1e-12


def test_kernel_slice_in_space(hat_kernel, default_grid, default_window):
    # the slice's coefficient tail must fit the window: default scale needed
    pr = MixedNormParams(2.0, 2.0)
    sl = kernel_slice(hat_kernel, 16.3, 15.8, default_grid)
    assert np.isfinite(mixed_function_norm(sl, pr))
    back = apply_T(hat_kernel, sl, window=default_window)
    resid = np.max(np.abs(back.render(default_grid).values - sl.values))
    assert resid <= 1e-6


def test_analysis_bound(hat_kernel, small_grid, small_window, hat_gen):
    rng = np.random.default_rng(6)
    zero = GridFunction(small_grid, np.zeros(small_grid.shape))
    lhs, rhs = analysis_bound_check(zero, hat_kernel, MixedNormParams(2.0, 2.0),
                                    window=small_window)
    assert lhs == 0.0 and rhs == 0.0
    sig = random_vsignal(small_window, hat_gen, small_grid, rng)
    lhs, rhs = analysis_bound_check(sig.render(small_grid), hat_kernel,
                                    MixedNormParams(2.0, 2.0), window=small_window)
    assert lhs <= rhs
    for p, q in [(1.0, 2.0), (2.0, 1.0), (3.0, 1.5)]:
        for _ in range(5):
            noise = GridFunction(small_grid, rng.standard_normal(small_grid.shape))
            lhs, rhs = analysis_bound_check(noise, hat_kernel, MixedNormParams(p, q),
                                            window=small_window)
            assert lhs <= rhs


def test_vsignal_slice_and_eval_consistency(hat_gen, small_grid, small_window):
    rng = np.random.default_rng(7)
    sig = random_vsignal(small_window, hat_gen, small_grid, rng)
    y0 = 6.37
    xs = rng.uniform(3, 9, 50)
    direct = sig.eval_pairs(xs, np.full(50, y0))
    via_slice = sig.eval_slice(y0, xs)
    assert np.max(np.abs(direct - via_slice)) <= 1e-13
    rendered = sig.render(small_grid)
    i, j = 100, 200
    assert rendered.values[i, j] == pytest.approx(
        float(sig.eval_pairs([small_grid.xs[i]], [small_grid.ys[j]])[0]), abs=1e-13)


def test_vsignal_csv(tmp_path, hat_gen, small_grid, small_window):
    rng = np.random.default_rng(8)
    sig = random_vsignal(small_window, hat_gen, small_grid, rng)
    path = tmp_path / "sig.csv"
    sig.coeffs.write_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "k1,k2,c"
    assert len(lines) == 1 + small_window.n1 * small_window.n2
    k1, k2, c = lines[1].split(",")
    assert int(k1) == small_window.k1_first and int(k2) == small_window.k2_first
    assert float(c) == pytest.approx(sig.coeffs.entries[0, 0], rel=1e-15)
