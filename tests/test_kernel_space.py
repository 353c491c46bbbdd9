"""Kernel construction, norm statistics, and the idempotent projector."""

import functools

import numpy as np
import pytest

from temrecon import (
    CoefSeq,
    Generator,
    GridFunction,
    InputError,
    Kernel,
    MixedNormParams,
    ResolutionError,
    SplineFactor1D,
    VSignal,
    analysis_bound_check,
    apply_T,
    build_shift_invariant_kernel,
    dual_generator,
    generic_w_norm,
    kernel_slice,
    mixed_function_norm,
    reproducing_bound,
    reproducing_residual,
    window_for_grid,
)
from temrecon.generator import DualAxis
from temrecon import kernel_space
from temrecon.kernel_space import N_MODULUS_RADII, KappaTable
from temrecon.mixed_norm import Grid

from conftest import random_vsignal


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
    assert hat_kernel.scaled(0.0).w_norm() == 0.0
    w = hat_kernel.w_norm()
    assert hat_kernel.scaled(-2.0).w_norm() == pytest.approx(2.0 * w, rel=1e-14)
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
    """The all-pairs box modulus: |shift - base| over every offset pair."""
    if radius * resolution < N_MODULUS_RADII:
        base, R = per_k_table(factor, resolution, 0)
        return factor._box_modulus_w0_direct(base, R, radius, resolution)
    pad = int(np.floor(radius * resolution))
    field, R = per_k_table(factor, resolution, pad)
    offs = sorted({int(np.floor(radius * resolution * j / N_MODULUS_RADII))
                   for j in range(1, N_MODULUS_RADII + 1)} - {0})
    offsets = [0] + [o for off in offs for o in (off, -off)]
    nx = field.shape[0] - 2 * pad
    ns = field.shape[1] - 2 * pad
    base = field[pad: pad + nx, pad: pad + ns]
    mod = np.zeros_like(base)
    for o1 in offsets:
        for o2 in offsets:
            if o1 == 0 and o2 == 0:
                continue
            shifted = field[pad + o1: pad + o1 + nx, pad + o2: pad + o2 + ns]
            np.maximum(mod, np.abs(shifted - base), out=mod)
    return factor._w0_from_field(mod, resolution, R)


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
        field, R = per_k_table(factor, resolution, 0)
        w0 = factor._w0_from_field(field, resolution, R)
        assert factor.w0_norm(resolution) == w0
        for radius in (0.05, 0.3536, 0.53):
            assert factor.w0_and_box_modulus(radius, resolution)[0] == w0


@functools.cache
def modulus_reference(order, radius, resolution):
    return box_modulus_w0_reference(spline_factor(order), radius, resolution)


@pytest.mark.parametrize("order", [2, 3])
def test_box_modulus_matches_all_pairs_reference(order):
    # the separable running max/min must equal the 17 x 17 offset loop bit for bit
    factor = spline_factor(order)
    for resolution in (32, 64):
        for radius in (0.05, 0.2, 0.3, 0.3536, 0.53, 0.7, 1.0198):
            assert (factor.box_modulus_w0(radius, resolution)
                    == modulus_reference(order, radius, resolution))


@pytest.mark.parametrize("order", [2, 3])
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
                assert (factor.box_modulus_w0(radius, resolution)
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


def test_projector_biorthogonal_delta(hat_kernel, small_grid, small_window, hat_gen):
    k0 = (small_window.k1_first + 2, small_window.k2_first + 1)
    f = GridFunction.from_callable(
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
