"""Pre-reconstruction operators, contraction iterations, rate estimates."""

import numpy as np
import pytest

from temrecon import (
    DeviceSet,
    Generator,
    Grid,
    MixedNormParams,
    ResolutionError,
    TemConfig,
    VSignal,
    build_shift_invariant_kernel,
    ctem_iterate,
    dual_generator,
    encode_ctem_devices,
    encode_iftem_devices,
    iftem_iterate,
    window_for_grid,
)
from temrecon.cli import ExperimentConfig, run_experiment
from temrecon.kernel_space import Kernel, SplineFactor1D, apply_T
from temrecon.mixed_norm import GridFunction, mixed_function_norm
from temrecon.reconstruct import (
    apply_R,
    apply_S,
    ctem_operator,
    estimate_r1,
    estimate_r2,
    iftem_operator,
)
from temrecon.tem_encode import TemOutput

from conftest import knot_split_rule, random_vsignal

PR = MixedNormParams(2.0, 2.0)


def crossing_cfg(**kw):
    args = dict(c_bound=1.0, b_level=2.0, delta_target=0.25)
    args.update(kw)
    return TemConfig("crossing", **args)


def if_cfg(**kw):
    args = dict(c_bound=1.0, b_level=2.0, delta_target=0.25)
    args.update(kw)
    return TemConfig("integrate-and-fire", **args)


# ---------------------------------------------------------------------------
# quasi-interpolant S
# ---------------------------------------------------------------------------

def test_apply_s_constant_full_coverage(small_grid):
    dev = DeviceSet(np.array([6.0]), 12.0, (0.0, 12.0))
    cfg = crossing_cfg()
    c = 0.4
    times = np.arange(0.1, 12.0, 0.1)
    out = TemOutput(cfg, dev, 0.0, 12.0, [times], [np.full(times.size, c)])
    s = apply_S(out, dev, small_grid)
    assert np.max(np.abs(s.values - c)) == 0.0


def test_apply_s_zero(small_grid):
    dev = DeviceSet(np.array([6.0]), 12.0, (0.0, 12.0))
    out = TemOutput(crossing_cfg(), dev, 0.0, 12.0,
                    [np.arange(0.1, 12.0, 0.1)], [np.zeros(119)])
    assert np.max(np.abs(apply_S(out, dev, small_grid).values)) == 0.0


def test_apply_s_piecewise_constant_in_x(hat_gen, small_grid, small_window):
    rng = np.random.default_rng(0)
    sig = random_vsignal(small_window, hat_gen, small_grid, rng)
    dev = DeviceSet.uniform(0.0, 12.0, 1.0, 0.5)
    out = encode_ctem_devices(sig, dev, crossing_cfg(), (0.0, 12.0))
    s = apply_S(out, dev, small_grid)
    # at a fixed y between device boundaries, x-variation within one
    # inter-breakpoint run must vanish
    j = 1  # device at y = 1; column away from ball edges
    ycol = int(round(1.0 / small_grid.h_y))
    t = out.times[j]
    breaks = 0.5 * (t[:-1] + t[1:])
    col = s.values[:, ycol]
    idx = np.searchsorted(breaks, small_grid.xs, side="right")
    for seg in range(idx.max() + 1):
        seg_vals = col[idx == seg]
        if seg_vals.size > 1:
            assert np.max(seg_vals) - np.min(seg_vals) == 0.0


def test_apply_s_error_decreases_with_density(hat_gen, small_grid, small_window):
    rng = np.random.default_rng(1)
    for _ in range(5):
        sig = random_vsignal(small_window, hat_gen, small_grid, rng)
        f_grid = sig.render(small_grid)
        errs = []
        for delta, spacing in ((0.25, 1.0), (0.125, 0.5)):
            dev = DeviceSet.uniform(0.0, 12.0, spacing, spacing / 2.0)
            cfg = crossing_cfg(delta_target=delta)
            out = encode_ctem_devices(sig, dev, cfg, (0.0, 12.0))
            s = apply_S(out, dev, small_grid)
            errs.append(mixed_function_norm(f_grid - s, PR))
        assert errs[1] < errs[0]


def test_fixed_point_residual_vanishes(hat_kernel, hat_gen, small_grid, small_window):
    # when the iterate already equals the signal, the update is zero
    rng = np.random.default_rng(2)
    sig = random_vsignal(small_window, hat_gen, small_grid, rng)
    dev = DeviceSet.uniform(0.0, 12.0, 1.0, 0.5)
    out = encode_ctem_devices(sig, dev, crossing_cfg(), (0.0, 12.0))
    resid = [out.values[j] - sig.eval_slice(dev.positions[j], out.times[j])
             for j in range(len(dev))]
    assert max(np.max(np.abs(r)) for r in resid) <= 1e-10
    upd = apply_T(hat_kernel, apply_S(out, dev, small_grid, values_override=resid),
                  window=small_window)
    assert np.max(np.abs(upd.coeffs.entries)) <= 1e-10


def _crossing_case(gen, grid, window, silent_device=None, crowded=False):
    """A crossing encode on [0, 12]^2 with an iterate f_n and its residuals.

    `silent_device` loses its fires; `crowded` puts three fires within one
    grid step inside device 5's widest gap, so one nearest-fire cell is
    shorter than the grid step.
    """
    rng = np.random.default_rng(12)
    sig = random_vsignal(window, gen, grid, rng)
    f_n = random_vsignal(window, gen, grid, rng, sup=0.5)
    dev = DeviceSet.uniform(0.0, 12.0, 1.0, 0.5)
    out = encode_ctem_devices(sig, dev, crossing_cfg(), (0.0, 12.0))
    if silent_device is not None:
        out.times[silent_device] = np.zeros(0)
        out.values[silent_device] = np.zeros(0)
    if crowded:
        t, v = out.times[5], out.values[5]
        i = int(np.argmax(np.diff(t)))
        xs = grid.xs
        x = xs[np.searchsorted(xs, 0.5 * (t[i] + t[i + 1]))]
        extra = x + (xs[1] - xs[0]) * np.array([0.2, 0.45, 0.7])
        assert t[i] < extra[0] and extra[-1] < t[i + 1]
        out.times[5] = np.concatenate([t[: i + 1], extra, t[i + 1:]])
        out.values[5] = np.concatenate([v[: i + 1], [0.3, -0.4, 0.5], v[i + 1:]])
    resid = [out.values[j] - f_n.eval_slice(dev.positions[j], out.times[j])
             for j in range(len(dev))]
    return dev, out, f_n, resid


def _gauss_dual_integrals(axis, a, b, ks):
    """Integrals of dual(. - k) over [a[i], b[i]] by the knot-split Gauss rule."""
    nodes, w = knot_split_rule(a, b)
    return np.einsum("iq,iqk->ik", w, axis.eval(nodes[:, :, None] - ks))


@pytest.mark.parametrize("silent_device, crowded", [(None, False), (3, False), (None, True)],
                         ids=["None", "3", "crowded"])
def test_ctem_operator_step_matches_gauss_cells(hat_kernel, hat_gen, small_grid, small_window,
                                                silent_device, crowded):
    # one step M (y - A f_n) against M_j and the space factor built
    # independently: Gauss integrals of the dual over the nearest-fire cells
    # and over the pieces between ball ends, weights counted at the midpoints
    dev, out, f_n, resid = _crossing_case(hat_gen, small_grid, small_window,
                                          silent_device, crowded)
    dual, w = hat_kernel.dual, small_window
    cols = np.zeros((w.n1, len(dev)))
    for j, t in enumerate(out.times):
        if t.size:
            edges = np.concatenate([[0.0], 0.5 * (t[:-1] + t[1:]), [12.0]])
            cells = _gauss_dual_integrals(dual.axis_t, edges[:-1], edges[1:], w.k1s)
            cols[:, j] = cells.T @ resid[j]
    ends = np.unique(np.clip(np.concatenate([dev.positions - 0.5, dev.positions + 0.5]),
                             0.0, 12.0))
    pieces = _gauss_dual_integrals(dual.axis_s, ends[:-1], ends[1:], w.k2s)
    mids = 0.5 * (ends[:-1] + ends[1:])
    cover = np.abs(mids[None, :] - dev.positions[:, None]) <= 0.5
    want = cols @ ((cover / cover.sum(axis=0)) @ pieces)
    got = ctem_operator(out, hat_kernel, dev, small_window).step(f_n)
    assert np.max(np.abs(want)) > 0.1
    assert np.max(np.abs(got.coeffs.entries - want)) <= 1e-13


def test_ctem_operator_step_tends_to_grid_path(hat_kernel, hat_gen, small_grid, small_window):
    # T S applied to the rendered residual approaches the exact step as the
    # grid refines: its cells end at grid points, an O(h) error
    dev, out, f_n, resid = _crossing_case(hat_gen, small_grid, small_window)
    got = ctem_operator(out, hat_kernel, dev, small_window).step(f_n).coeffs.entries
    diffs = []
    for h in (1.0 / 16.0, 1.0 / 32.0, 1.0 / 64.0):
        grid = Grid.from_spacing(0.0, 12.0, 0.0, 12.0, h)
        want = apply_T(hat_kernel, apply_S(out, dev, grid, values_override=resid),
                       window=small_window)
        diffs.append(np.max(np.abs(want.coeffs.entries - got)))
    assert diffs[0] > diffs[1] > diffs[2]
    assert diffs[0] >= 5.0 * diffs[2]


def test_ctem_iterate_order3_converges(small_grid):
    gen = Generator(3, 3)
    kernel = build_shift_invariant_kernel(gen, dual_generator(gen))
    window = window_for_grid(small_grid, gen)
    sig = random_vsignal(window, gen, small_grid, np.random.default_rng(5))
    dev = DeviceSet.uniform(0.0, 12.0, 1.0, 0.5)
    out = encode_ctem_devices(sig, dev, crossing_cfg(), (0.0, 12.0))
    _, rep = ctem_iterate(out, kernel, dev, small_grid, f_true=sig, n_max=40, tol=1e-8)
    assert rep.converged and not rep.diverged
    assert rep.r_hat < 0.5


def test_apply_t_order3_unresolved_grid_raises(small_grid):
    # Simpson at grid 1/32 does not resolve order-3 biorthogonality
    gen = Generator(3, 3)
    kernel = build_shift_invariant_kernel(gen, dual_generator(gen))
    with pytest.raises(ResolutionError):
        apply_T(kernel, GridFunction(small_grid, np.zeros(small_grid.shape)))


# ---------------------------------------------------------------------------
# crossing iteration
# ---------------------------------------------------------------------------

def test_ctem_iterate_zero_signal(hat_kernel, hat_gen, small_grid, small_window):
    dev = DeviceSet.uniform(0.0, 12.0, 1.0, 0.5)
    zero = VSignal.zeros(small_window, hat_gen)
    out = encode_ctem_devices(zero, dev, crossing_cfg(), (0.0, 12.0))
    rec, rep = ctem_iterate(out, hat_kernel, dev, small_grid, f_true=zero, n_max=3)
    # crossing samples of the zero signal carry bisection-precision noise
    assert np.max(np.abs(rec.coeffs.entries)) <= 1e-10


def test_ctem_iterate_geometric_decay(hat_kernel, hat_gen, small_grid, small_window):
    rng = np.random.default_rng(3)
    sig = random_vsignal(small_window, hat_gen, small_grid, rng)
    dev = DeviceSet.uniform(0.0, 12.0, 1.0, 0.5)
    out = encode_ctem_devices(sig, dev, crossing_cfg(), (0.0, 12.0))
    rec, rep = ctem_iterate(out, hat_kernel, dev, small_grid, f_true=sig,
                            n_max=40, tol=1e-8)
    assert rep.converged and not rep.diverged
    assert all(r < 1.0 for r in rep.ratios)
    slope, r2 = rep.log_error_fit()
    assert slope < -0.1 and r2 >= 0.99
    # invariant: errors under the fitted geometric envelope
    for n, e in enumerate(rep.errors):
        assert e <= (rep.r_hat + 0.05) ** n * rep.errors[0] * (1 + 1e-9)


def test_ctem_blind_mode(hat_kernel, hat_gen, small_grid, small_window):
    rng = np.random.default_rng(4)
    sig = random_vsignal(small_window, hat_gen, small_grid, rng)
    dev = DeviceSet.uniform(0.0, 12.0, 1.0, 0.5)
    out = encode_ctem_devices(sig, dev, crossing_cfg(), (0.0, 12.0))
    rec, rep = ctem_iterate(out, hat_kernel, dev, small_grid, f_true=None,
                            n_max=40, tol=1e-8, window=small_window)
    assert rep.blind and rep.converged
    assert np.max(np.abs(rec.coeffs.entries - sig.coeffs.entries)) <= 1e-5


def test_reencoding_consistency(hat_kernel, hat_gen, small_grid, small_window):
    rng = np.random.default_rng(5)
    sig = random_vsignal(small_window, hat_gen, small_grid, rng)
    dev = DeviceSet.uniform(0.0, 12.0, 1.0, 0.5)
    cfg = crossing_cfg()
    out = encode_ctem_devices(sig, dev, cfg, (0.0, 12.0))
    rec, rep = ctem_iterate(out, hat_kernel, dev, small_grid, f_true=sig,
                            n_max=40, tol=1e-10)
    out2 = encode_ctem_devices(rec, dev, cfg, (0.0, 12.0))
    for j in range(len(dev)):
        assert out.times[j].size == out2.times[j].size
        assert np.max(np.abs(out.times[j] - out2.times[j])) <= 1e-6


def test_iteration_linearity(hat_kernel, hat_gen, small_grid, small_window):
    rng = np.random.default_rng(6)
    sig = random_vsignal(small_window, hat_gen, small_grid, rng)
    dev = DeviceSet.uniform(0.0, 12.0, 1.0, 0.5)
    out = encode_ctem_devices(sig, dev, crossing_cfg(), (0.0, 12.0))
    a = -0.6
    rec1, _ = ctem_iterate(out, hat_kernel, dev, small_grid, f_true=sig, n_max=6)
    # the encoding map is nonlinear, but the recovered values scale linearly
    scaled = TemOutput(out.config, out.devices, out.t_start, out.t_end, out.times,
                       [a * v for v in out.values])
    rec2, _ = ctem_iterate(scaled, hat_kernel, dev, small_grid, f_true=sig.scaled(a), n_max=6)
    assert np.max(np.abs(rec2.coeffs.entries - a * rec1.coeffs.entries)) <= 1e-10


# ---------------------------------------------------------------------------
# rate estimates
# ---------------------------------------------------------------------------

def test_estimate_r1_zero_and_monotone(hat_kernel):
    assert estimate_r1(hat_kernel, 0.0, 0.0) == 0.0
    vals = [estimate_r1(hat_kernel, d, d) for d in (0.05, 0.1, 0.2, 0.4)]
    assert all(a <= b for a, b in zip(vals, vals[1:]))
    assert estimate_r1(hat_kernel, 0.1, 0.2) <= estimate_r1(hat_kernel, 0.1, 0.4)


def test_estimate_r1_resolution_doubling_oracle(hat_kernel):
    r64 = hat_kernel.w_norm(64) * hat_kernel.omega_w_norm(float(np.hypot(0.1, 0.1)), 64)
    r128 = hat_kernel.w_norm(128) * hat_kernel.omega_w_norm(float(np.hypot(0.1, 0.1)), 128)
    assert abs(r64 - r128) <= 1e-3 * max(1.0, r64)


def test_shared_axis_factor_matches_separate_factors(hat_kernel, hat_gen, hat_dual):
    assert hat_kernel.factor_s is hat_kernel.factor_t
    separate = Kernel(SplineFactor1D(2, hat_dual.axis_t), SplineFactor1D(2, hat_dual.axis_s),
                      generator=hat_gen, dual=hat_dual)
    for radius in (0.01, float(np.hypot(0.25, 0.5))):
        assert separate.omega_w_norm(radius) == hat_kernel.omega_w_norm(radius)
    assert separate.w_norm() == hat_kernel.w_norm()


def test_estimate_r2_formula(hat_kernel):
    assert estimate_r2(hat_kernel, 0.0, 0.0, 0.0) == 0.0
    d, dp = 0.1, 0.2
    W = hat_kernel.w_norm()
    om = hat_kernel.omega_w_norm(float(np.hypot(d, dp)))
    want = W * om * (2.0 * W + om)
    assert estimate_r2(hat_kernel, d, dp, 0.0) == pytest.approx(want, rel=1e-12)
    # monotone in each argument
    assert estimate_r2(hat_kernel, d, dp, 0.5) >= estimate_r2(hat_kernel, d, dp, 0.0)
    assert estimate_r2(hat_kernel, 0.2, dp, 0.3) >= estimate_r2(hat_kernel, 0.1, dp, 0.3)
    assert estimate_r2(hat_kernel, d, 0.4, 0.3) >= estimate_r2(hat_kernel, d, 0.2, 0.3)


# ---------------------------------------------------------------------------
# integrate-and-fire synthesis and iteration
# ---------------------------------------------------------------------------

def test_apply_r_zero_and_single_fire(hat_kernel, hat_gen, small_grid, small_window):
    # a second device without fires must add nothing
    for positions in ([6.0], [6.0, 9.0]):
        dev = DeviceSet(np.array(positions), 6.0, (0.0, 12.0))
        cfg = if_cfg()
        t = np.array([5.9])
        silent = [np.zeros(0)] * (len(dev) - 1)
        out = TemOutput(cfg, dev, 5.7, 12.0, [t] + silent, [np.array([0.0])] + silent)
        zero = apply_R(out, hat_kernel, dev, small_window)
        assert np.max(np.abs(zero.coeffs.entries)) == 0.0
        I = 0.37
        out = TemOutput(cfg, dev, 5.7, 12.0, [t] + silent, [np.array([I])] + silent)
        sig = apply_R(out, hat_kernel, dev, small_window)
        # from a zero iterate one step is R applied to the recovered integrals
        step = iftem_operator(out, hat_kernel, dev, small_window).step(
            VSignal.zeros(small_window, hat_gen))
        assert np.array_equal(step.coeffs.entries, sig.coeffs.entries)
        l1 = dev.u_l1_norms()[0]
        s_mid = 0.5 * (5.7 + 5.9)
        rng = np.random.default_rng(7)
        for _ in range(10):
            x, y = rng.uniform(5.0, 7.0, 2)
            want = I * l1 * hat_kernel.eval(x, y, s_mid, 6.0)
            got = float(sig.eval_pairs([x], [y])[0])
            assert got == pytest.approx(want, abs=1e-8)


def test_apply_r_boundedness(hat_kernel, hat_gen, small_grid, small_window):
    rng = np.random.default_rng(8)
    dev = DeviceSet.uniform(0.0, 12.0, 0.5, 0.5)
    cfg = if_cfg()
    radius = float(np.hypot(cfg.delta_target, dev.delta_prime))
    bound = (hat_kernel.w_norm() + hat_kernel.omega_w_norm(radius)) ** 2
    for _ in range(20):
        sig = random_vsignal(small_window, hat_gen, small_grid, rng)
        out = encode_iftem_devices(sig, dev, cfg, (0.0, 12.0))
        rf = apply_R(out, hat_kernel, dev, small_window)
        lhs = mixed_function_norm(rf.render(small_grid), PR)
        rhs = bound * mixed_function_norm(sig.render(small_grid), PR)
        assert lhs <= rhs


def test_iftem_iterate_zero(hat_kernel, hat_gen, small_grid, small_window):
    dev = DeviceSet.uniform(0.0, 12.0, 0.5, 0.5)
    zero = VSignal.zeros(small_window, hat_gen)
    out = encode_iftem_devices(zero, dev, if_cfg(), (0.0, 12.0))
    rec, _ = iftem_iterate(out, hat_kernel, dev, small_grid, f_true=zero, n_max=3)
    assert np.max(np.abs(rec.coeffs.entries)) <= 1e-14


def test_iftem_iterate_converges_alpha0(hat_kernel, hat_gen, small_grid, small_window):
    rng = np.random.default_rng(9)
    dev = DeviceSet.uniform(0.0, 12.0, 0.125, 0.5)
    for _ in range(5):
        sig = random_vsignal(small_window, hat_gen, small_grid, rng)
        out = encode_iftem_devices(sig, dev, if_cfg(alpha=0.0), (0.0, 12.0))
        rec, rep = iftem_iterate(out, hat_kernel, dev, small_grid, f_true=sig,
                                 n_max=30, tol=1e-8)
        assert rep.converged and rep.iterations <= 30
        assert all(r < 1.0 for r in rep.ratios)


def test_iftem_alpha_raises_measured_ratio(hat_kernel, hat_gen, small_grid, small_window):
    rng = np.random.default_rng(10)
    sig = random_vsignal(small_window, hat_gen, small_grid, rng)
    dev = DeviceSet.uniform(0.0, 12.0, 0.125, 0.5)
    theta = if_cfg(alpha=0.5).theta  # shared threshold isolates the leak term
    rhats = {}
    for alpha in (0.0, 0.5):
        cfg = if_cfg(alpha=alpha, theta=theta)
        out = encode_iftem_devices(sig, dev, cfg, (0.0, 12.0))
        _, rep = iftem_iterate(out, hat_kernel, dev, small_grid, f_true=sig,
                               n_max=40, tol=1e-8)
        rhats[alpha] = rep.r_hat
    assert rhats[0.5] > rhats[0.0]


@pytest.mark.parametrize("alpha", [0.5, 4.0, 40.0])
def test_iftem_floor_below_1e13_at_any_leak(tmp_path, alpha):
    # exact leak-weighted rows: the recovered integrals and the iterate's
    # fresh ones agree to rounding, so the error floor does not grow with
    # alpha (Gauss-4 rows stalled at 2e-12 at alpha 4 and 8e-10 at 40)
    cfg = ExperimentConfig(mode="integrate-and-fire", x_max=12.0, y_max=12.0, alpha=alpha,
                           tol=1e-13, n_max=60, seed=3)
    summary = run_experiment(cfg, tmp_path)
    assert summary["converged"] and not summary["diverged"]


def test_iftem_divergence_is_reported(hat_kernel, hat_gen, small_grid, small_window):
    # unit-spaced devices triple the alternating space mode: no contraction
    rng = np.random.default_rng(11)
    sig = random_vsignal(small_window, hat_gen, small_grid, rng)
    dev = DeviceSet.uniform(0.0, 12.0, 1.0, 0.5)
    out = encode_iftem_devices(sig, dev, if_cfg(alpha=0.0), (0.0, 12.0))
    rec, rep = iftem_iterate(out, hat_kernel, dev, small_grid, f_true=sig, n_max=25)
    assert rep.diverged and not rep.converged
