"""B-spline generators, dual solves, amalgam norms, moduli of continuity."""

from dataclasses import replace

import numpy as np
import pytest

from temrecon import Generator, InputError, SingularGeneratorError, dual_generator
from temrecon.generator import (
    BIORTH_TOL,
    LeakMoments,
    _biorth_integrals_1d,
    amalgam_norm_1d,
    bspline_autocorr,
    bspline_eval,
    dual_coeffs_from_autocorr,
    spline_basis,
    spline_cell_integrals,
    spline_leaky_integrals,
    spline_sum,
    taylor_shift,
)

from conftest import (
    amalgam_norm_2d,
    dense_biorth_integrals,
    generator_info,
    knot_split_rule,
    modulus_1d,
    modulus_amalgam_1d,
    modulus_of_continuity,
    subpanel_rule,
)

SQRT3 = 1.7320508075688772
DECAY = 0.2679491924311228  # 2 - sqrt(3)


def test_hat_point_values():
    assert bspline_eval(2, 0.0) == 1.0
    assert bspline_eval(2, 1.0) == 0.0
    assert bspline_eval(2, -1.0) == 0.0
    assert bspline_eval(2, 0.5) == 0.5


def test_order_validation():
    with pytest.raises(InputError):
        bspline_eval(0, 0.0)
    with pytest.raises(InputError):
        Generator(1, 2)


def test_partition_of_unity_order4():
    rng = np.random.default_rng(0)
    xs = rng.uniform(-10, 10, 50)
    total = np.zeros_like(xs)
    for k in range(-13, 14):
        total += bspline_eval(4, xs - k)
    assert np.max(np.abs(total - 1.0)) <= 1e-12


def test_partition_residual_2d():
    gen = Generator(2, 3)
    rng = np.random.default_rng(1)
    pts = rng.uniform(-5, 5, (1000, 2))
    assert gen.partition_residual(pts[:, 0], pts[:, 1]) <= 1e-12


def test_autocorr_hat_closed_form():
    offs, vals = bspline_autocorr(2)
    assert list(offs) == [-1, 0, 1]
    assert np.allclose(vals, [1.0 / 6.0, 2.0 / 3.0, 1.0 / 6.0], atol=1e-15)


def test_amalgam_norms():
    assert amalgam_norm_1d(lambda x: 0.0 * np.asarray(x), -2, 2) == 0.0
    hat = lambda x: bspline_eval(2, x)
    assert amalgam_norm_1d(hat, -1, 1) == pytest.approx(2.0, abs=1e-12)
    a = -2.5
    scaled = amalgam_norm_1d(lambda x: a * hat(x), -1, 1)
    assert scaled == pytest.approx(abs(a) * 2.0, rel=1e-12)


def test_modulus_basics():
    hat = lambda x: bspline_eval(2, x)
    xs = np.linspace(-1.5, 1.5, 201)
    assert np.max(modulus_1d(hat, 0.0, xs)) == 0.0
    for delta in (0.01, 0.05, 0.1):
        # the hat is 1-Lipschitz
        assert np.max(modulus_1d(hat, delta, xs)) <= delta + 1e-14
    m1 = modulus_1d(hat, 0.05, xs)
    m2 = modulus_1d(hat, 0.1, xs)
    assert np.all(m2 >= m1 - 1e-14)


def test_modulus_2d_zero_and_monotone():
    gen = Generator(2, 2)
    xs = np.linspace(-1.2, 1.2, 49)
    ys = np.linspace(-1.2, 1.2, 49)
    z = modulus_of_continuity(gen.eval, 0.0, xs, ys)
    assert np.max(z) == 0.0
    a = modulus_of_continuity(gen.eval, 0.05, xs, ys)
    b = modulus_of_continuity(gen.eval, 0.1, xs, ys)
    assert np.all(b >= a - 1e-14)


def test_modulus_amalgam_vanishes():
    gen = Generator(2, 2)
    norms = []
    for delta in (0.2, 0.1, 0.05, 0.025):
        def field(X, Y, d=delta):
            return modulus_of_continuity(gen.eval, d, X[:, 0], Y[0, :])

        norms.append(amalgam_norm_2d(field, (-1.3, 1.3, -1.3, 1.3), samples_per_unit=32))
    assert all(n2 < n1 for n1, n2 in zip(norms, norms[1:]))
    assert norms[-1] < 0.25 * norms[0]


def test_dual_identity_for_unit_gram():
    offs, b, tail = dual_coeffs_from_autocorr([0], [1.0])
    assert list(offs) == [0]
    assert b[0] == pytest.approx(1.0, abs=1e-14)
    assert tail <= 1e-10


def test_dual_hat_center_value_and_decay(hat_dual):
    ax = hat_dual.axis_t
    assert ax.b[ax.radius] == pytest.approx(SQRT3, abs=1e-12)
    mags = np.abs(ax.b)
    ratios = mags[ax.radius + 3:] / mags[ax.radius + 2: -1]
    assert np.all(ratios < 0.27)  # geometric decay beyond |k| = 2
    # b_k = sqrt(3) (sqrt(3) - 2)^|k| out to the truncation radius
    for k in range(ax.radius + 2, 2 * ax.radius):
        assert mags[k + 1] / mags[k] == pytest.approx(DECAY, rel=1e-6)
    # even symmetry
    assert np.allclose(ax.b, ax.b[::-1], atol=1e-15)


@pytest.mark.parametrize("order", [2, 3, 4, 5, 6])
def test_dual_against_dense_solve(order):
    # periodized Gram matrix inverted by a dense linear solve on a ring of 4 (K + 1)
    gen = Generator(order, order)
    dual = dual_generator(gen)
    ax = dual.axis_t
    L = 4 * (ax.radius + 1)
    offs, vals = bspline_autocorr(order)
    A = np.zeros((L, L))
    for i in range(L):
        for o, v in zip(offs, vals):
            A[i, (i + o) % L] += v
    e = np.zeros(L)
    e[0] = 1.0
    b_dense = np.linalg.solve(A, e)
    kept = b_dense[np.arange(-ax.radius, ax.radius + 1) % L]
    assert np.max(np.abs(kept - ax.b)) <= 1e-14 * np.max(np.abs(ax.b))
    # the dropped tail is within the bound, which the root nearest the circle
    # makes tight: the two agree to rounding (1e-13 relative)
    dropped = np.abs(b_dense[ax.radius + 1: L - ax.radius]).sum()
    assert dropped <= ax.tail_bound * (1.0 + 1e-12)
    assert dual.biorth_residual <= BIORTH_TOL


def test_biorthogonality_quadrature_oracle(hat_gen, hat_dual):
    # fine knot-aligned Simpson quadrature, independent of the solver internals
    from temrecon.mixed_norm import composite_weights

    n = 54 * 512
    xs = np.linspace(-27.0, 27.0, n + 1)
    w = composite_weights(n + 1, 54.0 / n)
    dual_vals = hat_dual.eval_t(xs) * w
    worst = 0.0
    for j in range(-4, 5):
        val = float(dual_vals @ bspline_eval(2, xs - j))
        worst = max(worst, abs(val - (1.0 if j == 0 else 0.0)))
    assert worst <= 1e-8
    assert hat_dual.biorth_residual <= 1e-8


@pytest.mark.parametrize("order", [2, 3, 4, 5, 6, 7, 8])
def test_banded_biorth_oracle_matches_dense_loop(order):
    # the band scatter sums the same products as the every-shift-at-every-node
    # loop, in another order: within 1e-14 of values of size 1, also for a
    # corrupted dual whose integrals are far from the identity
    axis = dual_generator(Generator(order, order)).axis_t
    bad_b = axis.b.copy()
    bad_b[axis.radius] += 1e-3
    for ax in (axis, replace(axis, b=bad_b)):
        js, vals = _biorth_integrals_1d(ax)
        js_ref, ref = dense_biorth_integrals(order, ax)
        assert np.array_equal(js, js_ref)
        assert np.max(np.abs(vals - ref)) <= 1e-14


def test_biorth_gate_passes_order_13_and_stops_order_14():
    assert dual_generator(Generator(13, 13)).biorth_residual <= BIORTH_TOL
    assert dual_generator(Generator(14, 14)).biorth_residual > BIORTH_TOL


def test_singular_gram_symbol_raises():
    # (1 + cos xi) / 2 vanishes at xi = pi
    with pytest.raises(SingularGeneratorError):
        dual_coeffs_from_autocorr([-1, 0, 1], [0.25, 0.5, 0.25])


def test_dual_amalgam_bound(hat_gen, hat_dual):
    lhs = hat_dual.amalgam_norm_t()
    rhs = hat_dual.axis_t.b_l1 * hat_gen.amalgam_norm_t()
    assert lhs <= rhs + 1e-6
    # 2-d version with the tensor convention
    assert hat_dual.amalgam_norm() <= hat_dual.b_l1 * hat_gen.amalgam_norm() + 1e-6


def test_generator_info(hat_gen, hat_dual):
    info = generator_info(hat_gen, hat_dual)
    assert 0.0 < info.m <= info.M < np.inf
    # hat symbol is (2 + cos)/3 per axis: extremes (1/3)^2 and 1
    assert info.m == pytest.approx(1.0 / 9.0, rel=1e-3)
    assert info.M == pytest.approx(1.0, rel=1e-3)


def test_modulus_amalgam_1d_hat():
    hat = lambda x: bspline_eval(2, x)
    small = modulus_amalgam_1d(hat, 0.05, -1, 1)
    big = modulus_amalgam_1d(hat, 0.1, -1, 1)
    assert 0.0 < small < big


def _knot_split_rule_loop(a, b):
    # the per-piece loop the vectorized rule replaced, kept as its referee
    gx, gw = np.polynomial.legendre.leggauss(4)
    n_pieces = int(np.ceil(np.max(b - a, initial=0.0) / 0.5)) + 1
    first = np.ceil((a + 1e-12) / 0.5) * 0.5
    edges = [a] + [np.clip(first + 0.5 * i, a, b) for i in range(n_pieces - 1)] + [b]
    nodes, weights = [], []
    for lo, hi in zip(edges[:-1], edges[1:]):
        half = 0.5 * (hi - lo)
        nodes.append(lo[:, None] + half[:, None] * (gx[None, :] + 1.0))
        weights.append(half[:, None] * gw[None, :])
    return np.concatenate(nodes, axis=1), np.concatenate(weights, axis=1)


def test_knot_split_rule_matches_piecewise_loop():
    rng = np.random.default_rng(0)
    for n in (0, 1, 7, 40):
        a = rng.uniform(-5.0, 40.0, n)
        a[: n // 3] = np.round(2.0 * a[: n // 3]) / 2.0          # starts on knots
        for length in (0.0, 1e-13, 0.07, 0.5, 1.3, 3.0):
            b = a + length * rng.uniform(0.0, 1.0, n)
            want, got = _knot_split_rule_loop(a, b), knot_split_rule(a, b)
            assert got[0].shape == want[0].shape
            assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


def _dual_axis(order):
    return dual_generator(Generator(order, order)).axis_t


def _dual_eval_loop(axis, x):
    # the per-shift loop `DualAxis.eval` replaced, kept as its referee
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    j_last = np.floor(x + axis.order / 2.0).astype(int)
    for l in range(axis.order):
        j = j_last - l
        idx = j - int(axis.offsets[0])
        valid = (idx >= 0) & (idx < axis.b.size)
        coef = np.where(valid, axis.b[np.clip(idx, 0, axis.b.size - 1)], 0.0)
        out += coef * bspline_eval(axis.order, x - j)
    return out


@pytest.mark.parametrize("order", [2, 3, 4, 5])
def test_dual_eval_matches_shift_loop(order):
    axis = _dual_axis(order)
    rng = np.random.default_rng(order)
    x1 = np.concatenate([rng.uniform(-25.0, 25.0, 500), np.arange(-25.0, 25.5, 0.5)])
    x2 = x1[:, None] - np.arange(-6, 7)[None, :]
    for x in (x1, x2, 0.5, -1.25):
        want, got = _dual_eval_loop(axis, x), axis.eval(x)
        assert np.shape(got) == np.shape(want) and np.all(got == want)


@pytest.mark.parametrize("order", [2, 3, 4, 5])
def test_antiderivative_rows_match_gauss_cells(order):
    # banded B-spline and dual cell integrals against the knot-split Gauss rule
    axis = _dual_axis(order)
    rng = np.random.default_rng(10 + order)
    a = rng.uniform(-15.0, 15.0, 120)
    a[:40] = np.round(2.0 * a[:40]) / 2.0                 # cells starting on knots
    b = a + rng.uniform(0.0, 2.0, a.size)
    ks = np.arange(-12, 13)
    nodes, w = knot_split_rule(a, b)
    x = nodes[:, :, None] - ks
    want_b = np.einsum("iq,iqk->ik", w, bspline_eval(order, x))
    want_d = np.einsum("iq,iqk->ik", w, axis.eval(x))
    got_b = spline_cell_integrals(order, a, b, ks)
    # the dual's cells: B-spline cells over every spline meeting them, times T
    ns = np.arange(-18 - order, 19 + order)
    got_d = spline_cell_integrals(order, a, b, ns) @ axis.toeplitz(ns, ks)
    assert np.max(np.abs(got_b - want_b)) <= 1e-13
    assert np.max(np.abs(got_d - want_d)) <= 1e-13


def test_spline_sum_reads_zero_left_and_total_right():
    # the total right of the table is 0: spline sums read 0 off it on both sides
    c = np.array([0.5, -2.0, 3.0])
    for order in (2, 3, 4):
        x = np.array([-7.3, -order / 2.0, c.size + order / 2.0, 40.25])
        got = spline_sum(spline_basis(order, x), [0], c)[:, 0]
        assert np.all(got == 0.0)


@pytest.mark.parametrize("order", [2, 4, 6])
def test_leak_moments_match_subpanel_gauss(order):
    # x = alpha h runs across every switch between the series (x < d) and
    # the forward recurrence (x >= d), and past the series range at 40
    rng = np.random.default_rng(30 + order)
    h = np.concatenate([[0.0, 1e-9], rng.uniform(0.0, 1.0, 60), [1.0]])
    for alpha in (0.0, 0.5, 4.0, 40.0):
        got = LeakMoments(alpha, order, alpha)(h)
        nodes, w = subpanel_rule(np.zeros_like(h), h)
        w = w * np.exp(alpha * (nodes - h[:, None]))
        want = np.stack([(w * nodes ** d).sum(axis=1) for d in range(order)], axis=1)
        assert np.all(np.abs(got - want) <= 1e-14 * want)
        assert np.all(got[0] == 0.0)
    exact = h[:, None] ** np.arange(1, order + 1) / np.arange(1, order + 1)
    assert np.max(np.abs(LeakMoments(0.0, order, 0.0)(h) - exact)) <= 1e-16


def test_taylor_shift_recenters_polynomials():
    rng = np.random.default_rng(5)
    c = rng.uniform(-1.0, 1.0, (40, 4))
    u = rng.uniform(0.0, 1.0, 40)
    w = rng.uniform(0.0, 1.0, 40)
    shifted = taylor_shift(c, u)
    want = np.polynomial.polynomial.polyval(u + w, c.T, tensor=False)
    got = np.polynomial.polynomial.polyval(w, shifted.T, tensor=False)
    assert np.max(np.abs(got - want)) <= 1e-14
    assert np.array_equal(taylor_shift(c, 0.0), c)


@pytest.mark.parametrize("alpha", [0.0, 0.5, 4.0, 40.0])
@pytest.mark.parametrize("order", [2, 3, 4])
def test_leaky_rows_match_subpanel_gauss(order, alpha):
    rng = np.random.default_rng(20 + order)
    a = rng.uniform(-10.0, 10.0, 150)
    a[:50] = np.round(2.0 * a[:50]) / 2.0                 # starting on knots
    length = rng.uniform(0.0, 0.25, a.size)                # one or two pieces
    length[100:] = rng.uniform(0.25, 2.5, 50)              # several pieces
    length[:5] = 0.0
    b = a + length
    k0, R = spline_leaky_integrals(order, a, b, alpha)
    assert R.shape[1] == order + int(np.ceil(length.max()))
    nodes, w = subpanel_rule(a, b)
    w = w * np.exp(alpha * (nodes - b[:, None]))
    # the band, and one spline past it on each side, whose integrals are 0
    ks = k0[:, None] + np.arange(-1, R.shape[1] + 1)
    want = np.einsum("iq,iqk->ik", w, bspline_eval(order, nodes[:, :, None] - ks[:, None, :]))
    assert np.max(np.abs(want[:, [0, -1]])) == 0.0
    want = want[:, 1:-1]
    scale = np.max(np.abs(want), axis=1, keepdims=True)
    assert np.all(np.abs(R - want) <= 1e-14 * scale)
    assert np.all(R[:5] == 0.0) and np.all(scale[5:] > 0.0)
