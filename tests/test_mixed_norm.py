"""Mixed-norm computations against independently coded quadrature oracles."""

import numpy as np
import pytest

from temrecon import Grid, GridMismatchError, InputError, MixedNormParams
from temrecon.mixed_norm import (
    CoefSeq,
    GridFunction,
    composite_weights,
    conjugate_exponent,
    duality_pairing,
    mixed_function_norm,
    mixed_sequence_norm,
)

from conftest import grid_function, reference_coefficients_csv

INF = np.inf
EXPONENTS = [1.0, 1.5, 2.0, 3.0, INF]


def unit_grid(n=32):
    return Grid.from_spacing(0.0, 1.0, 0.0, 1.0, 1.0 / n)


def test_conjugate_exponents_exact():
    assert conjugate_exponent(1.0) == INF
    assert conjugate_exponent(INF) == 1.0
    assert conjugate_exponent(2.0) == 2.0
    p = 1.5
    assert 1.0 / p + 1.0 / conjugate_exponent(p) == pytest.approx(1.0, abs=1e-15)


def test_params_validation():
    with pytest.raises(InputError):
        MixedNormParams(0.5, 2.0)
    with pytest.raises(InputError):
        MixedNormParams(2.0, -1.0)


def test_grid_interval_invariant():
    g = Grid.from_spacing(0.0, 32.0, 0.0, 4.0, 1.0 / 32.0)
    assert g.n_x * g.h_x == pytest.approx(g.x_max - g.x_min, abs=0)
    assert g.xs.size == g.n_x + 1
    with pytest.raises(InputError):
        Grid.from_spacing(0.0, 1.0, 0.0, 1.0, 0.3)


def test_constant_on_unit_square_is_one():
    grid = unit_grid()
    f = GridFunction(grid, np.ones(grid.shape))
    for p in EXPONENTS:
        for q in EXPONENTS:
            assert mixed_function_norm(f, MixedNormParams(p, q)) == pytest.approx(1.0, abs=1e-12)


def test_separable_factors():
    grid = unit_grid(64)
    gx = np.sin(2.0 * grid.xs) + 1.5
    hy = np.exp(-grid.ys)
    f = GridFunction(grid, np.outer(gx, hy))
    for p, q in [(1.0, 2.0), (2.0, 3.0), (3.0, 1.5), (INF, 2.0)]:
        wx, wy = grid.weights_x, grid.weights_y
        norm_g = np.max(np.abs(gx)) if p == INF else (np.abs(gx) ** p @ wx) ** (1.0 / p)
        norm_h = np.max(np.abs(hy)) if q == INF else (np.abs(hy) ** q @ wy) ** (1.0 / q)
        got = mixed_function_norm(f, MixedNormParams(p, q))
        assert got == pytest.approx(norm_g * norm_h, rel=1e-12)


def test_p2q2_matches_plain_l2_oracle():
    rng = np.random.default_rng(0)
    grid = unit_grid(64)
    vals = rng.standard_normal(grid.shape)
    f = GridFunction(grid, vals)
    # independent plain L2 quadrature
    oracle = np.sqrt(grid.weights_x @ vals**2 @ grid.weights_y)
    assert mixed_function_norm(f, MixedNormParams(2.0, 2.0)) == pytest.approx(oracle, abs=1e-12)


def test_pq_equal_matches_plain_lp_oracle():
    rng = np.random.default_rng(1)
    grid = unit_grid(32)
    vals = np.sin(3 * grid.xs)[:, None] * np.cos(2 * grid.ys)[None, :] + 0.1 * rng.standard_normal(grid.shape)
    f = GridFunction(grid, vals)
    for p in (1.0, 1.5, 3.0):
        oracle = (grid.weights_x @ np.abs(vals) ** p @ grid.weights_y) ** (1.0 / p)
        assert mixed_function_norm(f, MixedNormParams(p, p)) == pytest.approx(oracle, rel=1e-12)


def test_sequence_norm_delta_and_sup():
    c = CoefSeq(np.zeros((5, 5)), 0, 0)
    c.entries[2, 3] = 1.0
    for p in EXPONENTS:
        for q in EXPONENTS:
            assert mixed_sequence_norm(c, MixedNormParams(p, q)) == pytest.approx(1.0)
    rng = np.random.default_rng(2)
    c2 = CoefSeq(rng.standard_normal((4, 6)), -1, -2)
    assert mixed_sequence_norm(c2, MixedNormParams(INF, INF)) == pytest.approx(
        np.max(np.abs(c2.entries)))


def test_sequence_norm_against_two_stage_oracle():
    rng = np.random.default_rng(3)
    c = CoefSeq(rng.standard_normal((8, 8)), 0, 0)
    p, q = 3.0, 1.5
    inner = np.array([np.sum(np.abs(row) ** q) ** (1.0 / q) for row in c.entries])
    oracle = np.sum(inner**p) ** (1.0 / p)
    assert mixed_sequence_norm(c, MixedNormParams(p, q)) == pytest.approx(oracle, abs=1e-14)


def test_pairing_zero_and_symmetry():
    grid = unit_grid()
    bump = grid_function(
        grid, lambda x, y: np.exp(-20 * ((x - 0.5) ** 2 + (y - 0.5) ** 2)))
    zero = GridFunction(grid, np.zeros(grid.shape))
    assert duality_pairing(bump, zero) == 0.0
    sq = duality_pairing(bump, bump)
    oracle = grid.weights_x @ bump.values**2 @ grid.weights_y
    assert sq == pytest.approx(oracle, rel=1e-14)


def test_pairing_grid_mismatch():
    f = GridFunction(unit_grid(16), np.ones((17, 17)))
    g = GridFunction(unit_grid(32), np.ones((33, 33)))
    with pytest.raises(GridMismatchError):
        duality_pairing(f, g)


def test_hoelder_inequality_sweep():
    rng = np.random.default_rng(4)
    grid = unit_grid(16)
    for _ in range(200):
        f = GridFunction(grid, rng.standard_normal(grid.shape))
        g = GridFunction(grid, rng.standard_normal(grid.shape))
        p = rng.choice([1.0, 1.5, 2.0, 3.0, INF])
        q = rng.choice([1.0, 1.5, 2.0, 3.0, INF])
        pr = MixedNormParams(p, q)
        lhs = abs(duality_pairing(f, g))
        rhs = mixed_function_norm(f, pr) * mixed_function_norm(g, pr.conjugate())
        assert lhs <= rhs * (1.0 + 1e-9) + 1e-12


def test_minkowski_integral_inequality():
    # || int |f(., y)| dy ||_p <= int || f(., y) ||_p dy for nonnegative f
    rng = np.random.default_rng(5)
    grid = unit_grid(8)
    wy, wx = grid.weights_y, grid.weights_x
    for _ in range(20):
        vals = np.abs(rng.standard_normal(grid.shape))
        for p in (1.0, 1.5, 2.0, 3.0):
            lhs = ((vals @ wy) ** p @ wx) ** (1.0 / p)
            rhs = np.array([(vals[:, j] ** p @ wx) ** (1.0 / p) for j in range(vals.shape[1])]) @ wy
            assert lhs <= rhs * (1.0 + 1e-9)


def test_homogeneity_and_triangle():
    rng = np.random.default_rng(6)
    grid = unit_grid(16)
    for p in EXPONENTS:
        for q in EXPONENTS:
            pr = MixedNormParams(p, q)
            for _ in range(100):
                f = GridFunction(grid, rng.standard_normal(grid.shape))
                g = GridFunction(grid, rng.standard_normal(grid.shape))
                a = float(rng.uniform(-5, 5))
                nf = mixed_function_norm(f, pr)
                assert mixed_function_norm(f.scaled(a), pr) == pytest.approx(abs(a) * nf, rel=1e-13)
                assert (mixed_function_norm(f + g, pr)
                        <= nf + mixed_function_norm(g, pr) + 1e-11)


def test_rejects_bad_values():
    grid = unit_grid(4)
    bad = np.ones(grid.shape)
    bad[1, 1] = np.nan
    with pytest.raises(InputError):
        GridFunction(grid, bad)
    with pytest.raises(InputError):
        GridFunction(grid, np.ones((3, 3)))
    with pytest.raises(InputError):
        CoefSeq(np.zeros((0, 3)), 0, 0)


def test_simpson_fallback_to_trapezoid():
    w_odd = composite_weights(5, 0.5)
    assert np.allclose(w_odd, np.array([1, 4, 2, 4, 1]) * 0.5 / 3.0)
    w_even = composite_weights(4, 0.5)
    assert np.allclose(w_even, np.array([0.5, 1, 1, 0.5]) * 0.5)


@pytest.mark.parametrize("entries, k1_first, k2_first", [
    ([[-0.0, 1e-300, -2.5], [0.1, -1e-300, 3.0]], -1, 4),
    ([[-7.25e12]], 0, 0),
    ([[0.0], [-0.0], [-1.0 / 3.0]], 5, -3),
])
def test_coefficient_csv_matches_the_per_entry_writer(tmp_path, entries, k1_first, k2_first):
    # signed zeros, subnormal-edge and negative values, off-origin windows
    c = CoefSeq(np.array(entries), k1_first, k2_first)
    c.write_csv(tmp_path / "c.csv")
    assert (tmp_path / "c.csv").read_bytes() == reference_coefficients_csv(c)
    c.write_csv(tmp_path / "h.csv", header="a,b,v")
    assert (tmp_path / "h.csv").read_bytes() == reference_coefficients_csv(c, "a,b,v")
