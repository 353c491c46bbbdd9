"""Session-scoped fixtures: the default hat stack is expensive enough to share."""

import numpy as np
import pytest

from temrecon import (
    Generator,
    Grid,
    VSignal,
    build_shift_invariant_kernel,
    dual_generator,
    window_for_grid,
)
from temrecon.kernel_space import SplineFactor1D
from temrecon.mixed_norm import CoefSeq, GridFunction


@pytest.fixture(scope="session")
def hat_gen():
    return Generator(2, 2)


@pytest.fixture(scope="session")
def hat_dual(hat_gen):
    return dual_generator(hat_gen)


@pytest.fixture(scope="session")
def hat_kernel(hat_gen, hat_dual):
    return build_shift_invariant_kernel(hat_gen, hat_dual)


@pytest.fixture(scope="session")
def default_grid():
    return Grid.from_spacing(0.0, 32.0, 0.0, 32.0, 1.0 / 32.0)


@pytest.fixture(scope="session")
def default_window(default_grid, hat_gen):
    return window_for_grid(default_grid, hat_gen)


@pytest.fixture(scope="session")
def small_grid():
    return Grid.from_spacing(0.0, 12.0, 0.0, 12.0, 1.0 / 32.0)


@pytest.fixture(scope="session")
def small_window(small_grid, hat_gen):
    return window_for_grid(small_grid, hat_gen)


_GAUSS_X, _GAUSS_W = np.polynomial.legendre.leggauss(4)


def _knot_cuts(a, b):
    """Ends of the pieces of [a[i], b[i]] between interior half-integer points,
    (n, pieces + 1); every row gets the piece count of the longest segment,
    ceil(max(b - a) / 0.5) + 1, padded with zero-length pieces."""
    n_pieces = int(np.ceil(np.max(b - a, initial=0.0) / 0.5)) + 1
    first = np.ceil((a + 1e-12) / 0.5) * 0.5
    inner = first[:, None] + 0.5 * np.arange(n_pieces - 1)
    inner = np.minimum(np.maximum(inner, a[:, None]), b[:, None])
    return np.concatenate([a[:, None], inner, b[:, None]], axis=1)


def knot_split_rule(a, b):
    """Gauss-4 nodes and weights, (n, 4 * pieces) each, for segments [a[i], b[i]].

    Each segment is split at its interior half-integer points, so spline
    breakpoints stay on piece boundaries and the rule is exact for spline
    slices through degree 7.  Every segment gets the piece count of the
    longest one, ceil(max(b - a) / 0.5) + 1; zero-length pieces pad the
    shorter segments, so everything stays a rectangular array.  A referee
    for the library's exact interval integrals.
    """
    edges = _knot_cuts(a, b)
    lo = edges[:, :-1, None]
    half = 0.5 * (edges[:, 1:, None] - lo)
    nodes = lo + half * (_GAUSS_X + 1.0)
    weights = half * _GAUSS_W
    width = 4 * (edges.shape[1] - 1)
    return nodes.reshape(a.size, width), weights.reshape(a.size, width)


def subpanel_rule(a, b, panels=64, points=8):
    """Gauss nodes and weights over [a[i], b[i]]: each knot-split piece cut
    into `panels` equal sub-panels of `points` Gauss--Legendre nodes.

    Exact for spline slices; the leak weight exp(alpha (u - b)) changes by
    at most a factor exp(alpha / 128) over a sub-panel, which the 8-point
    rule integrates to rounding for alpha up to 40.
    """
    cuts = _knot_cuts(a, b)
    sub = cuts[:, :-1, None] + np.diff(cuts, axis=1)[:, :, None] * np.linspace(0.0, 1.0, panels + 1)
    lo, half = sub[:, :, :-1, None], 0.5 * np.diff(sub, axis=2)[:, :, :, None]
    gx, gw = np.polynomial.legendre.leggauss(points)
    nodes = lo + half * (gx + 1.0)
    return nodes.reshape(a.size, -1), np.broadcast_to(half * gw, nodes.shape).reshape(a.size, -1)


def random_vsignal(window, gen, grid, rng, sup=0.8):
    coefs = rng.uniform(-1.0, 1.0, (window.n1, window.n2))
    sig = VSignal(CoefSeq(coefs, window.k1_first, window.k2_first), gen)
    peak = float(np.max(np.abs(sig.render(grid).values)))
    return sig.scaled(sup / peak)


def plain_integrator_oracle(fslice, cfg, horizon):
    """Non-leaky fire times of a piecewise-linear slice by exact quadratic solves.

    Independent of the encoder: marches knot intervals and solves the
    threshold equation of the biased running integral in closed form.
    """
    t0, t_end = horizon
    theta, bias = cfg.theta, cfg.b_level
    knots = np.arange(np.ceil(t0), t_end, 1.0)
    edges = np.unique(np.concatenate([[t0], knots, [t_end]]))
    times = []
    y = 0.0
    pos = t0
    for a, b_edge in zip(edges[:-1], edges[1:]):
        pos = max(pos, a)
        while pos < b_edge - 1e-15:
            fa = float(fslice(np.array([pos]))[0])
            fb = float(fslice(np.array([b_edge]))[0])
            slope = (fb - fa) / (b_edge - pos)
            cc = y - theta
            bb = fa + bias
            aa = 0.5 * slope
            if abs(aa) < 1e-14:
                root = -cc / bb
            else:
                disc = bb * bb - 4 * aa * cc
                root = (-bb + np.sqrt(disc)) / (2 * aa) if disc >= 0 else np.inf
                if root < 0:
                    root = (-bb - np.sqrt(disc)) / (2 * aa)
            t_star = pos + root
            if t_star <= b_edge + 1e-15:
                times.append(t_star)
                y = 0.0
                pos = t_star
            else:
                y += (fa + bias) * (b_edge - pos) + 0.5 * slope * (b_edge - pos) ** 2
                pos = b_edge
    return np.array(times)


def dense_biorth_integrals(order, axis):
    """<dual, beta(. - j)> with every shift evaluated at every quadrature node:
    the referee for the banded `generator._biorth_integrals_1d`."""
    from temrecon.generator import bspline_eval, gauss_panel_rule

    reach = axis.reach
    r = int(np.ceil(reach + order / 2.0))
    nodes, weights = gauss_panel_rule(-reach, reach, order + 1)
    dual_vals = axis.eval(nodes) * weights
    js = np.arange(-r, r + 1)
    return js, np.array([float(dual_vals @ bspline_eval(order, nodes - j)) for j in js])


def dense_cover_counts(devices, ys):
    """Devices within `delta_prime` of each point of `ys`, from the full
    (devices x points) distance array: the referee for the sorted sweep of
    `DeviceSet.cover_counts`."""
    ys = np.asarray(ys, dtype=float)
    reach = devices.delta_prime + devices._COVER_EPS
    return (np.abs(ys[None, :] - devices.positions[:, None]) <= reach).sum(axis=0)


def generic_w_norm(eval4, s_reach, resolution=8):
    """Literal nested kernel-norm estimate through the abstract evaluator.

    Assumes diagonal integer shift-invariance in each argument pair so sups
    reduce to one period; integrals run over [-R, R] with R = ceil(s_reach)+1.
    Quadratically more expensive than the separable fast path; the referee
    for that path on small kernels.
    """
    R = int(np.ceil(s_reach)) + 1
    h = 1.0 / resolution
    xs = np.arange(0, resolution + 1) * h
    ss = np.arange(-R * resolution, R * resolution + 1) * h
    inner = np.zeros((xs.size, ss.size))
    for i, x in enumerate(xs):
        for j, s in enumerate(ss):
            field = eval4(x, xs[:, None], s, ss[None, :])
            inner[i, j] = SplineFactor1D._w0_from_field(field, resolution)
    return SplineFactor1D._w0_from_field(inner, resolution)


def kernel_slice(kernel, s, t, grid):
    """K(., .; s, t) rendered on the grid (a member of the signal space)."""
    vt = kernel.factor_t.eval_outer(grid.xs, np.array([float(s)]))[:, 0]
    vs = kernel.factor_s.eval_outer(grid.ys, np.array([float(t)]))[:, 0]
    return GridFunction(grid, np.outer(vt, vs))
