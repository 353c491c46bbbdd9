"""Session-scoped fixtures (the default hat stack is expensive enough to
share) and the test-only referees of the library's fast paths."""

from dataclasses import dataclass

import numpy as np
import pytest

from temrecon import (
    ContractionError,
    Generator,
    Grid,
    InputError,
    VSignal,
    build_shift_invariant_kernel,
    dual_generator,
    window_for_grid,
)
from temrecon.frames import measured_r0, neumann_coefficients
from temrecon.generator import (LeakMoments, amalgam_norm_1d, bspline_autocorr, bspline_eval,
                                piece_polynomials)
from temrecon.kernel_space import SplineFactor1D, apply_T
from temrecon.mixed_norm import CoefSeq, GridFunction, _axis_norm, mixed_function_norm, mixed_sequence_norm
from temrecon.reconstruct import iftem_operator


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


def leaky_integrals_reference(order, a, b, alpha):
    """`generator.spline_leaky_integrals` on (intervals, order, order)
    coefficients, a copy of the interval-minor rule that the interval-major
    one replaced: the referee its rows equal bit for bit below order 8."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    Q = piece_polynomials(order)
    first = np.floor(a + order / 2.0)
    edge = first - order / 2.0
    longest = float(np.max(b - a, initial=0.0))
    n_pieces = int(np.ceil(longest)) + 1
    moments = LeakMoments(alpha, order, alpha * min(longest, 1.0))
    R = np.zeros((a.size, n_pieces + order - 1))
    for p in range(n_pieces):
        lo = np.maximum(a, edge + p)
        hi = np.minimum(b, edge + p + 1.0)
        M = moments(np.maximum(hi - lo, 0.0))
        M *= np.exp(-alpha * (b - hi))[:, None]
        rows, u = np.array(np.broadcast_to(Q, (a.size, order, order))), (lo - edge - p)[:, None]
        for i in range(order - 1):      # Taylor shift along the last axis
            for j in range(order - 2, i - 1, -1):
                rows[..., j] += u * rows[..., j + 1]
        R[:, p: p + order] += (rows * M[:, None, :]).sum(axis=2)[:, ::-1]
    return first.astype(int) - (order - 1), R


def device_gaps(out, j):
    """Inter-fire gaps of device j of a TemOutput, with the lead-in from
    t_start and the stub to t_end."""
    return np.diff(out.times[j], prepend=out.t_start, append=out.t_end)


def fire_count(out):
    return int(sum(t.size for t in out.times))


def reference_events_csv(out):
    """events.csv bytes from one format template per device over the
    per-device lists: the referee for `TemOutput.write_events_csv`."""
    text = ["device_id,fire_index,time,recovered_value\n"]
    for j, (t, v) in enumerate(zip(out.times, out.values)):
        row = [j, 0, 0.0, 0.0] * t.size
        row[1::4], row[2::4] = range(t.size), list(t)
        row[3::4] = list(v)
        text.append("%d,%d,%.17g,%.17g\n" * t.size % tuple(row))
    return "".join(text).encode()


def reference_convergence_csv(report):
    """convergence.csv bytes from one f-string per row: the referee for
    `ReconstructionReport.write_convergence_csv`."""
    text = ["iter,error_lpq,ratio\n"]
    for n, e in enumerate(report.errors):
        ratio = report.ratios[n - 1] if 1 <= n <= len(report.ratios) else float("nan")
        r = f"{ratio:.17g}" if np.isfinite(ratio) else ""
        text.append(f"{n},{e:.17g},{r}\n")
    return "".join(text).encode()


def reference_coefficients_csv(c, header="k1,k2,c"):
    """reconstruction.csv bytes from one f-string per entry: the referee for
    `CoefSeq.write_csv`."""
    text = [header + "\n"]
    for i, k1 in enumerate(c.k1_range):
        for j, k2 in enumerate(c.k2_range):
            text.append(f"{k1},{k2},{c.entries[i, j]:.17g}\n")
    return "".join(text).encode()


def grid_function(grid, fun):
    """fun(x, y) sampled on every grid point, as a GridFunction."""
    return GridFunction(grid, np.asarray(fun(grid.xs[:, None], grid.ys[None, :]), dtype=float))


def family_lattices(family):
    """The (time, space) lattices that a frame family's atoms sit on."""
    return tuple(axis.lattice for axis in family._axes)


def axis_basis(axis, xs):
    """(B, Bd): the B-spline and its dual at points `xs` against the spline
    indices of one axis frame."""
    x = np.asarray(xs, dtype=float)[:, None] - axis.ks[None, :]
    return bspline_eval(axis.order, x), axis.dual_axis.eval(x)


def _family_bases(family):
    ax_t, ax_s = family._axes
    return axis_basis(ax_t, family.grid.xs) + axis_basis(ax_s, family.grid.ys)


def atom_values(family, l1_index, l2_index, N=None):
    """A frame family's synthesis atom at a lattice index pair, rendered on its grid."""
    ax_t, ax_s = family._axes
    N = family._order(N)
    B_t, _, B_s, _ = _family_bases(family)
    a_t = B_t @ (ax_t.t_plus(N) @ ax_t.Gd[l1_index])
    a_s = B_s @ (ax_s.t_plus(N) @ ax_s.Gd[l2_index])
    return family._synthesis_scale() * np.outer(a_t, a_s)


def dual_atom_values(family, l1_index, l2_index):
    """A frame family's dual atom at a lattice index pair, rendered on its grid."""
    ax_t, ax_s = family._axes
    p, q = family.params.p, family.params.q
    scale = family.delta ** (1.0 / p - 1.0) * family.delta ** (1.0 / q - 1.0)
    _, Bd_t, _, Bd_s = _family_bases(family)
    return scale * np.outer(Bd_t @ ax_t.G[l1_index], Bd_s @ ax_s.G[l2_index])


def frame_synthesize(family, coefficients, N=None):
    """Grid render of sum_lambda c_lambda * atom_lambda."""
    B_t, _, B_s, _ = _family_bases(family)
    return GridFunction(family.grid,
                        B_t @ family.synthesis_coefficients(coefficients, N) @ B_s.T)


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
    from temrecon.generator import gauss_panel_rule

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
            inner[i, j] = SplineFactor1D._w0_from_field(np.abs(field), resolution)
    return SplineFactor1D._w0_from_field(inner, resolution)


def box_modulus_w0_direct_reference(factor, base, radius, resolution):
    """The off-lattice box modulus by one `eval_outer` per offset: the sup
    of |kappa(x + dx, s + ds) - base| over (dx, ds) in {-r, 0, r}^2 less
    the center, on the unpadded statistics table `base`; the referee for
    `SplineFactor1D._box_modulus_w0_direct`."""
    h = 1.0 / resolution
    half = (base.shape[1] - 1) // 2
    xs = np.arange(0, resolution + 1) * h
    ss = np.arange(-half, half + 1) * h
    mod = np.zeros_like(base)
    shifts = [(dx, ds) for dx in (-radius, 0.0, radius)
              for ds in (-radius, 0.0, radius) if (dx, ds) != (0.0, 0.0)]
    for dx, ds in shifts:
        np.maximum(mod, np.abs(factor.eval_outer(xs + dx, ss + ds) - base), out=mod)
    return factor._w0_from_field(mod, resolution)


def reproducing_bound(kernel, x, y, params, grid):
    """Point-evaluation constant: mixed (p', q') norm of the kernel slice at (x, y).

    For separable kernels the mixed norm of the slice factors into per-axis
    L^{p'} and L^{q'} quadratures over the grid axes.
    """
    vt = np.abs(kernel.factor_t.eval_outer(np.array([float(x)]), grid.xs)[0])
    vs = np.abs(kernel.factor_s.eval_outer(np.array([float(y)]), grid.ys)[0])
    return float(_axis_norm(vt, grid.weights_x, params.p_conj)
                 * _axis_norm(vs, grid.weights_y, params.q_conj))


def analysis_bound_check(f, kernel, params, window=None):
    """Both sides of the analysis bound: (coef norm, function norm * dual amalgam norm)."""
    sig = apply_T(kernel, f, window=window, self_check=False)
    lhs = mixed_sequence_norm(sig.coeffs, params)
    rhs = mixed_function_norm(f, params) * kernel.dual.amalgam_norm()
    return lhs, rhs


def kernel_slice(kernel, s, t, grid):
    """K(., .; s, t) rendered on the grid (a member of the signal space)."""
    vt = kernel.factor_t.eval_outer(grid.xs, np.array([float(s)]))[:, 0]
    vs = kernel.factor_s.eval_outer(grid.ys, np.array([float(t)]))[:, 0]
    return GridFunction(grid, np.outer(vt, vs))


# ---------------------------------------------------------------------------
# grid and matrix references of the reconstruction and frame operators
# ---------------------------------------------------------------------------

def apply_S(out, devices, grid, values_override=None):
    """Crossing-sample quasi-interpolant rendered on the grid.

    Piecewise constant in time between midpoints of consecutive fires
    (nearest-fire assignment, with the leading and trailing stubs extended
    from the nearest available sample) and blended across space by the
    device partition of unity.  The grid reference for `ctem_operator`.
    """
    if out.config.mode != "crossing":
        raise InputError("apply_S requires crossing-mode output")
    U = devices.u_matrix(grid.ys)
    xs = grid.xs
    profiles = np.zeros((len(devices), xs.size))
    vals_src = values_override if values_override is not None else out.values
    for j in range(len(devices)):
        t = out.times[j]
        v = np.asarray(vals_src[j], dtype=float)
        if t.size == 0:
            continue
        breaks = 0.5 * (t[:-1] + t[1:])
        profiles[j] = v[np.searchsorted(breaks, xs, side="right")]
    return GridFunction(grid, profiles.T @ U)


def apply_R(out, kernel, devices, window):
    """Integrate-and-fire synthesis operator R applied to the recovered integrals.

    The M side of `iftem_operator`; kernel slices are members of the signal
    space, so R lands in it by construction.
    """
    op = iftem_operator(out, kernel, devices, window)
    return VSignal(CoefSeq(op.My @ op.space, window.k1_first, window.k2_first), kernel.generator)


def neumann_plus(kernel, kdelta, N, r0=None):
    """Truncated Neumann inverse sum_m gamma_m (A_t^m (x) A_s^m).

    Returns (gamma, powers_t, powers_s) with per-axis coefficient powers
    [I, A, ..., A^N].  Requires a measured contraction r0 < 1 (measured on
    the default window when not supplied); the truncation tail in operator
    norm is bounded by r0^(N+1) / (1 - r0).
    """
    ax_t, ax_s = kdelta.axis_frames
    if r0 is None:
        r0 = measured_r0(kernel, kdelta)
    if not (r0 < 1.0):
        raise ContractionError(f"measured contraction r0 = {r0:.6g} >= 1")
    return neumann_coefficients(N), ax_t.powers(N), ax_s.powers(N)


# ---------------------------------------------------------------------------
# grid estimates of the paper's amalgam norm, modulus of continuity and
# Gram-symbol bounds
# ---------------------------------------------------------------------------

def amalgam_norm_2d(f2, box, samples_per_unit=64):
    """Amalgam norm of a 2-d function over unit cells of the given box."""
    xlo, xhi, ylo, yhi = box
    total = 0.0
    for k1 in range(int(np.floor(xlo)), int(np.ceil(xhi))):
        xs = np.linspace(k1, k1 + 1.0, samples_per_unit + 1)
        for k2 in range(int(np.floor(ylo)), int(np.ceil(yhi))):
            ys = np.linspace(k2, k2 + 1.0, samples_per_unit + 1)
            total += float(np.max(np.abs(f2(xs[:, None], ys[None, :]))))
    return total


def _probe_radii(delta, n_radii):
    return delta * np.arange(1, n_radii + 1) / n_radii


def modulus_1d(f, delta, xs, n_radii=8):
    """Pointwise sup over |shift| <= delta of |f(x + shift) - f(x)| on `xs`."""
    if delta < 0:
        raise InputError("modulus radius must be nonnegative")
    xs = np.asarray(xs, dtype=float)
    base = f(xs)
    out = np.zeros_like(base)
    for r in _probe_radii(delta, n_radii):
        for s in (r, -r):
            np.maximum(out, np.abs(f(xs + s) - base), out=out)
    return out


def modulus_of_continuity(f2, delta, xs, ys, n_dirs=16, n_radii=8):
    """Grid-sampled modulus of continuity of a 2-d function.

    sup over shifts of Euclidean length <= delta of
    |f(x + x', y + y') - f(x, y)|, with the shift sup taken over
    `n_dirs` directions times `n_radii` radii.  Monotone non-decreasing
    in delta; identically zero at delta = 0.
    """
    if delta < 0:
        raise InputError("modulus radius must be nonnegative")
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    base = f2(xs[:, None], ys[None, :])
    out = np.zeros_like(base)
    angles = 2.0 * np.pi * np.arange(n_dirs) / n_dirs
    for r in _probe_radii(delta, n_radii):
        for a in angles:
            dx, dy = r * np.cos(a), r * np.sin(a)
            np.maximum(out, np.abs(f2(xs[:, None] + dx, ys[None, :] + dy) - base), out=out)
    return out


def modulus_amalgam_1d(f, delta, lo, hi, samples_per_unit=64, n_radii=8):
    """Amalgam norm of the 1-d modulus of continuity at radius delta."""
    return amalgam_norm_1d(
        lambda x: modulus_1d(f, delta, x, n_radii=n_radii),
        lo - delta,
        hi + delta,
        samples_per_unit=samples_per_unit,
    )




@dataclass(frozen=True)
class GeneratorInfo:
    """Gram-symbol bounds and amalgam statistics of a generator/dual pair."""

    m: float
    M: float
    amalgam_norm_phi: float
    amalgam_norm_dual: float

    def __post_init__(self):
        if not (0.0 < self.m <= self.M < np.inf):
            raise InputError("Gram-symbol bounds must satisfy 0 < m <= M < inf")


def generator_info(gen, dual, samples_per_unit=64, n_xi=2048):
    """Compute the 2-d Gram-symbol bounds and amalgam norms."""
    xi = np.linspace(0.0, 2.0 * np.pi, n_xi, endpoint=False)

    def symbol(order):
        offs, vals = bspline_autocorr(order)
        return sum(v * np.cos(o * xi) for o, v in zip(offs, vals))

    sym_t = symbol(gen.order_t)
    sym_s = symbol(gen.order_s)
    m = float(sym_t.min() * sym_s.min())
    M = float(sym_t.max() * sym_s.max())
    return GeneratorInfo(m, M, gen.amalgam_norm(samples_per_unit), dual.amalgam_norm(samples_per_unit))
