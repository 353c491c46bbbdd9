"""Reproducing kernel, its norm statistics, and the idempotent projector.

The concrete kernel is separable:

    K(x, y; s, t) = kappa_t(x, s) * kappa_s(y, t),
    kappa(u, v)   = sum_k beta(u - k) * dual_beta(v - k),

built from a tensor B-spline generator and its dual.  Separability makes
the nested sup/integral kernel norm factor exactly into per-axis norms,
reduces the projector to analysis/synthesis matrix products, and keeps
every quadrature one-dimensional.  Kernels are immutable after
construction.  Each norm-statistic call samples one table per distinct
factor and keeps nothing keyed by radius: the product of the factor W0
norms, the same from any table, is the one number a call leaves behind,
and `w_norm` reads it.

Norm conventions.  The W0 norm of a two-argument kernel is
max(sup_u int |k(u, v)| dv, sup_v int |k(u, v)| du); the full kernel norm
nests W0 over (y, t) inside W0 over (x, s).  Sups are grid maxima at a
documented resolution (samples per unit length), integrals composite
quadratures; doubling the resolution is the intended self-validation.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InputError, ResolutionError
from .generator import BIORTH_TOL, TAIL_TOL, bspline_eval
from .mixed_norm import CoefSeq, GridFunction, _axis_norm, composite_weights

DEFAULT_STATS_RESOLUTION = 64
# radii of fewer lattice steps than this take the direct off-grid box modulus
MODULUS_MIN_STEPS = 8
# output columns per tile of the box-modulus passes: at resolution 64 a tile
# and the arrays of its window passes take about 1 MB and stay in a 2 MB L2
MODULUS_TILE = 256
# grid rows per tile of the streamed render in `VSignal.norm`: a tile of the
# 1025-point desk grid is 1 MB, however many rows the grid has
NORM_TILE = 128


# ---------------------------------------------------------------------------
# one-dimensional kernel factors
# ---------------------------------------------------------------------------

class KappaTable:
    """kappa of one factor at x = i h, -pad <= i <= resolution + pad, and
    s = n h, |n| <= R resolution + pad, with h = 1 / resolution and
    R = ceil(reach) + 1, handed out one block of columns at a time.

    kappa(x_i, s) = sum_m B[i, m] dual(s - k_hi + m) with B[i, m] =
    beta(x_i - k_hi + m), over the shifts k_hi, k_hi - 1, ..., k_lo.  The
    dual is evaluated once, on the lattice n h widened by the range of the
    shifts; the dual row of shift k_hi - m is the window of that array at
    m resolution, so a block is one product B @ D with D a strided view.
    For a power-of-two resolution n h - k equals (n - k resolution) h
    exactly, so every block of two or more columns is `eval_outer` on the
    same points bit for bit (BLAS takes one column as a matrix-vector
    product, which may round differently).
    """

    def __init__(self, factor, resolution, pad_steps=0):
        self.R = int(np.ceil(factor.reach)) + 1
        self.resolution = resolution
        h = 1.0 / resolution
        xs = np.arange(-pad_steps, resolution + pad_steps + 1) * h
        n_first = -self.R * resolution - pad_steps
        self.n_rows = xs.size
        self.n_cols = 2 * (self.R * resolution + pad_steps) + 1
        self.ks = factor.shifts(xs)
        self.beta = bspline_eval(factor.order, xs[:, None] - self.ks)
        lattice = np.arange(n_first - self.ks[0] * resolution, n_first + self.n_cols - self.ks[-1] * resolution)
        self.points = lattice * h
        self.dual = factor.dual_axis.eval(self.points)

    def columns(self, c0, width, rows=slice(None)):
        """The `width` columns from column c0 of `rows`, as a new array."""
        return self.beta[rows] @ self.dual_rows(self.dual, c0, width)

    def dual_rows(self, dual, c0, width):
        """D of a block from `dual` sampled at `points`, a strided view."""
        windows = np.lib.stride_tricks.sliding_window_view(dual, width)
        return windows[c0: c0 + self.ks.size * self.resolution: self.resolution]


class SplineFactor1D:
    """kappa(u, v) = sum_k beta(u - k) dual_beta(v - k) for one axis.

    Invariant under the diagonal integer shift kappa(u + 1, v + 1) =
    kappa(u, v), which reduces every sup over the real line to one period.
    """

    def __init__(self, order, dual_axis):
        self.order = order
        self.dual_axis = dual_axis
        # |u - v| beyond this radius guarantees kappa = 0
        self.reach = order / 2.0 + dual_axis.reach

    def shifts(self, us):
        """Every shift k, descending, at which beta(u - k) can be nonzero for a u in `us`."""
        r = self.order / 2.0
        return np.arange(int(np.ceil(us.max() + r)), int(np.floor(us.min() - r)) - 1, -1)

    def eval_outer(self, us, vs):
        """Matrix kappa(us[i], vs[j]): the k-sum as one product, shifts as in `KappaTable`."""
        us = np.asarray(us, dtype=float)
        vs = np.asarray(vs, dtype=float)
        ks = self.shifts(us)
        return bspline_eval(self.order, us[:, None] - ks) @ self.dual_axis.eval(vs - ks[:, None])

    def eval_pairs(self, us, vs):
        """kappa at broadcast point arrays."""
        us, vs = np.broadcast_arrays(np.asarray(us, dtype=float), np.asarray(vs, dtype=float))
        out = np.zeros(us.shape)
        for k in self.shifts(us)[::-1]:
            out += bspline_eval(self.order, us - k) * self.dual_axis.eval(vs - k)
        return out

    # -- W0-norm machinery ---------------------------------------------------

    @staticmethod
    def _w0_from_field(core, resolution):
        """W0 norm of a diagonally shift-invariant field sampled as in `KappaTable`.

        `core` holds the absolute values of the field (the caller takes
        them, in place where it owns the array); rows cover x in [0, 1],
        columns s in [-R, R].  Row direction: sup over one period of the row
        integrals.  Column direction: integrals over the real line fold into
        sums of one-period integrals of shifted columns.
        """
        n_rows, n_cols = core.shape
        w_s = composite_weights(n_cols, 1.0 / resolution)
        sup_row = float(np.max(core @ w_s))

        w_x = composite_weights(n_rows, 1.0 / resolution)
        col_int = w_x @ core  # integral over x in [0, 1] per column
        # fold columns one unit apart: int_R |k(u, s*)| du = sum_m J(s* - m),
        # the sum of col_int[l::resolution] for each l < resolution.  Slices
        # l < extra hold m + 1 terms, the rest m; each slice becomes a
        # contiguous row, whose sum runs the same pairwise order as the
        # strided 1-D sum, so the fold is bit-identical to per-slice sums
        m, extra = divmod(n_cols, resolution)
        head = col_int[:m * resolution].reshape(m, resolution)
        folds = np.ascontiguousarray(head.T).sum(axis=1)
        if extra:
            longer = np.concatenate([head[:, :extra], col_int[None, m * resolution:]])
            folds[:extra] = np.ascontiguousarray(longer.T).sum(axis=1)
        return max(sup_row, float(folds.max()))

    def w0_and_box_modulus(self, radius, resolution=DEFAULT_STATS_RESOLUTION):
        """(W0 norm of kappa, W0 norm of its box modulus at `radius`) from one table.

        The box modulus at a sample (x, s) is the sup of |kappa(x + du, s + dv)
        - kappa(x, s)| over every lattice offset (du, dv) in [-p, p]^2 steps,
        with p = floor(radius * resolution), so shifted reads are array views
        and, for generators with grid-aligned breakpoints, the sampled field
        is exact at the nodes.  For the hat, kappa is bilinear on each lattice
        square, so this is the sup over the whole lattice box.  Radii of
        fewer than `MODULUS_MIN_STEPS` steps use exact off-grid evaluations
        at the box corners and axis extremes instead (correct to second
        order there).

        The table is padded by p; the W0 norm is taken first, from its core
        (one product over the core rows and columns), which equals the
        unpadded table bit for bit (the extra shifts k add nothing there),
        and the modulus field is then written over the core, so one
        core-sized array is all a call allocates beside its tiles.  The
        offset box is a product, so its sup splits by axis: the window max
        and min over 2 p + 1 rows, then over 2 p + 1 columns
        (`_window_extreme`, about log2(2 p + 1) passes each), and mod =
        max(hi - base, base - lo).  Rounded subtraction is monotone in each
        operand, so this equals the max of |shifted - base| over all offset
        pairs bit for bit.  The table is built and the passes run one tile
        of `MODULUS_TILE` output columns at a time, on one flat contiguous
        array, so every pass is a flat array operation on data that stays
        in cache and the padded table is never whole in memory; max and min
        are exact, so neither the tiling nor the flat shifts change a bit.
        """
        if radius < 0:
            raise InputError("modulus radius must be nonnegative")
        on_grid = radius * resolution >= MODULUS_MIN_STEPS
        # off the lattice the pad only widens the shifts to those of x +- radius
        pad = int(np.floor(radius * resolution)) if on_grid else int(np.ceil(radius * resolution))
        table = KappaTable(self, resolution, pad)
        nx = table.n_rows - 2 * pad
        ns = table.n_cols - 2 * pad
        core = table.columns(pad, ns, slice(pad, pad + nx))
        if not on_grid and radius > 0:
            return (self._w0_from_field(np.abs(core), resolution),
                    self._box_modulus_w0_direct(table, core, radius))
        w0 = self._w0_from_field(np.abs(core, out=core), resolution)
        if radius == 0:
            return w0, 0.0
        span = 2 * pad + 1
        mod = core  # every column tile below overwrites its block
        for c0 in range(0, ns, MODULUS_TILE):
            w = min(MODULUS_TILE, ns - c0)
            width = w + 2 * pad
            n = nx * width - 2 * pad
            # the tile's output columns with their column offsets, flat: a
            # row offset is a shift by whole rows, a column offset a shift by
            # one, which stays inside its row for the kept columns; entry i
            # of the passes is the window whose center is base[i]
            tile = table.columns(c0, width).ravel()
            base = tile[pad * width + pad: pad * width + pad + n]
            hi, lo = (_window_extreme(op, _window_extreme(op, tile, span, width), span, 1)
                      for op in (np.maximum, np.minimum))
            hi -= base
            np.subtract(base, lo, out=lo)
            box = np.empty(nx * width)
            np.maximum(hi, lo, out=box[:n])
            mod[:, c0: c0 + w] = box.reshape(nx, width)[:, :w]
        return w0, self._w0_from_field(mod, resolution)

    def _box_modulus_w0_direct(self, table, base, radius):
        """W0 norm of the sup of |kappa(x + dx, s + ds) - base| over (dx, ds)
        in {-r, 0, r}^2 less the center, `base` the core of `table` (padded
        to the shifts of x +- r).  B-splines are evaluated once per dx, the
        dual once per ds on the table's lattice, so the fields of one ds are
        one product, dx blocks stacked, over strided windows of its dual; the
        sup is max(hi - base, base - lo) tile by tile, as on the lattice."""
        nx, ns = base.shape
        pad = (table.n_rows - nx) // 2
        xs = np.arange(nx) * (1.0 / table.resolution)
        B = np.stack([bspline_eval(self.order, (xs + dx)[:, None] - table.ks) for dx in (-radius, 0.0, radius)])
        fields = [((B[[0, 2]] if ds == 0.0 else B).reshape(-1, table.ks.size),
                   table.dual_rows(self.dual_axis.eval(table.points + ds) if ds else table.dual, pad, ns))
                  for ds in (-radius, 0.0, radius)]
        mod = np.empty_like(base)
        for c0 in range(0, ns, MODULUS_TILE):
            cols = slice(c0, c0 + MODULUS_TILE)
            tiles = [f for B_dx, D_ds in fields for f in np.split(B_dx @ D_ds[:, cols], len(B_dx) // nx)]
            hi, lo = tiles[0].copy(), tiles[0]
            for f in tiles[1:]:
                np.maximum(hi, f, out=hi)
                np.minimum(lo, f, out=lo)
            hi -= base[:, cols]
            np.subtract(base[:, cols], lo, out=lo)
            np.maximum(hi, lo, out=mod[:, cols])
        return self._w0_from_field(mod, table.resolution)


def _window_extreme(op, x, span, stride):
    """op (np.maximum or np.minimum) over x[i], x[i + stride], ...,
    x[i + (span - 1) stride] for every i < x.size - (span - 1) stride.

    Doubling: after a pass with shift `run` strides every entry holds the
    extreme of a window twice as long, and the last pass overlaps two
    windows to reach `span` exactly, so about log2(span) flat passes in
    all (the sparse-table form of van Herk 1992 and Gil & Werman 1993).
    """
    run = 1
    while run < span:
        s = min(run, span - run)
        x = op(x[:-s * stride], x[s * stride:])
        run += s
    return x


# ---------------------------------------------------------------------------
# separable kernels
# ---------------------------------------------------------------------------

class Kernel:
    """Separable kernel K(x, y; s, t) = kappa_t(x, s) * kappa_s(y, t).

    Holds no statistic keyed by radius: every `omega_w_norm` call samples
    each distinct factor once, and the kernel keeps only the product of the
    factor W0 norms per resolution, a by-product of that call which no
    radius changes.
    """

    def __init__(self, factor_t, factor_s, generator=None, dual=None):
        self.factor_t = factor_t
        self.factor_s = factor_s
        self.generator = generator
        self.dual = dual
        self._w_norm = {}  # resolution -> product of the factor W0 norms
        self._analysis = {}  # (grid, window key) -> apply_T's (W_t, W_s)
        self._resolved = set()  # (grid, window key) pairs that passed the check

    def eval(self, x, y, s, t):
        x, y, s, t = np.broadcast_arrays(*(np.atleast_1d(np.asarray(a, dtype=float))
                                           for a in (x, y, s, t)))
        out = self.factor_t.eval_pairs(x, s) * self.factor_s.eval_pairs(y, t)
        return float(out.ravel()[0]) if out.size == 1 else out

    def _factor_statistics(self, radius, resolution):
        """((k_t, mu_t), (k_s, mu_s)): each distinct factor's W0 norm and box
        modulus norm at `radius` from one table; records k_t * k_s."""
        t = self.factor_t.w0_and_box_modulus(radius, resolution)
        s = (t if self.factor_s is self.factor_t
             else self.factor_s.w0_and_box_modulus(radius, resolution))
        self._w_norm[resolution] = t[0] * s[0]
        return t, s

    def w_norm(self, resolution=DEFAULT_STATS_RESOLUTION):
        """Nested W0-over-W0 estimate; factors exactly for separable kernels.

        The W0 norm from the core of a padded table is the unpadded one bit
        for bit, so the product an `omega_w_norm` call recorded at this
        resolution is read as is; without one it comes from radius 0.
        """
        if resolution not in self._w_norm:
            self._factor_statistics(0.0, resolution)
        return self._w_norm[resolution]

    def omega_w_norm(self, radius, resolution=DEFAULT_STATS_RESOLUTION):
        """Estimate of the kernel-norm of the modulus of continuity at `radius`.

        Upper-bound route: the modulus of a product of axis factors is bounded
        by mu_t*|k_s| + |k_t|*mu_s + mu_t*mu_s with per-axis box moduli mu, and
        the kernel norm of each tensor term is the product of the factor W0
        norms.  Each call samples each distinct factor once, for both its
        modulus and its W0 norm, so the value depends on the arguments
        alone, never on earlier calls.  It does not fall as the radius grows
        because the lattice box of the modulus only grows.
        """
        (k_t, mu_t), (k_s, mu_s) = self._factor_statistics(radius, resolution)
        return mu_t * k_s + k_t * mu_s + mu_t * mu_s


def build_shift_invariant_kernel(gen, dual):
    """Kernel of the idempotent projector onto the shift-invariant space.

    Refuses construction when the dual is not trustworthy: biorthogonality
    residual above 1e-8 or coefficient tail bound above 1e-10.  When both
    axes share one dual axis (equal orders), they share one factor too, and
    the kernel computes its per-axis statistics once.
    """
    if dual.biorth_residual > BIORTH_TOL:
        raise InputError(
            f"dual biorthogonality residual {dual.biorth_residual:.3e} above {BIORTH_TOL:.0e}"
        )
    if dual.tail_bound > TAIL_TOL:
        raise InputError(f"dual tail bound {dual.tail_bound:.3e} above {TAIL_TOL:.0e}")
    factor_t = SplineFactor1D(gen.order_t, dual.axis_t)
    shared = dual.axis_s is dual.axis_t and gen.order_s == gen.order_t
    return Kernel(
        factor_t,
        factor_t if shared else SplineFactor1D(gen.order_s, dual.axis_s),
        generator=gen,
        dual=dual,
    )


# ---------------------------------------------------------------------------
# coefficient windows, signals in V, and the projector
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Window:
    """Inclusive coefficient index window, interior to the grid by a margin."""

    k1_first: int
    k1_last: int
    k2_first: int
    k2_last: int

    @property
    def n1(self):
        return self.k1_last - self.k1_first + 1

    @property
    def n2(self):
        return self.k2_last - self.k2_first + 1

    @property
    def k1s(self):
        return np.arange(self.k1_first, self.k1_last + 1)

    @property
    def k2s(self):
        return np.arange(self.k2_first, self.k2_last + 1)

    @property
    def key(self):
        return (self.k1_first, self.k1_last, self.k2_first, self.k2_last)


def window_for_grid(grid, gen, margin_extra=2):
    """Interior window keeping coefficients (support radius + margin) off the edges.

    The margin guarantees that every rendered signal with window coefficients
    is supported strictly inside the grid, so analysis integrals against the
    dual never truncate.
    """
    mt = int(np.ceil(gen.order_t / 2.0)) + margin_extra
    ms = int(np.ceil(gen.order_s / 2.0)) + margin_extra
    k1_first = int(np.ceil(grid.x_min)) + mt
    k1_last = int(np.floor(grid.x_max)) - mt
    k2_first = int(np.ceil(grid.y_min)) + ms
    k2_last = int(np.floor(grid.y_max)) - ms
    if k1_last < k1_first or k2_last < k2_first:
        raise InputError("grid too small for an interior coefficient window")
    return Window(k1_first, k1_last, k2_first, k2_last)


_SYNTHESIS_CACHE = {}


def synthesis_matrices(grid, gen, window):
    """Per-axis matrices B[i, k] = beta(grid point i - lattice point k)."""
    key = (grid, window.key, gen.order_t, gen.order_s)
    if key not in _SYNTHESIS_CACHE:
        B_t = bspline_eval(gen.order_t, grid.xs[:, None] - window.k1s[None, :])
        B_s = bspline_eval(gen.order_s, grid.ys[:, None] - window.k2s[None, :])
        _SYNTHESIS_CACHE[key] = (B_t, B_s)
    return _SYNTHESIS_CACHE[key]


_GRAM_CACHE = {}


def gram_matrices(grid, gen, window):
    """Per-axis Gram matrices G = B^T diag(w) B of the grid quadrature, cached.

    With the grid's own weights, sum(C * (G_t @ C @ G_s)) is the squared
    grid L2 norm of the signal with coefficients C, equal to the rendered
    quadrature up to rounding for every generator order.
    """
    key = (grid, window.key, gen.order_t, gen.order_s)
    if key not in _GRAM_CACHE:
        B_t, B_s = synthesis_matrices(grid, gen, window)
        _GRAM_CACHE[key] = (B_t.T @ (grid.weights_x[:, None] * B_t),
                            B_s.T @ (grid.weights_y[:, None] * B_s))
    return _GRAM_CACHE[key]


class VSignal:
    """Member of the shift-invariant signal space: coefficients plus generator."""

    def __init__(self, coeffs, generator):
        self.coeffs = coeffs
        self.generator = generator

    @classmethod
    def zeros(cls, window, generator):
        return cls(CoefSeq(np.zeros((window.n1, window.n2)), window.k1_first, window.k2_first), generator)

    @property
    def window(self):
        c = self.coeffs
        return Window(c.k1_first, c.k1_first + c.entries.shape[0] - 1,
                      c.k2_first, c.k2_first + c.entries.shape[1] - 1)

    def render(self, grid):
        B_t, B_s = synthesis_matrices(grid, self.generator, self.window)
        return GridFunction(grid, B_t @ self.coeffs.entries @ B_s.T)

    def norm(self, grid, params):
        """Mixed (p, q) grid norm of the signal, `mixed_function_norm` of its render.

        At p = q = 2 the quadrature is a quadratic form in the coefficients,
        read off the cached grid Gram matrices without rendering.  Any other
        (p, q) streams the render: with P = B_t C formed once, the rows
        P[rows] B_s^T of one tile of `NORM_TILE` grid rows at a time are
        checked finite and reduced to their inner q-norms (at q = inf
        max(max, -min), max |.| exactly, whose finiteness is the tile's),
        and the outer p-norm runs once over them.
        Each tile holds the same values as those rows of the whole render,
        and the reductions run along rows in the same order, so the result
        equals `mixed_function_norm(self.render(grid), params)` bit for bit
        without the grid ever being whole in memory.
        """
        if params.p == 2.0 and params.q == 2.0:
            G_t, G_s = gram_matrices(grid, self.generator, self.window)
            C = self.coeffs.entries
            return float(np.sqrt(max(0.0, np.sum(C * (G_t @ C @ G_s)))))
        B_t, B_s = synthesis_matrices(grid, self.generator, self.window)
        P = B_t @ self.coeffs.entries
        w_y = grid.weights_y
        inner = np.empty(P.shape[0])
        for r0 in range(0, P.shape[0], NORM_TILE):
            tile, rows = P[r0: r0 + NORM_TILE] @ B_s.T, slice(r0, r0 + NORM_TILE)
            if params.q == np.inf:      # NaN and either infinity carry through max and min
                inner[rows] = np.maximum(tile.max(axis=1), -tile.min(axis=1))
                finite = np.all(np.isfinite(inner[rows]))
            else:
                finite = np.all(np.isfinite(tile))
                inner[rows] = _axis_norm(np.abs(tile, out=tile), w_y, params.q)
            if not finite:
                raise InputError("grid function contains non-finite values")
        return float(_axis_norm(inner[None, :], grid.weights_x, params.p)[0])

    def eval_pairs(self, xs, ys):
        """Exact values f(xs[i], ys[i]) by direct spline synthesis."""
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        w = self.window
        V1 = bspline_eval(self.generator.order_t, xs[:, None] - w.k1s[None, :])
        V2 = bspline_eval(self.generator.order_s, ys[:, None] - w.k2s[None, :])
        return np.einsum("ik,kl,il->i", V1, self.coeffs.entries, V2)

    def eval_slice(self, y0, xs):
        """Values of the slice x -> f(x, y0) at xs."""
        w = self.window
        B = bspline_eval(self.generator.order_t, np.asarray(xs, dtype=float)[:, None] - w.k1s[None, :])
        return B @ (self.coeffs.entries @ bspline_eval(self.generator.order_s, float(y0) - w.k2s))

    def scaled(self, a):
        return VSignal(CoefSeq(a * self.coeffs.entries, self.coeffs.k1_first, self.coeffs.k2_first),
                       self.generator)

    def __sub__(self, other):
        if self.window.key != other.window.key:
            raise InputError("signal windows differ")
        return VSignal(CoefSeq(self.coeffs.entries - other.coeffs.entries,
                               self.coeffs.k1_first, self.coeffs.k2_first), self.generator)


def apply_T(kernel, f, window=None, self_check=True):
    """Idempotent projector onto the signal space, in analysis/synthesis form.

    Coefficients are grid inner products of f against dual shifts, W_t^T f W_s
    with W[i, k] = grid weight i * dual(grid point i - k) cached on the
    kernel.  With `self_check` the grid must first resolve biorthogonality
    of the basis pair (`_grid_resolution_check`), the condition for the
    projector to be idempotent on this grid; else `ResolutionError`.
    """
    if kernel.dual is None or kernel.generator is None:
        raise InputError("projector requires a generator-backed kernel")
    grid = f.grid
    if window is None:
        window = window_for_grid(grid, kernel.generator)
    if self_check:
        _grid_resolution_check(kernel, grid, window)
    key = (grid, window.key)
    if key not in kernel._analysis:
        dual = kernel.dual
        kernel._analysis[key] = (
            grid.weights_x[:, None] * dual.axis_t.eval(grid.xs[:, None] - window.k1s[None, :]),
            grid.weights_y[:, None] * dual.axis_s.eval(grid.ys[:, None] - window.k2s[None, :]))
    W_t, W_s = kernel._analysis[key]
    coefs = W_t.T @ f.values @ W_s
    return VSignal(CoefSeq(coefs, window.k1_first, window.k2_first), kernel.generator)


def _grid_resolution_check(kernel, grid, window, tol=1e-8):
    """Check that <phi(.-k0), dual(.-k)> computed on this grid is delta_{k,k0}.

    The integrand is supported on the generator cell around the central
    window index, so only that local slice of the grid enters.  Results are
    cached on the kernel, making the check free after the first call.
    """
    key = (grid, window.key)
    if key in kernel._resolved:
        return
    gen, dual = kernel.generator, kernel.dual
    k10 = (window.k1_first + window.k1_last) // 2
    k20 = (window.k2_first + window.k2_last) // 2

    def local_slice(points, center, radius, h):
        # start at an even index so local Simpson panels match the global
        # panel structure (keeps knot-aligned integrands exactly integrable)
        i0 = int(np.searchsorted(points, center - radius - h))
        i0 -= i0 % 2
        i1 = int(np.searchsorted(points, center + radius + h, side="right"))
        if (i1 - i0) % 2 == 0:
            i1 = min(i1 + 1, points.size)
        return points[i0:i1]

    xs = local_slice(grid.xs, k10, gen.order_t / 2.0, grid.h_x)
    ys = local_slice(grid.ys, k20, gen.order_s / 2.0, grid.h_y)
    wx = composite_weights(xs.size, grid.h_x)
    wy = composite_weights(ys.size, grid.h_y)
    bx = bspline_eval(gen.order_t, xs - k10) * wx
    by = bspline_eval(gen.order_s, ys - k20) * wy
    worst = 0.0
    for dk1 in (-1, 0, 1):
        for dk2 in (-1, 0, 1):
            val = float(bx @ np.outer(dual.axis_t.eval(xs - k10 - dk1),
                                      dual.axis_s.eval(ys - k20 - dk2)) @ by)
            target = 1.0 if (dk1 == 0 and dk2 == 0) else 0.0
            worst = max(worst, abs(val - target))
    if worst > tol:
        raise ResolutionError(
            f"grid quadrature breaks biorthogonality by {worst:.3e}; grid too coarse"
        )
    kernel._resolved.add(key)


def reproducing_residual(kernel, probes, spacing=1.0 / 32.0):
    """Residuals |int K(x,y;u,v) K(u,v;s,t) du dv - K(x,y;s,t)| at probe 4-tuples.

    Literal composite quadrature of the composed kernel over the joint
    support, anchored to integer panel boundaries.
    """
    out = []
    rt = kernel.factor_t.reach
    rs = kernel.factor_s.reach
    for (x, y, s, t) in probes:
        lo_u = np.floor(min(x, s) - rt)
        hi_u = np.ceil(max(x, s) + rt)
        lo_v = np.floor(min(y, t) - rs)
        hi_v = np.ceil(max(y, t) + rs)
        us = np.linspace(lo_u, hi_u, int(round((hi_u - lo_u) / spacing)) + 1)
        vs = np.linspace(lo_v, hi_v, int(round((hi_v - lo_v) / spacing)) + 1)
        wu = composite_weights(us.size, spacing)
        wv = composite_weights(vs.size, spacing)
        at = kernel.factor_t.eval_outer(np.array([x]), us)[0] * kernel.factor_t.eval_outer(us, np.array([s]))[:, 0]
        as_ = kernel.factor_s.eval_outer(np.array([y]), vs)[0] * kernel.factor_s.eval_outer(vs, np.array([t]))[:, 0]
        integral = float(wu @ np.outer(at, as_) @ wv)
        out.append(abs(integral - kernel.eval(x, y, s, t)))
    return np.array(out)
