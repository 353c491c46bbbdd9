"""Tensor-product B-spline generators, their duals, and amalgam norms.

The concrete generator family is the centered cardinal B-spline, tensored
over the time and space axes.  Orders >= 2 give continuous, compactly
supported generators that form a partition of unity and have a Gram symbol
bounded away from zero, so a dual generator with absolutely summable
expansion coefficients exists.  The dual solve writes the inverse filter of
the Gram sequence in closed form over the roots of its symbol and truncates
it where a proven bound on the geometric tail falls below `TRUNC_TOL`.

Amalgam ("sum of unit-cell suprema") norms are grid estimates at a
documented resolution: cell suprema are maxima over closed-cell sample
grids.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError, SingularGeneratorError

BIORTH_TOL = 1e-8
TAIL_TOL = 1e-10
TRUNC_TOL = 1e-14


# ---------------------------------------------------------------------------
# centered cardinal B-splines
# ---------------------------------------------------------------------------

def bspline_eval(order, x):
    """Centered cardinal B-spline of the given order, vectorized in x.

    Zero outside [-order/2, order/2]; order 1 is the unit indicator,
    order 2 the hat.  Evaluation runs the usual triangular recursion on
    the uniform knot ladder, O(order^2) array operations.
    """
    if int(order) != order or order < 1:
        raise InputError(f"B-spline order must be an integer >= 1, got {order!r}")
    order = int(order)
    x = np.asarray(x, dtype=float)
    if order == 1:
        return ((x >= -0.5) & (x < 0.5)).astype(float)
    if order == 2:
        return np.maximum(1.0 - np.abs(x), 0.0)  # identical to the recursion
    t = x + order / 2.0  # shift to the knot ladder 0..order
    vals = [((t - j >= 0.0) & (t - j < 1.0)).astype(float) for j in range(order)]
    for m in range(1, order):
        nxt = []
        for j in range(order - m):
            tj = t - j
            nxt.append((tj * vals[j] + (m + 1 - tj) * vals[j + 1]) / m)
        vals = nxt
    return vals[0]


def bspline_autocorr(order):
    """Integer-shift inner products a(j) = <beta, beta(.-j)>, j = -(order-1)..order-1.

    Closed form: the autocorrelation of a centered B-spline of order m is the
    centered B-spline of order 2m evaluated at the integers.
    """
    offsets = np.arange(-(order - 1), order)
    return offsets, bspline_eval(2 * order, offsets.astype(float))


def spline_basis(order, x):
    """(k0, V), V[i, l] = beta(x[i] - k0[i] - l), k0 = floor(x + order/2) - (order - 1):
    banded rows, as those of `spline_leaky_integrals`.

    The support is left-closed, so these are the only `order` shifts with
    beta(x - m) nonzero; they serve every integer shift of x (`spline_sum`).
    """
    x = np.asarray(x, dtype=float)
    k0 = np.floor(x + order / 2.0).astype(int) - (order - 1)
    return k0, np.stack([bspline_eval(order, x - (k0 + l)) for l in range(order)], axis=1)


def spline_sum(basis, ks, c):
    """S[i, j] = sum_m c(m) beta(x[i] - ks[j] - m) on `spline_basis(order, x)`,
    where c(m) reads the table c and is 0 off it."""
    k0, vals = basis
    table = np.concatenate([[0.0], c, [0.0]])
    shift = k0[:, None] - np.asarray(ks)[None, :] + 1
    out = np.zeros(shift.shape)
    for l in reversed(range(vals.shape[1])):
        out += table[np.clip(shift + l, 0, table.size - 1)] * vals[:, l, None]
    return out


def gauss_panel_rule(lo, hi, points_per_panel, panel=0.5):
    """Gauss--Legendre nodes/weights tiled over knot-aligned panels of [lo, hi].

    Panels of width 0.5 keep every knot of integer- and half-integer-knot
    splines on a panel boundary, so the rule is exact for the piecewise
    polynomials handled here once `points_per_panel` covers the degree.
    """
    lo = np.floor(lo / panel) * panel
    hi = np.ceil(hi / panel) * panel
    n_panels = int(round((hi - lo) / panel))
    gx, gw = np.polynomial.legendre.leggauss(points_per_panel)
    starts = lo + panel * np.arange(n_panels)
    nodes = (starts[:, None] + panel * (gx[None, :] + 1.0) / 2.0).ravel()
    weights = np.tile(gw * panel / 2.0, n_panels)
    return nodes, weights


def piece_polynomials(order):
    """Power-basis coefficients of the centered B-spline on its unit pieces.

    Row r, column d is the coefficient of u^d in beta(r - order/2 + u),
    0 <= u < 1.  It comes from the truncated-power form beta_n(x) =
    sum_i (-1)^i C(n, i) (x + n/2 - i)_+^(n-1) / (n-1)!, summed in exact
    integers, so each entry is rounded once.
    """
    n = int(order)
    Q = np.zeros((n, n))
    for r in range(n):
        for d in range(n):
            s = sum((-1) ** i * math.comb(n, i) * (r - i) ** (n - 1 - d)
                    for i in range(r + 1))
            Q[r, d] = math.comb(n - 1, d) * s / math.factorial(n - 1)
    return Q


def taylor_shift(c, u):
    """Coefficients of p(u + w) in w, given those of p(v) in v on the last axis.

    Repeated synthetic division, order^2 / 2 array operations; u
    broadcasts against c[..., 0].  Returns a new array.
    """
    c = np.array(c, dtype=float)
    n = c.shape[-1]
    for i in range(n - 1):
        for j in range(n - 2, i - 1, -1):
            c[..., j] += u * c[..., j + 1]
    return c


def _series_terms(x_max):
    """Length K of the moment series for x <= x_max: the first omitted term
    x^K / K! is at most 2^-56 and K >= 2 x_max, so the tail is at most 2^-55
    of the sum."""
    K, term = 0, 1.0
    while term > 2.0 ** -56 or K < 2.0 * x_max:
        K += 1
        term *= x_max / K
    return K


class LeakMoments:
    """M(h)[..., d] = int_0^h exp(-alpha (h - v)) v^d dv for d < order.

    Every leak-weighted integral of a piece polynomial sum_d c_d v^d, with
    v measured from the interval start, is sum_d c_d M_d(h).  With
    x = alpha h, the positive series
    M_d = exp(-x) h^(d+1) sum_k x^k / (k! (k + d + 1)) holds where x < d,
    and where x >= d the forward recurrence M_d = (h^d - d M_(d-1)) / alpha
    from M_0 = -expm1(-x) / alpha, which is stable there.  At alpha = 0 the
    series is its first term, h^(d+1) / (d+1).  `x_max` bounds alpha h over
    every call; it fixes the series length, so the series is one product
    of the powers of h with a fixed (powers, order) matrix, and an
    evaluation is a handful of array operations.
    """

    def __init__(self, alpha, order, x_max):
        self.alpha, self.order = float(alpha), int(order)
        # the series serves x < d <= order - 1 only; below x_max = 1 it
        # serves M_0 as well and no element needs the recurrence
        x_series = min(float(x_max), self.order - 1.0)
        self.recurrence = [d for d in range(1, self.order) if d <= x_max]
        exact_m0 = bool(self.recurrence) or x_max > x_series
        # powers of h / unit stay at most 1 over the series range, at any alpha
        self.unit = x_series / self.alpha if x_series > 0.0 else 1.0
        self.h_series = self.unit if exact_m0 else None
        K = _series_terms(x_series)
        # M_d = sum_k coef[k + d, d] (h / unit)^(k + d + 1)
        self.coef = np.zeros((K + self.order - 1, self.order))
        for d in range(self.order):
            for k in range(K):
                self.coef[k + d, d] = (x_series ** k * self.unit ** (d + 1)
                                       / (math.factorial(k) * (k + d + 1.0)))

    def __call__(self, h):
        h = np.asarray(h, dtype=float)
        hs = h if self.h_series is None else np.minimum(h, self.h_series)
        x = (hs / self.unit).ravel()
        # one row per power, so each product runs along the points
        powers = np.empty((self.coef.shape[0], x.size))
        powers[0] = x
        for k in range(1, powers.shape[0]):
            np.multiply(powers[k - 1], x, out=powers[k])
        M = (powers.T @ self.coef).reshape(h.shape + (self.order,))
        if self.alpha == 0.0:
            return M
        M *= np.exp(-self.alpha * hs)[..., None]
        if self.h_series is not None:
            x = self.alpha * h
            m = np.expm1(-x) / -self.alpha
            M[..., 0] = m
            for d in self.recurrence:
                m = np.where(x < d, M[..., d], (h ** d - d * m) / self.alpha)
                M[..., d] = m
        return M


def spline_leaky_integrals(order, a, b, alpha):
    """(k0, R): R[i, l] = int_a[i]^b[i] exp(-alpha (b[i] - u)) beta(u - k0[i] - l) du.

    Each interval is cut at the knots of the unit pieces it meets; on a
    piece every B-spline is one row of `piece_polynomials`, so each part is
    those rows, Taylor-shifted to the part's start, against the
    `LeakMoments` of the part, carried to b[i] by the leak.  An interval of
    length h meets at most order + ceil(h) B-splines, the columns of R.
    """
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    Q = piece_polynomials(order)
    first = np.floor(a + order / 2.0)          # the last spline at a (`spline_basis`)
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
        rows = taylor_shift(np.broadcast_to(Q, (a.size, order, order)), (lo - edge - p)[:, None])
        # spline first + p - l is row l of Q on this piece: column p + order - 1 - l
        R[:, p: p + order] += (rows * M[:, None, :]).sum(axis=2)[:, ::-1]
    return first.astype(int) - (order - 1), R


def band_columns(k0, vals, lo, n):
    """Columns k0[i] - lo + l of banded rows vals[i, l], clipped into [0, n),
    and the values with those of columns off [0, n) set to 0."""
    cols = k0[:, None] - lo + np.arange(vals.shape[1])
    return np.clip(cols, 0, n - 1), np.where((cols >= 0) & (cols < n), vals, 0.0)


def spline_cell_integrals(order, a, b, ks):
    """P[i, j] = int_a[i]^b[i] beta(u - ks[j]) du over the index range ks:
    the rows of `spline_leaky_integrals` at alpha = 0, placed on ks."""
    cols, R = band_columns(*spline_leaky_integrals(order, a, b, 0.0), ks[0], len(ks))
    flat = (np.arange(R.shape[0])[:, None] * len(ks) + cols).ravel()
    return np.bincount(flat, R.ravel(), minlength=R.shape[0] * len(ks)).reshape(-1, len(ks))


# ---------------------------------------------------------------------------
# amalgam norms (grid estimates)
# ---------------------------------------------------------------------------

def amalgam_norm_1d(f, lo, hi, samples_per_unit=64):
    """Sum over unit cells [k, k+1) of the cell supremum of |f|.

    Cell suprema are maxima over closed-cell grids with `samples_per_unit`
    subintervals, so the value is a deterministic lower estimate that is
    exact whenever |f| attains its cell maxima on the sample grid (true for
    piecewise-linear f with integer breakpoints).
    """
    k_lo = int(np.floor(lo))
    k_hi = int(np.ceil(hi))
    total = 0.0
    for k in range(k_lo, k_hi):
        cell = np.linspace(k, k + 1.0, samples_per_unit + 1)
        total += float(np.max(np.abs(f(cell))))
    return total


# ---------------------------------------------------------------------------
# generator and dual generator
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Generator:
    """Tensor product of centered cardinal B-splines, one order per axis.

    Orders must be >= 2 so the generator is continuous; it then lies in the
    amalgam space, is compactly supported, and its integer translates form a
    partition of unity.
    """

    order_t: int
    order_s: int

    def __post_init__(self):
        for name, o in (("order_t", self.order_t), ("order_s", self.order_s)):
            if int(o) != o or o < 2:
                raise InputError(f"{name} must be an integer >= 2, got {o!r}")

    @property
    def support_radius_t(self):
        return self.order_t / 2.0

    @property
    def support_radius_s(self):
        return self.order_s / 2.0

    def eval_t(self, x):
        return bspline_eval(self.order_t, x)

    def eval_s(self, y):
        return bspline_eval(self.order_s, y)

    def eval(self, x, y):
        return bspline_eval(self.order_t, x) * bspline_eval(self.order_s, y)

    def amalgam_norm_t(self, samples_per_unit=64):
        r = self.support_radius_t
        return amalgam_norm_1d(self.eval_t, -r, r, samples_per_unit)

    def amalgam_norm_s(self, samples_per_unit=64):
        r = self.support_radius_s
        return amalgam_norm_1d(self.eval_s, -r, r, samples_per_unit)

    def amalgam_norm(self, samples_per_unit=64):
        """2-d amalgam norm; exact product of the per-axis norms for tensor functions."""
        return self.amalgam_norm_t(samples_per_unit) * self.amalgam_norm_s(samples_per_unit)

    def partition_residual(self, x, y):
        """max |sum_k phi(x - k1, y - k2) - 1| over the given points."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        acc_t = np.zeros_like(x)
        for k in range(int(np.floor(x.min() - self.support_radius_t)),
                       int(np.ceil(x.max() + self.support_radius_t)) + 1):
            acc_t += self.eval_t(x - k)
        acc_s = np.zeros_like(y)
        for k in range(int(np.floor(y.min() - self.support_radius_s)),
                       int(np.ceil(y.max() + self.support_radius_s)) + 1):
            acc_s += self.eval_s(y - k)
        return float(np.max(np.abs(acc_t * acc_s - 1.0)))


@dataclass(frozen=True)
class DualAxis:
    """One axis of a dual generator: expansion coefficients b on integer offsets."""

    order: int
    offsets: np.ndarray
    b: np.ndarray
    tail_bound: float

    @property
    def radius(self):
        return int(self.offsets[-1])

    @property
    def reach(self):
        """Support radius of the dual function sum_j b(j) beta(. - j)."""
        return self.radius + self.order / 2.0

    @property
    def b_l1(self):
        return float(np.abs(self.b).sum())

    def eval(self, x):
        """dual(x) = sum_j b(j) beta(x - j) for any shape of x, by `spline_sum`."""
        x = np.asarray(x, dtype=float)
        basis = spline_basis(self.order, x.ravel())
        return spline_sum(basis, self.offsets[:1], self.b).reshape(x.shape)

    def toeplitz(self, ns, ks):
        """T[i, j] = b(ns[i] - ks[j]), 0 off the table: dual(. - k) is
        sum_n T[n, k] beta(. - n), so dual integrals are B-spline ones times T."""
        table = np.concatenate([[0.0], self.b, [0.0]])
        lag = np.subtract.outer(ns, ks) - self.offsets[0] + 1
        return table[np.clip(lag, 0, table.size - 1)]


def dual_coeffs_from_autocorr(a_offsets, a_values):
    """Inverse filter b (a * b = delta) of a symmetric Gram sequence a, in closed form.

    With n = max |offset|, P(z) = z^n a(z) has its 2n roots in pairs z, 1/z.
    Over the n roots z_i inside the unit disk, b_k = sum_i c_i z_i^|k| with
    c_i = z_i^(n-1) / P'(z_i) (Unser, Aldroubi and Eden, B-spline signal
    processing, IEEE TSP 1993); Newton steps on P polish the `np.roots`
    output.  b is kept out to the smallest radius K at which the bound
    sum_{|k|>K} |b_k| <= sum_i 2 |c_i| |z_i|^(K+1) / (1 - |z_i|) is below
    `TRUNC_TOL`, and that bound is returned as the tail bound.
    """
    a_offsets = np.asarray(a_offsets, dtype=int)
    a_values = np.asarray(a_values, dtype=float)
    xi = np.linspace(0.0, np.pi, 33)
    symbol_min = float(np.min(np.cos(np.outer(xi, a_offsets)) @ a_values))
    if symbol_min < 1e-8:
        raise SingularGeneratorError(
            f"Gram symbol lower bound {symbol_min:.3e} below 1e-08; generator is singular"
        )
    n = int(np.max(np.abs(a_offsets)))
    P = np.zeros(2 * n + 1)
    np.add.at(P, n - a_offsets, a_values)  # highest power first
    if n == 0:
        return np.array([0]), np.array([1.0 / P[0]]), 0.0
    dP = np.polyder(P)
    z = np.roots(P)
    z = z[np.argsort(np.abs(z))[:n]]
    for _ in range(3):
        z = z - np.polyval(P, z) / np.polyval(dP, z)
    c = z ** (n - 1) / np.polyval(dP, z)
    mag = np.abs(z)
    w = 2.0 * np.abs(c) / (1.0 - mag)
    # the bound is at most sum(w) max(mag)^(K+1), below TRUNC_TOL from K = k_max on
    k_max = max(int(np.ceil(np.log(TRUNC_TOL / w.sum()) / np.log(mag.max()))), 0)
    ks = np.arange(k_max + 1)
    tails = w @ mag[:, None] ** (ks + 1)
    radius = int(np.argmax(tails < TRUNC_TOL))
    half = np.real(c @ z[:, None] ** ks[: radius + 1])
    b = np.concatenate([half[:0:-1], half])
    return np.arange(-radius, radius + 1), b, float(tails[radius])


def _biorth_integrals_1d(axis):
    """Quadrature inner products <dual, beta(.-j)> for all relevant j.

    Gauss panels aligned to half-integer knots make the rule exact for the
    piecewise-polynomial integrand, giving an oracle independent of the
    root solve: it reads only dual values and B-spline values.  Each node
    meets the `order` shifts that `spline_basis` finds there, so the
    products are scattered into their shifts band by band.
    """
    order, reach = axis.order, axis.reach
    r = int(np.ceil(reach + order / 2.0))
    nodes, weights = gauss_panel_rule(-reach, reach, order + 1)
    dual_vals = axis.eval(nodes) * weights
    k0, vals = spline_basis(order, nodes)
    out = np.zeros(2 * r + 1)
    for l in reversed(range(order)):
        # vals[:, l] is beta(node - j) at j = k0 + l
        out += np.bincount(k0 + l + r, weights=dual_vals * vals[:, l], minlength=out.size)
    return np.arange(-r, r + 1), out


@dataclass(frozen=True)
class DualGenerator:
    """Dual generator as a separable expansion over shifts of the generator.

    dual(x, y) = sum_k b_t(k1) b_s(k2) phi(x - k1, y - k2); biorthogonality
    against integer shifts of the generator holds up to `biorth_residual`.
    """

    generator: Generator
    axis_t: DualAxis
    axis_s: DualAxis
    biorth_residual: float

    def eval_t(self, x):
        return self.axis_t.eval(x)

    def eval_s(self, y):
        return self.axis_s.eval(y)

    def eval(self, x, y):
        return self.axis_t.eval(x) * self.axis_s.eval(y)

    @property
    def tail_bound(self):
        return max(self.axis_t.tail_bound, self.axis_s.tail_bound)

    @property
    def b_l1(self):
        return self.axis_t.b_l1 * self.axis_s.b_l1

    def amalgam_norm_t(self, samples_per_unit=64):
        r = self.axis_t.reach
        return amalgam_norm_1d(self.eval_t, -r, r, samples_per_unit)

    def amalgam_norm_s(self, samples_per_unit=64):
        r = self.axis_s.reach
        return amalgam_norm_1d(self.eval_s, -r, r, samples_per_unit)

    def amalgam_norm(self, samples_per_unit=64):
        return self.amalgam_norm_t(samples_per_unit) * self.amalgam_norm_s(samples_per_unit)


def _solve_axis(order):
    return DualAxis(order, *dual_coeffs_from_autocorr(*bspline_autocorr(order)))


def dual_generator(gen):
    """Dual generator of a tensor B-spline generator.

    Per axis: exact autocorrelation, closed-form inverse filter, truncation.
    The reported biorthogonality residual comes from an independent
    panel-Gauss quadrature of <dual, phi(. - j)> over the joint support.
    """
    axis_t = _solve_axis(gen.order_t)
    axis_s = axis_t if gen.order_s == gen.order_t else _solve_axis(gen.order_s)
    return DualGenerator(gen, axis_t, axis_s, tensor_biorth_residual(axis_t, axis_s))


def tensor_biorth_residual(axis_t, axis_s):
    """Largest |<dual, phi(. - k)> - delta_k| over the integer shifts k of the
    tensor pair, from the per-axis quadratures `_biorth_integrals_1d` (one
    for an axis both sides share)."""
    _, it = _biorth_integrals_1d(axis_t)
    is_ = it if axis_s is axis_t else _biorth_integrals_1d(axis_s)[1]
    prod = np.outer(it, is_)
    target = np.zeros_like(prod)
    target[it.size // 2, is_.size // 2] = 1.0
    return float(np.max(np.abs(prod - target)))
