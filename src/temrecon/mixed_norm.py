"""Mixed-norm machinery on uniform tensor grids and finite index windows.

Continuous objects live on a rectangle [x_min, x_max] x [y_min, y_max]
sampled on a uniform tensor grid; every integral is a composite quadrature
(Simpson when the point count is odd, trapezoid otherwise) with a fixed
left-to-right summation order.  All operations are pure functions of their
inputs, so results are deterministic and safe to compute concurrently.

The mixed norm with exponents (p, q) applies an inner q-norm along the
space axis (y) for each time row, then an outer p-norm along the time
axis (x).  Infinite exponents replace the quadrature sum by the grid
maximum, which estimates the essential supremum of a continuous function.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import GridMismatchError, InputError

INF = float("inf")


def conjugate_exponent(p):
    """Conjugate exponent p' with 1/p + 1/p' = 1 (1 and inf are swapped)."""
    if p == 1:
        return INF
    if p == INF:
        return 1.0
    return p / (p - 1.0)


@dataclass(frozen=True)
class MixedNormParams:
    """Exponent pair (p, q) in [1, inf] together with the exact conjugates."""

    p: float
    q: float

    def __post_init__(self):
        for name, e in (("p", self.p), ("q", self.q)):
            if not (e == INF or (math.isfinite(e) and e >= 1.0)):
                raise InputError(f"exponent {name}={e!r} must lie in [1, inf]")

    @property
    def p_conj(self):
        return conjugate_exponent(self.p)

    @property
    def q_conj(self):
        return conjugate_exponent(self.q)

    def conjugate(self):
        """Parameters of the dual pairing, (p', q')."""
        return MixedNormParams(self.p_conj, self.q_conj)


def composite_weights(n_points, spacing):
    """Composite quadrature weights for `n_points` uniform samples.

    Simpson weights when the point count is odd (even panel count),
    trapezoid otherwise.  All weights are strictly positive, which keeps
    the discrete Hoelder and Minkowski inequalities exact.
    """
    if n_points < 2:
        raise InputError("need at least two quadrature points")
    if spacing <= 0:
        raise InputError("quadrature spacing must be positive")
    if n_points % 2 == 1:
        w = np.ones(n_points)
        w[1:-1:2] = 4.0
        w[2:-1:2] = 2.0
        return w * (spacing / 3.0)
    w = np.ones(n_points)
    w[0] = w[-1] = 0.5
    return w * spacing


@dataclass(frozen=True)
class Grid:
    """Uniform tensor grid on [x_min, x_max] x [y_min, y_max].

    `n_x` and `n_y` count *intervals* per axis, so there are n_x + 1 and
    n_y + 1 sample points and ``n_x * h_x == x_max - x_min`` exactly.
    """

    x_min: float
    x_max: float
    y_min: float
    y_max: float
    n_x: int
    n_y: int

    def __post_init__(self):
        if self.x_max <= self.x_min or self.y_max <= self.y_min:
            raise InputError("grid extents must be nonempty")
        if self.n_x < 1 or self.n_y < 1:
            raise InputError("grid needs at least one interval per axis")

    @classmethod
    def from_spacing(cls, x_min, x_max, y_min, y_max, h):
        """Grid with a common spacing h; extents must be multiples of h."""
        if not h > 0:
            raise InputError(f"grid spacing must be positive, got {h}")
        n_x = round((x_max - x_min) / h)
        n_y = round((y_max - y_min) / h)
        if abs(n_x * h - (x_max - x_min)) > 1e-12 or abs(n_y * h - (y_max - y_min)) > 1e-12:
            raise InputError("extents are not integer multiples of the spacing")
        return cls(x_min, x_max, y_min, y_max, n_x, n_y)

    @property
    def h_x(self):
        return (self.x_max - self.x_min) / self.n_x

    @property
    def h_y(self):
        return (self.y_max - self.y_min) / self.n_y

    @property
    def xs(self):
        return np.linspace(self.x_min, self.x_max, self.n_x + 1)

    @property
    def ys(self):
        return np.linspace(self.y_min, self.y_max, self.n_y + 1)

    @property
    def weights_x(self):
        return composite_weights(self.n_x + 1, self.h_x)

    @property
    def weights_y(self):
        return composite_weights(self.n_y + 1, self.h_y)

    @property
    def shape(self):
        return (self.n_x + 1, self.n_y + 1)


class GridFunction:
    """Samples of a function f(x, y) on a uniform grid; the quadrature carrier."""

    def __init__(self, grid, values):
        values = np.asarray(values, dtype=float)
        if values.shape != grid.shape:
            raise InputError(
                f"value array shape {values.shape} does not match grid shape {grid.shape}"
            )
        if not np.all(np.isfinite(values)):
            raise InputError("grid function contains non-finite values")
        self.grid = grid
        self.values = values

    def scaled(self, a):
        return GridFunction(self.grid, a * self.values)

    def __add__(self, other):
        if self.grid != other.grid:
            raise GridMismatchError("grid mismatch in addition")
        return GridFunction(self.grid, self.values + other.values)

    def __sub__(self, other):
        if self.grid != other.grid:
            raise GridMismatchError("grid mismatch in subtraction")
        return GridFunction(self.grid, self.values - other.values)


class CoefSeq:
    """Real coefficients c(k1, k2) on a finite integer index window."""

    def __init__(self, entries, k1_first, k2_first):
        entries = np.asarray(entries, dtype=float)
        if entries.ndim != 2 or entries.size == 0:
            raise InputError("coefficient window must be a nonempty 2-d array")
        if not np.all(np.isfinite(entries)):
            raise InputError("coefficient sequence contains non-finite values")
        self.entries = entries
        self.k1_first = int(k1_first)
        self.k2_first = int(k2_first)

    @property
    def k1_range(self):
        return range(self.k1_first, self.k1_first + self.entries.shape[0])

    @property
    def k2_range(self):
        return range(self.k2_first, self.k2_first + self.entries.shape[1])

    def write_csv(self, path, header="k1,k2,c"):
        """Write `k1,k2,value` rows with 17 significant digits, k2 fastest."""
        k1, k2 = np.meshgrid(self.k1_range, self.k2_range, indexing="ij")
        with open(path, "w") as fh:
            fh.write(header + "\n" + csv_rows("%d,%d,%.17g\n", k1.ravel(), k2.ravel(),
                                               self.entries.ravel()))


def csv_rows(template, *columns):
    """The rows of equal-length columns (sequences or arrays) as one string,
    `template * n % fields` with the fields interleaved row by row as Python
    numbers: the one row formatter of every CSV artifact."""
    fields = [None] * (len(columns) * len(columns[0]))
    for i, col in enumerate(columns):
        fields[i::len(columns)] = col.tolist() if isinstance(col, np.ndarray) else col
    return template * len(columns[0]) % tuple(fields)


def _axis_norm(vals, weights, p):
    # vals: (..., n) nonnegative; reduce the trailing axis.
    if p == INF:
        return vals.max(axis=-1)
    if p == 1.0:
        return vals @ weights
    return (vals**p @ weights) ** (1.0 / p)


def mixed_function_norm(f, params):
    """Mixed (p, q) norm of a grid function by composite quadrature.

    The inner q-norm runs over the space axis for each time row, the
    outer p-norm over the time axis.  Infinite exponents use the grid
    maximum.  Deterministic for a fixed grid.
    """
    vals = np.abs(f.values)
    inner = _axis_norm(vals, f.grid.weights_y, params.q)
    outer = _axis_norm(inner[None, :], f.grid.weights_x, params.p)
    return float(outer[0])


def mixed_sequence_norm(c, params):
    """Mixed (p, q) norm of a coefficient window (inner q over k2, outer p over k1)."""
    vals = np.abs(c.entries)
    if params.q == INF:
        inner = vals.max(axis=1)
    else:
        inner = (vals**params.q).sum(axis=1) ** (1.0 / params.q)
    if params.p == INF:
        return float(inner.max())
    return float((inner**params.p).sum() ** (1.0 / params.p))


def duality_pairing(f, g):
    """Quadrature of the pointwise product f*g over the shared grid.

    Satisfies the Hoelder bound
    |pairing| <= mixed_function_norm(f, (p, q)) * mixed_function_norm(g, (p', q'))
    exactly in the discrete setting because all quadrature weights are positive.
    """
    if f.grid != g.grid:
        raise GridMismatchError("duality pairing requires a shared grid")
    wx, wy = f.grid.weights_x, f.grid.weights_y
    return float(wx @ (f.values * g.values) @ wy)
