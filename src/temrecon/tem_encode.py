"""Spatial device geometry and the two time encoding machines.

Devices sit at scattered space positions; each one sees the time slice of
the signal at its position and converts it to firing times.  The crossing
machine fires when the signal meets a trigger ramp that resets after every
fire; the integrate-and-fire machine fires when a biased, optionally leaky
running integral reaches a threshold.  Both test-function families are
recoverable from past firing times alone, so a decoder needs no side
channel, and both guarantee a maximum inter-fire gap of `delta_target`
whenever the signal respects its amplitude bound.

Every slice is a fixed polynomial on each unit knot piece, read from a
table built once per encode.  The `encode_*_devices` fast paths solve the
fires of all devices as chains of unknowns over the horizon by Newton
(multiple shooting, one interval a fire), started from the inverse of the
fire density; a device without the certificate that its roots are the
first fires falls back to one bracketed fire a round.  All four encoders
take the recovered values from the gaps by one rule,
`TemConfig.recovered_values`.  The scalar `ctem_encode` / `iftem_encode`
references referee the fast paths: they bracket each fire by a scan at a
step and refine by bisection (integrate-and-fire on Gauss quadrature).
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import EncodingInvariantError, GapError, InputError, PreconditionError
from .generator import LeakMoments, bspline_eval, piece_polynomials
from .mixed_norm import csv_rows

BISECTION_TOL = 1e-14
_GAUSS_X, _GAUSS_W = np.polynomial.legendre.leggauss(4)


# ---------------------------------------------------------------------------
# device geometry
# ---------------------------------------------------------------------------

class DeviceSet:
    """Relatively separated device positions with gap `delta_prime`.

    `A_gamma` / `B_gamma` are the minimum and maximum closed-ball covering
    counts over the spatial window.  The counts are constant between the
    sorted ball ends, so they are read at `cuts` and at the midpoints
    between them: exact bounds, and construction fails with
    `GapError` where any stretch of the window is uncovered (gap condition
    violated).  The counts come from a sorted sweep, two `searchsorted`
    calls on the sorted positions, so no (devices x points) array is formed.
    """

    def __init__(self, positions, delta_prime, window):
        self.positions = np.sort(np.asarray(positions, dtype=float))
        if self.positions.size == 0:
            raise InputError("device set must be nonempty")
        if delta_prime <= 0:
            raise InputError("gap delta_prime must be positive")
        self.delta_prime = float(delta_prime)
        self.window = (float(window[0]), float(window[1]))
        cuts = self.cuts()
        ys = np.concatenate([cuts, 0.5 * (cuts[:-1] + cuts[1:])])
        counts = self.cover_counts(ys)
        self.A_gamma = int(counts.min())
        self.B_gamma = int(counts.max())
        if self.A_gamma < 1:
            bad = ys[int(np.argmin(counts))]
            raise GapError(f"y={bad:.6g} is not within {delta_prime} of any device")

    @classmethod
    def uniform(cls, y_min, y_max, spacing, delta_prime):
        n = int(round((y_max - y_min) / spacing))
        positions = y_min + spacing * np.arange(n + 1)
        return cls(positions, delta_prime, (y_min, y_max))

    def __len__(self):
        return self.positions.size

    _COVER_EPS = 1e-12  # absorbs float dust in position arithmetic

    def cover_counts(self, ys):
        """Devices within `delta_prime` of each point of `ys`, by a sorted sweep."""
        ys = np.asarray(ys, dtype=float)
        reach = self.delta_prime + self._COVER_EPS
        return (np.searchsorted(self.positions, ys + reach, "right")
                - np.searchsorted(self.positions, ys - reach, "left"))

    def u_matrix(self, ys):
        """Partition-of-unity weights u_j(ys) as a (devices, points) matrix."""
        ys = np.asarray(ys, dtype=float)
        reach = self.delta_prime + self._COVER_EPS
        ind = (np.abs(ys[None, :] - self.positions[:, None]) <= reach).astype(float)
        counts = ind.sum(axis=0)
        if np.any(counts == 0):
            bad = ys[int(np.argmin(counts))]
            raise GapError(f"y={bad:.6g} is not covered by any device ball")
        return ind / counts

    def cuts(self):
        """The ball ends clipped to the window, and the window ends, sorted:
        cover counts and partition weights are constant between them."""
        pos, r = self.positions, self.delta_prime
        return np.sort(np.clip(np.concatenate([pos - r, pos + r, self.window]), *self.window))

    def u_l1_norms(self):
        """Exact L1 norms of the partition weights over the whole line.

        The weights are constant between the sorted ball ends, so each norm
        is the weights at the midpoints, by the rule of `u_matrix`, against
        the interval lengths; a stretch no ball covers adds 0.
        """
        ends = np.sort(np.concatenate([self.positions - self.delta_prime,
                                       self.positions + self.delta_prime]))
        mids = 0.5 * (ends[:-1] + ends[1:])
        ind = np.abs(mids[None, :] - self.positions[:, None]) <= self.delta_prime + self._COVER_EPS
        return ind @ (np.diff(ends) / np.maximum(ind.sum(axis=0), 1))


# ---------------------------------------------------------------------------
# configuration and output
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TemConfig:
    """Shared parameters of the two machines.

    The trigger-ramp slope and the firing threshold derive from the
    amplitude bound and the density target so that every inter-fire gap is
    at most `delta_target` whenever sup|f| <= c_bound < b_level.
    """

    mode: str
    c_bound: float
    b_level: float
    delta_target: float
    alpha: float = 0.0
    theta: float = None

    def __post_init__(self):
        if self.mode not in ("crossing", "integrate-and-fire"):
            raise InputError(f"unknown TEM mode {self.mode!r}")
        if not (0.0 < self.c_bound < self.b_level):
            raise InputError("need 0 < c_bound < b_level")
        if self.delta_target <= 0:
            raise InputError("delta_target must be positive")
        if self.alpha < 0:
            raise InputError("firing parameter alpha must be nonnegative")
        if self.theta is not None and not self.theta > 0:
            raise InputError(f"threshold theta must be positive, got {self.theta}")
        if self.theta is None:
            object.__setattr__(
                self, "theta",
                (self.b_level - self.c_bound) * self.kappa_alpha(self.delta_target),
            )

    @property
    def lambda_slope(self):
        """2 b / delta_target: the ramp from -b passes c_bound before delta_target."""
        return 2.0 * self.b_level / self.delta_target

    def fire_slots(self, duration):
        """Fires one device can make over `duration`, plus two: the length of
        the per-device fire arrays the `encode_*_devices` fast paths
        preallocate.  Crossing gaps are at least (b - c) / lambda,
        integrate-and-fire gaps at least theta / (b + c)."""
        if self.mode == "crossing":
            return int(math.ceil(duration * self.lambda_slope / (self.b_level - self.c_bound))) + 2
        min_gap = self.theta / (self.b_level + self.c_bound)
        return int(math.ceil(duration / min_gap)) + 2

    def kappa_alpha(self, dt):
        """Integral of the leak weight: (1 - exp(-alpha dt)) / alpha, dt at alpha = 0."""
        if self.alpha == 0.0:
            return dt
        return -np.expm1(-self.alpha * np.asarray(dt, dtype=float)) / self.alpha

    def recovered_values(self, times, t_start):
        """The per-fire values a decoder reads from one device's fire times
        alone, by the gaps from t_start on: the signal at the fire,
        -b + lambda gap (crossing), or the leak-weighted integral over the
        interval, theta - b kappa_alpha(gap) (integrate-and-fire)."""
        gaps = np.diff(times, prepend=t_start)
        if self.mode == "crossing":
            return -self.b_level + self.lambda_slope * gaps
        return self.theta - self.b_level * self.kappa_alpha(gaps)


@dataclass
class TemOutput:
    """Every device's fire times `t` and decoder-recoverable values `v`,
    device-major in one flat layout: device j's fires are the slice
    offsets[j]:offsets[j + 1], and `times[j]`, `values[j]` read-only views
    of it.  The encoders fill `v` with `TemConfig.recovered_values` of the
    times: per fire, the signal value there (crossing) or the leak-weighted
    integral over the interval it ends (integrate-and-fire), from times alone.
    """

    config: TemConfig
    devices: DeviceSet
    t_start: float
    t_end: float
    t: np.ndarray
    v: np.ndarray
    offsets: np.ndarray

    def __post_init__(self):
        self.t.flags.writeable = self.v.flags.writeable = False
        self.times, self.values = (tuple(np.split(a, self.offsets[1:-1])) for a in (self.t, self.v))

    @classmethod
    def from_lists(cls, config, devices, t_start, t_end, times, values):
        """The output whose device j fires at times[j] with values[j]."""
        t, v = (np.concatenate([np.zeros(0), *xs]) for xs in (times, values))
        return cls(config, devices, t_start, t_end, t, v, np.cumsum([0, *map(len, times)]))

    @cached_property
    def max_gap(self):
        """The longest stretch a device goes without a fire: the inner gaps,
        the lead-ins from t_start, the stubs to t_end, or t_end - t_start."""
        t, o = self.t, self.offsets
        has = o[1:] > o[:-1]
        last = o[1:][has] - 1
        gaps = np.concatenate([np.diff(t), t[o[:-1][has]] - self.t_start, self.t_end - t[last],
                               np.full(np.count_nonzero(~has), self.t_end - self.t_start)])
        gaps[last[:-1]] = 0.0       # the next device's first fire less this one's last
        return float(gaps.max())

    def write_events_csv(self, path):
        """One row per fire, written one device at a time (`csv_rows`): no string spans every fire."""
        with open(path, "w") as fh:
            fh.write("device_id,fire_index,time,recovered_value\n")
            for j, (t, v) in enumerate(zip(self.times, self.values)):
                fh.write(csv_rows("%d,%d,%.17g,%.17g\n", [j] * t.size, range(t.size), t, v))


def density_report(out, delta):
    """(max gap, fire count, ok flag): ok iff there are fires and every gap,
    `TemOutput.max_gap`, is at most delta."""
    return out.max_gap, out.t.size, out.t.size > 0 and out.max_gap <= delta + 1e-12


# ---------------------------------------------------------------------------
# scalar reference encoders
# ---------------------------------------------------------------------------

def _check_amplitude(vals, cfg):
    if np.max(np.abs(vals)) > cfg.c_bound + 1e-12:
        raise PreconditionError(
            f"signal amplitude {np.max(np.abs(vals)):.6g} exceeds c_bound={cfg.c_bound}"
        )


def ctem_encode(f, cfg, horizon, scan_step=None):
    """Crossing encoder for a single time slice (scalar reference path).

    After each fire the test function resets to the ramp
    Phi(t) = -b_level + lambda_slope * (t - t_prev); the next fire is the
    first root of f - Phi, bracketed by a scan at `scan_step` (default
    delta_target / 8) and refined by bisection to 1e-12.  A dip of f - Phi
    below zero narrower than the scan step can be stepped over.  The first
    ramp is anchored at the horizon start.  Returns (times, values).
    """
    if cfg.mode != "crossing":
        raise InputError("config mode must be 'crossing'")
    t0, t_end = float(horizon[0]), float(horizon[1])
    step = scan_step if scan_step is not None else cfg.delta_target / 8.0
    b, lam, delta = cfg.b_level, cfg.lambda_slope, cfg.delta_target
    times = []
    t_prev = t0
    while True:
        window_end = min(t_prev + delta, t_end)
        if window_end - t_prev <= BISECTION_TOL:
            break
        n_sub = int(math.ceil((window_end - t_prev) / step))
        lo, g_lo = t_prev, float(f(np.array([t_prev]))[0]) + b
        _check_amplitude(g_lo - b, cfg)
        hit = None
        for i in range(1, n_sub + 1):
            tc = min(t_prev + i * step, window_end)
            fc = float(f(np.array([tc]))[0])
            _check_amplitude(fc, cfg)
            gc = fc + b - lam * (tc - t_prev)
            if gc <= 0.0:
                hit = (lo, tc)
                break
            lo, g_lo = tc, gc
        if hit is None:
            if window_end < t_prev + delta:
                break  # horizon exhausted before the guaranteed crossing
            raise EncodingInvariantError(
                "no crossing found within delta_target despite amplitude bound"
            )
        a, c = hit
        while c - a > BISECTION_TOL:
            m = 0.5 * (a + c)
            if float(f(np.array([m]))[0]) + b - lam * (m - t_prev) > 0.0:
                a = m
            else:
                c = m
        t_fire = 0.5 * (a + c)  # midpoint: unbiased within the final bracket
        times.append(t_fire)
        t_prev = t_fire
    times = np.array(times, dtype=float)
    return times, cfg.recovered_values(times, t0)


def _gauss_segment(f, a, b_hi, alpha, t_ref, bias):
    """Gauss-4 quadrature of (f(u) + bias) * exp(alpha (u - t_ref)) over [a, b_hi].

    The segment is split at interior multiples of 0.5 so the rule is exact
    for spline slices (whose breakpoints lie on the half-integer lattice);
    the recovered-integral identity then holds to bisection accuracy.
    """
    edges = [a]
    k = math.ceil((a + 1e-12) / 0.5)
    while k * 0.5 < b_hi - 1e-12:
        edges.append(k * 0.5)
        k += 1
    edges.append(b_hi)
    total = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        half = 0.5 * (hi - lo)
        nodes = lo + half * (_GAUSS_X + 1.0)
        vals = f(nodes) + bias
        total += half * float((_GAUSS_W * vals * np.exp(alpha * (nodes - t_ref))).sum())
    return total


def iftem_encode(f, cfg, horizon):
    """Integrate-and-fire encoder for a single time slice (scalar reference).

    Advances the biased leaky integral with a per-step Gauss rule on a
    uniform evaluation grid, at step delta_target / 8 or the least gap
    theta / (b + c_bound) where that is shorter, and fires when it reaches
    theta; the fire time is refined by bisection to 1e-12 (the integral is
    strictly increasing near threshold because the derived theta keeps
    (f + b) dominant over the leak).  Per-interval integrals are recovered
    from times alone as theta - b * kappa_alpha(gap).  Returns (times,
    integrals).
    """
    if cfg.mode != "integrate-and-fire":
        raise InputError("config mode must be 'integrate-and-fire'")
    t0, t_end = float(horizon[0]), float(horizon[1])
    b, alpha, theta = cfg.b_level, cfg.alpha, cfg.theta
    min_gap = theta / (cfg.b_level + cfg.c_bound)
    h = min(cfg.delta_target / 8.0, max(min_gap, BISECTION_TOL), 0.5)  # one fire a step
    n_steps = int(math.ceil((t_end - t0) / h))
    times = []
    y = 0.0
    t_k = t0
    for k in range(n_steps):
        t_next = min(t_k + h, t_end)
        _check_amplitude(f(np.array([t_k, t_next])), cfg)
        y_new = y * math.exp(-alpha * (t_next - t_k)) + _gauss_segment(f, t_k, t_next, alpha, t_next, b)
        while y_new >= theta:
            a, c = t_k, t_next
            while c - a > BISECTION_TOL:
                m = 0.5 * (a + c)
                ym = y * math.exp(-alpha * (m - t_k)) + _gauss_segment(f, t_k, m, alpha, m, b)
                if ym < theta:
                    a = m
                else:
                    c = m
            t_fire = 0.5 * (a + c)
            times.append(t_fire)
            # integrate the remainder of the step from a fresh integrator
            y = 0.0
            t_k = t_fire
            if t_next - t_k <= BISECTION_TOL:
                y_new = 0.0
                break
            y_new = _gauss_segment(f, t_k, t_next, alpha, t_next, b)
        y = y_new if t_next > t_k else 0.0
        t_k = t_next
        if t_k >= t_end:
            break
    times = np.array(times, dtype=float)
    return times, cfg.recovered_values(times, t0)


# ---------------------------------------------------------------------------
# device-set encoders (vectorized across devices)
# ---------------------------------------------------------------------------

class _SliceTable:
    """Device slices as polynomials on the unit pieces between their knots.

    Every slice lies in the shift-invariant B-spline space, so it is one
    polynomial on each unit piece: pieces sit on the integers for even
    orders and on the half-integers for odd ones.  `poly[j, s, d]` is the
    coefficient of u^d on piece s of device j, where u is the distance from
    the piece's left edge `origin + s`.  The first and the last piece are
    zero, and every piece past either end reads from them, as
    `bspline_eval` reads zero there.  Evaluation is a gather plus Horner;
    the slope runs alongside in the same loop.
    """

    def __init__(self, vsig, devices):
        order = vsig.generator.order_t
        # per-device time-axis coefficients, (devices, n_k1)
        coefs = bspline_eval(vsig.generator.order_s, devices.positions[:, None]
                             - vsig.window.k2s[None, :]) @ vsig.coeffs.entries.T
        n_k = coefs.shape[1]
        Q = piece_polynomials(order)
        # B-spline k covers pieces k .. k + order - 1 (counted from the
        # first real piece), contributing its own piece r to piece k + r
        self.poly = np.zeros((coefs.shape[0], n_k + order + 1, order))
        for r in range(order):
            self.poly[:, 1 + r: 1 + r + n_k] += coefs[:, :, None] * Q[r]
        self.order = order
        self.origin = vsig.window.k1_first - order / 2.0 - 1.0
        self.last = n_k + order

    def locate(self, t):
        """(piece index, offset from the piece's left edge) of each point;
        the index counts pieces past either end of the table too."""
        s = np.floor(t - self.origin).astype(np.intp)
        return s, t - (self.origin + s)

    def pieces(self, rows, s):
        """Coefficients of piece s[...] of device rows[...], broadcast together."""
        s = np.minimum(np.maximum(s, 0), self.last)
        return np.take(self.poly.reshape(-1, self.order), s + rows * self.poly.shape[1], axis=0)

    def __call__(self, rows, t, slope=False):
        """f[i, ...] = slice of device rows[i] at t[i, ...], (rows, points),
        or at t (points,) shared; with `slope`, (values, time derivatives)."""
        s, u = self.locate(t)
        return _horner(self.pieces(rows[:, None], s), u, slope)


def _horner(c, u, slope=False):
    """Polynomials with power coefficients c[..., d] at u (broadcast against
    c[..., 0]); with `slope`, returns (values, derivatives)."""
    v = c[..., -1]
    dv = 0.0
    for d in range(c.shape[-1] - 2, -1, -1):
        if slope:
            dv = dv * u + v
        v = v * u
        v += c[..., d]      # in place: one temporary fewer on large calls
    return (v, dv) if slope else v


def _bracketed_newton(g_and_slope, lo, hi, start):
    """Root per row of a decreasing sign change, by safeguarded Newton.

    Row i brackets its root by [lo[i], hi[i]] with g(lo) > 0 >= g(hi);
    `g_and_slope(rows, t)` returns (g, g') at points t of the given rows and
    `start` lies inside each bracket.  Every evaluation shrinks the bracket.
    The next point is the Newton point when the slope is negative and the
    point lies strictly inside the bracket, else the bracket midpoint.  A row
    stops when its Newton step is at most BISECTION_TOL / 4 (root: the
    Newton point) or its bracket is at most BISECTION_TOL (root: the
    midpoint), within 80 rounds.
    """
    lo, hi = lo.copy(), hi.copy()
    root = 0.5 * (lo + hi)
    rows = np.flatnonzero(hi - lo > BISECTION_TOL)
    t = start[rows]
    for _ in range(80):
        if rows.size == 0:
            break
        g, dg = g_and_slope(rows, t)
        pos = g > 0.0
        lo_r = np.where(pos, t, lo[rows])
        hi_r = np.where(pos, hi[rows], t)
        lo[rows], hi[rows] = lo_r, hi_r
        with np.errstate(divide="ignore", invalid="ignore"):
            step = g / dg
        newton = t - step
        mid = 0.5 * (lo_r + hi_r)
        converged = (dg < 0.0) & (np.abs(step) <= 0.25 * BISECTION_TOL)
        # open rows hold the midpoint, their root should the round cap hit
        root[rows] = np.where(converged, np.clip(newton, lo_r, hi_r), mid)
        inside = (dg < 0.0) & (newton > lo_r) & (newton < hi_r)
        t = np.where(inside, newton, mid)
        keep = ~converged & (hi_r - lo_r > BISECTION_TOL)
        rows, t = rows[keep], t[keep]
    return root


def _first_fire(g_and_slope, t, g):
    """The first root per row of a function that falls through zero between
    reads: g[i, k] at t[i, k], increasing in k, with g <= 0 at some read
    after the first.  The first such read and the one before it bracket the
    root, which `_bracketed_newton` locates from the secant across the
    bracket (from its left end where g does not read positive there)."""
    i, j = np.argmax(g[:, 1:] <= 0.0, axis=1), np.arange(t.shape[0])
    a, z, g_a, g_z = t[j, i], t[j, i + 1], g[j, i], g[j, i + 1]
    with np.errstate(divide="ignore", invalid="ignore"):
        start = np.where(g_a > 0.0, a + g_a / (g_a - g_z) * (z - a), a)
    return _bracketed_newton(g_and_slope, a, z, start)


class _Fires:
    """The fires of every device so far, in a (devices, slots) matrix."""

    def __init__(self, J, slots):
        self.times, self.counts = np.zeros((J, slots)), np.zeros(J, dtype=int)

    def add(self, rows, times, n):
        """Append the first n[i] of times[i] to the fires of device rows[i]."""
        k = self.counts[rows]
        if np.any(k + n >= self.times.shape[1]):
            raise EncodingInvariantError("fire-count bound exceeded")
        i, col = np.nonzero(np.arange(times.shape[1]) < n[:, None])
        self.times[rows[i], k[i] + col] = times[i, col]
        self.counts[rows] = k + n

    def output(self, cfg, devices, t0, t_end):
        """TemOutput; one `TemConfig.recovered_values` call on the filled
        columns gives the values, and a mask of the filled entries the layout."""
        times = self.times[:, : self.counts.max(initial=0)]
        values = cfg.recovered_values(times, t0)
        filled = np.arange(times.shape[1]) < self.counts[:, None]
        return TemOutput(cfg, devices, t0, t_end, times[filled], values[filled],
                         np.append(0, np.cumsum(self.counts)))


CHAIN_CANDIDATES = 6144   # candidate fires a chain round solves over all its devices
CHAIN_PASSES = 12         # Newton passes a round takes before its open rows fall back
CHAIN_TOL = 1e-8          # the largest kept step at which a row's chain stops
FIRE_LATTICE = 4          # steps a knot piece of the fire-density lattice


def _density_start(table, rate, rows, t_last, horizon, n, span):
    """n candidate fires after t_last[i], (rows, n): where the integral K of
    the fire density rate(f, f') from t_last[i] reaches 1, 2, ..., n.  K
    runs over `span` knot pieces from t_last's, FIRE_LATTICE steps a piece,
    each the three-point rule over its ends and a neighbour in its piece
    (so kinks at knots fall between rules); the slice is read at the
    horizon's ends off it.  A candidate is one Newton step from the chord on
    the cubic Hermite of K and rho across its step, or past the lattice on
    the last density."""
    m, h = FIRE_LATTICE, 1.0 / FIRE_LATTICE
    piece, u = table.locate(t_last)
    s = piece[:, None] + np.arange(span)
    f, df = _horner(table.pieces(rows[:, None], s)[..., None, :], h * np.arange(m + 1), slope=True)
    t = (table.origin + s)[..., None] + h * np.arange(m + 1)        # (rows, span, m + 1)
    if t[:, 0, 0].min() < horizon[0] or t[:, -1, -1].max() > horizon[1]:
        for v, e in zip((f, df), table(rows, np.array(horizon), slope=True)):
            v[:] = np.where(t < horizon[0], e[:, :1, None], np.where(t > horizon[1], e[:, 1:, None], v))
    with np.errstate(all="ignore"):     # a failing density gives a poor start, not an error
        rho = rate(f, df)
        dK = 8.0 * rho[..., :-1] + 5.0 * rho[..., 1:]
        dK[..., 1:] -= rho[..., :-2]
        dK[..., 0] += 3.0 * (rho[..., 1] - rho[..., 0]) - rho[..., 2]
        K = np.zeros((rows.size, span * m + 1))
        np.cumsum(np.where(dK > 0.0, dK, 0.0).reshape(rows.size, -1) * (h / 12.0), axis=1, out=K[:, 1:])
        # the rows laid end to end, so that one sorted search serves them all
        K += (K[:, -1].max(initial=0.0) + n + 1.0) * np.arange(rows.size)[:, None]
        r, rho_end = np.arange(rows.size)[:, None], rho[:, -1, -1:]
        K, rho, base = K.ravel(), rho.ravel(), K.shape[1] * r

        def hermite(q, x):      # (K, K') on step q of each row at x from its start
            K0, K1 = K[base + q], K[base + q + 1]
            i = span * (m + 1) * r + q + q // m
            r0, r1, s = rho[i], rho[i + 1], x / h
            return (K0 + (K1 - K0) * s * s * (3.0 - 2.0 * s) + h * s * (1.0 - s) * (r0 * (1.0 - s) - r1 * s),
                    6.0 * s * (1.0 - s) * (K1 - K0) / h + r0 * (1.0 - s) * (1.0 - 3.0 * s)
                    + r1 * s * (3.0 * s - 2.0))

        q = np.minimum((u * m).astype(np.intp), m - 1)[:, None]
        level = hermite(q, u[:, None] - q * h)[0] + np.arange(1.0, n + 1)
        q = np.clip(np.searchsorted(K, level.ravel()).reshape(level.shape) - 1 - base, 0, span * m - 1)
        x = h * (level - K[base + q]) / (K[base + q + 1] - K[base + q])
        H, dH = hermite(q, x)
        end = K[base + span * m]        # past the lattice, K runs on at its last density
        T = np.where(level > end, table.origin + s[:, -1:] + 1.0 + (level - end) / rho_end,
                     table.origin + s[:, :1] + h * q + x - (H - level) / dH)
    return np.fmin(np.fmax(T, t_last[:, None]), horizon[1])


def _newton_chain(residual, rows, t_last, T, t_end):
    """(times, counts): Newton on each row's chain of candidate
    fires T after t_last.  `residual(rows, [t_last, T])` returns residuals
    r_k rising through zero at the fires, slopes d_k, and a_k =
    -(dr_k/dt_(k-1)) / d_k for k >= 2: the Jacobian is lower bidiagonal, so
    a step solves delta_k = a_k delta_(k-1) - r_k / d_k by `cumprod` and
    `cumsum`.  Candidates up to t_end, each after a fire before t_end -
    BISECTION_TOL, are kept, the others read NaN; a row stops once its
    largest kept step is at most CHAIN_TOL with d_k > 0 at each; one that
    does not within CHAIN_PASSES counts -1."""
    times, counts, start = np.full(T.shape, np.nan), np.full(rows.size, -1), t_last[:, None]
    for _ in range(CHAIN_PASSES):
        r, d, a = residual(rows, np.concatenate([start, T], axis=1))
        with np.errstate(all="ignore"):     # a non-finite step keeps no candidate
            P = np.cumprod(np.concatenate([np.ones((rows.size, 1)), a], axis=1), axis=1)
            step = -P * np.cumsum(r / (d * P), axis=1)
            T_next = T + step
        prev = np.concatenate([start, T_next[:, :-1]], axis=1)
        kept = np.logical_and.accumulate((T_next <= t_end) & (prev < t_end - BISECTION_TOL), axis=1)
        done = ((np.where(kept, np.abs(step), 0.0).max(axis=1) <= CHAIN_TOL)
                & np.all((d > 0.0) | ~kept, axis=1) & (counts < 0))
        times = np.where(done[:, None], np.where(kept, T_next, np.nan), times)
        counts = np.where(done, kept.sum(axis=1), counts)
        if np.all(counts >= 0):
            break
        T = np.fmin(np.fmax(T_next, start), t_end)
    return times, counts


def _chain_fires(table, cfg, residual, rate, certified, t0, t_end, fires):
    """Add to `fires` the fires of the `certified` devices by rounds of
    `_newton_chain` from their last fires, of at most CHAIN_CANDIDATES
    candidates, as many a device (one, where the devices outnumber them),
    started by `_density_start`; return the devices left to a fallback
    (the others too) and their last fires.  Every device takes part in
    every round and every pass, one that has stopped from t_end, so array
    shapes follow the device count alone: shapes that varied with the
    signal filled the allocators' caches of small blocks operation after
    operation, and raised a process's peak memory.  A device that keeps
    fewer candidates than it got has met the horizon: a fire at t_end ends
    it, or else its residual must read negative there.  One that fails
    that, or does not stop, falls back.  For crossing, a gap over
    delta_target ending inside the horizon raises `EncodingInvariantError`."""
    delta = cfg.delta_target if cfg.mode == "crossing" else np.inf
    rows = np.flatnonzero(certified)
    t_last, go = np.full(rows.size, t0), np.ones(rows.size, dtype=bool)
    slow, slow_t = [np.flatnonzero(~certified)], [np.full(certified.size - rows.size, t0)]
    n = max(CHAIN_CANDIDATES // max(rows.size, 1), 1)
    while np.any(go):
        span = min(math.ceil(n / rate(np.zeros(1), np.zeros(1))[0]), math.ceil(t_end - t_last.min())) + 2
        T = _density_start(table, rate, rows, t_last, (t0, t_end), n, span)
        times, cnt = _newton_chain(residual, rows, t_last, T, t_end)
        ok = cnt >= 0
        last = np.where(cnt > 0, times[np.arange(rows.size), cnt - 1], t_last)
        prev = np.concatenate([t_last[:, None], times[:, :-1]], axis=1)
        late = np.any((times - prev > delta) & (prev + delta <= t_end + BISECTION_TOL))
        fires.add(rows, times, np.maximum(cnt, 0))
        open_ = go & ok & (last < t_end - BISECTION_TOL)
        more = open_ & (cnt == n)
        end, past = open_ & ~more, np.zeros(rows.size, dtype=bool)
        if np.any(end):     # read at every device, so that the shapes stay fixed
            past = residual(rows, np.stack([last, np.full(rows.size, t_end)], axis=1))[0][:, 0] < 0.0
        if late or np.any(end & past & (last + delta <= t_end + BISECTION_TOL)):
            raise EncodingInvariantError("no crossing found within delta_target despite amplitude bound")
        back = go & (~ok | (end & ~past))
        slow, slow_t = slow + [rows[back]], slow_t + [last[back]]
        go, t_last = more, np.where(more, last, t_end)
    return np.concatenate(slow), np.concatenate(slow_t)


def encode_ctem_devices(vsig, devices, cfg, horizon):
    """Crossing-encode every device of a set at once; returns TemOutput.

    Each device's fires are one chain (`_chain_fires`) with residuals r_k
    = lambda (t_k - t_(k-1)) - f(t_k) - b from the horizon start, and fire
    density lambda / gap, exact where f is linear across a gap.  Where f' <
    lambda over the horizon (`_extreme_reads`), g = f + b - lambda (t -
    t_prev) falls after every fire, so the roots are the first crossings;
    any other device, or one its chain leaves, fires one fire a round
    (`_crossing_fallback`).  A gap over delta_target ending inside the
    horizon raises `EncodingInvariantError`; the amplitude bound, checked
    on the slice table, rules it out.
    """
    if cfg.mode != "crossing":
        raise InputError("config mode must be 'crossing'")
    t0, t_end = float(horizon[0]), float(horizon[1])
    b, lam, J = cfg.b_level, cfg.lambda_slope, len(devices)
    table = _SliceTable(vsig, devices)
    _check_table_amplitude(table, cfg, t0, t_end)
    rows, ends = np.arange(J), np.full((2, J), [[t0], [t_end]])
    certified = table(rows, _extreme_reads(table, rows, *ends, deriv=1), slope=True)[1].max(axis=1) < lam

    def residual(rows, t):
        f, df = table(rows, t[:, 1:], slope=True)
        d = lam - df
        return lam * np.diff(t) - f - b, d, lam / d[:, 1:]

    def rate(f, df):    # 1 / gap, exact where f is linear across the gap
        x = df / lam
        return lam * np.divide(-x, np.log1p(-x), out=np.ones_like(x), where=x != 0.0) / (f + b)

    fires = _Fires(J, cfg.fire_slots(t_end - t0))
    _crossing_fallback(table, cfg, *_chain_fires(table, cfg, residual, rate, certified, t0, t_end, fires),
                       t_end, fires)
    return fires.output(cfg, devices, t0, t_end)


def _crossing_fallback(table, cfg, rows, t_prev, t_end, fires):
    """Add to `fires` the fires of device rows[i] after t_prev[i], one a
    round: g = f + b - lambda (t - t_prev) is read at its `_extreme_reads`
    to t_prev + delta_target or t_end, so it is monotone between reads, and
    `_first_fire` locates the first crossing where one reads g <= 0."""
    b, lam, delta = cfg.b_level, cfg.lambda_slope, cfg.delta_target
    k = np.flatnonzero(t_prev < t_end - BISECTION_TOL)
    while k.size:
        tp = t_prev[k]
        reads = _extreme_reads(table, rows[k], tp, np.minimum(tp + delta, t_end), lam=lam)
        g = table(rows[k], reads) + b - lam * (reads - tp[:, None])
        fire = np.any(g[:, 1:] <= 0.0, axis=1)     # t_prev itself aside
        if np.any(tp[~fire] + delta <= t_end + BISECTION_TOL):
            raise EncodingInvariantError("no crossing found within delta_target despite amplitude bound")
        k, tp = k[fire], tp[fire]

        def crossing(sub, t):
            f, df = table(rows[k[sub]], t[:, None], slope=True)
            return f[:, 0] + b - lam * (t - tp[sub]), df[:, 0] - lam

        t_prev[k] = t_fire = _first_fire(crossing, reads[fire], g[fire])
        fires.add(rows[k], t_fire[:, None], np.ones(k.size, dtype=int))
        k = k[t_fire < t_end - BISECTION_TOL]


def _real_roots(c):
    """Real parts of the roots of each row's polynomial sum_k c[i, k] u^k,
    (rows, degree), NaN where a vanishing leading coefficient leaves fewer.

    The roots are the eigenvalues of the stacked companion matrices.  A
    complex pair stands as its real part: a point read more, where the
    roots are candidate extremes, is harmless.
    """
    deg = c.shape[1] - 1
    out = np.full((c.shape[0], max(deg, 0)), np.nan)
    if deg < 1:
        return out
    low = c[:, -1] == 0.0
    out[low, :-1] = _real_roots(c[low, :-1])
    c = c[~low]
    comp = np.zeros((c.shape[0], deg, deg))
    comp[:, 1:, :-1] = np.eye(deg - 1)
    comp[:, :, -1] = -c[:, :-1] / c[:, -1:]
    out[~low] = np.linalg.eigvals(comp).real
    return out


def _extreme_reads(table, rows, lo, hi, deriv=0, lam=0.0):
    """Times, increasing per row, where the deriv-th time derivative of
    device rows[i]'s slice, less lam t, may take its extremes on [lo[i],
    hi[i]]: the piece edges and the real roots of its slope (`_real_roots`)
    clipped into it, and hi[i].  Every piece is read at a time located in
    it, so the reads hold the exact extremes at every order."""
    first, last = table.locate(lo)[0], table.locate(hi)[0]
    s = first[:, None] + np.arange((last - first).max() + 1)
    c = table.pieces(rows[:, None], s)
    for _ in range(deriv + 1):
        c = c[..., 1:] * np.arange(1.0, c.shape[-1])
    c[..., :1] -= lam
    r = _real_roots(c.reshape(s.size, -1)).reshape(s.shape + (-1,))
    u = np.concatenate([np.zeros(s.shape + (1,)), np.sort(np.clip(np.nan_to_num(r, nan=1.0), 0.0, 1.0))],
                       axis=2)
    t = np.clip(table.origin + s[..., None] + u, lo[:, None, None], hi[:, None, None])
    return np.append(t.reshape(rows.size, -1), hi[:, None], axis=1)


def _check_table_amplitude(table, cfg, lo, hi):
    """`PreconditionError` naming the device and time of the largest |f| on
    [lo, hi] where it exceeds the amplitude bound, from `_extreme_reads`."""
    rows = np.arange(table.poly.shape[0])
    t = _extreme_reads(table, rows, np.full(rows.size, lo), np.full(rows.size, hi))
    mag = np.abs(table(rows, t))
    r, k = np.unravel_index(np.argmax(mag), mag.shape)
    if mag[r, k] > cfg.c_bound + 1e-12:
        raise PreconditionError(f"{cfg.mode} encoder: signal amplitude {mag[r, k]:.6g} exceeds "
                                f"c_bound={cfg.c_bound} on device {r} at t={t[r, k]:.6g}")


class _LeakyTable:
    """Leaky running integrals of every biased device slice.  E(t) =
    int_e^t exp(-alpha (t - u)) (f(u) + bias) du from the left edge e of
    t's piece is the piece polynomial against the `LeakMoments` of t - e,
    and `full[j, s]` is E at the end of piece s.  y from 0 at a is E(t) -
    exp(-alpha (t - a)) E(a) plus exp(-alpha (t - e')) `full` of the piece
    each knot e' between a and t ends."""

    def __init__(self, table, alpha, bias):
        self.table, self.alpha, self.bias = table, alpha, bias
        self.moments = LeakMoments(alpha, table.order, alpha)    # t - e is at most 1
        M = self.moments(np.ones(1))[0]
        self.full = (table.poly @ M + bias * M[0]).ravel()

    def _ends(self, rows, s):
        """full[rows, s]: E at the end of piece s, past either end of the table too."""
        return self.full[rows * self.table.poly.shape[1] + np.minimum(np.maximum(s, 0), self.table.last)]

    def rises(self, rows, t):
        """(y, f + bias): y[:, k] over [t[:, k], t[:, k + 1]] from y = 0, at
        points t (rows, points) of device rows; f + bias at every point."""
        tab = self.table
        s, u = tab.locate(t)
        c, M = tab.pieces(rows[:, None], s), self.moments(u)
        E = np.einsum("rpd,rpd->rp", c, M) + self.bias * M[..., 0]
        y = E[:, 1:] - np.exp(-self.alpha * np.diff(t)) * E[:, :-1]
        knots = np.diff(s)
        for m in range(int(knots.max(initial=0))):
            piece = s[:, :-1] + m
            F = self._ends(rows[:, None], piece)
            y += np.where(m < knots, np.exp(-self.alpha * (t[:, 1:] - (tab.origin + piece + 1))) * F, 0.0)
        return y, _horner(c, u) + self.bias

    def after(self, rows, s, y_s):
        """read(i, t) -> (y(t), f(t) + bias) of device rows[i] from y(s[i]) =
        y_s[i] (i and t broadcast), t on s[i]'s knot piece or the next: y(t) =
        E(t) + exp(-alpha (t - o)) y_o from o = s, y_o = y_s - E(s), or from
        the knot o after s, y_o = y(o), so a read evaluates only t."""
        tab = self.table
        piece = tab.locate(s)[0][:, None] + np.arange(2)          # s's piece and the next
        edge, c = tab.origin + piece, tab.pieces(rows[:, None], piece)
        c[..., 0] += self.bias
        o, knot = edge.copy(), edge[:, 1].copy()
        o[:, 0] = s
        y_o = np.empty_like(o)
        y_o[:, 0] = y_s - np.einsum("rd,rd->r", c[:, 0], self.moments(s - edge[:, 0]))
        y_o[:, 1] = self._ends(rows, piece[:, 0]) + np.exp(-self.alpha * (knot - s)) * y_o[:, 0]
        edge, o, y_o, c = edge.ravel(), o.ravel(), y_o.ravel(), c.reshape(-1, tab.order)

        def read(i, t):
            j = 2 * i + (t >= knot[i])
            u, cj = t - edge[j], c[j]
            E = np.einsum("...d,...d->...", cj, self.moments(u))
            return E + np.exp(-self.alpha * (t - o[j])) * y_o[j], _horner(cj, u)
        return read


def _iftem_fallback(leaky, cfg, rows, t_prev, t_end, fires):
    """Add to `fires` the fires of device rows[i] after t_prev[i], one a
    round: y is read at min_gap steps over a unit from the scan start s
    (`_LeakyTable.after`), and `_first_fire` locates the fire from the
    first read that reaches theta; a row without one carries y to the last
    read."""
    theta, alpha = cfg.theta, cfg.alpha
    h = theta / (cfg.b_level + cfg.c_bound)
    steps = h * np.arange(math.ceil(1.0 / h) + 1)
    s, y_s = t_prev.copy(), np.zeros(rows.size)
    k = np.flatnonzero(s < t_end)
    while k.size:
        pts = np.minimum(s[k, None] + steps, np.minimum(s[k] + 1.0, t_end)[:, None])
        read = leaky.after(rows[k], s[k], y_s[k])
        y = read(np.arange(k.size)[:, None], pts)[0]
        fire = np.any(y[:, 1:] >= theta, axis=1)
        s[k[~fire]], y_s[k[~fire]] = pts[~fire, -1], y[~fire, -1]
        q = np.flatnonzero(fire)

        def level(sub, t):
            yt, fb = read(q[sub], t)
            return theta - yt, alpha * yt - fb

        s[k[q]] = t_fire = _first_fire(level, pts[q], theta - y[q])
        y_s[k[q]] = 0.0
        fires.add(rows[k[q]], t_fire[:, None], np.ones(q.size, dtype=int))
        k = k[s[k] < t_end]


def encode_iftem_devices(vsig, devices, cfg, horizon):
    """Integrate-and-fire-encode every device of a set; returns TemOutput.

    Each device's fires are one chain (`_chain_fires`) with residuals r_k =
    y(t_k) - theta, y run from 0 at t_(k-1) (the horizon start) on the
    exact integrals of `_LeakyTable`, and fire density 1 / h(r), h(r) =
    -log(1 - alpha theta / r) / alpha the gap of a constant rate r, at r =
    f + b plus a first-order leak term in f'.  Where b - c_bound - alpha
    theta > 0, as with the derived theta, y rises while y <= theta, so the
    roots are the first fires; where a given theta breaks that bound, and
    for a device its chain leaves, devices fire one fire a round
    (`_iftem_fallback`).
    """
    if cfg.mode != "integrate-and-fire":
        raise InputError("config mode must be 'integrate-and-fire'")
    t0, t_end = float(horizon[0]), float(horizon[1])
    b, alpha, theta, J = cfg.b_level, cfg.alpha, cfg.theta, len(devices)
    table = _SliceTable(vsig, devices)
    _check_table_amplitude(table, cfg, t0, t_end)
    leaky = _LeakyTable(table, alpha, b)

    def residual(rows, t):
        y, fb = leaky.rises(rows, t)
        d = fb[:, 1:] - alpha * y
        return y - theta, d, np.exp(-alpha * np.diff(t[:, 1:])) * fb[:, 1:-1] / d[:, 1:]

    def rate(f, df):
        r = f + b
        if alpha == 0.0:
            return r / theta
        h = np.log1p(-alpha * theta / r) / -alpha
        return -alpha / np.log1p(-alpha * theta / (r + alpha * df * h * h / 12.0))

    fires = _Fires(J, cfg.fire_slots(t_end - t0))
    certified = np.full(J, b - cfg.c_bound - alpha * theta > 0.0)     # y' > 0 while y <= theta
    _iftem_fallback(leaky, cfg, *_chain_fires(table, cfg, residual, rate, certified, t0, t_end, fires),
                    t_end, fires)
    return fires.output(cfg, devices, t0, t_end)
