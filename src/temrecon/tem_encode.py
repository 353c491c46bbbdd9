"""Spatial device geometry and the two time encoding machines.

Devices sit at scattered space positions; each one sees the time slice of
the signal at its position and converts it to firing times.  The crossing
machine fires when the signal meets a trigger ramp that resets after every
fire; the integrate-and-fire machine fires when a biased, optionally leaky
running integral reaches a threshold.  Both test-function families are
recoverable from past firing times alone, so a decoder needs no side
channel, and both guarantee a maximum inter-fire gap of `delta_target`
whenever the signal respects its amplitude bound.

Encoding a device is inherently sequential (each test function depends on
the previous fire), but devices are independent; the `encode_*_devices`
fast paths advance all devices of a set in lockstep.  Every slice lies in
the shift-invariant B-spline space, so it is a fixed polynomial on each
unit knot piece (integer knots for even orders, half-integer for odd),
read from a table of per-piece power-basis coefficients built once per
encode.  The crossing encoder brackets each first crossing by reading the
test function at its critical points on a piece; at order 2 the gaps on
a piece are geometric and a round fires the whole piece, and at higher
orders a bracketed Newton iteration locates one fire per round.  The
integrate-and-fire encoder fires a whole piece per round too, by Newton on
the chain of its fires, whose Jacobian is lower bidiagonal; its running
integral is exact, the piece polynomial against the leak-weighted moments
of `generator.LeakMoments`.  Both check the amplitude bound on the exact
max |f| of every piece.  All four encoders take the recovered values from
the gaps by one rule, `TemConfig.recovered_values`.  The fast paths are
validated against the scalar `ctem_encode` / `iftem_encode` reference
implementations, which bracket each fire by a scan at a step and refine by
plain bisection (the integrate-and-fire one on Gauss quadrature).
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import EncodingInvariantError, GapError, InputError, PreconditionError
from .generator import LeakMoments, bspline_eval, piece_polynomials

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
    lambda_slope: float = None

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
        if self.lambda_slope is None:
            object.__setattr__(self, "lambda_slope", 2.0 * self.b_level / self.delta_target)
        if self.theta is None:
            object.__setattr__(
                self, "theta",
                (self.b_level - self.c_bound) * self.kappa_alpha(self.delta_target),
            )

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
        """One row per fire, from one format template per device: no string spans every fire."""
        with open(path, "w") as fh:
            fh.write("device_id,fire_index,time,recovered_value\n")
            for j, (t, v) in enumerate(zip(self.times, self.values)):
                row = [j, 0, 0.0, 0.0] * t.size
                row[1::4], row[2::4], row[3::4] = range(t.size), t.tolist(), v.tolist()
                fh.write("%d,%d,%.17g,%.17g\n" * t.size % tuple(row))


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


def iftem_encode(f, cfg, horizon, grid_step=None):
    """Integrate-and-fire encoder for a single time slice (scalar reference).

    Advances the biased leaky integral with a per-step Gauss rule on a
    uniform evaluation grid and fires when it reaches theta; the fire time
    is refined by bisection to 1e-12 (the integral is strictly increasing
    near threshold because the derived theta keeps (f + b) dominant over the
    leak).  Per-interval integrals are recovered from times alone as
    theta - b * kappa_alpha(gap).  Returns (times, integrals).
    """
    if cfg.mode != "integrate-and-fire":
        raise InputError("config mode must be 'integrate-and-fire'")
    t0, t_end = float(horizon[0]), float(horizon[1])
    h = grid_step if grid_step is not None else cfg.delta_target / 8.0
    b, alpha, theta = cfg.b_level, cfg.alpha, cfg.theta
    min_gap = theta / (cfg.b_level + cfg.c_bound)
    h = min(h, max(min_gap, BISECTION_TOL), 0.5)  # at most one fire per step
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

def _slice_matrix(vsig, devices):
    """Per-device time-axis coefficients, stacked as a (devices, n_k1) matrix."""
    w = vsig.window
    bs = bspline_eval(vsig.generator.order_s,
                      devices.positions[:, None] - w.k2s[None, :])
    return bs @ vsig.coeffs.entries.T


class _SliceTable:
    """Device slices as polynomials on the unit pieces between their knots.

    Every slice lies in the shift-invariant B-spline space, so it is one
    polynomial on each unit piece: pieces sit on the integers for even
    orders and on the half-integers for odd ones.  `poly[j, s, d]` is the
    coefficient of u^d on piece s of device j, where u is the distance from
    the piece's left edge `origin + s`.  The first and the last piece are
    zero, and every point outside the window reads from them, as
    `bspline_eval` reads zero there.  Evaluation is a gather plus Horner;
    the slope runs alongside in the same loop.
    """

    def __init__(self, vsig, devices):
        order = vsig.generator.order_t
        coefs = _slice_matrix(vsig, devices)
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
        """(piece index, offset from the piece's left edge) of each point."""
        s = (t - self.origin).astype(np.intp)
        s = np.minimum(np.maximum(s, 0, out=s), self.last, out=s)
        return s, t - (self.origin + s)

    def pieces(self, rows, s):
        """Coefficients of piece s[...] of device rows[...], broadcast together."""
        flat = self.poly.reshape(-1, self.order)
        return np.take(flat, s + rows * self.poly.shape[1], axis=0)

    def __call__(self, rows, t, slope=False):
        """f[i, ...] = slice of device rows[i] at t[i, ...] (or t broadcast).

        `t` is (rows, points) per row, or (points,) shared by every row.
        With `slope`, returns (values, time derivatives).
        """
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


def _check_slice_amplitude(vals, cfg, rows, ts):
    """`PreconditionError` naming the device and time of the largest sample
    when it exceeds the amplitude bound; `ts` broadcasts against `vals`."""
    mag = np.abs(vals)
    i = int(np.argmax(mag))
    if mag.flat[i] > cfg.c_bound + 1e-12:
        r, k = np.unravel_index(i, vals.shape)
        t = np.broadcast_to(ts, vals.shape)[r, k]
        raise PreconditionError(
            f"{cfg.mode} encoder: signal amplitude {mag.flat[i]:.6g} exceeds "
            f"c_bound={cfg.c_bound} on device {int(rows[r])} at t={t:.6g}"
        )


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


def _piece_fires(c, edge, lo, hi, tp, b, lam, n_fires):
    """The first `n_fires` candidate order-2 fires of each row, (rows, n_fires),
    on its piece f = c0 + c1 u, u = t - edge, from t_prev = tp on [lo, hi].

    On a falling piece (c1 < lambda) the first fire t_1 is the root of the
    linear g = f + b - lambda (t - t_prev), clamped to [lo, hi].  The ramp
    restarts at each fire, so the next gap is
    h_1 = (f(t_1) + b) / (lambda - c1) and, as f(t_2) + b = lambda h_1, each
    later one A = lambda / (lambda - c1) times the last: fire k is
    t_1 + h_1 (A^k - 1) / (A - 1).  A flat or rising piece fires once, at
    lo, where rounding flipped a sign at an end.
    """
    c0, c1 = c[:, 0], c[:, 1]
    falling = c1 < lam
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        root = edge + (c0 + b - lam * (edge - tp)) / (lam - c1)
        t1 = np.where(falling, np.minimum(np.maximum(root, lo), hi), lo)
        h1 = (c0 + b + c1 * (t1 - edge)) / (lam - c1)
        x = (c1 / (lam - c1))[:, None]              # A - 1
        k = np.arange(n_fires)
        # (A^k - 1) / (A - 1) without cancellation near A = 1
        span = np.where(x == 0.0, k, np.expm1(k * np.log1p(x)) / x)
        times = t1[:, None] + h1[:, None] * span
    times[~falling, 1:] = np.inf
    return times


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


def encode_ctem_devices(vsig, devices, cfg, horizon):
    """Crossing-encode every device of a set in lockstep; returns TemOutput.

    A round gathers every active device's current knot piece once and reads
    g = f + b - lambda (t - t_prev) on the segment from the device's
    position to the piece end, or to t_prev + delta_target or the horizon
    end where they come first: at its ends and at the roots of f' - lambda
    inside it (`_real_roots`, once per encode).  g is monotone between
    reads, so where all are positive the device moves to its next piece,
    and otherwise the first read with g <= 0 and the one before it bracket
    the first crossing exactly.  At order 2 a round fires the whole piece
    (`_piece_fires`), up to the piece end and the horizon end, with room
    for every fire the gap lower bound (b - c_bound) / (lambda + max |c1|)
    allows on a unit piece, so a device takes one round per piece.  Above
    order 2, `_bracketed_newton` locates one fire per round from the
    secant start.  A gap longer than delta_target, where
    t_prev + delta_target lies inside the piece and the horizon, raises
    `EncodingInvariantError`: the amplitude bound, checked once per encode
    on the slice table, rules it out.  Values come from the times alone.
    """
    if cfg.mode != "crossing":
        raise InputError("config mode must be 'crossing'")
    t0, t_end = float(horizon[0]), float(horizon[1])
    b, lam, delta = cfg.b_level, cfg.lambda_slope, cfg.delta_target
    table = _SliceTable(vsig, devices)
    _check_table_amplitude(table, cfg, t0, t_end)
    # g's critical points on every piece, (devices, pieces, order - 2)
    # offsets in increasing order, +inf where a piece has fewer
    slope = table.poly[..., 1:] * np.arange(1.0, table.order)
    slope[..., 0] -= lam
    crit = _real_roots(slope.reshape(-1, table.order - 1)).reshape(slope.shape[:2] + (-1,))
    crit = np.sort(np.where(np.isnan(crit), np.inf, crit), axis=2)
    # the fires a unit order-2 piece can hold, from the gap lower bound
    n_fires = 1 + math.ceil((lam + np.abs(table.poly[..., 1]).max()) / (b - cfg.c_bound))
    J = len(devices)
    fires = _Fires(J, cfg.fire_slots(t_end - t0))
    t_prev = np.full(J, t0)
    pos = t_prev.copy()             # the last fire, or the last point read with g > 0
    piece = table.locate(pos)[0]
    idx = np.arange(J)              # the active devices
    while idx.size:
        tp, lo, s = t_prev[idx], pos[idx], piece[idx]
        c = table.pieces(idx, s)
        edge = table.origin + s
        cap = np.minimum(tp + delta, t_end)
        end = np.where(s < table.last, edge + 1.0, np.inf)     # the last piece has no end
        hi = np.minimum(end, cap)
        inner = np.clip(edge[:, None] + crit[idx, s], lo[:, None], hi[:, None])
        reads = np.concatenate([lo[:, None], inner, hi[:, None]], axis=1)     # increasing
        g = _horner(c[:, None], reads - edge[:, None]) + b - lam * (reads - tp[:, None])
        dip = g[:, 1:] <= 0.0                       # lo itself aside
        walk = ~dip.any(axis=1)
        stop = walk & (hi == cap)
        # no crossing by the window end: legal only when the horizon truncated the window
        late = np.any(tp[stop] + delta <= t_end + BISECTION_TOL)
        keep, fire = ~stop, ~walk
        rows, tp, c, edge, end = idx[fire], tp[fire], c[fire], edge[fire], end[fire]
        if table.order == 2:
            times = _piece_fires(c, edge, lo[fire], hi[fire], tp, b, lam, n_fires)
            ok = times[:, 1:] <= np.minimum(end, t_end)[:, None]
            ok &= times[:, :-1] < t_end - BISECTION_TOL     # a fire at the horizon end stops
            n = 1 + np.logical_and.accumulate(ok, axis=1).sum(axis=1)
            # a kept gap, or the one after the last kept fire, whose ramp
            # reaches delta_target inside the piece and the horizon
            ramp = times[:, :-1] + delta
            late |= np.any((times[:, 1:] > ramp) & (np.arange(1, n_fires) <= n[:, None])
                           & (np.minimum(ramp, t_end) <= end[:, None])
                           & (ramp <= t_end + BISECTION_TOL))
        else:
            at = np.flatnonzero(fire)
            hit = 1 + np.argmax(dip[at], axis=1)
            a, z, g_a, g_z = reads[at, hit - 1], reads[at, hit], g[at, hit - 1], g[at, hit]
            with np.errstate(divide="ignore", invalid="ignore"):
                start = np.where(g_a > 0.0, a + g_a / (g_a - g_z) * (z - a), a)

            def crossing(sub, t):
                f, df = _horner(c[sub], t - edge[sub], slope=True)
                return f + b - lam * (t - tp[sub]), df - lam

            times = _bracketed_newton(crossing, a, z, start)[:, None]
            n = np.ones(rows.size, dtype=int)
        if late:
            raise EncodingInvariantError(
                "no crossing found within delta_target despite amplitude bound"
            )
        fires.add(rows, times, n)
        t_prev[rows] = pos[rows] = last = times[np.arange(rows.size), n - 1]
        # a device whose candidates all fit (one, above order 2) stays on its piece
        full = n == times.shape[1]
        walk[fire] = ~full
        keep[fire] = (last < t_end - BISECTION_TOL) & (full | (end < t_end))
        on = idx[walk & keep]                       # onto the next piece, from its left edge
        piece[on] += 1
        pos[on] = table.origin + piece[on]
        idx = idx[keep]
    return fires.output(cfg, devices, t0, t_end)


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


def _check_table_amplitude(table, cfg, lo, hi):
    """Amplitude precondition of every slice over [lo, hi], from the table.

    A piece polynomial takes its extremes at its ends or where its slope
    vanishes, so each piece meeting [lo, hi] is read at its two ends and at
    the real roots of f' inside it (`_real_roots`), and the slices at lo
    and hi: the exact max |f| at every order.  Order-2 pieces are linear
    and read at their ends alone.
    """
    (first, last), _ = table.locate(np.array([lo, hi]))
    s = np.arange(first, last + 1)
    c = table.poly[:, s]                                    # (devices, pieces, order)
    every = np.arange(c.shape[0])
    slope = c[..., 1:] * np.arange(1.0, table.order)
    r = _real_roots(slope.reshape(-1, table.order - 1)).reshape(c.shape[:2] + (-1,))
    u = np.concatenate([np.broadcast_to([0.0, 1.0], c.shape[:2] + (2,)),
                        np.where((r > 0.0) & (r < 1.0), r, 0.0)], axis=2)
    ts = np.concatenate([(table.origin + s[:, None] + u).reshape(every.size, -1),
                         np.broadcast_to([lo, hi], (every.size, 2))], axis=1)
    vals = np.concatenate([_horner(c[..., None, :], u).reshape(every.size, -1),
                           table(every, np.array([lo, hi]))], axis=1)
    vals[(ts < lo) | (ts > hi)] = 0.0
    _check_slice_amplitude(vals, cfg, every, ts)


class _LeakyPiece:
    """Leaky running integrals of every device slice on one knot piece.

    E(t) = int_e^t exp(-alpha (t - u)) (f(u) + bias) du from the piece's
    left edge e is the biased piece polynomial against the `LeakMoments` of
    t - e.  y from s, with y(s) = y0, is E(t) - exp(-alpha (t - s)) (E(s) -
    y0), so one evaluation at a batch of points serves every interval
    between them.
    """

    def __init__(self, table, edge, moments, bias):
        self.coefs = table.poly[:, table.locate(np.array([edge]))[0][0]].copy()
        self.coefs[:, 0] += bias
        self.edge, self.moments = edge, moments

    def at(self, rows, t):
        """(E(t), f(t) + bias) at points t, (rows, points), of device rows."""
        c, u = self.coefs[rows], t - self.edge
        return np.einsum("rd,rpd->rp", c, self.moments(u)), _horner(c[:, None], u)


CHAIN_PASSES = 12     # Newton passes a row takes on a piece before `_finish_piece` takes over
CHAIN_TOL = 1e-8      # the largest kept step at which a row's chain stops


def _chain_fires(piece, a, z, y0, theta, alpha, n):
    """(times, counts): the fires of every device on the segment [a, z] of
    a piece, from y(a) = y0, by Newton on a chain of n candidates (see
    `encode_iftem_devices`); a device whose chain does not stop keeps none."""
    J, L = y0.size, z - a
    E, fb = piece.at(np.arange(J), np.broadcast_to([a, z], (J, 2)))
    base, fb_a, slope = E[:, 0] - y0, fb[:, :1], (fb[:, 1:] - fb[:, :1]) / L

    def gap(x, r):      # the gap over which a constant rate r lifts y from 0 to x
        return -np.log1p(-alpha * x / r) / alpha if alpha else x / r

    # r: the chord's rate at each gap's middle, at first its mean; r_eff:
    # the constant rate whose leaky integral over the gap is the chord's,
    # r + alpha r' h^2 / 12 to first order in alpha h
    r = r_eff = fb_a + 0.5 * slope * L
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(2):
            h = gap(theta, r_eff) - np.where(np.arange(n) == 0, gap(y0[:, None], r_eff), 0.0)
            Q = np.cumsum(r * h, axis=1)        # the chord's integral from a to each candidate
            disc = fb_a * fb_a + 2.0 * slope * Q
            tau = np.where(disc >= 0.0, 2.0 * Q / (fb_a + np.sqrt(disc)), L)
            h = np.diff(tau, prepend=0.0)
            r = fb_a + slope * (tau - 0.5 * h)
            r_eff = r + slope * alpha * h * h / 12.0
    T = np.clip(a + tau, a, z)
    times, counts = np.zeros((J, n)), np.zeros(J, dtype=int)
    idx = np.arange(J)
    for _ in range(CHAIN_PASSES):
        E, fb = piece.at(idx, T)
        decay = np.exp(-alpha * np.diff(T, prepend=a))
        y = E - decay * np.concatenate([base[idx, None], E[:, :-1]], axis=1)
        d = fb - alpha * y
        with np.errstate(all="ignore"):     # a non-finite step keeps no candidate
            lead = decay[:, 1:] * fb[:, :-1] / d[:, 1:]         # a_k, and c_k = -r_k / d_k
            P = np.cumprod(np.concatenate([np.ones((idx.size, 1)), lead], axis=1), axis=1)
            step = P * np.cumsum((theta - y) / (d * P), axis=1)     # delta = P cumsum(c / P)
            T_next = T + step
            kept = np.logical_and.accumulate(T_next <= z, axis=1)
        cnt = kept.sum(axis=1)
        done = ((np.where(kept, np.abs(step), 0.0).max(axis=1) <= CHAIN_TOL)
                & np.all((d > 0.0) | ~kept, axis=1))
        times[idx[done], : T.shape[1]] = T_next[done]
        counts[idx[done]] = cnt[done]
        idx, cnt = idx[~done], cnt[~done]
        if idx.size == 0:
            break
        T = np.clip(T_next[~done, : cnt.max() + 1], a, z)     # trim the columns no row reaches
    return times, counts


def _finish_piece(piece, s, y_s, z, theta, alpha, h, fires):
    """Add to `fires` every device's fires on [s, z] from y(s) = y_s, one per
    round, and return y at z.  A round reads y at steps h from s; the first
    read that reaches theta and the one before it bracket the fire, which
    `_bracketed_newton` locates from the secant across the bracket."""
    y_z, s, y_s, live = np.empty(s.size), s.copy(), y_s.copy(), np.arange(s.size)
    while True:
        steps = np.arange(max(math.ceil((z - s[live].min()) / h), 1) + 1)
        pts = np.minimum(s[live, None] + h * steps, z)
        pts[:, -1] = z
        E, _ = piece.at(live, pts)
        base = E[:, 0] - y_s[live]
        y = E - np.exp(-alpha * (pts - pts[:, :1])) * base[:, None]
        hit = y[:, 1:] >= theta
        fire = hit.any(axis=1)
        y_z[live[~fire]] = y[~fire, -1]
        if not fire.any():
            return y_z
        live, pts, y, base = live[fire], pts[fire], y[fire], base[fire]
        i, j = np.argmax(hit[fire], axis=1), np.arange(live.size)
        lo, hi, y_lo, y_hi = pts[j, i], pts[j, i + 1], y[j, i], y[j, i + 1]
        start = s[live]

        def level(q, t):
            Et, fb = piece.at(live[q], t[:, None])
            yt = Et[:, 0] - np.exp(-alpha * (t - start[q])) * base[q]
            return theta - yt, alpha * yt - fb[:, 0]

        t_fire = _bracketed_newton(level, lo, hi, lo + (theta - y_lo) / (y_hi - y_lo) * (hi - lo))
        fires.add(live, t_fire[:, None], np.ones(live.size, dtype=int))
        s[live], y_s[live] = t_fire, 0.0


def encode_iftem_devices(vsig, devices, cfg, horizon):
    """Integrate-and-fire-encode every device of a set; returns TemOutput.

    The devices advance in lockstep one knot piece at a time, and a round
    solves every fire each device makes on the piece at once
    (`_chain_fires`): Newton on a chain of n = ceil(piece / min_gap) + 2
    candidates t_k, whose residuals r_k = y(t_k) - theta run y from
    t_(k-1), or from the piece start with y carried in for k = 1; one
    `_LeakyPiece` evaluation gives them all.  The Jacobian is lower
    bidiagonal, dr_k/dt_k = f(t_k) + b - alpha y(t_k) and dr_k/dt_(k-1) =
    -exp(-alpha (t_k - t_(k-1))) (f(t_(k-1)) + b), so a Newton step is the
    recurrence delta_k = a_k delta_(k-1) + c_k, solved for all rows by
    `cumprod`/`cumsum`.  The start inverts the integral of the chord of
    f + b across the piece at the fire levels: theta apart at alpha = 0,
    and otherwise the constant-rate leaky gaps, at the chord's mean rate
    and then at each gap's own, leak-corrected.  A row stops once its
    largest step over the candidates kept, those up to the piece end, is
    at most CHAIN_TOL, with dr_k/dt_k > 0 at each.  Where b - c_bound -
    alpha theta > 0, as with the derived theta, y rises strictly between
    fires, so each fire is the one root after the last; where a given
    theta breaks that bound no chain runs.  Every device then finishes
    the piece in `_finish_piece` from its last chain fire, or from the
    piece start: a scan reads y at min_gap steps, and `_bracketed_newton`
    locates any fire the chain left (a row that did not stop within
    CHAIN_PASSES, or whose candidates ran out), one per round.  The last
    read is y at the piece end, carried to the next piece.  y at a fire
    is theta.
    """
    if cfg.mode != "integrate-and-fire":
        raise InputError("config mode must be 'integrate-and-fire'")
    t0, t_end = float(horizon[0]), float(horizon[1])
    b, alpha, theta = cfg.b_level, cfg.alpha, cfg.theta
    min_gap = theta / (cfg.b_level + cfg.c_bound)
    table = _SliceTable(vsig, devices)
    _check_table_amplitude(table, cfg, t0, t_end)
    J = len(devices)
    rows = np.arange(J)
    fires = _Fires(J, cfg.fire_slots(t_end - t0))
    moments = LeakMoments(alpha, table.order, alpha)    # t - e is at most 1 on a piece
    chain = b - cfg.c_bound - alpha * theta > 0.0       # y' > 0 while y <= theta

    a, y = t0, np.zeros(J)          # the segment start and y there
    while a < t_end:
        edge = table.origin + math.floor(a - table.origin)
        z = min(edge + 1.0, t_end)
        piece = _LeakyPiece(table, edge, moments, b)
        # the rest of the piece from the chain's last fire, where y is 0, or from a
        s, y_s = np.full(J, a), y.copy()
        if chain:
            times, n_fired = _chain_fires(piece, a, z, y, theta, alpha,
                                          math.ceil((z - a) / min_gap) + 2)
            fires.add(rows, times, n_fired)
            on = np.flatnonzero(n_fired)
            s[on], y_s[on] = times[on, n_fired[on] - 1], 0.0
        y, a = _finish_piece(piece, s, y_s, z, theta, alpha, min_gap, fires), z
    return fires.output(cfg, devices, t0, t_end)
