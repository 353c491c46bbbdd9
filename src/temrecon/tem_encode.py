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
unit knot piece (integer knots for even orders, half-integer for odd).
The fast paths convert the slices once per encode into a table of
per-piece power-basis coefficients, and read values and slopes from it by
a gather plus Horner.  The crossing encoder walks each device along its
pieces and reads the crossing test function at the ends of its segment
on a piece and at the test function's critical points inside it, so the
first read where it is no longer positive brackets the first crossing.
At order 2 the test function is linear on each piece, so every fire on
a piece follows from the first in closed form (the gaps are geometric)
and a round fires the whole piece; at higher orders a bracketed Newton
iteration locates one fire per round.  The integrate-and-fire running
integral is exact: a piece polynomial, Taylor-shifted to the interval
start, against the leak-weighted moments of `generator.LeakMoments`.
Each device walks a shared ladder of evaluation steps, integrated by the
banded rule `generator.spline_leaky_integrals`, to the step where the
integral reaches the threshold; the ladder holds every knot, so that step
lies on one piece, and the bracketed Newton iteration locates the fire on
it from a Halley step, usually in two evaluations.
Both check the amplitude bound on the exact max |f| of every piece.  All
four encoders take the recovered values from the gaps by one rule,
`TemConfig.recovered_values`.  The fast paths are validated against the
scalar `ctem_encode` / `iftem_encode` reference implementations, which
bracket each fire by a scan at a step and refine by plain bisection (the
integrate-and-fire one on Gauss quadrature).
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import EncodingInvariantError, GapError, InputError, PreconditionError
from .generator import (LeakMoments, band_columns, bspline_eval, piece_polynomials,
                        spline_leaky_integrals, taylor_shift)

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
    """Per-device firing times and the decoder-recoverable per-fire quantities.

    The encoders fill `values[j]` with `TemConfig.recovered_values` of
    `times[j]`: per fire, the signal value there (crossing) or the
    leak-weighted integral over the interval it ends (integrate-and-fire),
    from times alone.
    """

    config: TemConfig
    devices: DeviceSet
    t_start: float
    t_end: float
    times: list
    values: list

    def gaps(self, j):
        """Inter-fire gaps of device j, including the lead-in from the start
        anchor and the trailing stub to the horizon end."""
        return np.diff(self.times[j], prepend=self.t_start, append=self.t_end)

    def fire_count(self):
        return int(sum(t.size for t in self.times))

    def write_events_csv(self, path):
        """One row per fire; each device's rows come from one format template."""
        with open(path, "w") as fh:
            fh.write("device_id,fire_index,time,recovered_value\n")
            for j, (t, v) in enumerate(zip(self.times, self.values)):
                row = [j, 0, 0.0, 0.0] * t.size
                row[1::4], row[2::4] = range(t.size), t.tolist()
                row[3::4] = np.asarray(v).tolist()
                fh.write("%d,%d,%.17g,%.17g\n" * t.size % tuple(row))


def density_report(out, delta):
    """(max gap, fire count, ok flag): ok iff every gap is at most delta."""
    max_gap = 0.0
    any_fires = out.fire_count() > 0
    for j in range(len(out.devices)):
        max_gap = max(max_gap, float(out.gaps(j).max()))
    ok = any_fires and max_gap <= delta + 1e-12
    return max_gap, out.fire_count(), ok


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
        else:
            pass
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
        self.order, self.coefs, self.k_first = order, coefs, vsig.window.k1_first
        self.origin = self.k_first - order / 2.0 - 1.0
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
    max_fires = cfg.fire_slots(t_end - t0)
    all_times = np.zeros((J, max_fires))
    counts = np.zeros(J, dtype=int)
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
        k = counts[rows]
        if np.any(k + n >= max_fires):
            raise EncodingInvariantError("fire-count bound exceeded")
        r, i = np.nonzero(np.arange(times.shape[1]) < n[:, None])
        all_times[rows[r], k[r] + i] = times[r, i]
        counts[rows] = k + n
        t_prev[rows] = pos[rows] = last = times[np.arange(rows.size), n - 1]
        # a device whose candidates all fit (one, above order 2) stays on its piece
        full = n == times.shape[1]
        walk[fire] = ~full
        keep[fire] = (last < t_end - BISECTION_TOL) & (full | (end < t_end))
        on = idx[walk & keep]                       # onto the next piece, from its left edge
        piece[on] += 1
        pos[on] = table.origin + piece[on]
        idx = idx[keep]
    times = [all_times[j, : counts[j]].copy() for j in range(J)]
    return TemOutput(cfg, devices, t0, t_end, times, [cfg.recovered_values(t, t0) for t in times])


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


class _LeakySegments:
    """Leaky running integrals of a batch of device slices from given starts.

    Row i holds y(t) = y0[i] exp(-alpha (t - s[i])) +
    int_s[i]^t exp(-alpha (t - u)) (f(u) + bias) du for s[i] <= t <= hi[i],
    where [s[i], hi[i]] lies inside one knot piece: the step ladder of
    `encode_iftem_devices` holds every piece edge.  The biased piece
    coefficients, Taylor-shifted to the start, are fixed at construction,
    so an evaluation takes one `LeakMoments` call and one Horner pass.
    """

    def __init__(self, table, rows, s, y0, hi, moments, bias):
        self.moments, self.starts, self.y0, self.hi = moments, s, y0, hi
        p, u = table.locate(s)
        self.coefs = taylor_shift(table.pieces(rows, p), u)
        self.coefs[:, 0] += bias

    def at(self, sub, t, slope=False):
        """(y(t), f(t) + bias) for rows sub at points t; with `slope`, f'(t)
        from the same Horner pass as a third entry."""
        h = t - self.starts[sub]
        c = np.take(self.coefs, sub, axis=0)
        f = _horner(c, h, slope)
        y = self.y0[sub] * np.exp(-self.moments.alpha * h)
        y += np.einsum("nd,nd->n", c, self.moments(h))
        return (y,) + (f if slope else (f,))

    def newton_start(self, y_hi, theta):
        """A start for y(t) = theta per row, given y(hi) = y_hi >= theta > y0.

        On the row's piece the quadratic through y and y' at s and y at hi
        is read at theta; the secant stands in where that quadratic has no
        root.  That point lies about 1e-6 from the root.  One evaluation
        there, with f' from the same Horner pass, takes a Halley step on
        g = theta - y, with g' = alpha y - f - b and
        g'' = alpha (f + b - alpha y) - f'; the Halley point stands where it
        is finite and strictly inside (s, hi), else the quadratic point.
        Newton usually accepts it at its first evaluation.
        """
        alpha = self.moments.alpha
        slope = self.coefs[:, 0] - alpha * self.y0
        H, Y, D = self.hi - self.starts, y_hi - self.y0, theta - self.y0
        curve = (Y - slope * H) / (H * H)
        with np.errstate(divide="ignore", invalid="ignore"):
            root = np.sqrt(slope * slope + 4.0 * curve * D)
            tau = np.where(root + slope > 0.0, 2.0 * D / (slope + root), D / Y * H)
        start = np.clip(self.starts + tau, self.starts, self.hi)
        y, f, df = self.at(np.arange(start.size), start, slope=True)
        g, dg = theta - y, alpha * y - f
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            t = start - 2.0 * g * dg / (2.0 * dg * dg - g * (alpha * (f - alpha * y) - df))
        return np.where((t > self.starts) & (t < self.hi), t, start)


def encode_iftem_devices(vsig, devices, cfg, horizon):
    """Integrate-and-fire-encode every device of a set; returns TemOutput.

    Each round locates the next fire of every device at once.  The leaky
    recurrence runs over a ladder of evaluation steps shared by all
    devices, with exact step integrals of the slices: a device walks
    from the step holding its last fire until the running integral reaches
    theta at a step end.  The ladder holds every knot piece edge inside the
    horizon, so that step, which brackets the fire, lies on one piece.
    `_bracketed_newton` locates the fire on g = theta - y(t) with
    g' = alpha y(t) - f(t) - b, from a Halley step off a quadratic start on
    the piece (`_LeakySegments.newton_start`): usually two evaluations per
    fire, as Newton accepts that point at once.  y at the fire is theta.
    y(t) is exact: piece coefficients against `LeakMoments`.
    """
    if cfg.mode != "integrate-and-fire":
        raise InputError("config mode must be 'integrate-and-fire'")
    t0, t_end = float(horizon[0]), float(horizon[1])
    b, alpha, theta = cfg.b_level, cfg.alpha, cfg.theta
    min_gap = theta / (cfg.b_level + cfg.c_bound)
    # the step integrals are exact for spline slices at any step, so the
    # ladder only needs to isolate fires (gap >= min_gap) and cut at knots
    h = min(min_gap, 0.5)
    table = _SliceTable(vsig, devices)
    J = len(devices)
    knots = table.origin + np.arange(1, table.last + 1)
    edges = np.concatenate([t0 + h * np.arange(math.ceil((t_end - t0) / h)), knots, [t_end]])
    edges = np.sort(edges[(edges >= t0) & (edges <= t_end)])
    edges = edges[np.concatenate([[True], np.diff(edges) > 0.0])]
    n_steps = edges.size - 1
    max_fires = cfg.fire_slots(t_end - t0)
    all_times = np.zeros((J, max_fires))
    counts = np.zeros(J, dtype=int)
    moments = LeakMoments(alpha, table.order, alpha * h)   # no integral spans more than a step

    _check_table_amplitude(table, cfg, t0, t_end)
    # step integrals (n_steps, J): the banded rows against the slices'
    # B-spline coefficients, one band column at a time, plus the bias
    k0, R = spline_leaky_integrals(table.order, edges[:-1], edges[1:], alpha)
    cols, R = band_columns(k0, R, table.k_first, table.coefs.shape[1])
    I_step = np.repeat(b * cfg.kappa_alpha(np.diff(edges))[:, None], J, axis=1)
    for l in range(R.shape[1]):
        I_step += R[:, l, None] * table.coefs.T[cols[:, l]]
    step_decay = np.exp(-alpha * np.diff(edges))

    # per device: the step k holding the segment start s (the last fire, or
    # a step edge), y at s, y at the end of step k, fires so far in step k
    k = np.zeros(J, dtype=int)
    s = np.full(J, t0)
    y_s = np.zeros(J)
    y_end = I_step[0].copy()
    in_step = np.zeros(J, dtype=int)
    idx = np.arange(J)              # devices with steps left
    while True:
        walk = idx[y_end[idx] < theta]
        while walk.size:
            kw = k[walk] = k[walk] + 1
            walk, kw = walk[kw < n_steps], kw[kw < n_steps]
            yw = y_end[walk]
            s[walk], y_s[walk], in_step[walk] = edges[kw], yw, 0
            yw = y_end[walk] = yw * step_decay[kw] + I_step[kw, walk]
            walk = walk[yw < theta]
        idx = idx[k[idx] < n_steps]
        if idx.size == 0:
            break
        s0, y0, hi = s[idx], y_s[idx], edges[k[idx] + 1]
        segment = _LeakySegments(table, idx, s0, y0, hi, moments, b)

        def level(sub, t):
            yt, ft = segment.at(sub, t)
            return theta - yt, alpha * yt - ft

        t_fire = _bracketed_newton(level, s0, hi, segment.newton_start(y_end[idx], theta))
        c = counts[idx]
        all_times[idx, c] = t_fire
        counts[idx] = c + 1
        if c.max() + 1 >= max_fires:
            raise EncodingInvariantError("fire-count bound exceeded")
        n_in = in_step[idx] = in_step[idx] + 1
        if n_in.max() > 8:
            raise EncodingInvariantError("too many fires within one evaluation step")
        # a fresh integrator over the rest of the step: y at the step end
        # less what the fire took away, theta, carried to the step end
        rest = y_end[idx] - theta * np.exp(-alpha * (hi - t_fire))
        y_end[idx] = np.where(hi - t_fire > BISECTION_TOL, rest, 0.0)
        s[idx], y_s[idx] = t_fire, 0.0
    times = [all_times[j, : counts[j]].copy() for j in range(J)]
    return TemOutput(cfg, devices, t0, t_end, times, [cfg.recovered_values(t, t0) for t in times])
