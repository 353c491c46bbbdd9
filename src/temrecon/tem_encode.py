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
pieces to the first piece end where the crossing test function is no
longer positive; the fire lies on that one piece.  At order 2 the test
function is linear on each piece, so the fire is solved in closed form;
at higher orders a bracketed Newton iteration locates it.  The
integrate-and-fire running integral is exact: a piece polynomial,
Taylor-shifted to the interval start, against the leak-weighted moments
of `generator.LeakMoments`.  Each device walks a shared ladder of
evaluation steps to the step where the integral reaches the threshold,
and the bracketed Newton iteration locates the fire on it.  The fast
paths are validated against the scalar `ctem_encode` / `iftem_encode`
reference implementations, which bracket each fire by a scan at a step
and refine by plain bisection (the integrate-and-fire one on Gauss
quadrature).
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import EncodingInvariantError, GapError, InputError, PreconditionError
from .generator import LeakMoments, bspline_eval, piece_polynomials, taylor_shift

BISECTION_TOL = 1e-14
# probe points per unit length of the spatial window for the cover counts
COVER_PROBES = 64
_GAUSS_X, _GAUSS_W = np.polynomial.legendre.leggauss(4)


# ---------------------------------------------------------------------------
# device geometry
# ---------------------------------------------------------------------------

class DeviceSet:
    """Relatively separated device positions with gap `delta_prime`.

    `A_gamma` / `B_gamma` are the minimum and maximum closed-ball covering
    counts over a probe grid of the spatial window; construction fails with
    `GapError` when some probe point is uncovered (gap condition violated).
    The counts come from a sorted sweep, two `searchsorted` calls on the
    sorted positions, so no (devices x probes) array is formed.
    """

    def __init__(self, positions, delta_prime, window):
        self.positions = np.sort(np.asarray(positions, dtype=float))
        if self.positions.size == 0:
            raise InputError("device set must be nonempty")
        if delta_prime <= 0:
            raise InputError("gap delta_prime must be positive")
        self.delta_prime = float(delta_prime)
        self.window = (float(window[0]), float(window[1]))
        n = max(2, int(round((self.window[1] - self.window[0]) * COVER_PROBES)))
        probes = np.linspace(self.window[0], self.window[1], n + 1)
        counts = self.cover_counts(probes)
        self.A_gamma = int(counts.min())
        self.B_gamma = int(counts.max())
        if self.A_gamma < 1:
            bad = probes[int(np.argmin(counts))]
            raise GapError(f"probe y={bad:.6g} is not within {delta_prime} of any device")

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

    def u_l1_norms(self):
        """Exact L1 norms of the partition weights over the whole line.

        The weights are piecewise constant with breakpoints at the ball
        endpoints, so the integral is a finite sum of interval lengths
        divided by covering counts.
        """
        # sorted distinct ball endpoints, as np.unique computes them; np.unique
        # itself imports numpy.ma on first use (about 12 ms of a cold run)
        ends = np.sort(np.concatenate([self.positions - self.delta_prime,
                                       self.positions + self.delta_prime]))
        events = ends[np.concatenate([[True], ends[1:] != ends[:-1]])]
        out = np.zeros(self.positions.size)
        for lo, hi in zip(events[:-1], events[1:]):
            mid = 0.5 * (lo + hi)
            covering = np.abs(mid - self.positions) <= self.delta_prime
            n_cov = int(covering.sum())
            if n_cov:
                out[covering] += (hi - lo) / n_cov
        return out


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


@dataclass
class TemOutput:
    """Per-device firing times and the decoder-recoverable per-fire quantities.

    Crossing mode: `values[j][i]` is the signal value at `times[j][i]`,
    recomputed from the ramp, i.e. from times alone.  Integrate-and-fire
    mode: `values[j][i]` is the leak-weighted integral over the interval
    ending at `times[j][i]`, recovered as theta - b * kappa_alpha(gap).
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
        t = self.times[j]
        if t.size == 0:
            return np.array([self.t_end - self.t_start])
        edges = np.concatenate([[self.t_start], t, [self.t_end]])
        return np.diff(edges)

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
    times, values = [], []
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
        values.append(-b + lam * (t_fire - t_prev))
        t_prev = t_fire
    return np.array(times), np.array(values)


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
    times, integrals = [], []
    t_prev_fire = t0
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
            gap = t_fire - t_prev_fire
            times.append(t_fire)
            integrals.append(theta - b * float(cfg.kappa_alpha(gap)))
            t_prev_fire = t_fire
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
    return np.array(times), np.array(integrals)


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


def encode_ctem_devices(vsig, devices, cfg, horizon):
    """Crossing-encode every device of a set in lockstep; returns TemOutput.

    Each device walks its slice's knot pieces.  A round gathers every
    active device's current piece once and reads
    g = f + b - lambda (t - t_prev) at the piece end, or at
    t_prev + delta_target or the horizon end where they come first.  Where
    g > 0 the device moves on; otherwise the fire lies between that point
    and the last one read.  At order 2, g is linear on a piece, so the fire
    is its closed-form root and the first crossing exactly.  Higher orders
    run `_bracketed_newton` on g with g' = f' - lambda from the secant
    across the segment; there, pieces where f' may reach lambda (slope
    bound sum_d d |c_d|), on which g can dip and return, are read at
    ceil(8 / delta_target) steps per piece.

    The amplitude bound is checked once per encode on the slice table: at
    every piece end (exact at order 2) and, above order 2, at
    ceil(8 / delta_target) points per piece.
    """
    if cfg.mode != "crossing":
        raise InputError("config mode must be 'crossing'")
    t0, t_end = float(horizon[0]), float(horizon[1])
    b, lam, delta = cfg.b_level, cfg.lambda_slope, cfg.delta_target
    table = _SliceTable(vsig, devices)
    n_sub = 1 if table.order == 2 else math.ceil(8.0 / delta)
    _check_table_amplitude(table, cfg, t0, t_end, n_sub)
    # pieces where f' may reach lambda, so that g may dip and return
    steep = np.abs(table.poly[..., 1:]) @ np.arange(1.0, table.order) >= lam
    J = len(devices)
    max_fires = cfg.fire_slots(t_end - t0)
    all_times = np.zeros((J, max_fires))
    all_values = np.zeros((J, max_fires))
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
        if table.order > 2:
            hi = np.minimum(hi, np.where(steep[idx, s], lo + 1.0 / n_sub, np.inf))
        g_hi = _horner(c, hi - edge) + b - lam * (hi - tp)
        walk = g_hi > 0.0
        stop = walk & (hi == cap)
        # no crossing by the window end: legal only when the horizon truncated the window
        if np.any(tp[stop] + delta <= t_end + BISECTION_TOL):
            raise EncodingInvariantError(
                "no crossing found within delta_target despite amplitude bound"
            )
        moved = walk & ~stop
        pos[idx[moved]] = hi[moved]
        on = idx[moved & (hi == end)]       # onto the next piece, from its left edge
        piece[on] += 1
        pos[on] = table.origin + piece[on]
        keep = ~stop
        fire = ~walk
        if fire.any():
            rows, tp, lo, c, edge, hi, g_hi = (idx[fire], tp[fire], lo[fire], c[fire],
                                               edge[fire], hi[fire], g_hi[fire])
            if table.order == 2:
                # a decreasing piece is certain unless rounding flipped a sign
                # at an end; a flat or rising piece then holds the fire at lo
                with np.errstate(divide="ignore", invalid="ignore"):
                    root = edge + (c[:, 0] + b - lam * (edge - tp)) / (lam - c[:, 1])
                t_fire = np.where(c[:, 1] < lam, np.minimum(np.maximum(root, lo), hi), lo)
            else:
                g_lo = _horner(c, lo - edge) + b - lam * (lo - tp)
                with np.errstate(divide="ignore", invalid="ignore"):
                    start = np.where(g_lo > 0.0, lo + g_lo / (g_lo - g_hi) * (hi - lo), lo)

                def crossing(sub, t):
                    f, df = _horner(c[sub], t - edge[sub], slope=True)
                    return f + b - lam * (t - tp[sub]), df - lam

                t_fire = _bracketed_newton(crossing, lo, hi, start)
            k = counts[rows]
            all_times[rows, k] = t_fire
            all_values[rows, k] = -b + lam * (t_fire - tp)
            counts[rows] = k + 1
            t_prev[rows] = pos[rows] = t_fire
            if k.max() + 1 >= max_fires:
                raise EncodingInvariantError("fire-count bound exceeded")
            keep[fire] = t_fire < t_end - BISECTION_TOL
        idx = idx[keep]
    times = [all_times[j, : counts[j]].copy() for j in range(J)]
    values = [all_values[j, : counts[j]].copy() for j in range(J)]
    return TemOutput(cfg, devices, t0, t_end, times, values)


def _check_table_amplitude(table, cfg, lo, hi, n_sub):
    """Amplitude precondition of every slice over [lo, hi], from the table.

    Each piece meeting [lo, hi] is sampled at its two ends and n_sub - 1
    evenly spaced interior points, and the slices at lo and hi.  A linear
    piece takes its extremes at its ends, so n_sub = 1 is exact at order 2.
    """
    (first, last), _ = table.locate(np.array([lo, hi]))
    s = np.arange(first, last + 1)
    u = np.arange(n_sub + 1) / n_sub
    ts = np.concatenate([(table.origin + s[:, None] + u).ravel(), [lo, hi]])
    every = np.arange(table.poly.shape[0])
    vals = table.poly[:, s] @ (u ** np.arange(table.order)[:, None])
    vals = np.concatenate([vals.reshape(every.size, -1), table(every, ts[-2:])], axis=1)
    vals[:, (ts < lo) | (ts > hi)] = 0.0
    _check_slice_amplitude(vals, cfg, every, ts)


def _step_integrals(table, a, b, moments, bias):
    """I[k, j] = int_a[k]^b[k] exp(-alpha (b[k] - u)) (f_j(u) + bias) du.

    Steps shorter than a piece cross at most one knot q.  The steps are
    shared by every device, so each part is the gathered piece coefficients,
    Taylor-shifted to the part's start, against one (steps, order) table of
    moments.
    """
    s, u = table.locate(a)
    q = np.clip(table.origin + s + 1.0, a, b)      # past the table the piece is zero
    head = moments(q - a) * np.exp(-moments.alpha * (b - q))[:, None]
    I = np.einsum("jkd,kd->kj", taylor_shift(table.poly[:, s], u), head)
    I += np.einsum("jkd,kd->kj", table.poly[:, np.minimum(s + 1, table.last)], moments(b - q))
    I += bias * moments(b - a)[:, :1]
    return I


class _LeakySegments:
    """Leaky running integrals of a batch of device slices from given starts.

    Row i holds y(t) = y0[i] exp(-alpha (t - s[i])) +
    int_s[i]^t exp(-alpha (t - u)) (f(u) + bias) du for s[i] <= t <= hi[i],
    with hi[i] - s[i] shorter than a piece.  Such a segment crosses at most
    one knot q[i].  Both sides' starts, start values and biased piece
    coefficients (Taylor-shifted to the start) are fixed at construction,
    rows 0..n-1 before q and n..2n-1 after it, so an evaluation gathers its
    side and takes one `LeakMoments` call.
    """

    def __init__(self, table, rows, s, y0, hi, moments, bias):
        n = rows.size
        self.moments, self.n, self.hi = moments, n, hi
        p, u = table.locate(s)
        self.q = np.clip(table.origin + p + 1.0, s, hi)
        self.starts = np.concatenate([s, self.q])
        self.coefs = np.concatenate([taylor_shift(table.pieces(rows, p), u),
                                     table.pieces(rows, np.minimum(p + 1, table.last))])
        self.coefs[:, 0] += bias
        self.bases = np.concatenate([y0, self._y(y0, self.coefs[:n], self.q - s)])

    def _y(self, base, c, h):
        y = base * np.exp(-self.moments.alpha * h)
        y += (c * self.moments(h)).sum(axis=1)
        return y

    def at(self, sub, t):
        """(y(t), f(t) + bias) for rows sub at points t."""
        side = sub + self.n * (t > self.q[sub])
        h = t - self.starts[side]
        c = self.coefs[side]
        return self._y(self.bases[side], c, h), _horner(c, h)

    def newton_start(self, y_hi, theta):
        """A start for y(t) = theta per row, given y(hi) = y_hi >= theta > y0.

        The crossing lies on one side of q, a single piece, where the
        quadratic through y and y' at the side's start and y at its end is
        read at theta; the secant stands in where that quadratic has no
        root.  It starts Newton about 1e-6 from the root where the secant
        across the whole step starts it about 1e-3 away.
        """
        n = self.n
        past = (self.bases[n:] < theta) & (self.q < self.hi)    # beyond q
        t_lo = np.where(past, self.q, self.starts[:n])
        y_lo = np.where(past, self.bases[n:], self.bases[:n])
        slope = np.where(past, self.coefs[n:, 0], self.coefs[:n, 0]) - self.moments.alpha * y_lo
        H = np.where(past, self.hi, self.q) - t_lo
        Y = np.where(past, y_hi, self.bases[n:]) - y_lo
        D = theta - y_lo
        curve = (Y - slope * H) / (H * H)
        with np.errstate(divide="ignore", invalid="ignore"):
            root = np.sqrt(slope * slope + 4.0 * curve * D)
            tau = np.where(root + slope > 0.0, 2.0 * D / (slope + root), D / Y * H)
        return np.clip(t_lo + tau, self.starts[:n], self.hi)


def encode_iftem_devices(vsig, devices, cfg, horizon):
    """Integrate-and-fire-encode every device of a set; returns TemOutput.

    Each round locates the next fire of every device at once.  The leaky
    recurrence runs over a ladder of evaluation steps shared by all
    devices, with exact step integrals of the slice table: a device walks
    from the step holding its last fire until the running integral reaches
    theta at a step end.  That step brackets the fire, and
    `_bracketed_newton` locates it on g = theta - y(t) with
    g' = alpha y(t) - f(t) - b, from a quadratic start on the bracket's
    piece.  y(t) is exact: piece coefficients against `LeakMoments`.
    """
    if cfg.mode != "integrate-and-fire":
        raise InputError("config mode must be 'integrate-and-fire'")
    t0, t_end = float(horizon[0]), float(horizon[1])
    b, alpha, theta = cfg.b_level, cfg.alpha, cfg.theta
    min_gap = theta / (cfg.b_level + cfg.c_bound)
    # the step integrals are exact for spline slices at any step, so the
    # ladder only needs to isolate fires (gap >= min_gap)
    h = min(min_gap, 0.5)
    table = _SliceTable(vsig, devices)
    J = len(devices)
    n_steps = int(math.ceil((t_end - t0) / h))
    edges = np.minimum(t0 + h * np.arange(n_steps + 1), t_end)
    max_fires = cfg.fire_slots(t_end - t0)
    all_times = np.zeros((J, max_fires))
    all_ints = np.zeros((J, max_fires))
    counts = np.zeros(J, dtype=int)
    moments = LeakMoments(alpha, table.order, alpha * h)   # no integral spans more than a step

    # as dense as the 8 Gauss nodes per step that the step integrals replaced
    _check_table_amplitude(table, cfg, t0, t_end, 1 if table.order == 2 else math.ceil(8.0 / h))
    a_vec, b_vec = edges[:-1], edges[1:]
    I_step = _step_integrals(table, a_vec, b_vec, moments, b)   # (n_steps, J)
    step_decay = np.exp(-alpha * (b_vec - a_vec))

    # per device: the step k holding the segment start s (the last fire, or
    # a step edge), y at s, y at the end of step k, fires so far in step k
    k = np.zeros(J, dtype=int)
    s = np.full(J, t0)
    y_s = np.zeros(J)
    y_end = I_step[0].copy()
    in_step = np.zeros(J, dtype=int)
    t_prev_fire = np.full(J, t0)
    idx = np.arange(J)              # devices with steps left
    while True:
        walk = idx[y_end[idx] < theta]
        while walk.size:
            k[walk] += 1
            walk = walk[k[walk] < n_steps]
            s[walk], y_s[walk], in_step[walk] = edges[k[walk]], y_end[walk], 0
            y_end[walk] = y_s[walk] * step_decay[k[walk]] + I_step[k[walk], walk]
            walk = walk[y_end[walk] < theta]
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
        all_ints[idx, c] = theta - b * cfg.kappa_alpha(t_fire - t_prev_fire[idx])
        counts[idx] = c + 1
        if c.max() + 1 >= max_fires:
            raise EncodingInvariantError("fire-count bound exceeded")
        in_step[idx] += 1
        if in_step[idx].max() > 8:
            raise EncodingInvariantError("too many fires within one evaluation step")
        # a fresh integrator over the rest of the step: y at the step end
        # less what the fire took away, carried to the step end
        y_fire = segment.at(np.arange(idx.size), t_fire)[0]
        rest = y_end[idx] - y_fire * np.exp(-alpha * (hi - t_fire))
        y_end[idx] = np.where(hi - t_fire > BISECTION_TOL, rest, 0.0)
        t_prev_fire[idx], s[idx], y_s[idx] = t_fire, t_fire, 0.0
    times = [all_times[j, : counts[j]].copy() for j in range(J)]
    ints = [all_ints[j, : counts[j]].copy() for j in range(J)]
    return TemOutput(cfg, devices, t0, t_end, times, ints)
