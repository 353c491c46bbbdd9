"""Measurement operators and the one contraction iteration of both machines.

Both reconstructions are one Richardson iteration on the coefficients of
the iterate (the frame-operator form of Feichtinger, Groechenig and
Strohmer), in residual form f_{n+1} = f_n + M (y - A f_n).  Per device j,
A_j re-measures the iterate's slice at the original firing times, y_j holds
the encoder-recovered measurements of the signal, and M_j maps the residual
back to time-axis coefficients, which one space factor spreads across
space.  The crossing machine samples at the fires and uses M = T S, the
projector after the nearest-fire quasi-interpolant, built from exact
interval integrals of the dual (differences of its spline antiderivative)
without a grid; the integrate-and-fire machine takes exact leak-weighted
interval integrals (`generator.spline_leaky_integrals`, on the moments of
`generator.LeakMoments`) and uses M = R, kernel slices at the interval
midpoints.  No second encoding pass is ever needed.

Divergence is a reported outcome, not an exception: the sufficient rate
bounds are wildly pessimistic and experiments deliberately sweep past them.
"""

import time as _time
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError
from .generator import bspline_eval, spline_basis, spline_leaky_integrals, spline_sum
from .kernel_space import VSignal, window_for_grid
from .mixed_norm import CoefSeq, GridFunction, MixedNormParams
from .tem_encode import density_report


# ---------------------------------------------------------------------------
# measurement operators
# ---------------------------------------------------------------------------

class MeasurementOperator:
    """Richardson update c -> M (y - A c) of one machine, folded per device.

    Per device j the measurement matrix A_j (fires x n1) and the synthesis
    matrix M_j (n1 x fires) enter the update only through M_j y_j, column j
    of `My`, and the n1 x n1 product M_j A_j, `MA[j]`, which is all the
    operator keeps (its size does not grow with the fire count).  The update
    column of device j is M_j y_j - (M_j A_j) c_j, with c_j = C slice_s[j]
    the time-axis coefficients of the iterate's slice at the device; the
    columns then spread across space through `space` (devices x n2).
    """

    def __init__(self, kernel, devices, window, My, MA, space):
        self.window, self.generator, self.space = window, kernel.generator, space
        self.slice_s = bspline_eval(kernel.generator.order_s,
                                    devices.positions[:, None] - window.k2s[None, :])
        self.My, self.MA = My, MA

    def synthesize(self, cols):
        """Signal with coefficients sum_j cols[:, j] (x) space[j]."""
        w = self.window
        return VSignal(CoefSeq(cols @ self.space, w.k1_first, w.k2_first), self.generator)

    def step(self, f_n):
        """The update M (y - A f_n) of one Richardson step."""
        slices = f_n.coeffs.entries @ self.slice_s.T
        return self.synthesize(self.My - np.einsum("jkl,lj->kj", self.MA, slices))


def ctem_operator(out, kernel, devices, window):
    """Crossing operator: A samples at the fire times, M = T S.

    S holds each residual sample constant over its nearest-fire cell (breaks
    at midpoints of consecutive fires, stubs extended to [t_start, t_end])
    and blends devices by the partition of unity; T analyses against the
    dual.  So M_j holds the exact dual integrals over the cells, and the
    space factor those of the partition weights, constant between ball ends
    (clipped to the device window).
    """
    if out.config.mode != "crossing":
        raise InputError("the crossing operator requires crossing-mode output")
    gen, dual = kernel.generator, kernel.dual
    edges = [np.concatenate([[out.t_start], 0.5 * (t[:-1] + t[1:]), [out.t_end]])
             if t.size else np.zeros(0) for t in out.times]
    # spline values of every device's edges at once, the gather per device
    first, vals = spline_basis(gen.order_t + 1, np.concatenate(edges) - 0.5)
    split = np.cumsum([e.size for e in edges])[:-1]
    C, k1s = np.cumsum(dual.axis_t.b), window.k1s + dual.axis_t.offsets[0]

    My, MA = np.zeros((window.n1, len(devices))), np.zeros((len(devices), window.n1, window.n1))
    for j, (t, f, v) in enumerate(zip(out.times, np.split(first, split), np.split(vals, split))):
        A_j = bspline_eval(gen.order_t, t[:, None] - window.k1s[None, :])
        M_j = np.diff(spline_sum((f, v), k1s, C, C[-1]), axis=0).T
        My[:, j], MA[j] = M_j @ out.values[j], M_j @ A_j

    # a repeated cut makes an empty piece, whose integrals are exactly 0
    pos, r = devices.positions, devices.delta_prime
    cuts = np.sort(np.clip(np.concatenate([pos - r, pos + r, devices.window]), *devices.window))
    pieces = np.diff(dual.axis_s.antiderivative(cuts, window.k2s), axis=0)
    space = devices.u_matrix(0.5 * (cuts[:-1] + cuts[1:])) @ pieces
    return MeasurementOperator(kernel, devices, window, My, MA, space)


# devices per fold of `iftem_operator`: its arrays never span every fire
_BLOCK = 32


def iftem_operator(out, kernel, devices, window):
    """Integrate-and-fire operator: A integrates over the firing intervals, M = R.

    A_j[i] holds the exact integrals of the time-axis B-splines against the
    leak weight exp(alpha (u - t_i)) over [t_{i-1}, t_i], banded
    (`spline_leaky_integrals`), so fresh integrals of the iterate match the
    encoder-recovered ones to root-finding accuracy.
    R g = sum_j sum_i I_i^(j) K(., .; s_i^(j), y_j) ||u_j||_L1 with interval
    midpoints s: M_j is the dual at the midpoints times ||u_j||_L1, and the
    space factor is the dual at the device positions.  The dual is
    sum_m b_m beta(. - m), so with B_j the B-spline basis at the midpoints
    (one `spline_basis`, `order` entries per row) and T the b-gather
    T[n, k] = b_(n - k), M_j = ||u_j|| T^T B_j^T: M_j A_j and M_j y_j fold
    through the banded products B_j^T A_j and B_j^T y_j, and no fires x n1
    matrix is formed.  `_BLOCK` devices are folded at a time.
    """
    if out.config.mode != "integrate-and-fire":
        raise InputError("the integrate-and-fire operator requires integrate-and-fire output")
    order, axis, n1, J = kernel.generator.order_t, kernel.dual.axis_t, window.n1, len(devices)
    weight = devices.u_l1_norms()
    # every midpoint basis index n lies in [n_lo, n_lo + N)
    n_lo = int(np.floor(out.t_start + order / 2.0)) - (order - 1)
    N = int(np.floor(out.t_end + order / 2.0)) + 1 - n_lo
    lag = (n_lo + np.arange(N))[:, None] - window.k1s[None, :] - axis.offsets[0]
    inside = (lag >= 0) & (lag < axis.b.size)
    T = np.where(inside, axis.b[np.clip(lag, 0, axis.b.size - 1)], 0.0)
    My, MA = np.zeros((n1, J)), np.zeros((J, n1, n1))
    for j0 in range(0, J, _BLOCK):
        ts = out.times[j0: j0 + _BLOCK]
        nb = len(ts)
        t = np.concatenate(ts)
        a = np.concatenate([np.concatenate([[out.t_start], tj])[:-1] for tj in ts])
        device = np.repeat(np.arange(nb), [tj.size for tj in ts])
        k0, R = spline_leaky_integrals(order, a, t, out.config.alpha)
        first, V = spline_basis(order, 0.5 * (a + t))
        rows = (device * N + first - n_lo)[:, None] - np.arange(order)    # B_j columns
        cols = k0[:, None] - window.k1_first + np.arange(R.shape[1])     # A_j columns
        R = np.where((cols >= 0) & (cols < n1), R, 0.0)                   # off the window
        flat = rows[:, :, None] * n1 + np.clip(cols, 0, n1 - 1)[:, None, :]
        G = np.bincount(flat.ravel(), (V[:, :, None] * R[:, None, :]).ravel(),
                        minlength=nb * N * n1).reshape(nb, N, n1)
        g = np.bincount(rows.ravel(), (V * np.concatenate(out.values[j0: j0 + nb])[:, None]).ravel(),
                        minlength=nb * N).reshape(nb, N)
        w = weight[j0: j0 + nb]
        MA[j0: j0 + nb] = w[:, None, None] * (T.T @ G)
        My[:, j0: j0 + nb] = (g @ T).T * w
    return MeasurementOperator(kernel, devices, window, My, MA,
                               kernel.dual.axis_s.eval(devices.positions[:, None]
                                                       - window.k2s[None, :]))


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
    return op.synthesize(op.My)


# ---------------------------------------------------------------------------
# contraction-rate estimates
# ---------------------------------------------------------------------------

def estimate_r1(kernel, delta, delta_prime):
    """Crossing-iteration rate bound: W-norm times modulus norm at the joint radius.

    Monotone non-decreasing in both arguments; an upper bound on the true
    per-step contraction, typically far above the measured ratio.
    """
    om = kernel.omega_w_norm(float(np.hypot(delta, delta_prime)))
    return kernel.w_norm() * om


def estimate_r2(kernel, delta, delta_prime, alpha):
    """Integrate-and-fire rate bound including the leak term (1 - e^{-alpha delta})."""
    om = kernel.omega_w_norm(float(np.hypot(delta, delta_prime)))
    W = kernel.w_norm()
    leak = -np.expm1(-alpha * delta)
    return W * (om * (2.0 * W + om) + leak * (W + om) ** 2)


# ---------------------------------------------------------------------------
# iteration driver
# ---------------------------------------------------------------------------

@dataclass
class ReconstructionReport:
    """Per-iteration mixed-norm errors with the fitted geometric ratio."""

    errors: list
    ratios: list
    r_hat: float
    predicted_bound: float
    converged: bool
    diverged: bool
    iterations: int
    tol: float
    blind: bool
    wall_time: float
    params: MixedNormParams = field(default=None)

    def log_error_fit(self):
        """(slope, r_squared) of a line through log10(errors) vs iteration index."""
        e = np.asarray(self.errors, dtype=float)
        mask = e > 0
        if mask.sum() < 3:
            return 0.0, 1.0
        n = np.arange(e.size)[mask]
        y = np.log10(e[mask])
        coef = np.polyfit(n, y, 1)
        resid = y - np.polyval(coef, n)
        ss_res = float(np.sum(resid**2))
        ss_tot = float(np.sum((y - y.mean()) ** 2))
        r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
        return float(coef[0]), r2

    def write_convergence_csv(self, path):
        with open(path, "w") as fh:
            fh.write("iter,error_lpq,ratio\n")
            for n, e in enumerate(self.errors):
                ratio = self.ratios[n - 1] if 1 <= n <= len(self.ratios) else float("nan")
                r = f"{ratio:.17g}" if np.isfinite(ratio) else ""
                fh.write(f"{n},{e:.17g},{r}\n")

    def summary_dict(self):
        slope, r2 = self.log_error_fit()
        return {
            "iterations": self.iterations,
            "converged": self.converged,
            "diverged": self.diverged,
            "final_error": self.errors[-1] if self.errors else float("nan"),
            "r_hat": self.r_hat,
            "predicted_bound": self.predicted_bound,
            "tol": self.tol,
            "blind": self.blind,
            "log_error_slope": slope,
            "log_error_r2": r2,
            "wall_time_s": self.wall_time,
        }


def _finish_report(errors, e_ref, tol, predicted, blind, t0, diverged, params):
    ratios = [errors[i + 1] / errors[i] if errors[i] > 0 else float("nan")
              for i in range(len(errors) - 1)]
    finite = [r for r in ratios if np.isfinite(r) and r > 0]
    r_hat = float(np.exp(np.mean(np.log(finite)))) if finite else float("nan")
    converged = bool(errors and errors[-1] <= tol * e_ref)
    return ReconstructionReport(errors, ratios, r_hat, predicted, converged, diverged,
                                len(errors) - 1, tol, blind, _time.time() - t0, params)


def _run_iteration(op, f_true, grid, params, n_max, tol, predicted):
    """Richardson driver: f_{n+1} = f_n + op.step(f_n), errors in the mixed norm.

    With ground truth the error is ||f - f_n||; blind mode tracks the update
    norm ||f_{n+1} - f_n|| instead and scales the tolerance by the first one.
    Stops at the tolerance, at `n_max`, or after three consecutive error
    increases (reported as divergence).  `params` defaults to p = q = 2.
    """
    t0 = _time.time()
    params = params or MixedNormParams(2.0, 2.0)
    blind = f_true is None
    window, gen = op.window, op.generator
    f_n = VSignal.zeros(window, gen)
    if not blind:
        e_ref = f_true.norm(grid, params)
        errors = [e_ref]
    else:
        e_ref = None
        errors = []
    diverged = False
    rising = 0
    for n in range(1, n_max + 1):
        upd = op.step(f_n)
        f_n = VSignal(CoefSeq(f_n.coeffs.entries + upd.coeffs.entries,
                              window.k1_first, window.k2_first), gen)
        if blind:
            e = upd.norm(grid, params)
            if e_ref is None:
                e_ref = e if e > 0 else 1.0
        else:
            e = (f_true - f_n).norm(grid, params)
        errors.append(e)
        if e <= tol * e_ref:
            break
        prev = errors[-2] if len(errors) >= 2 else None
        rising = rising + 1 if (prev is not None and prev > 0 and e > prev) else 0
        if rising >= 3:
            diverged = True
            break
    report = _finish_report(errors, e_ref if e_ref else 1.0, tol, predicted, blind, t0,
                            diverged, params)
    return f_n, report


def ctem_iterate(out, kernel, devices, grid, f_true=None, n_max=40, tol=1e-8,
                 params=None, window=None):
    """Crossing-sample iteration f_{n+1} = f_n + T S (f - f_n) over `ctem_operator`."""
    if window is None:
        window = f_true.window if f_true is not None else window_for_grid(grid, kernel.generator)
    max_gap = density_report(out, out.config.delta_target)[0]
    predicted = estimate_r1(kernel, max_gap, devices.delta_prime)
    op = ctem_operator(out, kernel, devices, window)
    return _run_iteration(op, f_true, grid, params, n_max, tol, predicted)


def iftem_iterate(out, kernel, devices, grid, f_true=None, n_max=40, tol=1e-8,
                  params=None, window=None):
    """Integrate-and-fire iteration f_{n+1} = f_n + R (f - f_n) over `iftem_operator`."""
    if window is None:
        window = f_true.window if f_true is not None else window_for_grid(grid, kernel.generator)
    max_gap = density_report(out, out.config.delta_target)[0]
    predicted = estimate_r2(kernel, max_gap, devices.delta_prime, out.config.alpha)
    op = iftem_operator(out, kernel, devices, window)
    return _run_iteration(op, f_true, grid, params, n_max, tol, predicted)
