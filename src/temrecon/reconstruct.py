"""Measurement operators and the one contraction iteration of both machines.

Both reconstructions are one Richardson iteration on the coefficients of
the iterate (the frame-operator form of Feichtinger, Groechenig and
Strohmer), in residual form f_{n+1} = f_n + M (y - A f_n).  Per device j,
A_j re-measures the iterate's slice at the original firing times, y_j holds
the encoder-recovered measurements of the signal, and M_j maps the residual
back to time-axis coefficients, which one space factor spreads across
space.  The crossing machine samples at the fires and uses M = T S, the
projector after the nearest-fire quasi-interpolant, built from exact
interval integrals without a grid; the integrate-and-fire machine takes
exact leak-weighted interval integrals and uses M = R, kernel slices at the
interval midpoints.  One banded rule, `generator.spline_leaky_integrals`
(on the moments of `generator.LeakMoments`), gives every interval integral,
those of the dual through its Toeplitz gather (`DualAxis.toeplitz`), and
both operators build through one fold, `MeasurementOperator`.  No second
encoding pass is ever needed.

Divergence is a reported outcome, not an exception: the sufficient rate
bounds are wildly pessimistic and experiments deliberately sweep past them.
"""

import time as _time
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError
from .generator import (band_columns, bspline_eval, spline_basis, spline_cell_integrals,
                        spline_leaky_integrals)
from .kernel_space import VSignal, window_for_grid
from .mixed_norm import CoefSeq, MixedNormParams
from .tem_encode import density_report


# ---------------------------------------------------------------------------
# measurement operators
# ---------------------------------------------------------------------------

# devices per block of the operator fold: its arrays never span every fire
_BLOCK = 32


def _index_range(order, lo, hi):
    """Indices n of every B-spline beta(. - n) of the order that meets [lo, hi]."""
    return np.arange(int(np.floor(lo + order / 2.0)) - (order - 1),
                     int(np.floor(hi + order / 2.0)) + 1)


class MeasurementOperator:
    """Richardson update c -> M (y - A c) of one machine, folded per device.

    Per device j the measurement matrix A_j (fires x n1) and the synthesis
    matrix M_j (n1 x fires) enter the update only through M_j y_j, column j
    of `My`, and the n1 x n1 product M_j A_j, `MA[j]`, which is all the
    operator keeps (its size does not grow with the fire count).  Both
    machines write M_j = w_j T^T P_j^T, with P_j banded in the time-axis
    B-splines and T the dual's b-gather T[n, k] = b_(n - k)
    (`DualAxis.toeplitz`), so M_j A_j and M_j y_j fold through the banded
    products P_j^T A_j and P_j^T y_j, and no fires x n1 matrix is formed.
    `rows(ts)` gives the banded rows (k0, values) of P and of A for the
    fires of a block of devices with fire times ts; `_BLOCK` devices are
    folded at a time.  The update column of device j is
    M_j y_j - (M_j A_j) c_j, with c_j = C slice_s[j] the time-axis
    coefficients of the iterate's slice at the device; the columns then
    spread across space through `space` (devices x n2).
    """

    def __init__(self, out, kernel, devices, window, rows, weight, space):
        self.window, self.generator, self.space = window, kernel.generator, space
        self.slice_s = bspline_eval(kernel.generator.order_s,
                                    devices.positions[:, None] - window.k2s[None, :])
        n1, J = window.n1, len(devices)
        ns = _index_range(kernel.generator.order_t, out.t_start, out.t_end)
        N, T = ns.size, kernel.dual.axis_t.toeplitz(ns, window.k1s)
        self.My, self.MA = np.zeros((n1, J)), np.zeros((J, n1, n1))
        for j0 in range(0, J, _BLOCK):
            ts = out.times[j0: j0 + _BLOCK]
            nb = len(ts)
            (p0, P), (a0, A) = rows(ts)
            p_cols, P = band_columns(p0, P, ns[0], N)
            a_cols, A = band_columns(a0, A, window.k1_first, n1)     # off the window: 0
            p_rows = np.repeat(np.arange(nb), [t.size for t in ts])[:, None] * N + p_cols
            flat = p_rows[:, :, None] * n1 + a_cols[:, None, :]
            G = np.bincount(flat.ravel(), (P[:, :, None] * A[:, None, :]).ravel(),
                            minlength=nb * N * n1).reshape(nb, N, n1)
            y = np.concatenate(out.values[j0: j0 + nb])
            g = np.bincount(p_rows.ravel(), (P * y[:, None]).ravel(),
                            minlength=nb * N).reshape(nb, N)
            w = weight[j0: j0 + nb]
            self.MA[j0: j0 + nb] = w[:, None, None] * (T.T @ G)
            self.My[:, j0: j0 + nb] = (g @ T).T * w

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
    dual.  So P_j holds the exact B-spline integrals over the cells, A_j
    the B-splines at the fires, and the space factor the exact dual
    integrals of the partition weights, constant between `DeviceSet.cuts`.
    """
    if out.config.mode != "crossing":
        raise InputError("the crossing operator requires crossing-mode output")
    order, axis_s = kernel.generator.order_t, kernel.dual.axis_s

    def rows(ts):
        cuts = [np.concatenate([[out.t_start], 0.5 * (t[:-1] + t[1:]), [out.t_end]])
                if t.size else t for t in ts]
        lo, hi = np.concatenate([c[:-1] for c in cuts]), np.concatenate([c[1:] for c in cuts])
        return spline_leaky_integrals(order, lo, hi, 0.0), spline_basis(order, np.concatenate(ts))

    # a repeated cut makes an empty piece, whose integrals are exactly 0
    cuts = devices.cuts()
    ns = _index_range(axis_s.order, *devices.window)
    pieces = (spline_cell_integrals(axis_s.order, cuts[:-1], cuts[1:], ns)
              @ axis_s.toeplitz(ns, window.k2s))
    space = devices.u_matrix(0.5 * (cuts[:-1] + cuts[1:])) @ pieces
    return MeasurementOperator(out, kernel, devices, window, rows, np.ones(len(devices)), space)


def iftem_operator(out, kernel, devices, window):
    """Integrate-and-fire operator: A integrates over the firing intervals, M = R.

    A_j[i] holds the exact integrals of the time-axis B-splines against the
    leak weight exp(alpha (u - t_i)) over [t_{i-1}, t_i], banded, so fresh
    integrals of the iterate match the encoder-recovered ones to
    root-finding accuracy.
    R g = sum_j sum_i I_i^(j) K(., .; s_i^(j), y_j) ||u_j||_L1 with interval
    midpoints s: M_j is the dual at the midpoints times ||u_j||_L1, so P_j
    is the B-spline basis at the midpoints, and the space factor is the
    dual at the device positions.
    """
    if out.config.mode != "integrate-and-fire":
        raise InputError("the integrate-and-fire operator requires integrate-and-fire output")
    order = kernel.generator.order_t

    def rows(ts):
        t = np.concatenate(ts)
        a = np.concatenate([np.concatenate([[out.t_start], tj])[:-1] for tj in ts])
        return (spline_basis(order, 0.5 * (a + t)),
                spline_leaky_integrals(order, a, t, out.config.alpha))

    space = kernel.dual.axis_s.eval(devices.positions[:, None] - window.k2s[None, :])
    return MeasurementOperator(out, kernel, devices, window, rows, devices.u_l1_norms(), space)


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
