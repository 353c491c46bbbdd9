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

from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .generator import (band_columns, bspline_eval, spline_basis, spline_cell_integrals,
                        spline_leaky_integrals)
from .kernel_space import VSignal, window_for_grid
from .mixed_norm import CoefSeq, MixedNormParams, csv_rows


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
    """Richardson update C -> M (y - A C) of one machine, folded per device,
    on the (n1, n2) coefficient array C of the iterate.

    Per device j the measurement matrix A_j (fires x n1) and the synthesis
    matrix M_j (n1 x fires) enter the update only through M_j y_j, column j
    of `My`, and the n1 x n1 product M_j A_j, `MA[j]`, which is all the
    operator keeps (its size does not grow with the fire count).  Both
    machines write M_j = w_j T^T P_j^T, with P_j banded in the time-axis
    B-splines and T the dual's b-gather T[n, k] = b_(n - k)
    (`DualAxis.toeplitz`), so M_j A_j and M_j y_j fold through the banded
    products P_j^T A_j and P_j^T y_j, and no fires x n1 matrix is formed.
    `rows(t, first, last)` gives the banded rows (k0, values) of P and A
    for one slice of the flat fire times, `_BLOCK` devices, with each
    device's first and last fire marked.  The update column of device j is
    M_j y_j - (M_j A_j) c_j, with c_j = C slice_s[j] the time-axis
    coefficients of the iterate's slice at the device; the columns then
    spread across space through `space` (devices x n2), so `step` maps an
    array to an array and no signal object is built inside the loop.
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
            o = out.offsets[j0: j0 + _BLOCK + 1]
            nb, fires = o.size - 1, slice(o[0], o[-1])
            dev = np.repeat(np.arange(nb), np.diff(o))      # the block's device of each fire
            first, last = np.diff(dev, prepend=-1) != 0, np.diff(dev, append=nb) != 0
            (p0, P), (a0, A) = rows(out.t[fires], first, last)
            p_cols, P = band_columns(p0, P, ns[0], N)
            a_cols, A = band_columns(a0, A, window.k1_first, n1)     # off the window: 0
            p_rows = dev[:, None] * N + p_cols
            flat = p_rows[:, :, None] * n1 + a_cols[:, None, :]
            G = np.bincount(flat.ravel(), (P[:, :, None] * A[:, None, :]).ravel(),
                            minlength=nb * N * n1).reshape(nb, N, n1)
            y = out.v[fires]
            g = np.bincount(p_rows.ravel(), (P * y[:, None]).ravel(),
                            minlength=nb * N).reshape(nb, N)
            w = weight[j0: j0 + nb]
            self.MA[j0: j0 + nb] = w[:, None, None] * (T.T @ G)
            self.My[:, j0: j0 + nb] = (g @ T).T * w

    def step(self, C):
        """The update M (y - A C) of one Richardson step: the iterate's
        (n1, n2) coefficient array to the update's."""
        slices = C @ self.slice_s.T
        return (self.My - np.einsum("jkl,lj->kj", self.MA, slices)) @ self.space


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

    def rows(t, first, last):
        cut = np.concatenate([[out.t_start], 0.5 * (t[:-1] + t[1:]), [out.t_end]])
        lo, hi = np.where(first, out.t_start, cut[:-1]), np.where(last, out.t_end, cut[1:])
        return spline_leaky_integrals(order, lo, hi, 0.0), spline_basis(order, t)

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

    def rows(t, first, last):
        a = np.where(first, out.t_start, np.concatenate([[out.t_start], t[:-1]]))
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
        """`iter,error_lpq,ratio` rows; row 0, and a ratio that is not
        finite (after a zero error), leave the ratio field empty."""
        ratio = np.append(np.nan, self.ratios)[: len(self.errors)]
        rows = csv_rows("%d,%.17g,%.17g\n", range(ratio.size), self.errors,
                        np.where(np.isfinite(ratio), ratio, np.nan))
        with open(path, "w") as fh:
            fh.write("iter,error_lpq,ratio\n" + rows.replace(",nan\n", ",\n"))

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
        }


def _finish_report(errors, e_ref, tol, predicted, blind, diverged):
    ratios = [errors[i + 1] / errors[i] if errors[i] > 0 else float("nan")
              for i in range(len(errors) - 1)]
    finite = [r for r in ratios if np.isfinite(r) and r > 0]
    r_hat = float(np.exp(np.mean(np.log(finite)))) if finite else float("nan")
    converged = bool(errors and errors[-1] <= tol * e_ref)
    return ReconstructionReport(errors, ratios, r_hat, predicted, converged, diverged,
                                len(errors) - 1, tol, blind)


def _run_iteration(op, f_true, grid, params, n_max, tol, predicted):
    """Richardson driver: C_{n+1} = C_n + op.step(C_n), errors in the mixed norm.

    The iterate is its coefficient array C_n from start to stop; only the
    returned signal wraps it.  Every error is the grid norm of one
    coefficient array: with ground truth the error f - f_n, and blind mode
    the update f_{n+1} - f_n, with the tolerance scaled by the first one.
    Stops at the tolerance, at `n_max`, or after three consecutive error
    increases (reported as divergence).  `params` defaults to p = q = 2.
    """
    params = params or MixedNormParams(2.0, 2.0)
    window, gen = op.window, op.generator
    blind = f_true is None
    if not blind and f_true.window.key != window.key:
        raise InputError("signal windows differ")

    def norm(C):
        return VSignal(CoefSeq(C, window.k1_first, window.k2_first), gen).norm(grid, params)

    C = np.zeros((window.n1, window.n2))
    e_ref = None if blind else norm(f_true.coeffs.entries)
    errors = [] if blind else [e_ref]
    rising = 0
    for _ in range(n_max):
        upd = op.step(C)
        C += upd
        e = norm(upd if blind else f_true.coeffs.entries - C)
        if e_ref is None:
            e_ref = e if e > 0 else 1.0
        errors.append(e)
        rising = rising + 1 if len(errors) >= 2 and 0 < errors[-2] < e else 0
        if e <= tol * e_ref or rising >= 3:
            break
    diverged = rising >= 3 and errors[-1] > tol * e_ref
    report = _finish_report(errors, e_ref if e_ref else 1.0, tol, predicted, blind, diverged)
    return VSignal(CoefSeq(C, window.k1_first, window.k2_first), gen), report


def ctem_iterate(out, kernel, devices, grid, f_true=None, n_max=40, tol=1e-8,
                 params=None, window=None):
    """Crossing-sample iteration f_{n+1} = f_n + T S (f - f_n) over `ctem_operator`."""
    if window is None:
        window = f_true.window if f_true is not None else window_for_grid(grid, kernel.generator)
    predicted = estimate_r1(kernel, out.max_gap, devices.delta_prime)
    op = ctem_operator(out, kernel, devices, window)
    return _run_iteration(op, f_true, grid, params, n_max, tol, predicted)


def iftem_iterate(out, kernel, devices, grid, f_true=None, n_max=40, tol=1e-8,
                  params=None, window=None):
    """Integrate-and-fire iteration f_{n+1} = f_n + R (f - f_n) over `iftem_operator`."""
    if window is None:
        window = f_true.window if f_true is not None else window_for_grid(grid, kernel.generator)
    predicted = estimate_r2(kernel, out.max_gap, devices.delta_prime, out.config.alpha)
    op = iftem_operator(out, kernel, devices, window)
    return _run_iteration(op, f_true, grid, params, n_max, tol, predicted)
