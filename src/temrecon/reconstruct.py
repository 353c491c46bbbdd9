"""Pre-reconstruction operators and the two contraction iterations.

The crossing branch builds the piecewise-constant-in-time, partition-of-
unity-blended quasi-interpolant S from the recovered crossing samples and
iterates f_{n+1} = f_n + T S (f - f_n); the integrate-and-fire branch
assembles R from the recovered interval integrals against kernel slices at
the interval midpoints and iterates f_{n+1} = f_n + R (f - f_n).  Both are
the residual form of the textbook recursions f_{n+1} = f_1 + (I - TS) f_n
(resp. R): algebraically identical, but they make explicit that only the
residual is re-sampled, always at the original firing times, so no second
encoding pass is ever needed.  Fresh samples of the iterate come from exact
spline synthesis at the stored times.

Divergence is a reported outcome, not an exception: the sufficient rate
bounds are wildly pessimistic and experiments deliberately sweep past them.
"""

import time as _time
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError
from .generator import bspline_eval
from .kernel_space import VSignal, apply_T, window_for_grid
from .mixed_norm import CoefSeq, GridFunction, MixedNormParams, mixed_function_norm

_GAUSS_X, _GAUSS_W = np.polynomial.legendre.leggauss(4)


# ---------------------------------------------------------------------------
# pre-reconstruction operators
# ---------------------------------------------------------------------------

def apply_S(out, devices, grid, values_override=None):
    """Crossing-sample quasi-interpolant rendered on the grid.

    Piecewise constant in time between midpoints of consecutive fires
    (nearest-fire assignment, with the leading and trailing stubs extended
    from the nearest available sample) and blended across space by the
    device partition of unity.
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


def apply_R(out, kernel, devices, window, values_override=None):
    """Integrate-and-fire synthesis operator, assembled in coefficient space.

    R g = sum_j sum_i I_i^(j) * K(., .; s_i^(j), y_j) * ||u_j||_L1 with the
    per-interval integrals I and interval midpoints s; kernel slices are
    members of the signal space, so R lands in it by construction
    (coefficients beta-dual values at the slice anchors, truncated to the
    window).
    """
    if out.config.mode != "integrate-and-fire":
        raise InputError("apply_R requires integrate-and-fire output")
    gen, dual = kernel.generator, kernel.dual
    k1s, k2s = window.k1s, window.k2s
    l1 = devices.u_l1_norms()
    coefs = np.zeros((window.n1, window.n2))
    vals_src = values_override if values_override is not None else out.values
    for j in range(len(devices)):
        t = out.times[j]
        if t.size == 0:
            continue
        I = np.asarray(vals_src[j], dtype=float)
        mids = out.interval_midpoints(j)
        bt = dual.axis_t.eval(mids[:, None] - k1s[None, :])
        bs = dual.axis_s.eval(devices.positions[j] - k2s)
        coefs += l1[j] * np.outer(bt.T @ I, bs)
    return VSignal(CoefSeq(kernel.scale * coefs, window.k1_first, window.k2_first), gen)


# ---------------------------------------------------------------------------
# contraction-rate estimates
# ---------------------------------------------------------------------------

def estimate_r1(kernel, delta, delta_prime):
    """Crossing-iteration rate bound: W-norm times modulus norm at the joint radius.

    Monotone non-decreasing in both arguments; an upper bound on the true
    per-step contraction, typically far above the measured ratio.
    """
    radius = float(np.hypot(delta, delta_prime))
    return kernel.w_norm() * kernel.omega_w_norm(radius)


def estimate_r2(kernel, delta, delta_prime, alpha):
    """Integrate-and-fire rate bound including the leak term (1 - e^{-alpha delta})."""
    W = kernel.w_norm()
    om = kernel.omega_w_norm(float(np.hypot(delta, delta_prime)))
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


def _run_iteration(step_update, f_true, window, gen, grid, params, n_max, tol, predicted):
    """Shared driver: f_{n+1} = f_n + update(f_n), errors in the mixed norm.

    With ground truth the error is ||f - f_n||; blind mode tracks the update
    norm ||f_{n+1} - f_n|| instead and scales the tolerance by the first one.
    """
    t0 = _time.time()
    blind = f_true is None
    f_n = VSignal.zeros(window, gen)
    if not blind:
        e_ref = mixed_function_norm(f_true.render(grid), params)
        errors = [e_ref]
    else:
        e_ref = None
        errors = []
    diverged = False
    rising = 0
    for n in range(1, n_max + 1):
        upd = step_update(f_n)
        f_n = VSignal(CoefSeq(f_n.coeffs.entries + upd.coeffs.entries,
                              window.k1_first, window.k2_first), gen)
        if blind:
            e = mixed_function_norm(upd.render(grid), params)
            if e_ref is None:
                e_ref = e if e > 0 else 1.0
        else:
            e = mixed_function_norm((f_true - f_n).render(grid), params)
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
    """Crossing-sample iteration f_{n+1} = f_n + T S (f - f_n).

    The fixed crossing samples come from the encoder output; the iterate is
    re-sampled exactly at the same times by spline synthesis, so the update
    sees only the residual.  Stops at the tolerance, at `n_max`, or after
    three consecutive error increases (reported as divergence).
    """
    params = params or MixedNormParams(2.0, 2.0)
    if window is None:
        window = f_true.window if f_true is not None else window_for_grid(grid, kernel.generator)
    predicted = estimate_r1(kernel, max((float(out.gaps(j).max()) for j in range(len(devices))),
                                        default=out.config.delta_target), devices.delta_prime)
    ys = devices.positions

    def step(f_n):
        resid = [out.values[j] - f_n.eval_slice(ys[j], out.times[j])
                 for j in range(len(devices))]
        s_grid = apply_S(out, devices, grid, values_override=resid)
        return apply_T(kernel, s_grid, window=window)

    return _run_iteration(step, f_true, window, kernel.generator, grid, params, n_max, tol,
                          predicted)


def _interval_quadrature(out, j, alpha):
    """Gauss nodes and leak-weighted weights for every firing interval of device j.

    Each interval is split at the half-integer lattice (the spline
    breakpoints), with degenerate zero-length pieces padding the ragged
    split counts; the rule then integrates spline slices exactly, matching
    the encoder-side recovered integrals to root-finding accuracy.
    """
    t = out.times[j]
    prev = np.concatenate([[out.t_start], t[:-1]])
    max_gap = float(np.max(t - prev)) if t.size else 0.0
    n_pieces = int(np.ceil(max_gap / 0.5)) + 1
    first = np.ceil((prev + 1e-12) / 0.5) * 0.5
    edges = [prev]
    for i in range(n_pieces - 1):
        edges.append(np.clip(first + 0.5 * i, prev, t))
    edges.append(t)
    nodes_list, w_list = [], []
    for lo, hi in zip(edges[:-1], edges[1:]):
        half = 0.5 * (hi - lo)
        nodes = lo[:, None] + half[:, None] * (_GAUSS_X[None, :] + 1.0)
        nodes_list.append(nodes)
        w_list.append(half[:, None] * _GAUSS_W[None, :] * np.exp(alpha * (nodes - t[:, None])))
    return np.concatenate(nodes_list, axis=1), np.concatenate(w_list, axis=1)


def iftem_iterate(out, kernel, devices, grid, f_true=None, n_max=40, tol=1e-8,
                  params=None, window=None):
    """Integrate-and-fire iteration f_{n+1} = f_n + R (f - f_n).

    Fresh leak-weighted integrals of the iterate are taken by Gauss
    quadrature over the original firing intervals; the encoder-recovered
    integrals of f itself never change.
    """
    params = params or MixedNormParams(2.0, 2.0)
    if window is None:
        window = f_true.window if f_true is not None else window_for_grid(grid, kernel.generator)
    alpha = out.config.alpha
    predicted = estimate_r2(kernel, max((float(out.gaps(j).max()) for j in range(len(devices))),
                                        default=out.config.delta_target),
                            devices.delta_prime, alpha)
    gen = kernel.generator
    dual = kernel.dual
    k1s, k2s = window.k1s, window.k2s
    ys = devices.positions
    l1 = devices.u_l1_norms()
    # per-device caches: fresh-integral design matrices and the (fixed-time)
    # assembly factors of the synthesis operator
    designs = []
    synth_t, synth_s = [], []
    for j in range(len(devices)):
        nodes, w = _interval_quadrature(out, j, alpha)
        B = bspline_eval(gen.order_t, nodes.ravel()[:, None] - k1s[None, :])
        designs.append((B, w, nodes.shape))
        mids = out.interval_midpoints(j)
        synth_t.append(kernel.scale * l1[j] * dual.axis_t.eval(mids[:, None] - k1s[None, :]).T)
        synth_s.append(dual.axis_s.eval(ys[j] - k2s))
    bs_all = np.stack(synth_s) if synth_s else np.zeros((0, window.n2))

    def step(f_n):
        cols = np.zeros((window.n1, len(devices)))
        for j in range(len(devices)):
            B, w, shape = designs[j]
            c1 = f_n.slice_coef(ys[j])
            vals = (B @ c1).reshape(shape)
            resid = out.values[j] - (vals * w).sum(axis=1)
            cols[:, j] = synth_t[j] @ resid
        coefs = cols @ bs_all
        return VSignal(CoefSeq(coefs, window.k1_first, window.k2_first), gen)

    return _run_iteration(step, f_true, window, gen, grid, params, n_max, tol, predicted)
