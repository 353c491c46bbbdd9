"""Constructive frame machinery: averaged kernel, Neumann inverse, atoms.

Everything here runs on the lattice Lambda = delta Z x delta Z restricted
to the signal window.  The cell-averaged kernel and all compositions stay
separable per axis, and powers of the averaged projector collapse through
the idempotency algebra, so the truncated Neumann inverse

    T_plus(N) = (N + 1) T + sum_{m=1..N} (-1)^m binom(N+1, m+1) T_delta^m

needs only per-axis grid-matrix powers of the averaged kernel.  Atoms and
their duals are separable as well; analysis coefficients of a signal in V
collapse to scaled cell averages (exact, because T f = f there).

The contraction gate is a *measured* quantity: the operator norm of
I - T_delta restricted to the coefficient window (computed exactly from
the per-axis matrices via a Kronecker product).  The two expressions the
sufficient condition takes a maximum over are both reported alongside; at
desk-scale lattice spacings they sit far above one while the measured
contraction is comfortably small.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractionError, InputError
from .generator import bspline_eval, knot_split_rule
from .kernel_space import (
    GridFactor1D,
    Kernel,
    window_for_grid,
)
from .mixed_norm import (
    CoefSeq,
    composite_weights,
    mixed_function_norm,
    mixed_sequence_norm,
)


def _lattice(lo, hi, delta):
    n = round((hi - lo) / delta)
    if abs(n * delta - (hi - lo)) > 1e-9:
        raise InputError("lattice spacing must divide the window extent")
    return lo + delta * np.arange(int(n) + 1)


class _AxisFrame:
    """Per-axis grid matrices of the averaged kernel and its Neumann powers."""

    def __init__(self, factor, xs, weights, delta):
        self.xs = xs
        self.w = weights
        self.delta = delta
        self.lattice = _lattice(xs[0], xs[-1], delta)
        # knot-split Gauss rule over the cells lattice point +- delta / 2
        nodes, wq = knot_split_rule(self.lattice - delta / 2.0, self.lattice + delta / 2.0)
        self.nodes, self.wq = nodes, wq
        flat = nodes.ravel()
        # P[i, l] = integral over cell l of kappa(x_i, .), Q[l, j] transposed side
        KxN = factor.eval_outer(xs, flat) * wq.ravel()[None, :]
        self.P = KxN.reshape(xs.size, self.lattice.size, nodes.shape[1]).sum(axis=2)
        KNx = factor.eval_outer(flat, xs) * wq.ravel()[:, None]
        self.Q = KNx.reshape(self.lattice.size, nodes.shape[1], xs.size).sum(axis=1)
        self.M0 = factor.eval_outer(xs, xs)
        self.M_delta = (self.P @ self.Q) / delta

    def powers(self, n_max):
        """[M_delta, M_delta^2, ..., M_delta^n_max] under weighted composition."""
        out = [self.M_delta]
        for _ in range(n_max - 1):
            out.append(self.M_delta @ (self.w[:, None] * out[-1]))
        return out


def build_Kdelta(kernel, delta, grid):
    """Cell-averaged kernel on the grid: K_delta = (1/delta^2) P Q per axis.

    Per-cell product Gauss quadrature (4 points per knot-split piece per
    axis); satisfies the commutation T_delta T = T T_delta = T_delta and the
    norm bound ||K_delta - K|| <= ||K|| ||omega(K)|| checked downstream.
    """
    ax_t = _AxisFrame(kernel.factor_t, grid.xs, grid.weights_x, delta)
    ax_s = _AxisFrame(kernel.factor_s, grid.ys, grid.weights_y, delta)
    kd = Kernel(GridFactor1D(grid.xs, ax_t.M_delta, grid.weights_x),
                GridFactor1D(grid.ys, ax_s.M_delta, grid.weights_y),
                scale=kernel.scale**2)
    kd.axis_frames = (ax_t, ax_s)
    return kd


def neumann_coefficients(N):
    """Coefficients gamma_m of T_plus(N) = gamma_0 T + sum gamma_m T_delta^m."""
    gamma = [float(N + 1)]
    for m in range(1, N + 1):
        gamma.append((-1.0) ** m * math.comb(N + 1, m + 1))
    return gamma


class KernelSum:
    """Finite sum of separable grid kernels sum_m c_m At_m(x,s) As_m(y,t)."""

    def __init__(self, coefs, terms_t, terms_s, xs, ys):
        self.coefs = list(coefs)
        self.terms_t = list(terms_t)
        self.terms_s = list(terms_s)
        self.xs, self.ys = xs, ys

    def w_norm_estimate(self, stride_outer=16, stride_inner=8, interior=None):
        """Nested kernel-norm estimate over strided subgrids.

        Subsampling keeps the cost quadratic instead of quartic.  When the
        kernels were assembled on a padded grid, `interior = (lo, hi)`
        restricts every supremum to the stated interval (integrals still run
        over the whole padded range), which removes the lattice-truncation
        band near the padding boundary from the sups.
        """
        it = np.arange(0, self.xs.size, stride_outer)
        ip = np.arange(0, self.ys.size, stride_inner)
        wy_p = composite_weights(ip.size, (self.ys[ip][-1] - self.ys[ip][0]) / (ip.size - 1))
        wx_o = composite_weights(it.size, (self.xs[it][-1] - self.xs[it][0]) / (it.size - 1))
        if interior is None:
            mask_t = np.ones(it.size, dtype=bool)
            mask_s = np.ones(ip.size, dtype=bool)
        else:
            lo, hi = interior
            mask_t = (self.xs[it] >= lo) & (self.xs[it] <= hi)
            mask_s = (self.ys[ip] >= lo) & (self.ys[ip] <= hi)
        stack_s = np.stack([Ms[np.ix_(ip, ip)] for Ms in self.terms_s])  # (m, P, Q)
        stack_t = np.stack([c * Mt[np.ix_(it, it)] for c, Mt in zip(self.coefs, self.terms_t)])
        inner = np.zeros((it.size, it.size))
        for a in range(it.size):
            for b_ in range(it.size):
                field = np.abs(np.tensordot(stack_t[:, a, b_], stack_s, axes=(0, 0)))
                row = np.max((field @ wy_p)[mask_s])
                col = np.max((wy_p @ field)[mask_s])
                inner[a, b_] = max(row, col)
        return max(float(np.max((inner @ wx_o)[mask_t])),
                   float(np.max((wx_o @ inner)[mask_t])))


def neumann_plus(kernel, kdelta, N, r0=None):
    """Truncated Neumann inverse of the averaged projector, as a kernel sum.

    Requires a measured contraction r0 < 1 (taken from the axis frames when
    not supplied); the truncation tail in operator norm is bounded by
    r0^(N+1) / (1 - r0).
    """
    ax_t, ax_s = kdelta.axis_frames
    if r0 is None:
        r0 = measured_r0(kernel, kdelta)
    if not (r0 < 1.0):
        raise ContractionError(f"measured contraction r0 = {r0:.6g} >= 1")
    gamma = neumann_coefficients(N)
    pt = [ax_t.M0] + ax_t.powers(N) if N >= 1 else [ax_t.M0]
    ps = [ax_s.M0] + ax_s.powers(N) if N >= 1 else [ax_s.M0]
    return KernelSum(gamma, pt[: N + 1], ps[: N + 1], ax_t.xs, ax_s.xs)


def _coef_operator(axis, gen_order, dual_axis, window_first, n_k):
    """Coefficient-space matrix of the averaged projector on one axis."""
    ks = window_first + np.arange(n_k)
    B = bspline_eval(gen_order, axis.xs[:, None] - ks[None, :])
    W = axis.w[:, None] * dual_axis.eval(axis.xs[:, None] - ks[None, :])
    return W.T @ (axis.M_delta @ (axis.w[:, None] * B))


def measured_r0(kernel, kdelta, window=None, grid=None):
    """Operator norm of I - T_delta restricted to the coefficient window.

    Exact at the level of the discretized operator: per-axis coefficient
    matrices are combined by Kronecker product and the largest singular
    value of I - A (x) A is returned.
    """
    ax_t, ax_s = kdelta.axis_frames
    if kernel.generator is None:
        # factor-only kernels (e.g. the symmetric toy): measure on the
        # grid-restricted operator itself via the composition residual
        Et = np.eye(ax_t.xs.size) - ax_t.M_delta @ np.diag(ax_t.w) @ ax_t.M0
        return float(np.linalg.norm(Et, 2))
    from .kernel_space import Window  # local import to avoid cycles

    if window is None:
        k1f = int(np.ceil(ax_t.xs[0])) + int(np.ceil(kernel.generator.order_t / 2)) + 2
        k1l = int(np.floor(ax_t.xs[-1])) - int(np.ceil(kernel.generator.order_t / 2)) - 2
        k2f = int(np.ceil(ax_s.xs[0])) + int(np.ceil(kernel.generator.order_s / 2)) + 2
        k2l = int(np.floor(ax_s.xs[-1])) - int(np.ceil(kernel.generator.order_s / 2)) - 2
        window = Window(k1f, k1l, k2f, k2l)
    A_t = _coef_operator(ax_t, kernel.generator.order_t, kernel.dual.axis_t,
                         window.k1_first, window.n1)
    A_s = _coef_operator(ax_s, kernel.generator.order_s, kernel.dual.axis_s,
                         window.k2_first, window.n2)
    M2 = np.kron(A_t, A_s)
    E2 = np.eye(M2.shape[0]) - M2
    return float(np.linalg.norm(E2, 2))


def formula_r0_branches(kernel, delta, d=1):
    """The two expressions whose maximum the sufficient condition bounds.

    Returns (branch1, branch2); branch1 is infinite when the product
    ||K|| * ||omega(K)|| reaches one (the expression loses meaning there).
    """
    radius = math.sqrt(d + 1) * delta
    W = kernel.w_norm()
    om = kernel.omega_w_norm(radius)
    branch2 = om
    prod = W * om
    if prod >= 1.0:
        return float("inf"), branch2
    branch1 = prod * (1.0 + (W + om) / (1.0 - prod))
    return branch1, branch2


@dataclass
class FrameFamily:
    """Atoms and dual atoms on the delta-lattice, ready for analysis/synthesis.

    Built from a generator-backed separable kernel on a grid; `n_list` fixes
    the Neumann truncation orders for which synthesis atoms are assembled.
    All heavy members are per-axis matrices; atoms at a lattice point are
    outer products of the per-axis columns.
    """

    kernel: object
    grid: object
    delta: float
    params: object
    n_list: tuple
    window: object
    r0_measured: float
    r0_branch1: float
    r0_branch2: float
    omega_joint: float

    @classmethod
    def build(cls, kernel, grid, delta, params, n_list=(2, 4, 8), window=None, pad=4):
        """Assemble the family on `grid`; compositions run on a grid padded by
        `pad` whole units per side so that dual-tail truncation (which the
        alternating Neumann weights amplify) decays below the quadrature
        floor before it reaches the signal window."""
        from .mixed_norm import Grid

        ext = Grid.from_spacing(grid.x_min - pad, grid.x_max + pad,
                                grid.y_min - pad, grid.y_max + pad, grid.h_x)
        kdelta = build_Kdelta(kernel, delta, ext)
        if window is None:
            window = window_for_grid(grid, kernel.generator)
        r0 = measured_r0(kernel, kdelta, window=window)
        if not (r0 < 1.0):
            raise ContractionError(f"measured contraction r0 = {r0:.6g} >= 1")
        b1, b2 = formula_r0_branches(kernel, delta)
        fam = cls(kernel, grid, delta, params, tuple(sorted(n_list)), window,
                  r0, b1, b2, kernel.omega_w_norm(math.sqrt(2.0) * delta))
        fam._kdelta = kdelta
        fam._assemble()
        return fam

    def _assemble(self):
        ax_t, ax_s = self._kdelta.axis_frames
        rows_t = np.searchsorted(ax_t.xs, self.grid.xs[0]) + np.arange(self.grid.xs.size)
        rows_s = np.searchsorted(ax_s.xs, self.grid.ys[0]) + np.arange(self.grid.ys.size)
        n_max = self.n_list[-1]
        pow_t = ax_t.powers(n_max)
        pow_s = ax_s.powers(n_max)
        self._atoms_t = {}
        self._atoms_s = {}
        for N in self.n_list:
            gamma = neumann_coefficients(N)
            Mp_t = gamma[0] * ax_t.M0
            Mp_s = gamma[0] * ax_s.M0
            for m in range(1, N + 1):
                Mp_t = Mp_t + gamma[m] * pow_t[m - 1]
                Mp_s = Mp_s + gamma[m] * pow_s[m - 1]
            # synthesis atoms restricted to the signal grid rows
            self._atoms_t[N] = (Mp_t @ (ax_t.w[:, None] * ax_t.P))[rows_t]
            self._atoms_s[N] = (Mp_s @ (ax_s.w[:, None] * ax_s.P))[rows_s]
        # dual atoms on the grid are rows of the cell-averaged slices
        self._dual_t = ax_t.Q.T[rows_t]
        self._dual_s = ax_s.Q.T[rows_s]
        # analysis of window signals collapses to scaled cell integrals
        gen = self.kernel.generator
        nodes_t, wq_t = ax_t.nodes, ax_t.wq
        nodes_s, wq_s = ax_s.nodes, ax_s.wq
        Bt = bspline_eval(gen.order_t, nodes_t.ravel()[:, None] - self.window.k1s[None, :])
        Bs = bspline_eval(gen.order_s, nodes_s.ravel()[:, None] - self.window.k2s[None, :])
        self._G_t = (Bt * wq_t.ravel()[:, None]).reshape(
            ax_t.lattice.size, nodes_t.shape[1], self.window.n1).sum(axis=1)
        self._G_s = (Bs * wq_s.ravel()[:, None]).reshape(
            ax_s.lattice.size, nodes_s.shape[1], self.window.n2).sum(axis=1)

    @property
    def lattice_t(self):
        return self._kdelta.axis_frames[0].lattice

    @property
    def lattice_s(self):
        return self._kdelta.axis_frames[1].lattice

    def analysis_coefficients(self, f):
        """<f, dual atom at lambda> for a window signal, as a lattice matrix."""
        p, q = self.params.p, self.params.q
        scale = self.delta ** (1.0 / p + 1.0 / q - 2.0) * self.kernel.scale
        return scale * (self._G_t @ f.coeffs.entries @ self._G_s.T)

    def atom_values(self, l1_index, l2_index, N=None):
        """Synthesis atom at a lattice index pair, rendered on the grid."""
        N = N or self.n_list[-1]
        p, q = self.params.p, self.params.q
        scale = self.delta ** (-1.0 / p - 1.0 / q) * self.kernel.scale**2
        return scale * np.outer(self._atoms_t[N][:, l1_index], self._atoms_s[N][:, l2_index])

    def dual_atom_values(self, l1_index, l2_index):
        """Dual atom at a lattice index pair, rendered on the grid."""
        p, q = self.params.p, self.params.q
        scale = self.delta ** (1.0 / p - 1.0) * self.delta ** (1.0 / q - 1.0) * self.kernel.scale
        return scale * np.outer(self._dual_t[:, l1_index], self._dual_s[:, l2_index])

    def synthesize(self, coefficients, N=None):
        """Grid render of sum_lambda c_lambda * atom_lambda."""
        N = N or self.n_list[-1]
        p, q = self.params.p, self.params.q
        scale = self.delta ** (-1.0 / p - 1.0 / q) * self.kernel.scale**2
        from .mixed_norm import GridFunction

        return GridFunction(self.grid,
                            scale * (self._atoms_t[N] @ coefficients @ self._atoms_s[N].T))


def frame_atoms(family, l1_index, l2_index, N=None):
    """(atom, dual atom) grid renders at one lattice index pair."""
    return (family.atom_values(l1_index, l2_index, N=N),
            family.dual_atom_values(l1_index, l2_index))


@dataclass
class FrameBandReport:
    ratio: float
    lower: float
    upper: float
    ok: bool
    zero_signal: bool


def frame_bounds_check(f, family, slack=0.05):
    """Analysis-to-signal norm ratio against the [1 -+ omega] band.

    Returns a zero-signal flag instead of a ratio for f = 0; the band half
    width is the cached modulus-norm estimate at the joint lattice radius.
    """
    params = family.params
    denom = mixed_function_norm(f.render(family.grid), params)
    if denom == 0.0:
        return FrameBandReport(float("nan"), 0.0, 0.0, False, True)
    coords = family.analysis_coefficients(f)
    num = mixed_sequence_norm(CoefSeq(coords, 0, 0), params)
    om = family.omega_joint
    lo, hi = 1.0 - om - slack, 1.0 + om + slack
    ratio = num / denom
    return FrameBandReport(ratio, lo, hi, bool(lo <= ratio <= hi), False)


def dual_pair_reconstruct(f, family, N=None):
    """Window signal rebuilt from its frame coefficients: sum <f, dual> atom.

    The output lives in the signal space; its coefficients are recovered by
    projecting the synthesized grid values.  Error decreases with the
    truncation order at the measured-contraction rate.
    """
    from .kernel_space import apply_T

    coords = family.analysis_coefficients(f)
    synth = family.synthesize(coords, N=N)
    return apply_T(family.kernel, synth, window=family.window, self_check=False)


def frame_report(family, signals, N=None):
    """JSON-ready summary: contraction constants, measured band, recon error."""
    params = family.params
    ratios = []
    errors = []
    for f in signals:
        rep = frame_bounds_check(f, family)
        if not rep.zero_signal:
            ratios.append(rep.ratio)
        fh = dual_pair_reconstruct(f, family, N=N)
        denom = mixed_function_norm(f.render(family.grid), params)
        if denom > 0:
            errors.append(mixed_function_norm((f - fh).render(family.grid), params) / denom)
    return {
        "delta": family.delta,
        "r0_measured": family.r0_measured,
        "r0_branch1": family.r0_branch1,
        "r0_branch2": family.r0_branch2,
        "N": N or family.n_list[-1],
        "lower_ratio": min(ratios) if ratios else float("nan"),
        "upper_ratio": max(ratios) if ratios else float("nan"),
        "recon_error": max(errors) if errors else float("nan"),
    }
