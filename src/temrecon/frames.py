"""Constructive frame machinery: averaged kernel, Neumann inverse, atoms.

Everything here runs on the lattice Lambda = delta Z x delta Z over the
signal window, and on spline coefficients rather than grid values.  The
kernel is separable, and on the signal space T_delta T = T_delta, so per
axis the averaged projector acts on the coefficients of
f = sum_k c_k beta(. - k) as the small matrix

    A = Gd^T G / delta,   G[l, k]  = int_{cell l} beta(u - k) du,
                          Gd[l, k] = int_{cell l} dual(u - k) du,

with cells lambda_l +- delta / 2 integrated exactly: G by the banded
interval-integral rule (`spline_cell_integrals`), and Gd = G T, as the
dual is sum_m b_m beta(. - m) and T[n, k] = b_(n - k) (`DualAxis.toeplitz`).
The truncated Neumann inverse is then a matrix polynomial,

    T_plus(N) = sum_{n=0..N} (I - A)^n = sum_m gamma_m A^m,

gamma_0 = N + 1 and gamma_m = (-1)^m binom(N+1, m+1).  A synthesis atom
at lattice index l has per-axis coefficients T_plus(N) Gd[l]; its dual
atom is the cell-averaged kernel slice sum_k G[l, k] dual(. - k).
Analysis coefficients of a signal in V are scaled cell integrals G c
(exact, because T f = f there), and synthesis applies the per-axis
T_plus(N), whose tensor product tends to the inverse of A_t (x) A_s.  The
grid only renders signals for norms at exponents other than p = q = 2
(`VSignal.norm`).

The contraction gate is a *measured* quantity: the operator norm of
I - A_t (x) A_s restricted to the coefficient window.  When the window
blocks are symmetric (to rounding, which they are whenever delta divides
one) it is read off the per-axis spectra, max |1 - lambda_i mu_j|, from two
small symmetric eigenproblems; otherwise it is the largest singular value
of the Kronecker product.  The two expressions the sufficient condition
takes a maximum over are both reported alongside; at desk-scale lattice
spacings they sit far above one while the measured contraction is
comfortably small.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractionError, InputError
from .generator import spline_cell_integrals
from .kernel_space import VSignal, window_for_grid
from .mixed_norm import CoefSeq, Grid, mixed_sequence_norm

# Whole units added to each side of the signal range before the lattice is
# laid.  A lattice that stops at the signal edge truncates the dual tails in
# G and Gd, and the alternating Neumann weights carry that error into the
# window.  Measured N = 8 recon_error at the desk defaults (5 signals, seed
# 0): pad 0: 3.9e-9, 1: 3.3e-10, 2: 2.8e-11, 3: 2.6e-12, 4: 7.8e-13,
# 8: 7.0e-13; 4 is where the error reaches its floor.
PAD = 4

# Largest bound on |r0_dense - r0_spectral| at which `measured_r0` takes the
# per-axis spectra.  Measured bounds: 3.6e-16 to 8.8e-16 for orders (2, 2),
# (3, 3) and (2, 3) at delta 0.125, 0.25, 0.5 and 1; 9e-4 to 1.3e-3 at the
# asymmetric delta = 0.32.  The dense SVD itself is accurate only to about
# eps * ||I - M||, so a bound of this size leaves r0 unchanged in effect.
SPECTRAL_GAP_MAX = 1e-12


def _lattice(lo, hi, delta):
    n = round((hi - lo) / delta)
    if abs(n * delta - (hi - lo)) > 1e-9:
        raise InputError("lattice spacing must divide the window extent")
    return lo + delta * np.arange(int(n) + 1)


class _AxisFrame:
    """One axis of the averaged kernel on [lo, hi], in coefficient space.

    `ks` are the spline indices whose support meets a lattice cell; `G` and
    `Gd` (cells x ks) hold the cell integrals of the B-spline and of its dual
    at those indices, and `A` (ks x ks) is the averaged projector.
    """

    def __init__(self, factor, lo, hi, delta):
        self.order = factor.order
        self.dual_axis = factor.dual_axis
        self.lattice = _lattice(lo, hi, delta)
        edges = np.append(self.lattice - delta / 2.0, self.lattice[-1] + delta / 2.0)
        r = self.order / 2.0
        self.ks = np.arange(int(np.floor(edges[0] - r)) + 1, int(np.ceil(edges[-1] + r)))
        self.G = spline_cell_integrals(self.order, edges[:-1], edges[1:], self.ks)
        self.Gd = self.G @ self.dual_axis.toeplitz(self.ks, self.ks)
        self.A = self.Gd.T @ self.G / delta
        self._synthesis = {}

    def index(self, ks):
        """Positions of the spline indices `ks` in `self.ks`."""
        return np.asarray(ks) - self.ks[0]

    def powers(self, n_max):
        """[I, A, A^2, ..., A^n_max]."""
        out = [np.eye(self.ks.size)]
        for _ in range(n_max):
            out.append(out[-1] @ self.A)
        return out

    def t_plus(self, N):
        """Coefficient matrix of the truncated Neumann inverse T_plus(N)."""
        return sum(g * Am for g, Am in zip(neumann_coefficients(N), self.powers(N)))

    def synthesis(self, N):
        """T_plus(N) Gd^T, which maps lattice coefficients to spline ones; formed once per N."""
        if N not in self._synthesis:
            self._synthesis[N] = self.t_plus(N) @ self.Gd.T
        return self._synthesis[N]


@dataclass(frozen=True)
class AveragedKernel:
    """Cell-averaged kernel K_delta over the range of `grid`, kept per axis."""

    axis_frames: tuple
    grid: object


def build_Kdelta(kernel, delta, grid):
    """Cell-averaged kernel K_delta = (1/delta^2) P Q, as per-axis frames.

    The grid fixes only the range that the lattice covers.  On a grid P
    renders as B Gd^T, Q as G Bd^T and the per-axis K_delta as B A Bd^T; it
    satisfies T_delta T = T T_delta = T_delta.  Axes with the same kernel
    factor and the same range share one frame.
    """
    ax_t = _AxisFrame(kernel.factor_t, grid.x_min, grid.x_max, delta)
    if kernel.factor_s is kernel.factor_t and (grid.y_min, grid.y_max) == (grid.x_min, grid.x_max):
        ax_s = ax_t
    else:
        ax_s = _AxisFrame(kernel.factor_s, grid.y_min, grid.y_max, delta)
    return AveragedKernel((ax_t, ax_s), grid)


def neumann_coefficients(N):
    """Coefficients gamma_m of T_plus(N) = gamma_0 T + sum gamma_m T_delta^m."""
    if N < 0:
        raise InputError(f"Neumann truncation order must be >= 0, got {N}")
    gamma = [float(N + 1)]
    for m in range(1, N + 1):
        gamma.append((-1.0) ** m * math.comb(N + 1, m + 1))
    return gamma


def measured_r0(kernel, kdelta, window=None):
    """Operator norm of I - T_delta restricted to the coefficient window.

    The window blocks A_t and A_s of the per-axis matrices act on the
    window coefficients as A_t (x) A_s.  With S = (A + A^T) / 2 their
    symmetric parts, I - S_t (x) S_s has eigenvalues 1 - lambda_i mu_j, so
    its norm is max |1 - lambda_i mu_j|.  By Weyl's inequality that differs
    from the norm of I - A_t (x) A_s by at most

        gap = ||A_t - S_t|| ||A_s|| + ||S_t|| ||A_s - S_s||   (2-norms),

    and the spectra are used when gap <= SPECTRAL_GAP_MAX.  Otherwise the
    largest singular value of the Kronecker product is taken.  The default
    window is the interior window of the range K_delta covers.
    """
    ax_t, ax_s = kdelta.axis_frames
    if window is None:
        window = window_for_grid(kdelta.grid, kernel.generator)
    it, is_ = ax_t.index(window.k1s), ax_s.index(window.k2s)
    A_t, A_s = ax_t.A[np.ix_(it, it)], ax_s.A[np.ix_(is_, is_)]
    S_t, S_s = 0.5 * (A_t + A_t.T), 0.5 * (A_s + A_s.T)
    lam, mu = np.linalg.eigvalsh(S_t), np.linalg.eigvalsh(S_s)
    gap = (np.linalg.norm(A_t - S_t, 2) * np.linalg.norm(A_s, 2)
           + np.max(np.abs(lam)) * np.linalg.norm(A_s - S_s, 2))
    if gap <= SPECTRAL_GAP_MAX:
        return float(np.max(np.abs(1.0 - np.outer(lam, mu))))
    M2 = np.kron(A_t, A_s)
    return float(np.linalg.norm(np.eye(M2.shape[0]) - M2, 2))


def formula_r0_branches(kernel, delta, d=1):
    """The two expressions whose maximum the sufficient condition bounds.

    Returns (branch1, branch2); branch1 is infinite when the product
    ||K|| * ||omega(K)|| reaches one (the expression loses meaning there).
    """
    radius = math.sqrt(d + 1) * delta
    om = kernel.omega_w_norm(radius)
    W = kernel.w_norm()
    branch2 = om
    prod = W * om
    if prod >= 1.0:
        return float("inf"), branch2
    branch1 = prod * (1.0 + (W + om) / (1.0 - prod))
    return branch1, branch2


@dataclass
class FrameFamily:
    """Atoms and dual atoms on the delta-lattice, ready for analysis/synthesis.

    Built from a generator-backed separable kernel on a grid.  Atoms are
    formed on demand for any truncation order N >= 0; `n_list` is sorted
    and its largest entry is the default order.  All members are per-axis
    coefficient matrices; an atom at a lattice point is the outer product
    of its per-axis coefficients, so no member is grid-sized.
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

    @classmethod
    def build(cls, kernel, grid, delta, params, n_list=(2, 4, 8), window=None):
        """Assemble the family; its lattice covers `grid` padded by PAD units per side."""
        ext = Grid.from_spacing(grid.x_min - PAD, grid.x_max + PAD,
                                grid.y_min - PAD, grid.y_max + PAD, grid.h_x)
        kdelta = build_Kdelta(kernel, delta, ext)
        if window is None:
            window = window_for_grid(grid, kernel.generator)
        r0 = measured_r0(kernel, kdelta, window=window)
        if not (r0 < 1.0):
            raise ContractionError(f"measured contraction r0 = {r0:.6g} >= 1")
        b1, b2 = formula_r0_branches(kernel, delta)
        fam = cls(kernel, grid, delta, params, tuple(sorted(n_list)), window, r0, b1, b2)
        fam._axes = kdelta.axis_frames
        ax_t, ax_s = fam._axes
        fam._win_t = ax_t.index(window.k1s)
        fam._win_s = ax_s.index(window.k2s)
        return fam

    def _order(self, N):
        return self.n_list[-1] if N is None else N

    def _synthesis_scale(self):
        p, q = self.params.p, self.params.q
        return self.delta ** (-1.0 / p - 1.0 / q)

    def analysis_coefficients(self, f):
        """<f, dual atom at lambda> for a window signal, as a lattice matrix."""
        ax_t, ax_s = self._axes
        p, q = self.params.p, self.params.q
        scale = self.delta ** (1.0 / p + 1.0 / q - 2.0)
        return scale * (ax_t.G[:, self._win_t] @ f.coeffs.entries @ ax_s.G[:, self._win_s].T)

    def synthesis_coefficients(self, coefficients, N=None):
        """Spline coefficients over (ks_t, ks_s) of sum_lambda c_lambda * atom_lambda."""
        ax_t, ax_s = self._axes
        N = self._order(N)
        return self._synthesis_scale() * (ax_t.synthesis(N) @ coefficients @ ax_s.synthesis(N).T)


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
    width is the modulus-norm estimate at the joint lattice radius
    sqrt(2) delta, which the family holds as `r0_branch2`.
    """
    return _band_report(f, family, f.norm(family.grid, family.params), slack)


def _band_report(f, family, denom, slack=0.05):
    """`frame_bounds_check` with the signal norm `denom` already taken."""
    if denom == 0.0:
        return FrameBandReport(float("nan"), 0.0, 0.0, False, True)
    coords = family.analysis_coefficients(f)
    num = mixed_sequence_norm(CoefSeq(coords, 0, 0), family.params)
    om = family.r0_branch2
    lo, hi = 1.0 - om - slack, 1.0 + om + slack
    ratio = num / denom
    return FrameBandReport(ratio, lo, hi, bool(lo <= ratio <= hi), False)


def dual_pair_reconstruct(f, family, N=None):
    """Window signal rebuilt from its frame coefficients: sum <f, dual> atom.

    The synthesis lies in the signal space, so projecting it back onto the
    window (the projector T) keeps the window block of its spline
    coefficients.  Error decreases with the truncation order at the
    measured-contraction rate.
    """
    coords = family.analysis_coefficients(f)
    coefs = family.synthesis_coefficients(coords, N)[np.ix_(family._win_t, family._win_s)]
    w = family.window
    return VSignal(CoefSeq(coefs, w.k1_first, w.k2_first), family.kernel.generator)


def frame_report(family, signals, N=None):
    """JSON-ready summary: contraction constants, measured band, recon error."""
    params = family.params
    N = family.n_list[-1] if N is None else N
    ratios = []
    errors = []
    for f in signals:
        denom = f.norm(family.grid, params)
        rep = _band_report(f, family, denom)
        if not rep.zero_signal:
            ratios.append(rep.ratio)
            fh = dual_pair_reconstruct(f, family, N=N)
            errors.append((f - fh).norm(family.grid, params) / denom)
    return {
        "delta": family.delta,
        "r0_measured": family.r0_measured,
        "r0_branch1": family.r0_branch1,
        "r0_branch2": family.r0_branch2,
        "N": N,
        "lower_ratio": min(ratios) if ratios else float("nan"),
        "upper_ratio": max(ratios) if ratios else float("nan"),
        "recon_error": max(errors) if errors else float("nan"),
    }
