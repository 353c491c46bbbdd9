"""Averaged kernel, Neumann inverse, frame atoms and dual-pair reconstruction."""

from types import SimpleNamespace

import numpy as np
import pytest

from temrecon import (
    ContractionError,
    FrameFamily,
    Generator,
    MixedNormParams,
    build_shift_invariant_kernel,
    dual_generator,
    frame_report,
    window_for_grid,
)
from temrecon.frames import (
    _AxisFrame,
    build_Kdelta,
    dual_pair_reconstruct,
    formula_r0_branches,
    frame_bounds_check,
    measured_r0,
    neumann_coefficients,
    neumann_plus,
)
from temrecon.generator import DualAxis
from temrecon.kernel_space import Kernel, SplineFactor1D
from temrecon.mixed_norm import Grid, composite_weights, mixed_function_norm

from conftest import random_vsignal

PR = MixedNormParams(2.0, 2.0)


def haar_factor():
    axis = DualAxis(order=1, offsets=np.array([0]), b=np.array([1.0]), tail_bound=0.0)
    return SplineFactor1D(1, axis)


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


def w0_norm(matrix, w, xs, interior=None):
    """max(sup-row integral, sup-column integral) of a grid kernel matrix;
    `interior = (lo, hi)` restricts the sups (not the integrals) to grid
    points in the interval, for kernels assembled on padded grids."""
    a = np.abs(matrix)
    mask = np.ones(xs.size, dtype=bool) if interior is None else (
        (xs >= interior[0]) & (xs <= interior[1]))
    return float(max((a @ w)[mask].max(), (w @ a)[mask].max()))


def grid_matrices(ax, xs, w):
    """Grid renders of one axis frame's coefficient matrices at points `xs`.

    With B, Bd the B-spline and dual at `xs` against the frame's spline
    indices: M0 = B Bd^T (the kernel), M_delta = B A Bd^T (the averaged
    kernel), P = B Gd^T and Q = G Bd^T (cell integrals of kernel slices);
    `render(X)` = B X Bd^T for any coefficient matrix X.
    """
    B, Bd = ax.basis(xs)

    def render(X):
        return B @ X @ Bd.T

    return SimpleNamespace(xs=xs, w=w, render=render, M0=B @ Bd.T, M_delta=render(ax.A),
                           P=B @ ax.Gd.T, Q=ax.G @ Bd.T)


# ---------------------------------------------------------------------------
# averaged kernel
# ---------------------------------------------------------------------------

def test_kdelta_approaches_kernel(hat_kernel, small_grid):
    # probe-point sup distance decreases along a shrinking lattice
    idx = [(100, 130), (180, 200), (220, 260)]
    sups = []
    for delta in (0.4, 0.2, 0.1):
        kd = build_Kdelta(hat_kernel, delta, small_grid)
        ax_t, ax_s = kd.axis_frames
        mt = grid_matrices(ax_t, small_grid.xs, small_grid.weights_x)
        ms = grid_matrices(ax_s, small_grid.ys, small_grid.weights_y)
        worst = 0.0
        for (i, j), (p, q) in zip(idx, reversed(idx)):
            val = mt.M_delta[i, j] * ms.M_delta[p, q]
            ref = hat_kernel.eval(small_grid.xs[i], small_grid.ys[p],
                                  small_grid.xs[j], small_grid.ys[q])
            worst = max(worst, abs(val - ref))
        sups.append(worst)
    assert sups[2] < sups[1] < sups[0]


def test_kdelta_commutation(hat_kernel, small_grid):
    # T_delta T = T T_delta = T_delta at grid probes, per axis
    kd = build_Kdelta(hat_kernel, 0.25, small_grid)
    ax, _ = kd.axis_frames
    m = grid_matrices(ax, small_grid.xs, small_grid.weights_x)
    w = m.w
    left = m.M_delta @ (w[:, None] * m.M0)
    right = m.M0 @ (w[:, None] * m.M_delta)
    for i, j in [(64, 200), (150, 150), (300, 90)]:
        assert left[i, j] == pytest.approx(m.M_delta[i, j], abs=1e-5)
        assert right[i, j] == pytest.approx(m.M_delta[i, j], abs=1e-5)


def test_kdelta_norm_bound(hat_kernel, small_grid):
    # || K_delta - K || <= ||K|| ||omega_{sqrt(2) delta}(K)|| as estimates
    delta = 0.25
    kd = build_Kdelta(hat_kernel, delta, small_grid)
    ax_t, ax_s = kd.axis_frames
    mt = grid_matrices(ax_t, small_grid.xs, small_grid.weights_x)
    ms = grid_matrices(ax_s, small_grid.ys, small_grid.weights_y)
    dt = w0_norm(mt.M0 - mt.M_delta, mt.w, mt.xs)
    ds = w0_norm(ms.M0 - ms.M_delta, ms.w, ms.xs)
    kt = w0_norm(mt.M_delta, mt.w, mt.xs)
    base_t = w0_norm(mt.M0, mt.w, mt.xs)
    # split K - K_delta = kappa (x) d + d (x) kappa_delta; bound by factor W0s
    diff_bound = base_t * ds + dt * kt
    rhs = hat_kernel.w_norm() * hat_kernel.omega_w_norm(float(np.sqrt(2.0)) * delta)
    assert diff_bound <= rhs * 1.05


def test_axes_shared_only_when_identical(hat_kernel, hat_gen, default_grid, small_grid,
                                         small_window):
    kd = build_Kdelta(hat_kernel, 0.25, default_grid)
    assert kd.axis_frames[0] is kd.axis_frames[1]
    gen23 = Generator(2, 3)
    dual23 = dual_generator(gen23)
    mixed = build_shift_invariant_kernel(gen23, dual23)
    ax_t, ax_s = build_Kdelta(mixed, 0.25, small_grid).axis_frames
    assert ax_t is not ax_s and (ax_t.order, ax_s.order) == (2, 3)
    fam23 = FrameFamily.build(mixed, small_grid, 0.25, PR)
    sigs23 = [random_vsignal(fam23.window, gen23, small_grid, np.random.default_rng(s))
              for s in range(2)]
    assert frame_report(fam23, sigs23)["recon_error"] <= 1e-3
    # a kernel with equal but distinct axis factors gets two frames and the
    # same report as the shared one
    split = Kernel(hat_kernel.factor_t, SplineFactor1D(2, hat_kernel.dual.axis_s),
                   generator=hat_gen, dual=hat_kernel.dual)
    ax_t, ax_s = build_Kdelta(split, 0.25, small_grid).axis_frames
    assert ax_t is not ax_s
    rng = np.random.default_rng(4)
    sigs = [random_vsignal(small_window, hat_gen, small_grid, rng) for _ in range(2)]
    shared = FrameFamily.build(hat_kernel, small_grid, 0.25, PR, window=small_window)
    separate = FrameFamily.build(split, small_grid, 0.25, PR, window=small_window)
    assert frame_report(separate, sigs) == frame_report(shared, sigs)


# ---------------------------------------------------------------------------
# Neumann inverse
# ---------------------------------------------------------------------------

def test_neumann_coefficients_match_series():
    # direct expansion of T + sum (T - T_delta)^n in the commuting algebra
    for N in (0, 1, 2, 3, 5):
        gamma = neumann_coefficients(N)
        # evaluate both forms on commuting scalars t = 1 (idempotent), d
        for d in (0.3, 0.9):
            direct = 1.0 + sum((1.0 - d) ** n for n in range(1, N + 1))
            collapsed = gamma[0] + sum(g * d**m for m, g in enumerate(gamma[1:], start=1))
            assert collapsed == pytest.approx(direct, rel=1e-12)


def test_neumann_plus_identity_at_zero_order(hat_kernel, small_grid):
    kd = build_Kdelta(hat_kernel, 0.25, small_grid)
    gamma, terms_t, _ = neumann_plus(hat_kernel, kd, 0)
    assert len(gamma) == 1 and gamma[0] == 1.0
    ax_t, _ = kd.axis_frames
    mt = grid_matrices(ax_t, small_grid.xs, small_grid.weights_x)
    assert np.array_equal(mt.render(terms_t[0]), mt.M0)


def test_neumann_plus_contraction_gate(hat_kernel, small_grid):
    kd = build_Kdelta(hat_kernel, 0.25, small_grid)
    with pytest.raises(ContractionError):
        neumann_plus(hat_kernel, kd, 4, r0=1.2)


def test_neumann_residual_decreases_geometrically(hat_kernel):
    # compositions run on a padded grid so dual-tail truncation cannot mask
    # the geometric tail at high truncation orders
    grid = Grid.from_spacing(-4.0, 16.0, -4.0, 16.0, 1.0 / 32.0)
    kd = build_Kdelta(hat_kernel, 0.25, grid)
    ax, _ = kd.axis_frames
    m = grid_matrices(ax, grid.xs, grid.weights_x)
    w = m.w
    i0 = 8 * 32  # x = 4.0, well inside the padded range
    probes = [(i0, i0 + 120), (i0 + 60, i0 + 30), (i0 + 100, i0 + 100)]
    resids = []
    for N in (1, 2, 4, 8):
        gamma, terms_t, _ = neumann_plus(hat_kernel, kd, N)
        # per-axis composition of the truncated inverse with T_delta
        comp = sum(c * (m.render(At) @ (w[:, None] * m.M_delta)) for c, At in
                   zip(gamma, terms_t))
        resids.append(max(abs(comp[i, j] - m.M0[i, j]) for i, j in probes))
    assert all(b < a for a, b in zip(resids, resids[1:]))
    assert resids[-1] <= 1e-6 * resids[0]


def test_neumann_norm_bound_small_lattice(hat_kernel):
    # the (estimated) kernel norm of the truncated inverse obeys the series
    # bound; interior sups on a padded grid keep the boundary band out
    grid = Grid.from_spacing(-8.0, 16.0, -8.0, 16.0, 1.0 / 32.0)
    interior = (0.0, 8.0)
    delta = 1.0 / 128.0
    kd = build_Kdelta(hat_kernel, delta, grid)
    ax_t, ax_s = kd.axis_frames
    mt = grid_matrices(ax_t, grid.xs, grid.weights_x)
    ms = grid_matrices(ax_s, grid.ys, grid.weights_y)
    dt = mt.M0 - mt.M_delta
    r_tilde = (w0_norm(mt.M0, mt.w, mt.xs, interior) * w0_norm(dt, mt.w, mt.xs, interior)
               + w0_norm(dt, mt.w, mt.xs, interior) * w0_norm(mt.M_delta, mt.w, mt.xs, interior))
    assert r_tilde < 1.0

    def rendered(N):
        gamma, terms_t, terms_s = neumann_plus(hat_kernel, kd, N)
        return KernelSum(gamma, map(mt.render, terms_t), map(ms.render, terms_s),
                         grid.xs, grid.ys)

    est = rendered(6).w_norm_estimate(stride_outer=16, stride_inner=8, interior=interior)
    # base norm through the same estimator keeps the quadrature bias common
    est_base = rendered(0).w_norm_estimate(stride_outer=16, stride_inner=8, interior=interior)
    assert est <= est_base + r_tilde / (1.0 - r_tilde) + 1e-3


# ---------------------------------------------------------------------------
# frame family
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def family(hat_kernel, small_grid, small_window):
    return FrameFamily.build(hat_kernel, small_grid, 0.25, PR, n_list=(2, 4, 8),
                             window=small_window)


def test_measured_r0_decreases(hat_kernel, small_grid):
    vals = []
    for delta in (0.4, 0.2, 0.1):
        kd = build_Kdelta(hat_kernel, delta, small_grid)
        vals.append(measured_r0(hat_kernel, kd))
    assert vals[2] < vals[1] < vals[0] < 1.0


def dense_r0(kdelta, window):
    """Referee: largest singular value of I - A_t (x) A_s on the window blocks."""
    ax_t, ax_s = kdelta.axis_frames
    it, is_ = ax_t.index(window.k1s), ax_s.index(window.k2s)
    M2 = np.kron(ax_t.A[np.ix_(it, it)], ax_s.A[np.ix_(is_, is_)])
    return float(np.linalg.norm(np.eye(M2.shape[0]) - M2, 2))


def _desk_kdelta(orders, delta):
    gen = Generator(*orders)
    kernel = build_shift_invariant_kernel(gen, dual_generator(gen))
    ext = Grid.from_spacing(-4.0, 36.0, -4.0, 36.0, 1.0 / 32.0)
    window = window_for_grid(Grid.from_spacing(0.0, 32.0, 0.0, 32.0, 1.0 / 32.0), gen)
    return kernel, build_Kdelta(kernel, delta, ext), window


@pytest.mark.parametrize("delta", [0.125, 0.25, 0.5, 1.0])
@pytest.mark.parametrize("orders", [(2, 2), (3, 3), (2, 3)])
def test_measured_r0_spectral_matches_dense(orders, delta, monkeypatch):
    # delta divides one: the window blocks are symmetric to rounding, so r0
    # comes from the per-axis spectra and never forms the Kronecker product
    kernel, kd, window = _desk_kdelta(orders, delta)
    ref = dense_r0(kd, window)

    def no_kron(*args):
        raise AssertionError("dense path taken")

    monkeypatch.setattr(np, "kron", no_kron)
    # absolute: the SVD referee is itself accurate only to ~eps * ||I - M||
    assert abs(measured_r0(kernel, kd, window=window) - ref) <= 1e-14


def test_measured_r0_asymmetric_takes_dense_path():
    # at delta = 0.32 the window blocks are asymmetric (~1e-3), beyond the
    # Weyl bound the spectral path allows
    kernel, kd, window = _desk_kdelta((2, 2), 0.32)
    assert measured_r0(kernel, kd, window=window) == dense_r0(kd, window)


def test_formula_branches(hat_kernel):
    b1, b2 = formula_r0_branches(hat_kernel, 0.25)
    assert b1 == np.inf  # product above one at desk-scale lattices
    assert b2 == hat_kernel.omega_w_norm(float(np.sqrt(2.0)) * 0.25)
    # both expressions decrease with the lattice spacing where defined
    b2s = [formula_r0_branches(hat_kernel, d)[1] for d in (0.4, 0.2, 0.1)]
    assert b2s[2] < b2s[1] < b2s[0]
    # the first expression only becomes finite at much finer lattices
    b1s = [formula_r0_branches(hat_kernel, d)[0] for d in (0.002, 0.001, 0.0005)]
    assert all(np.isfinite(b1s))
    assert b1s[2] < b1s[1] < b1s[0]


def test_lattice_relative_separation(family):
    # closed balls of radius delta/2 cover each lattice point exactly once
    lat = family.lattice_t
    probes = np.linspace(lat[0], lat[-1], 997)
    counts = (np.abs(probes[None, :] - lat[:, None]) < family.delta / 2.0).sum(axis=0)
    assert counts.max() <= 1


def test_atom_translation_symmetry(family):
    # integer lattice shifts of a shift-invariant kernel translate the atoms
    steps_per_unit = round(1.0 / family.grid.h_x)
    shift_cells = round(1.0 / family.delta)
    i1 = family.lattice_t.size // 2
    i2 = family.lattice_s.size // 2
    a0 = family.atom_values(i1, i2)
    a1 = family.atom_values(i1 + shift_cells, i2)
    probe = np.s_[family.grid.n_x // 3: family.grid.n_x // 3 + 50, family.grid.n_y // 2]
    shifted = a1[family.grid.n_x // 3 + steps_per_unit:
                 family.grid.n_x // 3 + steps_per_unit + 50, family.grid.n_y // 2]
    assert np.max(np.abs(a0[probe] - shifted)) <= 1e-6


def test_dual_atom_norm_bound(family, hat_kernel, small_grid):
    from temrecon.mixed_norm import GridFunction

    pc = PR.conjugate()
    i1 = family.lattice_t.size // 2
    i2 = family.lattice_s.size // 2
    vals = family.dual_atom_values(i1, i2)
    nrm = mixed_function_norm(GridFunction(small_grid, vals), pc)
    W = hat_kernel.w_norm()
    om = hat_kernel.omega_w_norm(float(np.sqrt(2.0)) * family.delta)
    e = 1.0 / (pc.p * pc.q)
    bound = W**e * (W + om) ** (1.0 - e)
    assert nrm <= bound + 1e-6


def test_haar_atoms_self_dual():
    # orthonormal generator: the kernel is symmetric, its cell-averaged
    # slices are already members of the range space, so synthesis atoms
    # reduce to the averaged slices and the pair is self-dual
    factor = haar_factor()
    xs = np.linspace(0.0, 8.0, 257)
    w = composite_weights(xs.size, 8.0 / 256.0)
    ax = _AxisFrame(factor, 0.0, 8.0, 0.25)
    m = grid_matrices(ax, xs, w)
    # self-duality of the cell-averaged slices (exact cell quadrature)
    assert np.max(np.abs(m.P - m.Q.T)) <= 1e-5
    # reduction: composing the projector with a cell slice returns the slice;
    # for the indicator kernel the composition integral is computable exactly
    # as the overlap of unit cells, so compare against that closed form
    lam = ax.lattice
    probes = [(40, 10), (100, 25), (200, 30), (130, 17)]
    for i, l in probes:
        # cells interior to a unit cell: overlap is all or nothing
        overlap = 0.25 if np.floor(xs[i] + 0.5) == np.floor(lam[l] + 0.5) else 0.0
        assert m.P[i, l] == pytest.approx(overlap, abs=1e-12)


def test_frame_band_and_zero_flag(family, hat_gen, small_grid, small_window):
    rng = np.random.default_rng(0)
    from temrecon import VSignal

    zero = VSignal.zeros(small_window, hat_gen)
    rep = frame_bounds_check(zero, family)
    assert rep.zero_signal
    for _ in range(10):
        sig = random_vsignal(small_window, hat_gen, small_grid, rng)
        rep = frame_bounds_check(sig, family)
        assert rep.ok and rep.lower <= rep.ratio <= rep.upper


def test_band_tightens_with_delta(hat_kernel, hat_gen, small_grid, small_window):
    rng = np.random.default_rng(1)
    sigs = [random_vsignal(small_window, hat_gen, small_grid, rng) for _ in range(5)]
    spreads = []
    for delta in (0.5, 0.25, 0.125):
        fam = FrameFamily.build(hat_kernel, small_grid, delta, PR, n_list=(2,),
                                window=small_window)
        ratios = [frame_bounds_check(s, fam).ratio for s in sigs]
        spreads.append(max(abs(r - 1.0) for r in ratios))
    assert spreads[2] < spreads[1] < spreads[0]


def test_dual_pair_reconstruction(family, hat_gen, small_grid, small_window):
    rng = np.random.default_rng(2)
    from temrecon import VSignal

    zero = VSignal.zeros(small_window, hat_gen)
    zhat = dual_pair_reconstruct(zero, family)
    assert np.max(np.abs(zhat.coeffs.entries)) == 0.0
    for _ in range(3):
        sig = random_vsignal(small_window, hat_gen, small_grid, rng)
        denom = mixed_function_norm(sig.render(small_grid), PR)
        errs = []
        for N in (2, 4, 8):
            fh = dual_pair_reconstruct(sig, family, N=N)
            errs.append(mixed_function_norm((sig - fh).render(small_grid), PR) / denom)
        assert errs[2] < errs[0]
        assert errs[2] <= 1e-3
        assert errs[1] <= errs[0]


def test_frame_report_shape(family, hat_gen, small_grid, small_window):
    rng = np.random.default_rng(3)
    sigs = [random_vsignal(small_window, hat_gen, small_grid, rng) for _ in range(3)]
    rep = frame_report(family, sigs)
    for key in ("delta", "r0_measured", "r0_branch1", "r0_branch2", "N",
                "lower_ratio", "upper_ratio", "recon_error"):
        assert key in rep
    assert rep["recon_error"] <= 1e-3
    assert rep["lower_ratio"] <= rep["upper_ratio"]


def test_frame_report_skips_zero_signal_and_matches_grid_norms(family, hat_gen, small_grid,
                                                               small_window):
    from temrecon import VSignal

    rng = np.random.default_rng(4)
    sigs = [random_vsignal(small_window, hat_gen, small_grid, rng) for _ in range(3)]
    rep = frame_report(family, sigs)
    assert frame_report(family, sigs + [VSignal.zeros(small_window, hat_gen)]) == rep
    # the p = q = 2 Gram norms agree with the rendered grid norms to rounding
    errs, ratios = [], []
    for sig in sigs:
        denom = mixed_function_norm(sig.render(small_grid), PR)
        fh = dual_pair_reconstruct(sig, family)
        errs.append(mixed_function_norm((sig - fh).render(small_grid), PR) / denom)
        ratios.append(frame_bounds_check(sig, family).ratio)
    assert rep["recon_error"] == pytest.approx(max(errs), rel=1e-12)
    assert rep["lower_ratio"] == min(ratios) and rep["upper_ratio"] == max(ratios)


def test_grid_bases_built_on_first_use(hat_kernel, hat_gen, small_grid, small_window):
    fam = FrameFamily.build(hat_kernel, small_grid, 0.25, PR, n_list=(2, 4),
                            window=small_window)
    sig = random_vsignal(small_window, hat_gen, small_grid, np.random.default_rng(8))
    frame_report(fam, [sig])
    # analysis and reconstruction hold no grid-sized array
    assert not any(isinstance(v, np.ndarray) and small_grid.xs.size in v.shape
                   for v in vars(fam).values())
    ax_t, ax_s = fam._axes
    B_t, Bd_t = ax_t.basis(small_grid.xs)
    B_s, Bd_s = ax_s.basis(small_grid.ys)
    scale = fam._synthesis_scale()
    eager = scale * np.outer(B_t @ (ax_t.t_plus(4) @ ax_t.Gd[10]),
                             B_s @ (ax_s.t_plus(4) @ ax_s.Gd[12]))
    assert np.array_equal(fam.atom_values(10, 12), eager)
    dual_scale = fam.delta ** (1.0 / PR.p - 1.0) * fam.delta ** (1.0 / PR.q - 1.0)
    eager_dual = dual_scale * np.outer(Bd_t @ ax_t.G[10], Bd_s @ ax_s.G[12])
    assert np.array_equal(fam.dual_atom_values(10, 12), eager_dual)


def test_order_zero_is_honoured(hat_kernel, hat_gen, small_grid, small_window):
    # T_plus(0) = T: N = 0 must not fall back to the largest order in n_list
    fam = FrameFamily.build(hat_kernel, small_grid, 0.25, PR, n_list=(0, 2),
                            window=small_window)
    fam0 = FrameFamily.build(hat_kernel, small_grid, 0.25, PR, n_list=(0,),
                             window=small_window)
    sig = random_vsignal(small_window, hat_gen, small_grid, np.random.default_rng(5))
    rep0 = frame_report(fam, [sig], N=0)
    assert rep0 == frame_report(fam0, [sig])
    assert rep0["N"] == 0 and frame_report(fam, [sig])["N"] == 2
    assert rep0["recon_error"] > frame_report(fam, [sig])["recon_error"]
    assert np.array_equal(fam.atom_values(10, 12, N=0), fam0.atom_values(10, 12))
    coords = fam.analysis_coefficients(sig)
    assert np.array_equal(fam.synthesize(coords, N=0).values, fam0.synthesize(coords).values)
    assert not np.allclose(fam.synthesize(coords, N=0).values, fam.synthesize(coords).values)


def test_order3_reconstruction_converges():
    # cell integrals are exact for every spline order, so the error keeps
    # falling with N where a grid quadrature would hit its floor
    gen = Generator(3, 3)
    kernel = build_shift_invariant_kernel(gen, dual_generator(gen))
    grid = Grid.from_spacing(0.0, 12.0, 0.0, 12.0, 1.0 / 32.0)
    fam = FrameFamily.build(kernel, grid, 0.25, PR, n_list=(2, 4, 8))
    sig = random_vsignal(fam.window, gen, grid, np.random.default_rng(6))
    denom = mixed_function_norm(sig.render(grid), PR)
    errs = [mixed_function_norm((sig - dual_pair_reconstruct(sig, fam, N=N)).render(grid), PR)
            / denom for N in (2, 4, 8)]
    assert errs[2] < errs[1] < errs[0]
    assert errs[2] <= 1e-8
