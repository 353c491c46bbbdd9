"""Acceptance suite: every exit criterion at the desk-scale default setup.

Default configuration throughout: time-space window [0, 32] x [0, 32],
hat generator, grid spacing 1/32, one space dimension.  Each criterion
prints one pass line (visible with `pytest -s` or on failure); tolerances
are pinned here and nowhere else.
"""

import numpy as np

from temrecon import (
    DeviceSet,
    FrameFamily,
    MixedNormParams,
    TemConfig,
    ctem_iterate,
    encode_ctem_devices,
    encode_iftem_devices,
    iftem_iterate,
    window_for_grid,
)
from temrecon.cli import ExperimentConfig, run_experiment
from temrecon.frames import dual_pair_reconstruct, frame_bounds_check
from temrecon.kernel_space import (
    analysis_bound_check,
    apply_T,
    reproducing_bound,
    reproducing_residual,
)
from temrecon.mixed_norm import Grid, GridFunction, duality_pairing, mixed_function_norm
from temrecon.reconstruct import estimate_r1, estimate_r2

from conftest import plain_integrator_oracle, random_vsignal

PQ_CHOICES = [1.0, 1.5, 2.0, 3.0, np.inf]
PR22 = MixedNormParams(2.0, 2.0)


def _report(num, name, detail):
    print(f"[acceptance] criterion {num} ({name}): {detail} PASS")


def test_criterion_01_biorthogonality(hat_dual):
    resid = hat_dual.biorth_residual
    assert resid <= 1e-8
    _report(1, "biorthogonality", f"max residual {resid:.2e} <= 1e-08")


def test_criterion_02_projector_idempotency(hat_kernel, hat_gen, default_grid,
                                            default_window):
    rng = np.random.default_rng(102)
    worst_idem = 0.0
    for _ in range(20):
        noise = GridFunction(default_grid, rng.standard_normal(default_grid.shape))
        t1 = apply_T(hat_kernel, noise, window=default_window)
        t2 = apply_T(hat_kernel, t1.render(default_grid), window=default_window)
        worst_idem = max(worst_idem, float(np.max(np.abs(
            t2.coeffs.entries - t1.coeffs.entries))))
    assert worst_idem <= 1e-8
    worst_fix = 0.0
    for _ in range(20):
        sig = random_vsignal(default_window, hat_gen, default_grid, rng)
        back = apply_T(hat_kernel, sig.render(default_grid), window=default_window)
        worst_fix = max(worst_fix, float(np.max(np.abs(
            back.coeffs.entries - sig.coeffs.entries))))
    assert worst_fix <= 1e-8
    _report(2, "projector idempotency",
            f"||T^2f - Tf|| {worst_idem:.2e}, ||Tf - f|| {worst_fix:.2e} <= 1e-08")


def test_criterion_03_reproducing_bound(hat_kernel, hat_gen, default_grid,
                                        default_window):
    rng = np.random.default_rng(103)
    trials = 0
    for _ in range(50):
        sig = random_vsignal(default_window, hat_gen, default_grid, rng)
        p = float(rng.choice(PQ_CHOICES))
        q = float(rng.choice(PQ_CHOICES))
        pr = MixedNormParams(p, q)
        nrm = mixed_function_norm(sig.render(default_grid), pr)
        for _ in range(10):
            x, y = rng.uniform(6.0, 26.0, 2)
            bound = reproducing_bound(hat_kernel, x, y, pr, default_grid)
            val = abs(float(sig.eval_pairs([x], [y])[0]))
            assert val <= bound * nrm + 1e-12
            trials += 1
    assert trials == 500
    _report(3, "reproducing bound", "500/500 random (f, point, (p,q)) trials")


def test_criterion_04_reproducing_identity(hat_kernel):
    rng = np.random.default_rng(104)
    probes = [tuple(rng.uniform(8.0, 24.0, 4)) for _ in range(20)]
    resid = float(reproducing_residual(hat_kernel, probes).max())
    assert resid <= 1e-6
    _report(4, "reproducing identity", f"max residual {resid:.2e} <= 1e-06 at 20 probes")


def test_criterion_05_mixed_norm_inequalities(hat_kernel, default_grid, default_window):
    rng = np.random.default_rng(105)
    grid = Grid.from_spacing(0.0, 2.0, 0.0, 2.0, 1.0 / 16.0)
    for _ in range(200):  # Hoelder
        f = GridFunction(grid, rng.standard_normal(grid.shape))
        g = GridFunction(grid, rng.standard_normal(grid.shape))
        pr = MixedNormParams(float(rng.choice(PQ_CHOICES)), float(rng.choice(PQ_CHOICES)))
        lhs = abs(duality_pairing(f, g))
        rhs = mixed_function_norm(f, pr) * mixed_function_norm(g, pr.conjugate())
        assert lhs <= rhs * (1.0 + 1e-9) + 1e-12
    wy, wx = grid.weights_y, grid.weights_x
    for _ in range(200):  # Minkowski integral inequality
        vals = np.abs(rng.standard_normal(grid.shape))
        p = float(rng.choice([1.0, 1.5, 2.0, 3.0]))
        lhs = ((vals @ wy) ** p @ wx) ** (1.0 / p)
        rhs = np.array([(vals[:, j] ** p @ wx) ** (1.0 / p)
                        for j in range(vals.shape[1])]) @ wy
        assert lhs <= rhs * (1.0 + 1e-9)
    count = 0
    for pq in [(1.0, 2.0), (2.0, 1.0), (3.0, 1.5)]:
        for _ in range(30):  # analysis bound
            noise = GridFunction(default_grid, rng.standard_normal(default_grid.shape))
            lhs, rhs = analysis_bound_check(noise, hat_kernel, MixedNormParams(*pq),
                                            window=default_window)
            assert lhs <= rhs
            count += 1
    assert count == 90
    _report(5, "mixed-norm inequalities",
            "Hoelder 200/200, Minkowski 200/200, analysis bound 90/90")


def test_criterion_06_tem_contracts(hat_gen, default_grid, default_window):
    rng = np.random.default_rng(106)
    positions = np.linspace(0.5, 31.5, 50) + rng.uniform(-0.2, 0.2, 50)
    devices = DeviceSet(positions, 1.0, (0.0, 32.0))
    cfg_c = TemConfig("crossing", 1.0, 2.0, 0.25)
    cfg_i = TemConfig("integrate-and-fire", 1.0, 2.0, 0.25, alpha=0.5)
    sig = random_vsignal(default_window, hat_gen, default_grid, rng)
    out_c = encode_ctem_devices(sig, devices, cfg_c, (0.0, 32.0))
    out_i = encode_iftem_devices(sig, devices, cfg_i, (0.0, 32.0))
    worst_resid = 0.0
    worst_int = 0.0
    gx, gw = np.polynomial.legendre.leggauss(8)
    for j in range(50):
        for out, cfg in ((out_c, cfg_c), (out_i, cfg_i)):
            gaps = out.gaps(j)
            assert np.all(np.diff(out.times[j]) > 0)
            assert gaps.max() <= cfg.delta_target + 1e-12
        # crossing residual against the ramp
        t = out_c.times[j]
        prev = np.concatenate([[0.0], t[:-1]])
        ramp = -cfg_c.b_level + cfg_c.lambda_slope * (t - prev)
        fvals = sig.eval_slice(devices.positions[j], t)
        worst_resid = max(worst_resid, float(np.max(np.abs(fvals - ramp))))
        # integral recovery against a knot-split Gauss oracle
        t = out_i.times[j]
        prev = np.concatenate([[0.0], t[:-1]])
        for a, b in zip(prev, t):
            edges = np.unique(np.concatenate([[a], np.arange(np.ceil(a * 2) / 2, b, 0.5), [b]]))
            val = 0.0
            for lo, hi in zip(edges[:-1], edges[1:]):
                half = 0.5 * (hi - lo)
                nodes = lo + half * (gx + 1.0)
                fv = sig.eval_slice(devices.positions[j], nodes)
                val += half * float(gw @ (fv * np.exp(cfg_i.alpha * (nodes - b))))
            idx = np.where(out_i.times[j] == b)[0][0]
            worst_int = max(worst_int, abs(val - out_i.values[j][idx]))
    assert worst_resid <= 1e-10
    assert worst_int <= 1e-9
    # alpha = 0 against the exact plain-integrator oracle, five slices
    from temrecon.tem_encode import iftem_encode

    cfg0 = TemConfig("integrate-and-fire", 1.0, 2.0, 0.25, alpha=0.0)
    worst_t = 0.0
    for y0 in (8.2, 12.0, 16.5, 21.0, 24.8):
        f = lambda x: sig.eval_slice(y0, x)
        times, _ = iftem_encode(f, cfg0, (0.0, 32.0))
        oracle = plain_integrator_oracle(f, cfg0, (0.0, 32.0))
        assert times.size == oracle.size
        worst_t = max(worst_t, float(np.max(np.abs(times - oracle))))
    assert worst_t <= 1e-12
    _report(6, "TEM contracts",
            f"density 50/50 per machine, crossing resid {worst_resid:.1e} <= 1e-10, "
            f"integral recovery {worst_int:.1e} <= 1e-09, alpha=0 match {worst_t:.1e} <= 1e-12")


def test_criterion_07_crossing_convergence(hat_kernel, hat_gen, default_grid,
                                           default_window):
    rng = np.random.default_rng(107)
    devices = DeviceSet.uniform(0.0, 32.0, 1.0, 0.5)
    cfg = TemConfig("crossing", 1.0, 2.0, 0.25)
    iters = []
    for trial in range(5):
        sig = random_vsignal(default_window, hat_gen, default_grid, rng)
        out = encode_ctem_devices(sig, devices, cfg, (0.0, 32.0))
        _, rep = ctem_iterate(out, hat_kernel, devices, default_grid, f_true=sig,
                              n_max=40, tol=1e-8)
        assert rep.converged and rep.iterations <= 40
        assert all(r < 1.0 for r in rep.ratios)
        slope, r2 = rep.log_error_fit()
        assert r2 >= 0.99
        iters.append(rep.iterations)
    _report(7, "crossing convergence",
            f"5/5 signals, iterations {iters}, every ratio < 1, R^2 >= 0.99")


def test_criterion_08_integrate_and_fire_convergence(hat_kernel, hat_gen,
                                                     default_grid, default_window):
    rng = np.random.default_rng(108)
    devices = DeviceSet.uniform(0.0, 32.0, 0.125, 0.5)
    theta = TemConfig("integrate-and-fire", 1.0, 2.0, 0.25, alpha=0.5).theta
    ratios = {0.0: [], 0.5: []}
    for trial in range(5):
        sig = random_vsignal(default_window, hat_gen, default_grid, rng)
        for alpha in (0.0, 0.5):
            cfg = TemConfig("integrate-and-fire", 1.0, 2.0, 0.25, alpha=alpha,
                            theta=theta)
            out = encode_iftem_devices(sig, devices, cfg, (0.0, 32.0))
            _, rep = iftem_iterate(out, hat_kernel, devices, default_grid,
                                   f_true=sig, n_max=40, tol=1e-8)
            assert rep.converged and rep.iterations <= 40
            assert all(r < 1.0 for r in rep.ratios)
            slope, r2 = rep.log_error_fit()
            assert r2 >= 0.99
            ratios[alpha].append(rep.r_hat)
    for r0, r5 in zip(ratios[0.0], ratios[0.5]):
        assert r5 > r0
    _report(8, "integrate-and-fire convergence",
            f"5/5 signals at alpha in (0, 0.5); per-step ratio grows with alpha "
            f"({np.mean(ratios[0.0]):.3f} -> {np.mean(ratios[0.5]):.3f})")


def test_criterion_09_rate_bound_consistency(hat_kernel, hat_gen):
    # sweep: wherever an estimate sits below one, the measured ratio obeys it
    sweep = [(0.25, 0.5), (0.1, 0.1), (0.01, 0.01), (0.0035, 0.0035)]
    below_one = [(d, dp) for d, dp in sweep if estimate_r1(hat_kernel, d, dp) < 1.0]
    assert below_one, "at least one swept pair must activate the bound"
    for d, dp in sweep:
        assert estimate_r2(hat_kernel, d, dp, 0.5) >= estimate_r1(hat_kernel, d, dp)
    checked = 0
    for delta, dp in below_one:
        est = estimate_r1(hat_kernel, delta, dp)
        grid = Grid.from_spacing(0.0, 7.0, 0.0, 7.0, 1.0 / 32.0)
        window = window_for_grid(grid, hat_gen)
        rng = np.random.default_rng(109)
        sig = random_vsignal(window, hat_gen, grid, rng)
        devices = DeviceSet.uniform(0.0, 7.0, 2.0 * dp, dp)
        cfg = TemConfig("crossing", 1.0, 2.0, delta)
        out = encode_ctem_devices(sig, devices, cfg, (0.0, 7.0))
        _, rep = ctem_iterate(out, hat_kernel, devices, grid, f_true=sig,
                              n_max=8, tol=1e-10)
        measured = max(rep.ratios)
        assert measured <= est + 0.05
        checked += 1
    # the integrate-and-fire bound never dips below one at feasible scales;
    # its conditional holds vacuously over the sweep
    assert all(estimate_r2(hat_kernel, d, dp, 0.0) >= 1.0 for d, dp in sweep)
    _report(9, "rate-bound consistency",
            f"{checked} crossing instance(s) with estimate < 1; measured <= estimate + 0.05")


def test_criterion_10_frame_suite(hat_kernel, hat_gen, default_grid, default_window):
    rng = np.random.default_rng(110)
    family = FrameFamily.build(hat_kernel, default_grid, 0.25, PR22,
                               n_list=(2, 4, 8), window=default_window)
    assert family.r0_measured < 1.0
    in_band = 0
    errs = {2: [], 4: [], 8: []}
    for _ in range(20):
        sig = random_vsignal(default_window, hat_gen, default_grid, rng)
        band = frame_bounds_check(sig, family, slack=0.05)
        assert band.ok
        in_band += 1
        denom = mixed_function_norm(sig.render(default_grid), PR22)
        for N in (2, 4, 8):
            fh = dual_pair_reconstruct(sig, family, N=N)
            errs[N].append(mixed_function_norm((sig - fh).render(default_grid), PR22)
                           / denom)
    assert in_band == 20
    assert max(errs[8]) <= 1e-3
    assert max(errs[8]) < max(errs[4]) < max(errs[2])
    _report(10, "frame suite",
            f"r0 {family.r0_measured:.3f} < 1, band 20/20, recon error "
            f"N=2/4/8: {max(errs[2]):.1e}/{max(errs[4]):.1e}/{max(errs[8]):.1e}")


def test_criterion_11_determinism(tmp_path):
    cfg = ExperimentConfig(seed=4242)
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    run_experiment(cfg, str(out_a))
    run_experiment(cfg, str(out_b))
    names = ("events.csv", "convergence.csv", "summary.json",
             "reconstruction.csv", "config_echo.json")
    for name in names:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
    _report(11, "determinism", f"byte-identical {', '.join(names)}")
