"""Device geometry and the two time encoding machines."""

import re

import numpy as np
import pytest

from temrecon import (
    DeviceSet,
    EncodingInvariantError,
    ExperimentConfig,
    GapError,
    Generator,
    Grid,
    InputError,
    PreconditionError,
    TemConfig,
    VSignal,
    encode_ctem_devices,
    encode_iftem_devices,
    window_for_grid,
)
from temrecon import tem_encode
from temrecon.generator import LeakMoments, bspline_eval
from temrecon.mixed_norm import CoefSeq
from temrecon.cli import _encode
from temrecon.tem_encode import (
    TemOutput,
    _check_table_amplitude,
    _SliceTable,
    ctem_encode,
    density_report,
    iftem_encode,
)

from conftest import (dense_cover_counts, device_gaps, fire_count, plain_integrator_oracle,
                      random_vsignal, reference_events_csv)


def crossing_cfg(**kw):
    args = dict(c_bound=1.0, b_level=2.0, delta_target=0.25)
    args.update(kw)
    return TemConfig("crossing", **args)


def if_cfg(**kw):
    args = dict(c_bound=1.0, b_level=2.0, delta_target=0.25)
    args.update(kw)
    return TemConfig("integrate-and-fire", **args)


# ---------------------------------------------------------------------------
# devices and partition of unity
# ---------------------------------------------------------------------------

def test_device_counts_and_gap():
    dev = DeviceSet.uniform(0.0, 8.0, 1.0, 0.5)
    assert dev.A_gamma >= 1
    assert dev.B_gamma <= 2
    with pytest.raises(GapError):
        DeviceSet(np.array([0.0, 4.0]), 0.5, (0.0, 8.0))
    # gaps of 1e-4 between the balls
    with pytest.raises(GapError):
        DeviceSet.uniform(0.0, 8.0, 1.0001, 0.5)


@pytest.mark.parametrize("spacing", [0.05, 1.0 / 3.0, 0.5, 1.0])
def test_cover_counts_sweep_matches_dense_referee(spacing):
    # probes on every ball edge, one ulp to either side of it, and on the devices
    sets = [DeviceSet.uniform(0.0, 12.0, spacing, f * spacing) for f in (0.5, 0.75, 1.0, 1.5, 2.0)]
    # jittered positions, five of them twice
    lattice = DeviceSet.uniform(0.0, 12.0, spacing, spacing).positions
    pos = lattice + np.random.default_rng(12).uniform(-0.4, 0.4, lattice.size) * spacing
    sets.append(DeviceSet(np.concatenate([pos, pos[:5]]), spacing, (0.0, 12.0)))
    for dev in sets:
        edges = np.concatenate([dev.positions - dev.delta_prime, dev.positions + dev.delta_prime])
        probes = np.concatenate([edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf),
                                 dev.positions])
        assert np.array_equal(dev.cover_counts(probes), dense_cover_counts(dev, probes))


def test_cover_counts_closed_balls(monkeypatch):
    # without the float-dust margin, a point at exactly delta_prime from a
    # device is covered by it, from either side
    monkeypatch.setattr(DeviceSet, "_COVER_EPS", 0.0)
    dev = DeviceSet(np.array([0.0, 1.0, 1.0]), 0.5, (0.0, 1.0))
    probes = np.array([-0.5, 0.5, 1.5, np.nextafter(1.5, 2.0)])
    assert dev.cover_counts(probes).tolist() == [1, 3, 2, 0]
    assert dense_cover_counts(dev, probes).tolist() == [1, 3, 2, 0]


@pytest.mark.parametrize("mode, counts", [("crossing", (1, 2)), ("integrate-and-fire", (5, 9))])
def test_cover_bounds_of_the_readme_configs(mode, counts):
    # the crossing default is also the device set of the README quick start;
    # the counts are constant between the ball ends, so the ends in the
    # window, the window ends and the midpoints between them take every count
    dev = ExperimentConfig(mode=mode).devices()
    pos, r = dev.positions, dev.delta_prime
    cuts = np.sort(np.clip(np.concatenate([pos - r, pos + r, dev.window]), *dev.window))
    assert np.array_equal(cuts, dev.cuts())
    dense = dense_cover_counts(dev, np.concatenate([cuts, 0.5 * (cuts[:-1] + cuts[1:])]))
    assert (dev.A_gamma, dev.B_gamma) == (int(dense.min()), int(dense.max())) == counts


def test_partition_single_device_covers():
    dev = DeviceSet(np.array([4.0]), 8.0, (0.0, 8.0))
    for y in (0.0, 3.3, 8.0):
        w = dev.u_matrix([y])[:, 0]
        assert w.shape == (1,)
        assert w[0] == 1.0


def test_partition_symmetric_overlap():
    dev = DeviceSet(np.array([0.0, 1.0]), 0.8, (0.0, 1.0))
    w = dev.u_matrix([0.5])[:, 0]
    assert np.allclose(w, [0.5, 0.5])


def test_partition_sums_to_one_and_support():
    rng = np.random.default_rng(0)
    for _ in range(20):
        pos = np.sort(rng.uniform(0, 10, 12))
        dp = float(np.max(np.diff(pos))) * 0.75 + 1e-6
        try:
            dev = DeviceSet(pos, dp, (pos[0], pos[-1]))
        except GapError:
            continue
        ys = rng.uniform(pos[0], pos[-1], 50)
        U = dev.u_matrix(ys)
        assert np.allclose(U.sum(axis=0), 1.0, atol=0)
        inside = np.abs(ys[None, :] - pos[:, None]) <= dp
        assert np.all(U[~inside] == 0.0)


def test_u_l1_norms_exact():
    dev = DeviceSet(np.array([4.0]), 0.5, (3.6, 4.4))
    assert dev.u_l1_norms()[0] == pytest.approx(1.0, abs=1e-14)
    dev2 = DeviceSet.uniform(0.0, 4.0, 1.0, 0.5)
    l1 = dev2.u_l1_norms()
    # total mass equals the covered length
    assert l1.sum() == pytest.approx(5.0, abs=1e-12)


def test_config_validation():
    with pytest.raises(InputError):
        TemConfig("crossing", 2.0, 1.0, 0.25)
    with pytest.raises(InputError):
        TemConfig("integrate-and-fire", 1.0, 2.0, -0.1)
    with pytest.raises(InputError):
        TemConfig("sigma-delta", 1.0, 2.0, 0.25)
    for theta in (0.0, -1.0):
        with pytest.raises(InputError, match="theta must be positive"):
            if_cfg(theta=theta)
    cfg = if_cfg(alpha=0.5)
    assert cfg.theta == pytest.approx((2.0 - 1.0) * (1 - np.exp(-0.5 * 0.25)) / 0.5)
    assert crossing_cfg().lambda_slope == pytest.approx(16.0)


# ---------------------------------------------------------------------------
# crossing machine
# ---------------------------------------------------------------------------

def test_ctem_zero_signal_uniform_half_delta():
    cfg = crossing_cfg()
    f = lambda x: np.zeros_like(np.asarray(x, dtype=float))
    times, vals = ctem_encode(f, cfg, (0.0, 4.0))
    gaps = np.diff(np.concatenate([[0.0], times]))
    assert np.allclose(gaps, cfg.delta_target / 2.0, atol=1e-11)
    assert np.allclose(vals, 0.0, atol=1e-10)


def test_ctem_constant_signal_gap():
    cfg = crossing_cfg()
    c = 0.6
    f = lambda x: np.full_like(np.asarray(x, dtype=float), c)
    times, vals = ctem_encode(f, cfg, (0.0, 4.0))
    want = (cfg.b_level + c) / cfg.lambda_slope
    gaps = np.diff(np.concatenate([[0.0], times]))
    assert np.allclose(gaps, want, atol=1e-11)
    assert np.allclose(vals, c, atol=1e-10)


def test_ctem_crossing_residual_and_first_crossing(hat_gen, small_grid, small_window):
    rng = np.random.default_rng(1)
    sig = random_vsignal(small_window, hat_gen, small_grid, rng)
    cfg = crossing_cfg()
    f = lambda x: sig.eval_slice(5.0, x)
    times, vals = ctem_encode(f, cfg, (0.0, 12.0))
    # residual of the crossing equation at each fire
    prev = np.concatenate([[0.0], times[:-1]])
    ramp = -cfg.b_level + cfg.lambda_slope * (times - prev)
    assert np.max(np.abs(f(times) - ramp)) <= 1e-10
    assert np.max(np.abs(vals - ramp)) <= 1e-14
    # dense-scan oracle: the test function is not met earlier in any interval
    for a, t in zip(prev, times):
        ts = np.linspace(a, t, 300)[1:-1]
        g = f(ts) + cfg.b_level - cfg.lambda_slope * (ts - a)
        assert np.all(g > -1e-9)


def test_ctem_amplitude_precondition():
    cfg = crossing_cfg(c_bound=0.3)
    f = lambda x: 0.8 * np.sin(np.asarray(x))
    with pytest.raises(PreconditionError):
        ctem_encode(f, cfg, (0.0, 8.0))


# ---------------------------------------------------------------------------
# integrate-and-fire machine
# ---------------------------------------------------------------------------

def test_iftem_zero_signal_alpha0():
    cfg = if_cfg(alpha=0.0)
    f = lambda x: np.zeros_like(np.asarray(x, dtype=float))
    times, ints = iftem_encode(f, cfg, (0.0, 4.0))
    gaps = np.diff(np.concatenate([[0.0], times]))
    assert np.allclose(gaps, cfg.theta / cfg.b_level, atol=1e-11)
    assert np.allclose(ints, 0.0, atol=1e-11)


def test_iftem_constant_signal_alpha0():
    cfg = if_cfg(alpha=0.0)
    c = 0.5
    f = lambda x: np.full_like(np.asarray(x, dtype=float), c)
    times, ints = iftem_encode(f, cfg, (0.0, 4.0))
    want_gap = cfg.theta / (cfg.b_level + c)
    gaps = np.diff(np.concatenate([[0.0], times]))
    assert np.allclose(gaps, want_gap, atol=1e-11)
    assert np.allclose(ints, c * gaps, atol=1e-10)


def test_iftem_integral_recovery_oracle():
    cfg = if_cfg(alpha=0.5)
    f = lambda x: 0.7 * np.sin(1.3 * np.asarray(x))
    times, ints = iftem_encode(f, cfg, (0.0, 8.0))
    prev = np.concatenate([[0.0], times[:-1]])
    gx, gw = np.polynomial.legendre.leggauss(24)
    oracle = []
    for a, b in zip(prev, times):
        half = 0.5 * (b - a)
        nodes = a + half * (gx + 1)
        oracle.append(half * float(gw @ (f(nodes) * np.exp(cfg.alpha * (nodes - b)))))
    assert np.max(np.abs(np.array(oracle) - ints)) <= 1e-9


def test_iftem_alpha0_matches_plain_integrator(hat_gen, small_grid, small_window):
    rng = np.random.default_rng(2)
    sig = random_vsignal(small_window, hat_gen, small_grid, rng)
    cfg = if_cfg(alpha=0.0)
    f = lambda x: sig.eval_slice(6.0, x)
    times, _ = iftem_encode(f, cfg, (0.0, 12.0))
    oracle = plain_integrator_oracle(f, cfg, (0.0, 12.0))
    assert times.size == oracle.size
    assert np.max(np.abs(times - oracle)) <= 1e-12


# ---------------------------------------------------------------------------
# density, output contracts, vectorized paths
# ---------------------------------------------------------------------------

def test_density_report_cases():
    dev = DeviceSet(np.array([4.0]), 8.0, (0.0, 8.0))
    cfg = crossing_cfg()
    out = TemOutput.from_lists(cfg, dev, 0.0, 0.125, [np.array([0.125])], [np.array([0.0])])
    mg, n, ok = density_report(out, 0.25)
    assert ok and n == 1 and mg <= 0.25
    empty = TemOutput.from_lists(cfg, dev, 0.0, 8.0, [np.array([])], [np.array([])])
    mg, n, ok = density_report(empty, 0.25)
    assert not ok and n == 0


@pytest.mark.parametrize("times", [
    # no fire, one fire and several: the largest gap is a silent device's
    [[], [0.9], [0.6, 1.1, 2.9], [], [0.55, 3.0]],
    # a fire on every device: the largest gap lies inside a device
    [[0.9], [0.6, 1.1, 2.9], [0.6, 3.3], [1.0], [2.0]],
], ids=["silent-devices", "inner-gap"])
def test_density_report_matches_the_per_device_gaps(times):
    dev = DeviceSet(np.arange(5.0), 1.0, (0.0, 4.0))
    times = [np.array(t) for t in times]
    out = TemOutput.from_lists(crossing_cfg(), dev, 0.5, 3.4, times, times)
    want = max(float(device_gaps(out, j).max()) for j in range(len(dev)))
    assert density_report(out, 2.8) == (want, fire_count(out), want <= 2.8)
    assert density_report(out, want)[2]


# fire counts per device: a silent first, middle and last device, and none firing
SILENT_CASES = {"first": [0, 3, 5, 1], "middle": [4, 0, 2, 6], "last": [2, 1, 3, 0],
                "all": [0, 0, 0, 0]}


def _from_lists(case):
    """(times, values, output) of four devices on [0.5, 3.4] with random fires."""
    rng = np.random.default_rng(sorted(SILENT_CASES).index(case))
    times = [np.sort(rng.uniform(0.5, 3.4, n)) for n in SILENT_CASES[case]]
    values = [rng.normal(size=n) for n in SILENT_CASES[case]]
    dev = DeviceSet(np.arange(4.0), 1.0, (0.0, 3.0))
    return times, values, TemOutput.from_lists(crossing_cfg(), dev, 0.5, 3.4, times, values)


@pytest.mark.parametrize("case", SILENT_CASES)
def test_from_lists_round_trips(case):
    times, values, out = _from_lists(case)
    assert out.offsets.tolist() == np.cumsum([0] + SILENT_CASES[case]).tolist()
    assert np.array_equal(out.t, np.concatenate(times)) and np.array_equal(out.v, np.concatenate(values))
    for j in range(4):
        assert np.array_equal(out.times[j], times[j]) and np.array_equal(out.values[j], values[j])
    # the per-device views cannot go stale: neither they nor the flat arrays take writes
    with pytest.raises(TypeError):
        out.times[0] = times[0]
    with pytest.raises(ValueError):
        out.values[1][...] = 0.0
    assert out.max_gap == max(float(device_gaps(out, j).max()) for j in range(4))


@pytest.mark.parametrize("case", SILENT_CASES)
def test_events_csv_matches_the_per_device_template(tmp_path, case):
    out = _from_lists(case)[2]
    out.write_events_csv(tmp_path / "events.csv")
    assert (tmp_path / "events.csv").read_bytes() == reference_events_csv(out)


def test_events_csv_with_a_device_of_more_than_ten_thousand_fires(tmp_path):
    # fire indices of five digits, and blocks of rows that start and end
    # inside a device and across a silent one
    rng = np.random.default_rng(11)
    counts = [3, 12_345, 0, 1_500, 0, 7]
    times = [np.sort(rng.uniform(0.0, 40.0, n)) for n in counts]
    values = [rng.normal(size=n) * 10.0 ** rng.integers(-18, 3, n) for n in counts]
    dev = DeviceSet(np.arange(6.0), 1.0, (0.0, 5.0))
    out = TemOutput.from_lists(crossing_cfg(), dev, 0.0, 40.0, times, values)
    out.write_events_csv(tmp_path / "events.csv")
    assert (tmp_path / "events.csv").read_bytes() == reference_events_csv(out)


def test_gaps_and_monotone_times(hat_gen, small_grid, small_window):
    rng = np.random.default_rng(3)
    for machine in ("crossing", "integrate-and-fire"):
        for trial in range(10):
            sig = random_vsignal(small_window, hat_gen, small_grid, rng)
            cfg = crossing_cfg() if machine == "crossing" else if_cfg(alpha=0.25)
            f = lambda x: sig.eval_slice(float(rng.uniform(4, 8)), x)
            enc = ctem_encode if machine == "crossing" else iftem_encode
            times = enc(f, cfg, (0.0, 12.0))[0]
            assert np.all(np.diff(times) > 0)
            gaps = np.diff(np.concatenate([[0.0], times, [12.0]]))
            assert gaps.max() <= cfg.delta_target + 1e-12


def test_vectorized_matches_scalar(hat_gen, small_grid, small_window):
    rng = np.random.default_rng(4)
    sig = random_vsignal(small_window, hat_gen, small_grid, rng)
    dev = DeviceSet.uniform(0.0, 12.0, 1.0, 0.5)
    cfg_c = crossing_cfg()
    out = encode_ctem_devices(sig, dev, cfg_c, (0.0, 12.0))
    for j in (3, 7):
        t_s, v_s = ctem_encode(lambda x: sig.eval_slice(dev.positions[j], x),
                               cfg_c, (0.0, 12.0))
        assert np.max(np.abs(t_s - out.times[j])) <= 1e-12
        assert np.max(np.abs(v_s - out.values[j])) <= 1e-10
    cfg_i = if_cfg(alpha=0.5)
    out_i = encode_iftem_devices(sig, dev, cfg_i, (0.0, 12.0))
    for j in (3, 7):
        t_s, i_s = iftem_encode(lambda x: sig.eval_slice(dev.positions[j], x),
                                cfg_i, (0.0, 12.0))
        assert t_s.size == out_i.times[j].size
        assert np.max(np.abs(t_s - out_i.times[j])) <= 1e-10
        assert np.max(np.abs(i_s - out_i.values[j])) <= 1e-10


def test_vectorized_matches_scalar_order3():
    # quadratic slices curve on every knot piece, where hat slices are
    # piecewise linear and the crossing Newton step is exact within a piece
    gen = Generator(3, 3)
    grid = Grid.from_spacing(0.0, 8.0, 0.0, 8.0, 1.0 / 32.0)
    window = window_for_grid(grid, gen, margin_extra=0)  # 5 x 5 coefficients
    sig = random_vsignal(window, gen, grid, np.random.default_rng(8))
    dev = DeviceSet.uniform(0.0, 8.0, 1.0, 0.5)
    cases = [(encode_ctem_devices, ctem_encode, crossing_cfg())]
    cases += [(encode_iftem_devices, iftem_encode, if_cfg(alpha=a)) for a in (0.0, 0.5)]
    for fast, scalar, cfg in cases:
        out = fast(sig, dev, cfg, (0.0, 8.0))
        for j in (3, 5):
            t_s, v_s = scalar(lambda x: sig.eval_slice(dev.positions[j], x), cfg, (0.0, 8.0))
            assert t_s.size == out.times[j].size
            assert np.max(np.abs(t_s - out.times[j])) <= 1e-12
            assert np.max(np.abs(v_s - out.values[j])) <= 1e-10


def test_crossing_walk_over_several_pieces(hat_gen, small_grid, small_window):
    # fire windows of 3 units span three or four pieces, so a device walks
    # over more than one piece between fires
    sig = random_vsignal(small_window, hat_gen, small_grid, np.random.default_rng(10))
    dev = DeviceSet.uniform(0.0, 12.0, 1.0, 0.5)
    cfg = crossing_cfg(delta_target=3.0)
    out = encode_ctem_devices(sig, dev, cfg, (0.0, 12.0))
    for j in range(len(dev)):
        t_s, v_s = ctem_encode(lambda x: sig.eval_slice(dev.positions[j], x), cfg,
                               (0.0, 12.0), scan_step=1.5)
        assert t_s.size == out.times[j].size > 0
        assert np.max(np.abs(t_s - out.times[j])) <= 1e-12
        assert np.max(np.abs(v_s - out.values[j])) <= 1e-10


def _quadratic_dip(t0):
    # the first crossing of the quadratic dip of the cases below, from the start t0
    return 2.0 + (0.6 - np.sqrt(0.36 - 7.2 * (0.6 * t0 - 0.55))) / 3.6


@pytest.mark.parametrize("order, dip, t0, first", [
    # a hat slice at 0.8 on every knot but -0.25 at knot 2: with lambda 0.6
    # from the start 0.25, g = f + b - lambda (t - t_prev) is 1.55 at knot 1
    # and -0.1 at knot 2, so the first crossing is 1 + 1.55 / 1.65, while
    # g is positive at every delta_target / 8 = 0.5 scan sample to 3.5
    (2, -0.25, 0.25, 1.0 + 1.55 / 1.65),
    # a quadratic slice at -1 on knot 2: on its piece x = t - 2 in
    # [-0.5, 0.5], g = 1.8 x^2 - 0.6 x - 0.07 dips below zero and returns
    # (f' = 3.6 x reaches 1.8 > lambda), positive at both piece ends
    (3, -1.0, 0.8, 2.0 + (0.6 - np.sqrt(0.864)) / 3.6),
    # later starts t0, with g = 1.8 x^2 - 0.6 x + 0.6 t0 - 0.55: the dip
    # lies between samples of a walk that reads a piece at points fixed in
    # advance rather than at g's critical points
    (3, -1.0, 0.93, _quadratic_dip(0.93)),
    (3, -1.0, 0.95, _quadratic_dip(0.95)),
    (3, -1.0, 0.97, _quadratic_dip(0.97)),
    # a cubic slice at -1 on knot 2: on the piece x = t - 2 in [0, 1],
    # g = -0.9 x^3 + 1.8 x^2 - 0.6 x + 0.02 is positive at both ends and
    # dips below zero from x = 0.0375 on
    (4, -1.0, 0.7, 2.0 + min(r.real for r in np.roots([-0.9, 1.8, -0.6, 0.02])
                             if abs(r.imag) < 1e-12 and 0.0 < r.real < 1.0)),
], ids=["hat", "quadratic-in-piece", "quadratic-start-0.93", "quadratic-start-0.95",
        "quadratic-start-0.97", "cubic-in-piece"])
def test_crossing_fires_at_the_first_crossing_of_a_dip(order, dip, t0, first):
    entries = np.full((12, 12), 0.8)    # knots -1 .. 10 on both axes
    entries[3] = dip
    sig = VSignal(CoefSeq(entries, -1, -1), Generator(order, 2))
    dev = DeviceSet(np.array([6.0]), 6.0, (0.0, 12.0))
    cfg = TemConfig("crossing", 1.0, 1.2, 4.0)
    horizon = (t0, 8.0)
    out = encode_ctem_devices(sig, dev, cfg, horizon)
    times = out.times[0]
    assert abs(times[0] - first) <= 1e-12
    # g stays positive between a fire and the next one: each is the first crossing
    starts = np.concatenate([[horizon[0]], times[:-1]])
    for t_prev, t_fire in zip(starts, times):
        t = np.linspace(t_prev, t_fire, 2001)[:-1]
        g = sig.eval_slice(6.0, t) + cfg.b_level - cfg.lambda_slope * (t - t_prev)
        assert np.all(g > 0.0)
    assert device_gaps(out, 0).max() <= cfg.delta_target


def _spy_chain(monkeypatch):
    """[(rows, candidates, Newton passes)] of every chain round, and [(rows,
    whether each start lies inside its bracket)] of every bracketed Newton
    solve, of the encodes that follow."""
    chain, newton, rounds, bracketed = tem_encode._newton_chain, tem_encode._bracketed_newton, [], []

    def counted(residual, rows, t_last, T, t_end):
        passes = []
        out = chain(lambda *a: passes.append(1) or residual(*a), rows, t_last, T, t_end)
        rounds.append(T.shape + (len(passes),))
        return out

    def checked(g, lo, hi, start):
        bracketed.append((lo.size, bool(np.all((lo <= start) & (start <= hi)))))
        return newton(g, lo, hi, start)

    monkeypatch.setattr(tem_encode, "_newton_chain", counted)
    monkeypatch.setattr(tem_encode, "_bracketed_newton", checked)
    return rounds, bracketed


def test_crossing_chain_takes_a_few_passes_a_round(hat_gen, small_grid, small_window,
                                                  monkeypatch):
    # a round solves up to CHAIN_CANDIDATES fires at once, and its start
    # lies close enough for two or three Newton passes: the passes follow
    # the rounds, not the fires, and no fire is left to the fallback
    sig = random_vsignal(small_window, hat_gen, small_grid, np.random.default_rng(11))
    dev = DeviceSet.uniform(0.0, 12.0, 1.0, 0.5)
    rounds, bracketed = _spy_chain(monkeypatch)
    out = encode_ctem_devices(sig, dev, crossing_cfg(), (0.0, 12.0))
    assert fire_count(out) > 5 * 12 * len(dev)
    assert len(rounds) <= 2 and all(passes <= 3 for _, _, passes in rounds)
    assert all(rows * n <= tem_encode.CHAIN_CANDIDATES for rows, n, _ in rounds)
    assert bracketed == []


# with the amplitude check off: a slice above b_level, on which the ramp
# from the horizon start stays below f + b for longer than delta_target,
# and a hat slice rising from 0 at knot 2 to 3 at knot 3, on which a gap
# after a fire inside the piece [2, 3] exceeds delta_target, with the
# horizon ending at the piece end
FLAT = (np.full(12, 1.5), TemConfig("crossing", 1.0, 1.2, 4.0), 8.0)
STEP = (np.where(np.arange(-1, 11) >= 3, 3.0, 0.0), TemConfig("crossing", 1.0, 1.2, 0.25), 3.0)


@pytest.mark.parametrize("order", [2, 3])
@pytest.mark.parametrize("case", [FLAT, STEP], ids=["above-b", "step"])
def test_crossing_invariant_trips_when_the_amplitude_bound_fails(order, case, monkeypatch):
    column, cfg, t_end = case
    sig = VSignal(CoefSeq(np.repeat(column[:, None], 12, axis=1), -1, -1), Generator(order, 2))
    dev = DeviceSet(np.array([6.0]), 6.0, (0.0, 12.0))
    monkeypatch.setattr(tem_encode, "_check_table_amplitude", lambda *args: None)
    with pytest.raises(EncodingInvariantError, match="no crossing found within delta_target"):
        encode_ctem_devices(sig, dev, cfg, (0.0, t_end))


def test_vectorized_matches_scalar_order4():
    # the only order >= 4 run of the crossing Newton path
    gen = Generator(4, 4)
    grid = Grid.from_spacing(0.0, 8.0, 0.0, 8.0, 1.0 / 32.0)
    window = window_for_grid(grid, gen, margin_extra=0)
    sig = random_vsignal(window, gen, grid, np.random.default_rng(9))
    dev = DeviceSet(np.array([4.0]), 4.0, (0.0, 8.0))
    cases = [(encode_ctem_devices, ctem_encode, crossing_cfg())]
    cases += [(encode_iftem_devices, iftem_encode, if_cfg(alpha=a)) for a in (0.0, 0.5)]
    for fast, scalar, cfg in cases:
        out = fast(sig, dev, cfg, (0.0, 8.0))
        t_s, v_s = scalar(lambda x: sig.eval_slice(4.0, x), cfg, (0.0, 8.0))
        assert t_s.size == out.times[0].size > 0
        assert np.max(np.abs(t_s - out.times[0])) <= 1e-12
        assert np.max(np.abs(v_s - out.values[0])) <= 1e-10


def _order_signal(order, seed):
    gen = Generator(order, 2)
    grid = Grid.from_spacing(0.0, 12.0, 0.0, 12.0, 1.0 / 32.0)
    return random_vsignal(window_for_grid(grid, gen), gen, grid, np.random.default_rng(seed))


@pytest.mark.parametrize("order", [2, 3])
@pytest.mark.parametrize("fault", ["off-bracket", "not-finite"])
def test_fires_hold_when_a_chain_pass_is_unusable(order, fault, monkeypatch):
    # inside the chain every residual slope reads with its sign flipped, so
    # every Newton pass steps away from the roots until the pass cap, or
    # reads NaN, so no candidate is kept: either way no chain keeps a fire,
    # and every device of both machines falls back from the horizon start
    # to the unfaulted fires, one bracketed fire a round
    sig = _order_signal(order, 30 + order)
    dev = DeviceSet.uniform(0.0, 12.0, 1.0, 0.5)
    chain, kept = tem_encode._newton_chain, []

    def faulty(residual, *args):
        def broken(rows, t):
            r, d, a = residual(rows, t)
            return r, np.full_like(d, np.nan) if fault == "not-finite" else -d, a

        times, counts = chain(broken, *args)
        kept.append(np.maximum(counts, 0).sum())
        return times, counts

    for encode, cfg in ((encode_ctem_devices, crossing_cfg()), (encode_iftem_devices, if_cfg(alpha=0.5))):
        fast = encode(sig, dev, cfg, (0.0, 12.0))
        with monkeypatch.context() as m:
            m.setattr(tem_encode, "_newton_chain", faulty)
            _, bracketed = _spy_chain(m)
            slow = encode(sig, dev, cfg, (0.0, 12.0))
        assert kept and all(k == 0 for k in kept)
        assert sum(n for n, _ in bracketed) >= fire_count(fast) > 0
        assert all(inside for _, inside in bracketed)
        for j in range(len(dev)):
            assert slow.times[j].size == fast.times[j].size
            assert np.max(np.abs(slow.times[j] - fast.times[j]), initial=0.0) <= 1e-13
            assert np.max(np.abs(slow.values[j] - fast.values[j]), initial=0.0) <= 1e-12


@pytest.mark.parametrize("order", [2, 3])
def test_fires_hold_when_the_chain_runs_out_of_candidates(order, monkeypatch):
    # with three candidates a device a round, on a horizon off the knot
    # lattice, the chain goes round after round from each device's last
    # fire, to the fires of the unfaulted chain.  Every leak moment is read
    # over at most one knot piece.
    sig = _order_signal(order, 40 + order)
    dev = DeviceSet.uniform(0.0, 12.0, 1.0, 0.5)
    cfg, horizon = if_cfg(alpha=0.5), (0.3, 12.0)
    fast = encode_iftem_devices(sig, dev, cfg, horizon)
    moments, reads = LeakMoments.__call__, []
    monkeypatch.setattr(LeakMoments, "__call__", lambda self, h: reads.append(np.ravel(h)) or moments(self, h))
    monkeypatch.setattr(tem_encode, "CHAIN_CANDIDATES", 3 * len(dev))
    rounds, bracketed = _spy_chain(monkeypatch)
    out = encode_iftem_devices(sig, dev, cfg, horizon)
    assert rounds[0][:2] == (len(dev), 3) and all(r * n <= 3 * len(dev) for r, n, _ in rounds)
    assert len(rounds) >= fire_count(out) / (3 * len(dev)) and bracketed == []
    u = np.concatenate(reads)
    assert u.min() >= 0.0 and u.max() <= 1.0
    assert fire_count(out) == fire_count(fast) > 0
    for j in range(len(dev)):
        assert out.times[j].size == fast.times[j].size
        assert np.max(np.abs(out.times[j] - fast.times[j]), initial=0.0) <= 1e-13
    for j in (3, 7):
        t_s, _ = iftem_encode(lambda x: sig.eval_slice(dev.positions[j], x), cfg, horizon)
        assert t_s.size == out.times[j].size > 0
        assert np.max(np.abs(t_s - out.times[j])) <= 1e-10


@pytest.mark.parametrize("mode", ["crossing", "integrate-and-fire"])
def test_fires_hold_when_the_devices_outnumber_the_candidates(mode, monkeypatch):
    # fewer candidates a round than devices: each round solves one fire a
    # device, to the fires of the unfaulted chain and the scalar referee
    sig = _order_signal(3, 45)
    dev = DeviceSet.uniform(0.0, 12.0, 1.0, 0.5)
    encode, scalar, cfg = ((encode_ctem_devices, ctem_encode, crossing_cfg()) if mode == "crossing"
                           else (encode_iftem_devices, iftem_encode, if_cfg(alpha=0.5)))
    fast = encode(sig, dev, cfg, (0.0, 12.0))
    monkeypatch.setattr(tem_encode, "CHAIN_CANDIDATES", len(dev) // 2)
    rounds, bracketed = _spy_chain(monkeypatch)
    out = encode(sig, dev, cfg, (0.0, 12.0))
    assert rounds[0][:2] == (len(dev), 1) and bracketed == []
    assert all(n == max(len(dev) // 2 // r, 1) for r, n, _ in rounds)
    assert fire_count(out) == fire_count(fast) > 0
    for j in range(len(dev)):
        assert out.times[j].size == fast.times[j].size
        assert np.max(np.abs(out.times[j] - fast.times[j]), initial=0.0) <= 1e-13
    for j in (3, 7):
        t_s, _ = scalar(lambda x: sig.eval_slice(dev.positions[j], x), cfg, (0.0, 12.0))
        assert t_s.size == out.times[j].size > 0
        assert np.max(np.abs(t_s - out.times[j])) <= 1e-10


def test_iftem_chain_takes_a_few_passes_a_round(hat_gen, small_grid, small_window,
                                                monkeypatch):
    # 97 devices: a round solves 63 fires of each, two or three Newton
    # passes a round, and no fire is left to the fallback
    sig = random_vsignal(small_window, hat_gen, small_grid, np.random.default_rng(12))
    dev = DeviceSet.uniform(0.0, 12.0, 0.125, 0.5)
    rounds, bracketed = _spy_chain(monkeypatch)
    out = encode_iftem_devices(sig, dev, if_cfg(alpha=0.5), (0.0, 12.0))
    assert fire_count(out) > 5 * 12 * len(dev)
    assert len(rounds) <= 3 and all(passes <= 3 for _, _, passes in rounds)
    assert all(rows * n <= tem_encode.CHAIN_CANDIDATES for rows, n, _ in rounds)
    assert bracketed == []


def test_given_theta_past_the_chain_bound_keeps_its_fires(monkeypatch):
    # b - c_bound - alpha theta = 1 - 4 * 0.3 < 0: y may fall below theta
    # after reaching it, so no chain runs and every device fires one fire
    # a round; 5,062 fires at seed 3, as the piece-by-piece encoder made
    cfg = ExperimentConfig(mode="integrate-and-fire", x_max=12, y_max=12, alpha=4, theta=0.3)
    rounds, _ = _spy_chain(monkeypatch)
    _, _, _, dev, sig, out = _encode(cfg, 3)
    assert rounds == [] and fire_count(out) == 5062
    for j in (3, 50):
        t_s, _ = iftem_encode(lambda x: sig.eval_slice(dev.positions[j], x), cfg.tem_config(),
                              (cfg.x_min, cfg.x_max))
        assert t_s.size == out.times[j].size > 0
        assert np.max(np.abs(t_s - out.times[j])) <= 1e-10


@pytest.mark.parametrize("order", [2, 3])
@pytest.mark.parametrize("alpha", [0.0, 0.5, 4.0])
def test_iftem_devices_match_scalar_off_the_lattice(order, alpha):
    # a horizon that starts inside a knot piece, without a leak and with a
    # moderate and a strong one
    sig = _order_signal(order, 50 + order)
    dev = DeviceSet.uniform(0.0, 12.0, 1.0, 0.5)
    cfg, horizon = if_cfg(alpha=alpha), (0.3, 12.0)
    out = encode_iftem_devices(sig, dev, cfg, horizon)
    for j in (3, 7):
        t_s, _ = iftem_encode(lambda x: sig.eval_slice(dev.positions[j], x), cfg, horizon)
        assert t_s.size == out.times[j].size > 0
        assert np.max(np.abs(t_s - out.times[j])) <= 1e-10


@pytest.mark.parametrize("order", [2, 3, 4])
@pytest.mark.parametrize("horizon, past_last", [((3.3, 8.7), False), ((0.3, 11.7), True)],
                         ids=["inside-pieces", "past-the-last-piece"])
def test_crossing_devices_match_scalar_off_the_lattice(order, horizon, past_last):
    # a horizon that starts and ends inside knot pieces, and one that runs
    # past the start of the table's last piece, which has no end
    sig = _order_signal(order, 60 + order)
    dev = DeviceSet.uniform(0.0, 12.0, 1.0, 0.5)
    table = _SliceTable(sig, dev)
    assert (horizon[1] > table.origin + table.last) == past_last
    cfg = crossing_cfg()
    out = encode_ctem_devices(sig, dev, cfg, horizon)
    for j in (3, 7):
        t_s, v_s = ctem_encode(lambda x: sig.eval_slice(dev.positions[j], x), cfg, horizon)
        assert t_s.size == out.times[j].size > 0
        assert np.max(np.abs(t_s - out.times[j])) <= 1e-12
        assert np.max(np.abs(v_s - out.values[j])) <= 1e-10


@pytest.mark.parametrize("order", [2, 3, 4, 5])
def test_slice_table_matches_bspline_design(order):
    gen = Generator(order, 2)
    grid = Grid.from_spacing(0.0, 12.0, 0.0, 12.0, 1.0 / 32.0)
    window = window_for_grid(grid, gen)
    rng = np.random.default_rng(order)
    sig = VSignal(CoefSeq(rng.uniform(-1.0, 1.0, (window.n1, window.n2)),
                          window.k1_first, window.k2_first), gen)
    dev = DeviceSet(np.sort(rng.uniform(0.0, 12.0, 6)), 12.0, (0.0, 12.0))
    table = _SliceTable(sig, dev)
    coefs = np.stack([sig.coeffs.entries @ bspline_eval(2, y - window.k2s)
                      for y in dev.positions])
    k1s = window.k1s
    lo, hi = k1s[0] - order / 2.0, k1s[-1] + order / 2.0   # slice support
    knots = np.arange(lo, hi + 0.5)
    outside = np.array([-40.0, lo - 3.3, lo - 1.0, lo, hi, hi + 0.25, hi + 7.0])
    t = np.concatenate([rng.uniform(lo - 2.0, hi + 2.0, 200), knots, outside])
    rows = np.arange(len(dev))
    x = t[:, None] - k1s[None, :]
    want = coefs @ bspline_eval(order, x).T
    lower = bspline_eval(order - 1, x + 0.5) - bspline_eval(order - 1, x - 0.5)
    want_slope = coefs @ lower.T
    got, got_slope = table(rows, t, slope=True)
    assert np.max(np.abs(got - want)) <= 1e-13
    assert np.max(np.abs(got_slope - want_slope)) <= 1e-13
    # per-row points read the same numbers as shared points
    per_row = table(rows, np.tile(t, (rows.size, 1)))
    assert np.array_equal(per_row, got)
    # outside the window the table reads zero, as the B-splines do; slopes
    # are right derivatives, so a hat slice starts rising at lo
    out = (t <= lo) | (t >= hi)
    assert np.all(got[:, out] == 0.0) and np.all(want[:, out] == 0.0)
    assert np.all(got_slope[:, out & (t != lo)] == 0.0)


# one space coefficient column of 1.5 > c_bound, which only device 7 sees,
# and one coefficient (5, 6) of 1.0001 seen by a single device at y = 6: a
# knot peak between the crossing scan samples
COLUMN = (None, 7, 1.5, DeviceSet.uniform(0.0, 12.0, 1.0, 0.5), 7)
KNOT_PEAK = (5, 6, 1.0001, DeviceSet(np.array([6.0]), 6.0, (0.0, 12.0)), 0)


@pytest.mark.parametrize("encode, cfg, case", [
    (encode_ctem_devices, crossing_cfg(), COLUMN),
    (encode_iftem_devices, if_cfg(alpha=0.5), COLUMN),
    (encode_ctem_devices, crossing_cfg(), KNOT_PEAK),
], ids=["encode_ctem_devices-cfg0", "encode_iftem_devices-cfg1", "encode_ctem_devices-knot-peak"])
def test_vectorized_amplitude_error_names_device(encode, cfg, case, hat_gen, small_window):
    k1, k2, peak, dev, j = case
    entries = np.zeros((small_window.n1, small_window.n2))
    k1 = slice(None) if k1 is None else k1 - small_window.k1_first
    entries[k1, k2 - small_window.k2_first] = peak
    sig = VSignal(CoefSeq(entries, small_window.k1_first, small_window.k2_first), hat_gen)
    with pytest.raises(PreconditionError) as err:
        encode(sig, dev, cfg, (0.0, 12.0))
    msg = str(err.value)
    assert cfg.mode in msg and f"on device {j} " in msg
    t = float(re.search(r"at t=(\S+)", msg).group(1))
    assert abs(sig.eval_slice(dev.positions[j], np.array([t]))[0]) > cfg.c_bound


@pytest.mark.parametrize("mode", ["crossing", "integrate-and-fire"])
def test_amplitude_check_reads_an_interior_peak(mode):
    # quadratic B-splines with coefficients a at knot 4 and a / 2 at knot 5:
    # on the piece [3.5, 4.5], f = a (0.75 - x^2) + a (x + 0.5)^2 / 4 with
    # x = t - 4 peaks at x = 1/6 with 5a/6, between the samples u = 0, 1/2,
    # 1 of the old check at delta_target 4 (crossing) and 2e-4 above its
    # nearest sample of 22 per piece (integrate-and-fire)
    a = 1.00005 * 6.0 / 5.0
    entries = np.zeros((12, 12))        # knots -1 .. 10 on both axes
    entries[5], entries[6] = a, a / 2.0
    sig = VSignal(CoefSeq(entries, -1, -1), Generator(3, 2))
    dev = DeviceSet(np.array([6.0]), 6.0, (0.0, 12.0))
    cfg = TemConfig(mode, 1.0, 1.2, 4.0)
    t_peak = 4.0 + 1.0 / 6.0
    assert sig.eval_slice(6.0, np.array([t_peak]))[0] == pytest.approx(1.00005, abs=1e-12)
    encode = encode_ctem_devices if mode == "crossing" else encode_iftem_devices
    with pytest.raises(PreconditionError) as err:
        encode(sig, dev, cfg, (0.0, 8.0))
    msg = str(err.value)
    assert "on device 0 " in msg
    assert float(re.search(r"at t=(\S+)", msg).group(1)) == pytest.approx(t_peak, abs=1e-5)


@pytest.mark.parametrize("order", [3, 4, 5, 6])
def test_amplitude_check_is_exact(order):
    # the check reads every slice's max |f| over the horizon: a bound just
    # under a dense max fails, one just over it passes
    gen = Generator(order, 2)
    grid = Grid.from_spacing(0.0, 12.0, 0.0, 12.0, 1.0 / 32.0)
    window = window_for_grid(grid, gen)
    rng = np.random.default_rng(20 + order)
    sig = VSignal(CoefSeq(rng.uniform(-1.0, 1.0, (window.n1, window.n2)),
                          window.k1_first, window.k2_first), gen)
    dev = DeviceSet(np.array([2.5, 6.0, 9.25]), 6.0, (0.0, 12.0))
    table = _SliceTable(sig, dev)
    horizon = (0.3, 11.7)
    rows = np.arange(len(dev))
    t = np.linspace(*horizon, 120_001)
    j, i = np.unravel_index(np.argmax(np.abs(table(rows, t))), (rows.size, t.size))
    fine = np.linspace(t[max(i - 1, 0)], t[min(i + 1, t.size - 1)], 20_001)
    peak = float(np.abs(table(rows[j: j + 1], fine)).max())
    _check_table_amplitude(table, crossing_cfg(c_bound=peak + 1e-8, b_level=2.0 * peak), *horizon)
    with pytest.raises(PreconditionError, match=f"on device {j} "):
        _check_table_amplitude(table, crossing_cfg(c_bound=peak - 1e-9, b_level=2.0 * peak),
                               *horizon)


def test_monotone_load_if(hat_gen, small_grid, small_window):
    rng = np.random.default_rng(5)
    sig = random_vsignal(small_window, hat_gen, small_grid, rng)
    f = lambda x: sig.eval_slice(6.0, x)
    for alpha in (0.0, 0.5):
        theta = 0.2
        lo = TemConfig("integrate-and-fire", 1.0, 2.0, 0.25, alpha=alpha, theta=theta)
        hi = TemConfig("integrate-and-fire", 1.0, 4.0, 0.25, alpha=alpha, theta=theta)
        t_lo, _ = iftem_encode(f, lo, (0.0, 12.0))
        t_hi, _ = iftem_encode(f, hi, (0.0, 12.0))
        g_lo = np.diff(np.concatenate([[0.0], t_lo]))
        g_hi = np.diff(np.concatenate([[0.0], t_hi]))
        assert g_hi.max() <= g_lo.max() + 1e-12
        assert t_hi.size >= t_lo.size


def test_decoder_needs_no_side_channel(hat_gen, small_grid, small_window):
    # crossing values must be reproducible from times and config alone
    rng = np.random.default_rng(6)
    sig = random_vsignal(small_window, hat_gen, small_grid, rng)
    cfg = crossing_cfg()
    f = lambda x: sig.eval_slice(5.5, x)
    times, vals = ctem_encode(f, cfg, (0.0, 12.0))
    prev = np.concatenate([[0.0], times[:-1]])
    decoded = -cfg.b_level + cfg.lambda_slope * (times - prev)
    assert np.max(np.abs(decoded - f(times))) <= 1e-10
    # integrate-and-fire integrals likewise
    cfg_i = if_cfg(alpha=0.4)
    t_i, ints = iftem_encode(f, cfg_i, (0.0, 12.0))
    gaps = np.diff(np.concatenate([[0.0], t_i]))
    decoded_i = cfg_i.theta - cfg_i.b_level * cfg_i.kappa_alpha(gaps)
    assert np.max(np.abs(decoded_i - ints)) <= 1e-14


def test_events_csv(tmp_path, hat_gen, small_grid, small_window):
    rng = np.random.default_rng(7)
    sig = random_vsignal(small_window, hat_gen, small_grid, rng)
    dev = DeviceSet.uniform(0.0, 12.0, 1.0, 0.5)
    out = encode_ctem_devices(sig, dev, crossing_cfg(), (0.0, 12.0))
    path = tmp_path / "events.csv"
    out.write_events_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "device_id,fire_index,time,recovered_value"
    assert len(lines) == 1 + fire_count(out)
    for line in lines[1:]:
        dev_id, idx, t, v = line.split(",")
        assert np.isfinite(float(t)) and np.isfinite(float(v))
    # 17 significant digits survive a round trip
    j, i = int(lines[1].split(",")[0]), int(lines[1].split(",")[1])
    assert float(lines[1].split(",")[2]) == out.times[j][i]
    # same bytes as one f-string per fire
    want = "device_id,fire_index,time,recovered_value\n" + "".join(
        f"{j},{i},{t:.17g},{v:.17g}\n"
        for j, (ts, vs) in enumerate(zip(out.times, out.values))
        for i, (t, v) in enumerate(zip(ts, vs)))
    assert path.read_bytes() == want.encode()
