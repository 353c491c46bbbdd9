"""Device geometry and the two time encoding machines."""

import re

import numpy as np
import pytest

from temrecon import (
    CoefSeq,
    DeviceSet,
    GapError,
    Generator,
    Grid,
    InputError,
    PreconditionError,
    TemConfig,
    VSignal,
    bspline_eval,
    ctem_encode,
    density_report,
    encode_ctem_devices,
    encode_iftem_devices,
    iftem_encode,
    partition_of_unity,
    window_for_grid,
)
from temrecon.tem_encode import TemOutput, _SliceTable

from conftest import plain_integrator_oracle, random_vsignal


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


def test_partition_single_device_covers():
    dev = DeviceSet(np.array([4.0]), 8.0, (0.0, 8.0))
    for y in (0.0, 3.3, 8.0):
        w = partition_of_unity(dev, y)
        assert w.shape == (1,)
        assert w[0] == 1.0


def test_partition_symmetric_overlap():
    dev = DeviceSet(np.array([0.0, 1.0]), 0.8, (0.0, 1.0))
    w = partition_of_unity(dev, 0.5)
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
    cfg = if_cfg(alpha=0.5)
    assert cfg.theta == pytest.approx((2.0 - 1.0) * (1 - np.exp(-0.5 * 0.25)) / 0.5)
    assert crossing_cfg().lambda_slope == pytest.approx(16.0)


# ---------------------------------------------------------------------------
# crossing machine
# ---------------------------------------------------------------------------

def test_ctem_zero_signal_uniform_half_delta():
    cfg = crossing_cfg()
    f = lambda x: np.zeros_like(np.asarray(x, dtype=float))
    times, vals, _ = ctem_encode(f, cfg, (0.0, 4.0))
    gaps = np.diff(np.concatenate([[0.0], times]))
    assert np.allclose(gaps, cfg.delta_target / 2.0, atol=1e-11)
    assert np.allclose(vals, 0.0, atol=1e-10)


def test_ctem_constant_signal_gap():
    cfg = crossing_cfg()
    c = 0.6
    f = lambda x: np.full_like(np.asarray(x, dtype=float), c)
    times, vals, _ = ctem_encode(f, cfg, (0.0, 4.0))
    want = (cfg.b_level + c) / cfg.lambda_slope
    gaps = np.diff(np.concatenate([[0.0], times]))
    assert np.allclose(gaps, want, atol=1e-11)
    assert np.allclose(vals, c, atol=1e-10)


def test_ctem_crossing_residual_and_first_crossing(hat_gen, small_grid, small_window):
    rng = np.random.default_rng(1)
    sig = random_vsignal(small_window, hat_gen, small_grid, rng)
    cfg = crossing_cfg()
    f = lambda x: sig.eval_slice(5.0, x)
    times, vals, _ = ctem_encode(f, cfg, (0.0, 12.0))
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
    times, ints, _ = iftem_encode(f, cfg, (0.0, 4.0))
    gaps = np.diff(np.concatenate([[0.0], times]))
    assert np.allclose(gaps, cfg.theta / cfg.b_level, atol=1e-11)
    assert np.allclose(ints, 0.0, atol=1e-11)


def test_iftem_constant_signal_alpha0():
    cfg = if_cfg(alpha=0.0)
    c = 0.5
    f = lambda x: np.full_like(np.asarray(x, dtype=float), c)
    times, ints, _ = iftem_encode(f, cfg, (0.0, 4.0))
    want_gap = cfg.theta / (cfg.b_level + c)
    gaps = np.diff(np.concatenate([[0.0], times]))
    assert np.allclose(gaps, want_gap, atol=1e-11)
    assert np.allclose(ints, c * gaps, atol=1e-10)


def test_iftem_integral_recovery_oracle():
    cfg = if_cfg(alpha=0.5)
    f = lambda x: 0.7 * np.sin(1.3 * np.asarray(x))
    times, ints, _ = iftem_encode(f, cfg, (0.0, 8.0))
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
    times, _, _ = iftem_encode(f, cfg, (0.0, 12.0))
    oracle = plain_integrator_oracle(f, cfg, (0.0, 12.0))
    assert times.size == oracle.size
    assert np.max(np.abs(times - oracle)) <= 1e-12


# ---------------------------------------------------------------------------
# density, output contracts, vectorized paths
# ---------------------------------------------------------------------------

def test_density_report_cases():
    dev = DeviceSet(np.array([4.0]), 8.0, (0.0, 8.0))
    cfg = crossing_cfg()
    out = TemOutput(cfg, dev, 0.0, 0.125, [np.array([0.125])], [np.array([0.0])])
    mg, n, ok = density_report(out, 0.25)
    assert ok and n == 1 and mg <= 0.25
    empty = TemOutput(cfg, dev, 0.0, 8.0, [np.array([])], [np.array([])])
    mg, n, ok = density_report(empty, 0.25)
    assert not ok and n == 0


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
        t_s, v_s, _ = ctem_encode(lambda x: sig.eval_slice(dev.positions[j], x),
                                  cfg_c, (0.0, 12.0))
        assert np.max(np.abs(t_s - out.times[j])) <= 1e-12
        assert np.max(np.abs(v_s - out.values[j])) <= 1e-10
    cfg_i = if_cfg(alpha=0.5)
    out_i = encode_iftem_devices(sig, dev, cfg_i, (0.0, 12.0))
    for j in (3, 7):
        t_s, i_s, _ = iftem_encode(lambda x: sig.eval_slice(dev.positions[j], x),
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
    # a scan step of delta_target leaves no scan sample before the fire, so
    # Newton starts from the bracket midpoint instead of the secant
    cases = [(encode_ctem_devices, ctem_encode, crossing_cfg(), {}),
             (encode_ctem_devices, ctem_encode, crossing_cfg(), {"scan_step": 0.25})]
    cases += [(encode_iftem_devices, iftem_encode, if_cfg(alpha=a), {}) for a in (0.0, 0.5)]
    for fast, scalar, cfg, kw in cases:
        out = fast(sig, dev, cfg, (0.0, 8.0), **kw)
        for j in (3, 5):
            t_s, v_s, _ = scalar(lambda x: sig.eval_slice(dev.positions[j], x), cfg,
                                 (0.0, 8.0), **kw)
            assert t_s.size == out.times[j].size
            assert np.max(np.abs(t_s - out.times[j])) <= 1e-12
            assert np.max(np.abs(v_s - out.values[j])) <= 1e-10


def test_hat_fires_resolve_several_knots(hat_gen, small_grid, small_window):
    # scan brackets of 1.5 units hold one or two knots, so the closed form
    # must pick its piece over more than one knot
    sig = random_vsignal(small_window, hat_gen, small_grid, np.random.default_rng(10))
    dev = DeviceSet.uniform(0.0, 12.0, 1.0, 0.5)
    cfg = crossing_cfg(delta_target=3.0)
    out = encode_ctem_devices(sig, dev, cfg, (0.0, 12.0), scan_step=1.5)
    for j in range(len(dev)):
        t_s, v_s, _ = ctem_encode(lambda x: sig.eval_slice(dev.positions[j], x), cfg,
                                  (0.0, 12.0), scan_step=1.5)
        assert t_s.size == out.times[j].size > 0
        assert np.max(np.abs(t_s - out.times[j])) <= 1e-12
        assert np.max(np.abs(v_s - out.values[j])) <= 1e-10


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
        t_s, v_s, _ = scalar(lambda x: sig.eval_slice(4.0, x), cfg, (0.0, 8.0))
        assert t_s.size == out.times[0].size > 0
        assert np.max(np.abs(t_s - out.times[0])) <= 1e-12
        assert np.max(np.abs(v_s - out.values[0])) <= 1e-10


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


@pytest.mark.parametrize("encode, cfg", [(encode_ctem_devices, crossing_cfg()),
                                         (encode_iftem_devices, if_cfg(alpha=0.5))])
def test_vectorized_amplitude_error_names_device(encode, cfg, hat_gen, small_window):
    # one space coefficient column of 1.5 > c_bound: only device 7 sees it
    entries = np.zeros((small_window.n1, small_window.n2))
    entries[:, 7 - small_window.k2_first] = 1.5
    sig = VSignal(CoefSeq(entries, small_window.k1_first, small_window.k2_first), hat_gen)
    dev = DeviceSet.uniform(0.0, 12.0, 1.0, 0.5)
    with pytest.raises(PreconditionError) as err:
        encode(sig, dev, cfg, (0.0, 12.0))
    msg = str(err.value)
    assert cfg.mode in msg and "on device 7 " in msg
    t = float(re.search(r"at t=(\S+)", msg).group(1))
    assert abs(sig.eval_slice(7.0, np.array([t]))[0]) > cfg.c_bound


def test_monotone_load_if(hat_gen, small_grid, small_window):
    rng = np.random.default_rng(5)
    sig = random_vsignal(small_window, hat_gen, small_grid, rng)
    f = lambda x: sig.eval_slice(6.0, x)
    for alpha in (0.0, 0.5):
        theta = 0.2
        lo = TemConfig("integrate-and-fire", 1.0, 2.0, 0.25, alpha=alpha, theta=theta)
        hi = TemConfig("integrate-and-fire", 1.0, 4.0, 0.25, alpha=alpha, theta=theta)
        t_lo, _, _ = iftem_encode(f, lo, (0.0, 12.0))
        t_hi, _, _ = iftem_encode(f, hi, (0.0, 12.0))
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
    times, vals, _ = ctem_encode(f, cfg, (0.0, 12.0))
    prev = np.concatenate([[0.0], times[:-1]])
    decoded = -cfg.b_level + cfg.lambda_slope * (times - prev)
    assert np.max(np.abs(decoded - f(times))) <= 1e-10
    # integrate-and-fire integrals likewise
    cfg_i = if_cfg(alpha=0.4)
    t_i, ints, _ = iftem_encode(f, cfg_i, (0.0, 12.0))
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
    assert len(lines) == 1 + out.fire_count()
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
