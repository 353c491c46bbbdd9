"""Configuration handling, experiment runner, selftest, command line."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import temrecon
from temrecon import (
    Generator,
    Grid,
    InputError,
    VSignal,
    cli,
    errors,
    kernel_space,
    window_for_grid,
)
from temrecon.cli import (
    MAX_ORDER,
    ExperimentConfig,
    load_config,
    main,
    run_experiment,
    run_frames,
    save_config,
    selftest,
    synth_random_vsignal,
)

from conftest import random_vsignal


def test_minimal_config_defaults(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text("{}")
    cfg = load_config(path)
    assert cfg.mode == "crossing"
    assert cfg.device_spacing == 1.0
    cfg2 = ExperimentConfig(mode="integrate-and-fire")
    assert cfg2.device_spacing == 0.125


def test_config_rejects_bad_levels(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"b_level": 0.5, "c_bound": 1.0}))
    with pytest.raises(InputError) as err:
        load_config(path)
    assert "b_level" in str(err.value) and "c_bound" in str(err.value)


def test_config_rejects_unknown_key(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"mystery_knob": 3}))
    with pytest.raises(InputError) as err:
        load_config(path)
    assert "mystery_knob" in str(err.value)


def test_config_parse_error_names_location(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text('{"mode": "crossing",\n  "seed": }')
    with pytest.raises(InputError) as err:
        load_config(path)
    assert "line 2" in str(err.value)


def test_config_round_trip(tmp_path):
    cfg = ExperimentConfig(mode="integrate-and-fire", alpha=0.25, seed=11,
                           x_max=16.0, y_max=16.0)
    path = tmp_path / "cfg.json"
    save_config(cfg, path)
    again = load_config(path)
    assert again.to_dict() == cfg.to_dict()


def test_synth_signal_hits_target_sup(hat_gen, small_grid, small_window):
    rng = np.random.default_rng(0)
    sig = synth_random_vsignal(small_window, hat_gen, small_grid, rng, 0.8)
    peak = float(np.max(np.abs(sig.render(small_grid).values)))
    assert peak == pytest.approx(0.8, rel=1e-14)


def _synth_bytes(window, gen, grid, seeds, synth):
    return [synth(window, gen, grid, np.random.default_rng(s), 0.8).coeffs.entries.tobytes()
            for s in seeds]


@pytest.mark.parametrize("step", [1.0 / 32.0, 0.1])
def test_hat_sup_without_render_matches_render(hat_gen, step, monkeypatch):
    # every window knot is a grid abscissa: the sup is max |c|, bit for bit
    grid = Grid.from_spacing(0.0, 32.0, 0.0, 32.0, step)
    window = window_for_grid(grid, hat_gen)
    seeds = range(200)
    ref = _synth_bytes(window, hat_gen, grid, seeds, random_vsignal)

    def no_render(self, grid):
        raise AssertionError("rendered")

    monkeypatch.setattr(VSignal, "render", no_render)
    assert _synth_bytes(window, hat_gen, grid, seeds, synth_random_vsignal) == ref


@pytest.mark.parametrize("orders, step", [((2, 2), 0.3), ((2, 3), 1.0 / 32.0)])
def test_synth_signal_renders_off_the_hat_lattice(orders, step, monkeypatch):
    # integers off the grid (step 0.3) or a non-hat axis: the sup needs the render
    gen = Generator(*orders)
    grid = Grid.from_spacing(0.0, 12.0, 0.0, 12.0, step)
    window = window_for_grid(grid, gen)
    seeds = range(20)
    ref = _synth_bytes(window, gen, grid, seeds, random_vsignal)
    calls = []
    render = VSignal.render
    monkeypatch.setattr(VSignal, "render", lambda self, g: calls.append(1) or render(self, g))
    assert _synth_bytes(window, gen, grid, seeds, synth_random_vsignal) == ref
    assert len(calls) == len(seeds)


def test_integrate_and_fire_run_leaves_numpy_ma_unimported(tmp_path):
    # numpy.ma costs ~12 ms to import on a fresh process's first operation
    code = ("import sys\n"
            "from temrecon.cli import ExperimentConfig, run_experiment\n"
            "cfg = ExperimentConfig(mode='integrate-and-fire', x_max=8.0, y_max=8.0, seed=3)\n"
            f"assert run_experiment(cfg, {str(tmp_path)!r})['converged']\n"
            "print('numpy.ma' in sys.modules)\n")
    src = str(Path(temrecon.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    assert out.stdout.strip() == "False"


def _small_cfg(**kw):
    args = dict(x_max=12.0, y_max=12.0, seed=5)
    args.update(kw)
    return ExperimentConfig(**args)


def test_run_experiment_deterministic(tmp_path):
    cfg = _small_cfg()
    a, b = tmp_path / "a", tmp_path / "b"
    s1 = run_experiment(cfg, str(a))
    s2 = run_experiment(cfg, str(b))
    assert s1["converged"] and s2["converged"]
    for name in ("events.csv", "convergence.csv", "summary.json",
                 "reconstruction.csv", "config_echo.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_run_experiment_crossing_converges(tmp_path):
    cfg = _small_cfg()
    summary = run_experiment(cfg, str(tmp_path / "run"))
    assert summary["converged"]
    echoed = load_config(tmp_path / "run" / "config_echo.json")
    assert echoed.to_dict() == cfg.to_dict()
    assert summary["final_error"] <= cfg.tol * 4.0  # relative tolerance times ||f||
    assert summary["density_ok"]
    rows = (tmp_path / "run" / "convergence.csv").read_text().strip().splitlines()
    assert rows[0] == "iter,error_lpq,ratio"
    for row in rows[1:]:
        parts = row.split(",")
        assert np.isfinite(float(parts[1]))


def test_run_experiment_if_alpha_comparison(tmp_path):
    from temrecon import TemConfig

    theta = TemConfig("integrate-and-fire", 1.0, 2.0, 0.25, alpha=0.5).theta
    summaries = {}
    for alpha in (0.0, 0.5):
        cfg = _small_cfg(mode="integrate-and-fire", alpha=alpha, theta=theta)
        summaries[alpha] = run_experiment(cfg, str(tmp_path / f"a{alpha}"))
    assert summaries[0.0]["converged"] and summaries[0.5]["converged"]
    assert summaries[0.5]["r_hat"] >= summaries[0.0]["r_hat"]


def test_run_frames(tmp_path):
    cfg = _small_cfg(frame_signals=2, frame_n_list=[2, 4])
    rep = run_frames(cfg, str(tmp_path / "fr"))
    assert rep["r0_measured"] < 1.0
    assert rep["recon_error"] <= 1e-3
    on_disk = json.loads((tmp_path / "fr" / "frame_report.json").read_text())
    assert on_disk == rep


@pytest.mark.parametrize("orders", [(2, 2), (2, 3)])
def test_runs_sample_kappa_once_per_factor(tmp_path, monkeypatch, orders):
    # the rate bounds and the frame condition read both kernel statistics
    # from one table per distinct factor
    built = []

    class CountingTable(kernel_space.KappaTable):
        def __init__(self, factor, *args):
            built.append(factor)
            super().__init__(factor, *args)

    monkeypatch.setattr(kernel_space, "KappaTable", CountingTable)
    cfg = _small_cfg(generator_order_t=orders[0], generator_order_s=orders[1],
                     frame_signals=2, frame_n_list=[2, 4])
    for run in (run_frames, run_experiment):
        built.clear()
        run(cfg, str(tmp_path / run.__name__))
        assert len(built) == len(set(orders)) == len(set(map(id, built)))


def test_selftest_pass_and_fault_injection(capsys):
    ok, results = selftest(fast=True)
    assert ok
    ok2, results2 = selftest(fast=True, corrupt_dual=True)
    assert not ok2
    gp, gt = results2["generator"]
    assert gp < gt  # the biorthogonality check fails
    for name, (p, t) in results2.items():
        if name != "generator":
            assert p == t  # every other suite is unaffected


def test_main_exit_codes(tmp_path, capsys):
    assert main(["selftest", "--fast"]) == 0
    bad = tmp_path / "bad.json"
    bad.write_text('{"unknown_key": 1}')
    assert main(["reconstruct", "--config", str(bad), "--out-dir", str(tmp_path)]) == 2
    cfg = tmp_path / "ok.json"
    cfg.write_text(json.dumps({"x_max": 12.0, "y_max": 12.0, "seed": 3}))
    out = tmp_path / "out"
    assert main(["encode", "--config", str(cfg), "--out-dir", str(out)]) == 0
    assert (out / "events.csv").exists()
    assert main(["reconstruct", "--config", str(cfg), "--out-dir", str(out)]) == 0
    assert (out / "summary.json").exists()


@pytest.mark.parametrize("error, code", [
    (errors.InputError, 1),
    (errors.GridMismatchError, 1),
    (errors.ResolutionError, 1),
    (errors.SingularGeneratorError, 1),
    (errors.EncodingInvariantError, 1),
    (errors.PreconditionError, 3),
    (errors.GapError, 3),
    (errors.ContractionError, 4),
], ids=lambda v: getattr(v, "__name__", str(v)))
def test_run_error_exit_code_table(tmp_path, capsys, monkeypatch, error, code):
    def raise_it(*args, **kwargs):
        raise error("injected")

    monkeypatch.setattr(cli, "run_experiment", raise_it)
    assert main(["reconstruct", "--out-dir", str(tmp_path / "out")]) == code
    assert cli.EXIT_CODES[error][0] == code
    assert capsys.readouterr().err.strip().endswith(": injected")


def test_exit_code_table_lists_every_error_class():
    classes = {c for c in vars(errors).values()
               if isinstance(c, type) and issubclass(c, errors.TemreconError)}
    assert set(cli.EXIT_CODES) == classes


@pytest.mark.parametrize("mode", ["crossing", "integrate-and-fire"])
def test_encode_and_reconstruct_write_the_same_events(tmp_path, mode):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"mode": mode, "x_max": 12.0, "y_max": 12.0, "seed": 3}))
    for command in ("encode", "reconstruct"):
        assert main([command, "--config", str(cfg), "--out-dir", str(tmp_path / command),
                     "--seed", "11"]) == 0
    assert ((tmp_path / "encode" / "events.csv").read_bytes()
            == (tmp_path / "reconstruct" / "events.csv").read_bytes())


def _write_order_cfg(tmp_path, order, extent, mode="crossing"):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"mode": mode, "generator_order_t": order,
                               "generator_order_s": order, "x_max": extent, "y_max": extent}))
    return cfg


@pytest.mark.parametrize("mode", ["crossing", "integrate-and-fire"])
@pytest.mark.parametrize("order", [2, 3, 4])
def test_reconstruct_order_sweep_exits_0(tmp_path, mode, order):
    # order-3 crossing used to stop with ResolutionError (exit 1) at grid 1/32,
    # order 4 with a dual tail that did not fit a 64-point Fourier ring
    cfg = _write_order_cfg(tmp_path, order, 8.0, mode)
    out = tmp_path / "out"
    assert main(["reconstruct", "--config", str(cfg), "--out-dir", str(out)]) == 0
    assert json.loads((out / "summary.json").read_text())["converged"]


@pytest.mark.parametrize("command, order, extent", [
    ("frames", 4, 8.0),
    ("reconstruct", 5, 14.0),
    ("frames", 5, 14.0),
    ("reconstruct", 6, 14.0),
    ("frames", 6, 14.0),
])
def test_high_order_sweep_exits_0(tmp_path, command, order, extent):
    # orders 5 and 6 need [0, 14]^2 for an interior coefficient window
    cfg = _write_order_cfg(tmp_path, order, extent)
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out-dir", str(out)]) == 0
    if command == "reconstruct":
        assert json.loads((out / "summary.json").read_text())["converged"]
    else:
        rep = json.loads((out / "frame_report.json").read_text())
        assert rep["r0_measured"] < 1.0 and rep["recon_error"] <= 1e-3


@pytest.mark.parametrize("bad", [
    {"alpha": float("nan")},
    {"tol": float("inf")},
    {"delta_target": float("nan")},
    {"grid_step": float("nan")},
    {"seed": "abc"},
    {"n_max": 2.5},
    {"seed": True},
    {"seed": -1},
    {"x_max": "32"},
    {"device_spacing": float("inf")},
    {"theta": float("nan")},
    {"q": float("nan")},
    {"p": float("-inf")},
    {"frame_n_list": [2, 4.5]},
    {"frame_n_list": []},
    {"frame_n_list": [-1]},
    {"frame_delta": 0.0},
    {"frame_delta": -0.25},
    {"frame_signals": 0},
    {"frame_signals": -2},
    {"generator_order_t": 1},
    {"x_max": 4, "y_max": 4},
    {"generator_order_t": 5, "generator_order_s": 5, "x_max": 8, "y_max": 8},
    {"frame_delta": 0.3},
    {"grid_step": 0.3, "x_max": 12, "y_max": 12},
    {"generator_order_t": 14},
    {"generator_order_s": 14, "x_max": 40, "y_max": 40},
], ids=json.dumps)
def test_malformed_config_exit_code_table(tmp_path, capsys, bad):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(bad))  # NaN / Infinity as Python's json writes them
    for command in ("encode", "reconstruct", "frames"):
        assert main([command, "--config", str(path), "--out-dir", str(tmp_path / "out")]) == 2
        assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_config_accepts_the_highest_order():
    # 13 is the highest order whose dual passes the kernel's biorthogonality
    # gate; the exit-code table checks that 14 is refused
    cfg = ExperimentConfig(generator_order_t=MAX_ORDER, generator_order_s=MAX_ORDER)
    assert MAX_ORDER == 13 and cfg.generator_order_s == 13


def test_config_accepts_infinite_exponent(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"p": 1.0, "q": float("inf"), "x_max": 12}))
    cfg = load_config(path)
    assert cfg.q == float("inf") and cfg.x_max == 12


def test_negative_seed_override_exits_2(tmp_path, capsys):
    with pytest.raises(SystemExit) as err:
        main(["encode", "--seed", "-1", "--out-dir", str(tmp_path / "out")])
    assert err.value.code == 2
    assert "seed must be nonnegative" in capsys.readouterr().err
