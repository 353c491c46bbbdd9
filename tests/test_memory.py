"""Traced memory bounds: the error monitor and the config checks hold no
array whose size grows with the grid or with devices x probes, the
events writer holds no string that spans every fire, the kernel
statistics never hold the core of the padded table beside the modulus
field, and an encoder's chain rounds hold a bounded number of
candidates."""

import tracemalloc

import numpy as np

from temrecon import (DeviceSet, ExperimentConfig, Generator, MixedNormParams, TemConfig,
                      build_shift_invariant_kernel, dual_generator, encode_iftem_devices,
                      window_for_grid)
from temrecon.cli import _build_stack, synth_random_vsignal
from temrecon.tem_encode import TemOutput

from conftest import random_vsignal


def traced_peak_mb(fn):
    """Peak traced allocation of a warm call of `fn`, in MB."""
    fn()  # caches and lazy imports
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def test_norm_streams_the_render():
    # the whole 1025^2 render is 8.4 MB, and taking its norm about twice that
    grid = ExperimentConfig().grid()
    gen = Generator(2, 2)
    sig = random_vsignal(window_for_grid(grid, gen), gen, grid, np.random.default_rng(0))
    assert traced_peak_mb(lambda: sig.norm(grid, MixedNormParams(1.0, np.inf))) < 4.0


def test_config_checks_coverage_without_a_device_probe_array():
    # 257 devices x 2049 probes would be 4.2 MB per array
    assert traced_peak_mb(lambda: ExperimentConfig(mode="integrate-and-fire")) < 1.0


def test_events_csv_writes_one_device_at_a_time(tmp_path):
    # the size of the leaky desk output, 257 devices x 262 fires; one format
    # template over every row traces about 12.5 MB
    rng = np.random.default_rng(0)
    times = np.sort(rng.uniform(0.0, 32.0, (257, 262)), axis=1)
    out = TemOutput.from_lists(TemConfig("crossing", 1.0, 2.0, 0.25),
                               DeviceSet.uniform(0.0, 32.0, 0.125, 0.0625), 0.0, 32.0,
                               times, rng.uniform(-1.0, 1.0, times.shape))
    assert traced_peak_mb(lambda: out.write_events_csv(tmp_path / "events.csv")) < 1.0


def test_box_modulus_releases_the_core_before_the_modulus_field():
    # order 2 at radius 0.53 (33 lattice steps): the core and the modulus
    # field are 1.86 MB each, and holding both traces about 5.9 MB
    gen = Generator(2, 2)
    factor = build_shift_invariant_kernel(gen, dual_generator(gen)).factor_t
    assert traced_peak_mb(lambda: factor.w0_and_box_modulus(0.53)) < 4.5


def test_encoder_chain_rounds_stay_bounded():
    # the leaky workload, 257 devices and 67k fires: a round holds at most
    # CHAIN_CANDIDATES candidates, where one chain over every candidate of
    # the horizon at once traces well over 5 MB
    cfg = ExperimentConfig(mode="integrate-and-fire", alpha=0.5, p=1.0, q=np.inf)
    gen, _, _, grid, window = _build_stack(cfg)
    sig = synth_random_vsignal(window, gen, grid, np.random.default_rng(3), 0.8 * cfg.c_bound)
    devices, tem = cfg.devices(), cfg.tem_config()
    assert traced_peak_mb(lambda: encode_iftem_devices(sig, devices, tem, (cfg.x_min, cfg.x_max))) < 3.0
