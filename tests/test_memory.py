"""Traced memory bounds: the error monitor and the config checks hold no
array whose size grows with the grid or with devices x probes."""

import tracemalloc

import numpy as np

from temrecon import ExperimentConfig, Generator, MixedNormParams, window_for_grid

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
