"""Tests of the benchmark's own arithmetic and bookkeeping.

    python3 -m pytest perfbench/tests -q
"""

import json
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))

from stats import failure_ratio, median, self_times, tail_percentile  # noqa: E402


def test_median_odd_even_and_empty():
    assert median([3.0, 1.0, 2.0]) == 2.0
    assert median([4.0, 1.0, 3.0, 2.0]) == 2.5
    assert median([7.0]) == 7.0
    with pytest.raises(ValueError):
        median([])


@pytest.mark.parametrize("n, percentile, value", [
    (20, 50.0, 10),      # rank 10, ten samples beyond
    (100, 90.0, 90),     # rank 90
    (1000, 99.0, 990),
    (10000, 99.9, 9990),
    (30, 50.0, 15),      # p75 has rank 23, only seven beyond
])
def test_tail_percentile_keeps_ten_samples_beyond(n, percentile, value):
    tail = tail_percentile([float(i) for i in range(n, 0, -1)])
    assert tail == {"percentile": percentile, "value": float(value), "beyond": n - value,
                    "n": n}


def test_tail_percentile_none_below_twenty_samples():
    # even the median leaves fewer than ten samples beyond it
    assert tail_percentile([float(i) for i in range(19)]) is None
    assert tail_percentile([]) is None


def test_self_times_subtract_children_and_sum_to_root():
    spans = [
        {"id": 0, "parent": None, "start": 0.0, "end": 10.0},
        {"id": 1, "parent": 0, "start": 1.0, "end": 4.0},
        {"id": 2, "parent": 1, "start": 2.0, "end": 3.5},
        {"id": 3, "parent": 0, "start": 5.0, "end": 9.0},
    ]
    own = self_times(spans)
    assert own == {0: 3.0, 1: 1.5, 2: 1.5, 3: 4.0}
    assert sum(own.values()) == 10.0


def test_failure_ratio():
    assert failure_ratio(0, 5) == 0.0
    assert failure_ratio(1, 4) == 0.25
    with pytest.raises(ValueError):
        failure_ratio(0, 0)
    with pytest.raises(ValueError):
        failure_ratio(3, 2)


def _traced_op(t):
    with t.operation(0):
        a = t.begin("x")
        t.count("bspline_points", 5)
        b = t.begin("y")
        t.end(b)
        t.end(a)


def test_tracer_self_times_sum_to_the_measured_duration():
    import tracing

    t = tracing.Tracer()
    start = time.perf_counter()
    _traced_op(t)
    measured = time.perf_counter() - start
    by_name, residual = tracing.self_time_by_name(t, 0, measured)
    assert set(by_name) == {"op", "x", "y"}
    assert -1e-3 < residual <= 0.0
    assert t.counts == {(0, "x", "bspline_points"): 5}


def test_tracer_residual_shows_time_the_root_span_missed():
    import tracing

    t = tracing.Tracer()
    _traced_op(t)
    root = t.spans_of(0)[0]
    _, residual = tracing.self_time_by_name(t, 0, root["end"] - root["start"] + 0.25)
    assert residual == pytest.approx(-0.25)


def test_self_times_reject_a_span_that_escapes_its_parent():
    spans = [
        {"id": 0, "parent": None, "start": 0.0, "end": 10.0},
        {"id": 1, "parent": 0, "start": 1.0, "end": 4.0},
        {"id": 2, "parent": 1, "start": 3.0, "end": 5.0},
    ]
    with pytest.raises(ValueError, match="escapes"):
        self_times(spans)
    spans[2]["end"] = None
    with pytest.raises(ValueError, match="unfinished"):
        self_times(spans)


def test_installed_wraps_and_restores_every_binding():
    import tracing
    import workloads  # noqa: F401  (imports temrecon from the checkout)

    cli = sys.modules["temrecon.cli"]
    kernel_space = sys.modules["temrecon.kernel_space"]
    before = (cli.encode_ctem_devices, kernel_space.VSignal.__dict__["render"],
              sys.modules["temrecon.frames"].FrameFamily.__dict__["build"])
    t = tracing.Tracer()
    with tracing.installed(t):
        assert cli.encode_ctem_devices is not before[0]
        assert cli.encode_ctem_devices is sys.modules["temrecon.tem_encode"].encode_ctem_devices
        with t.operation(0):
            cli.ExperimentConfig().tem_config()
            cli.Generator(2, 2).eval_t([0.0, 0.5, 1.0])
    after = (cli.encode_ctem_devices, kernel_space.VSignal.__dict__["render"],
             sys.modules["temrecon.frames"].FrameFamily.__dict__["build"])
    assert after == before
    assert t.counts[(0, "op", "bspline_points")] == 3


def test_benchmark_json_matches_the_harness():
    import run
    import tracing
    import workloads

    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]} == \
        tracing.PER_LAYER
    assert bench["paths"] == ["perfbench"]
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
