"""Spans and counters at the module boundaries of temrecon.

The tracer wraps the public functions of each module from outside the
program: `installed()` rebinds every name under which a `temrecon` module
holds the original function (or the method on its class) and restores them
on exit.  Spans are kept in memory; `layer_metrics` turns the spans of one
operation into the per-layer numbers.
"""

import contextlib
import functools
import sys
import time

from stats import self_times

# (module, attribute or Class.method, span name); one span name per layer
# boundary, several functions may share it
SPANNED = (
    ("temrecon.cli", "synth_random_vsignal", "cli.synth"),
    ("temrecon.cli", "save_config", "cli.write"),
    ("temrecon.tem_encode", "TemOutput.write_events_csv", "cli.write"),
    ("temrecon.reconstruct", "ReconstructionReport.write_convergence_csv", "cli.write"),
    ("temrecon.mixed_norm", "CoefSeq.write_csv", "cli.write"),
    ("temrecon.tem_encode", "encode_ctem_devices", "tem_encode.encode"),
    ("temrecon.tem_encode", "encode_iftem_devices", "tem_encode.encode"),
    ("temrecon.reconstruct", "ctem_iterate", "reconstruct.iterate"),
    ("temrecon.reconstruct", "iftem_iterate", "reconstruct.iterate"),
    ("temrecon.reconstruct", "estimate_r1", "reconstruct.rate_bound"),
    ("temrecon.reconstruct", "estimate_r2", "reconstruct.rate_bound"),
    ("temrecon.kernel_space", "Kernel.omega_w_norm", "kernel_space.omega"),
    ("temrecon.kernel_space", "apply_T", "kernel_space.apply_T"),
    ("temrecon.kernel_space", "VSignal.render", "kernel_space.render"),
    ("temrecon.mixed_norm", "mixed_function_norm", "mixed_norm.norm"),
    ("temrecon.mixed_norm", "mixed_sequence_norm", "mixed_norm.norm"),
    ("temrecon.generator", "dual_generator", "generator.dual"),
    ("temrecon.frames", "FrameFamily.build", "frames.build"),
    ("temrecon.frames", "build_Kdelta", "frames.kdelta"),
    ("temrecon.frames", "measured_r0", "frames.r0"),
    ("temrecon.frames", "frame_report", "frames.report"),
)

# name -> (unit, better); the traced run reports exactly these
PER_LAYER = {
    "tem_encode.encode_s": ("s", "lower"),
    "tem_encode.fires": ("count", "lower"),
    "tem_encode.eval_rounds": ("count", "lower"),
    "tem_encode.points_per_fire": ("points/fire", "lower"),
    "tem_encode.max_gap_ratio": ("ratio", "lower"),
    "reconstruct.iterate_s": ("s", "lower"),
    "reconstruct.rate_bound_s": ("s", "lower"),
    "reconstruct.monitor_s": ("s", "lower"),
    "reconstruct.step_ms": ("ms", "lower"),
    "reconstruct.iterations": ("count", "lower"),
    "reconstruct.r_hat": ("ratio", "lower"),
    "reconstruct.predicted_bound": ("ratio", "lower"),
    "reconstruct.final_rel_error": ("ratio", "lower"),
    "kernel_space.omega_s": ("s", "lower"),
    "kernel_space.apply_T_s": ("s", "lower"),
    "kernel_space.apply_T_calls": ("count", "lower"),
    "kernel_space.render_s": ("s", "lower"),
    "kernel_space.render_calls": ("count", "lower"),
    "mixed_norm.norm_s": ("s", "lower"),
    "mixed_norm.norm_calls": ("count", "lower"),
    "generator.dual_s": ("s", "lower"),
    "generator.bspline_points": ("count", "lower"),
    "frames.build_s": ("s", "lower"),
    "frames.kdelta_s": ("s", "lower"),
    "frames.r0_s": ("s", "lower"),
    "frames.report_s": ("s", "lower"),
    "frames.r0_measured": ("ratio", "lower"),
    "frames.recon_error": ("ratio", "lower"),
    "frames.lower_ratio": ("ratio", "higher"),
    "frames.upper_ratio": ("ratio", "lower"),
    "cli.synth_s": ("s", "lower"),
    "cli.write_s": ("s", "lower"),
    "trace.run_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}

ROOT_SPAN = "op"


class Tracer:
    """In-memory span and counter store for one process."""

    def __init__(self):
        self.spans = []   # dicts: id, name, start, end, parent, op
        self.counts = {}  # (op, innermost span name, counter) -> total
        self.op = None
        self._stack = []

    def begin(self, name):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append({"id": sid, "name": name, "start": time.perf_counter(),
                           "end": None, "parent": parent, "op": self.op})
        self._stack.append(sid)
        return sid

    def end(self, sid):
        self.spans[sid]["end"] = time.perf_counter()
        self._stack.pop()

    def count(self, counter, n=1):
        where = self.spans[self._stack[-1]]["name"] if self._stack else None
        key = (self.op, where, counter)
        self.counts[key] = self.counts.get(key, 0) + n

    @contextlib.contextmanager
    def operation(self, op):
        """Root span of one operation; spans and counts inside carry `op`."""
        self.op = op
        sid = self.begin(ROOT_SPAN)
        try:
            yield
        finally:
            self.end(sid)
            self.op = None

    def spans_of(self, op):
        return [s for s in self.spans if s["op"] == op]


def _spanning(tracer, name, fn):
    @functools.wraps(fn)
    def wrapped(*args, **kwargs):
        sid = tracer.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.end(sid)
    return wrapped


def _counting_bspline(tracer, fn):
    # numpy is loaded here, not at import: run.py pins BLAS threads first
    import numpy as np

    @functools.wraps(fn)
    def wrapped(order, x):
        tracer.count("bspline_calls")
        tracer.count("bspline_points", np.size(x))
        return fn(order, x)
    return wrapped


def _temrecon_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "temrecon" or name.startswith("temrecon."))]


@contextlib.contextmanager
def installed(tracer):
    """Wrap every traced boundary for the duration of the block."""
    undo = []
    try:
        for mod_name, attr, span in SPANNED:
            owner = sys.modules[mod_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    new = classmethod(_spanning(tracer, span, raw.__func__))
                else:
                    new = _spanning(tracer, span, raw)
                setattr(cls, meth, new)
                undo.append((cls, meth, raw))
            else:
                orig = getattr(owner, attr)
                undo.extend(_rebind(orig, _spanning(tracer, span, orig)))
        orig = sys.modules["temrecon.generator"].bspline_eval
        undo.extend(_rebind(orig, _counting_bspline(tracer, orig)))
        yield tracer
    finally:
        for owner, attr, raw in reversed(undo):
            setattr(owner, attr, raw)


def _rebind(orig, new):
    """Point every module-level name bound to `orig` at `new`."""
    undo = []
    for mod in _temrecon_modules():
        for attr, val in list(vars(mod).items()):
            if val is orig:
                setattr(mod, attr, new)
                undo.append((mod, attr, orig))
    return undo


def self_time_by_name(tracer, op, measured_s):
    """(self seconds per span name, residual) for one operation.

    The residual is the sum of all self times minus `measured_s`, the
    operation's duration timed outside the tracer; it is the time the root
    span missed.  Raises ValueError when the spans do not form one tree of
    properly nested spans under the root.
    """
    spans = tracer.spans_of(op)
    root = [s for s in spans if s["parent"] is None]
    if len(root) != 1 or root[0]["name"] != ROOT_SPAN:
        raise ValueError(f"operation {op} has {len(root)} root spans")
    own = self_times(spans)
    by_name = {}
    for s in spans:
        by_name[s["name"]] = by_name.get(s["name"], 0.0) + own[s["id"]]
    return by_name, sum(own.values()) - measured_s


def layer_metrics(tracer, op, acc):
    """Per-layer numbers of one traced operation; layers it does not use read 0.

    `acc` holds the accuracy fields read back from the operation's artifacts.
    """
    spans = tracer.spans_of(op)
    names = {s["id"]: s["name"] for s in spans}

    def total(name):
        return sum(s["end"] - s["start"] for s in spans if s["name"] == name)

    def calls(name):
        return sum(1 for s in spans if s["name"] == name)

    def counted(counter, where=None):
        return sum(v for (o, w, c), v in tracer.counts.items()
                   if o == op and c == counter and (where is None or w == where))

    iterate = total("reconstruct.iterate")
    rate_bound = total("reconstruct.rate_bound")
    monitor = sum(s["end"] - s["start"] for s in spans
                  if s["name"] in ("kernel_space.render", "mixed_norm.norm")
                  and names.get(s["parent"]) == "reconstruct.iterate")
    iterations = acc.get("iterations", 0)
    fires = acc.get("fires", 0)
    points = counted("bspline_points", "tem_encode.encode")
    return {
        "tem_encode.encode_s": total("tem_encode.encode"),
        "tem_encode.fires": fires,
        "tem_encode.eval_rounds": counted("bspline_calls", "tem_encode.encode"),
        "tem_encode.points_per_fire": points / fires if fires else 0.0,
        "tem_encode.max_gap_ratio": acc.get("max_gap_ratio", 0.0),
        "reconstruct.iterate_s": iterate,
        "reconstruct.rate_bound_s": rate_bound,
        "reconstruct.monitor_s": monitor,
        "reconstruct.step_ms": (1e3 * (iterate - rate_bound - monitor) / iterations
                                if iterations else 0.0),
        "reconstruct.iterations": iterations,
        "reconstruct.r_hat": acc.get("r_hat", 0.0),
        "reconstruct.predicted_bound": acc.get("predicted_bound", 0.0),
        "reconstruct.final_rel_error": acc.get("final_rel_error", 0.0),
        "kernel_space.omega_s": total("kernel_space.omega"),
        "kernel_space.apply_T_s": total("kernel_space.apply_T"),
        "kernel_space.apply_T_calls": calls("kernel_space.apply_T"),
        "kernel_space.render_s": total("kernel_space.render"),
        "kernel_space.render_calls": calls("kernel_space.render"),
        "mixed_norm.norm_s": total("mixed_norm.norm"),
        "mixed_norm.norm_calls": calls("mixed_norm.norm"),
        "generator.dual_s": total("generator.dual"),
        "generator.bspline_points": counted("bspline_points"),
        "frames.build_s": total("frames.build"),
        "frames.kdelta_s": total("frames.kdelta"),
        "frames.r0_s": total("frames.r0"),
        "frames.report_s": total("frames.report"),
        "frames.r0_measured": acc.get("r0_measured", 0.0),
        "frames.recon_error": acc.get("recon_error", 0.0),
        "frames.lower_ratio": acc.get("lower_ratio", 0.0),
        "frames.upper_ratio": acc.get("upper_ratio", 0.0),
        "cli.synth_s": total("cli.synth"),
        "cli.write_s": total("cli.write"),
    }
