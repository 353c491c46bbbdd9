"""Experiment orchestration: configuration, runs, file emission, selftest.

Subcommands: `encode` (event CSV only), `reconstruct` (encode + iterate +
convergence CSV + summary), `frames` (frame-family report), `selftest`
(reduced-resolution invariant sweep of every module).  Runs are fully
deterministic for a fixed config and seed; all randomness flows through a
single seeded generator and all file writes happen once, at the end of a
section.

Exit codes: 0 ok, 2 config error, and for an error a run raises the code
`EXIT_CODES` gives its class (see `main`); a failed selftest exits 1.
Config errors include every contract that needs only the config: the
generator orders (2 to 13), positive grid step, device spacing, gap and
threshold, devices whose balls cover the spatial window, a fire budget of
at most `MAX_FIRE_SLOTS` preallocated fire slots, the interior coefficient
window on the grid, and the frame lattice and the grid on the padded
range.
"""

import argparse
import json
import math
import numbers
import sys
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .errors import (
    ContractionError,
    EncodingInvariantError,
    GapError,
    GridMismatchError,
    InputError,
    PreconditionError,
    ResolutionError,
    SingularGeneratorError,
    TemreconError,
)
from .frames import PAD, FrameFamily, _lattice, frame_report
from .generator import Generator, dual_generator
from .kernel_space import (
    VSignal,
    apply_T,
    build_shift_invariant_kernel,
    reproducing_residual,
    window_for_grid,
)
from .mixed_norm import INF, CoefSeq, Grid, GridFunction, MixedNormParams, mixed_function_norm
from .reconstruct import ctem_iterate, iftem_iterate
from .tem_encode import (
    DeviceSet,
    TemConfig,
    density_report,
    encode_ctem_devices,
    encode_iftem_devices,
)

MODES = ("crossing", "integrate-and-fire")
# (exit code, message prefix) of each error class a run raises; `main` reads
# the entry of the nearest class in the error's MRO
EXIT_CODES = {
    InputError: (1, "error"),
    GridMismatchError: (1, "error"),
    ResolutionError: (1, "error"),
    SingularGeneratorError: (1, "error"),
    EncodingInvariantError: (1, "error"),
    TemreconError: (1, "error"),
    PreconditionError: (3, "precondition error"),
    GapError: (3, "precondition error"),
    ContractionError: (4, "non-convergence"),
}
# the highest generator order whose dual passes the kernel's biorthogonality
# gate (BIORTH_TOL = 1e-8): 13 leaves 8.1e-10, 14 reaches 1.1e-8
MAX_ORDER = 13
# the most fire slots (devices x `TemConfig.fire_slots`) an encode may
# preallocate: one float array of 32 MB, about 40 times the 106k of the
# leaky (1, inf) desk config; integrate-and-fire at theta 1e-4 on [0, 12]^2
# would ask for 35M
MAX_FIRE_SLOTS = 2 ** 22


@dataclass
class ExperimentConfig:
    """Validated experiment description; defaults give the desk-scale setup."""

    mode: str = "crossing"
    generator_order_t: int = 2
    generator_order_s: int = 2
    x_min: float = 0.0
    x_max: float = 32.0
    y_min: float = 0.0
    y_max: float = 32.0
    grid_step: float = 1.0 / 32.0
    p: float = 2.0
    q: float = 2.0
    device_spacing: float = None
    delta_prime: float = 0.5
    c_bound: float = 1.0
    b_level: float = 2.0
    delta_target: float = 0.25
    alpha: float = 0.0
    theta: float = None
    n_max: int = 40
    tol: float = 1e-8
    frame_delta: float = 0.25
    frame_n_list: list = field(default_factory=lambda: [2, 4, 8])
    frame_signals: int = 5
    seed: int = 0

    def __post_init__(self):
        if self.mode not in MODES:
            raise InputError(f"mode must be one of {MODES}, got {self.mode!r}")
        self._check_numbers()
        if self.device_spacing is None:
            # crossing samples interpolate best on the unit lattice; the
            # integrate-and-fire synthesis needs tighter devices
            self.device_spacing = 1.0 if self.mode == "crossing" else 0.125
        for name in ("device_spacing", "delta_prime"):
            if not getattr(self, name) > 0:
                raise InputError(f"{name} must be positive, got {getattr(self, name)}")
        if not self.b_level > self.c_bound:
            raise InputError(
                f"b_level={self.b_level} must exceed c_bound={self.c_bound}"
            )
        if self.tol <= 0 or self.n_max < 1:
            raise InputError("tol must be positive and n_max at least 1")
        # constructing the derived objects validates the remaining contracts
        tem = self.tem_config()
        MixedNormParams(self.p, self.q)
        gen = Generator(self.generator_order_t, self.generator_order_s)
        if max(self.generator_order_t, self.generator_order_s) > MAX_ORDER:
            raise InputError(f"generator orders above {MAX_ORDER} fail the dual's "
                             f"biorthogonality gate, got {self.generator_order_t}, "
                             f"{self.generator_order_s}")
        grid = self.grid()
        window_for_grid(grid, gen)
        try:
            devices = self.devices()
        except GapError as e:
            raise InputError(f"device_spacing={self.device_spacing} with delta_prime="
                             f"{self.delta_prime} leaves the window uncovered: {e}") from None
        slots = len(devices) * tem.fire_slots(self.x_max - self.x_min)
        if slots > MAX_FIRE_SLOTS:
            raise InputError(f"the encoder would preallocate {slots} fire slots for "
                             f"{len(devices)} devices, above MAX_FIRE_SLOTS = {MAX_FIRE_SLOTS}; "
                             "raise theta or delta_target, or shrink the window")
        for lo, hi in ((self.x_min, self.x_max), (self.y_min, self.y_max)):
            _lattice(lo - PAD, hi + PAD, self.frame_delta)  # as `FrameFamily.build` lays it

    def _check_numbers(self):
        """Type and finiteness of every numeric field, before any arithmetic.

        Integer fields take integers only (not bools, not 2.5); float fields
        take finite reals, except that `device_spacing` / `theta` may be left
        None to derive them and the exponents p and q, whose range
        `MixedNormParams` checks, may be inf.  The frame fields and the seed
        also get their ranges checked here.
        """
        def is_int(v):
            return isinstance(v, numbers.Integral) and not isinstance(v, bool)

        for f in fields(self):
            v = getattr(self, f.name)
            if f.type is int and not is_int(v):
                raise InputError(f"{f.name} must be an integer, got {v!r}")
            if f.type is float and not (v is None and f.default is None):
                if not isinstance(v, numbers.Real) or isinstance(v, bool):
                    raise InputError(f"{f.name} must be a number, got {v!r}")
                if not math.isfinite(v) and f.name not in ("p", "q"):
                    raise InputError(f"{f.name} must be finite, got {v!r}")
        if (not isinstance(self.frame_n_list, list) or not self.frame_n_list
                or not all(is_int(n) and n >= 0 for n in self.frame_n_list)):
            raise InputError("frame_n_list must be a non-empty list of integers >= 0, "
                             f"got {self.frame_n_list!r}")
        if not self.frame_delta > 0:
            raise InputError(f"frame_delta must be positive, got {self.frame_delta}")
        if self.frame_signals < 1:
            raise InputError(f"frame_signals must be at least 1, got {self.frame_signals}")
        if self.seed < 0:
            raise InputError(f"seed must be nonnegative, got {self.seed}")

    def tem_config(self):
        return TemConfig(self.mode, self.c_bound, self.b_level, self.delta_target,
                         alpha=self.alpha, theta=self.theta)

    def grid(self):
        return Grid.from_spacing(self.x_min, self.x_max, self.y_min, self.y_max,
                                 self.grid_step)

    def devices(self):
        return DeviceSet.uniform(self.y_min, self.y_max, self.device_spacing,
                                 self.delta_prime)

    def params(self):
        return MixedNormParams(self.p, self.q)

    def to_dict(self):
        return asdict(self)


def load_config(path):
    """Parse and validate a JSON config file; unknown keys are rejected by name."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as e:
        raise InputError(f"config parse error at line {e.lineno}, column {e.colno}: {e.msg}")
    if not isinstance(raw, dict):
        raise InputError("config root must be a JSON object")
    known = {f.name for f in fields(ExperimentConfig)}
    for key in raw:
        if key not in known:
            raise InputError(f"unknown config key {key!r}")
    return ExperimentConfig(**raw)


def save_config(cfg, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(cfg.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")


def _on_axis(ks, axis):
    """Whether every knot in `ks` equals (exactly) an abscissa of the sorted `axis`."""
    i = np.minimum(np.searchsorted(axis, ks), axis.size - 1)
    return bool(np.all(axis[i] == ks))


def synth_random_vsignal(window, gen, grid, rng, target_sup):
    """Random window signal scaled so the rendered grid supremum is `target_sup`.

    For a hat x hat signal whose window knots are all grid abscissae the
    grid supremum is max |c| without a render: the value at a knot is its
    coefficient exactly and every other grid value is a convex combination
    of coefficients.  Any other signal takes the (inf, inf) norm, the same
    maximum streamed through row tiles of the render.
    """
    coefs = rng.uniform(-1.0, 1.0, (window.n1, window.n2))
    sig = VSignal(CoefSeq(coefs, window.k1_first, window.k2_first), gen)
    if (gen.order_t == gen.order_s == 2 and _on_axis(window.k1s, grid.xs)
            and _on_axis(window.k2s, grid.ys)):
        peak = float(np.max(np.abs(coefs)))
    else:
        peak = sig.norm(grid, MixedNormParams(INF, INF))
    return sig.scaled(target_sup / peak)


def _build_stack(cfg):
    gen = Generator(cfg.generator_order_t, cfg.generator_order_s)
    dual = dual_generator(gen)
    kernel = build_shift_invariant_kernel(gen, dual)
    grid = cfg.grid()
    window = window_for_grid(grid, gen)
    return gen, dual, kernel, grid, window


def _encode(cfg, seed):
    """Build the stack, draw the seed's signal and encode it on the devices.

    The steps the `encode` subcommand and `run_experiment` share; returns
    (kernel, grid, window, devices, signal, encoder output).
    """
    rng = np.random.default_rng(seed)
    gen, _, kernel, grid, window = _build_stack(cfg)
    devices = cfg.devices()
    signal = synth_random_vsignal(window, gen, grid, rng, 0.8 * cfg.c_bound)
    encode = encode_ctem_devices if cfg.mode == "crossing" else encode_iftem_devices
    out = encode(signal, devices, cfg.tem_config(), (cfg.x_min, cfg.x_max))
    return kernel, grid, window, devices, signal, out


def run_experiment(cfg, out_dir, seed=None):
    """Synthesize, encode, reconstruct, and write all artifacts.

    Returns the summary dictionary (also written as summary.json).  The
    random signal respects the amplitude contract with margin: coefficients
    are scaled so the rendered supremum is 0.8 * c_bound.
    """
    import os

    os.makedirs(out_dir, exist_ok=True)
    seed = cfg.seed if seed is None else seed
    save_config(cfg, f"{out_dir}/config_echo.json")  # effective config, defaults applied
    kernel, grid, window, devices, signal, out = _encode(cfg, seed)
    out.write_events_csv(f"{out_dir}/events.csv")
    max_gap, n_fires, ok = density_report(out, cfg.delta_target)
    iterate = ctem_iterate if cfg.mode == "crossing" else iftem_iterate
    rec, report = iterate(out, kernel, devices, grid, f_true=signal, n_max=cfg.n_max,
                          tol=cfg.tol, params=cfg.params(), window=window)
    report.write_convergence_csv(f"{out_dir}/convergence.csv")
    rec.coeffs.write_csv(f"{out_dir}/reconstruction.csv")
    summary = report.summary_dict()
    summary.pop("wall_time_s")  # keep the emitted record byte-reproducible
    summary.update({
        "mode": cfg.mode,
        "seed": seed,
        "fires": n_fires,
        "max_gap": max_gap,
        "density_ok": ok,
        "devices": len(devices),
    })
    with open(f"{out_dir}/summary.json", "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return summary


def run_frames(cfg, out_dir, seed=None):
    """Frame-family suite: contraction constants, band, reconstruction error."""
    import os

    os.makedirs(out_dir, exist_ok=True)
    seed = cfg.seed if seed is None else seed
    rng = np.random.default_rng(seed)
    gen, dual, kernel, grid, window = _build_stack(cfg)
    family = FrameFamily.build(kernel, grid, cfg.frame_delta, cfg.params(),
                               n_list=tuple(cfg.frame_n_list), window=window)
    signals = [synth_random_vsignal(window, gen, grid, rng, 0.8 * cfg.c_bound)
               for _ in range(cfg.frame_signals)]
    rep = frame_report(family, signals)
    with open(f"{out_dir}/frame_report.json", "w", encoding="utf-8") as fh:
        json.dump(rep, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return rep


# ---------------------------------------------------------------------------
# selftest
# ---------------------------------------------------------------------------

def _suite_mixed_norm(res, rng):
    from .mixed_norm import duality_pairing

    checks = []
    grid = Grid.from_spacing(0.0, 4.0, 0.0, 4.0, 1.0 / res)
    exps = [1.0, 1.5, 2.0, np.inf]
    for _ in range(10):
        vals = rng.standard_normal(grid.shape)
        f = GridFunction(grid, vals)
        g = GridFunction(grid, rng.standard_normal(grid.shape))
        a = float(rng.uniform(-3, 3))
        for p in exps:
            for q in exps:
                pr = MixedNormParams(p, q)
                nf = mixed_function_norm(f, pr)
                checks.append(abs(mixed_function_norm(f.scaled(a), pr) - abs(a) * nf)
                              <= 1e-12 * (1 + abs(a) * nf))
                checks.append(mixed_function_norm(f + g, pr)
                              <= nf + mixed_function_norm(g, pr) + 1e-9)
        pr = MixedNormParams(2.0, 3.0)
        hold = abs(duality_pairing(f, g)) <= (mixed_function_norm(f, pr)
                                              * mixed_function_norm(g, pr.conjugate())
                                              * (1 + 1e-9) + 1e-12)
        checks.append(hold)
    return checks


def _suite_generator(res, rng, corrupt_dual=False):
    from dataclasses import replace

    from .generator import DualGenerator, tensor_biorth_residual

    checks = []
    gen = Generator(2, 2)
    dual = dual_generator(gen)
    if corrupt_dual:
        bad_b = dual.axis_t.b.copy()
        bad_b[dual.axis_t.radius] += 1e-3
        bad_axis = replace(dual.axis_t, b=bad_b)
        dual = DualGenerator(gen, bad_axis, dual.axis_s,
                             tensor_biorth_residual(bad_axis, dual.axis_s))
    pts = rng.uniform(-3, 3, (50, 2))
    checks.append(gen.partition_residual(pts[:, 0], pts[:, 1]) <= 1e-12)
    checks.append(dual.biorth_residual <= 1e-8)
    checks.append(np.allclose(dual.axis_t.b, dual.axis_t.b[::-1]))
    checks.append(dual.amalgam_norm(res) <= dual.axis_t.b_l1 * dual.axis_s.b_l1
                  * gen.amalgam_norm(res) + 1e-6)
    return checks


def _suite_kernel(res, rng):
    checks = []
    gen = Generator(2, 2)
    dual = dual_generator(gen)
    kernel = build_shift_invariant_kernel(gen, dual)
    grid = Grid.from_spacing(0.0, 12.0, 0.0, 12.0, 1.0 / res)
    window = window_for_grid(grid, gen)
    noise = GridFunction(grid, rng.standard_normal(grid.shape))
    t1 = apply_T(kernel, noise, window=window)
    t2 = apply_T(kernel, t1.render(grid), window=window)
    checks.append(float(np.max(np.abs(t2.coeffs.entries - t1.coeffs.entries))) <= 1e-8)
    coefs = rng.uniform(-1, 1, (window.n1, window.n2))
    sig = VSignal(CoefSeq(coefs, window.k1_first, window.k2_first), gen)
    back = apply_T(kernel, sig.render(grid), window=window)
    checks.append(float(np.max(np.abs(back.coeffs.entries - coefs))) <= 1e-8)
    probes = [tuple(rng.uniform(5, 7, 4)) for _ in range(3)]
    checks.append(float(reproducing_residual(kernel, probes, spacing=1.0 / res).max()) <= 1e-6)
    return checks


def _suite_tem(res, rng):
    from .tem_encode import ctem_encode, iftem_encode

    checks = []
    cfg_c = TemConfig("crossing", 1.0, 2.0, 0.25)
    slope = float(rng.uniform(0.2, 0.8))
    f = lambda x: slope * np.sin(0.7 * np.asarray(x))
    times, vals = ctem_encode(f, cfg_c, (0.0, 8.0))
    gaps = np.diff(np.concatenate([[0.0], times]))
    checks.append(gaps.max() <= cfg_c.delta_target + 1e-12)
    checks.append(float(np.max(np.abs(f(times) - vals))) <= 1e-10)
    cfg_i = TemConfig("integrate-and-fire", 1.0, 2.0, 0.25, alpha=0.5)
    times, ints = iftem_encode(f, cfg_i, (0.0, 8.0))
    prev = np.concatenate([[0.0], times[:-1]])
    oracle = []
    for a, b in zip(prev, times):
        us = np.linspace(a, b, 400)
        oracle.append(np.trapezoid(f(us) * np.exp(cfg_i.alpha * (us - b)), us))
    checks.append(float(np.max(np.abs(np.array(oracle) - ints))) <= 1e-6)
    # the device fast path against the scalar referee on one device (a fixed
    # seed leaves the shared stream of the later suites as it was)
    gen, grid = Generator(2, 2), Grid.from_spacing(0.0, 8.0, 0.0, 8.0, 1.0 / res)
    sig = synth_random_vsignal(window_for_grid(grid, gen), gen, grid, np.random.default_rng(21), 0.8)
    fast = encode_iftem_devices(sig, DeviceSet([4.0], 4.0, (0.0, 8.0)), cfg_i, (0.0, 8.0)).times[0]
    times = iftem_encode(lambda x: sig.eval_slice(4.0, x), cfg_i, (0.0, 8.0))[0]
    checks.append(times.size == fast.size > 0 and float(np.max(np.abs(times - fast))) <= 1e-10)
    return checks


def _suite_reconstruct(res, rng):
    checks = []
    gen = Generator(2, 2)
    dual = dual_generator(gen)
    kernel = build_shift_invariant_kernel(gen, dual)
    grid = Grid.from_spacing(0.0, 12.0, 0.0, 12.0, 1.0 / res)
    window = window_for_grid(grid, gen)
    rng_l = np.random.default_rng(rng.integers(1 << 31))
    sig = synth_random_vsignal(window, gen, grid, rng_l, 0.8)
    devices = DeviceSet.uniform(0.0, 12.0, 1.0, 0.5)
    cfg = TemConfig("crossing", 1.0, 2.0, 0.25)
    out = encode_ctem_devices(sig, devices, cfg, (0.0, 12.0))
    _, rep = ctem_iterate(out, kernel, devices, grid, f_true=sig, n_max=40, tol=1e-7,
                          window=window)
    checks.append(rep.converged)
    checks.append(all(r < 1.0 for r in rep.ratios))
    # one leaky integrate-and-fire iteration: the other caller of the operator fold
    devices = DeviceSet.uniform(0.0, 12.0, 0.125, 0.5)
    cfg = TemConfig("integrate-and-fire", 1.0, 2.0, 0.25, alpha=0.5)
    out = encode_iftem_devices(sig, devices, cfg, (0.0, 12.0))
    _, rep = iftem_iterate(out, kernel, devices, grid, f_true=sig, n_max=40, tol=1e-7,
                           window=window)
    checks.append(rep.converged)
    return checks


def _suite_frames(res, rng):
    checks = []
    gen = Generator(2, 2)
    dual = dual_generator(gen)
    kernel = build_shift_invariant_kernel(gen, dual)
    grid = Grid.from_spacing(0.0, 12.0, 0.0, 12.0, 1.0 / res)
    window = window_for_grid(grid, gen)
    pr = MixedNormParams(2.0, 2.0)
    family = FrameFamily.build(kernel, grid, 0.25, pr, n_list=(2, 4), window=window)
    checks.append(family.r0_measured < 1.0)
    rng_l = np.random.default_rng(rng.integers(1 << 31))
    sig = synth_random_vsignal(window, gen, grid, rng_l, 0.8)
    from .frames import dual_pair_reconstruct, frame_bounds_check

    band = frame_bounds_check(sig, family)
    checks.append(band.ok)
    fh = dual_pair_reconstruct(sig, family)
    err = mixed_function_norm((sig - fh).render(grid), pr)
    checks.append(err <= 1e-3 * mixed_function_norm(sig.render(grid), pr))
    return checks


def selftest(fast=False, corrupt_dual=False, stream=None):
    """Reduced-resolution invariant sweep; prints one pass line per module.

    `corrupt_dual` injects a coefficient perturbation into the generator
    suite's dual (a fault-injection hook: its biorthogonality check must
    fail while every other suite is unaffected).
    """
    stream = stream or sys.stdout
    res = 16 if fast else 32
    rng = np.random.default_rng(12345)
    suites = [
        ("mixed_norm", lambda: _suite_mixed_norm(res, rng)),
        ("generator", lambda: _suite_generator(res, rng, corrupt_dual=corrupt_dual)),
        ("kernel_space", lambda: _suite_kernel(res, rng)),
        ("tem_encode", lambda: _suite_tem(res, rng)),
        ("reconstruct", lambda: _suite_reconstruct(res, rng)),
        ("frames", lambda: _suite_frames(res, rng)),
    ]
    all_ok = True
    results = {}
    for name, runner in suites:
        checks = runner()
        passed, total = sum(bool(c) for c in checks), len(checks)
        ok = passed == total
        all_ok &= ok
        results[name] = (passed, total)
        print(f"{name}: {passed}/{total} {'PASS' if ok else 'FAIL'}", file=stream)
    return all_ok, results


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _seed_arg(text):
    seed = int(text)
    if seed < 0:
        raise argparse.ArgumentTypeError(f"seed must be nonnegative, got {seed}")
    return seed


def _parser():
    ap = argparse.ArgumentParser(prog="temrecon",
                                 description="time-encoding sampling and reconstruction")
    sub = ap.add_subparsers(dest="command", required=True)
    for name in ("encode", "reconstruct", "frames"):
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="JSON config path")
        p.add_argument("--out-dir", default="out", help="output directory")
        p.add_argument("--seed", type=_seed_arg, default=None, help="override config seed")
    p = sub.add_parser("selftest")
    p.add_argument("--fast", action="store_true", help="halve the sweep resolution")
    return ap


def main(argv=None):
    """Run one subcommand; returns the exit code.

    0 ok; 2 a config that fails to load or validate; for an error a run
    raises, the code of its class in `EXIT_CODES`: 1 for `InputError`,
    `GridMismatchError`, `ResolutionError`, `SingularGeneratorError` and
    `EncodingInvariantError`, 3 for `PreconditionError` and `GapError`,
    4 for `ContractionError`.  `reconstruct` also exits 4 when the
    iteration stops unconverged; `selftest` exits 1 when a suite fails.
    """
    args = _parser().parse_args(argv)
    if args.command == "selftest":
        ok, _ = selftest(fast=args.fast)
        return 0 if ok else 1
    try:
        cfg = load_config(args.config) if args.config else ExperimentConfig()
    except (InputError, OSError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    try:
        if args.command == "frames":
            run_frames(cfg, args.out_dir, seed=args.seed)
            return 0
        if args.command == "encode":
            import os

            os.makedirs(args.out_dir, exist_ok=True)
            out = _encode(cfg, cfg.seed if args.seed is None else args.seed)[-1]
            out.write_events_csv(f"{args.out_dir}/events.csv")
            return 0
        summary = run_experiment(cfg, args.out_dir, seed=args.seed)
        return 0 if summary["converged"] else 4
    except TemreconError as e:
        code, label = next(EXIT_CODES[c] for c in type(e).__mro__ if c in EXIT_CODES)
        print(f"{label}: {e}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
