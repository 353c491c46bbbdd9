"""temrecon benchmark: one workload in one process, closed loop, one client.

    python3 perfbench/run.py --workload ctem-desk --seed 1 --seconds 15 --trace 0

Each operation is one full run of the CLI's public entry point
(`run_experiment` for the machines, `run_frames` for frames) at a fresh
seed derived from `--seed`, writing its artifacts to a scratch directory
and checked for correctness.  After an untimed warm-up operation the loop
runs for `--seconds` seconds, one thing at a time: operations, and
`PROBES` fresh processes (`probe.py`) spaced evenly through the window that
repeat the warm-up seed.  The probes' set-up times join this process's
own, and their artifacts must match the warm-up's byte for byte.

`--trace 0` prints the end-to-end metrics; `--trace 1` alternates traced
and untraced operations and prints the per-layer metrics.  The last stdout
line is the result object; the full record (environment, every operation
with its accuracy fields, set-up samples, self times) goes to
`.perfbench_out/` in the checkout and the spans of a traced run beside it.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import tracing  # noqa: E402
from stats import failure_ratio, median, tail_percentile  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"

END_TO_END = {"run_s": "s", "setup_s": "s", "peak_mem_mb": "MB"}
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = 1
PROBES = 5            # fresh-process set-ups per run, besides this process
MIN_OPS = 2           # timed operations per run, even past --seconds; a traced
                      # run needs one traced and one untraced
PROBE_TIMEOUT_S = 150
SELF_TIME_TOL_S = 1e-3  # self times of an operation vs its measured duration


def pin_blas_threads():
    """Run BLAS on one thread; must run before numpy loads.

    A second BLAS thread speeds the dense products up but, on a small
    machine shared with other work, widens the run-to-run spread far more
    than it saves.  One thread is also the plain single-threaded baseline.
    """
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)


def run_op(wl, seed, out_dir, tracer=None, op_id=None):
    """One operation; returns its record (seconds, accuracy, problems)."""
    rec = {"seed": seed, "traced": tracer is not None, "problems": []}
    start = time.perf_counter()
    try:
        if tracer is None:
            wl.run(seed, out_dir)
        else:
            with tracer.operation(op_id):
                wl.run(seed, out_dir)
        rec["seconds"] = time.perf_counter() - start
        rec["accuracy"] = wl.accuracy(out_dir)
        rec["problems"] = wl.check(rec["accuracy"])
    except Exception:  # an operation that raises counts as failed, the run goes on
        rec.setdefault("seconds", time.perf_counter() - start)
        rec["problems"].append(traceback.format_exc(limit=3))
    return rec


def run_probe(wl, seed, out_dir, expected):
    """Set-up time of a fresh process at `seed`, checked against `expected` bytes."""
    cmd = [sys.executable, str(HERE / "probe.py"), "--workload", wl.name,
           "--seed", str(seed), "--out", str(out_dir)]
    rec = {"seed": seed, "problems": []}
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
    except subprocess.TimeoutExpired:  # run() kills the child and waits for it
        rec["problems"].append(f"probe timed out after {PROBE_TIMEOUT_S} s")
        return rec
    if proc.returncode != 0:
        rec["problems"].append(f"probe exit {proc.returncode}: {proc.stderr[-2000:]}")
        return rec
    try:
        rec["setup_s"] = json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]
        rec["problems"] += wl.check(wl.accuracy(out_dir))
        got = wl.artifact_bytes(out_dir)
    except (OSError, KeyError, IndexError, ValueError) as e:
        rec["problems"].append(f"unreadable probe output or artifacts: {e!r}")
        return rec
    differ = sorted(name for name in expected if got.get(name) != expected[name])
    if differ:
        rec["problems"].append(f"artifacts differ from the warm-up at the same seed: {differ}")
    return rec


def environment():
    """Interpreter, libraries, cores and source revision behind the numbers."""
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    git_rev = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True, timeout=30)
            git_rev = proc.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "temrecon").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "git_rev": git_rev,
        "src_sha256": digest.hexdigest(),
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    pin_blas_threads()
    try:
        from workloads import WORKLOADS, Workload
    except ImportError as e:
        print(f"perfbench: cannot load the program: {e}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    wl = Workload(args.workload)
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=WORK))
    try:
        return measure(args, wl, random.Random(args.seed), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def timed_loop(wl, seeds, work, seconds, first_estimate, tracer, probe):
    """Operations and set-up probes, one at a time, for `seconds`.

    Probe k (of `PROBES`) starts at the first gap between operations after
    k * seconds / PROBES, so that set-up samples and operation times cover
    the same stretch of a machine whose speed drifts.  `probe` is None when
    the warm-up failed and there is nothing to compare probe artifacts
    with.  Operations stop when the next would end past `seconds`.  With a
    tracer, even-numbered operations run traced and odd ones not.
    """
    ops, probes = [], []
    start = time.perf_counter()
    deadline = start + seconds
    n_probes = PROBES if probe is not None else 0
    while True:
        now = time.perf_counter()
        k = len(probes)
        if k < n_probes and now - start >= k * seconds / n_probes:
            probes.append(probe(k))
            continue
        done = [rec["seconds"] for rec in ops]
        estimate = median(done) if done else first_estimate
        if len(ops) >= MIN_OPS and k == n_probes and now + estimate > deadline:
            return ops, probes
        i = len(ops)
        out_dir = work / f"op{i}"
        if tracer is not None and i % 2 == 0:
            with tracing.installed(tracer):
                rec = run_op(wl, seeds.randrange(2**31), out_dir, tracer, op_id=i)
        else:
            rec = run_op(wl, seeds.randrange(2**31), out_dir)
        shutil.rmtree(out_dir, ignore_errors=True)
        ops.append(rec)


def per_layer_metrics(tracer, ops):
    """Median per-layer metrics over the traced operations, plus overhead.

    Also stores each traced operation's self time per span name, and fails
    an operation whose self times do not add up to its duration.
    """
    layers = []
    for i, rec in enumerate(ops):
        if not rec["traced"]:
            continue
        try:
            rec["self_s"], rec["self_residual_s"] = tracing.self_time_by_name(
                tracer, i, rec["seconds"])
        except ValueError as e:
            rec["problems"].append(f"spans do not nest: {e}")
            continue
        if abs(rec["self_residual_s"]) > SELF_TIME_TOL_S:
            rec["problems"].append(
                f"self times miss the measured duration by {rec['self_residual_s']} s")
        if not rec["problems"]:
            layers.append(tracing.layer_metrics(tracer, i, rec["accuracy"]))
    traced = [rec["seconds"] for rec in ops if rec["traced"] and not rec["problems"]]
    untraced = [rec["seconds"] for rec in ops if not rec["traced"] and not rec["problems"]]
    if not (traced and untraced):
        return None
    metrics = {name: median([m[name] for m in layers]) for name in layers[0]}
    metrics["trace.run_s"] = median(traced)
    metrics["trace.overhead_s"] = median(traced) - median(untraced)
    return metrics


def measure(args, wl, seeds, work):
    warm_seed = seeds.randrange(2**31)
    warm = run_op(wl, warm_seed, work / "warm")
    setup_own = time.perf_counter() - T0

    probe = None
    if not warm["problems"]:
        expected = wl.artifact_bytes(work / "warm")

        def probe(k):
            rec = run_probe(wl, warm_seed, work / f"probe{k}", expected)
            shutil.rmtree(work / f"probe{k}", ignore_errors=True)
            return rec

    tracer = tracing.Tracer() if args.trace else None
    loop_start = time.perf_counter()
    ops, probes = timed_loop(wl, seeds, work, args.seconds, warm["seconds"], tracer, probe)
    loop_s = time.perf_counter() - loop_start
    peak_mem_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    per_layer = per_layer_metrics(tracer, ops) if tracer is not None else None

    attempts = [warm] + ops + probes
    failed = sum(1 for rec in attempts if rec["problems"])
    untraced = [rec["seconds"] for rec in ops if not rec["traced"] and not rec["problems"]]
    setup_samples = [setup_own] + [p["setup_s"] for p in probes if "setup_s" in p]
    record = {
        "workload": wl.name,
        "seed": args.seed,
        "trace": args.trace,
        "run_seconds": args.seconds,
        "loop_seconds": loop_s,
        "load": "closed loop, one client, one operation at a time",
        "environment": environment(),
        "config": wl.config.to_dict(),
        "attempted": len(attempts),
        "failed": failed,
        "failure_ratio": failure_ratio(failed, len(attempts)),
        "warmup": warm,
        "operations": ops,
        "probes": probes,
        "setup_samples_s": setup_samples,
        "peak_mem_mb": peak_mem_mb,
        "per_layer": per_layer,
    }
    if untraced:
        record["run_s"] = {"median": median(untraced), "n": len(untraced),
                           "tail": tail_percentile(untraced)}
    if args.trace:
        if per_layer is None:
            return _give_up(record, "no successful traced and untraced operation pair")
        metrics = {name: {"value": per_layer[name], "unit": unit}
                   for name, (unit, _) in tracing.PER_LAYER.items()}
    else:
        if not untraced:
            return _give_up(record, "no successful timed operation")
        values = {"run_s": median(untraced), "setup_s": median(setup_samples),
                  "peak_mem_mb": peak_mem_mb}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}

    path = _write_record(record, tracer)
    print(json.dumps({k: record[k] for k in ("workload", "seed", "trace", "attempted",
                                             "failed", "setup_samples_s")}))
    print(f"record: {path}")
    print(json.dumps({"correct": failed == 0, "attempted": len(attempts), "failed": failed,
                      "metrics": metrics}))
    return 0


def _give_up(record, why):
    path = _write_record(record, None)
    print(f"perfbench: {why}; see {path}", file=sys.stderr)
    return 1


def _write_record(record, tracer):
    OUT.mkdir(exist_ok=True)
    stem = f"{record['workload']}-seed{record['seed']}-trace{record['trace']}"
    path = OUT / f"{stem}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")
    if tracer is not None:
        with open(OUT / f"{stem}-spans.jsonl", "w", encoding="utf-8") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")
    return path.relative_to(ROOT)


if __name__ == "__main__":
    sys.exit(main())
