"""Run-to-run spread of the end-to-end metrics, across seeds.

    python3 perfbench/spread.py --workload ctem-desk --runs 10 [--seconds 15]

Runs `run.py` once per seed (1..runs), one run at a time, and prints for
each metric the median of the runs and the interquartile distance as a
share of that median (`statistics.quantiles(values, n=4)`), beside the
metric's bound from BENCHMARK.json.  A benchmark is steady when every
spread, that of `setup_s` too, stays below a third of its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def spread(values):
    """Interquartile distance of `values` as a share of their median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = ap.parse_args()
    values = {}
    for seed in range(1, args.runs + 1):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: {result['failed']} of {result['attempted']} failed")
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + ", ".join(f"{k}={v['value']:.4g}"
                                            for k, v in result["metrics"].items()),
              flush=True)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    for name, vals in values.items():
        print(f"{name}: median {statistics.median(vals):.6g}, spread {spread(vals):.4f}, "
              f"bound {bounds.get(name)}")


if __name__ == "__main__":
    main()
