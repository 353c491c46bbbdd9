"""Set-up probe: a fresh process that imports temrecon and runs one
operation, the cold cost every CLI call pays.

    python3 perfbench/probe.py --workload ctem-desk --seed 7 --out DIR

Writes the operation's artifacts to DIR and prints {"setup_s": ...} as its
last line: seconds from this script's first statement to the end of the
operation, the same span `run.py` measures for its own warm-up.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    from workloads import Workload

    Workload(args.workload).run(args.seed, args.out)
    print(json.dumps({"setup_s": time.perf_counter() - T0}))


if __name__ == "__main__":
    main()
