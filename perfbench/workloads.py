"""Workload definitions: the config each one runs, the CLI entry point it
calls, the artifacts it writes and the checks its outputs must pass.

Importing this module imports `temrecon` from the checkout's `src/`; it is
the cold cost every CLI call pays and is part of the measured set-up.
"""

import csv
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

if not (SRC / "temrecon" / "__init__.py").is_file():
    raise ImportError(f"temrecon sources not found under {SRC}")
sys.path.insert(0, str(SRC))

import temrecon  # noqa: E402
from temrecon.cli import ExperimentConfig, run_experiment, run_frames  # noqa: E402

if Path(temrecon.__file__).resolve().parent != SRC / "temrecon":
    raise ImportError(f"temrecon imported from {temrecon.__file__}, not from {SRC}")

MACHINE_ARTIFACTS = ("summary.json", "events.csv", "convergence.csv",
                     "reconstruction.csv", "config_echo.json")
FRAME_ARTIFACTS = ("frame_report.json",)

# acceptance criterion 10: dual-pair reconstruction error bound
FRAME_RECON_TOL = 1e-3

# name -> (ExperimentConfig overrides, "machine" or "frames")
WORKLOADS = {
    "ctem-desk": ({}, "machine"),
    "iftem-leaky-l1inf": ({"mode": "integrate-and-fire", "alpha": 0.5,
                           "p": 1.0, "q": float("inf")}, "machine"),
    "frames-desk": ({}, "frames"),
}


class Workload:
    """One workload: runs an operation at a seed and judges its artifacts."""

    def __init__(self, name):
        overrides, kind = WORKLOADS[name]
        self.name = name
        self.kind = kind
        self.config = ExperimentConfig(**overrides)
        self.artifacts = MACHINE_ARTIFACTS if kind == "machine" else FRAME_ARTIFACTS

    def run(self, seed, out_dir):
        """One full operation of the CLI's public entry point."""
        if self.kind == "machine":
            return run_experiment(self.config, out_dir, seed=seed)
        return run_frames(self.config, out_dir, seed=seed)

    def accuracy(self, out_dir):
        """Accuracy fields read back from the artifacts of one operation."""
        if self.kind == "frames":
            rep = _read_json(out_dir, "frame_report.json")
            return {k: rep[k] for k in ("r0_measured", "recon_error",
                                        "lower_ratio", "upper_ratio")}
        summary = _read_json(out_dir, "summary.json")
        with open(os.path.join(out_dir, "convergence.csv"), newline="") as fh:
            e_ref = float(next(csv.DictReader(fh))["error_lpq"])
        return {
            "iterations": summary["iterations"],
            "r_hat": summary["r_hat"],
            "predicted_bound": summary["predicted_bound"],
            "final_rel_error": summary["final_error"] / e_ref,
            "fires": summary["fires"],
            "max_gap_ratio": summary["max_gap"] / self.config.delta_target,
            "converged": summary["converged"],
            "diverged": summary["diverged"],
            "density_ok": summary["density_ok"],
        }

    def check(self, acc):
        """Problems with one operation's accuracy fields; empty when it passed."""
        problems = []
        if self.kind == "frames":
            if not acc["r0_measured"] < 1.0:
                problems.append(f"r0_measured={acc['r0_measured']} >= 1")
            if not acc["recon_error"] <= FRAME_RECON_TOL:
                problems.append(f"recon_error={acc['recon_error']} > {FRAME_RECON_TOL}")
            return problems
        if acc["converged"] is not True:
            problems.append("not converged")
        if acc["diverged"] is not False:
            problems.append("diverged")
        if acc["density_ok"] is not True:
            problems.append("density check failed")
        return problems

    def artifact_bytes(self, out_dir):
        """Raw bytes of every artifact, for the byte-identity check."""
        out = {}
        for name in self.artifacts:
            with open(os.path.join(out_dir, name), "rb") as fh:
                out[name] = fh.read()
        return out


def _read_json(out_dir, name):
    with open(os.path.join(out_dir, name), encoding="utf-8") as fh:
        return json.load(fh)
