"""The two benchmark workloads: input generators and one timed pass each.

A generator turns the benchmark seed into one JSON config; the program only
ever sees that file, loaded through ``load_config``. A pass then drives the
public API the way a researcher using that workload would, one call at a
time in this process.
"""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# The 20-agent reference scenario of the project README.
REFERENCE_TERMS = [0, 3, 6, 0, 0, 0, 5, 3, 3, 3, 5, 1, 0, 5, 3, 0, 4, 3, 4, 3]
SWEEP_SEEDS = 1000
N_LARGE = 1000
COMPARE_MODELS = ["degroot-distance", "hk-homogeneous:0.25", "hk-heterogeneous"]
# Bounds drawn per agent for hk-heterogeneous: wide enough that some agents
# see most of the scale and others only their own term.
HK_BOUND_RANGE = (0.05, 0.45)
# A step cap that every seed reaches before converging (over seeds 1-30, 97,
# 1234 and 99999 the uncapped runs took 7-10 steps), so each seed does the
# same amount of work and run-to-run spread is timing noise rather than a
# different workload.
DENSE_STEPS = 6

WORKLOADS = ("ref-sweep", "coevolve-dense")
# Model runs one pass makes, each of which can fail on its own.
RUNS = {"ref-sweep": SWEEP_SEEDS + len(COMPARE_MODELS), "coevolve-dense": 1}


def make_config(workload: str, seed: int) -> dict:
    """The JSON config for one workload, a pure function of the seed."""
    rng = np.random.default_rng(seed)
    if workload == "ref-sweep":
        # The seed sets which 1000 run seeds the sweep covers (see
        # sweep_seeds) and the per-agent bounds of the HK comparison.
        bounds = rng.uniform(*HK_BOUND_RANGE, len(REFERENCE_TERMS))
        return {"n_agents": len(REFERENCE_TERMS), "initial_opinions": REFERENCE_TERMS,
                "seed": 7, "initial_network": {"edge_prob": 0.1},
                "hk": {"epsilons": bounds.tolist()}}
    return {
        "n_agents": N_LARGE,
        "initial_opinions": rng.integers(0, 7, N_LARGE).tolist(),
        "seed": seed,
        "initial_network": {"edge_prob": 2 / N_LARGE},
        "t_max": DENSE_STEPS,
    }


def sweep_seeds(seed: int) -> list[int]:
    return list(range(seed * SWEEP_SEEDS, (seed + 1) * SWEEP_SEEDS))


@dataclass
class PassResult:
    """What one pass produced: its timings and the records it made."""

    wall_s: float
    sim_s: float
    records: list = field(default_factory=list)   # (label, TrajectoryRecord)
    failures: list = field(default_factory=list)  # one line per failed run


class RunCapture:
    """Times and keeps every record made through ``cli.run_from_config``.

    The CLI commands run their models through that one function, so
    wrapping it splits a command's time into model runs (``sim_s``) and
    everything else; the kept records feed the output checks.
    """

    def __init__(self, cli):
        self.cli = cli
        self.seconds = 0.0
        self.records = []

    def __enter__(self):
        original = self.original = self.cli.run_from_config

        def timed(config):
            start = time.perf_counter()
            try:
                record = original(config)
            finally:
                self.seconds += time.perf_counter() - start
            self.records.append((f"{config.model}@{config.seed}", record))
            return record

        self.cli.run_from_config = timed
        return self

    def __exit__(self, *exc):
        self.cli.run_from_config = self.original
        return False


def compare_dirs() -> list[str]:
    """Per-model output directories, named the way ``cmd_compare`` names them."""
    return [spec.replace(":", "_") for spec in COMPARE_MODELS]


def ref_sweep(od, config, seed: int, outdir: Path) -> PassResult:
    """``cmd_sweep`` over 1000 seeds of the reference scenario, then the baselines.

    The baselines are compared on the same reference opinions with
    ``cmd_compare``, and ``cmd_metrics`` reads each model's opinions back.
    """
    seeds = sweep_seeds(seed)
    with RunCapture(od.cli) as cap:
        start = time.perf_counter()
        od.cli.cmd_sweep(config, seeds, outdir)
        od.cli.cmd_compare(config, COMPARE_MODELS, outdir / "compare")
        for name in compare_dirs():
            od.cli.cmd_metrics(outdir / "compare" / name / "opinions.csv",
                               outdir / "reanalyse" / name, config.d_max)
        wall = time.perf_counter() - start
    failures = []
    with open(outdir / "sweep.csv", newline="") as fh:
        for row in csv.DictReader(fh):
            if row["error"]:
                failures.append(f"seed {row['seed']}: {row['error']}")
    return PassResult(wall, cap.seconds, cap.records, failures)


def coevolve_dense(od, config, seed: int, outdir: Path) -> PassResult:
    """One threeway run at N=1000 from a sparse start, then its full output."""
    tolerance = od.metrics.default_cluster_tolerance(config.term_set())
    start = time.perf_counter()
    record = od.dynamics.run(config)
    sim_end = time.perf_counter()
    written = od.outputs.write_trajectory(record, outdir, tolerance)
    od.outputs.write_manifest(outdir, "run", config.to_dict(), config.seed, written)
    wall = time.perf_counter() - start
    return PassResult(wall, sim_end - start, [(f"threeway@{config.seed}", record)])


PASSES = {
    "ref-sweep": ref_sweep,
    "coevolve-dense": coevolve_dense,
}
