"""opiniondyn benchmark: one workload, closed loop, in a fresh process.

Run from the root of a checkout:

    python3 perfbench/run.py --workload coevolve-dense --seed 1 --seconds 55 --trace 0
    python3 perfbench/run.py --workload all      # each workload in its own process

The program is imported from ``src/`` of the current directory. A run
measures set-up in fresh child processes, then repeats the workload's pass
(one call at a time, no threads) for ``--seconds`` seconds, checks every
pass's outputs, and prints the end-to-end metrics (``--trace 0``) or the
per-layer metrics of a traced run (``--trace 1``) as the last stdout line.
Pass times are host-normalised: each is scaled by a fixed calibration
kernel timed right before and after the pass (see calibrate.py), and the
times as measured go to stderr with a readable table. See
perfbench/README.md for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import calibrate
import checks
import spans
import workloads

# reference.json also records the holdout seed 97, which is kept out of tuning
# so that a gain claim can be re-checked on it.
DEFAULT_SEED = 1
SETUP_REPEATS = 7
MIN_PASSES = 3
REFERENCE = Path(__file__).resolve().parent / "reference.json"

SETUP_CHILD = """
import sys, time
start = time.perf_counter()
from opiniondyn.config import load_config
load_config(sys.argv[1]).term_set()
print(time.perf_counter() - start)
"""

E2E_UNITS = {"setup_s": "s", "wall_s": "s", "runs_per_s": "1/s", "sim_s": "s",
             "emit_s": "s", "peak_rss_mb": "MB"}

# Per-layer metric -> (span statistic, span name); see spans.WRAPPED.
SPAN_METRICS = {
    "config.load_s": ("total", "config.load"),
    "config.validate_s": ("total", "config.validate"),
    "config.validate_calls": ("calls", "config.validate"),
    "linguistic.nearest_term_s": ("total", "linguistic.nearest_term"),
    "linguistic.nearest_term_calls": ("calls", "linguistic.nearest_term"),
    "dynamics.filter_self_s": ("self", "dynamics.step"),
    "dynamics.steps": ("calls", "dynamics.step"),
    "network.random_network_s": ("total", "network.random_network"),
    "network.rewire_s": ("total", "network.rewire"),
    "metrics.record_s": ("total", "metrics.record"),
    "baselines.hk_step_s": ("total", "baselines.hk_step"),
    "baselines.hk_step_calls": ("calls", "baselines.hk_step"),
    "baselines.degroot_s": ("total", "baselines.degroot"),
    "outputs.edges_s": ("total", "outputs.edges"),
    "outputs.tables_s": ("self", "outputs.write_trajectory"),
    "outputs.manifest_s": ("total", "outputs.manifest"),
    "cli.sweep_self_s": ("self", "cli.sweep"),
    "cli.reanalyse_s": ("total", "cli.reanalyse"),
}
DERIVED_UNITS = {
    "dynamics.filter_ns_per_visit": "ns",
    "trace.overhead_s": "s",
    "trace.missing_spans": "count",
    "threeway.hesitation_share": "ratio",
    "network.rewire_change_ratio": "ratio",
    "network.snapshot_mb": "MB",
    "outputs.bytes_edges": "bytes",
    "outputs.bytes_csv": "bytes",
    "outputs.bytes_json": "bytes",
}
# Models whose states always sit on a term value; DeGroot keeps raw averages.
TERM_VALUED_MODELS = ("threeway", "hk-homogeneous", "hk-heterogeneous")


def layer_unit(name: str) -> str:
    if name in DERIVED_UNITS:
        return DERIVED_UNITS[name]
    return "s" if name.endswith("_s") else "count"


def import_program(root: Path):
    """Import opiniondyn from the checkout's src/, or exit without a result."""
    src = root / "src"
    if not (src / "opiniondyn" / "__init__.py").is_file():
        sys.exit(f"perfbench: no src/opiniondyn under {root}; run from a checkout's root")
    sys.path.insert(0, str(src))
    import opiniondyn
    import opiniondyn.cli
    if Path(opiniondyn.__file__).resolve().parent != (src / "opiniondyn").resolve():
        sys.exit(f"perfbench: imported opiniondyn from {opiniondyn.__file__}, not {src}")
    return opiniondyn


def measure_setup(root: Path, config_path: Path) -> float:
    """Median time, in fresh processes, to import, load the config and build the term set.

    Each process's time is host-normalised by the numpy imports timed in
    fresh processes on either side of it.
    """
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    measured, scales = [], []
    before = calibrate.import_seconds()
    for _ in range(SETUP_REPEATS + 1):  # the first fills the bytecode cache
        out = subprocess.run([sys.executable, "-c", SETUP_CHILD, str(config_path)],
                             cwd=root, env=env, capture_output=True, text=True, check=True)
        after = calibrate.import_seconds()
        measured.append(float(out.stdout))
        scales.append(calibrate.scale(before, after, calibrate.IMPORT_REFERENCE_S))
        before = after
    print(f"setup: {' '.join(f'{t:.4f}' for t in measured[1:])} s as measured; "
          f"host scales {' '.join(f'{k:.3f}' for k in scales[1:])}", file=sys.stderr)
    return statistics.median(t * k for t, k in zip(measured[1:], scales[1:]))


class Bench:
    """Runs and checks the passes of one workload at one seed."""

    def __init__(self, od, workload: str, seed: int, work: Path, use_reference: bool):
        self.od = od
        self.workload = workload
        self.seed = seed
        self.work = work
        self.config_path = work / "config.json"
        self.config_path.write_text(json.dumps(workloads.make_config(workload, seed)))
        reference = json.loads(REFERENCE.read_text()) if use_reference and REFERENCE.exists() else {}
        self.expected = reference.get(workload, {}).get(str(seed))
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def run_pass(self, index: int, tracer: spans.Tracer | None = None) -> dict:
        """One pass and its checks; returns timings, digest and counts."""
        outdir = self.work / f"pass{index}"
        before = calibrate.kernel_seconds()
        gc.collect()  # start every pass from the same heap, outside its timing
        with tracer or contextlib.nullcontext(), contextlib.redirect_stdout(sys.stderr):
            config = self.od.config.load_config(self.config_path)
            try:
                result = workloads.PASSES[self.workload](self.od, config, self.seed, outdir)
            except Exception:
                traceback.print_exc()
                result = None
        scale = calibrate.scale(before, calibrate.kernel_seconds())
        if tracer is not None and not tracer.restored():
            self.problems.append("a traced function was not restored")
        runs = workloads.RUNS[self.workload]
        self.attempted += runs
        if result is None:
            self.failed += runs
            shutil.rmtree(outdir, ignore_errors=True)
            return {}
        # A failure tied to one run fails that run; one found in the pass's
        # files as a whole fails every run of the pass.
        run_failures = result.failures + self.check_records(config, result)
        digest = checks.tree_digest(outdir)
        counts = self.counts(config, result, outdir)
        pass_failures = self.check_files(config, outdir) + self.check_repeatable(digest, counts)
        shutil.rmtree(outdir)
        print(f"pass {index}{' traced' if tracer else ''}: wall {result.wall_s:.4f} s, "
              f"sim {result.sim_s:.4f} s as measured; host scale {scale:.4f}", file=sys.stderr)
        for line in run_failures + pass_failures:
            print(f"FAIL pass {index}: {line}", file=sys.stderr)
        self.failed += runs if pass_failures else min(runs, len(run_failures))
        return {"wall_s": result.wall_s * scale, "sim_s": result.sim_s * scale, "scale": scale,
                "runs": runs, "digest": digest, "counts": counts}

    def check_records(self, config, result) -> list[str]:
        term_values = config.term_set().values
        failures = []
        for label, record in result.records:
            if label.split("@")[0] in TERM_VALUED_MODELS:
                bad = checks.off_scale_states(record, term_values)
                if bad:
                    failures.append(f"{label}: {bad} states off the term scale")
        return failures

    def check_files(self, config, outdir: Path) -> list[str]:
        term_values = config.term_set().values
        failures = []
        for path in outdir.rglob("opinions.csv"):
            if not path.parent.name.startswith("degroot"):
                bad = checks.off_scale_rows(path, term_values)
                if bad:
                    failures.append(f"{path.relative_to(outdir)}: {bad} rows off the term scale")
        if self.workload == "ref-sweep":
            for name in workloads.compare_dirs():
                diff = checks.reanalysis_mismatches(
                    outdir / "compare" / name / "metrics.csv",
                    outdir / "reanalyse" / name / "metrics.csv")
                failures += [f"{name} re-analysis: {d}" for d in diff]
        return failures

    def counts(self, config, result, outdir: Path) -> dict:
        threeway = [rec for label, rec in result.records if label.startswith("threeway@")]
        counts = checks.record_counts(threeway, config)
        counts.update(checks.file_counts(outdir))
        counts["network.snapshot_mb"] = checks.snapshot_mb([r for _, r in result.records])
        return counts

    def check_repeatable(self, digest: str, counts: dict) -> list[str]:
        """Every pass must match the recorded reference, or else the first pass."""
        if self.expected is None:
            self.expected = {"digest": digest, "counts": counts, "source": "the first pass"}
        source = self.expected.get("source", "perfbench/reference.json")
        failures = []
        if digest != self.expected["digest"]:
            failures.append(f"output digest {digest[:16]} differs from {source}")
        for key, value in counts.items():
            if value != self.expected["counts"].get(key):
                failures.append(f"{key} = {value} differs from {source}")
        return failures


def timed_loop(seconds: float, passes: list, run_next, minimum: int) -> None:
    """Run passes until the next one would overrun ``seconds``."""
    start = time.perf_counter()
    last = 0.0
    while len(passes) < minimum or time.perf_counter() - start + last <= seconds:
        began = time.perf_counter()
        passes.append(run_next(len(passes)))
        last = time.perf_counter() - began


def median_of(passes: list, key) -> float:
    return statistics.median(key(p) for p in passes)


def end_to_end(bench: Bench, setup_s: float, seconds: float) -> dict:
    passes: list = []
    timed_loop(seconds, passes, bench.run_pass, MIN_PASSES)
    done = [p for p in passes if p]
    if not done:
        return {}
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    print(f"median host scale {median_of(done, lambda p: p['scale']):.4f} over {len(done)} passes",
          file=sys.stderr)
    values = {
        "setup_s": setup_s,
        "wall_s": median_of(done, lambda p: p["wall_s"]),
        "runs_per_s": median_of(done, lambda p: p["runs"] / p["wall_s"]),
        "sim_s": median_of(done, lambda p: p["sim_s"]),
        "emit_s": median_of(done, lambda p: p["wall_s"] - p["sim_s"]),
        "peak_rss_mb": rss_mb,
    }
    return {name: {"value": v, "unit": E2E_UNITS[name]} for name, v in values.items()}


def per_layer(bench: Bench, seconds: float) -> dict:
    """Alternate untraced and traced passes; report traced layers and overhead."""
    plain, traced, summaries, missing = [], [], [], set()

    def run_next(i):
        if i % 2 == 0:
            plain.append(bench.run_pass(i))
            return plain[-1]
        tracer = spans.Tracer(bench.od)
        traced.append(bench.run_pass(i, tracer))
        summaries.append(tracer.take(traced[-1].get("scale", 1.0)))
        missing.update(tracer.missing)
        return traced[-1]

    timed_loop(seconds, [], run_next, 2)
    for name in sorted(missing):
        print(f"span missing: {name} no longer exists", file=sys.stderr)
    pairs = [(p, s) for p, s in zip(traced, summaries) if p]
    plain = [p for p in plain if p]
    if not pairs or not plain:
        return {}
    values = {}
    for metric, (stat, span) in SPAN_METRICS.items():
        values[metric] = statistics.median(s.get(span, {}).get(stat, 0) for _, s in pairs)
    counts = pairs[0][0]["counts"]
    visits = counts["dynamics.filter_pair_visits"]
    draws = counts["network.rewire_draws"]
    values.update(counts)
    values["dynamics.filter_ns_per_visit"] = (
        values["dynamics.filter_self_s"] * 1e9 / visits if visits else 0.0)
    values["threeway.hesitation_share"] = (
        counts["threeway.hesitation_draws"] / visits if visits else 0.0)
    values["network.rewire_change_ratio"] = (
        (counts["network.rewire_added"] + counts["network.rewire_cut"]) / draws if draws else 0.0)
    values["trace.overhead_s"] = (median_of([p for p, _ in pairs], lambda p: p["wall_s"])
                                  - median_of(plain, lambda p: p["wall_s"]))
    values["trace.missing_spans"] = len(missing)
    return {name: {"value": v, "unit": layer_unit(name)} for name, v in values.items()}


def report(workload: str, seed: int, bench: Bench, metrics: dict) -> dict:
    print(f"{workload} seed={seed}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"  {name:34s} {m['value']:>16.6g} {m['unit']}", file=sys.stderr)
    ratio = bench.failed / bench.attempted if bench.attempted else 1.0
    print(f"  {'fail_ratio':34s} {ratio:>16.6g} ({bench.failed}/{bench.attempted} runs)",
          file=sys.stderr)
    for problem in bench.problems:
        print(f"  problem: {problem}", file=sys.stderr)
    return {
        "correct": bool(metrics) and bench.failed == 0 and not bench.problems,
        "attempted": max(bench.attempted, 1),
        "failed": bench.failed if bench.attempted else 1,
        "metrics": metrics,
    }


def run_one(args) -> int:
    root = Path.cwd()
    od = import_program(root)
    work = root / ".perfbench_work" / f"{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        bench = Bench(od, args.workload, args.seed, work, use_reference=not args.record)
        if args.trace:
            metrics = per_layer(bench, args.seconds)
        else:
            setup_s = measure_setup(root, bench.config_path)
            metrics = end_to_end(bench, setup_s, args.seconds)
        result = report(args.workload, args.seed, bench, metrics)
        if args.record and result["correct"]:
            record_reference(args.workload, args.seed, bench)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()
    print(json.dumps(result))
    return 0


def record_reference(workload: str, seed: int, bench: Bench) -> None:
    """Store this run's digest and counts as the reference for (workload, seed)."""
    reference = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    entry = {k: v for k, v in bench.expected.items() if k != "source"}
    reference.setdefault(workload, {})[str(seed)] = entry
    REFERENCE.write_text(json.dumps(reference, indent=2, sort_keys=True) + "\n")
    print(f"recorded {workload} seed {seed} in {REFERENCE.name}", file=sys.stderr)


def run_all(args) -> int:
    """Every workload, each in a fresh process; one result line per workload."""
    status = 0
    for workload in workloads.WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               *(["--record"] if args.record else [])]
        out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = out.stdout.strip().splitlines()
        print(f"{workload}: {lines[-1] if lines else 'no result'}")
        if out.returncode or not lines:
            status = 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=55)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="store this run's output digest and counts as the reference "
                             "for its workload and seed (after a deliberate behaviour change)")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
