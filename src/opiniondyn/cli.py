"""Command-line surface: run, compare, sweep, metrics.

Every command is driven by a JSON config file (see README for the schema)
and writes its outputs into a directory. Exit codes: 0 success, 1 config
or usage error, 2 runtime error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import baselines, dynamics, network
from .config import MODELS, ConfigError, SimulationConfig, check_setting, load_config
from .dynamics import TrajectoryRecord
from .metrics import default_cluster_tolerance, final_metrics, trajectory_metrics
from .outputs import (
    METRICS_FILE,
    fmt_float,
    read_opinions,
    write_csv,
    write_manifest,
    write_metrics,
    write_trajectory,
)

COMPARISON_FILE = "comparison.csv"
SWEEP_FILE = "sweep.csv"
# Columns of a _summary_rows row after its label.
SUMMARY_COLUMNS = ["converged", "iterations", "variance", "range", "c_aad", "cluster_count"]


def run_from_config(config: SimulationConfig) -> TrajectoryRecord:
    """Execute the engine selected by config.model."""
    if config.model == "threeway":
        return dynamics.run(config)
    term_set = config.term_set()
    values0 = config.initial_values()
    if config.model in ("degroot-uniform", "degroot-distance"):
        mode = config.model.split("-", 1)[1]
        return baselines.degroot_run(
            values0, mode, term_set, t_max=config.t_max, tol=config.epsilon,
            d_max=config.d_max, freeze_weights=config.degroot_freeze_weights,
        )
    return baselines.hk_run(
        values0, config.hk_bounds(), term_set,
        t_max=config.t_max, tol=config.epsilon, d_max=config.d_max,
    )


def _cluster_tolerance(config: SimulationConfig) -> float:
    if config.cluster_tolerance is not None:
        return config.cluster_tolerance
    return default_cluster_tolerance(config.term_set())


def parse_model_spec(spec: str, config: SimulationConfig) -> SimulationConfig:
    """Derive a config for one compare entry, e.g. 'hk-homogeneous:0.25'.

    The optional ':value' sets the homogeneous confidence bound; other
    models take no parameter.
    """
    name, _, param = spec.partition(":")
    if name not in MODELS:
        raise ConfigError("models", f"unknown model {name!r}; expected one of {', '.join(MODELS)}")
    if param:
        if name != "hk-homogeneous":
            raise ConfigError("models", f"model {name!r} takes no parameter, got {spec!r}")
        try:
            eps = float(param)
        except ValueError as exc:
            raise ConfigError("models", f"bad epsilon in {spec!r}") from exc
        return replace(config, model=name, hk_epsilon=eps)
    return replace(config, model=name)


def cmd_run(config: SimulationConfig, outdir: Path) -> Path:
    record = run_from_config(config)
    outputs = write_trajectory(record, outdir, _cluster_tolerance(config))
    manifest = write_manifest(outdir, "run", config.to_dict(), config.seed, outputs)
    print(f"run: model={config.model} converged={record.converged} "
          f"iterations={record.iterations} -> {outdir}")
    return manifest


def _summary_rows(runs: list[tuple], finals, d_max: float, tolerance: float) -> list[list]:
    """The comparison.csv or sweep.csv row of each (label, converged,
    iterations) in ``runs``, with the final metrics of the matching row of
    ``finals``: one :func:`metrics.final_metrics` call, as in summary.json."""
    columns = [c.tolist() for c in final_metrics(finals, d_max, tolerance)]
    return [[label, converged, iterations, fmt_float(v), fmt_float(r), fmt_float(c), k]
            for (label, converged, iterations), v, r, c, k in zip(runs, *columns)]


def cmd_compare(config: SimulationConfig, model_specs: list[str], outdir: Path) -> Path:
    if not model_specs:
        raise ConfigError("models", "empty model list")
    derived_configs = [parse_model_spec(spec, config) for spec in model_specs]
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    tolerance = _cluster_tolerance(config)
    runs, finals = [], []
    outputs: dict[str, object] = {}
    for spec, derived in zip(model_specs, derived_configs):
        dirname = spec.replace(":", "_")
        while dirname in outputs:
            dirname += "_again"
        record = run_from_config(derived)
        outputs[dirname] = write_trajectory(record, outdir / dirname, tolerance)
        runs.append((spec, record.converged, record.iterations))
        finals.append(record.final_values)
        print(f"compare: {spec} converged={record.converged} iterations={record.iterations}")
    write_csv(outdir / COMPARISON_FILE, ["model", *SUMMARY_COLUMNS],
              _summary_rows(runs, finals, config.d_max, tolerance))
    outputs["comparison"] = COMPARISON_FILE
    return write_manifest(outdir, "compare", config.to_dict(),
                          config.seed, outputs)


def parse_seed_range(text: str) -> list[int]:
    """'start..end' (inclusive) or a single seed; both ends must be valid seeds."""
    start_s, dots, end_s = text.partition("..")
    try:
        start, end = int(start_s), int(end_s if dots else start_s)
    except ValueError as exc:
        raise ConfigError("seeds", f"bad seed range {text!r}") from exc
    if end < start:
        raise ConfigError("seeds", f"empty seed range {text!r}")
    return list(range(check_setting("seed", start), check_setting("seed", end) + 1))


def cmd_sweep(config: SimulationConfig, seeds: list[int], outdir: Path) -> Path:
    """Run ``config`` once per seed and write one sweep.csv row per seed, in
    seed order.

    A run leaves only its converged flag, iteration count and final
    opinions. The pending seeds are summarised together by
    :func:`metrics.final_metrics` whenever their final opinions fill one block
    of ``network.BLOCK_PAIRS`` opinions, so a sweep holds one block of final
    opinions for any seed count. A failing seed's row records its error alone.
    """
    if not seeds:
        raise ConfigError("seeds", "empty seed list")
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    tolerance = _cluster_tolerance(config)
    finals = np.empty((max(1, network.BLOCK_PAIRS // config.n_agents), config.n_agents))
    rows, pending = [], []

    def summarise_pending():
        if pending:
            rows.extend(row + [""] for row in
                        _summary_rows(pending, finals[:len(pending)], config.d_max, tolerance))
            pending.clear()

    for seed in seeds:
        try:
            record = run_from_config(config.with_seed(seed))
            finals[len(pending)] = record.final_values
        except Exception as exc:  # keep sweeping; the row records the failure
            summarise_pending()
            rows.append([seed] + [""] * len(SUMMARY_COLUMNS) + [str(exc)])
            continue
        pending.append((seed, record.converged, record.iterations))
        if len(pending) == len(finals):
            summarise_pending()
    summarise_pending()
    write_csv(outdir / SWEEP_FILE, ["seed", *SUMMARY_COLUMNS, "error"], rows)
    print(f"sweep: {len(seeds)} seeds -> {outdir / SWEEP_FILE}")
    return write_manifest(outdir, "sweep", config.to_dict(),
                          f"{seeds[0]}..{seeds[-1]}", {"sweep": SWEEP_FILE})


def cmd_metrics(opinions_csv: Path, outdir: Path,
                d_max: float = SimulationConfig.d_max) -> Path:
    """Recompute per-iteration metrics from an opinions CSV.

    Network stats are unknowable from opinions alone, so the avg_degree and
    isolated columns are left empty.
    """
    d_max = check_setting("d_max", d_max)
    iterations, states = read_opinions(opinions_csv)
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    write_metrics(outdir / METRICS_FILE, iterations, *trajectory_metrics(states, d_max))
    print(f"metrics: {len(iterations)} iterations -> {outdir / METRICS_FILE}")
    return outdir / METRICS_FILE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="opiniondyn",
        description="Linguistic three-way-decision opinion dynamics simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    io = argparse.ArgumentParser(add_help=False)
    io.add_argument("--config", required=True, help="JSON config file")
    io.add_argument("--out", required=True, help="output directory")
    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=int, default=None, help="override the config seed")

    sub.add_parser("run", parents=[io, seeded], help="run one model from a config file")

    cmp_p = sub.add_parser("compare", parents=[io, seeded],
                           help="run several models from the same initial opinions")
    cmp_p.add_argument("--models", required=True,
                       help="comma-separated model list, e.g. "
                            "'threeway,degroot-uniform,hk-homogeneous:0.25'")

    sweep_p = sub.add_parser("sweep", parents=[io], help="run one config over a seed range")
    sweep_p.add_argument("--seeds", required=True, help="inclusive range 'start..end'")

    met_p = sub.add_parser("metrics", help="recompute metrics from an opinions CSV")
    met_p.add_argument("opinions_csv", help="opinions.csv produced by a run")
    met_p.add_argument("--out", required=True)
    met_p.add_argument("--d-max", type=float, default=SimulationConfig.d_max,
                       help="consensus-index normalizer (default %(default)s)")

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse has printed the help (0) or the usage error (2)
        return 1 if exc.code else 0
    try:
        if args.command == "metrics":
            cmd_metrics(Path(args.opinions_csv), Path(args.out), args.d_max)
            return 0
        config = load_config(args.config)
        if getattr(args, "seed", None) is not None:
            config = config.with_seed(args.seed)
        if args.command == "run":
            cmd_run(config, Path(args.out))
        elif args.command == "compare":
            specs = [s.strip() for s in args.models.split(",") if s.strip()]
            cmd_compare(config, specs, Path(args.out))
        elif args.command == "sweep":
            cmd_sweep(config, parse_seed_range(args.seeds), Path(args.out))
        return 0
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
