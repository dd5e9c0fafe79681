"""Output checks and exact counts, computed after a pass from what it produced.

Nothing here wraps or patches the program: counts come from a record's
values and network snapshots, and from the files on disk, so they survive
any rewrite of the engine's internals.
"""

from __future__ import annotations

import csv
import hashlib
from pathlib import Path

import numpy as np

# manifest.json carries a timestamp, so it is the one file left out of the
# digest and the byte counts.
UNHASHED = {"manifest.json"}
REANALYSED_COLUMNS = ("variance", "range", "c_aad", "delta_max")


def data_files(root: Path) -> list[Path]:
    return sorted(p for p in root.rglob("*") if p.is_file() and p.name not in UNHASHED)


def tree_digest(root: Path) -> str:
    """sha256 over every data file's relative path and contents."""
    digest = hashlib.sha256()
    for path in data_files(root):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0")
        with open(path, "rb") as fh:
            digest.update(hashlib.file_digest(fh, "sha256").digest())
    return digest.hexdigest()


def file_counts(root: Path) -> dict[str, int]:
    """Edge lines and data bytes written, by kind of file."""
    counts = {"outputs.edge_lines": 0, "outputs.bytes_edges": 0,
              "outputs.bytes_csv": 0, "outputs.bytes_json": 0}
    for path in data_files(root):
        kind = path.suffix.lstrip(".")
        counts[f"outputs.bytes_{kind}"] += path.stat().st_size
        if kind == "edges":
            counts["outputs.edge_lines"] += path.read_bytes().count(b"\n")
    return counts


def off_scale_rows(opinions_csv: Path, term_values: np.ndarray) -> int:
    """Rows of an opinions file whose value is not exactly values[term_index]."""
    bad = 0
    with open(opinions_csv, newline="") as fh:
        for row in csv.DictReader(fh):
            if float(row["value"]) != term_values[int(row["term_index"])]:
                bad += 1
    return bad


def off_scale_states(record, term_values: np.ndarray) -> int:
    """States in a record whose value is not exactly values[term]."""
    return int(np.count_nonzero(record.values != term_values[record.terms]))


def reanalysis_mismatches(metrics_csv: Path, reanalysed_csv: Path) -> list[str]:
    """Columns where ``cmd_metrics`` disagrees with the run's metrics.csv, byte for byte."""
    with open(metrics_csv, newline="") as fh:
        written = list(csv.DictReader(fh))
    with open(reanalysed_csv, newline="") as fh:
        again = list(csv.DictReader(fh))
    if len(written) != len(again):
        return [f"{len(written)} rows vs {len(again)} re-analysed"]
    return [f"iteration {a['iteration']}: {col}"
            for a, b in zip(written, again) for col in REANALYSED_COLUMNS if a[col] != b[col]]


def pairwise_table(values: np.ndarray):
    """Distinct values and the index of each, so N×N distance tests become lookups."""
    distinct, index = np.unique(values, return_inverse=True)
    return np.abs(distinct[:, None] - distinct[None, :]), index


def threeway_counts(record, config) -> dict[str, int]:
    """Draw and edge counts of one threeway run, from its values and snapshots.

    The engine draws once per hesitation-zone neighbour (ordered pairs) and
    once per rewiring-eligible unordered pair, reading the pre-step state.
    """
    th, rw = config.thresholds, config.rewiring
    n = record.n_agents
    counts = dict.fromkeys(("visits", "hesitation", "rewire_draws", "added", "cut"), 0)
    for k in range(record.iterations):
        adj = record.networks[k].adjacency
        after = record.networks[k + 1].adjacency
        dist, idx = pairwise_table(record.values[k])
        rows, cols = idx[:, None], idx[None, :]
        hesitant = ((dist > th.alpha) & (dist < th.beta))[rows, cols]
        eligible = np.where(adj, (dist > rw.delta_cut)[rows, cols],
                            (dist < rw.delta_add)[rows, cols])
        counts["visits"] += int(np.count_nonzero(adj))
        counts["hesitation"] += int(np.count_nonzero(hesitant & adj))
        counts["rewire_draws"] += int(np.count_nonzero(np.triu(eligible, 1)))
        counts["added"] += int(np.count_nonzero(np.triu(after & ~adj, 1)))
        counts["cut"] += int(np.count_nonzero(np.triu(adj & ~after, 1)))
    counts["network_draws"] = n * (n - 1) // 2 if config.initial_network.edges is None else 0
    return counts


def record_counts(threeway_records, config) -> dict[str, int]:
    """The exact per-pass counts over every threeway record of a pass."""
    total = dict.fromkeys(("visits", "hesitation", "rewire_draws", "added", "cut",
                           "network_draws"), 0)
    for record in threeway_records:
        for key, value in threeway_counts(record, config).items():
            total[key] += value
    return {
        "dynamics.filter_pair_visits": total["visits"],
        "threeway.hesitation_draws": total["hesitation"],
        "network.random_network_draws": total["network_draws"],
        "network.rewire_draws": total["rewire_draws"],
        "network.rewire_added": total["added"],
        "network.rewire_cut": total["cut"],
    }


def snapshot_mb(records) -> float:
    """Largest network history one record holds: N² bytes per distinct snapshot."""
    held = 0
    for record in records:
        arrays = {id(net.adjacency): net.adjacency.nbytes for net in record.networks}
        held = max(held, sum(arrays.values()))
    return held / 1e6
