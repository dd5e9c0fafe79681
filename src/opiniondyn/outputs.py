"""File emission: trajectory CSVs, per-iteration edge lists, summaries, manifests.

All data files are byte-deterministic for a given record: floats are written
with repr (shortest round-trip form) and JSON documents with a fixed layout.
The manifest is the only file carrying the seed and a timestamp. Every file
is written in binary mode through :func:`_write`, so no line end depends on
the platform, and the tables and edge lists are formatted from one
label-text format: fixed-width, NUL-padded labels gathered by ``take``.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import math
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .dynamics import TrajectoryRecord
from .metrics import final_metrics
from .network import SocialNetwork, mask_below_diagonal, row_blocks

OPINIONS_FILE = "opinions.csv"
TERMS_FILE = "terms.csv"
METRICS_FILE = "metrics.csv"
SUMMARY_FILE = "summary.json"
MANIFEST_FILE = "manifest.json"
OPINIONS_COLUMNS = ["iteration", "agent", "value", "term_index"]
TERMS_COLUMNS = ["iteration", "agent", "term_index"]
METRICS_COLUMNS = ["iteration", "variance", "range", "c_aad", "avg_degree", "isolated", "delta_max"]


def fmt_float(v: float) -> str:
    return repr(float(v))


def _write(path: Path, chunks) -> None:
    """Write an iterable of byte chunks (bytes, or C-contiguous arrays whose
    buffer is the bytes) to ``path``: the one place a file is opened for
    writing."""
    try:
        with open(path, "wb") as fh:
            fh.writelines(chunks)
    except OSError as exc:
        raise RuntimeError(f"cannot write {path}: {exc}") from exc


def write_csv(path: Path, header: list[str], rows) -> None:
    text = io.StringIO()
    writer = csv.writer(text)
    writer.writerow(header)
    writer.writerows(rows)
    _write(path, [text.getvalue().encode()])


@functools.lru_cache(maxsize=16)
def index_labels(n: int, end: str) -> np.ndarray:
    """Read-only "i<end>" labels of 0..n-1 as fixed-width bytes, padded on
    the right with NULs to the width of n-1's label: the "j " and "j\\n" of
    edge lines and the "i," of the trajectory tables. Text joined from them
    is the labels once the NULs are stripped."""
    labels = np.fromiter((f"{i}{end}".encode() for i in range(n)), f"S{len(str(n - 1)) + 1}", n)
    labels.setflags(write=False)
    return labels


# The trajectory tables are formatted in blocks of whole iterations of at most
# this many rows (or of this many agents of one iteration, when an iteration
# has more), so the writer's temporaries take O(BLOCK_ROWS) memory.
BLOCK_ROWS = 1 << 12


def _cell_labels(cells: np.ndarray, end: str) -> np.ndarray:
    """The "x<end>" label of each float64 or int64 cell, NUL-padded to one
    width. repr runs once per distinct 64-bit pattern, so 0.0 and -0.0 keep
    their own labels and a block of term values takes at most 2*phi+1."""
    keys = cells.view(np.uint64)
    # Not np.unique: its first call imports numpy.ma, about 1.6 MB resident.
    ordered = np.sort(keys, axis=None)
    distinct = ordered[np.concatenate(([True], ordered[1:] != ordered[:-1]))]
    labels = np.array([f"{x!r}{end}".encode() for x in distinct.view(cells.dtype).tolist()])
    return labels.take(distinct.searchsorted(keys))


def _table_chunks(header: list[str], *columns: np.ndarray):
    """A per-iteration table as bytes: its header line, then its rows one
    block at a time. A row is "iteration,agent," then the cell of each
    (iterations+1, N) float64 or int64 column, the last ending the line with
    "\\r\\n" as csv.writer does. A block is a structured array of fixed-width
    labels, one row per cell; its bytes are the CSV text once the padding is
    stripped."""
    n_iterations, n = columns[0].shape
    iteration_labels, agent_labels = index_labels(n_iterations, ","), index_labels(n, ",")
    ends = [","] * (len(columns) - 1) + ["\r\n"]
    per_block = max(1, BLOCK_ROWS // n)
    yield ",".join(header).encode() + b"\r\n"
    for first in range(0, n_iterations, per_block):
        iterations = slice(first, first + per_block)
        for start in range(0, n, BLOCK_ROWS):
            agents = slice(start, start + BLOCK_ROWS)
            fields = [iteration_labels[iterations, None], agent_labels[agents]]
            fields += [_cell_labels(column[iterations, agents], end)
                       for column, end in zip(columns, ends)]
            block = np.empty(fields[-1].shape,
                             dtype=[(f"f{i}", f.dtype) for i, f in enumerate(fields)])
            for i, f in enumerate(fields):
                block[f"f{i}"] = f
            yield block.tobytes().translate(None, b"\0")


def _edge_chunks(net: SocialNetwork):
    """The edge lines of each row block of the upper triangle: the labels of
    each edge's row and column side by side. Only the lines of rows below
    the first full-width label hold padding, and only those are stripped, as
    bytes; the rest of a block is yielded as its line array, whose buffer is
    their text."""
    n = net.size
    row_labels, col_labels = index_labels(n, " "), index_labels(n, "\n")
    padded = 10 ** (len(str(n - 1)) - 1)
    for rows in row_blocks(n):
        first = rows.start + 1
        width = n - first
        if not width:  # a block of the last row alone holds no pair
            break
        upper = net.adjacency[rows, first:].copy()
        mask_below_diagonal(upper)
        cols = upper.ravel().nonzero()[0]
        # cols ascend, so each row's edges are one run of them, and these are
        # where the runs start, then the number of edges
        starts = np.arange(0, upper.size + 1, width)
        runs = cols.searchsorted(starts)
        per_row = runs[1:] - runs[:-1]
        # Each row's flat offset subtracted from its edges leaves the column.
        cols -= starts[:-1].repeat(per_row)
        lines = np.empty((cols.size, 2), dtype=row_labels.dtype)
        lines[:, 0] = row_labels[rows].repeat(per_row)
        lines[:, 1] = col_labels[first:].take(cols)
        # the lines of the block's rows below the first full-width label
        split = runs[min(max(padded - rows.start, 0), per_row.size)]
        yield lines[:split].tobytes().translate(None, b"\0")
        yield lines[split:]


def save_edge_list(net: SocialNetwork, path) -> None:
    """Write one "i j" line per undirected edge, 0-based, ascending pair
    order, one row block of about ``network.BLOCK_PAIRS`` pairs at a time,
    so the text of the whole network is never held in memory at once."""
    _write(path, _edge_chunks(net))


def read_opinions(path: Path) -> tuple[list[int], np.ndarray]:
    """The iteration labels of an opinions CSV, ascending, and one row per
    iteration of its opinions in agent order. Every iteration must list the
    same agents, once each, with values in [0, 1]. The term_index column is
    optional."""
    required = OPINIONS_COLUMNS[:3]
    per_iteration: dict[int, dict[int, float]] = {}
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None or not set(required).issubset(reader.fieldnames):
                raise RuntimeError(f"{path}: expected columns "
                                   f"{','.join(required)}[,{OPINIONS_COLUMNS[3]}]")
            for row in reader:
                try:
                    k, agent = int(row["iteration"]), int(row["agent"])
                    value = float(row["value"])
                except (TypeError, ValueError) as exc:  # TypeError: a short row
                    raise RuntimeError(f"{path}: line {reader.line_num}: {exc}") from None
                if not 0.0 <= value <= 1.0:  # NaN too
                    raise RuntimeError(f"{path}: line {reader.line_num}: "
                                       f"value {value!r} outside [0, 1]")
                opinions = per_iteration.setdefault(k, {})
                if agent in opinions:
                    raise RuntimeError(f"{path}: iteration {k} lists agent {agent} twice")
                opinions[agent] = value
    except (OSError, UnicodeDecodeError) as exc:
        raise RuntimeError(f"cannot read {path}: {exc}") from exc
    if not per_iteration:
        raise RuntimeError(f"{path}: no data rows")
    iterations = sorted(per_iteration)
    agents = sorted(per_iteration[iterations[0]])
    for k in iterations:
        if sorted(per_iteration[k]) != agents:
            raise RuntimeError(f"{path}: iteration {k} does not list the agents of "
                               f"iteration {iterations[0]}")
    return iterations, np.array([[per_iteration[k][a] for a in agents] for k in iterations])


def write_metrics(path: Path, iterations, variance, opinion_range, consensus, delta_max,
                  avg_degree=None, isolated=None) -> None:
    """metrics.csv, one row per iteration; without network stats their
    columns are left blank. delta_max is blank where it is NaN."""
    blank = [""] * len(variance)
    write_csv(path, METRICS_COLUMNS, zip(
        iterations,
        map(fmt_float, variance),
        map(fmt_float, opinion_range),
        map(fmt_float, consensus),
        blank if avg_degree is None else map(fmt_float, avg_degree),
        blank if isolated is None else map(int, isolated),
        ("" if math.isnan(dm) else fmt_float(dm) for dm in delta_max),
    ))


def summarize(record: TrajectoryRecord, cluster_tolerance: float) -> dict:
    """Seed-free digest of a finished run. Its final variance, range, c_aad
    and cluster count come from :func:`metrics.final_metrics`, the function
    behind the rows of comparison.csv and sweep.csv, so the three files agree."""
    (variance,), (spread,), (c_aad,), (clusters,) = final_metrics(
        record.final_values[None], record.d_max, cluster_tolerance)
    avg_degree, isolated, final_dm = record.avg_degree, record.isolated, record.delta_max[-1]
    return {
        "converged": record.converged,
        "iterations": record.iterations,
        "n_agents": record.n_agents,
        "cluster_tolerance": cluster_tolerance,
        "final": {
            "variance": float(variance),
            "range": float(spread),
            "c_aad": float(c_aad),
            "cluster_count": int(clusters),
            "average_degree": None if avg_degree is None else float(avg_degree[-1]),
            "isolated_count": None if isolated is None else int(isolated[-1]),
            "delta_max": None if math.isnan(final_dm) else float(final_dm),
        },
    }


def write_trajectory(record: TrajectoryRecord, outdir: Path,
                     cluster_tolerance: float) -> dict[str, object]:
    """Write all data files for one run; returns relative output names."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    # repr of a float64 is fmt_float of it; no copy for a record's own dtypes.
    values = np.asarray(record.values, dtype=np.float64)
    terms = np.asarray(record.terms, dtype=np.int64)
    _write(outdir / OPINIONS_FILE, _table_chunks(OPINIONS_COLUMNS, values, terms))
    _write(outdir / TERMS_FILE, _table_chunks(TERMS_COLUMNS, terms))

    write_metrics(outdir / METRICS_FILE, range(record.iterations + 1), record.variance,
                  record.opinion_range, record.consensus, record.delta_max,
                  record.avg_degree, record.isolated)

    network_files = []
    for k, net in enumerate(record.networks):
        name = f"network_{k}.edges"
        save_edge_list(net, outdir / name)
        network_files.append(name)

    summary = summarize(record, cluster_tolerance)
    _write_json(outdir / SUMMARY_FILE, summary)

    return {
        "opinions": OPINIONS_FILE,
        "terms": TERMS_FILE,
        "metrics": METRICS_FILE,
        "networks": network_files,
        "summary": SUMMARY_FILE,
    }


def _write_json(path: Path, payload: dict) -> None:
    _write(path, [json.dumps(payload, indent=2).encode() + b"\n"])


def write_manifest(outdir: Path, command: str, config_echo: dict, seed,
                   outputs: dict) -> Path:
    """Record what ran and where the files went; echoes the resolved config."""
    manifest = {
        "engine": f"opiniondyn {__version__}",
        "command": command,
        "seed": seed,
        "config": config_echo,
        "outputs": outputs,
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }
    path = Path(outdir) / MANIFEST_FILE
    _write_json(path, manifest)
    return path
