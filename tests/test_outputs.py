"""opinions.csv and terms.csv against a csv.writer oracle, byte for byte."""

import csv
import io
import tracemalloc

import numpy as np
import pytest

from opiniondyn import build_term_set, cli, outputs
from opiniondyn.config import config_from_dict
from opiniondyn.dynamics import StepResult, TrajectoryRecord
from opiniondyn.outputs import write_trajectory
from oracles import empty_network


def csv_tables(record: TrajectoryRecord) -> tuple[bytes, bytes]:
    """opinions.csv and terms.csv as csv.writer writes them, one row per agent
    per iteration, each value the repr of a Python float."""
    values, terms = record.values.tolist(), record.terms.tolist()
    opinions, term_table = io.StringIO(newline=""), io.StringIO(newline="")
    writer = csv.writer(opinions)
    writer.writerow(["iteration", "agent", "value", "term_index"])
    writer.writerows((k, agent, repr(v), t)
                     for k, (row_v, row_t) in enumerate(zip(values, terms))
                     for agent, (v, t) in enumerate(zip(row_v, row_t)))
    writer = csv.writer(term_table)
    writer.writerow(["iteration", "agent", "term_index"])
    writer.writerows((k, agent, t) for k, row_t in enumerate(terms) for agent, t in enumerate(row_t))
    return opinions.getvalue().encode("ascii"), term_table.getvalue().encode("ascii")


def assert_tables_match_oracle(record: TrajectoryRecord, outdir) -> None:
    write_trajectory(record, outdir, 0.01)
    opinions, terms = csv_tables(record)
    assert (outdir / "opinions.csv").read_bytes() == opinions
    assert (outdir / "terms.csv").read_bytes() == terms


def record_of(n: int, **overrides) -> TrajectoryRecord:
    """A run over n agents from random initial terms and a sparse network."""
    phi = overrides.get("term_set", {}).get("phi", 3)
    raw = {"n_agents": n, "seed": n,
           "initial_opinions": np.random.default_rng(n).integers(0, 2 * phi + 1, n).tolist(),
           "initial_network": {"edge_prob": min(1.0, 3 / n)}}
    raw.update(overrides)
    return cli.run_from_config(config_from_dict(raw))


@pytest.mark.parametrize("n", [1, 9, 10, 11, 99, 100, 101, 1000, 1001])
def test_tables_match_csv_writer_across_agent_label_widths(tmp_path, n):
    assert_tables_match_oracle(record_of(n), tmp_path)


def test_tables_match_csv_writer_off_the_term_scale(tmp_path):
    record = record_of(11, model="degroot-distance")
    assert not np.isin(record.values, build_term_set(3, 2.0).values).all()
    assert_tables_match_oracle(record, tmp_path)


def test_tables_match_csv_writer_past_ten_iterations(tmp_path):
    rng = np.random.default_rng(12)
    states = [StepResult(rng.random(13), rng.integers(0, 7, 13), empty_network(13))
              for _ in range(12)]
    record = TrajectoryRecord.from_states(states, converged=False, d_max=0.5)
    assert record.iterations == 11
    assert_tables_match_oracle(record, tmp_path)


def test_tables_match_csv_writer_with_two_digit_term_indices(tmp_path):
    record = record_of(30, term_set={"phi": 6})
    assert record.terms.max() >= 10
    assert_tables_match_oracle(record, tmp_path)


def test_tables_keep_signed_zeros_and_exponent_forms(tmp_path):
    rows = [[0.0, -0.0, 1e-05, 5e-324, 0.5, 1.0],
            [-0.0, 0.0, 5e-324, 1e-05, 1.0, 0.5]]
    states = [StepResult(np.array(row), np.array([0, 0, 0, 0, 3, 6]), empty_network(6))
              for row in rows]
    record = TrajectoryRecord.from_states(states, converged=True, d_max=0.5)
    assert_tables_match_oracle(record, tmp_path)
    text = (tmp_path / "opinions.csv").read_bytes()
    assert b"0,1,-0.0,0\r\n" in text and b"1,0,-0.0,0\r\n" in text
    assert b"0,3,5e-324,0\r\n" in text and b"1,3,1e-05,0\r\n" in text


@pytest.mark.parametrize("block_rows", [1, 3, 7, 11, 12])
def test_tables_match_csv_writer_for_any_block_size(tmp_path, monkeypatch, block_rows):
    # 11 agents: blocks of single agents, of part of an iteration, of one
    # iteration, and of more than one.
    record = record_of(11, model="degroot-distance", initial_network={"edge_prob": 0.5})
    monkeypatch.setattr(outputs, "BLOCK_ROWS", block_rows)
    assert_tables_match_oracle(record, tmp_path)


def test_opinions_file_memory_is_one_block(tmp_path):
    # Off-scale values give every cell its own label: the writer's worst case.
    rng = np.random.default_rng(5)
    shape = (11, 20000)
    record = TrajectoryRecord(
        values=rng.random(shape), terms=rng.integers(0, 7, shape), networks=[],
        converged=False, iterations=shape[0] - 1, d_max=0.5)
    record.variance, record.avg_degree  # computed on first read, outside the writer
    tracemalloc.start()
    try:
        write_trajectory(record, tmp_path, 0.01)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = (tmp_path / "opinions.csv").stat().st_size
    assert size > 6_000_000
    assert peak < size / 4
