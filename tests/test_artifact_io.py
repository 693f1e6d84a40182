"""Byte contract of the artifact CSVs: trace.csv, deltas.csv and margins.csv
are exactly what csv.writer's excel dialect writes for rows of ints and
repr() floats, and trace.csv reads back bit for bit."""

import csv
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from consensus_dyn import simulator
from consensus_dyn.algorithms import AlgorithmKind
from consensus_dyn.graphs import RoundGraphs, fixed
from consensus_dyn.simulator import (
    RunSpec,
    read_margins_csv,
    read_trace_csv,
    write_deltas_csv,
    write_margins_csv,
    write_trace_csv,
)


# ---------------------------------------------------------------------------
# reference writers: one csv.writer row per line


def _fmt(v: float) -> str:
    return repr(float(v))


def ref_trace_csv(trace, path):
    d = trace.positions.shape[2]
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["round", "agent"] + [f"comp_{k}" for k in range(d)])
        for t in range(len(trace.positions)):
            for p in range(trace.positions.shape[1]):
                w.writerow([t, p] + [_fmt(v) for v in trace.positions[t, p]])


def ref_deltas_csv(trace, path):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["round", "k", "delta_k"])
        for t in range(len(trace.deltas)):
            for k in range(trace.deltas.shape[1]):
                w.writerow([t, k, _fmt(trace.deltas[t, k])])


def ref_margins_csv(trace, path):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["round", "agent", "alpha_hat"])
        for i in range(len(trace.margins)):
            for p in range(trace.margins.shape[1]):
                w.writerow([i + 1, p, _fmt(trace.margins[i, p])])


def margins_csv(trace, path):
    """write_margins_csv with its margin pass (checked in test_simulator)
    replaced by the case's margins, so that any float reaches the writer."""
    def margin_pass(positions, graphs, period):
        assert graphs.shape == (len(positions) - 1,) + positions.shape[1:2] * 2
        return trace.margins

    with mock.patch.object(simulator, "_margin_row", margin_pass):
        write_margins_csv(trace, RoundGraphs(trace.spec.pattern), path)


WRITERS = [(write_trace_csv, ref_trace_csv), (write_deltas_csv, ref_deltas_csv),
           (margins_csv, ref_margins_csv)]

# a NaN with the sign bit and a payload: still printed `nan`
ODD_NAN = np.array([0xFFF8000000000123], dtype=np.uint64).view(np.float64)[0]
SPECIAL = [0.0, -0.0, np.nan, ODD_NAN, np.inf, -np.inf, 5e-324, -5e-324,
           1.7976931348623157e308, -1.7976931348623157e308, 0.1, 1.0, 1e16, 2.5e-8]


def _trace(positions, deltas, margins):
    """A run's record of arbitrary floats, with the margins its margins.csv
    is to hold."""
    n, d = positions.shape[1:]
    spec = RunSpec(n=n, d=d, algorithm=AlgorithmKind("equal-neighbor"),
                   pattern=fixed(np.eye(n, dtype=bool)), epsilon=1.0)
    return SimpleNamespace(spec=spec, positions=positions, deltas=deltas, margins=margins)


def _assert_same_bytes(tmp_path, trace):
    for new, ref in WRITERS:
        a, b = tmp_path / f"{new.__name__}.csv", tmp_path / f"{ref.__name__}.csv"
        new(trace, a)
        ref(trace, b)
        assert a.read_bytes() == b.read_bytes(), new.__name__


def _floats(special):
    return st.one_of(st.sampled_from(special), st.floats(allow_nan=True, allow_infinity=True))


@st.composite
def traces(draw, special=SPECIAL):
    rounds = draw(st.integers(0, 6))
    n, d = draw(st.integers(1, 5)), draw(st.integers(1, 4))
    elems = _floats(special)
    pos = np.array(draw(st.lists(elems, min_size=(rounds + 1) * n * d,
                                 max_size=(rounds + 1) * n * d)), dtype=np.float64)
    deltas = np.array(draw(st.lists(elems, min_size=(rounds + 1) * d,
                                    max_size=(rounds + 1) * d)), dtype=np.float64)
    margins = np.array(draw(st.lists(elems, min_size=rounds * n, max_size=rounds * n)),
                       dtype=np.float64)
    return _trace(pos.reshape(rounds + 1, n, d), deltas.reshape(rounds + 1, d),
                  margins.reshape(rounds, n))


@settings(max_examples=150, deadline=None)
@given(trace=traces(), chunk=st.sampled_from([1, 2, 3, 5, 7, 1 << 16]))
def test_writers_match_csv_writer_bytes(tmp_path_factory, trace, chunk):
    # small chunks put chunk boundaries inside rows and between them
    with mock.patch.object(simulator, "CHUNK_ELEMS", chunk):
        _assert_same_bytes(tmp_path_factory.mktemp("io"), trace)


def test_writers_match_on_zero_row_margins_and_one_dimension(tmp_path):
    trace = _trace(np.array([[[-0.0], [0.0], [np.nan]]]), np.array([[np.inf]]), np.empty((0, 3)))
    _assert_same_bytes(tmp_path, trace)
    assert (tmp_path / "margins_csv.csv").read_bytes() == b"round,agent,alpha_hat\r\n"


def test_writers_match_across_chunk_boundaries(tmp_path):
    # more than one 2^16-value chunk at d = 3 (21845 rows per chunk), with a
    # block of repeated positions, as an amortized rule writes them, that
    # straddles the first boundary (row 21845: round 2184, agent 5)
    rng = np.random.default_rng(5)
    rounds, n, d = 3000, 10, 3
    positions = rng.uniform(-1.0, 1.0, (rounds + 1, n, d))
    positions[2180:2190] = positions[2180]
    positions[2184, 5] = [-0.0, 0.0, 5e-324]
    assert positions.size > 1 << 16
    trace = _trace(positions, positions.max(axis=1) - positions.min(axis=1),
                   np.where(rng.uniform(size=(rounds, n)) < 0.5, np.nan, 0.25))
    _assert_same_bytes(tmp_path, trace)
    back = read_trace_csv(tmp_path / "write_trace_csv.csv")
    assert np.array_equal(back.view(np.uint64), positions.view(np.uint64))


@settings(max_examples=100, deadline=None)
@given(trace=traces(special=[v for v in SPECIAL if np.isfinite(v)]))
def test_trace_round_trips_bit_for_bit(tmp_path_factory, trace):
    # the reader rejects non-finite positions (see below)
    positions = np.where(np.isfinite(trace.positions), trace.positions, -0.0)
    path = tmp_path_factory.mktemp("io") / "trace.csv"
    write_trace_csv(_trace(positions, None, None), path)
    back = read_trace_csv(path)
    assert back.shape == positions.shape
    assert np.array_equal(back.view(np.uint64), positions.view(np.uint64))


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_reader_rejects_non_finite_positions_naming_the_first(tmp_path, value):
    path = tmp_path / "trace.csv"
    path.write_text(f"round,agent,comp_0,comp_1\n0,0,0.5,0.25\n0,1,0.5,{value}\n"
                    f"1,0,{value},0.25\n1,1,0.5,0.25\n")
    with pytest.raises(ValueError, match=f"round 0, agent 1, component 1 is {value}$"):
        read_trace_csv(path)


@pytest.mark.parametrize("body, message", [
    ("0,0,0.5,0.25\r\n\r\n0,1,0.5,0.75\r\n", "line 3 has 0 fields"),
    ("0,0,0.5\r\n0,1,0.5,0.75\r\n", "line 2 has 3 fields"),
    ("0,0,0.5,0.25,1.0\r\n0,1,0.5,0.75\r\n", "line 2 has 5 fields"),
])
def test_reader_rejects_rows_of_the_wrong_width(tmp_path, body, message):
    path = tmp_path / "trace.csv"
    path.write_text("round,agent,comp_0,comp_1\r\n" + body, newline="")
    with pytest.raises(ValueError, match=message):
        read_trace_csv(path)


def test_reader_rejects_missing_repeated_and_negative_rows(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text("round,agent,comp_0\n0,0,0.5\n1,1,0.5\n")
    with pytest.raises(ValueError, match="missing"):
        read_trace_csv(path)
    path.write_text("round,agent,comp_0\n0,0,0.5\n0,1,0.5\n0,1,0.5\n")
    with pytest.raises(ValueError, match="repeats the row of round 0, agent 1"):
        read_trace_csv(path)
    # round -1 would be read as the last round, filling its missing row
    path.write_text("round,agent,comp_0\n0,0,0.5\n0,1,0.25\n1,0,0.5\n-1,1,0.75\n")
    with pytest.raises(ValueError, match="line 5 has a negative round or agent"):
        read_trace_csv(path)
    # margins rounds start at 1: subtracting it from the least intp would wrap
    margins = tmp_path / "margins.csv"
    margins.write_text(f"round,agent,alpha_hat\n1,0,0.5\n{-2**63},0,0.5\n")
    with pytest.raises(ValueError, match="line 3 has a negative round or agent"):
        read_margins_csv(margins)
    # indices beyond intp are rejected, not an OverflowError
    for row in ("99999999999999999999999,0,1", "0,-99999999999999999999999,1"):
        path.write_text(f"round,agent,comp_0\n0,0,0.5\n{row}\n")
        with pytest.raises(ValueError, match="trace file has a round or agent beyond the index"):
            read_trace_csv(path)
    path.write_text("")
    with pytest.raises(ValueError, match="empty"):
        read_trace_csv(path)
    path.write_text("round,agent,comp_0\n")
    with pytest.raises(ValueError, match="no rows"):
        read_trace_csv(path)
