import csv
import functools
import json
import logging
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import consensus_dyn
from consensus_dyn import cli, simulator
from consensus_dyn.cli import load_config, main, serialize_config
from consensus_dyn.graphs import READ_AHEAD, CommPattern, RoundGraphs
from oracles import rounds_read_ahead


def _write(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def _minimal(**kw):
    cfg = {
        "n": 3,
        "d": 1,
        "algorithm": "midpoint",
        "pattern": {"family": "complete"},
        "initial": {"kind": "explicit", "positions": [[0.0], [0.5], [1.0]]},
        "epsilon": 1e-3,
    }
    cfg.update(kw)
    return cfg


def _read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_config_round_trip(tmp_path):
    path = _write(tmp_path, _minimal(seed=4, audits={"safeness": True}))
    cfg = load_config(path)
    again = json.loads(serialize_config(cfg))
    assert again == cfg
    path2 = _write(tmp_path, again, "again.json")
    assert load_config(path2) == cfg


def test_run_minimal(tmp_path):
    cfg = _write(tmp_path, _minimal())
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["converged"] is True
    assert summary["t_eps"] == 1  # one complete-graph midpoint round collapses the range
    assert summary["t_eps"] <= summary["bound_t"]
    assert (out / "trace.csv").exists()
    assert (out / "deltas.csv").exists()
    assert (out / "margins.csv").exists()


def test_run_rejects_bad_epsilon(tmp_path, capsys):
    cfg = _write(tmp_path, _minimal(epsilon=0.0))
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.strip()


def test_run_rejects_integer_epsilon_too_large_for_a_float(tmp_path, capsys):
    # json reads 10**400 written out as a Python int, which float() cannot hold
    path = tmp_path / "config.json"
    path.write_text(json.dumps(_minimal()).replace("0.001", str(10**400)))
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert "epsilon is an integer too large for a float" in capsys.readouterr().err


def test_run_rejects_explicit_position_too_large_for_a_float(tmp_path, capsys):
    cfg = _minimal(initial={"kind": "explicit", "positions": [[0.0], [10**400], [1.0]]})
    assert main(["run", "--config", _write(tmp_path, cfg), "--out", str(tmp_path / "o")]) == 2
    assert "initial position is an integer too large for a float" in capsys.readouterr().err


def test_run_rejects_pattern_family_that_is_not_a_string(tmp_path, capsys):
    for family in ([], {}, 3):
        cfg = _minimal(n=2, d=1, initial={"kind": "random-unit-box"},
                       pattern={"family": family})
        assert main(["run", "--config", _write(tmp_path, cfg),
                     "--out", str(tmp_path / "o")]) == 2
        assert "unknown pattern family" in capsys.readouterr().err


def test_run_rejects_unknown_keys(tmp_path):
    assert main(["run", "--config", _write(tmp_path, _minimal(typo=1)),
                 "--out", str(tmp_path / "o")]) == 2
    bad_pattern = _minimal()
    bad_pattern["pattern"] = {"family": "complete", "extra": 2}
    assert main(["run", "--config", _write(tmp_path, bad_pattern, "p.json"),
                 "--out", str(tmp_path / "o")]) == 2
    bad_audit = _minimal(audits={"safenes": True})
    assert main(["run", "--config", _write(tmp_path, bad_audit, "a.json"),
                 "--out", str(tmp_path / "o")]) == 2


def test_run_missing_config(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.strip()


def test_run_fixed_graph_literal(tmp_path):
    cfg = _minimal()
    cfg["pattern"] = {"family": "fixed",
                      "graph": {"n": 3, "edges": [[0, 1], [1, 2], [2, 0],
                                                  [1, 0], [2, 1], [0, 2]]}}
    assert main(["run", "--config", _write(tmp_path, cfg),
                 "--out", str(tmp_path / "out")]) == 0


def test_run_rejects_explicit_positions_that_are_not_numbers(tmp_path, capsys):
    # strings and booleans would parse as floats: "0.25" -> 0.25, true -> 1.0
    cfg = _minimal(n=2, initial={"kind": "explicit", "positions": [["0.25"], [True]]})
    assert main(["run", "--config", _write(tmp_path, cfg), "--out", str(tmp_path / "o")]) == 2
    assert "'0.25'" in capsys.readouterr().err
    cfg["initial"]["positions"] = [[0.25], [True]]
    assert main(["run", "--config", _write(tmp_path, cfg), "--out", str(tmp_path / "o")]) == 2
    assert "True" in capsys.readouterr().err
    cfg["initial"]["positions"] = {"0": [0.25], "1": [0.5]}
    assert main(["run", "--config", _write(tmp_path, cfg), "--out", str(tmp_path / "o")]) == 2
    assert "list of rows" in capsys.readouterr().err


def test_run_rejects_boolean_graph_node_count(tmp_path, capsys):
    cfg = _minimal(n=1, initial={"kind": "random-unit-box"})
    cfg["pattern"] = {"family": "fixed", "graph": {"n": True, "edges": []}}
    assert main(["run", "--config", _write(tmp_path, cfg), "--out", str(tmp_path / "o")]) == 2
    assert "node count" in capsys.readouterr().err


def test_run_rejects_boolean_graph_edge(tmp_path, capsys):
    # adj[True, False] = True is a boolean mask that sets nothing: the edge
    # would vanish and leave a graph of self-loops that never converges
    cfg = _minimal(n=2, initial={"kind": "random-unit-box"})
    cfg["pattern"] = {"family": "fixed",
                      "graph": {"n": 2, "edges": [[True, False], [0, 0], [1, 1]]}}
    assert main(["run", "--config", _write(tmp_path, cfg), "--out", str(tmp_path / "o")]) == 2
    assert "edge (True, False)" in capsys.readouterr().err


def _loop_warnings(caplog):
    return [r for r in caplog.records if "missing self-loops" in r.getMessage()]


def test_fixed_graph_with_every_self_loop_logs_nothing(tmp_path, caplog):
    cfg = _minimal(sweep={"seed": [0, 1]})
    cfg["pattern"] = {"family": "fixed",
                      "graph": {"n": 3, "edges": [[0, 0], [1, 1], [2, 2], [0, 1], [1, 2]]}}
    path, out = _write(tmp_path, cfg), str(tmp_path / "out")
    with caplog.at_level(logging.WARNING, logger="consensus_dyn.graphs"):
        assert main(["sweep", "--config", path, "--out", out]) == 0
        cfg.pop("sweep")
        path = _write(tmp_path, cfg, "one.json")
        assert main(["run", "--config", path, "--out", out]) == 0
        assert main(["verify", "--config", path, "--out", out]) == 0
    assert _loop_warnings(caplog) == []


def test_fixed_graph_missing_self_loops_logs_once_per_load(tmp_path, caplog):
    cfg = _minimal(sweep={"seed": [0, 1, 2]})
    cfg["pattern"] = {"family": "fixed", "graph": {"n": 3, "edges": [[0, 0], [0, 1], [1, 2]]}}
    path, out = _write(tmp_path, cfg), str(tmp_path / "out")
    with caplog.at_level(logging.WARNING, logger="consensus_dyn.graphs"):
        assert main(["sweep", "--config", path, "--out", out]) == 0
        assert len(_loop_warnings(caplog)) == 1
        assert "[1, 2]" in _loop_warnings(caplog)[0].getMessage()
        caplog.clear()
        cfg.pop("sweep")
        path = _write(tmp_path, cfg, "one.json")
        assert main(["run", "--config", path, "--out", out]) == 0
        assert len(_loop_warnings(caplog)) == 1
        caplog.clear()
        assert main(["verify", "--config", path, "--out", out]) == 0
        assert len(_loop_warnings(caplog)) == 1


def test_run_centroid_audit(tmp_path):
    cfg = {
        "n": 4, "d": 2, "algorithm": "centroid",
        "pattern": {"family": "random-nonsplit", "seed": 5},
        "epsilon": 1e-3, "seed": 2,
        "audits": {"safeness": True, "matrices": True, "moreau": False},
    }
    out = tmp_path / "out"
    assert main(["run", "--config", _write(tmp_path, cfg), "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    audit = summary["audits"]["safeness"]
    assert audit["passed"] is True
    assert audit["worst_alpha"] >= 1 / 3 - 1e-9
    assert summary["audits"]["matrices"]["ok"] is True


def test_run_seed_override(tmp_path):
    cfg = {
        "n": 3, "d": 1, "algorithm": "midpoint",
        "pattern": {"family": "random-nonsplit", "seed": 1},
        "epsilon": 1e-3, "seed": 0,
    }
    out = tmp_path / "out"
    assert main(["run", "--config", _write(tmp_path, cfg), "--out", str(out),
                 "--seed", "5"]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["seed"] == 5


def test_run_bit_identical(tmp_path):
    cfg = {
        "n": 4, "d": 2, "algorithm": "centroid",
        "pattern": {"family": "random-nonsplit", "seed": 5},
        "epsilon": 1e-3, "seed": 2,
    }
    path = _write(tmp_path, cfg)
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--config", path, "--out", str(a)]) == 0
    assert main(["run", "--config", path, "--out", str(b)]) == 0
    for name in ("trace.csv", "deltas.csv", "margins.csv", "summary.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_sweep_axis_order_and_columns(tmp_path):
    cfg = {
        "n": 3, "d": 1, "algorithm": "midpoint",
        "pattern": {"family": "complete"},
        "epsilon": 1e-3,
        "sweep": {"n": [3, 4], "seed": [0, 1]},
    }
    out = tmp_path / "out"
    assert main(["sweep", "--config", _write(tmp_path, cfg), "--out", str(out)]) == 0
    rows = _read_rows(out / "sweep.csv")
    assert [r["scenario"] for r in rows] == ["0", "1", "2", "3"]
    assert [r["n"] for r in rows] == ["3", "3", "4", "4"]
    assert [r["seed"] for r in rows] == ["0", "1", "0", "1"]
    assert all(r["converged"] == "yes" for r in rows)
    assert all(r["within_bound"] == "yes" for r in rows)


def test_sweep_seed_axis_is_inert_on_fixed_scenarios(tmp_path):
    cfg = _minimal(sweep={"seed": [0, 1, 2]})
    out = tmp_path / "out"
    assert main(["sweep", "--config", _write(tmp_path, cfg), "--out", str(out)]) == 0
    rows = _read_rows(out / "sweep.csv")
    assert len({r["t_eps"] for r in rows}) == 1


def test_sweep_bound_column_tracks_dimension(tmp_path):
    cfg = {
        "n": 4, "d": 2, "algorithm": "extreme-point+amortized",
        "pattern": {"family": "random-rooted", "seed": 3},
        "epsilon": 1e-3, "seed": 1,
        "sweep": {"d": [2, 3]},
    }
    out = tmp_path / "out"
    assert main(["sweep", "--config", _write(tmp_path, cfg), "--out", str(out)]) == 0
    rows = _read_rows(out / "sweep.csv")
    assert [r["bound_t"] for r in rows] == [
        str(3 * math.ceil(math.log(1000) / math.log(4 / 3))),
        str(3 * math.ceil(math.log(1000) / math.log(6 / 5))),
    ]



@pytest.mark.parametrize("pattern, algorithms", [
    # live margins per round; the amortized period-4 block outlasts max_rounds
    ({"family": "random-rooted", "seed": 3}, ["midpoint", "midpoint+amortized"]),
    # every agent hears only itself: every constraint is vacuous
    ({"family": "self-loops"}, ["midpoint"]),
])
def test_sweep_worst_alpha_matches_run_summary(tmp_path, pattern, algorithms):
    cfg = {"n": 5, "d": 1, "algorithm": "midpoint", "pattern": pattern,
           "epsilon": 1e-9, "max_rounds": 3, "audits": {"safeness": True},
           "sweep": {"algorithm": algorithms, "seed": [0, 1]}}
    out = tmp_path / "out"
    assert main(["sweep", "--config", _write(tmp_path, cfg), "--out", str(out)]) == 0
    rows = _read_rows(out / "sweep.csv")
    assert len(rows) == 2 * len(algorithms)
    for row in rows:
        scenario = {k: v for k, v in cfg.items() if k != "sweep"}
        scenario.update(algorithm=row["algorithm"], seed=int(row["seed"]))
        run_out = tmp_path / f"run{row['scenario']}"
        path = _write(tmp_path, scenario, f"scenario{row['scenario']}.json")
        assert main(["run", "--config", path, "--out", str(run_out)]) == 0
        safeness = json.loads((run_out / "summary.json").read_text())["audits"]["safeness"]
        worst = safeness.get("worst_alpha")
        assert row["worst_alpha"] == ("" if worst is None else repr(worst))
        live = pattern["family"] != "self-loops" and row["algorithm"] == "midpoint"
        assert (row["worst_alpha"] != "") == live
        assert ("skipped" in safeness) == row["algorithm"].endswith("amortized")


def test_sweep_rejects_seed_option(tmp_path, capsys):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--config", _write(tmp_path, _minimal(sweep={"seed": [0, 1]})),
              "--out", str(out), "--seed", "3"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 3" in capsys.readouterr().err
    assert not (out / "sweep.csv").exists()

def test_sweep_requires_axes(tmp_path):
    cfg = _minimal()
    assert main(["sweep", "--config", _write(tmp_path, cfg),
                 "--out", str(tmp_path / "o")]) == 2
    cfg = _minimal(sweep={"n": []})
    assert main(["sweep", "--config", _write(tmp_path, cfg, "c2.json"),
                 "--out", str(tmp_path / "o")]) == 2


def test_counterexample(capsys):
    assert main(["counterexample"]) == 0
    out = capsys.readouterr().out
    assert "outside hull: true" in out
    assert "all inside: true" in out


def test_plotdata_series(tmp_path):
    cfg = {
        "n": 4, "d": 1, "algorithm": "midpoint+amortized",
        "pattern": {"family": "rotating-star"},
        "epsilon": 1e-4, "seed": 6,
    }
    out = tmp_path / "out"
    assert main(["run", "--config", _write(tmp_path, cfg), "--out", str(out)]) == 0
    assert main(["plotdata", str(out / "trace.csv"), "--out", str(out)]) == 0
    rows = _read_rows(out / "plotdata.csv")
    series = {r["series"] for r in rows}
    assert {"delta_0", "log10_delta_0", "alpha_hat"} <= series
    deltas = [float(r["value"]) for r in rows if r["series"] == "delta_0"]
    # gathering rounds leave positions in place: flat until each macro-round ends
    assert deltas[1] == deltas[0] and deltas[2] == deltas[0]
    assert deltas[3] < deltas[0]
    for r in rows:
        if r["series"].startswith("log10_"):
            assert math.isfinite(float(r["value"]))


def test_plotdata_rejects_malformed(tmp_path, capsys):
    bad = tmp_path / "junk.csv"
    bad.write_text("round,foo\n0,1\n")
    assert main(["plotdata", str(bad), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.strip()


def test_verify_clean_and_tampered(tmp_path):
    cfg = {
        "n": 4, "d": 2, "algorithm": "centroid",
        "pattern": {"family": "random-nonsplit", "seed": 5},
        "epsilon": 1e-3, "seed": 2,
        "audits": {"safeness": True},
    }
    path = _write(tmp_path, cfg)
    out = tmp_path / "out"
    assert main(["run", "--config", path, "--out", str(out)]) == 0
    assert main(["verify", "--config", path, "--out", str(out)]) == 0

    trace_file = out / "trace.csv"
    lines = trace_file.read_text().splitlines()
    parts = lines[-1].split(",")
    parts[-1] = repr(float(parts[-1]) + 100.0)
    lines[-1] = ",".join(parts)
    trace_file.write_text("\n".join(lines) + "\n")
    assert main(["verify", "--config", path, "--out", str(out)]) == 3


ALL_AUDITS = {"safeness": True, "matrices": True, "moreau": True}


def test_verify_accepts_rounding_on_tiny_spans(tmp_path):
    # spans shrink to ~1e-13 of the endpoints here, where the half-ulp
    # rounding of an honest update reads as a large relative shortfall
    bidir = {"family": "bidirectional-intermittent"}
    cases = [
        {"n": 6, "d": 1, "algorithm": "midpoint", "seed": 1,
         "pattern": dict(bidir, period=6, seed=5)},
        {"n": 8, "d": 2, "algorithm": "centroid", "seed": 721306,
         "pattern": dict(bidir, period=11, seed=835194)},
    ]
    for i, case in enumerate(cases):
        path = _write(tmp_path, dict(case, epsilon=1e-12, audits=ALL_AUDITS), f"c{i}.json")
        out = str(tmp_path / f"out{i}")
        assert main(["run", "--config", path, "--out", out]) == 0, case["algorithm"]
        assert main(["verify", "--config", path, "--out", out]) == 0, case["algorithm"]


def _count_graphs(monkeypatch):
    # every round graph generated, in the order generated
    calls = []
    fill = CommPattern.rounds
    monkeypatch.setattr(CommPattern, "rounds", lambda self, t0, t1, out=None:
                        calls.extend(range(t0, t1)) or fill(self, t0, t1, out))
    return calls


def _read_ahead(rounds):
    # the round graphs a loop reading rounds 1..rounds one at a time generates
    return list(range(1, rounds_read_ahead(rounds, READ_AHEAD) + 1))


def test_audits_read_only_the_runs_round_graphs(tmp_path, monkeypatch):
    # a window of 5000 rounds on an 18-round run: every audit reads the run's
    # own 18 round graphs, the ones the engine generated, and A4, which has no
    # whole window to read, fails
    cfg = {"n": 6, "d": 2, "algorithm": "extreme-point", "epsilon": 1e-12, "max_rounds": 18,
           "pattern": {"family": "bidirectional-intermittent", "period": 5000, "seed": 3},
           "audits": ALL_AUDITS}
    path, out = _write(tmp_path, cfg), str(tmp_path / "out")
    calls = _count_graphs(monkeypatch)
    reads = []
    first = RoundGraphs.first
    monkeypatch.setattr(RoundGraphs, "first", lambda self, rounds:
                        reads.append(rounds) or first(self, rounds))
    assert main(["run", "--config", path, "--out", out]) == 0
    # the engine's loop generated its rounds ahead; the audits read its 18
    assert calls == _read_ahead(18) and reads == [18]
    summary = json.loads((Path(out) / "summary.json").read_text())
    assert summary["rounds"] == 18
    moreau = summary["audits"]["moreau"]
    assert moreau["a4"] is False and moreau["holds"] is False
    assert moreau["a4_witness"] == "the run's 18 rounds hold no whole window of 5000 rounds"
    calls.clear()
    reads.clear()
    assert main(["verify", "--config", path, "--out", out]) == 0
    # verify generates exactly the trace's 18 rounds, which the audits read
    assert calls == list(range(1, 19)) and reads == [18]


def test_matrix_audits_of_amortized_rules_fail_before_any_work(tmp_path, capsys):
    cfg = {"n": 6, "d": 1, "algorithm": "midpoint+amortized", "epsilon": 1e-6,
           "pattern": {"family": "rotating-star"}, "audits": {"moreau": True}}
    path, out = _write(tmp_path, cfg), tmp_path / "out"
    message = "matrix reconstruction audits apply to per-round runs only"
    for command in ("run", "verify"):
        capsys.readouterr()
        assert main([command, "--config", path, "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()


def test_verify_flags_outward_move_on_tiny_span(tmp_path):
    # the rounding allowance is a few ulps: a move of 1e-3 of a 1e-8 span
    # (about 1e5 ulps) is still a violation
    lo, hi = 0.5, 0.5 + 1e-8
    path = _write(tmp_path, _minimal(n=2, initial={"kind": "explicit",
                                                   "positions": [[lo], [hi]]}))
    out = tmp_path / "out"
    assert main(["run", "--config", path, "--out", str(out)]) == 0
    assert main(["verify", "--config", path, "--out", str(out)]) == 0
    trace_file = out / "trace.csv"
    lines = trace_file.read_text().splitlines()
    mid = float(lines[-2].split(",")[-1])
    lines[-2] = f"1,0,{mid + 1e-3 * (hi - lo)!r}"
    trace_file.write_text("\n".join(lines) + "\n")
    assert main(["verify", "--config", path, "--out", str(out)]) == 3


def _extreme_point_run(tmp_path):
    cfg = {"n": 4, "d": 2, "algorithm": "extreme-point",
           "pattern": {"family": "random-nonsplit", "seed": 2}, "epsilon": 1e-6, "seed": 7}
    path = _write(tmp_path, cfg)
    out = tmp_path / "out"
    assert main(["run", "--config", path, "--out", str(out)]) == 0
    assert main(["verify", "--config", path, "--out", str(out)]) == 0
    return path, out / "trace.csv"


def test_verify_rejects_forged_constant_trace(tmp_path, capsys):
    # every margin constraint of a trace that never moves is vacuous; only
    # round 0 against the configured draw tells it apart
    path, trace_file = _extreme_point_run(tmp_path)
    lines = trace_file.read_text().splitlines()
    forged = [lines[0]] + [",".join(line.split(",")[:2] + ["0.25", "0.75"]) for line in lines[1:]]
    trace_file.write_text("\n".join(forged) + "\n")
    capsys.readouterr()
    assert main(["verify", "--config", path, "--out", str(trace_file.parent)]) == 3
    assert "agent 0" in capsys.readouterr().err


def test_verify_rejects_duplicate_trace_row(tmp_path):
    path, trace_file = _extreme_point_run(tmp_path)
    lines = trace_file.read_text().splitlines()
    trace_file.write_text("\n".join(lines + [lines[-1]]) + "\n")
    assert main(["verify", "--config", path, "--out", str(trace_file.parent)]) == 2


def _edit_trace(trace_file, t, p, values):
    lines = trace_file.read_text().splitlines()
    for i, line in enumerate(lines[1:], start=1):
        fields = line.split(",")
        if fields[:2] == [str(t), str(p)]:
            lines[i] = ",".join(fields[:2] + [repr(float(v)) for v in values])
    trace_file.write_text("\n".join(lines) + "\n")


def test_verify_rejects_motion_inside_amortized_block(tmp_path, capsys):
    # margins are audited at block ends only, so an agent that takes its
    # block-end position one round early breaks no margin; only the rule that
    # positions hold still inside a block tells the trace apart
    cfg = {"n": 4, "d": 2, "algorithm": "extreme-point+amortized",
           "pattern": {"family": "rotating-star"}, "epsilon": 1e-6, "seed": 3,
           "audits": {"safeness": True}}
    path = _write(tmp_path, cfg)
    out = tmp_path / "out"
    assert main(["run", "--config", path, "--out", str(out)]) == 0
    assert main(["verify", "--config", path, "--out", str(out)]) == 0
    rows = _read_rows(out / "trace.csv")
    end = {int(r["agent"]): [float(r["comp_0"]), float(r["comp_1"])]
           for r in rows if r["round"] == "3"}
    start = {int(r["agent"]): [float(r["comp_0"]), float(r["comp_1"])]
             for r in rows if r["round"] == "0"}
    p = next(a for a in range(4) if end[a] != start[a])
    _edit_trace(out / "trace.csv", 1, p, end[p])
    capsys.readouterr()
    assert main(["verify", "--config", path, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert f"agent {p} moves inside an amortized block" in err and "in round 1" in err


def test_verify_rejects_motion_in_trailing_partial_block(tmp_path, capsys):
    # 7 rounds at period 3: round 7 opens a block that never ends (with only
    # self-loops nothing converges, so the run goes to max_rounds)
    cfg = {"n": 4, "d": 1, "algorithm": "midpoint+amortized",
           "pattern": {"family": "self-loops"}, "epsilon": 1e-6, "max_rounds": 7, "seed": 5}
    path = _write(tmp_path, cfg)
    out = tmp_path / "out"
    assert main(["run", "--config", path, "--out", str(out)]) == 0
    assert main(["verify", "--config", path, "--out", str(out)]) == 0
    rows = _read_rows(out / "trace.csv")
    assert max(int(r["round"]) for r in rows) == 7
    x6 = float(next(r["comp_0"] for r in rows if r["round"] == "6" and r["agent"] == "2"))
    _edit_trace(out / "trace.csv", 7, 2, [x6 + 1e-9])
    capsys.readouterr()
    assert main(["verify", "--config", path, "--out", str(out)]) == 3
    assert "agent 2 moves inside an amortized block" in capsys.readouterr().err


def test_verify_accepts_a_period_beyond_int64(tmp_path, capsys):
    # a period longer than the trace puts every round in the block of round 0
    cfg = {"n": 4, "d": 1, "algorithm": "midpoint+amortized:" + "9" * 30,
           "pattern": {"family": "complete"}, "epsilon": 1e-6, "max_rounds": 5, "seed": 5}
    path = _write(tmp_path, cfg)
    out = tmp_path / "out"
    assert main(["run", "--config", path, "--out", str(out)]) == 0
    assert main(["verify", "--config", path, "--out", str(out)]) == 0
    _edit_trace(out / "trace.csv", 3, 1, [0.5])
    capsys.readouterr()
    assert main(["verify", "--config", path, "--out", str(out)]) == 3
    assert "agent 1 moves inside an amortized block" in capsys.readouterr().err


def test_memory_error_exits_2(tmp_path, monkeypatch, capsys):
    # a graph too large for memory is reported, not a traceback; nothing
    # here allocates it for real
    def too_large(n):
        raise MemoryError(f"Unable to allocate an ({n}, {n}) array")
    monkeypatch.setattr(cli, "complete_graph", too_large)
    path = _write(tmp_path, _minimal())
    for command in ("run", "verify"):
        capsys.readouterr()
        assert main([command, "--config", path, "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == "error: Unable to allocate an (3, 3) array\n"


def test_degenerate_hull_exits_2(tmp_path, capsys, monkeypatch):
    # a hull whose fan has no volume (here every Qhull hull is collapsed onto
    # one point: 12 points at d = 3 are more than facet enumeration takes):
    # one error line naming the volume as a float, not a traceback
    from consensus_dyn import geometry

    real = geometry._reduced_hull

    def collapsed(centered, vt, rank):
        rank, basis, proj, hull = real(centered, vt, rank)
        return rank, basis, np.zeros_like(proj), hull

    monkeypatch.setattr(geometry, "_reduced_hull", collapsed)
    positions = np.random.default_rng(3).random((12, 3))
    cfg = _minimal(n=12, d=3, algorithm="centroid", pattern={"family": "complete"},
                   initial={"kind": "explicit", "positions": positions.tolist()})
    path = _write(tmp_path, cfg)
    capsys.readouterr()
    assert main(["run", "--config", path, "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == \
        "error: degenerate fan decomposition: volume=0.0 at rank 3\n"


@pytest.mark.parametrize("d, k", [(4, 400), (3, -400), (2, -600)])
def test_centroid_run_far_from_unit_scale_takes_the_unit_rounds(tmp_path, d, k):
    # starts 2^k * U[0, 1)^d: Qhull once died on d = 4, k = 400 with a
    # segfault, d = 3, k = -400 underflowed its fan volumes, and d = 2,
    # k = -600 merged every stack into one point; a fresh interpreter, so
    # that a crash fails only this test
    positions = np.random.default_rng(3).random((10, d))
    rounds = []
    for scale in (0, k):
        cfg = _minimal(n=10, d=d, algorithm="centroid", epsilon=1e-6,
                       pattern={"family": "random-nonsplit", "seed": 5},
                       initial={"kind": "explicit", "positions": np.ldexp(positions, scale).tolist()})
        path = _write(tmp_path, cfg, f"config{scale}.json")
        env = dict(os.environ, PYTHONPATH=str(Path(consensus_dyn.__file__).parent.parent))
        proc = subprocess.run([sys.executable, "-m", "consensus_dyn.cli", "run", "--config", path,
                               "--out", str(tmp_path / f"out{scale}")],
                              env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        rounds.append(json.loads((tmp_path / f"out{scale}" / "summary.json").read_text())["rounds"])
    assert rounds[0] == rounds[1]


def test_run_rejects_legacy_frame_reduction_key(tmp_path, capsys):
    # frame_reduction changed no output, so it is not a config key
    for value in (False, True):
        path = _write(tmp_path, _minimal(frame_reduction=value))
        capsys.readouterr()
        assert main(["run", "--config", path, "--out", str(tmp_path / "out")]) == 2
        assert "unknown config keys: ['frame_reduction']" in capsys.readouterr().err


def _rooted_run(tmp_path):
    # per-round component-midpoint on random-rooted graphs: no round bound
    # applies, and 15 rounds do not reach epsilon
    cfg = {"n": 6, "d": 2, "algorithm": "component-midpoint",
           "pattern": {"family": "random-rooted", "seed": 3}, "epsilon": 1e-12,
           "max_rounds": 15, "seed": 2}
    path = _write(tmp_path, cfg)
    out = tmp_path / "out"
    assert main(["run", "--config", path, "--out", str(out)]) == 0
    assert main(["verify", "--config", path, "--out", str(out)]) == 0
    return path, out


def test_verify_rejects_forged_summary(tmp_path, capsys):
    path, out = _rooted_run(tmp_path)
    honest = json.loads((out / "summary.json").read_text())
    assert honest["converged"] is False and honest["t_eps"] is None
    forgeries = [{"t_eps": 1, "converged": True}, {"rounds": 14}, {"converged": 0},
                 {"delta_final": [0.0, 0.0]}, {"delta0": honest["delta0"][::-1]},
                 {"bound_t": 15}, {"empirical_rate": honest["empirical_rate"] / 2},
                 {"epsilon": 1e-6}, {"pattern": "complete"}]
    for forged in forgeries:
        (out / "summary.json").write_text(json.dumps(dict(honest, **forged)))
        capsys.readouterr()
        assert main(["verify", "--config", path, "--out", str(out)]) == 3, forged
        assert f"summary.json gives {next(iter(forged))} =" in capsys.readouterr().err
    (out / "summary.json").write_text(json.dumps({k: v for k, v in honest.items() if k != "t_eps"}))
    assert main(["verify", "--config", path, "--out", str(out)]) == 3
    (out / "summary.json").write_text("[]")
    assert main(["verify", "--config", path, "--out", str(out)]) == 2


def test_verify_accepts_honest_summaries(tmp_path):
    # converged, not converged, and already collapsed at round 0
    cases = [_minimal(),
             _minimal(pattern={"family": "self-loops"}, max_rounds=3),
             _minimal(initial={"kind": "explicit", "positions": [[0.5], [0.5], [0.5]]})]
    for i, cfg in enumerate(cases):
        path = _write(tmp_path, cfg, f"c{i}.json")
        out = str(tmp_path / f"out{i}")
        assert main(["run", "--config", path, "--out", out]) == 0
        assert main(["verify", "--config", path, "--out", out]) == 0


def _cut_trace(trace_file, rounds):
    lines = trace_file.read_text().splitlines()
    kept = [lines[0]] + [line for line in lines[1:] if int(line.split(",")[0]) <= rounds]
    trace_file.write_text("\n".join(kept) + "\n")


def test_verify_rejects_trace_cut_short(tmp_path, capsys):
    # 15 rounds that do not reach epsilon, cut to 10 with summary.json edited
    # to match: every margin and every summary field still agrees
    path, out = _rooted_run(tmp_path)
    _cut_trace(out / "trace.csv", 10)
    summary = json.loads((out / "summary.json").read_text())
    deltas = _read_rows(out / "deltas.csv")
    summary.update(rounds=10, delta_final=[float(r["delta_k"]) for r in deltas if r["round"] == "10"])
    (out / "summary.json").write_text(json.dumps(summary))
    for with_summary in (True, False):
        if not with_summary:
            (out / "summary.json").unlink()
        capsys.readouterr()
        assert main(["verify", "--config", path, "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "the trace has 10 rounds, run's stopping rule gives 15" in err


def test_verify_rejects_trace_run_past_convergence(tmp_path, capsys):
    # the midpoint run converges in round 1; a second round that repeats it
    # breaks no margin, but run would have stopped
    path = _write(tmp_path, _minimal())
    out = tmp_path / "out"
    assert main(["run", "--config", path, "--out", str(out)]) == 0
    (out / "summary.json").unlink()
    lines = (out / "trace.csv").read_text().splitlines()
    extra = [line.replace("1,", "2,", 1) for line in lines[1:] if line.startswith("1,")]
    (out / "trace.csv").write_text("\n".join(lines + extra) + "\n")
    capsys.readouterr()
    assert main(["verify", "--config", path, "--out", str(out)]) == 3
    assert "the trace has 2 rounds, run's stopping rule gives 1" in capsys.readouterr().err


def test_verify_and_plotdata_reject_rows_of_the_wrong_width(tmp_path, capsys):
    path, trace_file = _extreme_point_run(tmp_path)
    honest = trace_file.read_text().splitlines()
    blank = honest[:3] + [""] + honest[3:]
    short = honest[:3] + [",".join(honest[3].split(",")[:3])] + honest[4:]
    for lines, message in ((blank, "line 4 has 0 fields"), (short, "line 4 has 3 fields")):
        trace_file.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["verify", "--config", path, "--out", str(trace_file.parent)]) == 2
        assert message in capsys.readouterr().err
        assert main(["plotdata", str(trace_file), "--out", str(tmp_path / "plot")]) == 2
        assert message in capsys.readouterr().err


@pytest.mark.parametrize("value", ["inf", "-inf"])
def test_verify_rejects_an_infinite_position(tmp_path, capsys, value):
    # an infinite position made the reconstruction's tolerance, 1e-9 of the
    # largest |x|, infinite, so the matrices audit passed it
    cfg = {"n": 4, "d": 1, "algorithm": "midpoint",
           "pattern": {"family": "random-nonsplit", "seed": 2}, "epsilon": 1e-6, "seed": 3,
           "audits": {"safeness": True, "matrices": True, "moreau": True}}
    path = _write(tmp_path, cfg)
    out = tmp_path / "out"
    assert main(["run", "--config", path, "--out", str(out)]) == 0
    (out / "summary.json").unlink()
    _edit_trace(out / "trace.csv", 1, 2, [float(value)])
    capsys.readouterr()
    assert main(["verify", "--config", path, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert f"non-finite position: round 1, agent 2, component 0 is {value}" in captured.err
    assert "matrices" not in captured.out


def test_run_stops_at_the_round_whose_positions_overflow(tmp_path, capsys):
    # the midpoint of 1e308 and 1.7e308 overflows to inf in round 1; every
    # range after it is NaN, never within epsilon, so the run went on to
    # max_rounds and wrote -Infinity into summary.json
    initial = {"kind": "explicit", "positions": [[1.7e308], [1e308], [1.7e308]]}
    path = _write(tmp_path, _minimal(initial=initial, max_rounds=1000))
    out = tmp_path / "out"
    assert main(["run", "--config", path, "--out", str(out)]) == 2
    assert "round 1: agent 0 has a non-finite position inf in component 0" in \
        capsys.readouterr().err
    assert not (out / "summary.json").exists()


def test_overflowing_run_prints_only_its_error(tmp_path):
    # the overflow that makes round 1's position infinite prints no numpy
    # RuntimeWarning beside the error that names the position
    initial = {"kind": "explicit", "positions": [[1.7e308], [1e308], [1.7e308]]}
    path = _write(tmp_path, _minimal(initial=initial, max_rounds=1000))
    env = dict(os.environ, PYTHONPATH=str(Path(consensus_dyn.__file__).parent.parent))
    proc = subprocess.run([sys.executable, "-m", "consensus_dyn.cli", "run", "--config", path,
                           "--out", str(tmp_path / "out")],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2
    assert proc.stderr == "error: round 1: agent 0 has a non-finite position inf in component 0\n"


def _cli_process(*argv):
    env = dict(os.environ, PYTHONPATH=str(Path(consensus_dyn.__file__).parent.parent))
    return subprocess.run([sys.executable, "-m", "consensus_dyn.cli", *argv],
                          env=env, capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("command", ["run", "sweep", "verify"])
def test_a_start_whose_range_overflows_is_rejected(tmp_path, command):
    # 1.7e308 - -1.7e308 is inf, so epsilon times it passed every range: run
    # said converged after 1 round, with numpy's overflow warnings
    initial = {"kind": "explicit", "positions": [[1.7e308], [-1.7e308]]}
    cfg = _minimal(n=2, algorithm="equal-neighbor", pattern={"family": "self-loops"},
                   initial=initial, epsilon=0.5)
    if command == "sweep":
        cfg["sweep"] = {"seed": [0]}
    out = tmp_path / "out"
    out.mkdir()
    # verify reads the stored trace first
    (out / "trace.csv").write_text("round,agent,comp_0\r\n0,0,1.7e+308\r\n0,1,-1.7e+308\r\n")
    proc = _cli_process(command, "--config", _write(tmp_path, cfg), "--out", str(out))
    assert proc.returncode == 2
    scenario = "scenario 0: " if command == "sweep" else ""
    assert proc.stderr == (f"error: {scenario}the range of the initial positions overflows a float"
                           " in component 0: 1.7e+308 - -1.7e+308\n")
    assert not (out / "summary.json").exists() and not (out / "sweep.csv").exists()


# n 3, d 2 on the complete graph: extreme-point with random ties overflows in
# component 1 at round 1 when an agent draws agent 0 as its least component
# 0 (0.6e308 + 0.1e308 + 0.6e308 + 0.6e308), and not when it draws agent 1
_TIED_HUGE = {"kind": "explicit", "positions": [[0.0, 0.6e308], [0.0, 0.1e308], [1.0, 0.6e308]]}


def test_sweep_failure_names_the_first_failing_scenario(tmp_path, capsys):
    # scenarios 0-3 (component-midpoint) pass; in the extreme-point batch
    # 4-7, seeds 1 and 2 overflow at round 1 and seeds 0 and 18 converge
    cfg = _minimal(n=3, d=2, algorithm="component-midpoint", initial=_TIED_HUGE,
                   tie_break="random",
                   sweep={"algorithm": ["component-midpoint", "extreme-point"],
                          "seed": [0, 1, 18, 2]})
    out = tmp_path / "out"
    capsys.readouterr()
    assert main(["sweep", "--config", _write(tmp_path, cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err == \
        "error: scenario 5: round 1: agent 1 has a non-finite position inf in component 1\n"
    assert not (out / "sweep.csv").exists()
    # each failing scenario on its own stops at the same round
    for idx, seed in ((5, 1), (7, 2)):
        scenario = dict(cfg, algorithm="extreme-point", seed=seed)
        del scenario["sweep"]
        path = _write(tmp_path, scenario, f"s{idx}.json")
        assert main(["run", "--config", path, "--out", str(tmp_path / f"s{idx}")]) == 2
        assert "round 1: agent" in capsys.readouterr().err
    # without the failing seeds every scenario converges
    cfg["sweep"]["seed"] = [0, 18]
    assert main(["sweep", "--config", _write(tmp_path, cfg), "--out", str(out)]) == 0
    assert [r["converged"] for r in _read_rows(out / "sweep.csv")] == ["yes"] * 4


def test_sweep_runs_a_batch_per_block_end_not_per_scenario(tmp_path, monkeypatch):
    # five extreme-point+amortized scenarios over d 1-5 share the pattern, n
    # and rule: one kernel call per block end of the longest, not one per
    # block end of each scenario
    calls = []
    rule = simulator.apply_rule
    monkeypatch.setattr(simulator, "apply_rule", lambda *a: calls.append(a[3]) or rule(*a))
    cfg = {"n": 6, "d": 1, "algorithm": "extreme-point+amortized", "epsilon": 1e-9,
           "pattern": {"family": "rotating-star"}, "seed": 1, "sweep": {"d": [1, 2, 3, 4, 5]}}
    out = tmp_path / "out"
    assert main(["sweep", "--config", _write(tmp_path, cfg), "--out", str(out)]) == 0
    rounds = [int(r["t_eps"]) for r in _read_rows(out / "sweep.csv")]
    assert len(set(rounds)) > 1
    assert calls == list(range(5, max(rounds) + 1, 5))


def test_parser_reuse_matches_fresh_processes(tmp_path, monkeypatch, capsys):
    # main builds its parser once per process: a --seed given to one call, or
    # an argparse error, must not leak into the next call
    cfg = {"n": 4, "d": 2, "algorithm": "extreme-point",
           "pattern": {"family": "random-nonsplit", "seed": 2}, "epsilon": 1e-6, "seed": 3}
    path = _write(tmp_path, cfg)
    calls = [["run", "--config", path, "--out", "a", "--seed", "7"],
             ["run", "--config", path],
             ["run", "--config", path, "--out", "c"]]
    inproc, fresh = tmp_path / "inproc", tmp_path / "fresh"
    inproc.mkdir()
    fresh.mkdir()

    monkeypatch.chdir(inproc)
    results = []
    for i, argv in enumerate(calls):
        if i == 2:
            with pytest.raises(SystemExit) as exc:
                main(["run", "--seed", "oops"])
            assert exc.value.code == 2
        results.append((main(argv), capsys.readouterr().out))
    assert json.loads((inproc / "summary.json").read_text())["seed"] == 3
    assert json.loads((inproc / "a" / "summary.json").read_text())["seed"] == 7

    env = dict(os.environ, PYTHONPATH=str(Path(consensus_dyn.__file__).parent.parent))
    for argv, (code, stdout) in zip(calls, results):
        proc = subprocess.run([sys.executable, "-m", "consensus_dyn.cli", *argv], cwd=fresh,
                              env=env, capture_output=True, text=True, timeout=120)
        assert (proc.returncode, proc.stdout) == (code, stdout)
    for sub in (".", "a", "c"):
        for name in ("trace.csv", "deltas.csv", "margins.csv", "summary.json"):
            assert (inproc / sub / name).read_bytes() == (fresh / sub / name).read_bytes()


def test_matrix_audits_of_a_start_in_exact_consensus_are_skipped(tmp_path, capsys):
    # 0 rounds: no transition to reconstruct, so the matrix audits are
    # skipped, as the safeness audit already was, and run writes its summary
    cfg = _minimal(initial={"kind": "explicit", "positions": [[0.5], [0.5], [0.5]]},
                   audits=ALL_AUDITS)
    path, out = _write(tmp_path, cfg), tmp_path / "out"
    assert main(["run", "--config", path, "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["rounds"] == 0
    assert set(summary["audits"]) == {"safeness", "matrices", "moreau"}
    assert all("skipped" in state for state in summary["audits"].values())
    capsys.readouterr()
    assert main(["verify", "--config", path, "--out", str(out)]) == 0
    assert capsys.readouterr().out.count(": skipped (") == 3


_IMPORT_CHECK = """
import json, sys
from consensus_dyn.cli import main
code = main(["run", "--config", sys.argv[1], "--out", sys.argv[2]])
print(json.dumps([code, "scipy.spatial" in sys.modules]))
"""


def _loads_scipy_spatial(tmp_path, cfg):
    """(exit code, whether scipy.spatial was imported) of a `run` of cfg in
    a fresh interpreter."""
    path = _write(tmp_path, cfg)
    env = dict(os.environ, PYTHONPATH=str(Path(consensus_dyn.__file__).parent.parent))
    proc = subprocess.run([sys.executable, "-c", _IMPORT_CHECK, path, str(tmp_path / "out")],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("algorithm, loaded", [("extreme-point", False), ("centroid", True)])
def test_scipy_spatial_loads_at_the_first_hull(tmp_path, algorithm, loaded):
    # only Qhull hulls need scipy.spatial: a run of any other rule never
    # imports it. Every agent of a complete graph on 12 agents at d = 3
    # stacks 12 points of rank 3, more than facet enumeration takes, whose
    # hull only Qhull builds.
    cfg = {"n": 12, "d": 3, "algorithm": algorithm, "epsilon": 1e-6,
           "pattern": {"family": "complete"}, "audits": ALL_AUDITS}
    assert _loads_scipy_spatial(tmp_path, cfg) == [0, loaded]


@pytest.mark.parametrize("algorithm, pattern", [
    ("centroid", {"family": "complete"}),
    ("centroid", {"family": "random-nonsplit", "seed": 2}),
    ("centroid+amortized", {"family": "rotating-star"})])
def test_planar_centroid_run_never_loads_scipy_spatial(tmp_path, algorithm, pattern):
    # below rank 3 every hull is a segment, a simplex, a monotone chain or
    # facet enumeration
    cfg = {"n": 8, "d": 2, "algorithm": algorithm, "epsilon": 1e-6, "pattern": pattern,
           "audits": {"safeness": True}}
    assert _loads_scipy_spatial(tmp_path, cfg) == [0, False]


def test_each_call_generates_each_round_graph_once(tmp_path, monkeypatch):
    cfg = {"n": 6, "d": 2, "algorithm": "extreme-point", "epsilon": 1e-9, "seed": 1,
           "pattern": {"family": "random-rooted", "seed": 4}, "audits": ALL_AUDITS}
    path = _write(tmp_path, cfg)
    calls = _count_graphs(monkeypatch)
    for out in ("a", "b"):
        # an audited run: the engine generates its T rounds by the read-ahead
        # rule, the audits read them; the second main() call generates its own
        calls.clear()
        assert main(["run", "--config", path, "--out", str(tmp_path / out)]) == 0
        rounds = json.loads((tmp_path / out / "summary.json").read_text())["rounds"]
        assert rounds > 1 and calls == _read_ahead(rounds)

    # six scenarios on each n; those of one n share one stack, so a sweep
    # generates the read-ahead rule's rounds for max T_i per n, not for each
    # scenario, and a second sweep again
    sweep = dict(cfg, audits={"safeness": True},
                 sweep={"n": [6, 4], "algorithm": ["component-midpoint", "extreme-point",
                                                    "centroid"], "seed": [1, 2]})
    path = _write(tmp_path, sweep, "sweep.json")
    for out in ("s1", "s2"):
        calls.clear()
        assert main(["sweep", "--config", path, "--out", str(tmp_path / out)]) == 0
        rows = _read_rows(tmp_path / out / "sweep.csv")
        assert len(rows) == 12 and all(r["converged"] == "yes" for r in rows)
        longest = {}
        for r in rows:  # a converged run stops at t_eps
            longest[r["n"]] = max(longest.get(r["n"], 0), int(r["t_eps"]))
        assert len(calls) == sum(len(_read_ahead(T)) for T in longest.values())
        assert sorted(calls) == sorted(t for T in longest.values() for t in _read_ahead(T))


def test_fixed_pattern_bound_generates_no_round(tmp_path, monkeypatch):
    # what a fixed pattern guarantees is known when it is built: the round
    # bound reads it, and only the stack generates rounds: run's loop the
    # read-ahead block of its one round, verify exactly round 1
    cfg = {"n": 4, "d": 1, "algorithm": "midpoint", "pattern": {"family": "complete"},
           "epsilon": 1e-6, "seed": 1, "audits": {"safeness": True}}
    path = _write(tmp_path, cfg)
    calls = _count_graphs(monkeypatch)
    for command, generated in (("run", _read_ahead(1)), ("verify", [1])):
        calls.clear()
        assert main([command, "--config", path, "--out", str(tmp_path / "out")]) == 0
        assert calls == generated, command
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert (summary["rounds"], summary["bound_t"]) == (1, 20)


def test_equal_neighbor_alone_has_a_one_round_bound(tmp_path):
    # claimed_alpha is 1/n = 1 at n = 1: one nonsplit round contracts every
    # range by 1 - alpha = 0, so the bound is 1 round, not a division by zero
    cfg = {"n": 1, "d": 1, "algorithm": "equal-neighbor", "pattern": {"family": "complete"},
           "epsilon": 1e-3}
    path = _write(tmp_path, cfg)
    out = tmp_path / "out"
    assert main(["run", "--config", path, "--out", str(out)]) == 0
    assert json.loads((out / "summary.json").read_text())["bound_t"] == 1
    assert main(["verify", "--config", path, "--out", str(out)]) == 0
    sweep = _write(tmp_path, dict(cfg, sweep={"n": [1], "d": [1], "algorithm": ["equal-neighbor"],
                                              "seed": [1]}), "sweep.json")
    assert main(["sweep", "--config", sweep, "--out", str(tmp_path / "sweep")]) == 0
    rows = _read_rows(tmp_path / "sweep" / "sweep.csv")
    assert [(row["bound_t"], row["within_bound"]) for row in rows] == [("1", "yes")]


# Fuzzing the CLI's inputs: a config, trace, margins or summary file may hold
# anything, and every command must answer with exit 0, 2 or 3, never a
# traceback.

_FUZZ_BASES = [
    {"n": 4, "d": 2, "algorithm": "extreme-point",
     "pattern": {"family": "random-nonsplit", "seed": 2},
     "initial": {"kind": "explicit",
                 "positions": [[0.0, 1.0], [0.5, 0.25], [1.0, 0.0], [0.75, 0.5]]},
     "epsilon": 1e-3, "max_rounds": 50, "seed": 3, "tie_break": "random",
     "allow_unsafe_dim": False, "output": "unused",
     "audits": {"safeness": True, "matrices": True, "moreau": True}},
    {"n": 3, "d": 1, "algorithm": "midpoint", "pattern": {"family": "complete"},
     "epsilon": 1e-3, "max_rounds": 20, "audits": {"safeness": True},
     "sweep": {"n": [2, 3], "d": [1], "algorithm": ["midpoint", "centroid"], "seed": [0, 1]}},
    {"n": 3, "d": 1, "algorithm": "equal-neighbor", "epsilon": 1e-2, "max_rounds": 30,
     "pattern": {"family": "fixed",
                 "graph": {"n": 3, "edges": [[0, 1], [1, 2], [2, 0], [0, 0], [1, 1], [2, 2]]}},
     "initial": {"kind": "random-unit-box"}},
    {"n": 4, "d": 3, "algorithm": "centroid+amortized", "epsilon": 1e-2, "max_rounds": 40,
     "pattern": {"family": "bidirectional-intermittent", "seed": 1, "period": 2},
     "audits": {"safeness": True}},
]
# strings that pass some check, so that a mutation reaches the checks after it
_FUZZ_NAMES = sorted(cli._PATTERNS) + sorted(cli._CONFIG) + [
    "explicit", "random-unit-box", "index", "random", "midpoint", "centroid",
    "extreme-point+amortized:2", "equal-neighbor+amortized", "graph", "edges",
    "positions", "kind", "family", "period", "safeness", "matrices", "moreau"]
# integers stay small, but for two that no float or index holds: a larger n,
# d or max_rounds would make a run allocate or loop for real
_FUZZ_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 6) | st.sampled_from([2**63, 10**400])
    | st.floats() | st.text(max_size=6) | st.sampled_from(_FUZZ_NAMES),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6) | st.sampled_from(_FUZZ_NAMES), inner, max_size=3),
    max_leaves=6)


def _paths(obj, prefix=()):
    """The path of every value nested in obj, obj itself excluded."""
    items = (obj.items() if isinstance(obj, dict)
             else enumerate(obj) if isinstance(obj, list) else ())
    for key, value in items:
        yield prefix + (key,)
        yield from _paths(value, prefix + (key,))


@st.composite
def _mutated_configs(draw):
    cfg = json.loads(json.dumps(draw(st.sampled_from(_FUZZ_BASES))))
    path = draw(st.sampled_from(list(_paths(cfg))))
    parent = functools.reduce(lambda obj, key: obj[key], path[:-1], cfg)
    action = draw(st.sampled_from(["replace", "delete", "add"]))
    if action == "replace":
        parent[path[-1]] = draw(_FUZZ_JSON)
    elif action == "delete":
        del parent[path[-1]]
    elif isinstance(parent, list):
        parent.insert(path[-1], draw(_FUZZ_JSON))
    else:
        parent[draw(st.text(max_size=6) | st.sampled_from(_FUZZ_NAMES))] = draw(_FUZZ_JSON)
    return cfg


@settings(max_examples=150, deadline=None)
@given(cfg=_mutated_configs())
@example(cfg=dict(_FUZZ_BASES[2], pattern={"family": "fixed", "graph": {"n": 3, "edges": 5}}))
@example(cfg=dict(_FUZZ_BASES[0], epsilon=5e-324))
def test_any_config_mutation_exits_0_2_or_3(tmp_path_factory, cfg):
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    assert all(f"`{name}`" in readme for name in [*cli._CONFIG, *cli._PATTERNS])
    work = tmp_path_factory.mktemp("config")
    path = _write(work, cfg)
    for command in ("run", "sweep", "verify"):
        assert main([command, "--config", path, "--out", str(work / "out")]) in (0, 2, 3)


@pytest.fixture(scope="module")
def _small_run(tmp_path_factory):
    cfg = {"n": 3, "d": 2, "algorithm": "extreme-point+amortized",
           "pattern": {"family": "rotating-star"}, "epsilon": 1e-3, "seed": 1,
           "audits": {"safeness": True}}
    out = tmp_path_factory.mktemp("small_run")
    path = _write(out, cfg)
    assert main(["run", "--config", path, "--out", str(out)]) == 0
    assert main(["verify", "--config", path, "--out", str(out)]) == 0
    return out


_ARTIFACT_BYTES = b"0123456789-.,e\r\nnaif"


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(name=st.sampled_from(["trace.csv", "margins.csv", "summary.json"]),
       edits=st.lists(st.tuples(st.sampled_from(["substitute", "insert", "delete"]),
                                st.integers(0, 1 << 16), st.sampled_from(_ARTIFACT_BYTES)),
                      min_size=1, max_size=4))
# the margins row `1,0`: line 2 loses the comma before its value
@example(name="margins.csv", edits=[("delete", len("round,agent,alpha_hat\r\n1,0"), ord(","))])
def test_any_artifact_byte_mutation_exits_0_2_or_3(tmp_path_factory, _small_run, name, edits):
    work = tmp_path_factory.mktemp("artifacts")
    for f in _small_run.iterdir():
        (work / f.name).write_bytes(f.read_bytes())
    data = bytearray((work / name).read_bytes())
    for action, at, byte in edits:
        at %= len(data) + 1
        if action == "insert":
            data.insert(at, byte)
        elif at < len(data):
            data[at:at + 1] = [byte] if action == "substitute" else []
    (work / name).write_bytes(bytes(data))
    assert main(["verify", "--config", str(work / "config.json"), "--out", str(work)]) in (0, 2, 3)
    assert main(["plotdata", str(work / "trace.csv"), "--out", str(work / "plot")]) in (0, 2, 3)
