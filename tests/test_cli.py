import csv
import json
import logging
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import consensus_dyn
from consensus_dyn.cli import load_config, main, serialize_config
from consensus_dyn.graphs import CommPattern


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


def test_audits_read_only_the_runs_round_graphs(tmp_path, monkeypatch):
    # a window of 5000 rounds on an 18-round run: every audit reads the run's
    # own 18 round graphs, and A4, which has no whole window to read, fails
    cfg = {"n": 6, "d": 2, "algorithm": "extreme-point", "epsilon": 1e-12, "max_rounds": 18,
           "pattern": {"family": "bidirectional-intermittent", "period": 5000, "seed": 3},
           "audits": ALL_AUDITS}
    path, out = _write(tmp_path, cfg), str(tmp_path / "out")
    calls = []
    graph = CommPattern.graph
    monkeypatch.setattr(CommPattern, "graph", lambda self, t: calls.append(t) or graph(self, t))
    assert main(["run", "--config", path, "--out", out]) == 0
    assert len(calls) == 2 * 18
    summary = json.loads((Path(out) / "summary.json").read_text())
    assert summary["rounds"] == 18
    moreau = summary["audits"]["moreau"]
    assert moreau["a4"] is False and moreau["holds"] is False
    assert moreau["a4_witness"] == "the run's 18 rounds hold no whole window of 5000 rounds"
    calls.clear()
    assert main(["verify", "--config", path, "--out", out]) == 0
    assert len(calls) == 18


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


def test_run_ignores_legacy_frame_reduction_key(tmp_path, capsys):
    # frame_reduction changes no output: it still loads, as long as it is a boolean
    base = {"n": 5, "d": 2, "algorithm": "centroid+amortized",
            "pattern": {"family": "random-rooted", "seed": 4}, "epsilon": 1e-6, "seed": 5}
    outs = []
    for i, extra in enumerate(({}, {"frame_reduction": False}, {"frame_reduction": True})):
        path = _write(tmp_path, dict(base, **extra), f"c{i}.json")
        assert "frame_reduction" not in load_config(path)
        out = tmp_path / f"out{i}"
        assert main(["run", "--config", path, "--out", str(out)]) == 0
        outs.append([(out / f).read_bytes()
                     for f in ("trace.csv", "deltas.csv", "margins.csv", "summary.json")])
    assert outs[0] == outs[1] == outs[2]
    path = _write(tmp_path, dict(base, frame_reduction="no"), "bad.json")
    capsys.readouterr()
    assert main(["run", "--config", path, "--out", str(tmp_path / "bad")]) == 2
    assert "frame_reduction must be a boolean" in capsys.readouterr().err


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
