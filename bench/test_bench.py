"""The benchmark's own checks must reject wrong artifacts, not only pass good ones.

Run from the repository root: python3 -m pytest bench -q
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from consensus_dyn import cli  # noqa: E402

import checker  # noqa: E402
import workloads  # noqa: E402

PER_ROUND = {"n": 5, "d": 2, "algorithm": "extreme-point",
             "pattern": {"family": "random-nonsplit", "seed": 3}, "epsilon": 1e-6, "seed": 4,
             "max_rounds": 5000}
AMORTIZED = dict(PER_ROUND, algorithm="extreme-point+amortized",
                 pattern={"family": "rotating-star"})


def _cli(*argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(list(argv))


def _run(tmp_path: Path, config: dict) -> Path:
    (tmp_path / "config.json").write_text(json.dumps(config))
    out = tmp_path / "out"
    assert _cli("run", "--config", str(tmp_path / "config.json"), "--out", str(out)) == 0
    return out


def _errors(config, out):
    return checker.check_scenario(config, out, checker.CheckStats()).errors


def _set_position(out: Path, config: dict, t: int, p: int, value) -> None:
    lines = (out / "trace.csv").read_bytes().decode().splitlines(keepends=True)
    row = 1 + t * config["n"] + p
    text = lines[row].rstrip("\r\n")
    cells = text.split(",")[:2] + [repr(float(v)) for v in value]
    lines[row] = ",".join(cells) + lines[row][len(text):]
    (out / "trace.csv").write_bytes("".join(lines).encode())


def _trace(out: Path, config: dict):
    return checker.read_trace(out / "trace.csv", config["n"], config["d"])


@pytest.mark.parametrize("config", [PER_ROUND, AMORTIZED], ids=["per-round", "amortized"])
def test_clean_run_passes(tmp_path, config):
    out = _run(tmp_path, config)
    assert _errors(config, out) == []


def test_moved_position_is_rejected(tmp_path):
    out = _run(tmp_path, PER_ROUND)
    pos = _trace(out, PER_ROUND)
    _set_position(out, PER_ROUND, 2, 1, pos[2, 1] + [1e-7, 0.0])
    errors = _errors(PER_ROUND, out)
    assert any("round 2, agent 1" in e and "is not the extreme-point update" in e for e in errors)


def test_wrong_t_eps_is_rejected(tmp_path):
    out = _run(tmp_path, PER_ROUND)
    summary = json.loads((out / "summary.json").read_text())
    summary["t_eps"] -= 1
    (out / "summary.json").write_text(json.dumps(summary))
    assert any("summary.json says t_eps" in e for e in _errors(PER_ROUND, out))


def test_wrong_t_eps_in_sweep_csv_is_rejected(tmp_path):
    out = _run(tmp_path, PER_ROUND)
    result = checker.check_scenario(PER_ROUND, out, checker.CheckStats())
    sweep = dict(PER_ROUND, sweep={"n": [5], "d": [2], "algorithm": ["extreme-point"],
                                   "seed": [4]})
    (tmp_path / "sweep.json").write_text(json.dumps(sweep))
    assert _cli("sweep", "--config", str(tmp_path / "sweep.json"), "--out", str(tmp_path)) == 0
    sweep_csv = tmp_path / "sweep.csv"
    assert checker.check_sweep_csv(sweep_csv, [PER_ROUND], {0: result}) == []
    result.t_eps += 1
    assert any("t_eps" in e for e in checker.check_sweep_csv(sweep_csv, [PER_ROUND], {0: result}))


def test_amortized_move_inside_a_block_is_rejected(tmp_path):
    out = _run(tmp_path, AMORTIZED)
    pos = _trace(out, AMORTIZED)
    period = AMORTIZED["n"] - 1
    # the block's own result, written one round early: only the in-block rule catches it
    _set_position(out, AMORTIZED, 1, 0, pos[period, 0])
    errors = _errors(AMORTIZED, out)
    assert any("round 1: positions move inside the block" in e for e in errors)


def test_forged_constant_trace_is_rejected(tmp_path):
    out = _run(tmp_path, PER_ROUND)
    pos = _trace(out, PER_ROUND)
    for t in range(len(pos)):
        for p in range(PER_ROUND["n"]):
            _set_position(out, PER_ROUND, t, p, [0.25, 0.75])
    assert any("round 0 is not the seeded" in e for e in _errors(PER_ROUND, out))


@pytest.mark.parametrize("config", [PER_ROUND, AMORTIZED], ids=["per-round", "amortized"])
def test_tamper_control_makes_verify_exit_3(tmp_path, config):
    out = _run(tmp_path, config)
    assert _cli("verify", "--config", str(tmp_path / "config.json"), "--out", str(out)) == 0
    tampered = tmp_path / "tampered"
    tampered.mkdir()
    t, p, k = checker.tamper_trace(out / "trace.csv", tampered / "trace.csv", config)
    assert t == checker.parse_algorithm(config["algorithm"], config["n"])[2]
    assert _cli("verify", "--config", str(tmp_path / "config.json"), "--out", str(tampered)) == 3
    (out / "trace.csv").write_bytes((tampered / "trace.csv").read_bytes())
    assert any(f"round {t}, agent {p}" in e for e in _errors(config, out))


def test_hull_centroid_matches_a_square_and_a_flat_set():
    square = checker.hull_centroid(
        np.array([[0.0, 0.0], [2.0, 0.0], [2.0, 2.0], [0.0, 2.0], [1.0, 1.5]]))
    assert square.rank == 2 and not square.ambiguous
    assert square.centroid.tolist() == pytest.approx([1.0, 1.0], abs=1e-15)
    segment = checker.hull_centroid(
        np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0], [0.25, 0.25, 0.25]]))
    assert segment.rank == 1
    assert segment.centroid.tolist() == pytest.approx([0.5, 0.5, 0.5], abs=1e-15)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workloads_keep_their_shape_across_seeds(name):
    """Only seeds change with the workload seed, so every run attempts the
    same calls and expects the same ones to fail."""
    a, b = workloads.make(name, 1), workloads.make(name, 2)
    assert workloads.make(name, 1) == a
    assert a != b
    for ca, cb in zip(a.configs, b.configs, strict=True):
        assert (ca.name, ca.expect_fail, ca.verify) == (cb.name, cb.expect_fail, cb.verify)
        for key in ("n", "d", "algorithm", "epsilon", "audits", "max_rounds"):
            assert ca.config["sweep"].get(key, ca.config[key]) == cb.config["sweep"].get(
                key, cb.config[key])
        assert len(ca.scenarios) == len(cb.scenarios)
        if ca.expect_fail:
            assert ca.config == cb.config


def test_benchmark_json_lists_what_run_py_reports():
    import run

    spec = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
