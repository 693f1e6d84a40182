"""Batch front end: JSON scenario configs in, CSV/JSON artifacts out.

Exit codes: 0 success, 2 validation or IO failure (for verify and plotdata
also a trace row that is repeated, has a negative index, or has another field
count than the header), 3 audit violation (for verify also a round 0 that is
not the configured start, motion inside an amortized block, a trace whose
round count differs from what run's stopping rule gives, or a summary.json
with a field other than audits that differs from what run derives from the
config and the trace).
Everything is deterministic for a fixed config; repeated runs produce
byte-identical files.
"""

import argparse
import csv
import functools
import itertools
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import geometry
from .algorithms import claimed_alpha, effective_period, format_kind, parse_kind
from .graphs import (
    adversarial_rotating_star,
    bidirectional_intermittent,
    complete_graph,
    fixed,
    graph_from_json,
    graph_to_json,
    random_nonsplit,
    random_rooted,
    self_loops_only,
)
from .simulator import (
    RunSpec,
    delta_components,
    initial_positions,
    measure_run,
    read_trace_csv,
    run,
    write_deltas_csv,
    write_margins_csv,
    write_trace_csv,
)
from .verification import (
    SafenessViolationError,
    audit_safeness,
    check_moreau_assumptions,
    moreau_window,
    reconstruct_matrices,
    round_graphs,
)

_TOP_KEYS = {"n", "d", "algorithm", "pattern", "initial", "epsilon", "max_rounds",
             "seed", "audits", "tie_break", "frame_reduction", "allow_unsafe_dim",
             "sweep", "output"}
_PATTERN_KEYS = {
    "fixed": {"graph"},
    "complete": set(),
    "self-loops": set(),
    "random-rooted": {"seed"},
    "random-nonsplit": {"seed"},
    "rotating-star": set(),
    "bidirectional-intermittent": {"seed", "period"},
}
_AUDIT_KEYS = {"safeness", "matrices", "moreau"}
_SWEEP_KEYS = ("n", "d", "algorithm", "seed")


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _require(cond, msg):
    if not cond:
        raise ValueError(msg)


def load_config(path) -> dict:
    """Read, schema-check, and normalize a scenario config. The result is a
    fixpoint: loading a serialized normalized config gives it back unchanged."""
    with open(path) as fh:
        raw = json.load(fh)
    _require(isinstance(raw, dict), "config must be a JSON object")
    unknown = set(raw) - _TOP_KEYS
    _require(not unknown, f"unknown config keys: {sorted(unknown)}")
    for key in ("n", "d", "algorithm", "pattern", "epsilon"):
        _require(key in raw, f"config is missing required key {key!r}")

    cfg = {}
    _require(_is_int(raw["n"]) and raw["n"] >= 1, f"n must be a positive integer, got {raw['n']!r}")
    _require(_is_int(raw["d"]) and raw["d"] >= 1, f"d must be a positive integer, got {raw['d']!r}")
    cfg["n"], cfg["d"] = raw["n"], raw["d"]
    _require(isinstance(raw["algorithm"], str), "algorithm must be a string")
    parse_kind(raw["algorithm"])  # fail fast on malformed strings
    cfg["algorithm"] = raw["algorithm"]
    cfg["pattern"] = _check_pattern(raw["pattern"])
    eps = raw["epsilon"]
    _require(isinstance(eps, (int, float)) and not isinstance(eps, bool)
             and eps > 0 and math.isfinite(eps), f"epsilon must be positive and finite, got {eps!r}")
    cfg["epsilon"] = float(eps)

    mr = raw.get("max_rounds", 100_000)
    _require(_is_int(mr) and mr >= 1, f"max_rounds must be a positive integer, got {mr!r}")
    cfg["max_rounds"] = mr
    seed = raw.get("seed", 0)
    _require(_is_int(seed) and seed >= 0, f"seed must be a nonnegative integer, got {seed!r}")
    cfg["seed"] = seed
    cfg["initial"] = _check_initial(raw.get("initial", {"kind": "random-unit-box"}),
                                    cfg["n"], cfg["d"])
    cfg["audits"] = _check_audits(raw.get("audits", {}))
    tie = raw.get("tie_break", "index")
    _require(tie in ("index", "random"), f"tie_break must be 'index' or 'random', got {tie!r}")
    cfg["tie_break"] = tie
    # frame_reduction is a legacy key: still checked so that old configs load,
    # then dropped, because no output depends on it
    for key in ("frame_reduction", "allow_unsafe_dim"):
        val = raw.get(key, False)
        _require(isinstance(val, bool), f"{key} must be a boolean, got {val!r}")
    cfg["allow_unsafe_dim"] = raw.get("allow_unsafe_dim", False)
    if "output" in raw:
        _require(isinstance(raw["output"], str), "output must be a directory path string")
        cfg["output"] = raw["output"]
    if "sweep" in raw:
        cfg["sweep"] = _check_sweep(raw["sweep"])
    return cfg


def serialize_config(cfg: dict) -> str:
    return json.dumps(cfg, indent=2, sort_keys=True)


def _check_pattern(obj) -> dict:
    _require(isinstance(obj, dict), "pattern must be an object")
    family = obj.get("family")
    _require(family in _PATTERN_KEYS,
             f"unknown pattern family {family!r}; expected one of {sorted(_PATTERN_KEYS)}")
    allowed = {"family"} | _PATTERN_KEYS[family]
    unknown = set(obj) - allowed
    _require(not unknown, f"unknown pattern keys for family {family!r}: {sorted(unknown)}")
    out = {"family": family}
    if "seed" in _PATTERN_KEYS[family]:
        seed = obj.get("seed", 0)
        _require(_is_int(seed) and seed >= 0, f"pattern seed must be a nonnegative integer, got {seed!r}")
        out["seed"] = seed
    if family == "bidirectional-intermittent":
        _require("period" in obj, "bidirectional-intermittent pattern needs a period")
        period = obj["period"]
        _require(_is_int(period) and period >= 1, f"pattern period must be >= 1, got {period!r}")
        out["period"] = period
    if family == "fixed":
        _require("graph" in obj, "fixed pattern needs a graph literal")
        g = graph_from_json(obj["graph"])
        out["graph"] = graph_to_json(g)
    return out


def _check_initial(obj, n, d) -> dict:
    _require(isinstance(obj, dict), "initial must be an object")
    kind = obj.get("kind")
    if kind == "random-unit-box":
        _require(set(obj) == {"kind"}, "random-unit-box initial takes no other keys")
        return {"kind": "random-unit-box"}
    if kind == "explicit":
        _require(set(obj) == {"kind", "positions"}, "explicit initial needs exactly 'positions'")
        pos = np.asarray(obj["positions"], dtype=float)
        _require(pos.shape == (n, d), f"initial positions must be {n}x{d}, got {pos.shape}")
        _require(bool(np.isfinite(pos).all()), "initial positions must be finite")
        return {"kind": "explicit", "positions": [[float(v) for v in row] for row in pos]}
    raise ValueError(f"unknown initial kind {kind!r}; expected 'random-unit-box' or 'explicit'")


def _check_audits(obj) -> dict:
    _require(isinstance(obj, dict), "audits must be an object")
    unknown = set(obj) - _AUDIT_KEYS
    _require(not unknown, f"unknown audit keys: {sorted(unknown)}")
    out = {}
    for key in sorted(_AUDIT_KEYS):
        val = obj.get(key, False)
        _require(isinstance(val, bool), f"audit toggle {key!r} must be a boolean")
        out[key] = val
    return out


def _check_sweep(obj) -> dict:
    _require(isinstance(obj, dict), "sweep must be an object")
    unknown = set(obj) - set(_SWEEP_KEYS)
    _require(not unknown, f"unknown sweep axes: {sorted(unknown)}")
    out = {}
    for key in _SWEEP_KEYS:
        if key not in obj:
            continue
        vals = obj[key]
        _require(isinstance(vals, list) and vals, f"sweep axis {key!r} must be a nonempty list")
        if key == "algorithm":
            for v in vals:
                _require(isinstance(v, str), "algorithm axis entries must be strings")
                parse_kind(v)
        else:
            for v in vals:
                _require(_is_int(v) and v >= (1 if key in ("n", "d") else 0),
                         f"sweep axis {key!r} entry {v!r} is out of range")
        out[key] = list(vals)
    _require(out, "sweep section defines no axes")
    return out


def _build_pattern(pat: dict, n: int):
    family = pat["family"]
    if family == "fixed":
        return fixed(graph_from_json(pat["graph"]))
    if family == "complete":
        return fixed(complete_graph(n))
    if family == "self-loops":
        return fixed(self_loops_only(n))
    if family == "random-rooted":
        return random_rooted(n, seed=pat["seed"])
    if family == "random-nonsplit":
        return random_nonsplit(n, seed=pat["seed"])
    if family == "rotating-star":
        return adversarial_rotating_star(n)
    if family == "bidirectional-intermittent":
        return bidirectional_intermittent(n, period=pat["period"], seed=pat["seed"])
    raise ValueError(f"unknown pattern family {family!r}")


def _build_spec(cfg: dict, seed_override=None) -> RunSpec:
    kind = parse_kind(cfg["algorithm"])
    kind = replace(kind, tie_break=cfg["tie_break"], allow_unsafe_dim=cfg["allow_unsafe_dim"])
    initial = None
    if cfg["initial"]["kind"] == "explicit":
        initial = np.asarray(cfg["initial"]["positions"], dtype=float)
    return RunSpec(
        n=cfg["n"], d=cfg["d"], algorithm=kind,
        pattern=_build_pattern(cfg["pattern"], cfg["n"]),
        epsilon=cfg["epsilon"], initial=initial, max_rounds=cfg["max_rounds"],
        seed=cfg["seed"] if seed_override is None else seed_override,
    )


# ---------------------------------------------------------------------------
# audits shared by run and verify


def _check_audits_apply(spec: RunSpec, audits: dict) -> None:
    """Reject, before any work, matrix audits of a rule that holds positions
    still inside its blocks."""
    _require(not (audits["matrices"] or audits["moreau"])
             or effective_period(spec.algorithm, spec.n) == 1,
             "matrix reconstruction audits apply to per-round runs only;"
             " amortized rules hold positions still during gathering rounds")


def _run_audits(positions: np.ndarray, spec: RunSpec, audits: dict) -> (dict, int):
    """Audits of the (T+1, n, d) `positions` of `spec`'s run over its T round
    graphs; returns (summary fragment, exit code). Matrix audits need a
    per-round rule (`_check_audits_apply`)."""
    out = {}
    code = 0
    period = effective_period(spec.algorithm, spec.n)
    alpha = claimed_alpha(spec.algorithm, spec.n, spec.d)
    rounds = len(positions) - 1
    safeness = audits["safeness"] and rounds >= period
    matrices = audits["matrices"] or audits["moreau"]
    graphs = None
    if safeness or matrices:
        # one adjacency stack of the run's round graphs serves every audit below
        graphs = round_graphs(spec.pattern, rounds)
    if audits["safeness"]:
        if not safeness:
            out["safeness"] = {"skipped": f"trace has {rounds} rounds, shorter than one period-{period} block"}
        else:
            report = audit_safeness(positions, graphs, alpha, period=period)
            out["safeness"] = report.to_json()
            if report.violations:
                code = 3
    if matrices:
        try:
            seq = reconstruct_matrices(positions, graphs, alpha)
        except SafenessViolationError as e:
            if audits["matrices"]:
                out["matrices"] = {"ok": False, "error": str(e)}
            if audits["moreau"]:
                out["moreau"] = {"skipped": "matrix reconstruction failed"}
            return out, 3
        if audits["matrices"]:
            out["matrices"] = {"ok": True, "rounds": int(seq.matrices.shape[0]),
                               "alpha": alpha}
        if audits["moreau"]:
            out["moreau"] = check_moreau_assumptions(seq, graphs,
                                                     moreau_window(spec.pattern)).to_json()
    return out, code


def _summary(spec: RunSpec, deltas: np.ndarray, metrics) -> dict:
    """The summary.json fields other than audits, from the spec, the run's
    (T+1, d) range history and its metrics."""
    return {
        "n": spec.n, "d": spec.d,
        "algorithm": format_kind(spec.algorithm),
        "pattern": spec.pattern.name,
        "epsilon": spec.epsilon,
        "seed": spec.seed,
        "max_rounds": spec.max_rounds,
        "rounds": len(deltas) - 1,
        "t_eps": metrics.t_eps,
        "converged": metrics.converged,
        "empirical_rate": metrics.empirical_rate,
        "bound_t": metrics.bound_t,
        "delta0": [float(v) for v in deltas[0]],
        "delta_final": [float(v) for v in deltas[-1]],
    }


def _outdir(args, cfg) -> Path:
    out = Path(args.out or cfg.get("output") or ".")
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_run(args) -> int:
    cfg = load_config(args.config)
    _require("sweep" not in cfg, "config defines sweep axes; use the sweep subcommand")
    spec = _build_spec(cfg, seed_override=args.seed)
    _check_audits_apply(spec, cfg["audits"])
    out = _outdir(args, cfg)
    trace = run(spec)
    write_trace_csv(trace, out / "trace.csv")
    write_deltas_csv(trace, out / "deltas.csv")
    write_margins_csv(trace, out / "margins.csv")
    summary = _summary(spec, trace.deltas, trace.metrics)
    audit_blob, code = _run_audits(trace.positions, spec, cfg["audits"])
    if audit_blob:
        summary["audits"] = audit_blob
    (out / "summary.json").write_text(serialize_config(summary) + "\n")
    print(f"run: {'converged' if trace.metrics.converged else 'did not converge'}"
          f" after {len(trace.positions) - 1} rounds -> {out}")
    return code


def _sweep_row(idx, cfg, spec) -> dict:
    trace = run(spec)
    m = trace.metrics
    row = {
        "scenario": idx,
        "n": spec.n, "d": spec.d,
        "algorithm": format_kind(spec.algorithm),
        "seed": spec.seed,
        "t_eps": "" if m.t_eps is None else m.t_eps,
        "bound_t": "" if m.bound_t is None else m.bound_t,
        "worst_alpha": "",
        "empirical_rate": repr(float(m.empirical_rate)),
        "converged": "yes" if m.converged else "no",
        "within_bound": "",
    }
    if m.bound_t is not None and m.t_eps is not None:
        row["within_bound"] = "yes" if m.t_eps <= m.bound_t else "no"
    elif m.bound_t is not None:
        row["within_bound"] = "no"
    if cfg["audits"]["safeness"]:
        audits = {"safeness": True, "matrices": False, "moreau": False}
        worst = _run_audits(trace.positions, spec, audits)[0]["safeness"].get("worst_alpha")
        row["worst_alpha"] = "" if worst is None else repr(worst)
    return row


def cmd_sweep(args) -> int:
    cfg = load_config(args.config)
    _require("sweep" in cfg, "config has no sweep section")
    sweep = cfg["sweep"]
    axes = [sweep.get("n", [cfg["n"]]), sweep.get("d", [cfg["d"]]),
            sweep.get("algorithm", [cfg["algorithm"]]), sweep.get("seed", [cfg["seed"]])]
    scenarios = []
    for idx, (n, d, alg, seed) in enumerate(itertools.product(*axes)):
        sub = dict(cfg)
        sub.pop("sweep")
        sub.update(n=n, d=d, algorithm=alg, seed=seed)
        if sub["initial"]["kind"] == "explicit":
            pos = np.asarray(sub["initial"]["positions"], dtype=float)
            _require(pos.shape == (n, d),
                     f"scenario {idx}: explicit initial is {pos.shape}, scenario needs {(n, d)}")
        scenarios.append((idx, sub, _build_spec(sub, seed_override=None)))
    out = _outdir(args, cfg)
    rows = [_sweep_row(*s) for s in scenarios]
    cols = ["scenario", "n", "d", "algorithm", "seed", "t_eps", "bound_t",
            "worst_alpha", "empirical_rate", "converged", "within_bound"]
    with open(out / "sweep.csv", "w", newline="") as fh:
        w = csv.DictWriter(fh, fieldnames=cols)
        w.writeheader()
        w.writerows(rows)
    print(f"sweep: {len(rows)} scenarios -> {out / 'sweep.csv'}")
    return 0


def cmd_counterexample(args) -> int:
    hull3 = geometry.convex_hull(np.eye(3))
    mid = np.full(3, 0.5)  # component-wise midpoint of the three unit vectors
    inside = geometry.contains(hull3, mid)
    print("R^3 component-wise midpoint of the unit simplex vertices: [0.5, 0.5, 0.5]")
    print(f"outside hull: {'true' if not inside else 'false'}")

    lo, hi = 0.0, 1.0
    print(f"d=1 midpoint {0.5 * (lo + hi)} inside [{lo}, {hi}]: true")

    failures = 0
    seeds = 100
    for s in range(seeds):
        rng = np.random.default_rng((args.seed or 0, s))
        pts = rng.uniform(0.0, 1.0, (int(rng.integers(3, 9)), 2))
        center = 0.5 * (pts.min(axis=0) + pts.max(axis=0))
        if not geometry.contains(geometry.convex_hull(pts), center):
            failures += 1
    print(f"all inside: {'true' if failures == 0 else 'false'}"
          f" ({seeds} random planar sets, box centers)")
    return 0 if not inside and failures == 0 else 2


def cmd_plotdata(args) -> int:
    deltas = delta_components(read_trace_csv(args.trace))
    rows = []
    for t in range(len(deltas)):
        for k in range(deltas.shape[1]):
            v = float(deltas[t, k])
            rows.append((t, f"delta_{k}", repr(v)))
            if v > 0.0:
                rows.append((t, f"log10_delta_{k}", repr(math.log10(v))))
    margins_path = Path(args.trace).parent / "margins.csv"
    if margins_path.exists():
        per_round = {}
        with open(margins_path, newline="") as fh:
            for rec in csv.DictReader(fh):
                v = float(rec["alpha_hat"])
                if math.isnan(v):
                    continue
                t = int(rec["round"])
                per_round[t] = min(per_round.get(t, math.inf), v)
        for t in sorted(per_round):
            rows.append((t, "alpha_hat", repr(per_round[t])))
    out = Path(args.out or ".")
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "plotdata.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["round", "series", "value"])
        w.writerows(rows)
    print(f"plotdata: {len(rows)} points -> {out / 'plotdata.csv'}")
    return 0


def _check_summary(stored, expected: dict) -> int:
    """Exit code of comparing summary.json with the fields run derives from
    the config and the trace, every one but audits; names the first that
    differs on stderr."""
    _require(isinstance(stored, dict), "summary.json must be a JSON object")
    for field, value in expected.items():
        # compared as JSON text, so that 1 does not pass for true or 1.0
        if field not in stored or json.dumps(stored[field]) != json.dumps(value):
            print(f"verify: summary.json gives {field} = {json.dumps(stored.get(field))},"
                  f" the trace gives {json.dumps(value)}", file=sys.stderr)
            return 3
    return 0


def cmd_verify(args) -> int:
    cfg = load_config(args.config)
    spec = _build_spec(cfg, seed_override=args.seed)
    _check_audits_apply(spec, cfg["audits"])
    out = Path(args.out or cfg.get("output") or ".")
    positions = read_trace_csv(out / "trace.csv")
    n, d = positions.shape[1], positions.shape[2]
    _require((n, d) == (spec.n, spec.d),
             f"stored trace is for n={n}, d={d}; config says n={spec.n}, d={spec.d}")
    # Without this a trace that never moves satisfies every margin vacuously.
    initial = initial_positions(spec)
    differ = (positions[0].view(np.uint64) != initial.view(np.uint64)).any(axis=1)
    if differ.any():
        p = int(np.argmax(differ))
        print(f"verify: round 0 of the trace is not the configured initial configuration:"
              f" agent {p} is at {positions[0, p].tolist()}, the config gives"
              f" {initial[p].tolist()}", file=sys.stderr)
        return 3
    # An amortized rule only gathers inside a block: every round must repeat
    # the block start bit for bit, the trailing partial block included.
    period = effective_period(spec.algorithm, spec.n)
    if period > 1:
        start = positions[np.arange(len(positions)) // period * period]
        moved = (positions.view(np.uint64) != start.view(np.uint64)).any(axis=2)
        if moved.any():
            t, p = (int(i) for i in np.argwhere(moved)[0])
            print(f"verify: agent {p} moves inside an amortized block: it is at"
                  f" {positions[t, p].tolist()} in round {t}, at {start[t, p].tolist()}"
                  f" in round {t - t % period}, where the period-{period} block starts",
                  file=sys.stderr)
            return 3
    deltas = delta_components(positions)
    # A trace cut short (or run on) passes every margin, so its length must
    # be the one run's stopping rule gives.
    metrics = measure_run(spec, deltas)
    t_eps = metrics.t_eps
    expected = spec.max_rounds if t_eps is None else t_eps
    if len(deltas) - 1 != expected:
        why = ("exact consensus at round 0" if t_eps == 0
               else "the first round within epsilon" if t_eps is not None
               else "max_rounds; no round of the trace is within epsilon")
        print(f"verify: the trace has {len(deltas) - 1} rounds, run's stopping rule gives"
              f" {expected} ({why})", file=sys.stderr)
        return 3
    audits = dict(cfg["audits"])
    audits["safeness"] = True  # verify always re-checks safety
    blob, code = _run_audits(positions, spec, audits)
    for name in ("safeness", "matrices", "moreau"):
        if name in blob:
            state = blob[name]
            if "skipped" in state:
                print(f"{name}: skipped ({state['skipped']})")
            elif state.get("passed") or state.get("ok") or state.get("holds"):
                print(f"{name}: ok")
            else:
                print(f"{name}: FAILED {json.dumps(state)[:200]}")
    summary = out / "summary.json"
    if summary.exists():
        code = max(code, _check_summary(json.loads(summary.read_text()),
                                        _summary(spec, deltas, metrics)))
    return code


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call of main and then reused:
    parse_args keeps no state between calls."""
    parser = argparse.ArgumentParser(
        prog="consensus-dyn",
        description="simulate and verify averaging-based consensus over dynamic digraphs")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute one scenario and write its artifacts")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out", default=None, help="output directory (default: config's, else cwd)")
    p_run.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="run the cartesian product of the sweep axes")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--out", default=None)
    p_sweep.set_defaults(func=cmd_sweep)

    p_ce = sub.add_parser("counterexample",
                          help="show the R^3 box-center escape and the planar positive check")
    p_ce.add_argument("--seed", type=int, default=0)
    p_ce.set_defaults(func=cmd_counterexample)

    p_plot = sub.add_parser("plotdata", help="emit long-format (round, series, value) CSV")
    p_plot.add_argument("trace", help="path to a trace.csv written by run")
    p_plot.add_argument("--out", default=None)
    p_plot.set_defaults(func=cmd_plotdata)

    p_verify = sub.add_parser("verify", help="re-run audits against a stored trace")
    p_verify.add_argument("--config", required=True)
    p_verify.add_argument("--out", default=None, help="directory holding trace.csv")
    p_verify.add_argument("--seed", type=int, default=None)
    p_verify.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except SafenessViolationError as e:
        print(f"audit violation: {e}", file=sys.stderr)
        return 3
    except (ValueError, OSError, KeyError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
