"""Batch front end: JSON scenario configs in, CSV/JSON artifacts out.

Exit codes: 0 success, 2 validation, IO, memory or centroid-geometry failure
(for verify and plotdata also a trace or margins row that is repeated, has a
negative or oversized index, or has another field count than the header), 3
audit violation (for verify also a round 0 that is not the configured start,
motion inside an amortized block, a trace whose round count differs from what
run's stopping rule gives, or a summary.json with a field other than audits
that differs from what run derives from the config and the trace).
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
    RoundGraphs,
    _is_int,
    adversarial_rotating_star,
    bidirectional_intermittent,
    fixed,
    graph_from_json,
    graph_to_json,
    random_nonsplit,
    random_rooted,
)
from .simulator import (
    RunSpec,
    delta_components,
    initial_positions,
    measure_run,
    read_margins_csv,
    read_trace_csv,
    run,
    run_batch,
    write_deltas_csv,
    write_margins_csv,
    write_trace_csv,
)
from .verification import (
    SafenessViolationError,
    audit_safeness,
    check_moreau_assumptions,
    in_hull,
    moreau_window,
    reconstruct_matrices,
)

_REQUIRED, _OPTIONAL = object(), object()  # defaults of keys that have none


def _require(cond, msg):
    if not cond:
        raise ValueError(msg)


# Value checks: each takes (value, where), raises a ValueError that names
# `where`, and returns the normalized value.


def _check(test, what):
    """The check that passes the values v with test(v)."""
    def check(v, where):
        if not test(v):  # the message is formatted only for a failing value
            raise ValueError(f"{where} must be {what}, got {v!r}")
        return v
    return check


def _then(first, second):
    """The check that passes `first`'s result through `second`."""
    return lambda v, where: second(first(v, where), where)


def _int(low):
    return _check(lambda v: _is_int(v) and v >= low, f"an integer >= {low}")


def _choice(*options):
    return _check(lambda v: isinstance(v, str) and v in options, f"one of {list(options)}")


_bool = _check(lambda v: isinstance(v, bool), "a boolean")
_str = _check(lambda v: isinstance(v, str), "a string")
# parse_kind raises on a malformed string
_algorithm = _check(lambda v: isinstance(v, str) and parse_kind(v), "an algorithm string")


def _number(v, where) -> float:
    """float(v) of a finite JSON number; booleans and integers beyond the
    float range are rejected."""
    _require(_is_int(v) or isinstance(v, float), f"{where} {v!r} is not a number")
    try:
        v = float(v)
    except OverflowError:
        raise ValueError(f"{where} is an integer too large for a float") from None
    _require(math.isfinite(v), f"{where} must be finite, got {v!r}")
    return v


def _axis(check):
    """Check of a nonempty list whose entries each pass `check`."""
    def axis(v, where):
        _require(isinstance(v, list) and v, f"{where} must be a nonempty list")
        return [check(x, f"{where} entry") for x in v]
    return axis


def _rows(v, where):
    _require(isinstance(v, list) and all(isinstance(row, list) for row in v),
             f"{where} must be a list of rows")
    return [[_number(x, "initial position") for x in row] for row in v]


def _section(obj, keys, where) -> dict:
    """`obj` checked against `keys`, a table of key -> (default, check):
    unknown keys are rejected, an absent key takes its default (is an error
    if that is _REQUIRED, stays absent if it is _OPTIONAL), and each value is
    replaced by what its check returns."""
    _require(isinstance(obj, dict), f"{where} must be an object")
    unknown = set(obj) - set(keys)
    _require(not unknown, f"unknown {where} keys: {sorted(unknown)}")
    out = {}
    for key, (default, check) in keys.items():
        value = obj.get(key, default)
        if value is _REQUIRED:
            raise ValueError(f"{where} is missing required key {key!r}")
        if value is not _OPTIONAL:
            out[key] = check(value, f"{where} {key}")
    return out


def _tagged(tag, kinds, what):
    """Check of an object whose `tag` names its kind: kinds maps each kind
    to (its other keys, its builder)."""
    def check(obj, where):
        _require(isinstance(obj, dict), f"{where} must be an object")
        kind = obj.get(tag)
        # a list or object here is unhashable: test the type before the lookup
        _require(isinstance(kind, str) and kind in kinds,
                 f"unknown {what} {tag} {kind!r}; expected one of {sorted(kinds)}")
        return _section(obj, {tag: (_REQUIRED, _str), **kinds[kind][0]},
                        f"{kind} {what}")
    return check


# initial kind -> (its keys besides kind, its RunSpec.initial)
_INITIAL = {
    "random-unit-box": ({}, lambda initial: None),
    "explicit": ({"positions": (_REQUIRED, _rows)},
                 lambda initial: np.asarray(initial["positions"], dtype=float)),
}
_SEED = (0, _int(0))
# pattern family -> (its keys besides family, its builder from (pattern, n))
_PATTERNS = {
    "fixed": ({"graph": (_REQUIRED, lambda v, where: graph_to_json(graph_from_json(v)))},
              lambda pat, n: fixed(graph_from_json(pat["graph"]))),
    "complete": ({}, lambda pat, n: fixed(np.ones((n, n), dtype=bool))),
    "self-loops": ({}, lambda pat, n: fixed(np.eye(n, dtype=bool))),
    "random-rooted": ({"seed": _SEED}, lambda pat, n: random_rooted(n, seed=pat["seed"])),
    "random-nonsplit": ({"seed": _SEED}, lambda pat, n: random_nonsplit(n, seed=pat["seed"])),
    "rotating-star": ({}, lambda pat, n: adversarial_rotating_star(n)),
    "bidirectional-intermittent": (
        {"seed": _SEED, "period": (_REQUIRED, _int(1))},
        lambda pat, n: bidirectional_intermittent(n, period=pat["period"], seed=pat["seed"])),
}
_AUDITS = {name: (False, _bool) for name in ("safeness", "matrices", "moreau")}


_CONFIG = {
    "n": (_REQUIRED, _int(1)),
    "d": (_REQUIRED, _int(1)),
    "algorithm": (_REQUIRED, _algorithm),
    "pattern": (_REQUIRED, _tagged("family", _PATTERNS, "pattern")),
    "epsilon": (_REQUIRED, _then(_number, _check(lambda v: v > 0, "positive"))),
    "max_rounds": (100_000, _int(1)),
    "seed": (0, _int(0)),
    "initial": ({"kind": "random-unit-box"}, _tagged("kind", _INITIAL, "initial")),
    "audits": ({}, lambda v, where: _section(v, _AUDITS, where)),
    "tie_break": ("index", _choice("index", "random")),
    "allow_unsafe_dim": (False, _bool),
    "sweep": (_OPTIONAL, _then(lambda v, where: _section(v, _SWEEP, where),
                               _check(bool, "an object with at least one axis"))),
    "output": (_OPTIONAL, _str),
}
# sweep axes: the scenario keys a sweep may list values of
_SWEEP = {key: (_OPTIONAL, _axis(_CONFIG[key][1])) for key in ("n", "d", "algorithm", "seed")}


def _check_shape(cfg: dict, where: str) -> None:
    """Reject explicit initial positions that are not cfg's n x d."""
    rows, n, d = cfg["initial"].get("positions"), cfg["n"], cfg["d"]
    _require(rows is None or (len(rows) == n and all(len(row) == d for row in rows)),
             f"{where}explicit initial positions must be {n}x{d}")


def load_config(path) -> dict:
    """Read, schema-check, and normalize a scenario config. The result is a
    fixpoint: loading a serialized normalized config gives it back unchanged."""
    with open(path) as fh:
        cfg = _section(json.load(fh), _CONFIG, "config")
    _check_shape(cfg, "")
    return cfg


def serialize_config(cfg: dict) -> str:
    return json.dumps(cfg, indent=2, sort_keys=True)


def _build_spec(cfg: dict, seed_override=None) -> RunSpec:
    kind = parse_kind(cfg["algorithm"])
    kind = replace(kind, tie_break=cfg["tie_break"], allow_unsafe_dim=cfg["allow_unsafe_dim"])
    initial, pattern = cfg["initial"], cfg["pattern"]
    return RunSpec(
        n=cfg["n"], d=cfg["d"], algorithm=kind,
        pattern=_PATTERNS[pattern["family"]][1](pattern, cfg["n"]),
        epsilon=cfg["epsilon"], initial=_INITIAL[initial["kind"]][1](initial),
        max_rounds=cfg["max_rounds"],
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


def _run_audits(positions: np.ndarray, spec: RunSpec, audits: dict,
                stack: RoundGraphs) -> (dict, int):
    """Audits of the (T+1, n, d) `positions` of `spec`'s run over the first T
    rounds of `stack`, its pattern's round graphs; returns (summary fragment,
    exit code). Matrix audits need a per-round rule (`_check_audits_apply`)."""
    out = {}
    code = 0
    period = effective_period(spec.algorithm, spec.n)
    alpha = claimed_alpha(spec.algorithm, spec.n, spec.d)
    rounds = len(positions) - 1
    safeness = audits["safeness"] and rounds >= period
    matrices = audits["matrices"] or audits["moreau"]
    graphs = stack.first(rounds)
    if audits["safeness"]:
        if not safeness:
            out["safeness"] = {"skipped": f"trace has {rounds} rounds, shorter than one period-{period} block"}
        else:
            report = audit_safeness(positions, graphs, alpha, period=period)
            out["safeness"] = report.to_json()
            if report.violations:
                code = 3
    if matrices and rounds == 0:
        # a start in exact consensus has no transition to reconstruct
        for name in ("matrices", "moreau"):
            if audits[name]:
                out[name] = {"skipped": "trace has 0 rounds, no transition to reconstruct"}
    elif matrices:
        try:
            report = check_moreau_assumptions(reconstruct_matrices(positions, graphs, alpha),
                                              graphs, alpha, moreau_window(spec.pattern))
        except SafenessViolationError as e:
            if audits["matrices"]:
                out["matrices"] = {"ok": False, "error": str(e)}
            if audits["moreau"]:
                out["moreau"] = {"skipped": "matrix reconstruction failed"}
            return out, 3
        if audits["matrices"]:
            out["matrices"] = {"ok": True, "rounds": rounds, "alpha": alpha}
        if audits["moreau"]:
            out["moreau"] = report.to_json()
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
    # the engine and the audits read the same round graphs
    graphs = RoundGraphs(spec.pattern)
    trace = run(spec, graphs)
    write_trace_csv(trace, out / "trace.csv")
    write_deltas_csv(trace, out / "deltas.csv")
    write_margins_csv(trace, graphs, out / "margins.csv")
    summary = _summary(spec, trace.deltas, trace.metrics)
    audit_blob, code = _run_audits(trace.positions, spec, cfg["audits"], graphs)
    if audit_blob:
        summary["audits"] = audit_blob
    (out / "summary.json").write_text(serialize_config(summary) + "\n")
    print(f"run: {'converged' if trace.metrics.converged else 'did not converge'}"
          f" after {len(trace.positions) - 1} rounds -> {out}")
    return code


def _sweep_row(idx, cfg, trace, graphs) -> dict:
    spec, m = trace.spec, trace.metrics
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
        report = _run_audits(trace.positions, spec, audits, graphs)[0]["safeness"]
        worst = report.get("worst_alpha")
        row["worst_alpha"] = "" if worst is None else repr(worst)
    return row


def cmd_sweep(args) -> int:
    cfg = load_config(args.config)
    _require("sweep" in cfg, "config has no sweep section")
    base = {key: value for key, value in cfg.items() if key != "sweep"}
    axes = [cfg["sweep"].get(key, [cfg[key]]) for key in _SWEEP]
    # scenarios of one pattern and n run on the same round graphs, so they
    # share one stack (one per call: a later call generates its own); those
    # that also share the rule differ only in d and seed, and run as one batch
    stacks, batches = {}, {}
    for idx, values in enumerate(itertools.product(*axes)):
        sub = {**base, **dict(zip(_SWEEP, values))}
        _check_shape(sub, f"scenario {idx}: ")
        spec = _build_spec(sub)
        key = (json.dumps(sub["pattern"], sort_keys=True), spec.n)
        stack = stacks.setdefault(key, RoundGraphs(spec.pattern))
        batches.setdefault(key + (sub["algorithm"],), (stack, []))[1].append((idx, spec))
    out = _outdir(args, cfg)
    rows, failed = {}, None  # failed: (index, error) of the first failing scenario
    # batches in order of their first scenario: one whose first scenario
    # comes after a failure cannot hold an earlier one
    for stack, members in batches.values():
        if failed is not None and members[0][0] > failed[0]:
            break
        for (idx, _), outcome in zip(members, run_batch([s for _, s in members], stack)):
            if isinstance(outcome, ValueError):
                if failed is None or idx < failed[0]:
                    failed = (idx, outcome)
            elif failed is None:
                rows[idx] = _sweep_row(idx, cfg, outcome, stack)
    if failed is not None:
        raise ValueError(f"scenario {failed[0]}: {failed[1]}")
    cols = ["scenario", "n", "d", "algorithm", "seed", "t_eps", "bound_t",
            "worst_alpha", "empirical_rate", "converged", "within_bound"]
    with open(out / "sweep.csv", "w", newline="") as fh:
        w = csv.DictWriter(fh, fieldnames=cols)
        w.writeheader()
        w.writerows(rows[idx] for idx in sorted(rows))
    print(f"sweep: {len(rows)} scenarios -> {out / 'sweep.csv'}")
    return 0


def cmd_counterexample(args) -> int:
    mid = np.full(3, 0.5)  # component-wise midpoint of the three unit vectors
    inside = in_hull(np.eye(3), mid)
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
        if not in_hull(pts, center):
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
        for t, margins in enumerate(read_margins_csv(margins_path).tolist(), start=1):
            live = [v for v in margins if not math.isnan(v)]
            if live:
                rows.append((t, "alpha_hat", repr(min(live))))
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
        block = min(period, len(positions))  # same starts; np.arange overflows past int64
        start = positions[np.arange(len(positions)) // block * block]
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
    blob, code = _run_audits(positions, spec, audits, RoundGraphs(spec.pattern))
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
    except (ValueError, OSError, KeyError, MemoryError, geometry.GeometryError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
