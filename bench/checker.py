"""Checks of the program's artifacts against computations made apart from it.

Nothing here calls the program's update rules, geometry, simulator or
verification code. The round graphs come from the pattern constructors in
`consensus_dyn.graphs`, because they are the scenario's input. Everything
computed from them is this file's own numpy code, with Delaunay
triangulations from scipy for hull centroids.

Every tolerance is written as `ulps * eps * scale + rel * extent`: `scale`
is the largest coordinate magnitude involved, so the first term is rounding
in the coordinates themselves; `extent` is the size of the point set, so the
second term is error relative to the geometry. The README gives the reason
for each value.
"""

import csv
import itertools
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np
from scipy.optimize import nnls
from scipy.spatial import Delaunay, QhullError

EPS = float(np.finfo(float).eps)

# Non-centroid updates repeat the program's arithmetic in the same order.
POSITION_ULPS = 4
# Realized margins against the rule's constant: rounding of the update only.
MARGIN_ULPS = 8
# Centroid against an independent triangulation of the same hull.
CENTROID_ULPS = 64
CENTROID_REL = 1e-9
# Documented rank cut of the hull code: singular values at or below
# max(1e-9 * largest, 64 * eps * max|coordinate|) are rounding, not shape.
RANK_REL = 1e-9
RANK_FLOOR_ULPS = 64
DUP_REL = 1e-9
# A singular value within this factor of the cut makes the rank ambiguous;
# there the centroid is checked by its properties instead of its value.
RANK_AMBIGUITY = 1e3
# Centroid inside the hull of a set the rank cut flattened: the flattened
# direction is thinner than RANK_REL of the largest singular value.
INSIDE_REL = 1e-8
INSIDE_ULPS = 64
# Round bounds: a ratio that is an exact power of the base can evaluate a
# hair above an integer.
BOUND_GUARD = 1e-9


@dataclass
class CheckStats:
    """Counts of what the checks covered, for the benchmark's report."""

    updates: int = 0
    centroids_exact: int = 0
    centroids_property: int = 0
    centroids_flattened: int = 0
    centroid_worst_ulps: float = 0.0

    def to_json(self) -> dict:
        return dict(self.__dict__)


# ---------------------------------------------------------------------------
# reading artifacts


def read_trace(path: Path, n: int, d: int) -> np.ndarray:
    """Positions (T+1, n, d) from trace.csv; rows must be complete and in order."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header = ["round", "agent"] + [f"comp_{k}" for k in range(d)]
    if not rows or rows[0] != header:
        raise ValueError(f"{path}: header {rows[0] if rows else None} is not {header}")
    body = rows[1:]
    if not body or len(body) % n:
        raise ValueError(f"{path}: {len(body)} rows is not a whole number of rounds of {n} agents")
    rounds = len(body) // n
    for i, row in enumerate(body):
        if len(row) != d + 2 or (int(row[0]), int(row[1])) != divmod(i, n):
            raise ValueError(f"{path}: row {i + 1} is {row[:2]}, expected {list(divmod(i, n))}")
    values = np.array([[float(v) for v in row[2:]] for row in body])
    if not np.isfinite(values).all():
        raise ValueError(f"{path}: non-finite position")
    return values.reshape(rounds, n, d)


def parse_algorithm(text: str, n: int) -> Tuple[str, bool, int]:
    """(tag, amortized, period) of a `tag[+amortized[:period]]` string."""
    tag, _, suffix = text.partition("+")
    if not suffix:
        return tag, False, 1
    if suffix == "amortized":
        return tag, True, max(1, n - 1)
    return tag, True, int(suffix.split(":", 1)[1])


# ---------------------------------------------------------------------------
# round graphs


def round_graphs(pattern: dict, n: int, rounds: int) -> List[Optional[np.ndarray]]:
    """Adjacency of rounds 1..rounds (index 0 unused); adj[q, p]: q sends to p."""
    from consensus_dyn import graphs

    family = pattern["family"]
    if family == "random-nonsplit":
        pat = graphs.random_nonsplit(n, seed=pattern["seed"])
    elif family == "random-rooted":
        pat = graphs.random_rooted(n, seed=pattern["seed"])
    elif family == "rotating-star":
        pat = graphs.adversarial_rotating_star(n)
    elif family == "bidirectional-intermittent":
        pat = graphs.bidirectional_intermittent(n, period=pattern["period"], seed=pattern["seed"])
    else:
        raise ValueError(f"pattern family {family!r} is not used by the benchmark")
    return [None] + [np.array(pat.graph(t).adj, dtype=bool) for t in range(1, rounds + 1)]


def _reach(adj: np.ndarray) -> np.ndarray:
    reach = adj.astype(np.int64)
    for _ in range(max(1, math.ceil(math.log2(max(len(adj), 2))))):
        reach = ((reach @ reach) > 0).astype(np.int64)
    return reach > 0


def graph_class_errors(family: str, adj: np.ndarray, t: int) -> List[str]:
    """The property the pattern family promises for every round graph."""
    errors = []
    if not adj.diagonal().all():
        errors.append(f"round {t}: graph lacks a self-loop")
    if family == "random-nonsplit":
        common = adj.astype(np.int64).T @ adj.astype(np.int64)
        if not (common > 0).all():
            errors.append(f"round {t}: graph is not nonsplit")
    elif family in ("random-rooted", "rotating-star"):
        if not _reach(adj).all(axis=1).any():
            errors.append(f"round {t}: graph is not rooted")
    elif family == "bidirectional-intermittent":
        if not (adj == adj.T).all():
            errors.append(f"round {t}: graph is not bidirectional")
    return errors


def block_graph(adjs: List[np.ndarray], start: int, end: int) -> np.ndarray:
    """Who hears whom over rounds start+1..end: the product of their graphs."""
    reach = adjs[start + 1].astype(np.int64)
    for t in range(start + 2, end + 1):
        reach = ((reach @ adjs[t].astype(np.int64)) > 0).astype(np.int64)
    return reach > 0


# ---------------------------------------------------------------------------
# the update rules, recomputed


def rule_alpha(tag: str, d: int, received: int) -> float:
    """Per-component margin each update keeps inside its received range."""
    if tag in ("midpoint", "component-midpoint"):
        return 0.5
    if tag == "extreme-point":
        return 1.0 / (2 * d)
    if tag == "centroid":
        return 1.0 / (d + 1)
    if tag == "equal-neighbor":
        return 1.0 / received
    raise ValueError(f"unknown rule {tag!r}")


def extreme_point_candidates(pts: np.ndarray, limit: int = 256) -> List[np.ndarray]:
    """Every output the extreme-point rule may give on `pts`.

    One minimal and one maximal point per component, averaged in the order
    min_0..min_{d-1}, max_0..max_{d-1}. Where distinct points tie for an
    extreme, each choice is a candidate; the rule's tie-break is not repeated.
    """
    d = pts.shape[1]
    choices = []
    for pick in (np.min, np.max):
        for k in range(d):
            col = pts[:, k]
            choices.append(np.unique(pts[col == pick(col)], axis=0))
    combos = itertools.islice(itertools.product(*choices), limit)
    return [np.array(combo).mean(axis=0) for combo in combos]


@dataclass
class HullCentroid:
    centroid: Optional[np.ndarray]
    rank: int
    generic_rank: int
    ambiguous: bool
    extent: float


def hull_centroid(pts: np.ndarray) -> HullCentroid:
    """Centroid of conv(pts) from a Delaunay triangulation in its affine hull.

    The affine rank follows the documented cut. `centroid` is None when the
    triangulation fails; `ambiguous` marks a singular value near the cut.
    """
    d = pts.shape[1]
    extent = float((pts.max(axis=0) - pts.min(axis=0)).max())
    if extent == 0.0:
        return HullCentroid(pts[0].copy(), 0, 0, False, 0.0)
    keep = [0]
    for i in range(1, len(pts)):
        if np.linalg.norm(pts[keep] - pts[i], axis=1).min() > DUP_REL * extent:
            keep.append(i)
    unique = pts[keep]
    generic = min(d, len(unique) - 1)
    if len(unique) == 1:
        return HullCentroid(unique[0].copy(), 0, 0, False, extent)
    origin = unique.mean(axis=0)
    centered = unique - origin
    _, svals, vt = np.linalg.svd(centered, full_matrices=False)
    cut = max(RANK_REL * svals[0], RANK_FLOOR_ULPS * EPS * float(np.abs(pts).max()))
    rank = min(int((svals > cut).sum()), generic)
    # m points span at most m-1 dimensions: later singular values are noise
    live = svals[:generic]
    ambiguous = bool(((live > cut / RANK_AMBIGUITY) & (live < cut * RANK_AMBIGUITY)).any())
    if rank == 0:
        return HullCentroid(unique[0].copy(), 0, generic, ambiguous, extent)
    basis = np.eye(d) if rank == d else vt[:rank]
    proj = centered @ basis.T
    if rank == 1:
        line = proj[:, 0]
        mid = (line.min() + line.max()) / 2
        return HullCentroid(origin + mid * basis[0], 1, generic, ambiguous, extent)
    try:
        tri = Delaunay(proj)
    except QhullError:
        return HullCentroid(None, rank, generic, True, extent)
    simplices = proj[tri.simplices]  # (s, rank+1, rank)
    vols = np.abs(np.linalg.det(simplices[:, 1:] - simplices[:, :1])) / math.factorial(rank)
    if not vols.sum() > 0.0:
        return HullCentroid(None, rank, generic, True, extent)
    inner = (vols @ simplices.mean(axis=1)) / vols.sum()
    return HullCentroid(origin + inner @ basis, rank, generic, ambiguous, extent)


def inside_hull(pts: np.ndarray, x: np.ndarray, tol: float) -> bool:
    """x is within `tol` of conv(pts): nonnegative weights summing to one."""
    origin = pts.mean(axis=0)
    scale = max(float(np.abs(pts - origin).max()), tol, 1e-300)
    a = np.vstack([(pts - origin).T / scale, np.ones(len(pts))])
    b = np.concatenate([(x - origin) / scale, [1.0]])
    _, residual = nnls(a, b)
    return residual * scale <= tol


# ---------------------------------------------------------------------------
# convergence


def first_epsilon_round(positions: np.ndarray, epsilon: float) -> Optional[int]:
    """First round whose every live component range is within epsilon of its start."""
    deltas = positions.max(axis=1) - positions.min(axis=1)
    active = deltas[0] > 0.0
    if not active.any():
        return 0
    for t in range(1, len(deltas)):
        if (deltas[t][active] <= epsilon * deltas[0][active]).all():
            return t
    return None


def _ceil_log(ratio: float, base: float) -> int:
    return max(0, math.ceil(math.log(ratio) / math.log(base) - BOUND_GUARD))


def round_bound(tag: str, amortized: bool, period: int, n: int, d: int, epsilon: float,
                family: str) -> Optional[int]:
    """The paper's worst-case round count, where one applies.

    Per-round rules on nonsplit graphs: ceil(log(1/eps) / log(1/(1-alpha))).
    Amortized midpoint, extreme-point and centroid at period n-1 on rooted
    graphs: (n-1) * ceil(log_b(1/eps)) with b = 1/(1-alpha).
    """
    if not amortized and family == "random-nonsplit":
        # equal-neighbor's constant is 1/n: the worst case hears all n agents
        return _ceil_log(1.0 / epsilon, 1.0 / (1.0 - rule_alpha(tag, d, n)))
    rooted = family in ("random-nonsplit", "random-rooted", "rotating-star")
    if amortized and rooted and period == max(1, n - 1) and tag in ("midpoint", "extreme-point",
                                                                    "centroid"):
        return period * _ceil_log(1.0 / epsilon, 1.0 / (1.0 - rule_alpha(tag, d, n)))
    return None


# ---------------------------------------------------------------------------
# one scenario


@dataclass
class ScenarioResult:
    errors: List[str]
    t_eps: Optional[int] = None
    bound: Optional[int] = None


def _check_update(tag: str, pts: np.ndarray, x: np.ndarray, where: str,
                  stats: CheckStats) -> List[str]:
    d = pts.shape[1]
    scale = max(float(np.abs(pts).max()), float(np.abs(x).max()))
    errors = []
    if tag == "centroid":
        hc = hull_centroid(pts)
        stats.centroids_flattened += hc.rank < hc.generic_rank
        if hc.ambiguous or hc.centroid is None:
            stats.centroids_property += 1
            if not inside_hull(pts, x, INSIDE_ULPS * EPS * scale + INSIDE_REL * hc.extent):
                errors.append(f"{where}: centroid {x.tolist()} is outside the received hull")
        else:
            stats.centroids_exact += 1
            gap = float(np.abs(x - hc.centroid).max())
            tol = CENTROID_ULPS * EPS * scale + CENTROID_REL * hc.extent
            stats.centroid_worst_ulps = max(stats.centroid_worst_ulps, gap / (EPS * scale))
            if gap > tol:
                errors.append(f"{where}: centroid {x.tolist()} differs from the hull centroid"
                              f" {hc.centroid.tolist()} by {gap:.3g} (tolerance {tol:.3g})")
    else:
        if tag == "extreme-point":
            candidates = extreme_point_candidates(pts)
        elif tag == "equal-neighbor":
            candidates = [pts.mean(axis=0)]
        else:
            candidates = [(pts.min(axis=0) + pts.max(axis=0)) / 2]
        tol = POSITION_ULPS * EPS * scale
        gap = min(float(np.abs(x - c).max()) for c in candidates)
        if gap > tol:
            errors.append(f"{where}: position {x.tolist()} is not the {tag} update"
                          f" {candidates[0].tolist()} (off by {gap:.3g})")
    lo, hi = pts.min(axis=0), pts.max(axis=0)
    need = rule_alpha(tag, d, len(pts)) * (hi - lo) - MARGIN_ULPS * EPS * scale
    short = np.minimum(x - lo, hi - x) < need
    if short.any():
        k = int(np.argmax(short))
        errors.append(f"{where}: component {k} keeps margin"
                      f" {float(min(x[k] - lo[k], hi[k] - x[k]) / (hi[k] - lo[k]))!r}"
                      f" below {rule_alpha(tag, d, len(pts))!r}")
    return errors


def check_scenario(config: dict, out_dir: Path, stats: CheckStats,
                   max_errors: int = 5) -> ScenarioResult:
    """Check trace.csv and summary.json of one `run` against independent recomputation."""
    n, d, eps = config["n"], config["d"], config["epsilon"]
    tag, amortized, period = parse_algorithm(config["algorithm"], n)
    family = config["pattern"]["family"]
    errors: List[str] = []
    try:
        pos = read_trace(out_dir / "trace.csv", n, d)
        summary = json.loads((out_dir / "summary.json").read_text())
    except (OSError, ValueError) as e:
        return ScenarioResult([f"unreadable artifacts: {e}"])
    rounds = len(pos) - 1

    initial = np.random.default_rng(config["seed"]).uniform(0.0, 1.0, (n, d))
    if not np.array_equal(pos[0], initial):
        errors.append("round 0 is not the seeded uniform draw from the unit box")

    adjs = round_graphs(config["pattern"], n, rounds)
    for t in range(1, rounds + 1):
        errors += graph_class_errors(family, adjs[t], t)

    for start in range(0, rounds, period):
        end = start + period
        for t in range(start + 1, min(end, rounds + 1)):
            if not np.array_equal(pos[t], pos[start]):
                errors.append(f"round {t}: positions move inside the block {start + 1}..{end}")
        if end > rounds or len(errors) >= max_errors:
            break
        reach = block_graph(adjs, start, end)
        for p in range(n):
            stats.updates += 1
            pts = pos[start][np.flatnonzero(reach[:, p])]
            errors += _check_update(tag, pts, pos[end][p], f"round {end}, agent {p}", stats)

    t_eps = first_epsilon_round(pos, eps)
    bound = round_bound(tag, amortized, period, n, d, eps, family)
    if t_eps is None or t_eps != rounds:
        errors.append(f"trace of {rounds} rounds does not end at its first epsilon round {t_eps}")
    if summary.get("t_eps") != t_eps or summary.get("converged") is not True:
        errors.append(f"summary.json says t_eps={summary.get('t_eps')!r},"
                      f" converged={summary.get('converged')!r}; the trace gives t_eps={t_eps}")
    if summary.get("rounds") != rounds:
        errors.append(f"summary.json says {summary.get('rounds')!r} rounds; the trace has {rounds}")
    if summary.get("bound_t") != bound:
        errors.append(f"summary.json bound_t={summary.get('bound_t')!r}; the paper's bound is {bound}")
    if bound is not None and t_eps is not None and t_eps > bound:
        errors.append(f"t_eps={t_eps} exceeds the round bound {bound}")
    return ScenarioResult(errors[:max_errors], t_eps, bound)


def check_sweep_csv(path: Path, scenarios: List[dict],
                    results: Dict[int, ScenarioResult]) -> List[str]:
    """sweep.csv rows against the scenario product and the checked `run` traces."""
    try:
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
    except OSError as e:
        return [f"unreadable sweep.csv: {e}"]
    if len(rows) != len(scenarios):
        return [f"sweep.csv has {len(rows)} rows for {len(scenarios)} scenarios"]
    errors = []
    for idx, (row, cfg) in enumerate(zip(rows, scenarios)):
        res = results[idx]
        want = {"scenario": str(idx), "n": str(cfg["n"]), "d": str(cfg["d"]),
                "algorithm": cfg["algorithm"], "seed": str(cfg["seed"]),
                "t_eps": "" if res.t_eps is None else str(res.t_eps),
                "bound_t": "" if res.bound is None else str(res.bound),
                "converged": "yes",
                "within_bound": "" if res.bound is None else "yes"}
        for key, value in want.items():
            if row.get(key) != value:
                errors.append(f"sweep.csv row {idx}: {key}={row.get(key)!r}, expected {value!r}")
    return errors


# ---------------------------------------------------------------------------
# tamper control


def tamper_trace(src: Path, dst: Path, config: dict) -> Tuple[int, int, int]:
    """Copy trace.csv with one agent moved outside its safe interval at the
    first averaging round. Returns (round, agent, component) of the change."""
    n, d = config["n"], config["d"]
    _, _, period = parse_algorithm(config["algorithm"], n)
    pos = read_trace(src, n, d)
    reach = block_graph(round_graphs(config["pattern"], n, period), 0, period)
    for p, k in itertools.product(range(n), range(d)):
        vals = pos[0][np.flatnonzero(reach[:, p]), k]
        span = vals.max() - vals.min()
        if span > 0:
            break
    else:
        raise ValueError("no live component to tamper with at the first averaging round")
    lines = src.read_bytes().decode().splitlines(keepends=True)
    row = 1 + period * n + p
    text = lines[row].rstrip("\r\n")
    cells = text.split(",")
    cells[2 + k] = repr(float(vals.min() - span))
    lines[row] = ",".join(cells) + lines[row][len(text):]
    dst.write_bytes("".join(lines).encode())
    return period, p, k
