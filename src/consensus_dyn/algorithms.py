"""Consensus update rules and the whole-array round kernel that runs them.

Five update rules: equal-neighbor mean, range midpoint (1-D), component-wise
midpoint, extreme-point averaging, hull centroid. `apply_rule` applies a rule
for all agents at once, each over the positions that reached it, as array
work over the reach matrix: no Python loop runs per agent, component or
in-degree, except the per-agent streams of extreme-point's random tie-break
and the centroid's Qhull calls. The tests hold it bit for bit to
one-set-at-a-time references in tests/oracles.py. `simulator.step`
holds positions still inside a block and applies the rule over the block's
reach matrix whenever the 1-based round index hits a multiple of the period
(period 1 is the plain per-round algorithm; the amortized variants default
the period to n-1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import geometry

TAGS = ("equal-neighbor", "midpoint", "component-midpoint", "extreme-point", "centroid")


@dataclass(frozen=True)
class AlgorithmKind:
    """Update-rule identity plus amortization and behavior flags.

    tie_break applies to extreme-point only ("index": lowest agent id, the
    agent whose position it is; "random": seeded uniform choice among the tied
    agents).
    allow_unsafe_dim permits component-midpoint at d >= 3 for demonstrations
    only: there the output can leave the hull of the inputs.
    """

    tag: str
    amortized: bool = False
    amortization_period: Optional[int] = None
    tie_break: str = "index"
    allow_unsafe_dim: bool = False


def parse_kind(s: str) -> AlgorithmKind:
    """Parse "tag[+amortized[:period]]" config strings."""
    parts = s.split("+")
    tag = parts[0]
    if tag not in TAGS:
        raise ValueError(f"unknown algorithm {tag!r}; expected one of {TAGS}")
    if len(parts) == 1:
        return AlgorithmKind(tag)
    if len(parts) > 2:
        raise ValueError(f"malformed algorithm string {s!r}")
    suffix = parts[1]
    if suffix == "amortized":
        return AlgorithmKind(tag, amortized=True)
    if suffix.startswith("amortized:"):
        try:
            period = int(suffix.split(":", 1)[1])
        except ValueError:
            raise ValueError(f"malformed amortization period in {s!r}") from None
        if period < 1:
            raise ValueError(f"amortization period must be >= 1, got {period}")
        return AlgorithmKind(tag, amortized=True, amortization_period=period)
    raise ValueError(f"malformed algorithm string {s!r}")


def format_kind(kind: AlgorithmKind) -> str:
    if not kind.amortized:
        return kind.tag
    if kind.amortization_period is None:
        return f"{kind.tag}+amortized"
    return f"{kind.tag}+amortized:{kind.amortization_period}"


def validate_kind(kind: AlgorithmKind, n: int, d: int) -> None:
    """Reject rule/dimension combinations that cannot run safely."""
    if kind.tag not in TAGS:
        raise ValueError(f"unknown algorithm {kind.tag!r}; expected one of {TAGS}")
    if kind.tag == "midpoint" and d != 1:
        raise ValueError(f"midpoint operates on scalar values; got d={d} (use component-midpoint"
                         " for d=2 or extreme-point/centroid for higher d)")
    if kind.tag == "component-midpoint" and d >= 3 and not kind.allow_unsafe_dim:
        raise ValueError(
            f"component-midpoint at d={d} can move outside the hull of the received positions"
            " (the box center of a simplex in R^3 already escapes); set allow_unsafe_dim"
            " only to demonstrate that failure")
    if kind.tag == "equal-neighbor" and kind.amortized:
        raise ValueError("equal-neighbor is a per-round rule; amortization is unsupported")
    if kind.amortization_period is not None and kind.amortization_period < 1:
        raise ValueError(f"amortization period must be >= 1, got {kind.amortization_period}")
    if kind.tie_break not in ("index", "random"):
        raise ValueError(f"unknown tie_break {kind.tie_break!r}")


def effective_period(kind: AlgorithmKind, n: int) -> int:
    if not kind.amortized:
        return 1
    if kind.amortization_period is not None:
        return kind.amortization_period
    return max(1, n - 1)


def claimed_alpha(kind: AlgorithmKind, n: int, d: int) -> float:
    """Per-round safety constant of the base rule: the relative margin each
    update keeps from both ends of its in-neighbors' per-component range."""
    if kind.tag in ("midpoint", "component-midpoint"):
        return 0.5
    if kind.tag == "extreme-point":
        return 1 / (2 * d)
    if kind.tag == "centroid":
        return 1 / (d + 1)
    if kind.tag == "equal-neighbor":
        return 1 / n
    raise ValueError(f"unknown algorithm {kind.tag!r}")


# ---------------------------------------------------------------------------
# whole-array round kernel
#
# What an agent has gathered by the end of a block is fixed by x at the block
# start and by who reached it during the block: reach[q, p], the boolean
# product of the block's round graphs (for the per-round rules, period 1, the
# round's adjacency). Nobody moves inside a block; at its end every agent p
# applies the base rule once to the positions x[q] with reach[q, p].


def masked_min(values: np.ndarray, adj: np.ndarray) -> np.ndarray:
    """Row p is the componentwise minimum of values[q] over q with adj[q, p]."""
    return np.where(adj[:, :, None], values[:, None, :], np.inf).min(axis=0)


def masked_max(values: np.ndarray, adj: np.ndarray) -> np.ndarray:
    """Row p is the componentwise maximum of values[q] over q with adj[q, p]."""
    return np.where(adj[:, :, None], values[:, None, :], -np.inf).max(axis=0)


def _select_extreme(points: np.ndarray, comp: int, maximize: bool,
                    rng: np.random.Generator) -> np.ndarray:
    """The point with the least (greatest) component comp; ties drawn from rng."""
    coords = points[:, comp]
    ties = np.nonzero(coords == (coords.max() if maximize else coords.min()))[0]
    if len(ties) == 1:
        return points[ties[0]]
    return points[int(rng.choice(ties))]


def _extreme_points(kind: AlgorithmKind, x: np.ndarray, reach: np.ndarray,
                    t: int, tie_seed: int) -> np.ndarray:
    """(n, 2d, d): per agent, the d componentwise minimal and then the d maximal
    positions among the agents that reached it."""
    n, d = x.shape
    if kind.tie_break == "random":
        chosen = np.empty((n, 2 * d, d))
        for p in range(n):
            rng = np.random.default_rng(np.random.SeedSequence((tie_seed, t, p)))
            pts = x[reach[:, p]]
            for i in range(d):
                chosen[p, i] = _select_extreme(pts, i, False, rng)
                chosen[p, d + i] = _select_extreme(pts, i, True, rng)
        return chosen
    # Ties go to the lowest agent id: a stable sort of each column of [x, -x]
    # keeps tied agents in id order, and each agent takes, per column, the
    # first one that reached it.
    order = np.argsort(np.concatenate([x, -x], axis=1), axis=0, kind="stable")
    first = reach.T[:, order].argmax(axis=1)
    return x[order[first, np.arange(2 * d)]]


def _pairwise_sums(rows: np.ndarray, count: np.ndarray) -> np.ndarray:
    """Entry i is rows[i, :count[i]].sum() bit for bit, where the width of
    rows is a multiple of 8 and every entry of row i from count[i] on is
    -0.0, which adds nothing. numpy's pairwise sum starts from +0.0 and adds
    fewer than 8 values in order, up to 128 in 8 lanes joined in a fixed
    tree and then the count % 8 left over in order, and more in two halves
    (the first a multiple of 8) summed apart."""
    m, width = rows.shape
    col = np.arange(width)
    out = np.empty(m)
    big = count > 128
    if big.any():
        half = count[big] // 2
        half -= half % 8
        left = np.where(col < half[:, None], rows[big], -0.0)
        shifted = np.minimum(col + half[:, None], width - 1)
        right = np.where(col < (count[big] - half)[:, None],
                         np.take_along_axis(rows[big], shifted, axis=1), -0.0)
        out[big] = _pairwise_sums(left, half) + _pairwise_sums(right, count[big] - half)
    rows, count = rows[~big], count[~big]
    lanes = (count - count % 8)[:, None]
    # cumsum adds left to right whatever the shape, where sum may go pairwise
    r = np.where(col < lanes, rows, -0.0).reshape(len(rows), width // 8, 8).cumsum(axis=1)[:, -1]
    r = r[:, 0::2] + r[:, 1::2]
    r = r[:, 0::2] + r[:, 1::2]
    tail = np.where(col >= lanes, rows, -0.0)
    # + 0.0: the sum starts from +0.0, so an all-zero one is never -0.0
    out[~big] = np.column_stack([r[:, 0] + r[:, 1], tail]).cumsum(axis=1)[:, -1] + 0.0
    return out


def _neighbor_means(x: np.ndarray, adj: np.ndarray) -> np.ndarray:
    """Row p is x[adj[:, p]].mean(axis=0) bit for bit: numpy adds the rows
    in order from +0.0, except at d = 1, where it sums pairwise."""
    n, d = x.shape
    deg = adj.sum(axis=0)
    # row p holds p's in-neighbours' positions in id order, then -0.0 up to
    # a multiple of 8 columns
    receiver, sender = np.nonzero(adj.T)
    slot = np.arange(len(sender)) - (np.cumsum(deg) - deg)[receiver]
    padded = np.full((n, -(-int(deg.max()) // 8) * 8, d), -0.0)
    padded[receiver, slot] = x[sender]
    if d == 1 and deg.max() >= 8:
        total = _pairwise_sums(padded[:, :, 0], deg)[:, None]
    else:
        total = padded.cumsum(axis=1)[:, -1] + 0.0
    return total / deg[:, None]


def apply_rule(kind: AlgorithmKind, x: np.ndarray, reach: np.ndarray, t: int,
               tie_seed: int = 0) -> np.ndarray:
    """Base rule for all agents at once: row p is the rule applied to the
    positions x[q] (n, d) with reach[q, p]. Random tie-breaks draw from a
    per-(tie_seed, t, agent) stream."""
    if kind.tag == "equal-neighbor":
        return _neighbor_means(x, reach)
    if kind.tag in ("midpoint", "component-midpoint"):
        return (masked_min(x, reach) + masked_max(x, reach)) / 2
    if kind.tag == "extreme-point":
        # the d minima, then the d maxima: the order of the 2d additions is
        # part of the artifacts' bytes
        return _extreme_points(kind, x, reach, t, tie_seed).mean(axis=1)
    if kind.tag == "centroid":
        return geometry.hull_centroids(x, reach)
    raise ValueError(f"unknown algorithm {kind.tag!r}")

