"""Consensus update rules and the whole-array round kernel that runs them.

Five update rules: equal-neighbor mean, range midpoint (1-D), component-wise
midpoint, extreme-point averaging, hull centroid. The standalone `*_update`
functions apply one rule to one received set. `advance` runs a round for all
agents at once: agents accumulate gather memory each round and apply their
base update whenever the 1-based round index hits a multiple of the period
(period 1 is the plain per-round algorithm; the amortized variants default the
period to n-1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import geometry

TAGS = ("equal-neighbor", "midpoint", "component-midpoint", "extreme-point", "centroid")


@dataclass(frozen=True)
class AlgorithmKind:
    """Update-rule identity plus amortization and behavior flags.

    tie_break applies to extreme-point only ("index": lowest sender then
    lexicographic point; "random": seeded uniform choice among tied candidates).
    frame_reduction applies to centroid gathering (drop non-extreme points).
    allow_unsafe_dim permits component-midpoint at d >= 3 for demonstrations
    only: there the output can leave the hull of the inputs.
    """

    tag: str
    amortized: bool = False
    amortization_period: Optional[int] = None
    tie_break: str = "index"
    frame_reduction: bool = True
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
        raise ValueError("equal-neighbor keeps no gather memory; amortization is unsupported")
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
# base update rules


def equal_neighbor_update(received: np.ndarray) -> np.ndarray:
    """Arithmetic mean with weight 1/k per received position (multiset: duplicates count)."""
    arr = np.asarray(received, dtype=float)
    if arr.size == 0:
        raise ValueError("need at least one received position")
    return arr.mean(axis=0)


def midpoint_update_1d(m: float, M: float) -> float:
    if m > M:
        raise ValueError(f"need m <= M, got ({m}, {M})")
    return (m + M) / 2


def component_midpoint_update(received: np.ndarray) -> np.ndarray:
    arr = np.asarray(received, dtype=float)
    if arr.size == 0:
        raise ValueError("need at least one received position")
    return (arr.min(axis=0) + arr.max(axis=0)) / 2


def _select_extreme(points: np.ndarray, senders: Sequence[int], comp: int,
                    maximize: bool, rng: Optional[np.random.Generator]) -> np.ndarray:
    coords = points[:, comp]
    target = coords.max() if maximize else coords.min()
    ties = np.nonzero(coords == target)[0]
    if len(ties) == 1:
        return points[ties[0]]
    if rng is not None:
        return points[int(rng.choice(ties))]
    best = None
    for i in ties:
        key = (senders[i], tuple(points[i]))
        if best is None or key < best[0]:
            best = (key, int(i))
    return points[best[1]]


def extreme_point_update(received: np.ndarray, d: int,
                         senders: Optional[Sequence[int]] = None,
                         rng: Optional[np.random.Generator] = None) -> np.ndarray:
    """Average of 2d selected positions: per component one minimal and one maximal.

    Ties are broken by lowest sender id then lexicographic point order (sender
    ids default to list positions), or uniformly at random when rng is given.
    """
    arr = np.asarray(received, dtype=float)
    if arr.size == 0:
        raise ValueError("need at least one received position")
    arr = arr.reshape(len(arr), d)
    if senders is None:
        senders = list(range(len(arr)))
    total = np.zeros(d)
    for i in range(d):
        total += _select_extreme(arr, senders, i, False, rng)
        total += _select_extreme(arr, senders, i, True, rng)
    return total / (2 * d)


def centroid_update(received: np.ndarray) -> np.ndarray:
    """Centroid of the hull of the received positions (multiplicities irrelevant)."""
    arr = np.asarray(received, dtype=float)
    if arr.size == 0:
        raise ValueError("need at least one received position")
    return geometry.centroid(geometry.convex_hull(arr)).centroid


# ---------------------------------------------------------------------------
# whole-array round kernel
#
# Every agent keeps gather memory next to its position: the extremes of all it
# has heard since it last moved. (n, 2, d) received lows and highs for the
# midpoint rules, (n, 2d, d) per-component minimal and maximal candidate points
# for extreme-point, one (m, d) point set per agent for centroid, and nothing
# for equal-neighbor. A round merges the memories of each agent's in-neighbours
# (a masked reduction over the round's adjacency) and, when the 1-based round
# index is a multiple of the period, applies the base update and resets the
# memory to the new position.


def init_gather(kind: AlgorithmKind, x: np.ndarray):
    """Gather memory of agents at positions x (n, d) that have just moved."""
    n, d = x.shape
    if kind.tag in ("midpoint", "component-midpoint"):
        return np.stack([x, x], axis=1)
    if kind.tag == "extreme-point":
        return np.repeat(x[:, None, :], 2 * d, axis=1)
    if kind.tag == "centroid":
        return [x[p].reshape(1, d) for p in range(n)]
    if kind.tag == "equal-neighbor":
        return None
    raise ValueError(f"unknown algorithm {kind.tag!r}")


def masked_min(values: np.ndarray, adj: np.ndarray) -> np.ndarray:
    """Row p is the componentwise minimum of values[q] over q with adj[q, p]."""
    return np.where(adj[:, :, None], values[:, None, :], np.inf).min(axis=0)


def masked_max(values: np.ndarray, adj: np.ndarray) -> np.ndarray:
    """Row p is the componentwise maximum of values[q] over q with adj[q, p]."""
    return np.where(adj[:, :, None], values[:, None, :], -np.inf).max(axis=0)


def _merge_extremes(kind: AlgorithmKind, gather: np.ndarray, adj: np.ndarray,
                    t: int, tie_seed: int) -> np.ndarray:
    """Per agent and component, the minimal and maximal candidate point among
    the gathered points of its in-neighbours."""
    n, m, d = gather.shape
    cand = gather.reshape(n * m, d)
    sender = np.repeat(np.arange(n), m)
    recv = adj[sender]  # recv[c, p]: agent p hears candidate c
    merged = np.empty_like(gather)
    if kind.tie_break == "random":
        # tie indices are positions in p's candidate stack, ordered by sender
        for p in range(n):
            rng = np.random.default_rng(np.random.SeedSequence((tie_seed, t, p)))
            pts, ids = cand[recv[:, p]], sender[recv[:, p]]
            for i in range(d):
                merged[p, i] = _select_extreme(pts, ids, i, False, rng)
                merged[p, d + i] = _select_extreme(pts, ids, i, True, rng)
        return merged
    # Ties go to the lowest sender, then the lexicographically smallest point:
    # sort all candidates once by (value, sender, point) and give each agent
    # the first one it received.
    rank = np.empty(n * m, dtype=np.intp)
    rank[np.lexsort(cand.T[::-1])] = np.arange(n * m)
    for i in range(d):
        for j, key in ((i, cand[:, i]), (d + i, -cand[:, i])):
            order = np.lexsort((rank, sender, key))
            merged[:, j] = cand[order[recv[order].argmax(axis=0)]]
    return merged


def _centroid_round(kind: AlgorithmKind, x: np.ndarray, gather: list, adj: np.ndarray,
                    average: bool):
    """Agent by agent: stack the in-neighbours' point sets, reduce them to their
    frame (or only deduplicate them without frame reduction) and, on an
    averaging round, move to the centroid of their hull.

    Agents whose stacks are equal byte for byte share one reduction and one
    centroid per round: the same bytes through the same calls give the same
    bytes out."""
    new_x, new_gather = x.copy(), []
    done = {}
    for p in range(len(gather)):
        stack = np.vstack([gather[q] for q in np.flatnonzero(adj[:, p])])
        key = (stack.shape, stack.tobytes())
        if key not in done:
            if kind.frame_reduction:
                merged = geometry.convex_hull(stack).vertices
            else:
                extent = float((stack.max(axis=0) - stack.min(axis=0)).max())
                merged = geometry.dedup(stack, geometry.DUP_TOL * extent)
            point = geometry.centroid(geometry.convex_hull(merged)).centroid if average else None
            done[key] = merged, point
        merged, point = done[key]
        if average:
            new_x[p] = point
            merged = new_x[p:p + 1]
        new_gather.append(merged)
    return new_x, new_gather


def _equal_neighbor_round(x: np.ndarray, adj: np.ndarray) -> np.ndarray:
    # x[nb].mean over a compacted (agents, k, d) block adds the k received
    # positions exactly as a per-agent (k, d) mean does, including numpy's
    # pairwise summation at d = 1; a masked sum over all n rows would not.
    deg = adj.sum(axis=0)
    out = np.empty_like(x)
    for k in np.unique(deg):
        rows = np.flatnonzero(deg == k)
        nb = np.nonzero(adj[:, rows].T)[1].reshape(len(rows), k)
        out[rows] = x[nb].mean(axis=1)
    return out


def advance(kind: AlgorithmKind, x: np.ndarray, gather, adj: np.ndarray, t: int,
            period: int, tie_seed: int = 0):
    """One round for all agents: returns the positions and gather memory after
    round t (1-based) from those before it.

    adj[q, p] is True when p hears q this round. Agents move only when t is a
    multiple of `period`; otherwise they keep their position and only merge
    what they hear into their gather memory.
    Random tie-breaks draw from a per-(tie_seed, t, agent) stream.
    """
    if period < 1:
        raise ValueError(f"need period >= 1, got {period}")
    average = t % period == 0
    if kind.tag == "equal-neighbor":
        if period != 1:
            raise ValueError("equal-neighbor cannot gather across rounds")
        return _equal_neighbor_round(x, adj), None
    if kind.tag in ("midpoint", "component-midpoint"):
        lo, hi = masked_min(gather[:, 0], adj), masked_max(gather[:, 1], adj)
        if not average:
            return x, np.stack([lo, hi], axis=1)
        new = (lo + hi) / 2
    elif kind.tag == "extreme-point":
        merged = _merge_extremes(kind, gather, adj, t, tie_seed)
        if not average:
            return x, merged
        # the d minima, then the d maxima: the order of the 2d additions is
        # part of the artifacts' bytes
        new = merged.mean(axis=1)
    elif kind.tag == "centroid":
        return _centroid_round(kind, x, gather, adj, average)
    else:
        raise ValueError(f"unknown algorithm {kind.tag!r}")
    return new, init_gather(kind, new)
