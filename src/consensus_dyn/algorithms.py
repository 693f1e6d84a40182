"""Consensus update rules and the whole-array round kernel that runs them.

Five update rules: equal-neighbor mean, range midpoint (1-D), component-wise
midpoint, extreme-point averaging, hull centroid. `apply_rule` applies a rule
for all agents of a batch of runs at once, each agent over the positions that
reached it, as array work over the reach matrix the runs share; the runs
differ in d (padded to the largest) and seed. The centroid's kernel
(`geometry.hull_centroids`) takes the whole batch too, and loops only over
the few stacks that need a hull of their own; extreme-point's random ties
build a stream only for an agent that has a tie. Equal-neighbor gives agent p
x[reach[:, p]].mean(axis=0) bit for bit (numpy's pairwise `add.reduceat` at
d = 1, a left-to-right `cumsum` at d >= 2), and the tests hold every rule
bit for bit to one-set-at-a-time references in tests/oracles.py, except the
centroids the kernel takes from facet enumeration, which they hold to the
exact centroid.
`simulator.step` applies a rule at rounds that are multiples of the period
(1 per round; amortized variants default to n-1) and holds still between.
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

    tie_break applies to extreme-point only ("index": lowest agent id, the
    agent whose position it is; "random": seeded uniform choice among the tied
    agents).
    allow_unsafe_dim permits component-midpoint at d >= 3 for demonstrations
    only: there the output can leave the hull of the inputs.
    Construction rejects an unknown tag or tie_break and a period below 1;
    validate_kind checks what depends on (n, d).
    """

    tag: str
    amortized: bool = False
    amortization_period: Optional[int] = None
    tie_break: str = "index"
    allow_unsafe_dim: bool = False

    def __post_init__(self):
        if self.tag not in TAGS:
            raise ValueError(f"unknown algorithm {self.tag!r}; expected one of {TAGS}")
        if self.amortization_period is not None and self.amortization_period < 1:
            raise ValueError(f"amortization period must be >= 1, got {self.amortization_period}")
        if self.tie_break not in ("index", "random"):
            raise ValueError(f"unknown tie_break {self.tie_break!r}")


def parse_kind(s: str) -> AlgorithmKind:
    """Parse "tag[+amortized[:period]]" config strings."""
    parts = s.split("+")
    kind = AlgorithmKind(parts[0])  # an unknown tag is reported first
    if len(parts) == 1:
        return kind
    suffix, colon, text = parts[1].partition(":")
    if len(parts) > 2 or suffix != "amortized":
        raise ValueError(f"malformed algorithm string {s!r}")
    if not colon:
        return AlgorithmKind(kind.tag, amortized=True)
    try:
        period = int(text)
    except ValueError:
        raise ValueError(f"malformed amortization period in {s!r}") from None
    return AlgorithmKind(kind.tag, amortized=True, amortization_period=period)


def format_kind(kind: AlgorithmKind) -> str:
    if not kind.amortized:
        return kind.tag
    if kind.amortization_period is None:
        return f"{kind.tag}+amortized"
    return f"{kind.tag}+amortized:{kind.amortization_period}"


def validate_kind(kind: AlgorithmKind, n: int, d: int) -> None:
    """Reject rule/dimension combinations that cannot run safely."""
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
    return 1 / n  # equal-neighbor


# ---------------------------------------------------------------------------
# whole-array round kernel
#
# What an agent has gathered by the end of a block is fixed by x at the block
# start and by who reached it during the block: reach[q, p], the boolean
# product of the block's round graphs (for the per-round rules, period 1, the
# round's adjacency). Nobody moves inside a block; at its end every agent p
# applies the base rule once to the positions x[q] with reach[q, p].


def masked_min(values: np.ndarray, adj: np.ndarray) -> np.ndarray:
    """Row p: componentwise min of values[q] over q with adj[q, p]; leading axes batch."""
    return np.minimum.reduce(np.where(adj[..., None], values[..., :, None, :], np.inf), axis=-3)


def masked_max(values: np.ndarray, adj: np.ndarray) -> np.ndarray:
    """Row p: componentwise max of values[q] over q with adj[q, p]; leading axes batch."""
    return np.maximum.reduce(np.where(adj[..., None], values[..., :, None, :], -np.inf), axis=-3)


def _extreme_choices(x: np.ndarray, reach: np.ndarray) -> np.ndarray:
    """(n, B, 2D) agent ids: entry [p, b, c] is the agent whose position run
    b's agent p takes for column c of [x_b, -x_b], the least value among the
    agents that reached p, ties to the lowest agent id. The runs' columns
    side by side make one table; a stable sort of each of its columns keeps
    tied agents in id order, and each agent takes, per column, the first
    one that reached it."""
    batch, n, width = x.shape
    table = np.concatenate([x, -x], axis=2).transpose(1, 0, 2).reshape(n, -1)
    order = table.argsort(axis=0, kind="stable")
    first = reach.T[:, order].argmax(axis=1)
    return order[first, np.arange(2 * batch * width)].reshape(n, batch, 2 * width)


def _extreme_point_means(x: np.ndarray, reach: np.ndarray, dims: Sequence[int], t: int,
                         tie_seeds: Optional[Sequence[int]]) -> np.ndarray:
    """The extreme-point rule for every run of the batch: agent p of run b
    averages its d = dims[b] componentwise minimal positions, then its d
    maximal ones, added left to right from +0.0 as numpy's mean of the
    (2d, d) stack adds them. Ties go to the lowest agent id or, given
    tie_seeds, are drawn uniformly among the tied agents in id order from
    a per-(tie_seeds[b], t, p) stream, in the order min 0, max 0, min 1, ..."""
    batch, n, width = x.shape
    chosen = _extreme_choices(x, reach)
    members = np.arange(batch)[:, None]
    if tie_seeds is not None:
        # tied[b, q, p, c]: q reached p and holds run b's extreme value of
        # column c of [x_b, -x_b]; a column past d is padding and never drawn
        table = np.concatenate([x, -x], axis=2)
        extreme = np.take_along_axis(table, chosen.transpose(1, 0, 2), axis=1)
        tied = reach[:, :, None] & (table[:, :, None] == extreme[:, None])
        j = np.arange(2 * width)
        draw = (tied.sum(axis=1) > 1) & (j % width < np.array(dims)[:, None])[:, None]
        interleaved = j.reshape(2, width).T.ravel()
        for b, p in zip(*draw.any(axis=2).nonzero()):
            rng = np.random.default_rng(np.random.SeedSequence((tie_seeds[b], t, p)))
            for c in interleaved[draw[b, p, interleaved]]:
                chosen[p, b, c] = rng.choice(np.flatnonzero(tied[b, :, p, c]))
    if min(dims) == width:
        # every run has all 2D columns: the reduction is mean's own
        return (np.add.reduce(x[members, chosen], axis=2) / (2 * width)).transpose(1, 0, 2)
    # run b's columns of [x_b, -x_b]: its d minima, its d maxima, and then
    # padding columns, whose sum is never read
    j, d = np.arange(2 * width), np.array(dims)[:, None]
    chosen = chosen[:, members, np.where(j < d, j, np.where(j < 2 * d, width + j - d, j))]
    total = x[members, chosen].cumsum(axis=2)[:, members[:, 0], 2 * d[:, 0] - 1]
    return ((total + 0.0) / (2 * d)).transpose(1, 0, 2)


def _neighbor_means(x: np.ndarray, adj: np.ndarray, dims: Sequence[int]) -> np.ndarray:
    """Row p of run b is x_b[adj[:, p]].mean(axis=0) bit for bit, for x_b
    the run's positions x[b, :, :dims[b]]: numpy adds the rows in order from
    +0.0, except at d = 1, where it sums pairwise."""
    batch, n, width = x.shape
    deg = adj.sum(axis=0)
    receiver, sender = adj.T.nonzero()
    starts = deg.cumsum() - deg
    narrow = [b for b in range(batch) if dims[b] == 1]
    out = np.zeros(x.shape) if narrow else None
    if len(narrow) < batch:
        wide = [b for b in range(batch) if dims[b] > 1]
        # the runs' columns side by side, padding included (zeros sum to
        # zero): row p holds p's in-neighbours' positions in id order, then
        # -0.0; cumsum adds left to right whatever the shape, where sum may not
        cols = (x[wide] if narrow else x).transpose(1, 0, 2).reshape(n, -1)
        padded = np.full((n, int(deg.max()), cols.shape[1]), -0.0)
        padded[receiver, np.arange(len(sender)) - starts[receiver]] = cols[sender]
        means = (padded.cumsum(axis=1)[:, -1] + 0.0) / deg[:, None]
        means = means.reshape(n, -1, width).transpose(1, 0, 2)
        if not narrow:
            return means
        out[wide] = means
    for b in narrow:
        # segment p is +0.0, then p's in-neighbours' values in id order:
        # reduceat sums each one pairwise, as mean does (one call per run:
        # the pairwise blocks would change with the segment layout)
        flat = np.zeros(n + len(sender))
        flat[np.arange(len(sender)) + receiver + 1] = x[b, sender, 0]
        out[b, :, 0] = np.add.reduceat(flat, starts + np.arange(n)) / deg
    return out


def apply_rule(kind: AlgorithmKind, x: np.ndarray, reach: np.ndarray, t: int,
               tie_seeds: Sequence[int], dims: Sequence[int]) -> np.ndarray:
    """Base rule for every agent of a batch of runs at once. x (B, n, D)
    holds B runs of `kind` on the same n agents, run b's positions in its
    first dims[b] columns and zeros in the rest; row p of run b in the
    result is the rule applied to the positions x_b[q] with reach[q, p], and
    its padding columns stay zero. Random tie-breaks draw from a
    per-(tie_seeds[b], t, agent) stream; the centroid makes one kernel call
    for the whole batch."""
    if kind.tag == "equal-neighbor":
        return _neighbor_means(x, reach, dims)
    if kind.tag in ("midpoint", "component-midpoint"):
        # componentwise, so the padding columns stay zero
        return (masked_min(x, reach) + masked_max(x, reach)) / 2
    if kind.tag == "extreme-point":
        return _extreme_point_means(x, reach, dims, t,
                                    tie_seeds if kind.tie_break == "random" else None)
    return geometry.hull_centroids(x, reach, dims)  # centroid
