"""Directed communication graphs with self-loops and round-indexed graph sequences.

Agents are 0-indexed. ``adj[p, q] == True`` means agent p sends to agent q in
that round; every graph carries all self-loops, so an agent always hears itself.
Rounds are 1-based: a pattern's round-t graph governs the transition from the
configuration after round t-1 to the one after round t.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterable, Optional, Set, Tuple

import numpy as np

logger = logging.getLogger(__name__)


class NetworkModelKind(Enum):
    NONSPLIT = "nonsplit"
    ROOTED = "rooted"
    BIDIRECTIONAL_INTERMITTENT = "bidirectional-intermittent"
    FIXED_GRAPH = "fixed"
    CUSTOM = "custom"


@dataclass(frozen=True, eq=False)
class CommGraph:
    """One round's directed communication graph (immutable, self-loops enforced)."""

    n: int
    adj: np.ndarray

    def __post_init__(self):
        adj = np.asarray(self.adj, dtype=bool)
        if self.n < 1:
            raise ValueError("graph needs at least one node")
        if adj.shape != (self.n, self.n):
            raise ValueError(f"adjacency shape {adj.shape} does not match n={self.n}")
        if not adj.diagonal().all():
            missing = np.nonzero(~adj.diagonal())[0].tolist()
            raise ValueError(f"missing self-loops at nodes {missing}")
        adj = adj.copy()
        adj.setflags(write=False)
        object.__setattr__(self, "adj", adj)

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[Tuple[int, int]]) -> "CommGraph":
        """Build a graph from (sender, receiver) pairs; self-loops are added."""
        adj = np.eye(n, dtype=bool)
        for p, q in edges:
            if not (0 <= p < n and 0 <= q < n):
                raise ValueError(f"edge ({p}, {q}) out of range for n={n}")
            adj[p, q] = True
        return cls(n, adj)

    @property
    def edges(self) -> Set[Tuple[int, int]]:
        ps, qs = np.nonzero(self.adj)
        return {(int(p), int(q)) for p, q in zip(ps, qs)}

    def __eq__(self, other):
        if not isinstance(other, CommGraph):
            return NotImplemented
        return self.n == other.n and np.array_equal(self.adj, other.adj)

    def __hash__(self):
        return hash((self.n, self.adj.tobytes()))

    def __repr__(self):
        loops = self.n
        return f"CommGraph(n={self.n}, edges={int(self.adj.sum()) - loops} + {loops} loops)"


def self_loops_only(n: int) -> CommGraph:
    return CommGraph(n, np.eye(n, dtype=bool))


def complete_graph(n: int) -> CommGraph:
    return CommGraph(n, np.ones((n, n), dtype=bool))


def in_neighbors(g: CommGraph, p: int) -> Set[int]:
    """Agents q with an edge q -> p (always includes p itself)."""
    if not (0 <= p < g.n):
        raise ValueError(f"agent {p} out of range for n={g.n}")
    return {int(q) for q in np.nonzero(g.adj[:, p])[0]}


def graph_product(g: CommGraph, h: CommGraph) -> CommGraph:
    """Relational composition: edge p->q iff p->r in g and r->q in h for some r."""
    if g.n != h.n:
        raise ValueError(f"size mismatch: {g.n} != {h.n}")
    prod = (g.adj.astype(np.uint8) @ h.adj.astype(np.uint8)) > 0
    return CommGraph(g.n, prod)


def _closure(adj: np.ndarray) -> np.ndarray:
    # transitive closure by repeated boolean squaring; adj includes the diagonal,
    # so k squarings cover all paths of length <= 2^k
    reach = adj.astype(np.uint8)
    steps = max(1, int(np.ceil(np.log2(max(adj.shape[0], 2)))))
    for _ in range(steps):
        reach = ((reach @ reach) > 0).astype(np.uint8)
    return reach.astype(bool)


def is_rooted(g: CommGraph) -> bool:
    """True iff some node reaches every node along directed edges."""
    return bool(_closure(g.adj).all(axis=1).any())


def is_strongly_connected(g: CommGraph) -> bool:
    return bool(_closure(g.adj).all())


def is_nonsplit(g: CommGraph) -> bool:
    """True iff any two nodes have a common in-neighbor."""
    common = g.adj.astype(np.uint8).T @ g.adj.astype(np.uint8)
    return bool((common > 0).all())


def is_bidirectional(g: CommGraph) -> bool:
    return bool((g.adj == g.adj.T).all())


@dataclass(frozen=True)
class CommPattern:
    """A deterministic round-indexed sequence of CommGraphs.

    ``graph_fn`` must be a pure function of the (1-based) round index; equal
    (family, n, seed) always replays the identical sequence.
    """

    n: int
    kind: NetworkModelKind
    graph_fn: Callable[[int], CommGraph]
    period: Optional[int] = None
    name: str = "pattern"

    def graph(self, t: int) -> CommGraph:
        if t < 1:
            raise ValueError(f"round indices are 1-based, got {t}")
        return self.graph_fn(t)

    def __repr__(self):
        return f"CommPattern({self.name})"


def _round_rng(seed: int, t: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((seed, t)))


def _check_params(n: int, seed: Optional[int] = None, period: Optional[int] = None):
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if seed is not None and seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    if period is not None and period < 1:
        raise ValueError(f"need period >= 1, got {period}")


def fixed(g: CommGraph) -> CommPattern:
    """The constant pattern emitting g every round."""
    return CommPattern(g.n, NetworkModelKind.FIXED_GRAPH, lambda t: g, name=f"fixed(n={g.n})")


def custom_pattern(n: int, graph_fn: Callable[[int], CommGraph], name: str = "custom") -> CommPattern:
    _check_params(n)
    return CommPattern(n, NetworkModelKind.CUSTOM, graph_fn, name=name)


def random_rooted(n: int, seed: int) -> CommPattern:
    """Each round: a random spanning chain from a random root plus random extras.

    Every node after the first (in a per-round random order) receives an edge
    from a random predecessor, so the first node reaches everyone.
    """
    _check_params(n, seed)

    def make(t: int) -> CommGraph:
        rng = _round_rng(seed, t)
        order = rng.permutation(n)
        adj = np.eye(n, dtype=bool)
        for i in range(1, n):
            parent = order[int(rng.integers(0, i))]
            adj[parent, order[i]] = True
        extra = rng.random((n, n)) < rng.uniform(0.1, 0.5)
        adj |= extra
        np.fill_diagonal(adj, True)
        return CommGraph(n, adj)

    return CommPattern(n, NetworkModelKind.ROOTED, make,
                       name=f"random-rooted(n={n}, seed={seed})")


def random_nonsplit(n: int, seed: int) -> CommPattern:
    """Each round: a random hub broadcasting to all (shared in-neighbor) plus extras."""
    _check_params(n, seed)

    def make(t: int) -> CommGraph:
        rng = _round_rng(seed, t)
        adj = np.eye(n, dtype=bool)
        hub = int(rng.integers(0, n))
        adj[hub, :] = True
        extra = rng.random((n, n)) < rng.uniform(0.0, 0.5)
        adj |= extra
        np.fill_diagonal(adj, True)
        return CommGraph(n, adj)

    return CommPattern(n, NetworkModelKind.NONSPLIT, make,
                       name=f"random-nonsplit(n={n}, seed={seed})")


def adversarial_rotating_star(n: int) -> CommPattern:
    """Round t is a star centered at agent (t mod n): only the center speaks."""
    _check_params(n)

    def make(t: int) -> CommGraph:
        adj = np.eye(n, dtype=bool)
        adj[t % n, :] = True
        return CommGraph(n, adj)

    return CommPattern(n, NetworkModelKind.ROOTED, make,
                       name=f"adversarial-rotating-star(n={n})")


def bidirectional_intermittent(n: int, period: int, seed: int) -> CommPattern:
    """Bidirectional graphs whose union over any `period` consecutive rounds is connected.

    A fixed random spanning tree is sliced across rounds: tree edge i shows up
    (in both directions) whenever t % period == i % period, so every window of
    `period` rounds sees the whole tree. Random symmetric extras each round.
    """
    _check_params(n, seed, period)
    base_rng = np.random.default_rng(np.random.SeedSequence((seed, 0)))
    perm = base_rng.permutation(n)
    # base[r]: self-loops plus the tree edges of residue r. Residues at or past
    # n - 1 carry no tree edge, so they all share the last, loops-only entry.
    base = np.broadcast_to(np.eye(n, dtype=bool), (min(period, n), n, n)).copy()
    for i in range(1, n):
        j = int(base_rng.integers(0, i))
        u, v = int(perm[i]), int(perm[j])
        r = (i - 1) % period
        base[r, u, v] = base[r, v, u] = True
    upper = np.triu(np.ones((n, n), dtype=bool), 1)

    def make(t: int) -> CommGraph:
        extra = (_round_rng(seed, t).random((n, n)) < 0.15) & upper
        adj = base[min(t % period, len(base) - 1)] | extra
        adj |= extra.T
        return CommGraph(n, adj)

    return CommPattern(n, NetworkModelKind.BIDIRECTIONAL_INTERMITTENT, make,
                       period=period,
                       name=f"bidirectional-intermittent(n={n}, period={period}, seed={seed})")


def infinitely_often_union(graphs: np.ndarray, window: int) -> CommGraph:
    """Edges present at least once in every length-`window` block of the
    (R, n, n) adjacency stack `graphs`, whose entry t - 1 is round t's graph.

    Finite proxy for the set of edges that recur forever: the stack is
    scanned in non-overlapping blocks, a trailing partial block dropped, and
    the per-block edge unions are intersected.
    """
    if window < 1:
        raise ValueError(f"need window >= 1, got {window}")
    rounds = len(graphs) // window * window
    if rounds < 1:
        raise ValueError(f"graph stack of {len(graphs)} rounds is shorter than window {window}")
    n = graphs.shape[1]
    keep = graphs[:rounds].reshape(rounds // window, window, n, n).any(axis=1).all(axis=0)
    np.fill_diagonal(keep, True)
    return CommGraph(n, keep)


def graph_to_json(g: CommGraph) -> dict:
    """Graph literal: {"n": int, "edges": [[p, q], ...]}, self-loops listed, so
    reading it back has no loop to add."""
    return {"n": g.n, "edges": [[p, q] for p, q in sorted(g.edges)]}


def graph_from_json(obj: dict) -> CommGraph:
    if not isinstance(obj, dict):
        raise ValueError("graph literal must be an object")
    unknown = set(obj) - {"n", "edges"}
    if unknown:
        raise ValueError(f"unknown graph keys: {sorted(unknown)}")
    if "n" not in obj or "edges" not in obj:
        raise ValueError("graph literal needs 'n' and 'edges'")
    n = obj["n"]
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"invalid node count: {n!r}")
    adj = np.eye(n, dtype=bool)
    has_loop = np.zeros(n, dtype=bool)
    for e in obj["edges"]:
        if not (isinstance(e, (list, tuple)) and len(e) == 2):
            raise ValueError(f"malformed edge entry: {e!r}")
        p, q = e
        if not (isinstance(p, int) and isinstance(q, int) and 0 <= p < n and 0 <= q < n):
            raise ValueError(f"edge ({p!r}, {q!r}) out of range for n={n}")
        adj[p, q] = True
        if p == q:
            has_loop[p] = True
    if not has_loop.all():
        logger.warning("graph literal missing self-loops at %s; added on load",
                       np.nonzero(~has_loop)[0].tolist())
    return CommGraph(n, adj)
