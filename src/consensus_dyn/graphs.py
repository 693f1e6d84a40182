"""Directed communication graphs with self-loops and round-indexed graph sequences.

Agents are 0-indexed. ``adj[p, q] == True`` means agent p sends to agent q in
that round; every graph carries all self-loops, so an agent always hears itself.
Rounds are 1-based: a pattern's round-t graph governs the transition from the
configuration after round t-1 to the one after round t.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Set, Tuple

import numpy as np

logger = logging.getLogger(__name__)


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


@dataclass(frozen=True)
class CommPattern:
    """A deterministic round-indexed sequence of CommGraphs.

    ``graph_fn`` must be a pure function of the (1-based) round index; equal
    (family, n, seed) always replays the identical sequence. ``nonsplit`` and
    ``rooted`` say what the family guarantees of every round's graph: the
    hypotheses under which the round bounds hold.
    """

    n: int
    graph_fn: Callable[[int], CommGraph]
    period: Optional[int] = None
    name: str = "pattern"
    nonsplit: bool = False
    rooted: bool = False

    def graph(self, t: int) -> CommGraph:
        if t < 1:
            raise ValueError(f"round indices are 1-based, got {t}")
        return self.graph_fn(t)

    def __repr__(self):
        return f"CommPattern({self.name})"


class RoundGraphs:
    """The round graphs of one pattern as an (R, n, n) adjacency stack whose
    entry t - 1 is round t's graph.

    Rounds are generated through `pattern.graph`, in order, the first time
    they are asked for, and kept: whoever reads the same rounds again (the
    audits after the engine, a sweep scenario after its sibling) reads the
    stack. It holds R·n² bytes.
    """

    def __init__(self, pattern: CommPattern):
        self.pattern = pattern
        self.n = pattern.n
        self._filled = 0
        self._grow(0)

    def _grow(self, capacity: int) -> None:
        # written through _buf, read through its read-only alias _adj, so no
        # reader can change a round that another reader will see
        buf = np.empty((capacity, self.n, self.n), dtype=bool)
        if self._filled:
            buf[:self._filled] = self._buf[:self._filled]
        self._buf, self._adj = buf, buf.view()
        self._adj.flags.writeable = False

    def _fill(self, rounds: int) -> None:
        if rounds > len(self._buf):
            self._grow(max(rounds, 2 * len(self._buf)))
        for t in range(self._filled + 1, rounds + 1):
            self._buf[t - 1] = self.pattern.graph(t).adj
        self._filled = rounds

    def first(self, rounds: int) -> np.ndarray:
        """Read-only (rounds, n, n) view of rounds 1..rounds."""
        if rounds > self._filled:
            self._fill(rounds)
        return self._adj[:rounds]

    def adj(self, t: int) -> np.ndarray:
        """Round t's (n, n) adjacency (t >= 1), read-only."""
        if t > self._filled:
            self._fill(t)
        return self._adj[t - 1]


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
    nonsplit = is_nonsplit(g)
    return CommPattern(g.n, lambda t: g, name=f"fixed(n={g.n})",
                       nonsplit=nonsplit, rooted=nonsplit or is_rooted(g))


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
        # node order[i] hears from order[j], j drawn from [0, i): one vector
        # draw takes the same numbers from the stream as n - 1 scalar draws
        parents = rng.integers(0, np.arange(1, n))
        adj[order[parents], order[1:]] = True
        extra = rng.random((n, n)) < rng.uniform(0.1, 0.5)
        adj |= extra
        np.fill_diagonal(adj, True)
        return CommGraph(n, adj)

    return CommPattern(n, make, name=f"random-rooted(n={n}, seed={seed})", rooted=True)


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

    return CommPattern(n, make, name=f"random-nonsplit(n={n}, seed={seed})",
                       nonsplit=True, rooted=True)


def adversarial_rotating_star(n: int) -> CommPattern:
    """Round t is a star centered at agent (t mod n): only the center speaks."""
    _check_params(n)

    def make(t: int) -> CommGraph:
        adj = np.eye(n, dtype=bool)
        adj[t % n, :] = True
        return CommGraph(n, adj)

    return CommPattern(n, make, name=f"adversarial-rotating-star(n={n})", rooted=True)


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

    return CommPattern(n, make, period=period,
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


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def graph_from_json(obj: dict) -> CommGraph:
    if not isinstance(obj, dict):
        raise ValueError("graph literal must be an object")
    unknown = set(obj) - {"n", "edges"}
    if unknown:
        raise ValueError(f"unknown graph keys: {sorted(unknown)}")
    if "n" not in obj or not isinstance(obj.get("edges"), list):
        raise ValueError("graph literal needs 'n' and a list of 'edges'")
    n = obj["n"]
    if not _is_int(n) or n < 1:
        raise ValueError(f"invalid node count: {n!r}")
    adj = np.eye(n, dtype=bool)
    has_loop = np.zeros(n, dtype=bool)
    for e in obj["edges"]:
        if not (isinstance(e, (list, tuple)) and len(e) == 2):
            raise ValueError(f"malformed edge entry: {e!r}")
        p, q = e
        if not (_is_int(p) and _is_int(q) and 0 <= p < n and 0 <= q < n):
            raise ValueError(f"edge ({p!r}, {q!r}) out of range for n={n}")
        adj[p, q] = True
        if p == q:
            has_loop[p] = True
    if not has_loop.all():
        logger.warning("graph literal missing self-loops at %s; added on load",
                       np.nonzero(~has_loop)[0].tolist())
    return CommGraph(n, adj)
