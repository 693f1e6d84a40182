"""Directed communication graphs with self-loops and round-indexed graph sequences.

Agents are 0-indexed. ``adj[p, q] == True`` means agent p sends to agent q in
that round; every graph carries all self-loops, so an agent always hears itself.
Rounds are 1-based: a pattern's round-t graph governs the transition from the
configuration after round t-1 to the one after round t.

A pattern generates a block of rounds at once (`CommPattern.rounds`), as one
(k, n, n) boolean array; `CommPattern.graph(t)` is the one-round block.
Round t of a random family still draws from its own stream, that of
``default_rng(SeedSequence((seed, t)))``: a block computes those streams'
seeds together and reuses one Generator for all its rounds.
`RoundGraphs` keeps a pattern's rounds as one stack, filled a block at a time.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, List, Optional, Set, Tuple

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
    """A deterministic round-indexed sequence of graphs, generated a block at a time.

    ``fill_fn(t0, out)`` writes the adjacencies of rounds t0, t0 + 1, ...
    (1-based) into the (k, n, n) boolean array ``out``. It must be a pure
    function of the round indices, so equal (family, n, seed) always replays
    the identical sequence and a block reads the same as its rounds one at a
    time. ``nonsplit`` and ``rooted`` say what the family guarantees of every
    round's graph: the hypotheses under which the round bounds hold.
    """

    n: int
    fill_fn: Callable[[int, np.ndarray], None]
    period: Optional[int] = None
    name: str = "pattern"
    nonsplit: bool = False
    rooted: bool = False

    def rounds(self, t0: int, t1: int, out: Optional[np.ndarray] = None) -> np.ndarray:
        """Rounds t0..t1-1 as a (t1 - t0, n, n) boolean array, written into
        `out` when given; every round's self-loops are checked at once."""
        if not 1 <= t0 < t1:
            raise ValueError(f"round indices are 1-based, got the rounds {t0}..{t1 - 1}")
        if out is None:
            out = np.empty((t1 - t0, self.n, self.n), dtype=bool)
        self.fill_fn(t0, out)
        loops = np.diagonal(out, axis1=1, axis2=2)
        if not loops.all():
            k, p = np.argwhere(~loops)[0]
            raise ValueError(f"round {t0 + k} has no self-loop at node {p}")
        return out

    def graph(self, t: int) -> CommGraph:
        """Round t's graph: the one-round block."""
        return CommGraph(self.n, self.rounds(t, t + 1)[0])

    def __repr__(self):
        return f"CommPattern({self.name})"


def per_round(graph_fn: Callable[[int], CommGraph]) -> Callable[[int, np.ndarray], None]:
    """The `CommPattern.fill_fn` of a pattern given as a function of one round."""
    def fill(t0: int, out: np.ndarray) -> None:
        for i in range(len(out)):
            out[i] = graph_fn(t0 + i).adj
    return fill


# A round-by-round reader that misses fills at least this many rounds: a
# run's first block. Of 8, 16 and 32, 16 generated the round graphs of the
# benchmark's `run` calls in the least CPU time: each block pays one seeding
# pass, and rounds past the run's last are generated for nothing.
READ_AHEAD = 16


class RoundGraphs:
    """The round graphs of one pattern as an (R, n, n) adjacency stack whose
    entry t - 1 is round t's graph.

    Rounds are generated through `pattern.rounds` a block at a time and
    kept: whoever reads the same rounds again (the audits after the engine,
    a sweep scenario after its sibling) reads the stack, so no round is
    generated twice. `first(T)` generates exactly the rounds it lacks up to
    T. `adj(t)`, read round by round, fills ahead on a miss, to
    max(t, 2·filled, READ_AHEAD) rounds, so reading rounds 1..T generates at
    most max(READ_AHEAD, 2T). It holds R·n² bytes.
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
        self.pattern.rounds(self._filled + 1, rounds + 1, out=self._buf[self._filled:rounds])
        self._filled = rounds

    def first(self, rounds: int) -> np.ndarray:
        """Read-only (rounds, n, n) view of rounds 1..rounds."""
        if rounds > self._filled:
            self._fill(rounds)
        return self._adj[:rounds]

    def adj(self, t: int) -> np.ndarray:
        """Round t's (n, n) adjacency (t >= 1), read-only."""
        if t > self._filled:
            self._fill(max(t, 2 * self._filled, READ_AHEAD))
        return self._adj[t - 1]


# Round t of a random family draws from the stream of
# default_rng(SeedSequence((seed, t))), a PCG64 generator (O'Neill 2014)
# seeded through numpy's SeedSequence hash. _pcg64_states runs that hash
# (numpy/random/bit_generator.pyx) on uint32 arrays with one column per
# round, and PCG64's seeding step on the result, so a block of rounds costs
# one vectorized pass and one Generator instead of one SeedSequence and one
# Generator per round.
_MASK32, _MASK128 = 2**32 - 1, 2**128 - 1
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
# the hash constant of pool mixing and of generate_state: its first value
# and the factor that steps it
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
# 0-d arrays, which numpy applies faster than scalars to small arrays
_MIX_L, _MIX_R, _SHIFT = (np.array(c, dtype=np.uint32) for c in (0xCA01F9DD, 0x4973F715, 16))


def _hash_steps(init: int, mult: int, count: int) -> Tuple[np.ndarray, np.ndarray, int]:
    """The (xor, multiplier) columns of `count` consecutive hash steps from
    the hash constant `init`, and the constant after them."""
    chain = [init]
    for _ in range(count):
        chain.append(chain[-1] * mult & _MASK32)
    cols = np.array(chain, dtype=np.uint32)[:, None]
    return cols[:-1], cols[1:], chain[-1]


_LOAD_X, _LOAD_M, _LOADED = _hash_steps(_INIT_A, _MULT_A, 4)
_MIXING_X, _MIXING_M, _MIXED = _hash_steps(_LOADED, _MULT_A, 12)
# mixing stage s hashes pool word s into each other word in turn, with the
# next three steps; row s, whose result is discarded, takes any of them
_STAGES = [(_MIXING_X[rows], _MIXING_M[rows]) for rows in
           ([3 * s + d - (d > s) if d != s else 3 * s for d in range(4)] for s in range(4))]
_GEN_X, _GEN_M = _hash_steps(_INIT_B, _MULT_B, 8)[:2]
_CYCLE = np.array([0, 1, 2, 3, 0, 1, 2, 3])


def _hashmix(value: np.ndarray, x: np.ndarray, m: np.ndarray) -> np.ndarray:
    h = np.bitwise_xor(value, x)
    h *= m
    h ^= h >> _SHIFT
    return h


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    # consumes y
    r = x * _MIX_L
    y *= _MIX_R
    r -= y
    r ^= r >> _SHIFT
    return r


def _words(x: int) -> List[int]:
    # SeedSequence's entropy words of a nonnegative int, low word first
    words = [x & _MASK32]
    while x > _MASK32:
        x >>= 32
        words.append(x & _MASK32)
    return words


def _pcg64_states(seed: int, t0: int, t1: int) -> List[Tuple[int, int]]:
    """The PCG64 (state, inc) of default_rng(SeedSequence((seed, t))) for
    t = t0..t1-1, computed in one pass over the rounds."""
    if t1 > 2**64:
        raise ValueError(f"round indices stop at 2**64 - 1, got {t1 - 1}")
    seed_words = _words(seed)
    states = []
    # t's entropy is one word below 2**32 and two from there on
    for a, b in ((t0, min(t1, 2**32)), (max(t0, 2**32), t1)):
        if a >= b:
            continue
        ts = np.arange(a, b, dtype=np.uint64)
        entropy = np.empty((len(seed_words) + len(_words(a)), b - a), dtype=np.uint32)
        entropy[:len(seed_words)] = np.array(seed_words, dtype=np.uint32)[:, None]
        entropy[len(seed_words)] = ts
        entropy[len(seed_words) + 1:] = ts >> np.uint64(32)
        # load the pool, zero-padded to 4 words; mix each word into the
        # other three; then mix each entropy word past the fourth into all
        pool = np.zeros((4, b - a), dtype=np.uint32)
        pool[:len(entropy)] = entropy[:4]
        pool = _hashmix(pool, _LOAD_X, _LOAD_M)
        for src, (x, m) in enumerate(_STAGES):
            mixed = _mix(pool, _hashmix(pool[src], x, m))
            mixed[src] = pool[src]
            pool = mixed
        if len(entropy) > 4:
            xs, ms, _ = _hash_steps(_MIXED, _MULT_A, 4 * (len(entropy) - 4))
            for i, word in enumerate(entropy[4:]):
                pool = _mix(pool, _hashmix(word, xs[4 * i:4 * i + 4], ms[4 * i:4 * i + 4]))
        # generate_state(4, uint64): 8 words drawn cycling over the pool,
        # paired little-endian into (seed high, seed low, inc high, inc low)
        words = _hashmix(pool[_CYCLE], _GEN_X, _GEN_M)
        pairs = np.ascontiguousarray(words.T, dtype="<u4").view("<u8")
        for s_hi, s_lo, i_hi, i_lo in pairs.tolist():
            # pcg64_set_seed: inc = 2i + 1, then two LCG steps from state 0,
            # adding the seed between them
            inc = ((i_hi << 64 | i_lo) << 1 | 1) & _MASK128
            states.append((((inc + (s_hi << 64 | s_lo)) * _PCG64_MULT + inc) & _MASK128, inc))
    return states


def _round_streams(seed: int, t0: int, t1: int) -> Iterator[np.random.Generator]:
    """One Generator, set in turn to the stream of each round t = t0..t1-1."""
    rng = np.random.Generator(np.random.PCG64(0))
    bits = rng.bit_generator
    for state, inc in _pcg64_states(seed, t0, t1):
        bits.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                      "has_uint32": 0, "uinteger": 0}
        yield rng


def _add_loops(out: np.ndarray) -> None:
    idx = np.arange(out.shape[1])
    out[:, idx, idx] = True


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
    return CommPattern(g.n, per_round(lambda t: g), name=f"fixed(n={g.n})",
                       nonsplit=nonsplit, rooted=nonsplit or is_rooted(g))


def random_rooted(n: int, seed: int) -> CommPattern:
    """Each round: a random spanning chain from a random root plus random extras.

    Every node after the first (in a per-round random order) receives an edge
    from a random predecessor, so the first node reaches everyone.
    """
    _check_params(n, seed)
    bounds = np.arange(1, n)

    def fill(t0: int, out: np.ndarray) -> None:
        k = len(out)
        order = np.empty((k, n), dtype=np.intp)
        parents = np.empty((k, n - 1), dtype=np.intp)
        draws = np.empty((n, n))
        for i, rng in enumerate(_round_streams(seed, t0, t0 + k)):
            order[i] = rng.permutation(n)
            # node order[i] hears from order[j], j drawn from [0, i): one vector
            # draw takes the same numbers from the stream as n - 1 scalar draws
            parents[i] = rng.integers(0, bounds)
            rng.random(out=draws)
            np.less(draws, rng.uniform(0.1, 0.5), out=out[i])
        senders = np.take_along_axis(order, parents, axis=1)
        out[np.arange(k)[:, None], senders, order[:, 1:]] = True
        _add_loops(out)

    return CommPattern(n, fill, name=f"random-rooted(n={n}, seed={seed})", rooted=True)


def random_nonsplit(n: int, seed: int) -> CommPattern:
    """Each round: a random hub broadcasting to all (shared in-neighbor) plus extras."""
    _check_params(n, seed)

    def fill(t0: int, out: np.ndarray) -> None:
        hubs = np.empty(len(out), dtype=np.intp)
        draws = np.empty((n, n))
        for i, rng in enumerate(_round_streams(seed, t0, t0 + len(out))):
            hubs[i] = rng.integers(0, n)
            rng.random(out=draws)
            np.less(draws, rng.uniform(0.0, 0.5), out=out[i])
        out[np.arange(len(out)), hubs] = True
        _add_loops(out)

    return CommPattern(n, fill, name=f"random-nonsplit(n={n}, seed={seed})",
                       nonsplit=True, rooted=True)


def adversarial_rotating_star(n: int) -> CommPattern:
    """Round t is a star centered at agent (t mod n): only the center speaks."""
    _check_params(n)

    def fill(t0: int, out: np.ndarray) -> None:
        k = np.arange(len(out))
        out[...] = False
        out[k, (t0 % n + k) % n] = True
        _add_loops(out)

    return CommPattern(n, fill, name=f"adversarial-rotating-star(n={n})", rooted=True)


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

    def fill(t0: int, out: np.ndarray) -> None:
        draws = np.empty((n, n))
        for i, rng in enumerate(_round_streams(seed, t0, t0 + len(out))):
            rng.random(out=draws)
            np.less(draws, 0.15, out=out[i])
        out &= upper
        out |= out.transpose(0, 2, 1)  # numpy reads an overlapping operand from a copy
        # in Python ints: a period past int64 is valid
        out |= base[[min((t0 + i) % period, len(base) - 1) for i in range(len(out))]]

    return CommPattern(n, fill, period=period,
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
