import logging

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from consensus_dyn.graphs import (
    READ_AHEAD,
    CommPattern,
    RoundGraphs,
    adversarial_rotating_star,
    bidirectional_intermittent,
    fixed,
    graph_from_json,
    graph_to_json,
    infinitely_often_union,
    is_nonsplit,
    is_rooted,
    is_strongly_connected,
    random_nonsplit,
    random_rooted,
    _pcg64_states,
)
from oracles import (
    from_edges,
    graph_product,
    in_neighbors,
    is_bidirectional,
    per_round,
    round_rng,
    rounds_read_ahead,
)


def _bfs_reachable(adj, start):
    # independent reachability oracle (plain BFS over the adjacency relation)
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for u in frontier:
            for v in range(len(adj)):
                if adj[u, v] and v not in seen:
                    seen.add(v)
                    nxt.append(v)
        frontier = nxt
    return seen


def _random_rooted_graph(n, rng):
    while True:
        adj = rng.random((n, n)) < rng.uniform(0.15, 0.5)
        np.fill_diagonal(adj, True)
        if is_rooted(adj):
            return adj


def star_graph(n, center):
    adj = np.eye(n, dtype=bool)
    adj[center, :] = True
    return adj


def test_fixed_checks_its_graph():
    adj = np.zeros((2, 2), dtype=bool)
    adj[0, 0] = True
    with pytest.raises(ValueError, match=r"^missing self-loops at nodes \[1\]$"):
        fixed(adj)
    with pytest.raises(ValueError, match=r"^adjacency shape \(2, 3\) does not match n=2$"):
        fixed(np.ones((2, 3), dtype=bool))
    with pytest.raises(ValueError, match=r"^adjacency shape \(3,\) does not match n=3$"):
        fixed(np.ones(3, dtype=bool))
    for empty in (np.zeros((0, 0), dtype=bool), []):
        with pytest.raises(ValueError, match="^graph needs at least one node$"):
            fixed(empty)


def test_fixed_keeps_its_own_copy():
    adj = np.eye(3, dtype=bool)
    pattern = fixed(adj)
    adj[0, 1] = True
    assert np.array_equal(pattern.rounds(1, 5), np.broadcast_to(np.eye(3, dtype=bool), (4, 3, 3)))
    assert not pattern.rooted


def test_in_neighbors_complete():
    assert in_neighbors(np.ones((3, 3), dtype=bool), 0) == {0, 1, 2}


def test_in_neighbors_self_loops_only():
    assert in_neighbors(np.eye(3, dtype=bool), 1) == {1}


def test_in_neighbors_star():
    # center 0 sends to all leaves; leaf 2 hears the center and itself
    assert in_neighbors(star_graph(4, 0), 2) == {0, 2}


def test_in_neighbors_validates_agent():
    with pytest.raises(ValueError):
        in_neighbors(np.ones((3, 3), dtype=bool), 3)


def test_graph_product_identity():
    g = np.eye(4, dtype=bool)
    assert np.array_equal(graph_product(g, g), g)


@pytest.mark.parametrize("n", [3, 256])
def test_graph_product_complete_absorbing(n):
    g = np.ones((n, n), dtype=bool)
    assert np.array_equal(graph_product(g, g), g)


def test_graph_product_composition():
    g = from_edges(3, [(0, 1)])
    h = from_edges(3, [(1, 2)])
    expected = from_edges(3, [(0, 1), (1, 2), (0, 2)])
    assert np.array_equal(graph_product(g, h), expected)


def test_graph_product_size_mismatch():
    with pytest.raises(ValueError):
        graph_product(np.eye(2, dtype=bool), np.eye(3, dtype=bool))


def test_is_rooted_cycle():
    g = from_edges(3, [(0, 1), (1, 2), (2, 0)])
    assert is_rooted(g)


def test_is_rooted_disconnected():
    assert not is_rooted(np.eye(2, dtype=bool))


def test_is_rooted_star():
    assert is_rooted(star_graph(5, 0))
    # reversed star: leaves send to center, nobody reaches the leaves
    adj = np.eye(5, dtype=bool)
    adj[:, 0] = True
    assert not is_rooted(adj)


def test_is_rooted_matches_bfs_oracle():
    rng = np.random.default_rng(5)
    for _ in range(200):
        n = int(rng.integers(2, 8))
        adj = rng.random((n, n)) < rng.uniform(0.05, 0.6)
        np.fill_diagonal(adj, True)
        brute = any(len(_bfs_reachable(adj, p)) == n for p in range(n))
        assert is_rooted(adj) == brute


def test_is_nonsplit_examples():
    assert is_nonsplit(np.ones((3, 3), dtype=bool))
    assert not is_nonsplit(np.eye(2, dtype=bool))


def test_is_nonsplit_product_of_rooted():
    rng = np.random.default_rng(42)
    n = 4
    for _ in range(50):
        g = _random_rooted_graph(n, rng)
        h = _random_rooted_graph(n, rng)
        k = _random_rooted_graph(n, rng)
        assert is_nonsplit(graph_product(graph_product(g, h), k))


def test_products_of_rooted_are_nonsplit_small():
    # n-1 rooted factors, small-n version of the full acceptance sweep
    rng = np.random.default_rng(7)
    for n in range(2, 7):
        for _ in range(100):
            prod = _random_rooted_graph(n, rng)
            for _ in range(n - 2):
                prod = graph_product(prod, _random_rooted_graph(n, rng))
            assert is_nonsplit(prod)


def test_nonsplit_implies_rooted_sampled():
    rng = np.random.default_rng(3)
    found = 0
    for _ in range(400):
        n = int(rng.integers(2, 8))
        adj = rng.random((n, n)) < rng.uniform(0.2, 0.8)
        np.fill_diagonal(adj, True)
        if is_nonsplit(adj):
            found += 1
            assert is_rooted(adj)
    assert found > 50


def test_graph_product_associative():
    rng = np.random.default_rng(11)
    for _ in range(50):
        n = int(rng.integers(2, 7))
        gs = []
        for _ in range(3):
            adj = rng.random((n, n)) < 0.4
            np.fill_diagonal(adj, True)
            gs.append(adj)
        g, h, k = gs
        assert np.array_equal(graph_product(graph_product(g, h), k),
                              graph_product(g, graph_product(h, k)))


def test_is_bidirectional():
    assert is_bidirectional(np.eye(3, dtype=bool))
    assert not is_bidirectional(from_edges(2, [(0, 1)]))
    assert is_bidirectional(from_edges(2, [(0, 1), (1, 0)]))


def test_is_strongly_connected():
    assert is_strongly_connected(from_edges(3, [(0, 1), (1, 2), (2, 0)]))
    assert not is_strongly_connected(star_graph(3, 0))


@pytest.mark.parametrize("n", [255, 256, 512])
def test_predicates_hold_past_255_nodes(n):
    # a path count in a byte wraps to 0 at 256 common in-neighbours or paths;
    # the predicates must read only whether one exists
    complete = np.ones((n, n), dtype=bool)
    assert is_rooted(complete) and is_nonsplit(complete) and is_strongly_connected(complete)
    star = star_graph(n, 0)
    assert is_rooted(star) and is_nonsplit(star) and not is_strongly_connected(star)
    halves = np.zeros((n, n), dtype=bool)
    halves[:n // 2, :n // 2] = halves[n // 2:, n // 2:] = True
    assert not (is_rooted(halves) or is_nonsplit(halves) or is_strongly_connected(halves))


def test_infinitely_often_union_fixed():
    g = from_edges(4, [(0, 1), (2, 3)])
    stack = np.stack([g] * 100)
    assert np.array_equal(infinitely_often_union(stack, 1), g)
    assert np.array_equal(infinitely_often_union(stack, 7), g)


def test_infinitely_often_union_alternating():
    a = from_edges(3, [(0, 1), (1, 0)])
    b = from_edges(3, [(1, 2), (2, 1)])
    stack = np.stack([a, b] * 50)
    expected = from_edges(3, [(0, 1), (1, 0), (1, 2), (2, 1)])
    assert np.array_equal(infinitely_often_union(stack, 2), expected)


def test_infinitely_often_union_drops_transient_edge():
    base = np.eye(2, dtype=bool)
    once = from_edges(2, [(0, 1)])
    stack = np.stack([once, base, base, base])
    assert np.array_equal(infinitely_often_union(stack, 2), base)


def test_infinitely_often_union_validates_window():
    with pytest.raises(ValueError):
        infinitely_often_union(np.stack([np.eye(2, dtype=bool)] * 100), 0)
    with pytest.raises(ValueError):
        infinitely_often_union(np.stack([np.eye(2, dtype=bool)] * 3), 4)


def test_random_rooted_generator():
    pattern = random_rooted(4, seed=7)
    assert pattern.rooted and not pattern.nonsplit
    for g in pattern.rounds(1, 1001):
        assert g.shape == (4, 4)
        assert g.diagonal().all()
        assert is_rooted(g)


def test_random_nonsplit_generator():
    pattern = random_nonsplit(5, seed=1)
    assert pattern.nonsplit and pattern.rooted
    for g in pattern.rounds(1, 501):
        assert g.diagonal().all()
        assert is_nonsplit(g)


def test_fixed_pattern_classes_come_from_its_graph():
    # a fixed pattern guarantees what its one graph is
    for g, nonsplit, rooted in ((np.ones((4, 4), dtype=bool), True, True),
                                (star_graph(4, 0), True, True),
                                (from_edges(3, [(0, 1), (1, 2)]), False, True),
                                (from_edges(4, [(0, 1), (2, 3)]), False, False),
                                (np.eye(1, dtype=bool), True, True)):
        pattern = fixed(g)
        assert (pattern.nonsplit, pattern.rooted) == (nonsplit, rooted)
    # a pattern built directly guarantees nothing unless told
    plain = CommPattern(2, per_round(lambda t: np.ones((2, 2), dtype=bool)))
    assert not (plain.nonsplit or plain.rooted)


def test_adversarial_rotating_star():
    pattern = adversarial_rotating_star(4)
    assert pattern.rooted and not pattern.nonsplit
    for t, g in enumerate(pattern.rounds(1, 9), start=1):
        assert np.array_equal(g, star_graph(4, t % 4))
        assert is_rooted(g)


def test_bidirectional_intermittent_generator():
    pattern = bidirectional_intermittent(3, period=5, seed=2)
    assert pattern.period == 5
    assert not (pattern.nonsplit or pattern.rooted)
    graphs = {t: pattern.rounds(t, t + 1)[0] for t in range(1, 61)}
    for g in graphs.values():
        assert is_bidirectional(g)
        assert g.diagonal().all()
    # union over any 5 consecutive rounds is connected
    for start in range(1, 56):
        union = np.eye(3, dtype=bool)
        for t in range(start, start + 5):
            union |= graphs[t]
        assert is_strongly_connected(union)


def _old_bidirectional_make(n, period, seed):
    # the round-graph constructor before the per-residue tree masks, kept
    # verbatim as the reference for the precomputed version
    base_rng = np.random.default_rng(np.random.SeedSequence((seed, 0)))
    perm = base_rng.permutation(n)
    tree_edges = []
    for i in range(1, n):
        j = int(base_rng.integers(0, i))
        tree_edges.append((int(perm[i]), int(perm[j])))

    def make(t):
        rng = round_rng(seed, t)
        adj = np.eye(n, dtype=bool)
        for i, (u, v) in enumerate(tree_edges):
            if t % period == i % period:
                adj[u, v] = True
                adj[v, u] = True
        extra = np.triu(rng.random((n, n)) < 0.15, 1)
        adj |= extra | extra.T
        return adj

    return make


@pytest.mark.parametrize("n, period, seed", [(6, 6, 5), (8, 11, 835194), (16, 20, 3),
                                             (3, 1, 0), (1, 1, 0), (5, 2, 9)])
def test_bidirectional_intermittent_matches_per_edge_constructor(n, period, seed):
    pattern = bidirectional_intermittent(n, period=period, seed=seed)
    make = _old_bidirectional_make(n, period, seed)
    for t in range(1, 600):
        assert np.array_equal(pattern.rounds(t, t + 1)[0], make(t)), t


def _scalar_rooted_adj(n, seed, t):
    # random_rooted's round graph with its spanning chain drawn one scalar
    # rng.integers call per node, as it was first written
    rng = round_rng(seed, t)
    order = rng.permutation(n)
    adj = np.eye(n, dtype=bool)
    for i in range(1, n):
        parent = order[int(rng.integers(0, i))]
        adj[parent, order[i]] = True
    extra = rng.random((n, n)) < rng.uniform(0.1, 0.5)
    adj |= extra
    np.fill_diagonal(adj, True)
    return adj


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32), n=st.integers(1, 40), t=st.integers(1, 10**6))
def test_random_rooted_matches_scalar_chain_draws(seed, n, t):
    # the vector draw takes the same numbers from the stream, so the extras
    # drawn after it, and the whole adjacency, are bit for bit the same
    assert np.array_equal(random_rooted(n, seed).rounds(t, t + 1)[0],
                          _scalar_rooted_adj(n, seed, t))


def _nonsplit_adj(n, seed, t):
    # random_nonsplit's round graph, drawn round by round as it was first written
    rng = round_rng(seed, t)
    adj = np.eye(n, dtype=bool)
    hub = int(rng.integers(0, n))
    adj[hub, :] = True
    extra = rng.random((n, n)) < rng.uniform(0.0, 0.5)
    adj |= extra
    np.fill_diagonal(adj, True)
    return adj


SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 + 5, 2**64 + 2**33 + 7, 2**400 + 12345]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("t0, t1", [(1, 2), (2**32 - 1, 2**32), (2**32, 2**32 + 1),
                                    (2**32 - 3, 2**32 + 3)])
def test_block_streams_are_the_per_round_streams(seed, t0, t1):
    # one, two, three and thirteen entropy words of seed, one and two of t,
    # and a block whose rounds change from one word of t to two
    want = []
    for t in range(t0, t1):
        state = round_rng(seed, t).bit_generator.state["state"]
        want.append((state["state"], state["inc"]))
    assert _pcg64_states(seed, t0, t1) == want


def test_block_streams_stop_below_two_to_the_64():
    assert len(_pcg64_states(3, 2**64 - 1, 2**64)) == 1
    with pytest.raises(ValueError, match="2\\*\\*64 - 1"):
        _pcg64_states(3, 2**64 - 1, 2**64 + 1)


FAMILIES = {
    "random-rooted": (lambda n, seed, period: random_rooted(n, seed),
                      lambda n, seed, period: lambda t: _scalar_rooted_adj(n, seed, t)),
    "random-nonsplit": (lambda n, seed, period: random_nonsplit(n, seed),
                        lambda n, seed, period: lambda t: _nonsplit_adj(n, seed, t)),
    "bidirectional-intermittent": (
        lambda n, seed, period: bidirectional_intermittent(n, period, seed),
        lambda n, seed, period: _old_bidirectional_make(n, period, seed)),
    "rotating-star": (lambda n, seed, period: adversarial_rotating_star(n),
                      lambda n, seed, period: lambda t: star_graph(n, t % n)),
}


@settings(max_examples=200, deadline=None)
@given(family=st.sampled_from(sorted(FAMILIES)), n=st.integers(1, 40), seed=st.integers(0, 2**32),
       period=st.integers(1, 50), t0=st.integers(1, 10**6), k=st.integers(1, 70))
def test_block_is_the_stack_of_per_round_graphs(family, n, seed, period, t0, k):
    build, reference = FAMILIES[family]
    block = build(n, seed, period).rounds(t0, t0 + k)
    make = reference(n, seed, period)
    assert block.dtype == bool and block.shape == (k, n, n)
    assert np.array_equal(block, np.stack([make(t) for t in range(t0, t0 + k)]))


def test_round_graphs_stack_generates_each_round_once(monkeypatch):
    pattern = random_nonsplit(5, seed=4)
    want = np.stack([_nonsplit_adj(5, 4, t) for t in range(1, 4 * READ_AHEAD + 1)])
    stack = RoundGraphs(pattern)
    blocks = []
    rounds = CommPattern.rounds
    monkeypatch.setattr(CommPattern, "rounds", lambda self, t0, t1, out=None:
                        blocks.append((t0, t1)) or rounds(self, t0, t1, out))
    # a round-by-round read that misses fills ahead to READ_AHEAD rounds
    assert np.array_equal(stack.adj(3), want[2])
    first = stack.first(2)
    # first() generates exactly the rounds it lacks, and nothing it has
    assert np.array_equal(stack.first(READ_AHEAD + 7), want[:READ_AHEAD + 7])
    assert np.array_equal(stack.first(4), want[:4])
    # a miss past the filled rounds fills to twice them
    assert np.array_equal(stack.adj(READ_AHEAD + 8), want[READ_AHEAD + 7])
    assert blocks == [(1, READ_AHEAD + 1), (READ_AHEAD + 1, READ_AHEAD + 8),
                      (READ_AHEAD + 8, 2 * (READ_AHEAD + 7) + 1)]
    assert np.array_equal(stack.first(2 * (READ_AHEAD + 7)), want[:2 * (READ_AHEAD + 7)])
    assert len(blocks) == 3
    assert np.array_equal(first, stack.first(2))
    with pytest.raises(ValueError):
        first[0, 0, 1] = True


@pytest.mark.parametrize("rounds", [0, 1, READ_AHEAD - 1, READ_AHEAD, READ_AHEAD + 1, 1000])
def test_reading_round_by_round_generates_the_read_ahead_count(monkeypatch, rounds):
    # each round once, in blocks, and at most max(READ_AHEAD, 2 * rounds)
    generated = []
    fill = CommPattern.rounds
    monkeypatch.setattr(CommPattern, "rounds", lambda self, t0, t1, out=None:
                        generated.extend(range(t0, t1)) or fill(self, t0, t1, out))
    stack = RoundGraphs(adversarial_rotating_star(3))
    for t in range(1, rounds + 1):
        assert np.array_equal(stack.adj(t), star_graph(3, t % 3))
    assert generated == list(range(1, rounds_read_ahead(rounds, READ_AHEAD) + 1))
    assert len(generated) <= max(READ_AHEAD, 2 * rounds)


def test_pattern_blocks_check_every_rounds_self_loops():
    def fill(t0, out):
        out[...] = True
        out[2, 1, 1] = False
    with pytest.raises(ValueError, match="round 7 has no self-loop at node 1"):
        CommPattern(3, fill).rounds(5, 9)


def test_generator_determinism():
    a = random_rooted(6, seed=11)
    b = random_rooted(6, seed=11)
    for t in range(1, 10001):
        assert np.array_equal(a.rounds(t, t + 1)[0], b.rounds(t, t + 1)[0])
    c = random_rooted(6, seed=12)
    assert not np.array_equal(a.rounds(1, 50), c.rounds(1, 50))


def test_generator_validation():
    with pytest.raises(ValueError):
        random_rooted(0, seed=1)
    with pytest.raises(ValueError):
        bidirectional_intermittent(3, period=0, seed=1)
    with pytest.raises(ValueError):
        random_nonsplit(3, seed=-1)


@pytest.mark.parametrize("pattern", [random_nonsplit(5, seed=3), random_rooted(5, seed=3),
                                     adversarial_rotating_star(5),
                                     bidirectional_intermittent(5, period=3, seed=3)],
                         ids=repr)
def test_graph_record_is_the_one_round_block(pattern):
    # the benchmark's checker reads a round as np.array(pattern.graph(t).adj)
    for t in range(1, 20):
        g = pattern.graph(t)
        assert g.n == 5 and not g.adj.flags.writeable
        assert np.array_equal(np.array(g.adj, dtype=bool), pattern.rounds(t, t + 1)[0])


def test_pattern_rounds_are_one_based():
    pattern = random_rooted(3, seed=0)
    with pytest.raises(ValueError):
        pattern.rounds(0, 1)


def test_graph_json_round_trip():
    g = from_edges(3, [(0, 1), (1, 2)])
    literal = graph_to_json(g)
    assert literal == {"n": 3, "edges": [[0, 0], [0, 1], [1, 1], [1, 2], [2, 2]]}
    back = graph_from_json(literal)
    assert np.array_equal(back, g) and back.dtype == bool and not back.flags.writeable


def test_graph_json_adds_missing_self_loops(caplog):
    with caplog.at_level(logging.WARNING, logger="consensus_dyn.graphs"):
        g = graph_from_json({"n": 3, "edges": [[0, 1]]})
    assert np.array_equal(g, from_edges(3, [(0, 1)]))
    assert any("self-loop" in rec.message for rec in caplog.records)


def test_graph_json_rejects_bad_input():
    with pytest.raises(ValueError):
        graph_from_json({"n": 2, "edges": [[0, 5]]})
    with pytest.raises(ValueError):
        graph_from_json({"n": 2, "edges": [[0, 1]], "extra": 1})
    for edges in (5, None, "", {}):
        with pytest.raises(ValueError, match="a list of 'edges'"):
            graph_from_json({"n": 3, "edges": edges})
