import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from consensus_dyn.algorithms import (
    AlgorithmKind,
    _extreme_choices,
    apply_rule,
    claimed_alpha,
    effective_period,
    format_kind,
    masked_max,
    masked_min,
    parse_kind,
    validate_kind,
)
from consensus_dyn.graphs import adversarial_rotating_star, random_nonsplit, random_rooted
from consensus_dyn.simulator import RunSpec, run
from conftest import EnumeratedStacks
from oracles import (
    centroid,
    centroid_update,
    check_kernel_centroid,
    component_midpoint_update,
    contains,
    convex_hull,
    equal_neighbor_update,
    extreme_point_update,
    fold_min_max,
    midpoint_update_1d,
)


def _rule(kind, x, reach, t=1):
    """apply_rule on the batch of the one run x (n, d)."""
    return apply_rule(kind, x[None], reach, t, (0,), (x.shape[1],))[0]


def _rounds(kind, x0, pattern, rounds, period):
    # minimal local round loop over the kernel: (t, block start, reach so far,
    # positions after round t) for each round
    x = x0
    for t in range(1, rounds + 1):
        adj = pattern.rounds(t, t + 1)[0]
        reach = adj if (t - 1) % period == 0 else reach @ adj
        start, x = x, x if t % period else _rule(kind, x, reach, t)
        yield t, start, reach, x


def test_equal_neighbor_update():
    assert equal_neighbor_update(np.array([[0.0], [1.0]]))[0] == 0.5
    sq = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    assert np.allclose(equal_neighbor_update(sq), [0.5, 0.5])
    # multiset semantics: duplicates carry weight
    assert equal_neighbor_update(np.array([[0.0], [0.0], [3.0]]))[0] == 1.0
    rng = np.random.default_rng(1)
    pts = rng.normal(size=(4, 3))
    assert np.allclose(equal_neighbor_update(pts), pts.sum(axis=0) / 4)


def test_midpoint_update_1d():
    assert midpoint_update_1d(0.0, 1.0) == 0.5
    assert midpoint_update_1d(2.5, 2.5) == 2.5
    assert midpoint_update_1d(-3.0, 5.0) == 1.0
    with pytest.raises(ValueError):
        midpoint_update_1d(1.0, 0.0)


def test_component_midpoint_update():
    assert np.allclose(component_midpoint_update(np.array([[0.0, 0.0], [1.0, 1.0]])), [0.5, 0.5])
    out = component_midpoint_update(np.array([[0.0, 2.0], [1.0, 0.0], [3.0, 1.0]]))
    assert np.allclose(out, [1.5, 1.0])
    # the 3-D box center leaves the hull: the function computes it regardless,
    # config validation is what forbids d >= 3
    tri = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    mid = component_midpoint_update(tri)
    assert np.allclose(mid, [0.5, 0.5, 0.5])
    assert not contains(convex_hull(tri), mid)


def test_extreme_point_update_single_point():
    p = np.array([[2.0, -1.0]])
    assert np.allclose(extreme_point_update(p, 2), [2.0, -1.0])


def test_extreme_point_update_1d_is_midpoint():
    assert extreme_point_update(np.array([[0.0], [1.0]]), 1)[0] == 0.5


def test_extreme_point_update_example():
    pts = np.array([[0.0, 0.0], [2.0, 0.0], [1.0, 3.0]])
    # selections: min-x (0,0), max-x (2,0), min-y tie -> lowest sender (0,0), max-y (1,3)
    assert np.allclose(extreme_point_update(pts, 2), [0.75, 0.75])


def test_extreme_point_tie_breaking_by_sender():
    pts = np.array([[5.0, 5.0], [0.0, 0.0], [0.0, 10.0]])
    # min-x ties between senders 1 and 2; sender 1 wins both appearances
    assert np.allclose(extreme_point_update(pts, 2), [1.25, 3.75])
    # explicit sender ids override list positions
    out = extreme_point_update(pts, 2, senders=[7, 3, 1])
    assert np.allclose(out, [(5 + 0 + 0 + 0) / 4, (5 + 10 + 10 + 0) / 4])


def test_extreme_point_random_tie_mode():
    pts = np.array([[0.0, 0.0], [0.0, 10.0], [4.0, 5.0]])
    outs = {tuple(extreme_point_update(pts, 2, rng=np.random.default_rng(s))) for s in range(30)}
    assert len(outs) > 1
    valid = set()
    for m1 in ([0.0, 0.0], [0.0, 10.0]):
        valid.add(tuple((np.array(m1) + [4, 5] + [0, 0] + [0, 10]) / 4))
    assert outs <= valid
    # same seed replays the same choice
    a = extreme_point_update(pts, 2, rng=np.random.default_rng(9))
    b = extreme_point_update(pts, 2, rng=np.random.default_rng(9))
    assert np.array_equal(a, b)


def test_centroid_update():
    tri = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    assert np.allclose(centroid_update(tri), [1 / 3, 1 / 3])
    dup = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    assert np.allclose(centroid_update(dup), [1 / 3, 1 / 3])
    rng = np.random.default_rng(3)
    hull_pts = np.array([[0.0, 0.0], [4.0, 0.0], [4.0, 3.0], [0.0, 3.0]])
    inner = np.vstack([hull_pts, [[1.0, 1.0]]])
    assert np.allclose(centroid_update(inner),
                       centroid(convex_hull(hull_pts)).centroid)


def test_update_outputs_stay_in_hull():
    rng = np.random.default_rng(17)
    for d, fn in [(1, lambda r: np.array([midpoint_update_1d(r.min(), r.max())])),
                  (2, component_midpoint_update),
                  (3, lambda r: extreme_point_update(r, 3)),
                  (3, centroid_update),
                  (3, equal_neighbor_update)]:
        for _ in range(25):
            k = int(rng.integers(1, 8))
            pts = rng.uniform(-2, 2, (k, d))
            out = np.atleast_1d(fn(pts))
            assert contains(convex_hull(pts), out)


def test_update_safety_margins():
    # realized per-component margin >= the claimed constant for each rule
    rng = np.random.default_rng(29)
    cases = [
        ("midpoint", 1, lambda r: np.array([midpoint_update_1d(r.min(), r.max())])),
        ("component-midpoint", 2, component_midpoint_update),
        ("extreme-point", 3, lambda r: extreme_point_update(r, 3)),
        ("centroid", 3, centroid_update),
        ("equal-neighbor", 3, equal_neighbor_update),
    ]
    for tag, d, fn in cases:
        n = 6
        alpha = claimed_alpha(AlgorithmKind(tag), n, d)
        for _ in range(40):
            pts = rng.uniform(0, 1, (n, d))
            out = np.atleast_1d(fn(pts))
            m, big = pts.min(axis=0), pts.max(axis=0)
            for j in range(d):
                if big[j] - m[j] <= 1e-30:
                    continue
                margin = min(out[j] - m[j], big[j] - out[j]) / (big[j] - m[j])
                assert margin >= alpha - 1e-9, (tag, margin, alpha)


def test_permutation_invariance():
    rng = np.random.default_rng(31)
    for _ in range(20):
        k = int(rng.integers(2, 8))
        pts = rng.uniform(-1, 1, (k, 2))
        perm = rng.permutation(k)
        assert np.allclose(equal_neighbor_update(pts), equal_neighbor_update(pts[perm]), atol=1e-12)
        assert np.allclose(component_midpoint_update(pts), component_midpoint_update(pts[perm]), atol=1e-12)
        assert np.allclose(centroid_update(pts), centroid_update(pts[perm]), atol=1e-9)
        # sender ids travel with the points, so reordering the list is immaterial
        base = extreme_point_update(pts, 2, senders=list(range(k)))
        shuf = extreme_point_update(pts[perm], 2, senders=perm.tolist())
        assert np.allclose(base, shuf, atol=1e-12)


def test_translation_equivariance():
    rng = np.random.default_rng(37)
    for _ in range(20):
        pts = rng.uniform(-1, 1, (5, 3))
        v = rng.uniform(-10, 10, 3)
        for fn in (equal_neighbor_update, component_midpoint_update,
                   lambda r: extreme_point_update(r, 3), centroid_update):
            assert np.allclose(fn(pts + v), fn(pts) + v, atol=1e-9)


def test_rotation_equivariance_centroid():
    rng = np.random.default_rng(41)
    for _ in range(15):
        pts = rng.uniform(-1, 1, (7, 3))
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        assert np.allclose(centroid_update(pts @ q.T), centroid_update(pts) @ q.T, atol=1e-9)


def test_kind_string_round_trip():
    for s in ("midpoint", "equal-neighbor", "centroid+amortized",
              "extreme-point+amortized:5", "component-midpoint"):
        assert format_kind(parse_kind(s)) == s
    k = parse_kind("centroid+amortized:3")
    assert k.tag == "centroid" and k.amortized and k.amortization_period == 3
    k = parse_kind("midpoint+amortized")
    assert k.amortized and k.amortization_period is None
    for bad in ("mid-point", "centroid+amortized:0", "centroid+x", "centroid+amortized:two"):
        with pytest.raises(ValueError):
            parse_kind(bad)


def test_validate_kind():
    validate_kind(AlgorithmKind("midpoint"), n=3, d=1)
    with pytest.raises(ValueError):
        validate_kind(AlgorithmKind("midpoint"), n=3, d=2)
    validate_kind(AlgorithmKind("component-midpoint"), n=3, d=2)
    with pytest.raises(ValueError):
        validate_kind(AlgorithmKind("component-midpoint"), n=3, d=3)
    validate_kind(AlgorithmKind("component-midpoint", allow_unsafe_dim=True), n=3, d=3)
    with pytest.raises(ValueError):
        validate_kind(AlgorithmKind("equal-neighbor", amortized=True), n=3, d=1)
    with pytest.raises(ValueError):
        validate_kind(AlgorithmKind("centroid", amortized=True, amortization_period=0), n=3, d=2)
    with pytest.raises(ValueError):
        validate_kind(AlgorithmKind("nope"), n=3, d=1)


def test_algorithm_kind_rejects_bad_fields_when_built():
    # what does not depend on (n, d) is checked by the type itself
    for fields, message in (({"tag": "nope"}, "unknown algorithm 'nope'"),
                            ({"tag": "centroid", "amortized": True, "amortization_period": 0},
                             "amortization period must be >= 1, got 0"),
                            ({"tag": "extreme-point", "tie_break": "first"},
                             "unknown tie_break 'first'")):
        with pytest.raises(ValueError, match=re.escape(message)):
            AlgorithmKind(**fields)
    with pytest.raises(ValueError, match="unknown algorithm 'nope'"):
        parse_kind("nope+bogus")


def test_effective_period():
    assert effective_period(AlgorithmKind("midpoint"), n=5) == 1
    assert effective_period(AlgorithmKind("midpoint", amortized=True), n=5) == 4
    assert effective_period(AlgorithmKind("midpoint", amortized=True, amortization_period=3), n=5) == 3
    assert effective_period(AlgorithmKind("midpoint", amortized=True), n=1) == 1


def test_claimed_alpha():
    assert claimed_alpha(AlgorithmKind("midpoint"), n=4, d=1) == 0.5
    assert claimed_alpha(AlgorithmKind("component-midpoint"), n=4, d=2) == 0.5
    assert claimed_alpha(AlgorithmKind("extreme-point"), n=4, d=3) == 1 / 6
    assert claimed_alpha(AlgorithmKind("centroid"), n=4, d=3) == 0.25
    assert claimed_alpha(AlgorithmKind("equal-neighbor"), n=4, d=1) == 0.25


def _grid(n, d):
    # integer-grid positions: exact ties across agents and components
    return np.array([[float((3 * p + 2 * k + p * k) % 4) for k in range(d)] for p in range(n)])


def _reference(kind, d, received, ids, p, t, tie_seed):
    """The standalone update of `kind` for agent p in round t over the
    positions it received from agents `ids`."""
    if kind.tag == "midpoint":
        lo, hi = fold_min_max(received[:, 0])
        return np.array([midpoint_update_1d(lo, hi)])
    if kind.tag == "component-midpoint":
        return component_midpoint_update(received)
    if kind.tag == "centroid":
        return centroid_update(received)
    if kind.tag == "equal-neighbor":
        return equal_neighbor_update(received)
    rng = None
    if kind.tie_break == "random":
        rng = np.random.default_rng(np.random.SeedSequence((tie_seed, t, p)))
    return extreme_point_update(received, d, senders=ids.tolist(), rng=rng)


def test_block_ends_match_reference_updates():
    # Every block end of a run is the standalone update of each agent over the
    # block-start positions that reached it during the block, bit for bit.
    n, rounds = 5, 12
    rules = [("midpoint", 1, "index"), ("component-midpoint", 2, "index"),
             ("extreme-point", 2, "index"), ("extreme-point", 3, "random"),
             ("centroid", 2, "index"), ("equal-neighbor", 2, "index")]
    patterns = [random_rooted(n, seed=2), adversarial_rotating_star(n), random_nonsplit(n, seed=4)]
    checked = 0
    for pattern in patterns:
        for tag, d, tie in rules:
            for period in (1, 2, 3, n - 1):
                if tag == "equal-neighbor" and period != 1:
                    continue
                kind = AlgorithmKind(tag, amortized=period > 1,
                                     amortization_period=period if period > 1 else None,
                                     tie_break=tie)
                for initial in (None, _grid(n, d)):
                    spec = RunSpec(n=n, d=d, algorithm=kind, pattern=pattern, epsilon=1e-15,
                                   initial=initial, max_rounds=rounds, seed=7)
                    with EnumeratedStacks() as enumerated:
                        positions = run(spec).positions
                    for t in range(period, len(positions), period):
                        start = positions[t - period]
                        reach = pattern.rounds(t - period + 1, t - period + 2)[0]
                        for s in range(t - period + 2, t + 1):
                            reach = reach @ pattern.rounds(s, s + 1)[0]
                        for p in range(n):
                            ids = np.flatnonzero(reach[:, p])
                            got = positions[t, p]
                            if tag == "centroid":
                                # enumerated stacks are held to the exact centroid
                                check_kernel_centroid(got, start[ids], enumerated.rows)
                            else:
                                want = _reference(kind, d, start[ids], ids, p, t, spec.seed)
                                assert got.tobytes() == want.tobytes(), (tag, period, t, p)
                            checked += 1
    assert checked > 2000


def test_amortized_midpoint_intervals_overlap_after_gathering():
    # two gathering rounds over a rooted pattern leave every [m, M] sharing a point
    kind = AlgorithmKind("midpoint", amortized=True)
    x0 = np.array([[0.0], [1.0], [4.0]])
    pattern = adversarial_rotating_star(3)
    states = list(_rounds(kind, x0, pattern, 3, period=3))
    _, start, reach, _ = states[1]
    ms, bigs = masked_min(start, reach)[:, 0], masked_max(start, reach)[:, 0]
    assert ms.max() <= bigs.min()
    # the block end moves every agent to the midpoint of what it gathered
    _, start, reach, x = states[2]
    assert (x == (masked_min(start, reach) + masked_max(start, reach)) / 2).all()


def test_amortized_midpoint_interval_brackets_position():
    kind = AlgorithmKind("midpoint", amortized=True)
    pattern = random_rooted(5, seed=6)
    rng = np.random.default_rng(7)
    x0 = rng.uniform(0, 1, (5, 1))
    for t, start, reach, x in _rounds(kind, x0, pattern, 12, period=4):
        assert (masked_min(start, reach) <= x).all() and (x <= masked_max(start, reach)).all()
        # positions hold still inside a block and move only at its end
        if t % 4:
            assert np.array_equal(x, x0)
        x0 = x


def test_extreme_point_gather_tracks_componentwise_extremes():
    kind = AlgorithmKind("extreme-point", amortized=True)
    pattern = random_rooted(4, seed=9)
    rng = np.random.default_rng(11)
    x0 = rng.uniform(0, 1, (4, 2))
    for t, start, reach, _ in _rounds(kind, x0, pattern, 6, period=3):
        for p, ids in enumerate(_extreme_choices(start[None], reach)[:, 0]):
            tracked, gathered = start[ids], start[reach[:, p]]
            for i in range(2):
                assert tracked[i, i] == gathered[:, i].min()
                assert tracked[2 + i, i] == gathered[:, i].max()


def test_centroid_position_stays_in_gathered_hull():
    kind = AlgorithmKind("centroid", amortized=True)
    pattern = random_rooted(4, seed=13)
    rng = np.random.default_rng(13)
    x0 = rng.uniform(0, 1, (4, 2))
    for _, start, reach, x in _rounds(kind, x0, pattern, 6, period=3):
        for p in range(4):
            assert contains(convex_hull(start[reach[:, p]]), x[p])


@st.composite
def _grid_rounds(draw):
    """(x, reach): integer-grid positions, so that agents tie on components,
    and a random reach matrix with every self-loop."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, d = draw(st.integers(1, 16)), draw(st.integers(1, 5))
    x = rng.integers(0, draw(st.sampled_from([2, 3, 5])), (n, d)).astype(float)
    reach = rng.random((n, n)) < draw(st.sampled_from([0.2, 0.5, 0.9, 1.0]))
    np.fill_diagonal(reach, True)
    return x, reach


@settings(max_examples=300, deadline=None)
@given(_grid_rounds())
def test_extreme_point_index_kernel_matches_reference_bit_for_bit(case):
    # grid coordinates add exactly, so the 2d additions may run in any order:
    # only the selections, ties to the lowest agent id, decide the bytes
    x, reach = case
    d = x.shape[1]
    out = _rule(AlgorithmKind("extreme-point"), x, reach)
    for p in range(len(x)):
        ids = np.flatnonzero(reach[:, p])
        want = extreme_point_update(x[ids], d, senders=ids.tolist())
        assert out[p].tobytes() == want.tobytes(), p


@st.composite
def _neighbor_rounds(draw):
    """(x, reach) with in-degrees on both sides of 8 (where numpy's sum goes
    pairwise) and of 128 (where it splits in halves), and values that sum
    inexactly or are ±0."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.one_of(st.integers(1, 20), st.integers(120, 140)))
    d = draw(st.integers(1, 4))
    values = draw(st.sampled_from(["wide", "zeros", "mixed"]))
    wide = rng.normal(size=(n, d)) * 10.0 ** rng.integers(-12, 12, (n, d))
    zeros = rng.choice([0.0, -0.0], (n, d))
    if values == "wide":
        x = wide
    elif values == "zeros":
        x = zeros
    else:
        x = np.where(rng.random((n, d)) < 0.5, zeros, wide)
    reach = rng.random((n, n)) < draw(st.sampled_from([0.1, 0.5, 0.95, 1.0]))
    np.fill_diagonal(reach, True)
    return x, reach


@settings(max_examples=200, deadline=None)
@given(_neighbor_rounds())
def test_equal_neighbor_kernel_matches_reference_bit_for_bit(case):
    x, reach = case
    out = _rule(AlgorithmKind("equal-neighbor"), x, reach)
    for p in range(len(x)):
        want = equal_neighbor_update(x[reach[:, p]])
        assert out[p].tobytes() == want.tobytes(), (p, int(reach[:, p].sum()))


def test_equal_neighbor_kernel_covers_every_summation_order():
    # one agent per in-degree from 1 to n: sequential, 8 lanes and halves,
    # and at n = 300 halves that split again
    rng = np.random.default_rng(3)
    for n in (140, 300):
        reach = np.tri(n, dtype=bool).T  # agent p hears agents 0..p
        for d in (1, 2):
            x = rng.normal(size=(n, d)) * 10.0 ** rng.integers(-12, 12, (n, d))
            out = _rule(AlgorithmKind("equal-neighbor"), x, reach)
            for p in range(n):
                assert out[p].tobytes() == equal_neighbor_update(x[:p + 1]).tobytes(), (n, d, p)


@st.composite
def _padded_batches(draw):
    """(x, reach, dims): runs of different d on one reach matrix, each in the
    first d columns of x and zeros after them, with values that add
    inexactly, tie, or are zeros of both signs."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 12))
    dims = draw(st.lists(st.integers(1, 5), min_size=1, max_size=4))
    x = np.zeros((len(dims), n, max(dims)))
    for b, d in enumerate(dims):
        wide = rng.normal(size=(n, d)) * 10.0 ** rng.integers(-12, 12, (n, d))
        ties = rng.choice([-1.0, -0.0, 0.0, 2.0], (n, d))
        x[b, :, :d] = np.where(rng.random((n, d)) < draw(st.sampled_from([0.0, 0.5, 1.0])),
                               ties, wide)
    reach = rng.random((n, n)) < draw(st.sampled_from([0.2, 0.6, 1.0]))
    np.fill_diagonal(reach, True)
    return x, reach, tuple(dims)


_BATCH_KINDS = [AlgorithmKind("component-midpoint"), AlgorithmKind("equal-neighbor"),
                AlgorithmKind("extreme-point"), AlgorithmKind("extreme-point", tie_break="random")]


@settings(max_examples=200, deadline=None)
@given(_padded_batches(), st.sampled_from(_BATCH_KINDS), st.integers(2, 99),
       st.integers(0, 2**32 - 1))
# numpy's own min of this stack is +0.0, the kernel's reduction over senders
# gives -0.0: the references fold min and max over the agents in id order
@example(case=(np.array([0.0, -0.0, 0.0, -0.0, 0.0, -0.0, -0.0, -0.0, -0.0])[None, :, None],
               np.ones((9, 9), dtype=bool), (1,)),
         kind=AlgorithmKind("component-midpoint"), t=2, seed=0)
def test_batch_kernels_match_each_runs_own_reference_bit_for_bit(case, kind, t, seed):
    # every run of a batch gets its own rule's bytes, whatever d the other
    # runs have, and its padding columns stay zero; random ties draw from
    # each run's own per-(seed, t, agent) stream
    x, reach, dims = case
    seeds = tuple(seed + b for b in range(len(dims)))
    out = apply_rule(kind, x, reach, t, seeds, dims)
    assert out.shape == x.shape
    for b, d in enumerate(dims):
        assert not out[b, :, d:].any()
        for p in range(x.shape[1]):
            ids = np.flatnonzero(reach[:, p])
            want = _reference(kind, d, x[b, ids, :d], ids, p, t, seeds[b])
            assert out[b, p, :d].tobytes() == want.tobytes(), (b, p)


@settings(max_examples=150, deadline=None)
@given(_padded_batches())
def test_centroid_batch_gives_each_run_its_own_bytes(case):
    # the runs of a batch share the centroid kernel's passes (all runs of
    # d <= 4 one padded pass, runs of one d one enumeration), and each
    # still gets the bytes of its own call
    x, reach, dims = case
    kind = AlgorithmKind("centroid")
    out = apply_rule(kind, x, reach, 1, (0,) * len(dims), dims)
    for b, d in enumerate(dims):
        assert not out[b, :, d:].any()
        alone = apply_rule(kind, np.ascontiguousarray(x[b:b + 1, :, :d]), reach, 1, (0,), (d,))
        assert out[b, :, :d].tobytes() == alone.tobytes(), b


def test_random_ties_build_a_stream_only_for_agents_with_a_tie(monkeypatch):
    # one Generator per agent that shares an extreme with another agent that
    # reached it, none for the others; padding columns, all zero, tie nowhere
    built = []
    default_rng = np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng",
                        lambda seed: built.append(seed) or default_rng(seed))
    kind = AlgorithmKind("extreme-point", tie_break="random")
    n, dims = 9, (3, 2)
    reach = default_rng(5).random((n, n)) < 0.2
    np.fill_diagonal(reach, True)
    x = np.zeros((2, n, 3))
    x[0], x[1, :, :2] = default_rng(6).random((n, 3)), default_rng(7).random((n, 2))
    apply_rule(kind, x, reach, 4, (1, 2), dims)
    assert built == []
    x[0], x[1, :, :2] = _grid(n, 3), _grid(n, 2)
    tied = 0
    for b, d in enumerate(dims):
        for p in range(n):
            pts = x[b, reach[:, p], :d]
            tied += any(((pts == pts.min(axis=0)).sum(axis=0) > 1)
                        | ((pts == pts.max(axis=0)).sum(axis=0) > 1))
    apply_rule(kind, x, reach, 4, (1, 2), dims)
    assert 0 < len(built) == tied < n * len(dims)
