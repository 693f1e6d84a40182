import math
import tracemalloc
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from consensus_dyn import simulator
from consensus_dyn.algorithms import AlgorithmKind, claimed_alpha, effective_period, parse_kind
from consensus_dyn.graphs import (
    READ_AHEAD,
    CommPattern,
    RoundGraphs,
    adversarial_rotating_star,
    bidirectional_intermittent,
    fixed,
    random_nonsplit,
    random_rooted,
)
from consensus_dyn.simulator import (
    Metrics,
    RunSpec,
    RunTrace,
    _ceil_log,
    delta_components,
    read_trace_csv,
    run,
    run_batch,
    step,
    theorem_bound,
    write_deltas_csv,
    write_margins_csv,
    write_trace_csv,
)
from oracles import (
    contains,
    convex_hull,
    from_edges,
    graph_product,
    margin_row,
    measure_contraction,
    per_round,
    rounds_read_ahead,
)


def _spec(**kw):
    defaults = dict(n=4, d=1, algorithm=AlgorithmKind("midpoint"),
                    pattern=random_nonsplit(4, seed=3), epsilon=1e-6,
                    max_rounds=1000, seed=0)
    defaults.update(kw)
    return RunSpec(**defaults)


def _margins(trace, graphs=None):
    """The (T, n) margins that write_margins_csv writes for `trace`, over the
    round graphs of `graphs` (a fresh stack of its pattern when None)."""
    graphs = graphs or RoundGraphs(trace.spec.pattern)
    period = effective_period(trace.spec.algorithm, trace.spec.n)
    return simulator._margin_row(trace.positions, graphs.first(len(trace.positions) - 1), period)


def test_step_self_loops_only_is_identity():
    for tag, d in [("midpoint", 1), ("equal-neighbor", 2), ("component-midpoint", 2),
                   ("extreme-point", 3), ("centroid", 2)]:
        kind = AlgorithmKind(tag)
        rng = np.random.default_rng(1)
        x = rng.uniform(0, 1, (3, d))
        out = step(x[None], np.eye(3, dtype=bool), kind, 1, (0,), (d,))[0]
        assert out.shape == x.shape
        assert np.allclose(out, x, atol=1e-12)


def test_step_complete_graph_midpoint():
    x = np.array([[0.0], [1.0], [2.0]])
    kind = AlgorithmKind("midpoint")
    out = step(x[None], np.ones((3, 3), dtype=bool), kind, 1, (0,), (1,))[0]
    assert np.array_equal(out, np.full((3, 1), 1.0))


def test_step_complete_graph_equal_neighbor():
    x = np.array([[0.0], [1.0], [2.0]])
    kind = AlgorithmKind("equal-neighbor")
    out = step(x[None], np.ones((3, 3), dtype=bool), kind, 1, (0,), (1,))[0]
    assert np.allclose(out, 1.0)


def test_step_size_mismatch():
    x = np.zeros((3, 1))
    kind = AlgorithmKind("midpoint")
    with pytest.raises(ValueError):
        step(x[None], np.eye(4, dtype=bool), kind, 1, (0,), (1,))


def test_run_single_agent():
    trace = run(_spec(n=1, pattern=fixed(np.eye(1, dtype=bool))))
    assert trace.metrics.t_eps == 0
    assert trace.metrics.converged


def test_run_identical_initial_positions():
    trace = run(_spec(initial=np.full((4, 1), 2.5)))
    assert trace.metrics.t_eps == 0
    assert trace.metrics.converged
    assert len(trace.positions) == 1


def test_run_midpoint_nonsplit_contracts():
    for seed in range(5):
        spec = _spec(pattern=random_nonsplit(4, seed=seed), epsilon=2.0**-20)
        trace = run(spec)
        assert trace.metrics.converged
        assert trace.metrics.t_eps <= 20
        ratios = measure_contraction(trace, 1)[:, 0]
        # once delta is within a few ulp of the position scale, the measured
        # ratio picks up rounding noise of order ulp/delta; keep the tight
        # tolerance to the regime where that noise is below 1e-12
        assert (ratios <= 0.5 + 1e-9).all()
        clean = trace.deltas[:-1, 0] > 1e-3 * trace.deltas[0, 0]
        assert (ratios[clean] <= 0.5 + 1e-12).all()
        assert (np.diff(trace.deltas[:, 0]) <= 1e-12).all()


def test_run_amortized_extreme_point_rooted_meets_bound():
    kind = AlgorithmKind("extreme-point", amortized=True)
    spec = _spec(n=4, d=2, algorithm=kind, pattern=random_rooted(4, seed=1), epsilon=1e-3)
    trace = run(spec)
    bound = theorem_bound(spec)
    assert bound == 3 * math.ceil(math.log(1000) / math.log(4 / 3))
    assert trace.metrics.converged
    assert trace.metrics.t_eps <= bound
    assert trace.metrics.bound_t == bound
    # positions only move on averaging rounds
    assert trace.metrics.t_eps % 3 == 0


def test_theorem_bound_values():
    # amortized midpoint, 5 agents, eps = 2^-10: 4 * 10
    spec = _spec(n=5, algorithm=AlgorithmKind("midpoint", amortized=True),
                 pattern=adversarial_rotating_star(5), epsilon=2.0**-10)
    assert theorem_bound(spec) == 40
    # per-round midpoint on nonsplit, eps = 2^-8
    spec = _spec(epsilon=2.0**-8)
    assert theorem_bound(spec) == 8
    # amortized centroid, n=3, d=2, eps=1e-3: 2 * ceil(log_{1.5} 1000) = 36
    spec = _spec(n=3, d=2, algorithm=AlgorithmKind("centroid", amortized=True),
                 pattern=random_rooted(3, seed=0), epsilon=1e-3)
    assert theorem_bound(spec) == 36
    # subnormal eps = 2^-1074, whose reciprocal overflows a float
    assert theorem_bound(_spec(epsilon=5e-324)) == 1074


# The amortized bounds' per-rule bases as the bound once listed them: the
# bound now takes 1 / (1 - claimed_alpha) for every rule, and must agree.
_AMORTIZED_BASES = {
    "midpoint": lambda d: 2.0,
    "extreme-point": lambda d: (2.0 * d) / (2.0 * d - 1.0),
    "centroid": lambda d: (d + 1.0) / d,
}


def test_amortized_bound_matches_the_per_rule_base_table():
    patterns = {n: random_rooted(n, seed=0) for n in range(2, 17)}
    for tag, base_of in _AMORTIZED_BASES.items():
        kind = AlgorithmKind(tag, amortized=True)
        for d in (1,) if tag == "midpoint" else range(1, 11):
            base = base_of(d)
            # every decade, and exact powers of the listed base and of the
            # base the bound computes, where a ceiling is closest to flipping
            epsilons = {10.0 ** -k for k in range(1, 16)}
            for b in (base, 1.0 / (1.0 - claimed_alpha(kind, 2, d))):
                k = 1
                while b ** k <= 1e15:
                    epsilons.add(1.0 / b ** k)
                    k += 1
            for eps in sorted(epsilons):
                want = _ceil_log(1.0 / eps, base)
                for n, pattern in patterns.items():
                    spec = _spec(n=n, d=d, algorithm=kind, pattern=pattern, epsilon=eps)
                    assert theorem_bound(spec) == (n - 1) * want, (tag, d, eps, n)


def test_theorem_bound_fixed_graph_classification():
    g = np.ones((3, 3), dtype=bool)
    spec = _spec(n=3, pattern=fixed(g), epsilon=1e-3)
    assert theorem_bound(spec) == 10  # ceil(log2 1000)
    chain = from_edges(3, [(0, 1), (1, 2)])
    spec = _spec(n=3, pattern=fixed(chain), epsilon=1e-3)
    assert theorem_bound(spec) is None  # rooted but not nonsplit, per-round rule
    spec = _spec(n=3, algorithm=AlgorithmKind("midpoint", amortized=True),
                 pattern=fixed(chain), epsilon=1e-3)
    assert theorem_bound(spec) == 2 * 10


def test_theorem_bound_unsupported():
    spec = _spec(pattern=bidirectional_intermittent(4, period=3, seed=0))
    assert theorem_bound(spec) is None
    spec = _spec(pattern=CommPattern(4, per_round(lambda t: np.ones((4, 4), dtype=bool))))
    assert theorem_bound(spec) is None
    # the amortized component-wise midpoint has no bound on file
    spec = _spec(d=2, algorithm=AlgorithmKind("component-midpoint", amortized=True),
                 pattern=random_rooted(4, seed=1))
    assert theorem_bound(spec) is None
    # amortized with a period other than 1 or n-1 matches no bound
    spec = _spec(algorithm=AlgorithmKind("midpoint", amortized=True, amortization_period=2),
                 pattern=random_rooted(4, seed=1))
    assert theorem_bound(spec) is None
    trace = run(spec)
    assert trace.metrics.bound_t is None


def test_run_is_deterministic():
    spec = _spec(n=5, d=2, algorithm=AlgorithmKind("centroid"),
                 pattern=random_nonsplit(5, seed=7), epsilon=1e-4, seed=3)
    a = run(spec)
    b = run(spec)
    assert np.array_equal(a.positions, b.positions)
    assert np.array_equal(a.deltas, b.deltas)
    assert a.metrics == b.metrics


def test_run_permutation_equivariance():
    # relabeling agents relabels the trace: all reads come from the snapshot
    n, d = 5, 2
    base = random_nonsplit(n, seed=2)
    perm = np.array([3, 0, 4, 1, 2])

    def permuted_graph(t):
        adj = base.rounds(t, t + 1)[0]
        out = np.zeros_like(adj)
        for p in range(n):
            for q in range(n):
                out[perm[p], perm[q]] = adj[p, q]
        return out

    rng = np.random.default_rng(8)
    x0 = rng.uniform(0, 1, (n, d))
    x0_perm = np.empty_like(x0)
    for p in range(n):
        x0_perm[perm[p]] = x0[p]
    kind = AlgorithmKind("centroid")
    t_a = run(_spec(n=n, d=d, algorithm=kind, pattern=base, epsilon=1e-3, initial=x0))
    t_b = run(_spec(n=n, d=d, algorithm=kind, pattern=CommPattern(n, per_round(permuted_graph)),
                    epsilon=1e-3, initial=x0_perm))
    assert len(t_a.positions) == len(t_b.positions)
    for t in range(len(t_a.positions)):
        for p in range(n):
            assert np.allclose(t_a.positions[t, p], t_b.positions[t, perm[p]], atol=1e-9)


def test_run_validity_hull_shrinks():
    rng = np.random.default_rng(4)
    cases = [("midpoint", 1), ("equal-neighbor", 2), ("component-midpoint", 2),
             ("extreme-point", 2), ("centroid", 2)]
    for tag, d in cases:
        spec = _spec(n=5, d=d, algorithm=AlgorithmKind(tag),
                     pattern=random_nonsplit(5, seed=9), epsilon=1e-3,
                     initial=rng.uniform(0, 1, (5, d)))
        trace = run(spec)
        tol = 1e-9 * float(np.ptp(trace.positions[0], axis=0).max())
        for t in range(1, len(trace.positions)):
            hull = convex_hull(trace.positions[t - 1])
            for p in range(5):
                assert contains(hull, trace.positions[t, p], tol=tol)


def test_run_margins_midpoint_complete_graph():
    spec = _spec(n=3, pattern=fixed(np.ones((3, 3), dtype=bool)),
                 initial=np.array([[0.0], [1.0], [2.0]]))
    trace = run(spec)
    margins = _margins(trace)
    assert margins.shape[1] == 3
    assert np.allclose(margins[0], 0.5)


def test_run_mixed_degenerate_components():
    # one component starts at consensus; convergence judged on the other only
    init = np.array([[0.0, 7.0], [1.0, 7.0], [2.0, 7.0], [3.0, 7.0]])
    spec = _spec(d=2, algorithm=AlgorithmKind("component-midpoint"), initial=init,
                 epsilon=1e-6)
    trace = run(spec)
    assert trace.metrics.converged
    assert trace.metrics.t_eps >= 1
    assert (trace.deltas[:, 1] == 0).all()


def test_run_non_convergence_is_recorded():
    spec = _spec(n=2, pattern=fixed(np.eye(2, dtype=bool)),
                 initial=np.array([[0.0], [1.0]]), max_rounds=50)
    trace = run(spec)
    assert not trace.metrics.converged
    assert trace.metrics.t_eps is None
    assert len(trace.positions) == 51
    ratios = measure_contraction(trace, 1)
    assert (ratios == 1.0).all()


def test_run_stops_at_the_first_non_finite_position():
    # midpoints of 1e308 and 1.7e308 overflow to inf in round 1
    spec = _spec(n=3, pattern=fixed(np.ones((3, 3), dtype=bool)),
                 initial=np.array([[1.7e308], [1e308], [1.7e308]]), max_rounds=50)
    with pytest.raises(ValueError, match=r"^round 1: agent 0 has a non-finite position inf"):
        run(spec)
    # finite positions whose range alone overflows are rejected before round
    # 1: epsilon times an infinite range would pass every range
    spec = _spec(n=2, algorithm=AlgorithmKind("equal-neighbor"),
                 pattern=fixed(np.eye(2, dtype=bool)),
                 initial=np.array([[0.0, 1.7e308], [0.0, -1.7e308]]), d=2, max_rounds=3)
    with pytest.raises(ValueError, match=r"^the range of the initial positions overflows a float"
                                         r" in component 1: 1\.7e\+308 - -1\.7e\+308$"):
        run(spec)


def test_measure_contraction_zero_floor():
    spec = _spec(n=3, pattern=fixed(np.ones((3, 3), dtype=bool)),
                 initial=np.array([[0.0], [1.0], [2.0]]), max_rounds=3, epsilon=1e-30)
    trace = run(spec)
    ratios = measure_contraction(trace, 1)
    assert ratios[0, 0] == 0.0  # 2 -> 0 in one round
    if len(ratios) > 1:
        assert (ratios[1:] == 0.0).all()  # 0/0 under the floor reports 0


def test_empirical_rate():
    spec = _spec(pattern=random_nonsplit(4, seed=5), epsilon=2.0**-20)
    trace = run(spec)
    assert 0.0 <= trace.metrics.empirical_rate <= 0.5 + 1e-9
    flat = run(_spec(initial=np.full((4, 1), 1.0)))
    assert flat.metrics.empirical_rate == 0.0


def test_delta_components():
    x = np.array([[0.0, 5.0], [2.0, 5.0], [1.0, 5.0]])
    assert np.array_equal(delta_components(x), [2.0, 0.0])


def test_run_spec_validation():
    with pytest.raises(ValueError):
        run(_spec(epsilon=0.0))
    with pytest.raises(ValueError):
        run(_spec(max_rounds=0))
    with pytest.raises(ValueError):
        run(_spec(n=3))  # pattern built for n=4
    with pytest.raises(ValueError):
        run(_spec(initial=np.zeros((2, 1))))
    with pytest.raises(ValueError):
        run(_spec(d=2))  # midpoint needs d == 1
    with pytest.raises(ValueError, match="must share n and the algorithm"):
        run_batch([_spec(), _spec(algorithm=AlgorithmKind("component-midpoint"))])


def test_csv_round_trip(tmp_path):
    spec = _spec(n=3, d=2, algorithm=AlgorithmKind("centroid"),
                 pattern=random_nonsplit(3, seed=1), epsilon=1e-3)
    trace = run(spec)
    path = tmp_path / "trace.csv"
    write_trace_csv(trace, path)
    positions = read_trace_csv(path)
    assert np.array_equal(positions, trace.positions)
    write_deltas_csv(trace, tmp_path / "deltas.csv")
    write_margins_csv(trace, RoundGraphs(spec.pattern), tmp_path / "margins.csv")
    first = (tmp_path / "trace.csv").read_bytes()
    write_trace_csv(run(spec), path)
    assert path.read_bytes() == first


def test_amortized_margins_are_block_end_margins():
    # each averaging round is measured against the block's product graph;
    # gathering rounds carry no margin of their own
    d, n = 5, 16
    spec = _spec(n=n, d=d, algorithm=AlgorithmKind("extreme-point", amortized=True),
                 pattern=adversarial_rotating_star(n), epsilon=1e-9, seed=3)
    trace = run(spec)
    margins = _margins(trace)
    period = n - 1
    rounds = np.arange(1, len(margins) + 1)
    assert np.isnan(margins[rounds % period != 0]).all()
    live = margins[~np.isnan(margins)]
    assert live.size > 0
    assert (live >= 1 / (2 * d) - 1e-9).all()


def _block_reach(pattern, first, last):
    """Boolean product of the round graphs first..last of `pattern`."""
    reach = pattern.rounds(first, first + 1)[0]
    for t in range(first + 1, last + 1):
        reach = reach @ pattern.rounds(t, t + 1)[0]
    return reach


def _grid(n, d):
    # integer-grid positions with zeros of both signs
    x = np.array([[float((3 * p + 2 * k + p * k) % 4) for k in range(d)] for p in range(n)])
    x[x == 0.0] = -0.0
    x[::3] = np.abs(x[::3])
    return x


@pytest.mark.parametrize("chunk", [1, 200, simulator.CHUNK_ELEMS])
def test_run_margins_match_the_per_round_reference(monkeypatch, chunk):
    # row t-1 is the reference margin row of the block that ends at round t,
    # over the block's product graph, and NaN inside a block; small chunks put
    # several chunk boundaries inside a run
    monkeypatch.setattr(simulator, "CHUNK_ELEMS", chunk)
    n = 6
    rules = [("midpoint", 1, "index"), ("component-midpoint", 2, "index"),
             ("extreme-point", 3, "index"), ("extreme-point", 2, "random"),
             ("centroid", 2, "index"), ("equal-neighbor", 2, "index")]
    patterns = [random_rooted(n, seed=2), adversarial_rotating_star(n), random_nonsplit(n, seed=4),
                bidirectional_intermittent(n, period=3, seed=1)]
    checked = 0
    for pattern in patterns:
        for tag, d, tie in rules:
            for period in (1, 3, n - 1):
                if tag == "equal-neighbor" and period != 1:
                    continue
                kind = AlgorithmKind(tag, amortized=period > 1,
                                     amortization_period=period if period > 1 else None,
                                     tie_break=tie)
                for initial in (None, _grid(n, d)):
                    graphs = RoundGraphs(pattern)
                    trace = run(_spec(n=n, d=d, algorithm=kind, pattern=pattern, epsilon=1e-12,
                                      initial=initial, max_rounds=40, seed=5), graphs)
                    pos, margins = trace.positions, _margins(trace, graphs)
                    assert margins.shape == (len(pos) - 1, n)
                    for t in range(1, len(pos)):
                        if t % period:
                            want = np.full(n, np.nan)
                        else:
                            reach = _block_reach(pattern, t - period + 1, t)
                            want = margin_row(pos[t - period], reach, pos[t])
                        assert margins[t - 1].tobytes() == want.tobytes(), (tag, period, t)
                        checked += 1
    assert checked > 2000


@st.composite
def _margin_cases(draw):
    """(positions, round graphs, period) of a made-up run whose positions
    tie, collapse and hold zeros of both signs."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, d = draw(st.integers(1, 7)), draw(st.integers(1, 3))
    period, rounds = draw(st.integers(1, 4)), draw(st.integers(0, 12))
    values = np.array([-1.0, -0.0, 0.0, 0.5, 1.0, 1e-31, 3.0])
    positions = rng.choice(values, (rounds + 1, n, d))
    graphs = rng.random((rounds, n, n)) < draw(st.sampled_from([0.1, 0.2, 0.6, 1.0]))
    graphs[:, np.arange(n), np.arange(n)] = True
    return positions, graphs, period


@settings(max_examples=300, deadline=None)
@given(_margin_cases(), st.sampled_from([1, 50, simulator.CHUNK_ELEMS]))
def test_margin_pass_matches_the_per_round_reference_bit_for_bit(case, chunk):
    # block ends measure against the product of the block's round graphs
    positions, graphs, period = case
    n = positions.shape[1]
    with mock.patch.object(simulator, "CHUNK_ELEMS", chunk):
        margins = simulator._margin_row(positions, graphs, period)
    assert margins.shape == (len(positions) - 1, n)
    for t in range(1, len(positions)):
        if t % period:
            want = np.full(n, np.nan)
        else:
            reach = graphs[t - period]
            for g in graphs[t - period + 1:t]:
                reach = graph_product(reach, g)
            want = margin_row(positions[t - period], reach, positions[t])
        assert margins[t - 1].tobytes() == want.tobytes(), t


# the dimensions each rule runs at in the batch property: equal-neighbor's
# d = 1 (pairwise sums) beside its d >= 2 (left-to-right sums)
_BATCH_DIMS = {"equal-neighbor": [1, 2, 3, 4], "midpoint": [1], "component-midpoint": [1, 2],
               "extreme-point": [1, 2, 3, 4], "centroid": [1, 2, 3]}


def _batch_pattern(draw, n):
    family = draw(st.sampled_from(["fixed", "complete", "self-loops", "rotating-star",
                                   "random-nonsplit", "random-rooted", "bidirectional"]))
    seed = draw(st.integers(0, 2**32))
    if family == "fixed":
        adj = np.random.default_rng(seed).random((n, n)) < 0.4
        np.fill_diagonal(adj, True)
        return fixed(adj)
    return {"complete": lambda: fixed(np.ones((n, n), dtype=bool)),
            "self-loops": lambda: fixed(np.eye(n, dtype=bool)),
            "rotating-star": lambda: adversarial_rotating_star(n),
            "random-nonsplit": lambda: random_nonsplit(n, seed=seed),
            "random-rooted": lambda: random_rooted(n, seed=seed),
            "bidirectional": lambda: bidirectional_intermittent(
                n, period=draw(st.integers(1, 2 * n)), seed=seed)}[family]()


def _batch_start(draw, n, d, seed, tag):
    """None (the seeded draw), a start in exact consensus, grid positions
    that tie and hold zeros of both signs, or positions so large that an
    update can overflow."""
    kind = draw(st.sampled_from(["seeded", "seeded", "consensus", "grid", "huge"]))
    rng = np.random.default_rng(seed)
    if kind == "consensus":
        return np.full((n, d), rng.choice([-0.0, 0.25, 3.0]))
    if kind == "grid":
        return rng.choice([-1.0, -0.0, 0.0, 1.0, 2.0], (n, d))
    if kind == "huge":
        return rng.choice([0.1e308, 0.6e308, 0.9e308], (n, d))
    return None


@st.composite
def _batches(draw):
    """Specs of one batch: a rule, n and pattern, and the product of a list
    of d and one to four seeds, as a sweep builds it."""
    n = draw(st.integers(1, 12))
    tag = draw(st.sampled_from(sorted(_BATCH_DIMS)))
    amortized = tag != "equal-neighbor" and draw(st.booleans())
    kind = AlgorithmKind(
        tag, amortized=amortized,
        amortization_period=draw(st.sampled_from([None, 2, 3])) if amortized else None,
        tie_break=draw(st.sampled_from(["index", "random"])) if tag == "extreme-point" else "index")
    dims = draw(st.lists(st.sampled_from(_BATCH_DIMS[tag]), min_size=1, max_size=3))
    seeds = draw(st.lists(st.integers(0, 2**32), min_size=1, max_size=4))
    pattern = _batch_pattern(draw, n)
    epsilon = draw(st.sampled_from([1e-12, 1e-3, 1.0, 2.0]))  # 1 or more stops at round 1
    max_rounds = draw(st.integers(1, 30))
    return [RunSpec(n=n, d=d, algorithm=kind, pattern=pattern, epsilon=epsilon, max_rounds=max_rounds,
                    seed=seed, initial=_batch_start(draw, n, d, seed, tag))
            for d in dims for seed in seeds]


@settings(max_examples=150, deadline=None)
@given(_batches())
def test_every_run_of_a_batch_is_its_own_run_bit_for_bit(specs):
    for spec, outcome in zip(specs, run_batch(specs), strict=True):
        try:
            alone = run(spec)
        except ValueError as e:
            assert isinstance(outcome, ValueError) and str(outcome) == str(e)
            continue
        assert outcome.spec is spec
        for field in ("positions", "deltas"):
            got, want = getattr(outcome, field), getattr(alone, field)
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), field
        assert outcome.metrics == alone.metrics


@settings(max_examples=40, deadline=None)
@given(st.integers(-1000, 1000), st.integers(2, 4), st.integers(0, 2**32 - 1))
def test_centroid_run_is_free_of_the_float_scale(k, d, seed):
    # 2^k x0 is exact, and the centroid rule has no scale of its own: the run
    # from it takes the unit run's rounds, and its positions scaled back are
    # the unit run's (at the parent, k = -400 at d = 3 raised GeometryError,
    # k = 400 gave NaN, and k = -600 stopped after 6 rounds instead of 15)
    x0 = np.random.default_rng(seed).random((10, d))
    spec = RunSpec(n=10, d=d, algorithm=AlgorithmKind("centroid"), pattern=random_nonsplit(10, seed=5),
                   epsilon=1e-6, initial=x0, max_rounds=200)
    unit = run(spec)
    scaled = run(RunSpec(**{**vars(spec), "initial": np.ldexp(x0, k)}))
    assert scaled.metrics.t_eps == unit.metrics.t_eps
    assert scaled.positions.shape == unit.positions.shape
    assert np.abs(np.ldexp(scaled.positions, -k) - unit.positions).max() <= 1e-12


@pytest.mark.parametrize("algorithm", ["midpoint", "midpoint+amortized", "midpoint+amortized:3"])
def test_run_calls_each_layer_the_benchmark_times_as_often_as_it_counts(monkeypatch, tmp_path,
                                                                       algorithm):
    # bench/run.py patches these names: simulator.rounds counts step calls,
    # and margin time is one _margin_row call per margins.csv, which reads
    # the rounds the run generated; the round-by-round loop generates its
    # round graphs by the stack's read-ahead rule
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(simulator, "step", counted("step", simulator.step))
    monkeypatch.setattr(simulator, "_margin_row", counted("margin", simulator._margin_row))
    fill = CommPattern.rounds
    monkeypatch.setattr(CommPattern, "rounds", lambda self, t0, t1, out=None:
                        calls.update(graph=t1 - t0) or fill(self, t0, t1, out))
    for initial in (None, np.full((5, 1), 0.25)):
        calls.clear()
        pattern = random_rooted(5, seed=1)
        graphs = RoundGraphs(pattern)
        trace = run(_spec(n=5, algorithm=parse_kind(algorithm), pattern=pattern,
                          epsilon=1e-9, initial=initial), graphs)
        rounds = len(trace.positions) - 1
        assert rounds > 0 or initial is not None
        assert calls["margin"] == 0
        write_margins_csv(trace, graphs, tmp_path / "margins.csv")
        assert (calls["step"], calls["margin"], calls["graph"]) == \
            (rounds, 1, rounds_read_ahead(rounds, READ_AHEAD))


def test_run_stops_at_the_first_round_whose_range_equals_the_threshold():
    # agent 1 holds still and agent 0 moves halfway to it: the range halves
    # every round and meets epsilon * delta0 = 0.25 exactly at round 2
    pattern = fixed(from_edges(2, [(1, 0)]))
    trace = run(_spec(n=2, pattern=pattern, initial=np.array([[0.0], [1.0]]), epsilon=0.25))
    assert trace.deltas[:, 0].tolist() == [1.0, 0.5, 0.25]
    assert trace.metrics.t_eps == 2


def test_a_run_holds_only_the_last_buffer_of_its_round_graphs():
    # a run's record is its positions: it keeps none of its round graphs
    # (the stack grows to about 4 times the positions here), and margins are
    # formed from a stack when margins.csv is written
    n, rounds = 32, 4000
    spec = _spec(n=n, pattern=fixed(np.eye(n, dtype=bool)), max_rounds=rounds)
    run(_spec(n=n, pattern=spec.pattern, max_rounds=10))  # warm-up: one-time allocations
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        trace = run(spec)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(trace.positions) == rounds + 1
    assert held <= 2 * trace.positions.nbytes, (held, trace.positions.nbytes)
    assert np.isnan(_margins(trace)).all()
