import math

import numpy as np
import pytest

from consensus_dyn import geometry
from consensus_dyn.algorithms import AlgorithmKind, parse_kind
from consensus_dyn.graphs import (
    CommGraph,
    adversarial_rotating_star,
    bidirectional_intermittent,
    complete_graph,
    custom_pattern,
    fixed,
    random_nonsplit,
    random_rooted,
    self_loops_only,
)
from consensus_dyn.simulator import (
    Metrics,
    RunSpec,
    RunTrace,
    UnsupportedScenarioError,
    delta_components,
    measure_contraction,
    read_trace_csv,
    run,
    step,
    theorem_bound,
    write_deltas_csv,
    write_margins_csv,
    write_trace_csv,
)


def _spec(**kw):
    defaults = dict(n=4, d=1, algorithm=AlgorithmKind("midpoint"),
                    pattern=random_nonsplit(4, seed=3), epsilon=1e-6,
                    max_rounds=1000, seed=0)
    defaults.update(kw)
    return RunSpec(**defaults)


def test_step_self_loops_only_is_identity():
    for tag, d in [("midpoint", 1), ("equal-neighbor", 2), ("component-midpoint", 2),
                   ("extreme-point", 3), ("centroid", 2)]:
        kind = AlgorithmKind(tag)
        rng = np.random.default_rng(1)
        x = rng.uniform(0, 1, (3, d))
        out = step(x, self_loops_only(3).adj, kind, 1)
        assert out.shape == x.shape
        assert np.allclose(out, x, atol=1e-12)


def test_step_complete_graph_midpoint():
    x = np.array([[0.0], [1.0], [2.0]])
    kind = AlgorithmKind("midpoint")
    out = step(x, complete_graph(3).adj, kind, 1)
    assert np.array_equal(out, np.full((3, 1), 1.0))


def test_step_complete_graph_equal_neighbor():
    x = np.array([[0.0], [1.0], [2.0]])
    kind = AlgorithmKind("equal-neighbor")
    out = step(x, complete_graph(3).adj, kind, 1)
    assert np.allclose(out, 1.0)


def test_step_size_mismatch():
    x = np.zeros((3, 1))
    kind = AlgorithmKind("midpoint")
    with pytest.raises(ValueError):
        step(x, self_loops_only(4).adj, kind, 1)


def test_run_single_agent():
    trace = run(_spec(n=1, pattern=fixed(self_loops_only(1))))
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


def test_theorem_bound_fixed_graph_classification():
    g = complete_graph(3)
    spec = _spec(n=3, pattern=fixed(g), epsilon=1e-3)
    assert theorem_bound(spec) == 10  # ceil(log2 1000)
    chain = CommGraph.from_edges(3, [(0, 1), (1, 2)])
    spec = _spec(n=3, pattern=fixed(chain), epsilon=1e-3)
    with pytest.raises(UnsupportedScenarioError):
        theorem_bound(spec)  # rooted but not nonsplit, per-round rule
    spec = _spec(n=3, algorithm=AlgorithmKind("midpoint", amortized=True),
                 pattern=fixed(chain), epsilon=1e-3)
    assert theorem_bound(spec) == 2 * 10


def test_theorem_bound_unsupported():
    spec = _spec(pattern=bidirectional_intermittent(4, period=3, seed=0))
    with pytest.raises(UnsupportedScenarioError):
        theorem_bound(spec)
    spec = _spec(pattern=custom_pattern(4, lambda t: complete_graph(4)))
    with pytest.raises(UnsupportedScenarioError):
        theorem_bound(spec)
    # amortized with a period other than 1 or n-1 matches no bound
    spec = _spec(algorithm=AlgorithmKind("midpoint", amortized=True, amortization_period=2),
                 pattern=random_rooted(4, seed=1))
    with pytest.raises(UnsupportedScenarioError):
        theorem_bound(spec)
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
        adj = base.graph(t).adj
        out = np.zeros_like(adj)
        for p in range(n):
            for q in range(n):
                out[perm[p], perm[q]] = adj[p, q]
        return CommGraph(n, out)

    rng = np.random.default_rng(8)
    x0 = rng.uniform(0, 1, (n, d))
    x0_perm = np.empty_like(x0)
    for p in range(n):
        x0_perm[perm[p]] = x0[p]
    kind = AlgorithmKind("centroid")
    t_a = run(_spec(n=n, d=d, algorithm=kind, pattern=base, epsilon=1e-3, initial=x0))
    t_b = run(_spec(n=n, d=d, algorithm=kind, pattern=custom_pattern(n, permuted_graph),
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
            hull = geometry.convex_hull(trace.positions[t - 1])
            for p in range(5):
                assert geometry.contains(hull, trace.positions[t, p], tol=tol)


def test_run_margins_midpoint_complete_graph():
    spec = _spec(n=3, pattern=fixed(complete_graph(3)), initial=np.array([[0.0], [1.0], [2.0]]))
    trace = run(spec)
    assert trace.margins.shape[1] == 3
    assert np.allclose(trace.margins[0], 0.5)


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
    spec = _spec(n=2, pattern=fixed(self_loops_only(2)),
                 initial=np.array([[0.0], [1.0]]), max_rounds=50)
    trace = run(spec)
    assert not trace.metrics.converged
    assert trace.metrics.t_eps is None
    assert len(trace.positions) == 51
    ratios = measure_contraction(trace, 1)
    assert (ratios == 1.0).all()


def test_measure_contraction_zero_floor():
    spec = _spec(n=3, pattern=fixed(complete_graph(3)),
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


def test_csv_round_trip(tmp_path):
    spec = _spec(n=3, d=2, algorithm=AlgorithmKind("centroid"),
                 pattern=random_nonsplit(3, seed=1), epsilon=1e-3)
    trace = run(spec)
    path = tmp_path / "trace.csv"
    write_trace_csv(trace, path)
    positions = read_trace_csv(path)
    assert np.array_equal(positions, trace.positions)
    write_deltas_csv(trace, tmp_path / "deltas.csv")
    write_margins_csv(trace, tmp_path / "margins.csv")
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
    period = n - 1
    rounds = np.arange(1, len(trace.margins) + 1)
    assert np.isnan(trace.margins[rounds % period != 0]).all()
    live = trace.margins[~np.isnan(trace.margins)]
    assert live.size > 0
    assert (live >= 1 / (2 * d) - 1e-9).all()
