import ast
import json
import math
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from consensus_dyn.algorithms import AlgorithmKind, claimed_alpha, effective_period
from consensus_dyn.graphs import (
    CommPattern,
    RoundGraphs,
    adversarial_rotating_star,
    bidirectional_intermittent,
    fixed,
    is_strongly_connected,
    random_nonsplit,
    random_rooted,
)
from consensus_dyn import verification
from consensus_dyn.simulator import RANGE_FLOOR, RunSpec, RunTrace, run
from consensus_dyn.verification import (
    AUDIT_TOL,
    ROUNDING_ULPS,
    MoreauReport,
    SafenessReport,
    SafenessViolationError,
    audit_safeness,
    check_moreau_assumptions,
    moreau_window,
    reconstruct_matrices,
)
from oracles import (
    brute_force_consensus_1d,
    decompose_safe_value,
    from_edges,
    graph_product,
    in_neighbors,
    is_bidirectional,
    per_round,
)


def _run(n, d, tag, pattern, *, initial=None, epsilon=1e-4, seed=0, amortized=False):
    kind = AlgorithmKind(tag, amortized=amortized)
    spec = RunSpec(n=n, d=d, algorithm=kind, pattern=pattern, epsilon=epsilon,
                   initial=initial, max_rounds=2000, seed=seed)
    return run(spec)


def _stack(pattern, rounds):
    # the round graphs one audit pass over `rounds` rounds reads
    return RoundGraphs(pattern).first(rounds)


def _graphs_of(trace, pattern):
    return _stack(pattern, len(trace.positions) - 1)


def _matrices(positions, graphs, alpha):
    # the (T, d, n, n) sequence that reconstruct_matrices yields chunk by chunk
    return np.concatenate(list(reconstruct_matrices(positions, graphs, alpha)))


# ---------------------------------------------------------------------------
# audit_safeness


def test_audit_midpoint_complete_graph_is_exactly_half():
    pattern = fixed(np.ones((3, 3), dtype=bool))
    trace = _run(3, 1, "midpoint", pattern, initial=np.array([[0.0], [1.0], [2.0]]))
    report = audit_safeness(trace.positions, _graphs_of(trace, pattern), 0.5)
    assert report.worst_alpha == 0.5
    assert report.violations == []


def test_audit_centroid_d3():
    pattern = random_nonsplit(5, seed=11)
    trace = _run(5, 3, "centroid", pattern, epsilon=1e-3, seed=4)
    report = audit_safeness(trace.positions, _graphs_of(trace, pattern), 0.25)
    assert report.worst_alpha >= 0.25 - 1e-9
    assert report.violations == []


def test_audit_extreme_point_d2():
    pattern = random_nonsplit(6, seed=12)
    trace = _run(6, 2, "extreme-point", pattern, epsilon=1e-3, seed=5)
    report = audit_safeness(trace.positions, _graphs_of(trace, pattern), 0.25)
    assert report.worst_alpha >= 0.25 - 1e-9
    assert report.violations == []


def test_audit_vacuous_when_nothing_moves():
    pattern = fixed(np.eye(3, dtype=bool))
    trace = _run(3, 1, "midpoint", pattern,
                 initial=np.array([[0.0], [1.0], [2.0]]), epsilon=1e-4)
    report = audit_safeness(trace.positions, _graphs_of(trace, pattern), 0.5)
    assert math.isinf(report.worst_alpha)
    assert report.violations == []
    assert np.isnan(report.margins).all()


def test_audit_amortized_macro_blocks():
    pattern = adversarial_rotating_star(4)
    trace = _run(4, 1, "midpoint", pattern, amortized=True, epsilon=1e-6, seed=2)
    graphs = _graphs_of(trace, pattern)
    report = audit_safeness(trace.positions, graphs, 0.5, period=3)
    assert report.worst_alpha >= 0.5 - 1e-9
    assert report.violations == []
    # per-round auditing of the same trace sees the frozen gathering rounds
    per_round = audit_safeness(trace.positions, graphs, 0.5)
    assert per_round.worst_alpha < 0.5 - 1e-9
    assert per_round.violations
    t, p, k, margin = per_round.violations[0]
    assert 1 <= t <= len(trace.positions) - 1
    assert 0 <= p < 4 and k == 0 and margin < 0.5


def test_audit_validation():
    pattern = fixed(np.ones((3, 3), dtype=bool))
    trace = _run(3, 1, "midpoint", pattern, initial=np.array([[0.0], [1.0], [2.0]]))
    graphs = _graphs_of(trace, pattern)
    with pytest.raises(ValueError):
        audit_safeness(trace.positions, _graphs_of(trace, fixed(np.ones((4, 4), dtype=bool))), 0.5)
    with pytest.raises(ValueError):
        audit_safeness(trace.positions, graphs, 0.5, period=0)
    flat = _run(3, 1, "midpoint", pattern, initial=np.zeros((3, 1)))
    with pytest.raises(ValueError):
        audit_safeness(flat.positions, graphs, 0.5)  # no transitions recorded


def test_safeness_report_json():
    pattern = fixed(np.ones((3, 3), dtype=bool))
    trace = _run(3, 1, "midpoint", pattern, initial=np.array([[0.0], [1.0], [2.0]]))
    report = audit_safeness(trace.positions, _graphs_of(trace, pattern), 0.5)
    blob = json.dumps(report.to_json())
    parsed = json.loads(blob)
    assert parsed["worst_alpha"] == 0.5
    assert parsed["claimed_alpha"] == 0.5
    assert parsed["violations"] == []


def test_safeness_report_json_is_the_summary_fragment():
    # every agent holds its value on the complete graph: agents 0 and 2 sit on
    # the ends of the received range, two violations a round for 15 rounds
    graphs = _stack(fixed(np.ones((3, 3), dtype=bool)), 15)
    forged = np.tile(np.array([[0.0], [1.0], [2.0]]), (16, 1, 1))
    report = audit_safeness(forged, graphs, 0.5)
    assert len(report.violations) == 30
    blob = report.to_json()
    assert list(blob) == ["claimed_alpha", "period", "worst_alpha", "passed", "violations"]
    assert blob["violations"] == [list(v) for v in report.violations[:20]]
    assert blob["worst_alpha"] == 0.0 and blob["passed"] is False
    # nobody hears anybody else: every constraint is vacuous
    vacuous = audit_safeness(forged, _stack(fixed(np.eye(3, dtype=bool)), 15), 0.5)
    assert math.isinf(vacuous.worst_alpha)
    assert json.loads(json.dumps(vacuous.to_json()))["worst_alpha"] is None


# ---------------------------------------------------------------------------
# decompose_safe_value


def test_decompose_symmetric_pair():
    assert decompose_safe_value([0.0, 1.0], 0.5, 0.5) == [0.5, 0.5]


def test_decompose_all_equal():
    assert decompose_safe_value([2.0, 2.0, 2.0], 2.0, 0.3) == [1 / 3, 1 / 3, 1 / 3]


def test_decompose_four_values():
    v = [0.0, 1.0, 2.0, 3.0]
    x = 0.6 * 0.0 + 0.4 * 3.0  # lower end of the safe interval
    a = decompose_safe_value(v, x, 0.4)
    assert np.allclose(a, [0.5, 0.1, 0.1, 0.3], atol=1e-12)
    assert min(a) >= 0.4 / 4 - 1e-15
    assert abs(sum(a) - 1) <= 1e-12
    assert abs(sum(w * vi for w, vi in zip(a, v)) - x) <= 1e-9 * 3


def test_decompose_errors():
    with pytest.raises(ValueError):
        decompose_safe_value([0.0, 1.0], 0.1, 0.5)  # below (1-a)v1+a*vn = 0.5
    with pytest.raises(ValueError):
        decompose_safe_value([0.0, 1.0], 0.5, 0.6)  # alpha > 1/2
    with pytest.raises(ValueError):
        decompose_safe_value([0.0, 1.0], 0.5, -0.1)
    with pytest.raises(ValueError):
        decompose_safe_value([1.0, 0.0], 0.5, 0.5)  # not sorted


def test_decompose_random_triples():
    rng = np.random.default_rng(21)
    for _ in range(2000):
        n = int(rng.integers(1, 8))
        v = np.sort(rng.uniform(-5, 5, n))
        alpha = float(rng.uniform(0, 0.5))
        lo = (1 - alpha) * v[0] + alpha * v[-1]
        hi = alpha * v[0] + (1 - alpha) * v[-1]
        # a collapsed range admits exactly one safe value
        x = float(rng.uniform(lo, hi)) if v[-1] > v[0] else float(v[0])
        a = decompose_safe_value(list(v), x, alpha)
        assert len(a) == n
        assert min(a) >= alpha / n - 1e-15
        assert max(a) <= 1 + 1e-15
        assert abs(sum(a) - 1) <= 1e-12
        rec = sum(w * vi for w, vi in zip(a, v))
        assert abs(rec - x) <= 1e-9 * max(v[-1] - v[0], 1e-30)


# ---------------------------------------------------------------------------
# reconstruct_matrices


def test_reconstruct_self_loops_identity():
    pattern = fixed(np.eye(3, dtype=bool))
    trace = _run(3, 1, "midpoint", pattern,
                 initial=np.array([[0.0], [1.0], [2.0]]), epsilon=1e-4)
    matrices = _matrices(trace.positions, _graphs_of(trace, pattern), 0.5)
    assert matrices.shape[2:] == (3, 3)
    for t in range(matrices.shape[0]):
        assert np.array_equal(matrices[t, 0], np.eye(3))


def test_reconstruct_midpoint_complete_graph_row():
    pattern = fixed(np.ones((3, 3), dtype=bool))
    trace = _run(3, 1, "midpoint", pattern, initial=np.array([[0.0], [1.0], [2.0]]))
    matrices = _matrices(trace.positions, _graphs_of(trace, pattern), 0.5)
    # x_p = 1 decomposes over (0,1,2) as alpha/3 plus the two-point split
    row = matrices[0, 0, 0]
    assert np.allclose(row, [5 / 12, 1 / 6, 5 / 12], atol=1e-12)


def test_reconstruct_invariants():
    pattern = random_nonsplit(5, seed=3)
    trace = _run(5, 2, "centroid", pattern, epsilon=1e-3, seed=9)
    matrices = _matrices(trace.positions, _graphs_of(trace, pattern), 1 / 3)
    T = matrices.shape[0]
    assert T == len(trace.positions) - 1
    scale = float(np.abs(trace.positions).max())
    for t in range(T):
        g = pattern.rounds(t + 1, t + 2)[0]
        reversed_adj = g.T
        for k in range(2):
            A = matrices[t, k]
            assert np.all(A >= 0) and np.all(A <= 1 + 1e-15)
            assert np.allclose(A.sum(axis=1), 1.0, atol=1e-12)
            rec = A @ trace.positions[t][:, k]
            assert np.allclose(rec, trace.positions[t + 1][:, k], atol=1e-9 * max(1, scale))
            # support matches the reversed round graph, diagonal included
            assert ((A > 0) == reversed_adj).all()
            assert A[A > 0].min() >= 1 / 3 / 5 - 1e-15


def test_reconstruct_component_matrices_differ_for_centroid():
    pattern = random_nonsplit(5, seed=3)
    trace = _run(5, 2, "centroid", pattern, epsilon=1e-3, seed=9)
    matrices = _matrices(trace.positions, _graphs_of(trace, pattern), 1 / 3)
    diffs = [not np.allclose(matrices[t, 0], matrices[t, 1], atol=1e-12)
             for t in range(matrices.shape[0])]
    assert any(diffs)


def test_reconstruct_rejects_unsafe_trace():
    pattern = fixed(np.ones((3, 3), dtype=bool))
    trace = _run(3, 1, "midpoint", pattern, initial=np.array([[0.0], [1.0], [2.0]]))
    bad = trace.positions.copy()
    bad[1, 0, 0] = 2.5  # outside the received interval [0, 2]
    with pytest.raises(SafenessViolationError):
        _matrices(bad, _graphs_of(trace, pattern), 0.5)


# ---------------------------------------------------------------------------
# check_moreau_assumptions


def test_moreau_identity_matrices():
    pattern = fixed(np.eye(3, dtype=bool))
    trace = _run(3, 1, "midpoint", pattern,
                 initial=np.array([[0.0], [1.0], [2.0]]), epsilon=1e-4)
    graphs = _graphs_of(trace, pattern)
    report = check_moreau_assumptions(reconstruct_matrices(trace.positions, graphs, 0.5), graphs,
                                      0.5, moreau_window(pattern))
    assert report.a1 and report.a2 and report.a3
    assert not report.a4
    assert not report.holds
    assert report.a4_witness is not None


def test_moreau_midpoint_bidirectional_intermittent():
    n = 4
    pattern = bidirectional_intermittent(n, period=3, seed=7)
    trace = _run(n, 1, "midpoint", pattern, epsilon=1e-6, seed=1)
    graphs = _graphs_of(trace, pattern)
    report = check_moreau_assumptions(reconstruct_matrices(trace.positions, graphs, 0.5), graphs,
                                      0.5, moreau_window(pattern))
    assert report.a == pytest.approx(1 / (2 * n))
    assert report.a1 and report.a2 and report.a3 and report.a4
    assert report.holds
    blob = json.loads(json.dumps(report.to_json()))
    assert blob["a"] == pytest.approx(1 / (2 * n))
    assert blob["holds"] is True


def test_moreau_zero_diagonal_witness():
    g = np.ones((2, 2), dtype=bool)
    A = np.array([[[0.0, 1.0], [0.5, 0.5]]])  # agent 0 ignores itself
    report = check_moreau_assumptions([A[np.newaxis]], _stack(fixed(g), 1), 0.5,
                                      moreau_window(fixed(g)))
    assert not report.a1
    assert report.a1_witness == (1, 0, 0)


def test_moreau_non_bidirectional_witness():
    g = from_edges(2, [(0, 1)])
    pattern = fixed(g)
    trace = _run(2, 1, "equal-neighbor", pattern,
                 initial=np.array([[0.0], [1.0]]), epsilon=1e-3)
    graphs = _graphs_of(trace, pattern)
    report = check_moreau_assumptions(reconstruct_matrices(trace.positions, graphs, 0.5), graphs,
                                      0.5, moreau_window(pattern))
    assert not report.a3
    assert report.a3_witness == 1


# ---------------------------------------------------------------------------
# brute_force_consensus_1d


def test_brute_force_pair_midpoint():
    trace = brute_force_consensus_1d([0.0, 1.0], [np.ones((2, 2), dtype=bool)],
                                     AlgorithmKind("midpoint"))
    assert trace == [[0.0, 1.0], [0.5, 0.5]]


def test_brute_force_matches_simulator_rotating_star():
    n = 3
    pattern = adversarial_rotating_star(n)
    graphs = pattern.rounds(1, 11)
    init = [0.0, 0.7, 1.0]
    oracle = brute_force_consensus_1d(init, graphs, AlgorithmKind("midpoint"))
    spec = RunSpec(n=n, d=1, algorithm=AlgorithmKind("midpoint"), pattern=pattern,
                   epsilon=1e-300, initial=np.array(init)[:, None], max_rounds=10, seed=0)
    trace = run(spec)
    sim = trace.positions[:, :, 0]
    assert len(oracle) == len(sim)
    assert np.allclose(sim, oracle, atol=1e-12)


def test_brute_force_matches_simulator_equal_neighbor_cycle():
    n = 3
    cycle = from_edges(n, [(0, 1), (1, 2), (2, 0)])
    graphs = [cycle] * 8
    init = [0.0, 0.25, 1.0]
    oracle = brute_force_consensus_1d(init, graphs, AlgorithmKind("equal-neighbor"))
    spec = RunSpec(n=n, d=1, algorithm=AlgorithmKind("equal-neighbor"), pattern=fixed(cycle),
                   epsilon=1e-300, initial=np.array(init)[:, None], max_rounds=8, seed=0)
    sim = run(spec).positions[:, :, 0]
    assert np.allclose(sim, oracle, atol=1e-12)


def test_brute_force_matches_simulator_extreme_point_and_centroid_1d():
    n = 4
    pattern = random_nonsplit(n, seed=6)
    graphs = pattern.rounds(1, 9)
    init = [0.3, -1.0, 0.4, 2.0]
    for tag in ("extreme-point", "centroid"):
        oracle = brute_force_consensus_1d(init, graphs, AlgorithmKind(tag))
        spec = RunSpec(n=n, d=1, algorithm=AlgorithmKind(tag), pattern=pattern,
                       epsilon=1e-300, initial=np.array(init)[:, None], max_rounds=8, seed=0)
        sim = run(spec).positions[:, :, 0]
        assert np.allclose(sim, oracle, atol=1e-12)


def test_brute_force_limits():
    g6 = np.ones((6, 6), dtype=bool)
    with pytest.raises(ValueError):
        brute_force_consensus_1d([0.0] * 6, [g6], AlgorithmKind("midpoint"))
    g2 = np.ones((2, 2), dtype=bool)
    with pytest.raises(ValueError):
        brute_force_consensus_1d([0.0, 1.0], [g2] * 21, AlgorithmKind("midpoint"))
    with pytest.raises(ValueError):
        brute_force_consensus_1d([0.0, 1.0], [g2],
                                 AlgorithmKind("midpoint", amortized=True))


# ---------------------------------------------------------------------------
# the array audits against the per-agent loops they replaced
#
# The functions below are the audits as they were written one agent, one
# component and one `sorted` at a time. The array versions must agree with
# them bit for bit: margins, worst margin, violations, matrices, exception
# text and every Moreau field.


def _ref_block_graph(pattern, start, end):
    g = pattern.rounds(start + 1, start + 2)[0]
    for t in range(start + 2, end + 1):
        g = graph_product(g, pattern.rounds(t, t + 1)[0])
    return g


def _ref_audit_safeness(trace, pattern, claimed, period=1):
    positions = np.asarray(trace.positions, dtype=float)
    total, n, d = positions.shape
    total -= 1
    if total < 1:
        raise ValueError("trace records no transitions; nothing to audit")
    blocks = total // period
    if blocks < 1:
        raise ValueError(f"trace has {total} rounds, shorter than one period-{period} block")
    margins = np.full((blocks, n, d), np.nan)
    violations = []
    worst = math.inf
    for s in range(blocks):
        start, end = s * period, (s + 1) * period
        g = _ref_block_graph(pattern, start, end)
        for p in range(n):
            pts = positions[start][sorted(in_neighbors(g, p))]
            lo = pts.min(axis=0)
            hi = pts.max(axis=0)
            span = hi - lo
            x = positions[end][p]
            for k in range(d):
                if span[k] <= max(RANGE_FLOOR, 1e-13 * max(abs(lo[k]), abs(hi[k]))):
                    continue
                m = float(min(x[k] - lo[k], hi[k] - x[k]) / span[k])
                margins[s, p, k] = m
                worst = min(worst, m)
                if m < claimed - AUDIT_TOL:
                    shortfall = (claimed - m) * span[k]
                    if shortfall > ROUNDING_ULPS * np.spacing(max(abs(lo[k]), abs(hi[k]))):
                        violations.append((end, p, k, m))
    return margins, worst, violations


def _ref_decompose(values, x, alpha):
    # decompose_safe_value with its sum spelled out left to right from 0.0:
    # Python 3.11's sum(), which compensates rounding from 3.12 on
    values = [float(v) for v in values]
    n = len(values)
    if not 0.0 <= alpha <= 0.5:
        raise ValueError(f"alpha must be in [0, 1/2], got {alpha}")
    v1, vn = values[0], values[-1]
    if vn - v1 <= 0.0:
        return [1.0 / n] * n
    total = 0.0
    for v in values:
        total += v
    y = (x - alpha * (total / n)) / (1 - alpha)
    b1 = min(1.0, max(0.0, (vn - y) / (vn - v1)))
    bn = min(1.0, max(0.0, (y - v1) / (vn - v1)))
    a = [alpha / n] * n
    a[0] += (1 - alpha) * b1
    a[-1] += (1 - alpha) * bn
    return a


def _ref_reconstruct_matrices(trace, pattern, alpha):
    positions = np.asarray(trace.positions, dtype=float)
    total, n, d = positions.shape
    total -= 1
    if total < 1:
        raise ValueError("trace records no transitions; nothing to reconstruct")
    scale = max(1.0, float(np.abs(positions).max()))
    tol = 1e-9 * scale
    matrices = np.zeros((total, d, n, n))
    graphs = []
    for t in range(total):
        g = pattern.rounds(t + 1, t + 2)[0]
        graphs.append(g)
        for p in range(n):
            nbrs = sorted(in_neighbors(g, p))
            for k in range(d):
                vals = [positions[t][q, k] for q in nbrs]
                order = sorted(range(len(nbrs)), key=lambda i: vals[i])
                svals = [vals[i] for i in order]
                x = float(positions[t + 1][p, k])
                lo = (1 - alpha) * svals[0] + alpha * svals[-1]
                hi = alpha * svals[0] + (1 - alpha) * svals[-1]
                if x < lo - tol or x > hi + tol:
                    raise SafenessViolationError(
                        f"round {t + 1}, agent {p}, component {k}: value {x} is outside"
                        f" the {alpha}-safe interval [{lo}, {hi}]")
                weights = _ref_decompose(svals, min(hi, max(lo, x)), alpha)
                for i, w in zip(order, weights):
                    matrices[t, k, p, nbrs[i]] = w
    return matrices, graphs


def _ref_union(pattern, window, rounds):
    keep = np.ones((pattern.n, pattern.n), dtype=bool)
    t = 1
    for _ in range(rounds // window):
        block = np.zeros((pattern.n, pattern.n), dtype=bool)
        for _ in range(window):
            block |= pattern.rounds(t, t + 1)[0]
            t += 1
        keep &= block
    np.fill_diagonal(keep, True)
    return keep


def _ref_moreau(matrices, graphs, pattern, alpha):
    T, d, n, _ = matrices.shape
    a = alpha / n
    a1 = a2 = a3 = True
    a1_w = a2_w = a3_w = a4_w = None
    for t in range(T):
        for k in range(d):
            A = matrices[t, k]
            if a1:
                diag = np.diag(A)
                if (diag <= 0).any():
                    a1 = False
                    a1_w = (t + 1, k, int(np.argmax(diag <= 0)))
            if a2:
                small = (A > 0) & (A < a - 1e-12)
                if small.any():
                    p, q = np.argwhere(small)[0]
                    a2 = False
                    a2_w = (t + 1, k, int(p), int(q), float(A[p, q]))
    for t, g in enumerate(graphs):
        if not is_bidirectional(g):
            a3 = False
            a3_w = t + 1
            break
    window = pattern.period if pattern.period else pattern.n
    if T < window:
        a4 = False
        a4_w = f"the run's {T} rounds hold no whole window of {window} rounds"
    else:
        a4 = is_strongly_connected(_ref_union(pattern, window, T))
        if not a4:
            a4_w = f"recurring-edge graph over window {window} is not strongly connected"
    return MoreauReport(a=a, a1=a1, a2=a2, a3=a3, a4=a4,
                        a1_witness=a1_w, a2_witness=a2_w, a3_witness=a3_w, a4_witness=a4_w)


def _outcome(fn, *args, **kwargs):
    try:
        return "ok", fn(*args, **kwargs)
    except (ValueError, SafenessViolationError) as e:
        return "raised", (type(e), str(e))


def _same_bits(a, b):
    """Equal shapes and equal bits, where NaN matches NaN."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if a.shape != b.shape or not np.array_equal(np.isnan(a), np.isnan(b)):
        return False
    return np.array_equal(np.where(np.isnan(a), 0.0, a).view(np.uint64),
                          np.where(np.isnan(b), 0.0, b).view(np.uint64))


_RULES = [("midpoint", 1), ("component-midpoint", 2), ("extreme-point", 2),
          ("extreme-point", 3), ("equal-neighbor", 2), ("centroid", 2)]
_PATTERNS = ("nonsplit", "rooted", "bidir", "star", "loops")


@st.composite
def _audit_cases(draw):
    """An engine trace over a small scenario, per round or amortized, on
    seeded, integer-grid (tied values), few-ulp (vacuous), few-thousand-ulp
    (live, where rounding shortfalls matter) or partly constant (vacuous
    component) inputs, optionally tampered afterwards by a share of the
    previous round's range or by a few ulps."""
    n = draw(st.integers(2, 6))
    tag, d = draw(st.sampled_from(_RULES))
    amortized = tag not in ("equal-neighbor", "centroid") and draw(st.booleans())
    seed = draw(st.integers(0, 10_000))
    family = draw(st.sampled_from(_PATTERNS))
    pattern = {
        "nonsplit": lambda: random_nonsplit(n, seed),
        "rooted": lambda: random_rooted(n, seed),
        "bidir": lambda: bidirectional_intermittent(n, period=1 + seed % 5, seed=seed),
        "star": lambda: adversarial_rotating_star(n),
        "loops": lambda: fixed(np.eye(n, dtype=bool)),
    }[family]()
    rng = np.random.default_rng(seed)
    inputs = draw(st.sampled_from(["seeded", "grid", "ulps", "thin", "vacuous"]))
    initial = None
    if inputs == "grid":
        initial = rng.integers(0, 3, (n, d)).astype(float)
    elif inputs in ("ulps", "thin"):
        base = rng.uniform(-2.0, 2.0, d)
        ulps = 1 if inputs == "ulps" else 1000
        initial = base + rng.integers(0, 4, (n, d)) * ulps * np.spacing(base)
    elif inputs == "vacuous":
        initial = rng.uniform(0.0, 1.0, (n, d))
        initial[:, 0] = initial[0, 0]
    kind = AlgorithmKind(tag, amortized=amortized)
    spec = RunSpec(n=n, d=d, algorithm=kind, pattern=pattern, epsilon=1e-9, initial=initial,
                   max_rounds=draw(st.integers(1, 24)), seed=seed)
    trace = run(spec)
    positions = trace.positions.copy()
    total = len(positions) - 1
    if total and draw(st.booleans()):
        for _ in range(draw(st.integers(1, 3))):
            t, p, k = draw(st.integers(1, total)), draw(st.integers(0, n - 1)), draw(st.integers(0, d - 1))
            if draw(st.booleans()):
                scale = float(np.ptp(positions[t - 1, :, k]))
                shift = draw(st.sampled_from([-1.0, -1e-3, 1e-3, 1.0]))
            else:
                scale = float(np.spacing(positions[t, p, k]))
                shift = draw(st.sampled_from([-8, -2, 2, 8]))
            positions[t, p, k] += shift * scale
    tampered = RunTrace(spec, positions, trace.deltas, trace.metrics)
    return tampered, pattern, claimed_alpha(kind, n, d), effective_period(kind, n)


# chunk sizes: one block or round per chunk, a few per chunk, and the default
_CHUNKS = st.sampled_from([1, 200, verification.CHUNK_ELEMS])


@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=_audit_cases(), chunk=_CHUNKS)
def test_array_audits_match_per_agent_loops_bit_for_bit(case, chunk):
    with mock.patch.object(verification, "CHUNK_ELEMS", chunk):
        _compare_audits(*case)


def _compare_audits(trace, pattern, alpha, period):
    stack = _graphs_of(trace, pattern)

    for p in sorted({1, period}):
        kind, new = _outcome(audit_safeness, trace.positions, stack, alpha, p)
        ref_kind, ref = _outcome(_ref_audit_safeness, trace, pattern, alpha, p)
        assert kind == ref_kind
        if kind == "raised":
            assert new == ref
            continue
        margins, worst, violations = ref
        assert _same_bits(new.margins, margins)
        assert _same_bits(new.worst_alpha, worst)
        assert new.violations == violations
        assert all(tuple(map(type, v)) == (int, int, int, float) for v in new.violations)

    kind, got = _outcome(_matrices, trace.positions, stack, alpha)
    ref_kind, ref = _outcome(_ref_reconstruct_matrices, trace, pattern, alpha)
    assert kind == ref_kind
    if kind == "raised":
        assert got == ref
        return
    matrices, graphs = ref
    assert _same_bits(got, matrices)
    report = check_moreau_assumptions(reconstruct_matrices(trace.positions, stack, alpha), stack,
                                      alpha, moreau_window(pattern))
    assert report == _ref_moreau(matrices, graphs, pattern, alpha)


@pytest.mark.parametrize("chunk", [1, verification.CHUNK_ELEMS])
def test_array_audits_match_per_agent_loops_on_rounding_shortfalls(chunk):
    # honest runs whose spans shrink to ~1e-13 of the endpoints, where margins
    # fall short of the claim by the update's own rounding and only the
    # ROUNDING_ULPS allowance keeps them from being violations
    for n, d, tag, period, pattern_seed, seed in [(6, 1, "midpoint", 6, 5, 1),
                                                   (8, 2, "centroid", 11, 17, 17)]:
        pattern = bidirectional_intermittent(n, period=period, seed=pattern_seed)
        kind = AlgorithmKind(tag)
        trace = run(RunSpec(n=n, d=d, algorithm=kind, pattern=pattern, epsilon=1e-12,
                            max_rounds=2000, seed=seed))
        alpha = claimed_alpha(kind, n, d)
        report = audit_safeness(trace.positions, _graphs_of(trace, pattern), alpha)
        assert not report.violations
        assert (report.margins < alpha - AUDIT_TOL).any()  # forgiven shortfalls
        with mock.patch.object(verification, "CHUNK_ELEMS", chunk):
            _compare_audits(trace, pattern, alpha, 1)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000), chunk=_CHUNKS)
def test_moreau_witnesses_match_per_matrix_loop(seed, chunk):
    # matrices with zero diagonals and entries below a, on graphs that are
    # not always bidirectional, so every witness shows up somewhere
    rng = np.random.default_rng(seed)
    T, d, n = int(rng.integers(1, 12)), int(rng.integers(1, 4)), int(rng.integers(2, 6))
    matrices = rng.choice([0.2, 0.5], size=(T, d, n, n))
    for _ in range(int(rng.integers(0, 4))):
        cell = tuple(int(rng.integers(0, m)) for m in (T, d, n, n))
        matrices[cell] = rng.choice([0.0, 1e-3, 0.05])
    adj = (rng.random((T, n, n)) < 0.4) | np.eye(n, dtype=bool)
    adj |= adj.transpose(0, 2, 1) & (rng.random((T, 1, 1)) < 0.7)
    pattern = CommPattern(n, per_round(lambda t: adj[(t - 1) % T]))
    stack = _stack(pattern, T)
    # the matrices arrive in chunks of `chunk` elements (at least one round)
    step = max(1, chunk // (n * n * d))
    chunks = (matrices[t:t + step] for t in range(0, T, step))
    report = check_moreau_assumptions(chunks, stack, 0.5, moreau_window(pattern))
    assert report == _ref_moreau(matrices, adj, pattern, 0.5)


def test_reconstruct_raises_for_first_bad_cell_in_round_agent_component_order():
    # with only self-loops every agent must stay put, so each edit is a bad cell
    pattern = fixed(np.eye(3, dtype=bool))
    bad = np.tile(np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]]), (4, 1, 1))
    bad[3, 0, 0] = 9.0  # a later round
    bad[2, 2, 0] = 9.0  # a later agent in the first bad round
    bad[2, 1, 1] = -9.0  # reported: first (round, agent, component)
    trace = RunTrace(None, bad, np.empty((0, 2)), None)
    stack = _graphs_of(trace, pattern)
    with pytest.raises(SafenessViolationError, match=r"^round 2, agent 1, component 1: value -9\.0"):
        _matrices(bad, stack, 0.5)
    assert _outcome(_matrices, bad, stack, 0.5) == \
        _outcome(_ref_reconstruct_matrices, trace, pattern, 0.5)


def test_audit_safeness_temporaries_stay_chunked():
    # 20,000 rounds at n=16, d=4: margins alone take 10 MB, and one unchunked
    # (rounds, n, n, d) masked temporary would take 16 times that
    n, d, rounds = 16, 4, 20_000
    rng = np.random.default_rng(3)
    positions = rng.uniform(0.0, 1.0, (rounds + 1, n, d))
    stack = (rng.random((rounds, n, n)) < 0.3) | np.eye(n, dtype=bool)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        # a claim of -inf flags nothing, so no violation list grows with T
        report = audit_safeness(positions, stack, -math.inf)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert report.margins.shape == (rounds, n, d) and not report.violations
    assert peak <= 2 * report.margins.nbytes, (peak, report.margins.nbytes)


def test_matrix_audits_stream_in_bounded_memory():
    # 5,000 rounds of midpoint on self-loops at n = 64, d = 1: the whole
    # (T, d, n, n) float64 matrix sequence would take 164 MB, one chunk's
    # temporaries take about 1 MB each, and the reconstruction's one pass for
    # max |x| takes the size of the positions (2.6 MB)
    n, rounds = 64, 5000
    pattern = fixed(np.eye(n, dtype=bool))
    trace = run(RunSpec(n=n, d=1, algorithm=AlgorithmKind("midpoint"), pattern=pattern,
                        epsilon=1e-6, max_rounds=rounds, seed=1))
    stack = _graphs_of(trace, pattern)
    assert len(stack) == rounds
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        report = check_moreau_assumptions(reconstruct_matrices(trace.positions, stack, 0.5),
                                          stack, 0.5, moreau_window(pattern))
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert report.a1 and report.a2 and report.a3 and not report.a4
    assert peak <= 8 * 2**20, peak


def test_verification_imports_nothing_of_the_engine_but_constants():
    # the audits re-derive everything from positions and round graphs; from
    # the engine they may take the collapse floor only
    engine = {"simulator", "algorithms"}
    allowed = {"simulator": {"RANGE_FLOOR"}}
    tree = ast.parse(Path(verification.__file__).read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = (node.module or "").rsplit(".", 1)[-1]
            names = {a.name for a in node.names}
            if module in engine:
                extra = names - allowed.get(module, set())
                assert not extra, (module, extra)
            else:  # no `from . import simulator`
                assert not names & engine, names
        elif isinstance(node, ast.Import):
            assert not any(a.name.rsplit(".", 1)[-1] in engine for a in node.names)
