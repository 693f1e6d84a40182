"""End-to-end checks of the library's headline guarantees, one test per
claim. Each test prints an ACCEPTANCE line via conftest.check and enforces a
wall-clock budget, so the whole file doubles as a performance gate."""

import itertools
import json
import math
import time

import numpy as np

from conftest import check

from consensus_dyn import cli
from consensus_dyn.algorithms import AlgorithmKind, claimed_alpha
from consensus_dyn.graphs import (
    CommGraph,
    RoundGraphs,
    adversarial_rotating_star,
    bidirectional_intermittent,
    is_nonsplit,
    is_rooted,
    random_nonsplit,
    random_rooted,
)
from consensus_dyn.simulator import (
    RunSpec,
    run,
    theorem_bound,
)
from consensus_dyn.verification import (
    audit_safeness,
    check_moreau_assumptions,
    moreau_window,
    reconstruct_matrices,
)
from oracles import (
    brute_force_consensus_1d,
    build_hyperpyramid,
    centroid,
    centroid_oracle_mc,
    contains,
    convex_hull,
    decompose_safe_value,
    graph_product,
    measure_contraction,
)


def test_01_centroid_safety_constant():
    """Centroid of any vertex set keeps a 1/(d+1) margin per component, with
    the hyperpyramid family exactly tight."""
    t0 = time.monotonic()
    worst_gap = math.inf
    count = 0
    for d in range(1, 6):
        target = 1.0 / (d + 1)
        for i in range(1000):
            rng = np.random.default_rng((100, d, i))
            pts = rng.uniform(0.0, 1.0, (int(rng.integers(3, 13)), d))
            c = centroid(convex_hull(pts)).centroid
            lo, hi = pts.min(axis=0), pts.max(axis=0)
            span = hi - lo
            live = span > 1e-30
            realized = float((np.minimum(c - lo, hi - c)[live] / span[live]).min())
            worst_gap = min(worst_gap, realized - target)
            count += 1
    pyramid_err = 0.0
    for d in range(1, 6):
        poly = build_hyperpyramid(d, 1.0, 1.0)
        c1 = float(centroid(poly).centroid[0])
        pyramid_err = max(pyramid_err, abs(c1 - d / (d + 1)))
    elapsed = time.monotonic() - t0
    passed = worst_gap >= -1e-9 and pyramid_err <= 1e-12 and elapsed < 60
    check(1, passed,
          f"{count} vertex sets, worst margin-target gap {worst_gap:.2e} (>= -1e-9); "
          f"pyramid centroid error {pyramid_err:.1e} (<= 1e-12); {elapsed:.1f}s/60s")


def test_02_extreme_point_safeness():
    """Every round of an extreme-point run stays 1/(2d) inside the received
    per-component ranges."""
    t0 = time.monotonic()
    violations = 0
    worst_gap = math.inf
    for seed in range(200):
        d = 1 + seed % 4
        n = 3 + seed % 8
        pattern = random_nonsplit(n, seed=seed)
        spec = RunSpec(n=n, d=d, algorithm=AlgorithmKind("extreme-point"),
                       pattern=pattern, epsilon=1e-3, max_rounds=500, seed=seed)
        trace = run(spec)
        graphs = RoundGraphs(pattern).first(len(trace.positions) - 1)
        report = audit_safeness(trace.positions, graphs, 1.0 / (2 * d))
        violations += len(report.violations)
        if math.isfinite(report.worst_alpha):
            worst_gap = min(worst_gap, report.worst_alpha - 1.0 / (2 * d))
    elapsed = time.monotonic() - t0
    passed = violations == 0 and elapsed < 60
    check(2, passed,
          f"200 nonsplit runs (d<=4, n<=10), {violations} violations, "
          f"worst margin-target gap {worst_gap:.2e}; {elapsed:.1f}s/60s")


def test_03_midpoint_contraction():
    """Scalar midpoint halves the range every nonsplit round and converges
    within ceil(log2(1/eps)) rounds.

    Initial values are drawn from a dyadic grid (multiples of 2^-26) so every
    midpoint stays exactly representable for 20+ rounds; measured ratios then
    reflect the update rule itself rather than last-ulp rounding of the
    positions."""
    t0 = time.monotonic()
    eps = 2.0 ** -20
    t_bound = math.ceil(math.log2(1.0 / eps))
    worst_ratio = 0.0
    worst_t = 0
    all_converged = True
    for seed in range(200):
        n = 3 + seed % 8
        init = np.random.default_rng(seed).integers(0, 2**26 + 1, (n, 1)) / 2.0**26
        spec = RunSpec(n=n, d=1, algorithm=AlgorithmKind("midpoint"),
                       pattern=random_nonsplit(n, seed=seed), epsilon=eps,
                       initial=init, max_rounds=100, seed=seed)
        trace = run(spec)
        all_converged &= trace.metrics.converged
        worst_t = max(worst_t, trace.metrics.t_eps or 10**9)
        ratios = measure_contraction(trace, 1)
        if ratios.size:
            worst_ratio = max(worst_ratio, float(ratios.max()))
    elapsed = time.monotonic() - t0
    passed = (all_converged and worst_ratio <= 0.5 + 1e-12
              and worst_t <= t_bound and elapsed < 30)
    check(3, passed,
          f"200 nonsplit runs: worst ratio {worst_ratio!r} (<= 0.5+1e-12), "
          f"worst T {worst_t} (<= {t_bound}); {elapsed:.1f}s/30s")


def _rooted_mix(i: int, n: int):
    if i % 2:
        return adversarial_rotating_star(n)
    return random_rooted(n, seed=i)


def test_04_amortized_midpoint_round_bound():
    """Amortized midpoint over rooted patterns (rotating star included)
    converges within (n-1)*ceil(log2(1/eps)) rounds."""
    t0 = time.monotonic()
    eps = 1e-6
    failures = 0
    bound_mismatch = 0
    for i in range(200):
        n = 3 + i % 10
        bound = (n - 1) * math.ceil(math.log2(1.0 / eps))
        spec = RunSpec(n=n, d=1, algorithm=AlgorithmKind("midpoint", amortized=True),
                       pattern=_rooted_mix(i, n), epsilon=eps, max_rounds=bound, seed=i)
        if theorem_bound(spec) != bound:
            bound_mismatch += 1
        trace = run(spec)
        if not (trace.metrics.converged and trace.metrics.t_eps <= bound):
            failures += 1
    elapsed = time.monotonic() - t0
    passed = failures == 0 and bound_mismatch == 0 and elapsed < 120
    check(4, passed,
          f"200 rooted scenarios (n in 3..12): {failures} over bound, "
          f"{bound_mismatch} bound-formula mismatches; {elapsed:.1f}s/120s")


def test_05_amortized_extreme_point_round_bound():
    """Amortized extreme-point over rooted patterns meets the
    (n-1)*ceil(log_{2d/(2d-1)}(1/eps)) bound in every scenario."""
    t0 = time.monotonic()
    eps = 1e-6
    failures = 0
    bound_mismatch = 0
    for i in range(200):
        d = 2 + i % 3
        n = 3 + i % 10
        base = (2.0 * d) / (2.0 * d - 1.0)
        bound = (n - 1) * math.ceil(math.log(1.0 / eps) / math.log(base))
        spec = RunSpec(n=n, d=d, algorithm=AlgorithmKind("extreme-point", amortized=True),
                       pattern=_rooted_mix(i, n), epsilon=eps, max_rounds=bound, seed=i)
        if theorem_bound(spec) != bound:
            bound_mismatch += 1
        trace = run(spec)
        if not (trace.metrics.converged and trace.metrics.t_eps <= bound):
            failures += 1
    elapsed = time.monotonic() - t0
    passed = failures == 0 and bound_mismatch == 0 and elapsed < 180
    check(5, passed,
          f"200 rooted scenarios (d in 2..4, n in 3..12): {failures} over bound, "
          f"{bound_mismatch} bound-formula mismatches; {elapsed:.1f}s/180s")


def test_06_amortized_centroid_bound_and_linear_growth():
    """Amortized centroid meets the (n-1)*ceil(log_{(d+1)/d}(1/eps)) bound,
    and measured T grows at most linearly across n in {4,8,12,16}."""
    t0 = time.monotonic()
    eps = 1e-6
    failures = 0
    for i in range(100):
        d = 2 + i % 2
        n = 3 + i % 10
        base = (d + 1.0) / d
        bound = (n - 1) * math.ceil(math.log(1.0 / eps) / math.log(base))
        spec = RunSpec(n=n, d=d, algorithm=AlgorithmKind("centroid", amortized=True),
                       pattern=_rooted_mix(i, n), epsilon=eps, max_rounds=bound, seed=i)
        trace = run(spec)
        if not (trace.metrics.converged and trace.metrics.t_eps <= bound):
            failures += 1

    ns = [4, 8, 12, 16]
    means = []
    for n in ns:
        bound = (n - 1) * math.ceil(math.log(1.0 / eps) / math.log(1.5))
        ts = []
        for src in ["star"] + list(range(5)):
            if src == "star":
                pattern, seed = adversarial_rotating_star(n), 7 * n
            else:
                pattern, seed = random_rooted(n, seed=src), 7 * n + src
            spec = RunSpec(n=n, d=2, algorithm=AlgorithmKind("centroid", amortized=True),
                           pattern=pattern, epsilon=eps, max_rounds=bound, seed=seed)
            ts.append(run(spec).metrics.t_eps)
        means.append(float(np.mean(ts)))
    exponent = float(np.polyfit(np.log(ns), np.log(means), 1)[0])
    elapsed = time.monotonic() - t0
    passed = failures == 0 and exponent <= 1.15 and elapsed < 300
    check(6, passed,
          f"100 rooted scenarios (d in 2..3): {failures} over bound; sweep mean T "
          f"{[round(m, 1) for m in means]} over n={ns}, LS exponent {exponent:.3f} (<= 1.15); "
          f"{elapsed:.1f}s/300s")


def _random_rooted_graph(rng, n):
    while True:
        adj = np.eye(n, dtype=bool) | (rng.random((n, n)) < 0.35)
        g = CommGraph(n, adj)
        if is_rooted(g):
            return g


def test_07_rooted_products_are_nonsplit():
    """The product of n-1 rooted self-looped digraphs is nonsplit: exhaustive
    at n=3, sampled for n in 4..8."""
    t0 = time.monotonic()
    rooted3 = []
    offdiag = [(p, q) for p in range(3) for q in range(3) if p != q]
    for bits in itertools.product([0, 1], repeat=len(offdiag)):
        adj = np.eye(3, dtype=bool)
        for b, (p, q) in zip(bits, offdiag):
            if b:
                adj[p, q] = True
        g = CommGraph(3, adj)
        if is_rooted(g):
            rooted3.append(g)
    counterexamples = 0
    checked = 0
    for g1 in rooted3:
        for g2 in rooted3:
            checked += 1
            if not is_nonsplit(graph_product(g1, g2)):
                counterexamples += 1
    for n in range(4, 9):
        for i in range(500):
            rng = np.random.default_rng((7, n, i))
            gs = [_random_rooted_graph(rng, n) for _ in range(n - 1)]
            prod = gs[0]
            for g in gs[1:]:
                prod = graph_product(prod, g)
            checked += 1
            if not is_nonsplit(prod):
                counterexamples += 1
    elapsed = time.monotonic() - t0
    passed = counterexamples == 0 and len(rooted3) ** 2 + 2500 == checked and elapsed < 120
    check(7, passed,
          f"{len(rooted3)}^2 exhaustive pairs at n=3 plus 2500 sampled tuples: "
          f"{counterexamples} counterexamples; {elapsed:.1f}s/120s")


def test_08_component_midpoint_dichotomy():
    """The R^3 box center of the three unit vectors escapes their hull, while
    1000 random planar sets keep their box centers inside."""
    t0 = time.monotonic()
    hull3 = convex_hull(np.eye(3))
    mid = np.full(3, 0.5)
    escaped = not contains(hull3, mid)
    inside = 0
    for i in range(1000):
        rng = np.random.default_rng((8, i))
        pts = rng.uniform(0.0, 1.0, (int(rng.integers(3, 9)), 2))
        center = 0.5 * (pts.min(axis=0) + pts.max(axis=0))
        if contains(convex_hull(pts), center):
            inside += 1
    elapsed = time.monotonic() - t0
    passed = escaped and inside == 1000 and elapsed < 10
    check(8, passed,
          f"R^3 box center outside hull: {escaped}; planar box centers inside: "
          f"{inside}/1000; {elapsed:.1f}s/10s")


def test_09_centroid_exact_vs_monte_carlo():
    """Exact polytope centroids agree with the rejection-sampling oracle to
    four standard errors per component."""
    t0 = time.monotonic()
    worst_sigma = 0.0
    count = 0
    for d in (2, 3, 4):
        for i in range(50):
            salt = 0
            while True:
                rng = np.random.default_rng((9, d, i, salt))
                pts = rng.uniform(0.0, 1.0, (int(rng.integers(d + 3, 13)), d))
                poly = convex_hull(pts)
                if poly.dim_affine == d:
                    break
                salt += 1
            exact = centroid(poly).centroid
            mc, se = centroid_oracle_mc(pts, samples=100_000, seed=(9, 1000 * d + i))
            worst_sigma = max(worst_sigma, float((np.abs(exact - mc) / se).max()))
            count += 1
    elapsed = time.monotonic() - t0
    passed = worst_sigma <= 4.0 and count == 150 and elapsed < 120
    check(9, passed,
          f"{count} polytopes (d in 2..4, 1e5 samples): worst |exact-mc| = "
          f"{worst_sigma:.2f} standard errors (<= 4); {elapsed:.1f}s/120s")


def test_10_decomposition_and_matrix_assumptions():
    """10^5 random safe values decompose into convex weights bounded below by
    alpha/n, and matrices reconstructed from a centroid run over an
    intermittent bidirectional pattern satisfy all four product-convergence
    assumptions."""
    t0 = time.monotonic()
    rng = np.random.default_rng(10)
    bad = 0
    worst_sum = 0.0
    worst_rec = 0.0
    for _ in range(100_000):
        n = int(rng.integers(2, 11))
        v = np.sort(rng.uniform(-10.0, 10.0, n))
        alpha = float(rng.uniform(0.0, 0.5))
        lo = (1 - alpha) * v[0] + alpha * v[-1]
        hi = alpha * v[0] + (1 - alpha) * v[-1]
        x = float(rng.uniform(lo, hi)) if v[-1] > v[0] else float(v[0])
        a = decompose_safe_value(list(v), x, alpha)
        if min(a) < alpha / n - 1e-15 or max(a) > 1 + 1e-15:
            bad += 1
        worst_sum = max(worst_sum, abs(sum(a) - 1.0))
        rec = sum(w * vi for w, vi in zip(a, v))
        rng_span = max(float(v[-1] - v[0]), 1e-30)
        worst_rec = max(worst_rec, abs(rec - x) / rng_span if v[-1] > v[0] else abs(rec - x))
        if abs(rec - x) > 1e-9 * rng_span:
            bad += 1

    n, d = 5, 2
    pattern = bidirectional_intermittent(n, period=4, seed=2)
    kind = AlgorithmKind("centroid")
    spec = RunSpec(n=n, d=d, algorithm=kind, pattern=pattern, epsilon=1e-6,
                   max_rounds=5000, seed=3)
    trace = run(spec)
    alpha = claimed_alpha(kind, n, d)
    graphs = RoundGraphs(pattern).first(len(trace.positions) - 1)
    report = check_moreau_assumptions(reconstruct_matrices(trace.positions, graphs, alpha),
                                      graphs, alpha, moreau_window(pattern))
    assumptions_ok = report.holds and abs(report.a - alpha / n) < 1e-15
    elapsed = time.monotonic() - t0
    passed = bad == 0 and worst_sum <= 1e-12 and assumptions_ok and elapsed < 60
    check(10, passed,
          f"1e5 decompositions: {bad} out of bounds, worst weight-sum error "
          f"{worst_sum:.1e}, worst reconstruction {worst_rec:.1e} of range; "
          f"assumptions hold on reconstructed run: {assumptions_ok}; {elapsed:.1f}s/60s")


def test_11_bidirectional_intermittent_consensus():
    """Extreme-point and centroid both reach consensus on every seeded
    intermittently-connected bidirectional scenario, with limits inside the
    initial hull."""
    t0 = time.monotonic()
    failures = []
    for i in range(100):
        n = 3 + i % 6
        d = 1 + i % 3
        period = 2 + i % 9
        pattern = bidirectional_intermittent(n, period=period, seed=i)
        for tag in ("extreme-point", "centroid"):
            spec = RunSpec(n=n, d=d, algorithm=AlgorithmKind(tag), pattern=pattern,
                           epsilon=1e-6 / math.sqrt(d), max_rounds=100_000, seed=i)
            trace = run(spec)
            initial = trace.positions[0]
            final = trace.positions[-1]
            diam0 = max(float(np.linalg.norm(a - b))
                        for a in initial for b in initial)
            diam_t = max(float(np.linalg.norm(a - b)) for a in final for b in final)
            hull0 = convex_hull(initial)
            tol = 1e-9 * max(1.0, float(np.ptp(initial, axis=0).max()))
            valid = all(contains(hull0, final[p], tol=tol) for p in range(n))
            delta_ok = bool((trace.deltas[-1] <= 1e-6 * trace.deltas[0]).all())
            if not (trace.metrics.converged and delta_ok
                    and diam_t <= 1e-6 * diam0 and valid):
                failures.append((i, tag))
    elapsed = time.monotonic() - t0
    passed = not failures and elapsed < 300
    check(11, passed,
          f"100 scenarios x 2 algorithms (n<=8, d<=3, period<=10): "
          f"{len(failures)} failures {failures[:4]}; {elapsed:.1f}s/300s")


def test_12_brute_force_agreement_and_bit_identical_output(tmp_path):
    """The engine matches an independent naive implementation on small scalar
    instances, and CLI artifacts are byte-identical across reruns."""
    t0 = time.monotonic()
    worst_err = 0.0
    cases = 0
    for tag in ("midpoint", "component-midpoint", "equal-neighbor",
                "extreme-point", "centroid"):
        for n, pat_fn in [(3, lambda n: random_nonsplit(n, seed=1)),
                          (4, lambda n: random_rooted(n, seed=2)),
                          (5, lambda n: adversarial_rotating_star(n)),
                          (4, lambda n: random_nonsplit(n, seed=9))]:
            pattern = pat_fn(n)
            init = np.random.default_rng((12, n, cases)).uniform(-1.0, 1.0, n)
            graphs = [pattern.graph(t) for t in range(1, 13)]
            oracle = brute_force_consensus_1d(list(init), graphs, AlgorithmKind(tag))
            spec = RunSpec(n=n, d=1, algorithm=AlgorithmKind(tag), pattern=pattern,
                           epsilon=1e-300, initial=init[:, None], max_rounds=12, seed=0)
            sim = run(spec).positions[:, :, 0]
            err = float(np.abs(sim - np.asarray(oracle)[: len(sim)]).max())
            worst_err = max(worst_err, err)
            cases += 1

    cfg = {"n": 4, "d": 2, "algorithm": "centroid",
           "pattern": {"family": "random-nonsplit", "seed": 5},
           "epsilon": 1e-3, "seed": 2, "audits": {"safeness": True}}
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    codes = []
    for sub in ("a", "b"):
        codes.append(cli.main(["run", "--config", str(cfg_path),
                               "--out", str(tmp_path / sub)]))
    identical = all(
        (tmp_path / "a" / f).read_bytes() == (tmp_path / "b" / f).read_bytes()
        for f in ("trace.csv", "deltas.csv", "margins.csv", "summary.json"))
    elapsed = time.monotonic() - t0
    passed = (worst_err <= 1e-12 and cases == 20 and codes == [0, 0]
              and identical and elapsed < 30)
    check(12, passed,
          f"{cases} scalar scenarios vs naive reference, worst |diff| {worst_err:.1e} "
          f"(<= 1e-12); rerun artifacts byte-identical: {identical}; {elapsed:.1f}s/30s")
