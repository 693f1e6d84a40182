import itertools
import logging
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from consensus_dyn import algorithms
from consensus_dyn.geometry import ENUM_MAX, _reduced_hull
from consensus_dyn.verification import in_hull
from conftest import EnumeratedStacks
from oracles import (MEM_TOL, OracleUnreliableError, build_hyperpyramid, centroid,
                     centroid_oracle_mc, check_kernel_centroid, contains, convex_hull,
                     exact_hull_centroid, exact_planar_centroid, exact_vertex_mean,
                     rank_is_ambiguous)


def _vertex_set(poly):
    return {tuple(v) for v in poly.vertices}


def _brute_frame_2d(points):
    """Independent extreme-point oracle for tiny 2-D sets.

    A point is interior iff it has nonnegative barycentric coordinates in some
    triangle (or segment) of the other points.
    """
    pts = [tuple(p) for p in points]
    frame = []
    for i, p in enumerate(pts):
        others = [q for j, q in enumerate(pts) if j != i]
        inside = False
        for a, b in itertools.combinations(others, 2):
            ab = np.array(b) - np.array(a)
            ap = np.array(p) - np.array(a)
            denom = ab @ ab
            if denom == 0:
                continue
            s = (ap @ ab) / denom
            if -1e-12 <= s <= 1 + 1e-12 and np.linalg.norm(ap - s * ab) <= 1e-9:
                inside = True
                break
        if not inside:
            for tri in itertools.combinations(others, 3):
                a, b, c = (np.array(v) for v in tri)
                m = np.column_stack([b - a, c - a])
                if abs(np.linalg.det(m)) < 1e-12:
                    continue
                u, v = np.linalg.solve(m, np.array(p) - a)
                if u >= -1e-12 and v >= -1e-12 and u + v <= 1 + 1e-12:
                    inside = True
                    break
        if not inside:
            frame.append(p)
    return set(frame)


def test_convex_hull_drops_interior_point():
    poly = convex_hull([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (0.25, 0.25)])
    assert _vertex_set(poly) == {(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)}
    assert poly.dim_affine == 2


def test_convex_hull_single_point():
    poly = convex_hull([(2.0, 3.0)])
    assert _vertex_set(poly) == {(2.0, 3.0)}
    assert poly.dim_affine == 0


def test_convex_hull_collinear():
    poly = convex_hull([(0.0, 0.0), (1.0, 1.0), (2.0, 2.0)])
    assert _vertex_set(poly) == {(0.0, 0.0), (2.0, 2.0)}
    assert poly.dim_affine == 1


def test_convex_hull_rejects_bad_input():
    with pytest.raises(ValueError):
        convex_hull([])
    with pytest.raises(ValueError):
        convex_hull([(0.0, np.nan)])
    with pytest.raises(ValueError):
        convex_hull([(0.0, 1.0)], d=3)


def test_convex_hull_deduplicates():
    poly = convex_hull([(0.0, 0.0), (0.0, 0.0), (1.0, 0.0), (1.0 + 1e-15, 0.0), (0.0, 1.0)])
    assert len(poly.vertices) == 3


def test_convex_hull_matches_brute_frame_2d():
    rng = np.random.default_rng(19)
    for _ in range(150):
        k = int(rng.integers(3, 9))
        pts = rng.uniform(-5, 5, (k, 2))
        assert _vertex_set(convex_hull(pts)) == _brute_frame_2d(pts)


def test_frame_idempotent():
    rng = np.random.default_rng(23)
    for d in (1, 2, 3, 4):
        for _ in range(30):
            k = int(rng.integers(1, 10))
            pts = rng.uniform(-1, 1, (k, d))
            poly = convex_hull(pts)
            again = convex_hull(poly.vertices)
            assert _vertex_set(again) == _vertex_set(poly)
            assert again.dim_affine == poly.dim_affine


def test_contains_triangle():
    poly = convex_hull([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)])
    assert contains(poly, (1 / 3, 1 / 3))
    assert not contains(poly, (1.0, 1.0))
    # boundary point within tolerance
    assert contains(poly, (0.5, 0.5))
    assert contains(poly, (0.5, 0.5 + 1e-12))


def test_contains_componentwise_midpoint_outside_3d():
    poly = convex_hull([(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)])
    assert poly.dim_affine == 2
    assert not contains(poly, (0.5, 0.5, 0.5))
    assert contains(poly, (1 / 3, 1 / 3, 1 / 3))
    assert not in_hull(np.eye(3), np.full(3, 0.5))
    assert in_hull(np.eye(3), np.full(3, 1 / 3))


def test_contains_degenerate_segment():
    poly = convex_hull([(0.0, 0.0), (2.0, 2.0)])
    assert contains(poly, (1.0, 1.0))
    assert not contains(poly, (1.0, 1.2))
    assert not contains(poly, (3.0, 3.0))


def test_contains_dimension_mismatch():
    poly = convex_hull([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)])
    with pytest.raises(ValueError):
        contains(poly, (0.1, 0.1, 0.1))


def test_centroid_simplex_is_vertex_mean():
    rng = np.random.default_rng(31)
    for d in (1, 2, 3, 4):
        done = 0
        while done < 10:
            pts = rng.uniform(-3, 3, (d + 1, d))
            poly = convex_hull(pts)
            if poly.dim_affine < d:
                continue
            res = centroid(poly)
            assert res.centroid.tobytes() == pts.mean(axis=0).tobytes()
            vol = abs(np.linalg.det(pts[1:] - pts[0])) / math.factorial(d)
            assert math.isclose(res.volume, vol, rel_tol=1e-10)
            done += 1


def test_centroid_unit_square():
    res = centroid(convex_hull([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]))
    assert np.allclose(res.centroid, (0.5, 0.5), atol=1e-14)
    assert math.isclose(res.volume, 1.0, rel_tol=1e-12)


def test_centroid_single_point_and_segment():
    res = centroid(convex_hull([(4.0, -1.0)]))
    assert np.allclose(res.centroid, (4.0, -1.0))
    assert res.volume == 0.0
    res = centroid(convex_hull([(0.0, 0.0), (1.0, 1.0), (2.0, 2.0)]))
    assert np.allclose(res.centroid, (1.0, 1.0), atol=1e-12)
    assert math.isclose(res.volume, 2 * math.sqrt(2), rel_tol=1e-12)


def test_centroid_planar_set_embedded_in_3d():
    pts = [(0.0, 0.0, 5.0), (1.0, 0.0, 5.0), (1.0, 1.0, 5.0), (0.0, 1.0, 5.0)]
    res = centroid(convex_hull(pts))
    assert np.allclose(res.centroid, (0.5, 0.5, 5.0), atol=1e-12)
    assert math.isclose(res.volume, 1.0, rel_tol=1e-12)


def test_centroid_membership():
    rng = np.random.default_rng(37)
    for d in (1, 2, 3, 4):
        for _ in range(25):
            k = int(rng.integers(1, 11))
            pts = rng.uniform(-2, 2, (k, d))
            poly = convex_hull(pts)
            assert contains(poly, centroid(poly).centroid)


def test_centroid_range_safety():
    # per component, the centroid keeps a 1/(d+1) relative margin from both extremes
    rng = np.random.default_rng(41)
    for d in (1, 2, 3, 4, 5):
        alpha = 1 / (d + 1)
        for _ in range(40):
            k = int(rng.integers(3, 13))
            pts = rng.uniform(0, 1, (k, d))
            c = centroid(convex_hull(pts)).centroid
            m, big = pts.min(axis=0), pts.max(axis=0)
            for j in range(d):
                rng_j = big[j] - m[j]
                if rng_j <= 1e-30:
                    continue
                margin = min(c[j] - m[j], big[j] - c[j]) / rng_j
                assert margin >= alpha - 1e-9


def test_centroid_affine_invariance():
    rng = np.random.default_rng(43)
    for d in (2, 3):
        for _ in range(20):
            k = int(rng.integers(d + 1, 10))
            pts = rng.uniform(-1, 1, (k, d))
            while True:
                mat = rng.uniform(-1, 1, (d, d))
                if abs(np.linalg.det(mat)) > 0.2:
                    break
            shift = rng.uniform(-5, 5, d)
            lhs = centroid(convex_hull(pts @ mat.T + shift)).centroid
            rhs = centroid(convex_hull(pts)).centroid @ mat.T + shift
            scale = np.abs(pts @ mat.T + shift).max() + 1
            assert np.allclose(lhs, rhs, atol=1e-9 * scale)


def test_flat_monotone_chain_drops_to_rank_one_with_a_warning(caplog):
    # a rank cut that overstates the rank of collinear points: the chain
    # finds fewer than 3 vertices, and the stack drops to a segment
    pts = np.array([[0.0, 0.0], [1.0, 2.0], [3.0, 6.0], [2.0, 4.0]])
    centered = pts - pts.mean(axis=0)
    vt = np.linalg.svd(centered)[2]
    with caplog.at_level(logging.WARNING, logger="consensus_dyn.geometry"):
        rank, basis, proj, hull = _reduced_hull(centered, vt, 2)
    assert (rank, hull) == (1, None)
    assert np.allclose(proj @ basis, centered)
    assert caplog.messages == ["planar hull is flat; reducing to dim 1"]


def _fan_centroid(poly):
    """The simplex-by-simplex fan loop centroid replaced, for full-rank hulls."""
    r = poly.dim_affine
    apex = poly.proj_vertices.mean(axis=0)
    total = 0.0
    acc = np.zeros(r)
    for simplex in poly.simplices:
        pts = poly.proj_points[simplex]
        vol = abs(np.linalg.det(pts - apex)) / math.factorial(r)
        total += vol
        acc += vol * (pts.sum(axis=0) + apex) / (r + 1)
    return poly.origin + (acc / total) @ poly.basis, total


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10**6), st.integers(2, 4), st.integers(0, 12))
def test_centroid_matches_fan_loop_bit_for_bit(seed, d, extra):
    rng = np.random.default_rng(seed)
    poly = convex_hull(rng.uniform(-3, 3, (d + 1 + extra, d)))
    if poly.dim_affine < 2 or len(poly.proj_points) == poly.dim_affine + 1:
        return  # a simplex's centroid is its vertex mean, with no fan
    res = centroid(poly)
    want, volume = _fan_centroid(poly)
    assert res.centroid.tobytes() == want.tobytes()
    assert res.volume == volume


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 12))
def test_box_center_inside_hull_2d(seed, k):
    # the component-wise box center of any finite 2-D set lies in its hull
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-50, 50, (k, 2))
    m, big = pts.min(axis=0), pts.max(axis=0)
    assert contains(convex_hull(pts), (m + big) / 2)


def test_build_hyperpyramid_2d():
    poly = build_hyperpyramid(2, 1.0, 1.0)
    assert _vertex_set(poly) == {(0.0, 0.0), (1.0, -0.5), (1.0, 0.5)}
    assert math.isclose(centroid(poly).centroid[0], 2 / 3, abs_tol=1e-12)


def test_build_hyperpyramid_3d():
    poly = build_hyperpyramid(3, 1.0, 2.0)
    expected = {(0.0, 0.0, 0.0)} | {(1.0, sy, sz) for sy in (-1.0, 1.0) for sz in (-1.0, 1.0)}
    assert _vertex_set(poly) == expected
    assert math.isclose(centroid(build_hyperpyramid(3, 1.0, 1.0)).centroid[0], 3 / 4, abs_tol=1e-12)


def test_build_hyperpyramid_1d():
    poly = build_hyperpyramid(1, 2.0, 1.0)
    assert _vertex_set(poly) == {(0.0,), (2.0,)}
    assert math.isclose(centroid(poly).centroid[0], 1.0, abs_tol=1e-12)


def test_build_hyperpyramid_first_centroid_component():
    for d in (1, 2, 3, 4):
        poly = build_hyperpyramid(d, 1.0, 1.0)
        assert abs(centroid(poly).centroid[0] - d / (d + 1)) <= 1e-12


def test_build_hyperpyramid_validates():
    with pytest.raises(ValueError):
        build_hyperpyramid(0, 1.0, 1.0)
    with pytest.raises(ValueError):
        build_hyperpyramid(2, -1.0, 1.0)
    with pytest.raises(ValueError):
        build_hyperpyramid(2, 1.0, 0.0)


def test_centroid_oracle_mc_unit_square():
    pts = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]
    est, se = centroid_oracle_mc(pts, samples=100_000, seed=5)
    assert np.all(np.abs(est - 0.5) <= 3 * se)
    assert np.all(se < 0.01)


def test_centroid_oracle_mc_triangle():
    pts = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]
    est, se = centroid_oracle_mc(pts, samples=100_000, seed=6)
    assert np.all(np.abs(est - 1 / 3) <= 3 * se)


def test_centroid_oracle_mc_matches_exact_3d():
    rng = np.random.default_rng(53)
    pts = rng.uniform(0, 1, (6, 3))
    poly = convex_hull(pts)
    assert poly.dim_affine == 3
    exact = centroid(poly).centroid
    est, se = centroid_oracle_mc(pts, samples=100_000, seed=7)
    assert np.all(np.abs(est - exact) <= 4 * se)


def test_centroid_oracle_mc_1d():
    est, se = centroid_oracle_mc([(0.0,), (2.0,)], samples=20_000, seed=8)
    assert abs(est[0] - 1.0) <= 4 * se[0]


def test_centroid_oracle_mc_validates():
    pts = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]
    with pytest.raises(ValueError):
        centroid_oracle_mc(pts, samples=100, seed=1)
    with pytest.raises(ValueError):
        centroid_oracle_mc([(0.0, 0.0), (1.0, 1.0)], samples=20_000, seed=1)


def test_centroid_oracle_mc_sliver_unreliable():
    pts = [(0.0, 0.0), (1.0, 1.0), (1.0 + 1e-4, 1.0)]
    with pytest.raises(OracleUnreliableError):
        centroid_oracle_mc(pts, samples=20_000, seed=2)


def _reference_round(x, reach):
    """Agent by agent, the per-hull reference centroid of the positions that
    reached it, computed once per stack of distinct bytes, in agent order."""
    out = np.empty_like(x)
    done = {}
    for p in range(len(x)):
        stack = x[reach[:, p]]
        key = (stack.shape, stack.tobytes())
        if key not in done:
            done[key] = centroid(convex_hull(stack)).centroid
        out[p] = done[key]
    return out


def _centroid_round(x, reach):
    return algorithms.apply_rule(algorithms.parse_kind("centroid"), x[None], reach, 1, (0,),
                                 (x.shape[1],))[0]


@st.composite
def _centroid_rounds(draw):
    """(x, reach) of one centroid round: n 1-16, d 1-5, reach with self-loops."""
    n = draw(st.integers(1, 16))
    d = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = draw(st.sampled_from(["uniform", "grid", "near", "flat", "tilted", "speck"]))
    if shape == "uniform":
        x = rng.uniform(-3, 3, (n, d))
    elif shape == "grid":
        # exact duplicates, collinear and coplanar stacks, and -0.0 next to 0.0
        x = rng.integers(-1, 2, (n, d)) * rng.choice([1.0, -1.0], (n, d))
    elif shape == "near":
        # chains of steps of 0.5-1.05 times 1e-9 of the extent: rows close only
        # to a dropped row, where greedy dedup needs its row loop
        x = rng.uniform(-1, 1, (n, d))
        for i in range(1, n):
            if rng.random() < 0.7:
                x[i] = x[i - 1] + rng.choice([-1.0, 1.0], d) * rng.uniform(0.5, 1.05) * 2e-9
    elif shape == "flat":
        # rank < d with exact zeros off the affine hull
        x = np.zeros((n, d))
        k = int(rng.integers(0, d))
        x[:, rng.permutation(d)[:k]] = rng.uniform(-1, 1, (n, k))
        x += rng.uniform(-5, 5, d)
    elif shape == "tilted":
        # rank < d along a random subspace: the rank cut decides
        k = int(rng.integers(1, d + 1))
        x = rng.uniform(-1, 1, (n, k)) @ rng.uniform(-1, 1, (k, d)) + rng.uniform(-5, 5, d)
    else:
        # rows apart by more than dedup's 1e-9 of their extent but within the
        # rounding noise of their coordinates: the rank cut says 0
        x = 1e3 + rng.uniform(-1e-13, 1e-13, (n, d))
    reach = rng.random((n, n)) < draw(st.sampled_from([0.2, 0.5, 0.9, 1.0]))
    np.fill_diagonal(reach, True)
    return x, reach


@settings(max_examples=400, deadline=None)
@given(_centroid_rounds())
def test_centroid_round_matches_per_hull_reference_bit_for_bit(case):
    # every stack on the per-hull route gets the reference's bytes, and an
    # enumerated one is within a measured bound of the exact centroid
    x, reach = case
    with EnumeratedStacks() as enumerated:
        got = _centroid_round(x, reach)
    for p in range(len(x)):
        check_kernel_centroid(got[p], x[reach[:, p]], enumerated.rows)


def _above_the_cutoff(d):
    """(n, d) strategy: stacks of n - 1 or n points take Qhull at d."""
    least = ENUM_MAX[d] + 2 if d < len(ENUM_MAX) else d + 2
    return st.tuples(st.integers(least, 14), st.just(d))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(3, 5).flatmap(_above_the_cutoff),
       st.sampled_from(["plain", "joggled"]))
def test_centroid_round_takes_qhull_fallbacks_as_the_reference(seed, n_d, fails):
    # Qhull rejects every stack with an odd number of points, and with
    # `fails == "joggled"` the joggled retry too, so the rank drops down to
    # 1; the warnings name the dimensions, and must come in the reference's
    # order. Qhull sees only stacks of rank >= 3 with at least rank + 2
    # points that facet enumeration leaves alone, so d starts at 3 and every
    # agent misses at most one other: each stack holds more points than
    # enumeration takes (rank 5 it never takes).
    n, d = n_d
    import scipy.spatial

    real = scipy.spatial.ConvexHull

    def flaky(points, qhull_options=None):
        if len(points) % 2 and (qhull_options is None or fails == "joggled"):
            raise scipy.spatial.QhullError("rejected by the test")
        return real(points) if qhull_options is None else real(points, qhull_options=qhull_options)

    rng = np.random.default_rng(seed)
    x = rng.uniform(-1, 1, (n, d))
    reach = np.ones((n, n), dtype=bool)
    missed = (np.arange(n) + rng.integers(1, n, n)) % n
    reach[missed, np.arange(n)] = rng.random(n) < 0.3
    logger = logging.getLogger("consensus_dyn.geometry")
    records = []
    handler = logging.Handler()
    handler.emit = lambda record: records.append(record.getMessage())
    logger.addHandler(handler)
    try:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(scipy.spatial, "ConvexHull", flaky)
            got = _centroid_round(x, reach)
            got_log, records[:] = list(records), []
            want = _reference_round(x, reach)
    finally:
        logger.removeHandler(handler)
    assert got.tobytes() == want.tobytes()
    assert got_log == records


def _count_qhull_calls(monkeypatch):
    """The point counts of the Qhull calls made from here on."""
    import scipy.spatial

    calls = []
    real = scipy.spatial.ConvexHull

    def counting(points, *args, **kwargs):
        calls.append(len(points))
        return real(points, *args, **kwargs)

    monkeypatch.setattr(scipy.spatial, "ConvexHull", counting)
    return calls


def test_centroid_round_shares_hull_work_between_identical_stacks(monkeypatch):
    calls = _count_qhull_calls(monkeypatch)
    rng = np.random.default_rng(5)
    # rows 0-7 are the corners of a cube: four points on each facet plane,
    # which facet enumeration leaves to Qhull
    x = np.vstack([np.array(list(itertools.product([0.0, 1.0], repeat=3))), rng.uniform(0, 1, (2, 3))])
    x[9] = x[7]
    adj = np.eye(10, dtype=bool)
    adj[:8, 0] = adj[:8, 1] = True  # agents 0 and 1 both hear the cube
    adj[3, 2] = True  # agent 2 hears 2 and 3: a segment, no hull
    adj[:7, 8] = adj[:7, 9] = True  # 8 hears 0-6 and itself; 9 hears 0-6 and a copy of 7
    new_x = _centroid_round(x, adj)
    # one Qhull call per stack of distinct bytes: 2 stacks, not 4
    assert calls == [8, 8]
    alone = centroid(convex_hull(x[:8])).centroid
    assert new_x[0].tobytes() == new_x[1].tobytes() == new_x[9].tobytes() == alone.tobytes()
    assert new_x.tobytes() == _reference_round(x, adj).tobytes()


@pytest.mark.parametrize("d", [2, 3])
def test_centroid_round_of_simplices_and_polygons_makes_no_qhull_call(monkeypatch, d):
    # polygons come from the monotone chain: at d = 3 rows 0-4 lie in a
    # plane, and at d = 2 each polygon has a point on one of its edges,
    # which facet enumeration leaves to the chain
    calls = _count_qhull_calls(monkeypatch)
    if d == 2:
        x = np.array([[0, 0], [2, 0], [4, 0], [4, 4], [0, 4], [1, 1], [3, 2], [2, 4]], dtype=float)
    else:
        x = np.random.default_rng(11).uniform(-1, 1, (8, d))
        x[:5, 2:] = 0.5
    adj = np.eye(8, dtype=bool)
    adj[:5, 0] = True  # five points of a plane: a polygon
    adj[[2, 3, 4, 7 - 5 * (d == 3)], 1] = True  # four or five points of a plane: a polygon
    adj[[0, 1, 5], 2] = True  # a polygon at d = 2, a tetrahedron at d = 3
    adj[[5, 6], 3] = adj[[2, 7], 4] = True  # two triangles
    adj[:, 5] |= d == 2  # at d = 2, all eight points: a polygon
    new_x = _centroid_round(x, adj)
    assert calls == []
    assert new_x.tobytes() == _reference_round(x, adj).tobytes()
    # each simplex's centroid is its vertex mean
    simplices = {3: [3, 5, 6], 4: [2, 4, 7]} | ({2: [0, 1, 2, 5]} if d == 3 else {})
    for p, rows in simplices.items():
        assert new_x[p].tobytes() == x[rows].mean(axis=0).tobytes()


@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("seed", range(3))
def test_centroid_round_in_general_position_at_most_the_cutoff_makes_no_qhull_call(
        monkeypatch, d, seed):
    # random points at the cutoff and below: every stack of rank d is
    # enumerated, every smaller one is a simplex or a segment
    calls = _count_qhull_calls(monkeypatch)
    rng = np.random.default_rng(seed)
    n = ENUM_MAX[d]
    x = rng.uniform(-1, 1, (n, d))
    adj = rng.random((n, n)) < 0.6
    adj[:, 0] = True  # agent 0 stacks all n points
    np.fill_diagonal(adj, True)
    with EnumeratedStacks() as enumerated:
        _centroid_round(x, adj)
    assert calls == []
    assert (x - x.mean(axis=0)).tobytes() in enumerated.rows


@settings(max_examples=400, deadline=None)
@given(_centroid_rounds(), st.sampled_from(["vertex", "edge", "box", "outside"]),
       st.integers(0, 2**32 - 1))
def test_in_hull_agrees_with_contains(case, query, seed):
    # centroid-round point sets (exact and near duplicates, flat, single points)
    # queried at a set point, on a segment, at the box center, 1e-6 outside
    pts = case[0]
    rng = np.random.default_rng(seed)
    a, b = pts[rng.integers(0, len(pts), 2)]
    u = rng.normal(size=pts.shape[1])
    u /= np.linalg.norm(u)
    x, expected = {"vertex": (a, True), "edge": (a + rng.uniform() * (b - a), True),
                   "box": ((pts.min(axis=0) + pts.max(axis=0)) / 2, True if len(u) <= 2 else None),
                   "outside": (pts[np.argmax(pts @ u)] + 1e-6 * u, False)}[query]
    got = in_hull(pts, x)
    # the facet reference only where the rank is not ambiguous: on a sliver
    # just above the rank cut its facet equations err by more than the
    # tolerance and put the set's own points outside (see the test below)
    if not rank_is_ambiguous(pts):
        assert got == contains(convex_hull(pts), x)
    assert expected is None or got == expected


def test_in_hull_holds_every_point_of_a_sliver():
    # 5 points in R^4, the last three within about 1.6e-9 of each other:
    # the smallest singular values, 3.0e-9 and 1.2e-9 of the largest, lie
    # just above the rank cut, and facet membership put rows 2-4 outside
    pts = np.frombuffer(bytes.fromhex(
        "087eeefe075bec3f40190d67e632973f22303ce1c67aee3fd6e6412495d3eabf"
        "101a74fbab7bcb3fc884b740939ecfbf4220a8705952e33f7cd25a4889d4e4bf"
        "36432b51dfc8e73f807670be7c7fb63f1ea55551e4bde93fe0ffc10f1165a7bf"
        "5d325750dfc8e73fbbefcfb77c7fb63ff7b52952e4bde93f6b0d031d1165a7bf"
        "6bedab4fdfc8e73f49172abd7c7fb63fe9fad452e4bde93f865cb7271165a7bf")).reshape(5, 4)
    assert rank_is_ambiguous(pts)
    assert [in_hull(pts, p) for p in pts] == [True] * 5


@st.composite
def _planar_and_simplex_sets(draw, kinds=("planar", "simplex")):
    """(kind, points): 3-16 points at d = 2, d + 1 points at d = 2-4, or 5-16
    points at d = 3 ("rank 3") or 4 ("rank 4"), in a box of side 2 or 2e-3
    centred at 0 or up to 10 from it."""
    kind = draw(st.sampled_from(kinds))
    d = {"planar": 2, "rank 3": 3, "rank 4": 4}.get(kind) or draw(st.integers(2, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    k = d + 1 if kind == "simplex" else int(rng.integers(3 if kind == "planar" else 5, 17))
    offset = draw(st.sampled_from([0.0, 1.0])) * rng.uniform(-10, 10, d)
    return kind, offset + draw(st.sampled_from([1.0, 1e-3])) * rng.uniform(-1, 1, (k, d))


# the worst errors over 20,000 such sets were 4.72 ulps planar and 2.0 for
# simplices (at d = 4) with the monotone chain; fanning Qhull's hulls of the
# same sets reaches 27 and 265 (a simplex at d = 3). Before facet
# enumeration the worst at rank 3 was 4.25 ulps (over 9,500 sets; 3.44 up to
# the cutoff) and at rank 4 4.16 (4,500 sets; 3.71 up to the cutoff). Facet
# enumeration reached 1.99 at rank 3 (11,000 sets), 1.40 at rank 4 (6,000)
# and 2.43 on planar sets (10,500), where the chain reached 3.88 (1,500)
_ULPS = {"planar": 6, "simplex": 3, "rank 3": 5, "rank 4": 5}


def _all_and_two_short(k):
    """Reach over k points: agent 0 holds all of them, and agents 1 and 2
    all but the last and all but the one before, so that a large enough set
    has the three candidates facet enumeration needs (ENUM_MIN)."""
    reach = np.ones((k, k), dtype=bool)
    reach[k - 1, 1] = reach[k - 2, 2] = False
    return reach


@settings(max_examples=300, deadline=None)
@given(_planar_and_simplex_sets(("planar", "simplex", "rank 3", "rank 4")))
def test_centroid_is_within_ulps_of_the_exact_centroid(case):
    # the exact references share no code or rounding with the kernel: an
    # exact monotone chain and shoelace centroid, the exact vertex mean, and
    # exact facet enumeration
    kind, x = case
    exact = {"planar": exact_planar_centroid, "simplex": exact_vertex_mean}.get(kind, exact_hull_centroid)(x)
    got = _centroid_round(x, _all_and_two_short(len(x)))
    ulp = Fraction(np.spacing(np.abs(x).max()))
    assert max(abs(Fraction(c) - e) for c, e in zip(got[0], exact)) <= _ULPS[kind] * ulp


def test_in_hull_tolerance_scales_with_the_points():
    # 1e-6 of the extent outside a triangle's edge, and its centroid inside,
    # at unit scale, at 2^-40 (where a tolerance of 1e-9 would swallow the
    # whole triangle) and at 2^-600 and 2^600, far from unit scale: the test
    # divides by a power of two, so its answer is the same at every scale
    tri = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    for scale in (-600, -40, 0, 600):
        pts = np.ldexp(tri, scale)
        assert not in_hull(pts, np.ldexp(np.array([0.5, 0.5 + 1e-6]), scale))
        assert in_hull(pts, np.ldexp(np.array([1 / 3, 1 / 3]), scale))


@settings(max_examples=300, deadline=None)
@given(_planar_and_simplex_sets(), st.sampled_from(["vertex", "edge", "box", "outside"]),
       st.integers(0, 2**32 - 1))
def test_hulls_built_without_qhull_agree_with_qhull(case, query, seed):
    # the monotone chain's polygons, and hull membership, against scipy's
    # Qhull on the same sets
    from scipy.spatial import ConvexHull

    _, pts = case
    qhull = ConvexHull(pts)
    assert {tuple(v) for v in convex_hull(pts).vertices} == {tuple(v) for v in pts[qhull.vertices]}
    rng = np.random.default_rng(seed)
    a, b = pts[rng.integers(0, len(pts), 2)]
    u = rng.normal(size=pts.shape[1])
    u /= np.linalg.norm(u)
    x, expected = {"vertex": (a, True), "edge": (a + rng.uniform() * (b - a), True),
                   "box": ((pts.min(axis=0) + pts.max(axis=0)) / 2, True if len(u) <= 2 else None),
                   "outside": (pts[np.argmax(pts @ u)] + 1e-6 * u, False)}[query]
    tol = max(MEM_TOL * float((pts.max(axis=0) - pts.min(axis=0)).max()), convex_hull(pts).noise)
    inside = (qhull.equations[:, :-1] @ x + qhull.equations[:, -1]).max() <= tol
    assert in_hull(pts, x) == inside
    assert expected is None or inside == expected
