"""References and fixtures the tests compare the package against.

Nothing here is on the command line's path: the per-set update rules that
the whole-array kernel must agree with, the per-hull `convex_hull` and
`centroid` that `geometry.hull_centroids` must match bit for bit on the
stacks it does not enumerate, exact centroids in `fractions.Fraction` (a
polygon's, a simplex's and, by facet enumeration, any full-rank hull's) and
`check_kernel_centroid`, which holds each kernel centroid to the right one
of them, the one-round margin row that the margins of margins.csv must match, the facet
reference for hull membership, `contains` (half-spaces of the per-hull
reference's facets, which `verification.in_hull` is compared against where
the rank is not ambiguous), a Monte Carlo centroid, the hyperpyramid that
attains the centroid's safety constant, the scalar convex-combination
construction that `reconstruct_matrices` vectorizes, a naive pure-Python
scalar engine for tiny instances, per-macro-round contraction ratios,
graphs by edge list, patterns given round by round, the graph operations
the tests build expectations from, each round's own random
stream as the pattern families define it, and the round-graph count of the
stack's read-ahead rule.
"""

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from consensus_dyn.algorithms import AlgorithmKind
from consensus_dyn.geometry import DUP_TOL, GeometryError, _rank_cut, _reduced_hull
from consensus_dyn.simulator import RANGE_FLOOR, RunTrace
from consensus_dyn.verification import in_hull

# membership tolerance of `contains`, relative to the hull's extent
MEM_TOL = 1e-9


# ---------------------------------------------------------------------------
# base update rules, one received set at a time


def equal_neighbor_update(received: np.ndarray) -> np.ndarray:
    """Arithmetic mean with weight 1/k per received position (multiset: duplicates count)."""
    arr = np.asarray(received, dtype=float)
    if arr.size == 0:
        raise ValueError("need at least one received position")
    return arr.mean(axis=0)


def midpoint_update_1d(m: float, M: float) -> float:
    if m > M:
        raise ValueError(f"need m <= M, got ({m}, {M})")
    return (m + M) / 2


def fold_min_max(arr: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Componentwise least and greatest of the rows of arr, folded with
    np.minimum and np.maximum in row order: which zero a mix of +0.0 and
    -0.0 gives is then fixed, where arr.min(axis=0) picks it by SIMD lane."""
    return functools.reduce(np.minimum, arr), functools.reduce(np.maximum, arr)


def component_midpoint_update(received: np.ndarray) -> np.ndarray:
    arr = np.asarray(received, dtype=float)
    if arr.size == 0:
        raise ValueError("need at least one received position")
    lo, hi = fold_min_max(arr)
    return (lo + hi) / 2


def _select_extreme(points: np.ndarray, senders: Sequence[int], comp: int,
                    maximize: bool, rng: Optional[np.random.Generator]) -> np.ndarray:
    coords = points[:, comp]
    target = coords.max() if maximize else coords.min()
    ties = np.nonzero(coords == target)[0]
    if len(ties) == 1:
        return points[ties[0]]
    if rng is not None:
        return points[int(rng.choice(ties))]
    best = None
    for i in ties:
        key = (senders[i], tuple(points[i]))
        if best is None or key < best[0]:
            best = (key, int(i))
    return points[best[1]]


def extreme_point_update(received: np.ndarray, d: int,
                         senders: Optional[Sequence[int]] = None,
                         rng: Optional[np.random.Generator] = None) -> np.ndarray:
    """Average of 2d selected positions: per component one minimal and one maximal.

    Ties are broken by lowest sender id then lexicographic point order (sender
    ids default to list positions), or uniformly at random when rng is given,
    drawn in the order min 0, max 0, min 1, ... The average is the mean of
    the (2d, d) stack of the d minimal positions, then the d maximal ones.
    """
    arr = np.asarray(received, dtype=float)
    if arr.size == 0:
        raise ValueError("need at least one received position")
    arr = arr.reshape(len(arr), d)
    if senders is None:
        senders = list(range(len(arr)))
    picks = np.empty((2 * d, d))
    for i in range(d):
        picks[i] = _select_extreme(arr, senders, i, False, rng)
        picks[d + i] = _select_extreme(arr, senders, i, True, rng)
    return picks.mean(axis=0)


def centroid_update(received: np.ndarray) -> np.ndarray:
    """Centroid of the hull of the received positions (multiplicities irrelevant)."""
    arr = np.asarray(received, dtype=float)
    if arr.size == 0:
        raise ValueError("need at least one received position")
    return centroid(convex_hull(arr)).centroid


# ---------------------------------------------------------------------------
# geometry


@dataclass(frozen=True)
class Polytope:
    """Convex hull of a finite point set, reduced to its frame (extreme points).

    ``origin``/``basis`` define the affine hull: basis rows are orthonormal and
    ``proj_points`` are the deduplicated input points in those coordinates.
    ``equations`` holds facet half-spaces [normal | offset] in projected
    coordinates (unit normals, inside = normal @ y + offset <= 0); present only
    when dim_affine >= 2. ``noise`` is how far the rank cut may have moved a
    point: the largest singular value it dropped, at least 64 ulps of the
    largest |coordinate|.
    """

    vertices: np.ndarray
    dim_ambient: int
    dim_affine: int
    origin: np.ndarray
    basis: np.ndarray
    proj_points: np.ndarray
    proj_vertices: np.ndarray
    equations: Optional[np.ndarray]
    simplices: Optional[np.ndarray]
    extent: float
    noise: float = 0.0

    def __post_init__(self):
        for name in ("vertices", "origin", "basis", "proj_points", "proj_vertices",
                     "equations", "simplices"):
            arr = getattr(self, name)
            if arr is not None:
                arr.setflags(write=False)


def _as_points(points, d: Optional[int] = None) -> np.ndarray:
    arr = np.asarray(points, dtype=float)
    if arr.size == 0:
        raise ValueError("need at least one point")
    if arr.ndim == 1:
        arr = arr.reshape(1, -1)
    if arr.ndim != 2:
        raise ValueError(f"points must be a 2-D array, got shape {arr.shape}")
    if d is not None and arr.shape[1] != d:
        raise ValueError(f"points have dimension {arr.shape[1]}, expected {d}")
    if not np.isfinite(arr).all():
        raise ValueError("points must be finite")
    return arr


def _greedy_dedup(arr: np.ndarray, tol: float) -> np.ndarray:
    """Rows of arr in order, keeping a row unless a kept row is within tol."""
    keep = [0]
    for i in range(1, len(arr)):
        if np.linalg.norm(arr[keep] - arr[i], axis=1).min() > tol:
            keep.append(i)
    return arr[keep]


def convex_hull(points, d: Optional[int] = None) -> Polytope:
    """Frame and facet structure of the convex hull of `points`.

    The returned vertices are exactly the extreme points of the input (original
    coordinates, deduplicated within tau_dup); dim_affine is the rank of the
    centered point matrix at the tau_rank cutoff.
    """
    arr = _as_points(points, d)
    dim = arr.shape[1]
    extent = float((arr.max(axis=0) - arr.min(axis=0)).max()) if len(arr) > 1 else 0.0

    unique = _greedy_dedup(arr, DUP_TOL * extent) if extent > 0 else arr[:1].copy()
    origin = unique.mean(axis=0)
    centered = unique - origin
    if len(unique) == 1:
        rank, vt = 0, None
    else:
        _, svals, vt = np.linalg.svd(centered, full_matrices=False)
        # m points can never span more than m - 1 affine dimensions
        rank = min(int(_rank_cut(svals, float(np.abs(arr).max()))), len(unique) - 1)

    rank, basis, proj, hull = _reduced_hull(centered, vt, rank)
    noise = 64 * np.finfo(float).eps * float(np.abs(arr).max())
    if len(unique) > 1 and rank < len(svals):
        noise = max(noise, float(svals[rank]))
    if rank == 0:
        return Polytope(unique[:1].copy(), dim, 0, origin, basis,
                        np.zeros((1, 0)), np.zeros((1, 0)), None, None, extent, noise)
    if rank == 1:
        line = proj[:, 0]
        idx = [int(np.argmin(line)), int(np.argmax(line))]
        return Polytope(unique[idx].copy(), dim, 1, origin, basis,
                        proj, proj[idx].copy(), None, None, extent, noise)
    idx = hull.vertices
    return Polytope(unique[idx].copy(), dim, rank, origin, basis,
                    proj, proj[idx].copy(), _equations(proj, hull),
                    hull.simplices.copy(), extent, noise)


def _equations(proj: np.ndarray, hull) -> np.ndarray:
    """Facet half-spaces of a hull from `_reduced_hull`: Qhull's own, or a
    monotone chain's edges, counterclockwise, with their outward unit
    normals and offsets."""
    if hasattr(hull, "equations"):
        return hull.equations.copy()
    start, end = proj[hull.simplices[:, 0]], proj[hull.simplices[:, 1]]
    normal = (end - start)[:, ::-1] * [1.0, -1.0]
    normal /= np.linalg.norm(normal, axis=1)[:, None]
    return np.column_stack([normal, -(normal * start).sum(axis=1)])


def rank_is_ambiguous(points) -> bool:
    """Whether a singular value of the deduplicated, centered points lies
    within a factor 1e3 of the rank cut, where rounding can decide the rank
    (the rule bench/checker.py uses)."""
    arr = _as_points(points)
    extent = float((arr.max(axis=0) - arr.min(axis=0)).max())
    unique = _greedy_dedup(arr, DUP_TOL * extent) if extent > 0 else arr[:1]
    svals = np.linalg.svd(unique - unique.mean(axis=0), compute_uv=False)[:len(unique) - 1]
    cut = max(1e-9 * svals[0], 64 * np.finfo(float).eps * float(np.abs(arr).max())) if len(svals) else 0.0
    return bool(((svals > cut / 1e3) & (svals < cut * 1e3)).any())


def _default_tol(poly: Polytope, tol: Optional[float]) -> float:
    """1e-9 of the extent, at least the rank cut's noise."""
    if tol is not None:
        return tol
    return max(MEM_TOL * poly.extent, poly.noise)


def _membership(poly: Polytope, pts: np.ndarray, tol: float) -> np.ndarray:
    # orthogonal residual to the affine hull, then half-space margins inside it
    diff = pts - poly.origin
    y = diff @ poly.basis.T
    res = np.linalg.norm(diff - y @ poly.basis, axis=1)
    ok = res <= tol
    if poly.dim_affine == 0:
        return ok
    if poly.dim_affine == 1:
        line = poly.proj_vertices[:, 0]
        return ok & (y[:, 0] >= line.min() - tol) & (y[:, 0] <= line.max() + tol)
    margins = y @ poly.equations[:, :-1].T + poly.equations[:, -1]
    return ok & (margins.max(axis=1) <= tol)


def contains(poly: Polytope, x, tol: Optional[float] = None) -> bool:
    """True iff x is within distance ~tol of the hull (default: 1e-9 of the
    extent, at least what the rank cut may have moved a point)."""
    pt = np.asarray(x, dtype=float).reshape(1, -1)
    if pt.shape[1] != poly.dim_ambient:
        raise ValueError(f"point dimension {pt.shape[1]} != {poly.dim_ambient}")
    return bool(_membership(poly, pt, _default_tol(poly, tol))[0])



@dataclass(frozen=True)
class CentroidResult:
    centroid: np.ndarray
    volume: float


def centroid(poly: Polytope) -> CentroidResult:
    """Uniform-mass centroid of the hull, computed in its affine dimension.

    Full-rank case: the hull is fanned into simplices from the vertex average;
    the centroid is the volume-weighted mean of simplex centroids (each the
    arithmetic mean of its vertices), simplex volume = |det| / r!. A hull of
    r + 1 points is itself a simplex, and its centroid is their mean, `origin`.
    """
    r = poly.dim_affine
    if r == 0:
        return CentroidResult(poly.vertices[0].copy(), 0.0)
    if r == 1:
        line = poly.proj_vertices[:, 0]
        mid = (line.min() + line.max()) / 2
        length = float(line.max() - line.min())
        return CentroidResult(poly.origin + mid * poly.basis[0], length)

    apex = poly.proj_vertices.mean(axis=0)
    pts = poly.proj_points[poly.simplices]
    vols = np.abs(np.linalg.det(pts - apex)) / math.factorial(r)
    # cumsum adds left to right, as a running sum from 0.0 over the simplices
    # does; the zero row keeps a -0.0 first term from surviving as -0.0
    terms = vols[:, None] * (pts.sum(axis=1) + apex) / (r + 1)
    total = np.cumsum(vols)[-1]
    acc = np.cumsum(np.vstack([np.zeros(r), terms]), axis=0)[-1]
    if total <= 0.0 or not np.isfinite(total):
        raise GeometryError(f"degenerate fan decomposition: volume={total!r} at rank {r}")
    if len(poly.proj_points) == r + 1:
        return CentroidResult(poly.origin.copy(), total)
    return CentroidResult(poly.origin + (acc / total) @ poly.basis, total)


def exact_vertex_mean(points) -> List[Fraction]:
    """The mean of the rows of `points` in exact arithmetic: the centroid of a
    simplex whose vertices they are."""
    cols = zip(*np.asarray(points).tolist())
    return [sum(map(Fraction, col), Fraction(0)) / len(points) for col in cols]


def exact_planar_centroid(points) -> List[Fraction]:
    """Centroid of the hull of (m, 2) points, not all on a line, in exact
    arithmetic: Andrew's monotone chain with exact orientation tests, then
    the shoelace centroid of the chain's polygon."""
    pts = sorted({(Fraction(x), Fraction(y)) for x, y in np.asarray(points).tolist()})

    def turn(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    def chain(seq):
        out = []
        for p in seq:
            while len(out) > 1 and turn(out[-2], out[-1], p) <= 0:
                out.pop()
            out.append(p)
        return out[:-1]

    hull = chain(pts) + chain(pts[::-1])
    if len(hull) < 3:
        raise ValueError("the points lie on a line")
    area2 = cx = cy = Fraction(0)
    for (x0, y0), (x1, y1) in zip(hull, hull[1:] + hull[:1]):
        cross = x0 * y1 - x1 * y0
        area2 += cross
        cx += (x0 + x1) * cross
        cy += (y0 + y1) * cross
    return [cx / (3 * area2), cy / (3 * area2)]


def _int_det(rows) -> int:
    """Determinant of a square matrix of Python ints, by cofactor expansion."""
    if len(rows) == 1:
        return rows[0][0]
    return sum((-1) ** j * rows[0][j] * _int_det([row[:j] + row[j + 1:] for row in rows[1:]])
               for j in range(len(rows)) if rows[0][j])


def exact_hull_centroid(points) -> List[Fraction]:
    """Centroid of the hull of (m, r) points that span r dimensions, in
    exact arithmetic: every r-subset whose other points all lie strictly on
    one side of its hyperplane is a facet, and the hull is the union of the
    cones from the points' mean over its facets, each of volume |det| / r!
    and centroid (apex + its facet's points) / (r + 1). Raises ValueError
    when a facet's hyperplane holds another point. Coordinates are scaled to
    integers by a common power of two (and by m, to make the mean one), so
    that all the work is integer arithmetic."""
    rows = sorted({tuple(map(Fraction, p)) for p in np.asarray(points).tolist()})
    m, r = len(rows), len(rows[0])
    denom = max(c.denominator for row in rows for c in row) * m
    ints = [[int(c * denom) for c in row] for row in rows]
    apex = [sum(col) // m for col in zip(*ints)]
    rel = [[c - a for c, a in zip(row, apex)] for row in ints]
    total, acc = 0, [0] * r
    for subset in itertools.combinations(range(m), r):
        base = rel[subset[0]]
        edges = [[c - b for c, b in zip(rel[i], base)] for i in subset[1:]]
        normal = [(-1) ** j * _int_det([e[:j] + e[j + 1:] for e in edges]) for j in range(r)]
        sides = {(s > 0) - (s < 0) for s in
                 (sum(n * (c - b) for n, c, b in zip(normal, rel[i], base))
                  for i in range(m) if i not in subset)}
        if len(sides - {0}) == 1:
            if 0 in sides:
                raise ValueError(f"the facet {subset} holds another point")
            volume = abs(sum(n * b for n, b in zip(normal, base)))
            total += volume
            acc = [a + volume * sum(rel[i][j] for i in subset) for j, a in enumerate(acc)]
    if total == 0:
        raise ValueError("the points do not span their dimension")
    return [(Fraction(a, (r + 1) * total) + c) / denom for a, c in zip(acc, apex)]


# stacks the kernel enumerated, against the exact centroid: over 8,000
# rounds of tests/test_geometry.py's `_centroid_rounds` (4,992 enumerated
# stacks) the worst error was 0.58 ulps of the largest |coordinate| per unit
# of condition number (largest over smallest singular value of the centered
# rows), and 0.88 for the per-hull reference on the same stacks
ENUM_ULPS_PER_COND = 1


def check_kernel_centroid(got: np.ndarray, stack: np.ndarray, enumerated: Set[bytes]) -> None:
    """Assert that the kernel's centroid `got` of `stack` is the per-hull
    reference's bytes, or, for a stack it enumerated (its centered rows, as
    the reference has them, are among the bytes in `enumerated`), within
    ENUM_ULPS_PER_COND of the exact centroid; where the rank is ambiguous
    the kernel's rank cut may differ from the reference's, and `got` need
    only lie in the hull, by `verification.in_hull`, which has no rank cut:
    the facet reference `contains` can put a sliver's own points outside
    exactly there."""
    poly = convex_hull(stack)
    if poly.proj_points.tobytes() in enumerated:
        svals = np.linalg.svd(poly.proj_points, compute_uv=False)
        ulps = ENUM_ULPS_PER_COND * Fraction(svals[0] / svals[-1])
        error = max(abs(Fraction(c) - e) for c, e in zip(got, exact_hull_centroid(poly.vertices)))
        assert error <= ulps * Fraction(np.spacing(np.abs(stack).max())), (got, stack)
    elif rank_is_ambiguous(stack):
        assert in_hull(stack, got), (got, stack)
    else:
        assert got.tobytes() == centroid(poly).centroid.tobytes(), (got, stack)


class OracleUnreliableError(GeometryError):
    """Monte Carlo acceptance rate too low for a trustworthy estimate."""


def centroid_oracle_mc(points, samples: int, seed: int) -> Tuple[np.ndarray, np.ndarray]:
    """Rejection-sampling centroid estimate over the bounding box.

    Independent of the exact route: samples the box, keeps points passing the
    membership test, returns (mean, per-component standard error). Requires a
    full-dimensional hull and at least 10^4 samples; raises OracleUnreliableError
    when the acceptance rate drops below 1e-3.
    """
    arr = _as_points(points)
    if samples < 10_000:
        raise ValueError(f"need at least 10^4 samples, got {samples}")
    poly = convex_hull(arr)
    if poly.dim_affine != poly.dim_ambient:
        raise ValueError(
            f"hull is {poly.dim_affine}-dimensional in R^{poly.dim_ambient}; oracle needs full dimension")
    lo, hi = arr.min(axis=0), arr.max(axis=0)
    rng = np.random.default_rng(seed)
    accepted = []
    remaining = samples
    while remaining > 0:
        chunk = min(remaining, 20_000)
        pts = rng.uniform(lo, hi, (chunk, arr.shape[1]))
        pts = pts.reshape(chunk, arr.shape[1])
        mask = _membership(poly, pts, 0.0)
        if mask.any():
            accepted.append(pts[mask])
        remaining -= chunk
    count = sum(len(a) for a in accepted)
    if count < 1e-3 * samples or count < 2:
        raise OracleUnreliableError(
            f"acceptance rate {count / samples:.2e} below 1e-3; bounding box too loose")
    hits = np.vstack(accepted)
    return hits.mean(axis=0), hits.std(axis=0, ddof=1) / math.sqrt(count)


def build_hyperpyramid(d: int, L: float, theta: float) -> Polytope:
    """Pyramid with apex at the origin over a (d-1)-cube base at x_1 = L.

    Base vertices have first coordinate L and remaining coordinates +-theta/2;
    its first centroid component sits at L*d/(d+1), the extreme case for the
    centroid's per-component safety margin.
    """
    if d < 1:
        raise ValueError(f"need d >= 1, got {d}")
    if not (L > 0) or not (theta > 0):
        raise ValueError(f"need L > 0 and theta > 0, got L={L}, theta={theta}")
    verts = [np.zeros(d)]
    for signs in np.ndindex(*(2,) * (d - 1)):
        v = np.empty(d)
        v[0] = L
        for j, s in enumerate(signs):
            v[j + 1] = (s - 0.5) * theta
        verts.append(v)
    return convex_hull(np.array(verts))


# ---------------------------------------------------------------------------
# graphs


def from_edges(n: int, edges: Iterable[Tuple[int, int]]) -> np.ndarray:
    """The read-only (n, n) adjacency of the (sender, receiver) pairs, with
    every self-loop added."""
    adj = np.eye(n, dtype=bool)
    for p, q in edges:
        if not (0 <= p < n and 0 <= q < n):
            raise ValueError(f"edge ({p}, {q}) out of range for n={n}")
        adj[p, q] = True
    adj.flags.writeable = False
    return adj


def per_round(graph_fn: Callable[[int], np.ndarray]) -> Callable[[int, np.ndarray], None]:
    """The `CommPattern` fill function of a pattern given as a function of
    one round, filled round by round."""
    def fill(t0: int, out: np.ndarray) -> None:
        for i in range(len(out)):
            out[i] = graph_fn(t0 + i)
    return fill


def in_neighbors(adj: np.ndarray, p: int) -> Set[int]:
    """Agents q with an edge q -> p (always includes p itself)."""
    if not (0 <= p < len(adj)):
        raise ValueError(f"agent {p} out of range for n={len(adj)}")
    return {int(q) for q in np.nonzero(adj[:, p])[0]}


def graph_product(g: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Relational composition: edge p->q iff p->r in g and r->q in h for some r."""
    if g.shape != h.shape:
        raise ValueError(f"size mismatch: {len(g)} != {len(h)}")
    # int64 path counts, which no graph that fits in memory can wrap
    return (g.astype(np.int64) @ h.astype(np.int64)) > 0


def is_bidirectional(adj: np.ndarray) -> bool:
    return bool((adj == adj.T).all())


def round_rng(seed: int, t: int) -> np.random.Generator:
    """Round t's stream of a random pattern family, made as the families
    define it: one SeedSequence and one Generator for the round."""
    return np.random.default_rng(np.random.SeedSequence((seed, t)))


def rounds_read_ahead(rounds: int, first_fill: int) -> int:
    """How many round graphs reading rounds 1..rounds one at a time
    generates when a miss at round t fills to max(t, 2·filled, first_fill)."""
    filled = 0
    for t in range(1, rounds + 1):
        if t > filled:
            filled = max(t, 2 * filled, first_fill)
    return filled


# ---------------------------------------------------------------------------
# runs


def margin_row(prev: np.ndarray, adj: np.ndarray, new: np.ndarray) -> np.ndarray:
    """Realized relative margin of each agent's new position against the
    range of prev over its in-neighbours (adj[q, p]); NaN when every
    component range had already collapsed."""
    lo = np.where(adj[:, :, None], prev[:, None, :], np.inf).min(axis=0)
    hi = np.where(adj[:, :, None], prev[:, None, :], -np.inf).max(axis=0)
    span = hi - lo
    live = span > RANGE_FLOOR
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(live, np.minimum(new - lo, hi - new) / span, np.inf)
    return np.where(live.any(axis=1), ratio.min(axis=1), np.nan)


def measure_contraction(trace: RunTrace, macro_period: int) -> np.ndarray:
    """Per-component contraction ratios delta(s*P) / delta((s-1)*P) across
    consecutive macro-rounds of length P. Ratios with a denominator at or
    below the collapse floor are reported as 0."""
    if macro_period < 1:
        raise ValueError(f"need macro_period >= 1, got {macro_period}")
    deltas = trace.deltas
    total = len(deltas) - 1
    blocks = total // macro_period
    out = np.zeros((blocks, deltas.shape[1]))
    for s in range(1, blocks + 1):
        prev = deltas[(s - 1) * macro_period]
        cur = deltas[s * macro_period]
        live = prev > RANGE_FLOOR
        out[s - 1, live] = cur[live] / prev[live]
    return out


def decompose_safe_value(values: Sequence[float], x: float, alpha: float) -> List[float]:
    """Write x as a convex combination of the sorted values with every weight
    at least alpha/n.

    Construction: a = (alpha/n) * ones + (1 - alpha) * b, where b places
    (x - alpha*mean)/(1 - alpha) on the two endpoints alone. Feasible exactly
    when x lies in [(1-a)v1 + a*vn, a*v1 + (1-a)*vn].
    """
    values = [float(v) for v in values]
    n = len(values)
    if n < 1:
        raise ValueError("need at least one value")
    if not 0.0 <= alpha <= 0.5:
        raise ValueError(f"alpha must be in [0, 1/2], got {alpha}")
    if any(values[i] > values[i + 1] for i in range(n - 1)):
        raise ValueError("values must be sorted ascending")
    v1, vn = values[0], values[-1]
    lo = (1 - alpha) * v1 + alpha * vn
    hi = alpha * v1 + (1 - alpha) * vn
    if not lo - 1e-12 * max(vn - v1, 1.0) <= x <= hi + 1e-12 * max(vn - v1, 1.0):
        raise ValueError(f"x={x} outside the safe interval [{lo}, {hi}]")
    if vn - v1 <= 0.0:
        return [1.0 / n] * n
    mean = sum(values) / n
    y = (x - alpha * mean) / (1 - alpha)
    # clamp fp residue so b stays a convex pair
    b1 = min(1.0, max(0.0, (vn - y) / (vn - v1)))
    bn = min(1.0, max(0.0, (y - v1) / (vn - v1)))
    a = [alpha / n] * n
    a[0] += (1 - alpha) * b1
    a[-1] += (1 - alpha) * bn
    return a


def brute_force_consensus_1d(values: Sequence[float], graphs: Sequence[np.ndarray],
                             algorithm: AlgorithmKind) -> List[List[float]]:
    """Naive scalar reference: iterate explicit weight vectors over a fixed
    list of round graphs, pure Python throughout. Supports the non-amortized
    rules only, n <= 5 and horizon <= 20; meant for cross-validating the
    engine on instances small enough to trust by inspection.
    """
    xs = [float(v) for v in values]
    n = len(xs)
    if n < 1 or n > 5:
        raise ValueError(f"reference implementation handles 1 <= n <= 5, got {n}")
    if len(graphs) > 20:
        raise ValueError(f"reference implementation handles at most 20 rounds, got {len(graphs)}")
    if algorithm.amortized:
        raise ValueError("reference implementation covers the per-round rules only")
    tag = algorithm.tag
    if tag not in ("midpoint", "component-midpoint", "equal-neighbor", "extreme-point", "centroid"):
        raise ValueError(f"unknown algorithm {tag!r}")
    trace = [list(xs)]
    for g in graphs:
        if len(g) != n:
            raise ValueError(f"graph on {len(g)} nodes, expected {n}")
        new = []
        for p in range(n):
            nbrs = sorted(in_neighbors(g, p))
            vals = [xs[q] for q in nbrs]
            weights = [0.0] * len(nbrs)
            if tag == "equal-neighbor":
                weights = [1.0 / len(nbrs)] * len(nbrs)
            else:
                # every other scalar rule averages the two extreme holders;
                # ties go to the lowest agent id
                i_min = min(range(len(nbrs)), key=lambda i: (vals[i], nbrs[i]))
                i_max = min(range(len(nbrs)), key=lambda i: (-vals[i], nbrs[i]))
                if tag == "centroid" and vals[i_min] == vals[i_max]:
                    weights[i_min] = 1.0
                else:
                    weights[i_min] += 0.5
                    weights[i_max] += 0.5
            new.append(sum(w * v for w, v in zip(weights, vals)))
        xs = new
        trace.append(list(xs))
    return trace
