"""d-dimensional hull kernel: exact centroids of hulls, and hull membership.

Degenerate (lower-dimensional) point sets are handled by projecting onto an
orthonormal basis of their affine hull, computing there, and lifting back.
Tolerances are relative to the point set's largest component extent: 1e-9 of
it for greedy dedup and for membership, and 1e-9 of the largest singular
value for the affine-rank cutoff, with a floor at the rounding noise of the
input coordinates (64 ulps of the largest |coordinate|), so that every test
scales with the points; membership also allows for what the rank cut
flattened.

`hull_centroids` is the centroid rule's round kernel, for every agent of a
batch of runs at once. A run far from unit scale is first scaled by a power
of two, and one distance matrix per run serves every stack's dedup. A run
with at least ENUM_MIN stacks that facet enumeration may take sends its
candidates to one padded pass over all such runs, which takes their means
and singular values: a stack of rank r >= 2 that keeps r + 1 points is a
simplex, whose centroid is its vertex mean, and a stack of full rank d = 2,
3 or 4 with at most ENUM_MAX[d] points gets its centroid from facet
enumeration, one pass per d, unless two of its points are near duplicates,
it is thin, or a facet plane holds more than d of its points. Every other
stack takes the per-hull route of the reference in tests/oracles.py, byte
for byte: the first point at rank 0, a segment's midpoint at rank 1, a
simplex's vertex mean, Andrew's monotone chain at rank 2, and Qhull once per
distinct stack above. `in_hull` runs the same dedup, rank cut and hull
stage on one point set.
"""

from __future__ import annotations

import functools
import itertools
import logging
import math

import numpy as np

logger = logging.getLogger(__name__)

DUP_TOL = 1e-9
MEM_TOL = 1e-9
RANK_TOL = 1e-9
EPS = float(np.finfo(float).eps)
# facet enumeration, all set by measurement: the most kept rows a stack of
# rank r (the index) enumerates facets from, past which Qhull was faster (the
# cost grows as C(u, r) * u in the u rows); the fewest candidates a run needs
# to pay for the pass, below which the chain and Qhull were faster; the
# plane test's rounding-level tolerance; and the separation of rows and
# smallest singular value a stack needs, relative to its extent and largest
# singular value
ENUM_MAX = np.array([0, 0, 16, 10, 9])
ENUM_MIN = 3
FACET_TOL = 1e-12
TRUST_TOL = 1e-6
# positions past 2^+-SCALE_EXP in magnitude are scaled toward 1 first
SCALE_EXP = 64
# the stacks of d = 2 to 4 that may be a simplex of rank 2 or more, or
# enumerated, take one pass, padded to _PASS_WIDTH columns
_PASS_WIDTH = len(ENUM_MAX) - 1


class GeometryError(RuntimeError):
    """Internal geometric failure with diagnostic context."""


def _greedy_keep(close: np.ndarray) -> np.ndarray:
    """Rows greedy dedup keeps, given close[i, j]: row j < i lies within tol of row i."""
    isolated = ~close.any(axis=1)
    # When every row with a close earlier row has one among the isolated rows,
    # greedy keeps exactly the isolated rows (by induction over the rows).
    if (isolated | (close & isolated).any(axis=1)).all():
        return isolated
    kept = np.zeros(len(close), dtype=bool)
    for i in range(len(close)):
        kept[i] = not (close[i] & kept).any()
    return kept


def _rank_cut(svals: np.ndarray, scale) -> np.ndarray:
    """Affine rank from the singular values (last axis) of centered rows whose
    largest absolute input coordinate is `scale`."""
    # Centering alone puts ~eps * |coordinate| of rounding noise into every
    # entry, so singular values below that floor are arithmetic, not shape.
    floor = np.maximum(RANK_TOL * svals[..., 0], 64 * EPS * scale)
    return (svals > floor[..., None]).sum(axis=-1)


class _Simplex:
    """Hull of r + 1 affinely independent points in r dimensions, with the
    fields of scipy's ConvexHull that the kernel reads: `vertices`,
    `simplices` (facet i is every point but i) and `equations` (outward unit
    normals and offsets, inside where normal @ y + offset <= 0)."""

    def __init__(self, points: np.ndarray):
        k = len(points)
        self.points = points
        self.vertices = np.arange(k)
        self.simplices = np.nonzero(~np.eye(k, dtype=bool))[1].reshape(k, k - 1)

    @property
    def equations(self) -> np.ndarray:
        # row i of the inverse maps [y, 1] to the barycentric coordinate of
        # vertex i, which is 0 on the facet opposite it and 1 at the vertex
        bary = np.linalg.inv(np.vstack([self.points.T, np.ones(len(self.points))]))
        return -bary / np.linalg.norm(bary[:, :-1], axis=1)[:, None]


class _Polygon:
    """Hull of planar points from Andrew's monotone chain, with the fields of
    scipy's ConvexHull that the kernel reads: `vertices` counterclockwise from
    the least point, `simplices` the edges between them, and `equations` their
    outward unit normals and offsets (inside where normal @ y + offset <= 0)."""

    def __init__(self, points: np.ndarray, vertices: list):
        self.points = points
        self.vertices = np.array(vertices)
        self.simplices = np.array([vertices, vertices[1:] + vertices[:1]]).T

    @property
    def equations(self) -> np.ndarray:
        start, end = self.points[self.simplices[:, 0]], self.points[self.simplices[:, 1]]
        normal = (end - start)[:, ::-1] * [1.0, -1.0]
        normal /= np.linalg.norm(normal, axis=1)[:, None]
        return np.column_stack([normal, -(normal * start).sum(axis=1)])


def _monotone_chain(points: np.ndarray) -> list:
    """Indices of the extreme points of the (m, 2) points, counterclockwise
    from the least in (x, y) order; fewer than 3 when no triple turns left.
    Andrew's monotone chain (1979): the lower and the upper chain of the
    sorted points, each dropping its last point while it makes no left turn."""
    pts = points.tolist()
    order = sorted(range(len(pts)), key=pts.__getitem__)

    def chain(indices):
        out = []
        for i in indices:
            px, py = pts[i]
            while len(out) > 1:
                (ox, oy), (ax, ay) = pts[out[-2]], pts[out[-1]]
                if (ax - ox) * (py - oy) - (ay - oy) * (px - ox) > 0:
                    break
                out.pop()
            out.append(i)
        return out

    return chain(order)[:-1] + chain(reversed(order))[:-1]


def _reduced_hull(centered: np.ndarray, vt: np.ndarray, rank: int):
    """Hull of the centered rows in their first `rank` principal directions
    (in the input coordinates when rank is the full dimension).

    The hull's shape is known without Qhull in two cases: rank + 1 rows are
    their own simplex, and a rank-2 set gets Andrew's monotone chain. Qhull
    (Barber, Dobkin and Huhdanpaa, ACM TOMS 1996) builds the rest, at rank
    >= 3 from at least rank + 2 rows. A set that Qhull finds flat even after
    joggling, or whose chain has fewer than 3 vertices, has a lower numerical
    affine dimension than the SVD cut said, so the rank drops by one and the
    projection is redone. Returns (rank, basis, proj, hull); hull is None
    below rank 2 and proj is None at rank 0.
    """
    dim = centered.shape[1]
    while True:
        if rank == 0:
            return 0, np.zeros((0, dim)), None, None
        if rank == dim:
            basis = np.eye(dim)
            proj = centered
        else:
            basis = vt[:rank]
            proj = centered @ basis.T
        if rank == 1:
            return 1, basis, proj, None
        if len(proj) == rank + 1:
            return rank, basis, proj, _Simplex(proj)
        if rank == 2:
            chain = _monotone_chain(proj)
            if len(chain) > 2:
                return 2, basis, proj, _Polygon(proj, chain)
            logger.warning("planar hull is flat; reducing to dim 1")
            rank = 1
            continue
        # Qhull loads on the first hull it builds, not with the package: only
        # the centroid rule and `counterexample` build hulls, and scipy.spatial
        # takes longer to import than a whole run of any other rule.
        from scipy.spatial import ConvexHull, QhullError

        try:
            return rank, basis, proj, ConvexHull(proj)
        except QhullError:
            logger.warning("hull construction failed at dim %d; retrying with joggle", rank)
            try:
                return rank, basis, proj, ConvexHull(proj, qhull_options="QJ")
            except QhullError:
                logger.warning("joggled hull still degenerate; reducing to dim %d", rank - 1)
                rank -= 1


def _stacks(x: np.ndarray, reach: np.ndarray):
    """The distinct stacks x[reach[:, p]] and the rows each keeps for its
    hull: the greedy dedup survivors, or the first row when the stack's
    extent is 0.

    Returns (owner, member, kept, dist): owner[p] is agent p's stack,
    numbered in order of first appearance; member[s] and kept[s] mark, over
    the n rows of x, the rows that stack s holds and keeps; dist is the
    (n, n) distance matrix of the rows. Stacks are the same when their
    bytes are.
    """
    n = len(x)
    cols = np.ascontiguousarray(reach.T)
    # dist[i, j] is the float norm(a[i] - a[j]) that greedy dedup compares
    # for any stack a holding rows i and j. No stack's extent exceeds that of
    # x, so rows farther apart than 1e-9 of it are close in no stack.
    dist = np.linalg.norm(x[:, None, :] - x[None, :, :], axis=2)
    close = dist <= DUP_TOL * (x.max(axis=0) - x.min(axis=0)).max()
    keys, same = cols, None
    if close.sum() > n:
        bits = x.view(np.int64)
        same = (bits[:, None, :] == bits[None, :, :]).all(axis=2)
        # a stack's bytes are those of the first copies of its rows, in order
        first_copy = same.argmax(axis=1)
        keys = [first_copy[c] for c in cols]
    owner = np.empty(n, dtype=np.intp)
    index, firsts = {}, []
    for p in range(n):
        owner[p] = index.setdefault(keys[p].tobytes(), len(firsts))
        if owner[p] == len(firsts):
            firsts.append(p)
    member = cols[firsts]
    if same is None:
        # no two rows are close: every stack keeps all its rows
        return owner, member, member, dist

    # dedup drops a row from every stack that holds an earlier row with its
    # bytes, then greedily the rows close to a kept row
    kept = member & ~np.matmul(member, (same & np.tri(n, k=-1, dtype=bool)).T)
    if not (close & ~same).any():
        # only rows with the same bytes are close: greedy keeps every row left
        return owner, member, kept, dist
    m3 = member[:, :, None]
    extent = (np.where(m3, x, -np.inf).max(axis=1) - np.where(m3, x, np.inf).min(axis=1)).max(axis=1)
    for s in np.flatnonzero(extent > 0):
        rows = np.flatnonzero(kept[s])
        near = dist[np.ix_(rows, rows)] <= DUP_TOL * extent[s]
        near &= np.tri(len(rows), k=-1, dtype=bool)
        kept[s, rows] = _greedy_keep(near)
    flat = np.flatnonzero(extent == 0)
    kept[flat] = False
    kept[flat, member[flat].argmax(axis=1)] = True
    return owner, member, kept, dist


def _fan_centroids(r: int, stacks, cent: np.ndarray) -> None:
    """Fan each rank-r hull of `stacks` from its vertex average and write its
    centroid to cent[s], all hulls in one batch; the stacks share their
    ambient dimension.

    A hull with fewer facets than the longest is padded with facets at its
    apex: a zero matrix after centering, so a zero volume and a zero term.
    They come last, where adding a zero leaves the running sums as they are
    (a sum that starts at +0.0 is never -0.0).
    """
    ids, origins, bases, projs, hulls = zip(*stacks)
    # a (v, r) sum over its rows adds them left to right, as mean(axis=0) does
    apex = np.array([p[h.vertices].sum(axis=0) / len(h.vertices) for p, h in zip(projs, hulls)])
    pts = np.empty((len(ids), max(len(h.simplices) for h in hulls), r, r))
    pts[...] = apex[:, None, None, :]
    for i, (p, h) in enumerate(zip(projs, hulls)):
        pts[i, :len(h.simplices)] = p[h.simplices]
    vols = np.abs(np.linalg.det(pts - apex[:, None, None, :])) / math.factorial(r)
    terms = vols[..., None] * (pts.sum(axis=2) + apex[:, None, :]) / (r + 1)
    # cumsum adds left to right, as a running sum from 0.0 over the simplices
    # does; the zero row keeps a -0.0 first term from surviving as -0.0
    total = np.cumsum(vols, axis=1)[:, -1]
    acc = np.cumsum(np.concatenate([np.zeros((len(ids), 1, r)), terms], axis=1), axis=1)[:, -1]
    if not 0.0 < total.min() <= total.max() < np.inf:
        bad = total[~((total > 0.0) & (total < np.inf))][0]
        raise GeometryError(f"degenerate fan decomposition: volume={float(bad)!r} at rank {r}")
    mean = (acc / total[:, None])[:, None, :] @ np.array(bases)
    cent[list(ids), :len(origins[0])] = np.array(origins) + mean[:, 0]


@functools.lru_cache(maxsize=None)
def _subsets(u: int, r: int):
    """The r-subsets of range(u) in lexicographic order: their (C, r) member
    indices and (C, u) membership mask."""
    idx = np.array(list(itertools.combinations(range(u), r)), dtype=np.intp)
    member = np.zeros((len(idx), u), dtype=bool)
    member[np.arange(len(idx))[:, None], idx] = True
    idx.setflags(write=False)
    member.setflags(write=False)
    return idx, member


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Sum of a * b over the first axis, added in order: the same bytes
    whatever the other axes."""
    return functools.reduce(np.add, a * b)


# the cofactor normals' gathers: at r = 3 the cross product's coordinates of
# a and b; at r = 4 the 2 x 2 minors m of the last two edges over the
# coordinate pairs _PAIRS (01, 02, 03, 12, 13, 23), and entry i of the
# normal as the sum over k of _SIGN[i, k] * a[_COL[i, k]] * m[_PAIR[i, k]]
_CROSS = np.array([1, 2, 0]), np.array([2, 0, 1])
_PAIRS = np.array(list(itertools.combinations(range(4), 2))).T
_COL = np.array([[1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 2]])
_PAIR = np.array([[5, 4, 3], [5, 2, 1], [4, 2, 0], [3, 1, 0]])
_SIGN = np.array([[1.0, -1.0, 1.0], [-1.0, 1.0, -1.0]] * 2)[:, :, None, None]


def _normals(edges: np.ndarray) -> np.ndarray:
    """Cofactor normals of r - 1 edges, r = 2, 3 or 4, coordinates on the
    second axis of `edges` (r - 1, r, ...): the vector n with
    n @ w = det([w, *edges]) for every w, coordinates first, in closed form."""
    a, r = edges[0], edges.shape[1]
    if r == 2:
        return np.stack([a[1], -a[0]])
    if r == 3:
        j, k = _CROSS
        return a[j] * edges[1][k] - a[k] * edges[1][j]
    b, c = edges[1], edges[2]
    j, k = _PAIRS
    m = b[j] * c[k] - b[k] * c[j]
    t = a[_COL] * m[_PAIR] * _SIGN
    return t[:, 0] + t[:, 1] + t[:, 2]


def _enumerated_centroids(proj: np.ndarray, count: np.ndarray, extent: np.ndarray):
    """Centroids of the hulls of full-rank point sets in r = 2, 3 or 4
    dimensions by facet enumeration, all sets in one pass.

    proj (S, u, r) holds set s in its first count[s] rows, centered on their
    mean, and zeros after them; extent[s] is the set's largest component
    extent. Every r-subset whose other rows all lie on one side of its plane
    is a facet, and the hull is the union of the cones from the mean (the
    origin) over its facets: a cone's volume is |det| / r! of its facet's
    rows, which is |n @ p0| for the facet's cofactor normal n and first row
    p0, and its centroid is the sum of those rows / (r + 1). A row within
    FACET_TOL * extent * |n| of a facet's plane, rounding level, makes the
    facet ambiguous. Returns (centroid (S, r), ok (S,)): ok is false for a
    set with an ambiguous facet, whose centroid is not to be used.
    """
    sets, u, r = proj.shape
    idx, member = _subsets(u, r)
    # corner[k, i, s, c]: coordinate i of the k-th row of subset c of set s
    corner = np.ascontiguousarray(proj.transpose(1, 2, 0)[idx].transpose(1, 2, 3, 0))
    normal = _normals(corner[1:] - corner[0])
    height = _dot(normal, corner[0])
    # how far outside each subset's plane each row lies, the mean's side
    # being inside (padding rows sit at the mean): only the plane test reads
    # it, with a tolerance far above its rounding, so the matmul may add in
    # any order
    out = normal.transpose(1, 2, 0) @ proj.transpose(0, 2, 1) - height[..., None]
    out *= np.sign(height)[..., None]
    out[:, member] = -np.inf
    worst = out.max(axis=2)
    tol = FACET_TOL * extent[:, None] * np.sqrt(_dot(normal, normal))
    # subsets of real rows only, with every other row inside
    facet = (idx[:, -1] < count[:, None]) & (worst <= tol)
    vols = np.where(facet, np.abs(height), 0.0)
    # cumsum adds left to right, so the zero terms of non-facets and of the
    # padding's subsets leave the sums as the set alone would give them
    total = np.cumsum(vols, axis=1)[:, -1]
    acc = np.cumsum(vols * functools.reduce(np.add, corner), axis=2)[..., -1]
    ok = ~(facet & (worst >= -tol)).any(axis=1) & (total > 0)
    return (acc / ((r + 1) * total)).T, ok


def _exponent(x: np.ndarray) -> int:
    """e with max |x| in [2^(e-1), 2^e) when |e| > SCALE_EXP, else 0."""
    e = math.frexp(float(np.abs(x).max()))[1]
    return e if abs(e) > SCALE_EXP else 0


def _enumerate(d, sel, kept, dist, centered, svals, origin, count, cent, ids) -> np.ndarray:
    """Facet enumeration for the stacks `sel` of full rank d, whose kept
    rows come first in `centered`, then zeros: writes the centroids of those
    that pass the trust checks and the plane test to cent[ids] and returns
    the mask over `sel` of those it wrote. dist holds each stack's run's
    distance matrix, or is None when no two rows of any of those runs are
    closer than TRUST_TOL of the run's extent."""
    proj = centered[sel, :count[sel].max()]
    extent = (proj.max(axis=1) - proj.min(axis=1)).max(axis=1)
    ok = svals[sel, d - 1] >= TRUST_TOL * svals[sel, 0]
    if dist is not None:
        rows = kept[sel]
        pairs = rows[:, :, None] & rows[:, None, :] & ~np.eye(rows.shape[1], dtype=bool)
        ok &= np.where(pairs, dist[sel], np.inf).min(axis=(1, 2)) >= TRUST_TOL * extent
    if ok.any():
        mean, good = _enumerated_centroids(proj[ok], count[sel[ok]], extent[ok])
        wrote = sel[ok][good]
        cent[ids[wrote], :d] = origin[wrote] + mean[good]
        ok[ok] = good
    return ok


def _per_hull(rows: np.ndarray, scale: np.ndarray, ids: np.ndarray, hulls: list) -> None:
    """The per-hull route's centering, SVD and rank cut for the stacks
    `ids`, whose kept rows are rows (G, u, d) and largest |coordinate|
    scale, as the reference computes them: appends (id, first row, origin,
    centered rows, vt, rank) of each to `hulls`."""
    u = rows.shape[1]
    mean = rows.mean(axis=1)
    centered = rows - mean[:, None, :]
    _, svals, vt = np.linalg.svd(centered, full_matrices=False)
    # m points can never span more than m - 1 affine dimensions
    rank = np.minimum(_rank_cut(svals, scale), u - 1)
    hulls += zip(ids.tolist(), rows[:, 0], mean, centered, vt, rank.tolist())


def _pooled_pass(pool, n: int, cent: np.ndarray, hulls: list) -> None:
    """The stacks of every run in `pool` that may be a simplex of rank 2 or
    more, or enumerated, in one padded pass: each stack's kept rows, then
    zeros, in _PASS_WIDTH columns and n rows, so that no stack's numbers
    depend on the others. Writes the centroids of simplices and of
    enumerated stacks to cent and sends the others to `_per_hull`."""
    ds, xbs, ids, kepts, counts, scales, dists = zip(*pool)
    sizes = [len(i) for i in ids]
    runof = np.repeat(np.arange(len(pool)), sizes)
    dim = np.repeat(ds, sizes)
    ids, kept, count, scale = (np.concatenate(a) for a in (ids, kepts, counts, scales))
    xs = np.zeros((len(pool), n, _PASS_WIDTH))
    for i, xb in enumerate(xbs):
        xs[i, :, :xb.shape[1]] = xb
    # each stack's kept rows in order, then -0.0, which adds nothing: at
    # d >= 2 mean(axis=0) adds the rows in turn to +0.0, as this does
    first_rows = np.arange(n) < count[:, None]
    pts = np.full((len(ids), n, _PASS_WIDTH), -0.0)
    pts[first_rows] = xs[runof][kept]
    origin = (np.cumsum(pts, axis=1)[:, -1] + 0.0) / count[:, None]
    centered = np.where(first_rows[..., None], pts - origin[:, None], 0.0)
    svals = np.linalg.svd(centered, compute_uv=False)
    rank = np.minimum(_rank_cut(svals, scale), count - 1)
    # a simplex: the centroid is the vertex mean
    done = (rank > 1) & (rank == count - 1)
    cent[ids[done], :_PASS_WIDTH] = origin[done]
    enum = ~done & (rank == dim) & (count > dim + 1)
    if enum.any():
        # the runs' distance matrices, unless no two rows of a run are closer
        # than TRUST_TOL of its extent, and so of any of its stacks
        spread = all((dist >= TRUST_TOL * np.ptp(xb, axis=0).max()).sum() == n * (n - 1)
                     for xb, dist in zip(xbs, dists))
        dist = None if spread else np.stack(dists)[runof]
    for d in np.unique(dim[enum]).tolist():
        sel = np.flatnonzero(enum & (dim == d))
        done[sel] = _enumerate(d, sel, kept, dist, centered[..., :d], svals, origin[:, :d], count,
                               cent, ids)
    rest = np.flatnonzero(~done)
    for d, u in sorted(set(zip(dim[rest].tolist(), count[rest].tolist()))):
        group = rest[(dim[rest] == d) & (count[rest] == u)]
        _per_hull(np.ascontiguousarray(pts[group, :u, :d]), scale[group], ids[group], hulls)


def hull_centroids(x: np.ndarray, reach: np.ndarray, dims) -> np.ndarray:
    """Row p of run b is the uniform-mass centroid of the convex hull of the
    positions x[b, q, :dims[b]] with reach[q, p], for every agent of a batch
    of runs at once; x (B, n, D) holds the runs padded to the largest d, and
    the padding columns of the result are zero. A run's result never
    depends on the other runs of its batch.

    A run whose largest |coordinate| is 2^e with |e| > SCALE_EXP is scaled
    by 2^-e first and its centroids by 2^e after, which is exact outside
    subnormals (Goldberg, ACM Computing Surveys 1991), so that no product
    below overflows or underflows. Agents whose stacks are equal byte for
    byte share one result, and one distance matrix per run serves every
    stack's dedup. A run with at least ENUM_MIN stacks of d = 2 to 4 that
    facet enumeration may take (more than d + 1 and at most ENUM_MAX[d]
    kept rows) sends those and its simplex candidates (3 to d + 1 rows) to
    one padded pass over all such runs (`_pooled_pass`): their means,
    singular values and rank cut. There a stack of rank r >= 2 that keeps
    r + 1 rows is a simplex, whose centroid is their mean, and a stack of
    full rank d gets its centroid from facet enumeration
    (`_enumerated_centroids`), one call per d, unless two of its rows are
    closer than TRUST_TOL of its extent, its smallest singular value is
    below TRUST_TOL of the largest, or a candidate facet's plane holds
    another of its rows. Every other stack takes the per-hull route of the
    reference in tests/oracles.py, byte for byte: its own SVD, batched over
    the stacks of a run, or of the pass, that keep the same number of rows
    (`_per_hull`), then the first row at rank 0, a simplex's vertex mean,
    and otherwise `_reduced_hull` in order of the stacks' first agents (the
    segment's midpoint at rank 1, a monotone chain at rank 2, Qhull with its
    joggle and rank-reduction fallbacks above) and the fan from the vertex
    average, batched over the hulls of one rank and d.
    """
    batch, n, width = x.shape
    if not np.isfinite(x).all():
        raise ValueError("points must be finite")
    exps, owners, pool, hulls, first = [], [], [], [], 0
    cent = np.zeros((batch * n, max(width, _PASS_WIDTH)))
    for b, d in enumerate(dims):
        xb = np.ascontiguousarray(x[b, :, :d])
        exps.append(_exponent(xb))
        if exps[-1]:
            xb = np.ldexp(xb, -exps[-1])
        owner, member, kept, dist = _stacks(xb, reach)
        owners.append(first + owner)
        ids = first + np.arange(len(member))
        first += len(member)
        count = kept.sum(axis=1)
        # the largest absolute coordinate of each stack, dropped rows included
        scale = np.where(member, np.abs(xb).max(axis=1), 0.0).max(axis=1)
        # the run's simplex and enumeration candidates go to the pooled pass
        # when at least ENUM_MIN of its stacks may be enumerated; the others,
        # and all of them otherwise, take the per-hull route (a pooled stack
        # counts 0 rows below)
        if 1 < d < len(ENUM_MAX) and np.count_nonzero(
                (count > d + 1) & (count <= ENUM_MAX[d])) >= ENUM_MIN:
            pooled = (count > 2) & (count <= ENUM_MAX[d])
            pool.append((d, xb, ids[pooled], kept[pooled], count[pooled], scale[pooled], dist))
            count = np.where(pooled, 0, count)
        for u in sorted(set(count.tolist()) - {0}):
            group = np.flatnonzero(count == u)
            rows = xb[np.nonzero(kept[group])[1].reshape(len(group), u)]
            if u == 1:
                cent[ids[group], :d] = rows[:, 0]
            else:
                _per_hull(rows, scale[group], ids[group], hulls)
    if pool:
        _pooled_pass(pool, n, cent, hulls)

    fans = {}
    for s, first_row, origin, centered, vt, rank in sorted(hulls, key=lambda h: h[0]):
        if rank > 1 and rank == len(centered) - 1:
            cent[s, :len(origin)] = origin  # a simplex
            continue
        rank, basis, proj, hull = _reduced_hull(centered, vt, rank)
        if rank == 0:
            cent[s, :len(origin)] = first_row
        elif rank == 1:
            line = proj[:, 0]
            cent[s, :len(origin)] = origin + (line.min() + line.max()) / 2 * basis[0]
        else:
            fans.setdefault((rank, len(origin)), []).append((s, origin, basis, proj, hull))
    for (rank, _), stacks in fans.items():
        _fan_centroids(rank, stacks, cent)

    out = np.zeros(x.shape)
    for b, (d, owner, exp) in enumerate(zip(dims, owners, exps)):
        out[b, :, :d] = np.ldexp(cent[owner, :d], exp) if exp else cent[owner, :d]
    return out


def in_hull(points: np.ndarray, x: np.ndarray) -> bool:
    """True iff x lies within tol of the hull of the (m, d) points: tol is
    MEM_TOL of their largest component extent, and at least what the rank
    cut flattened (the largest singular value it dropped, which bounds how
    far any of the points lies off the affine hull) and the rounding noise
    of the coordinates (64 ulps of the largest |coordinate|), so that it
    scales with the points. The hull comes from the kernel's own dedup,
    rank cut and hull stages."""
    scale = float(np.abs(points).max())
    # every agent of a complete reach holds the one stack of all the points
    unique = points[_stacks(points, np.ones((len(points),) * 2, dtype=bool))[2][0]]
    origin = unique.mean(axis=0)
    _, svals, vt = np.linalg.svd(unique - origin, full_matrices=False)
    rank = min(int(_rank_cut(svals, scale)), len(unique) - 1)
    rank, basis, proj, hull = _reduced_hull(unique - origin, vt, rank)
    tol = max(MEM_TOL * float((points.max(axis=0) - points.min(axis=0)).max()), 64 * EPS * scale,
              float(svals[rank]) if rank < len(svals) else 0.0)
    diff = x.reshape(1, -1) - origin
    y = diff @ basis.T
    if np.linalg.norm(diff - y @ basis, axis=1)[0] > tol:  # off the affine hull
        return False
    if rank < 2:
        return rank == 0 or proj.min() - tol <= y[0, 0] <= proj.max() + tol
    return (y @ hull.equations[:, :-1].T + hull.equations[:, -1]).max() <= tol
