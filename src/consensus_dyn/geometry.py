"""d-dimensional hull kernel: exact centroids of hulls, and hull membership.

Degenerate (lower-dimensional) point sets are handled by projecting onto an
orthonormal basis of their affine hull, computing there, and lifting back.
Tolerances are relative to the point set's largest component extent: 1e-9 of
it for greedy dedup and for membership (at least 1e-9), and 1e-9 of the
largest singular value for the affine-rank cutoff, with an absolute floor at
the rounding noise of the input coordinates.

`hull_centroids` is the centroid rule's round kernel: one distance matrix of
the positions for every stack's dedup, the rank cut and the simplex fan
batched over the stacks. A stack of rank r >= 2 that keeps r + 1 points is a
simplex, whose centroid is its vertex mean; a planar stack gets Andrew's
monotone chain; Qhull runs once per distinct stack of rank 3 or more with
more points than a simplex. No output byte differs from the per-hull
reference in tests/oracles.py. `in_hull` runs the same dedup, rank cut and
hull stage on one point set.
"""

from __future__ import annotations

import logging
import math

import numpy as np

logger = logging.getLogger(__name__)

DUP_TOL = 1e-9
MEM_TOL = 1e-9
RANK_TOL = 1e-9


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
    floor = np.maximum(RANK_TOL * svals[..., 0], 64 * np.finfo(float).eps * scale)
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

    Returns (owner, member, kept): owner[p] is agent p's stack, numbered in
    order of first appearance; member[s] and kept[s] mark, over the n rows
    of x, the rows that stack s holds and keeps. Stacks are the same when
    their bytes are.
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
        return owner, member, member

    # dedup drops a row from every stack that holds an earlier row with its
    # bytes, then greedily the rows close to a kept row
    kept = member & ~np.matmul(member, (same & np.tri(n, k=-1, dtype=bool)).T)
    if not (close & ~same).any():
        # only rows with the same bytes are close: greedy keeps every row left
        return owner, member, kept
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
    return owner, member, kept


def _fan_centroids(r: int, stacks, cent: np.ndarray) -> None:
    """Fan each rank-r hull of `stacks` from its vertex average and write its
    centroid to cent[s], all hulls in one batch.

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
    cent[list(ids)] = np.array(origins) + mean[:, 0]


def hull_centroids(x: np.ndarray, reach: np.ndarray) -> np.ndarray:
    """Row p is the uniform-mass centroid of the convex hull of the positions
    x[q] (n, d) with reach[q, p], for all agents at once.

    The bytes are those of the per-stack reference in tests/oracles.py, the
    hull of x[reach[:, p]] alone: the same dedup, rank cut, hull and fan sums.
    Agents whose stacks are equal byte for byte share one result. What the
    stacks of a block end share is computed once: one distance matrix of x
    for dedup, and centering, SVD and rank cut batched over the stacks that
    keep the same number of rows. A stack of rank r >= 2 that keeps r + 1
    rows is a simplex: its centroid is their mean, the centering origin, with
    no hull and no fan. Every other stack of rank >= 2 gets its hull from
    `_reduced_hull`, in order of the stacks' first agents (a monotone chain
    at rank 2, Qhull with its joggle and rank-reduction fallbacks above),
    and the fan from the vertex average runs batched over the hulls of one
    rank.
    """
    x = np.ascontiguousarray(x, dtype=float)
    n, d = x.shape
    if not np.isfinite(x).all():
        raise ValueError("points must be finite")
    owner, member, kept = _stacks(x, reach)
    count = kept.sum(axis=1)

    cent = np.empty((len(member), d))
    # the largest absolute coordinate of each stack, dropped rows included
    scale = np.where(member, np.abs(x).max(axis=1), 0.0).max(axis=1)
    reduced = []
    for u in sorted(set(count.tolist())):
        group = np.flatnonzero(count == u)
        pts = x[np.nonzero(kept[group])[1].reshape(len(group), u)]
        if u == 1:
            cent[group] = pts[:, 0]
            continue
        origin = pts.mean(axis=1)
        centered = pts - origin[:, None, :]
        _, svals, vt = np.linalg.svd(centered, full_matrices=False)
        rank = _rank_cut(svals, scale[group])
        reduced += zip(group.tolist(), pts[:, 0], origin, centered, vt, rank.tolist())

    fans = {}
    for s, first, origin, centered, vt, rank in sorted(reduced, key=lambda h: h[0]):
        # m points can never span more than m - 1 affine dimensions
        rank = min(rank, len(centered) - 1)
        if rank > 1 and rank == len(centered) - 1:
            # a simplex: its centroid is its vertex mean
            cent[s] = origin
            continue
        rank, basis, proj, hull = _reduced_hull(centered, vt, rank)
        if rank == 0:
            cent[s] = first
        elif rank == 1:
            line = proj[:, 0]
            cent[s] = origin + (line.min() + line.max()) / 2 * basis[0]
        else:
            fans.setdefault(rank, []).append((s, origin, basis, proj, hull))
    for rank, stacks in fans.items():
        _fan_centroids(rank, stacks, cent)
    return cent[owner]


def in_hull(points: np.ndarray, x: np.ndarray) -> bool:
    """True iff x lies within MEM_TOL * max(extent, 1) of the hull of the
    (m, d) points, extent being their largest component extent. The hull
    comes from the kernel's own dedup, rank cut and hull stages."""
    tol = MEM_TOL * max(float((points.max(axis=0) - points.min(axis=0)).max()), 1.0)
    # every agent of a complete reach holds the one stack of all the points
    unique = points[_stacks(points, np.ones((len(points),) * 2, dtype=bool))[2][0]]
    origin = unique.mean(axis=0)
    _, svals, vt = np.linalg.svd(unique - origin, full_matrices=False)
    rank = min(int(_rank_cut(svals, float(np.abs(points).max()))), len(unique) - 1)
    rank, basis, proj, hull = _reduced_hull(unique - origin, vt, rank)
    diff = x.reshape(1, -1) - origin
    y = diff @ basis.T
    if np.linalg.norm(diff - y @ basis, axis=1)[0] > tol:  # off the affine hull
        return False
    if rank < 2:
        return rank == 0 or proj.min() - tol <= y[0, 0] <= proj.max() + tol
    return (y @ hull.equations[:, :-1].T + hull.equations[:, -1]).max() <= tol
