"""d-dimensional hull kernel: exact centroids of hulls, and hull membership.

Degenerate (lower-dimensional) point sets are handled by projecting onto an
orthonormal basis of their affine hull, computing there, and lifting back.
Tolerances are relative to the point set's largest component extent: 1e-9 of
it for greedy dedup and for membership (at least 1e-9), and 1e-9 of the
largest singular value for the affine-rank cutoff, with an absolute floor at
the rounding noise of the input coordinates.

`hull_centroids` is the centroid rule's round kernel: one distance matrix of
the positions for every stack's dedup, the rank cut and the simplex fan
batched over the stacks, and one Qhull call per distinct stack of rank 2 or
more. No output byte differs from the per-hull reference in tests/oracles.py.
`in_hull` runs the same dedup, rank cut and Qhull stages on one point set.
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


def _reduced_hull(centered: np.ndarray, vt: np.ndarray, rank: int):
    """Hull of the centered rows in their first `rank` principal directions
    (in the input coordinates when rank is the full dimension).

    A set that Qhull finds flat even after joggling has a lower numerical
    affine dimension than the SVD cut said, so the rank drops by one and the
    projection is redone. Returns (rank, basis, proj, hull); hull is None
    below rank 2 and proj is None at rank 0.
    """
    # Qhull loads on the first hull, not with the package: only the centroid
    # rule and `counterexample` build hulls, and scipy.spatial takes longer to
    # import than a whole run of any other rule.
    from scipy.spatial import ConvexHull, QhullError

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
        raise GeometryError(f"degenerate fan decomposition: volume={bad!r} at rank {r}")
    mean = (acc / total[:, None])[:, None, :] @ np.array(bases)
    cent[list(ids)] = np.array(origins) + mean[:, 0]


def hull_centroids(x: np.ndarray, reach: np.ndarray) -> np.ndarray:
    """Row p is the uniform-mass centroid of the convex hull of the positions
    x[q] (n, d) with reach[q, p], for all agents at once.

    The bytes are those of the per-stack reference in tests/oracles.py, the
    hull of x[reach[:, p]] alone fanned from its vertex average: the same
    dedup, rank cut, Qhull input and fan sums.
    Agents whose stacks are equal byte for byte share one result. What the
    stacks of a block end share is computed once: one distance matrix of x
    for dedup, and centering, SVD and rank cut batched over the stacks that
    keep the same number of rows. Qhull runs once per distinct stack of rank
    >= 2, in order of the stacks' first agents, with its joggle and
    rank-reduction fallbacks; the fan runs batched over every full-hull stack
    of one rank.
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
        rank, basis, proj, hull = _reduced_hull(centered, vt, min(rank, len(centered) - 1))
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
    comes from the kernel's own dedup, rank cut and Qhull stages."""
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
