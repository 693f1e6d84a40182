"""d-dimensional geometry kernel: hull frames, membership and exact centroids.

Degenerate (lower-dimensional) point sets are handled by projecting onto an
orthonormal basis of their affine hull, computing there, and lifting back; the
reported volume is measured in the affine dimension. Tolerances are relative
to the point set's component extent: tau_dup (vertex dedup) and tau_mem
(membership) default to 1e-9 of the extent, the affine-rank cutoff to 1e-9 of
the largest singular value with an absolute floor at the rounding noise of the
input coordinates.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

logger = logging.getLogger(__name__)

DUP_TOL = 1e-9
MEM_TOL = 1e-9
RANK_TOL = 1e-9


class GeometryError(RuntimeError):
    """Internal geometric failure with diagnostic context."""


@dataclass(frozen=True)
class Polytope:
    """Convex hull of a finite point set, reduced to its frame (extreme points).

    ``origin``/``basis`` define the affine hull: basis rows are orthonormal and
    ``proj_points`` are the deduplicated input points in those coordinates.
    ``equations`` holds facet half-spaces [normal | offset] in projected
    coordinates (unit normals, inside = normal @ y + offset <= 0); present only
    when dim_affine >= 2.
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

    def __post_init__(self):
        for name in ("vertices", "origin", "basis", "proj_points", "proj_vertices",
                     "equations", "simplices"):
            arr = getattr(self, name)
            if arr is not None:
                arr.setflags(write=False)


@dataclass(frozen=True)
class CentroidResult:
    centroid: np.ndarray
    volume: float


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


def dedup(arr: np.ndarray, tol: float) -> np.ndarray:
    """Rows of arr in order, without those within distance tol of a kept row.

    Later exact copies of a row go first: greedy always drops them, since the
    first copy is kept or lies within tol of a kept row. The u rows left share
    one (u, u, d) distance matrix, so memory is O(u^2 d); in the round engine
    u <= n, because a centroid stack holds at most the n block-start positions.
    """
    rows = np.ascontiguousarray(arr)
    as_void = rows.view(np.dtype((np.void, rows.dtype.itemsize * rows.shape[1]))).ravel()
    first = np.sort(np.unique(as_void, return_index=True)[1])
    a = arr[first]
    # norm over the last axis adds the d squares as norm(a[keep] - a[i], axis=1) does
    close = np.linalg.norm(a[:, None, :] - a[None, :, :], axis=2) <= tol
    close &= np.tri(len(a), k=-1, dtype=bool)
    isolated = ~close.any(axis=1)
    # When every row with a close earlier row has one among the isolated rows,
    # greedy keeps exactly the isolated rows (by induction over the rows).
    if (isolated | (close & isolated).any(axis=1)).all():
        return a[isolated]
    kept = np.zeros(len(a), dtype=bool)
    for i in range(len(a)):
        kept[i] = not (close[i] & kept).any()
    return a[kept]


def convex_hull(points, d: Optional[int] = None) -> Polytope:
    """Frame and facet structure of the convex hull of `points`.

    The returned vertices are exactly the extreme points of the input (original
    coordinates, deduplicated within tau_dup); dim_affine is the rank of the
    centered point matrix at the tau_rank cutoff.
    """
    # Qhull loads on the first hull, not with the package: only the centroid
    # rule and `counterexample` build hulls, and scipy.spatial takes longer to
    # import than a whole run of any other rule.
    from scipy.spatial import ConvexHull, QhullError

    arr = _as_points(points, d)
    dim = arr.shape[1]
    extent = float((arr.max(axis=0) - arr.min(axis=0)).max()) if len(arr) > 1 else 0.0

    unique = dedup(arr, DUP_TOL * extent) if extent > 0 else arr[:1].copy()
    origin = unique.mean(axis=0)
    centered = unique - origin
    if len(unique) == 1:
        rank = 0
        vt = np.zeros((0, dim))
    else:
        _, svals, vt = np.linalg.svd(centered, full_matrices=False)
        # Centering alone puts ~eps * |coordinate| of rounding noise into every
        # entry, so singular values below that floor are arithmetic, not shape.
        # m points can never span more than m - 1 affine dimensions.
        floor = max(RANK_TOL * svals[0],
                    64 * np.finfo(float).eps * float(np.abs(arr).max()))
        rank = min(int((svals > floor).sum()), len(unique) - 1)

    while True:
        if rank == 0:
            basis = np.zeros((0, dim))
            return Polytope(unique[:1].copy(), dim, 0, origin, basis,
                            np.zeros((1, 0)), np.zeros((1, 0)), None, None, extent)

        if rank == dim:
            basis = np.eye(dim)
            proj = centered
        else:
            basis = vt[:rank]
            proj = centered @ basis.T

        if rank == 1:
            line = proj[:, 0]
            idx = [int(np.argmin(line)), int(np.argmax(line))]
            return Polytope(unique[idx].copy(), dim, 1, origin, basis,
                            proj, proj[idx].copy(), None, None, extent)

        try:
            hull = ConvexHull(proj)
        except QhullError:
            logger.warning("hull construction failed at dim %d; retrying with joggle", rank)
            try:
                hull = ConvexHull(proj, qhull_options="QJ")
            except QhullError:
                # Flat at Qhull's own precision even after joggling: the set's
                # numerical affine dimension is lower than the SVD cut said.
                logger.warning("joggled hull still degenerate; reducing to dim %d", rank - 1)
                rank -= 1
                continue
        idx = hull.vertices
        return Polytope(unique[idx].copy(), dim, rank, origin, basis,
                        proj, proj[idx].copy(), hull.equations.copy(),
                        hull.simplices.copy(), extent)


def _default_tol(poly: Polytope, tol: Optional[float]) -> float:
    if tol is not None:
        return tol
    return MEM_TOL * max(poly.extent, 1.0)


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
    """True iff x is within distance ~tol of the hull (default 1e-9 of extent)."""
    pt = np.asarray(x, dtype=float).reshape(1, -1)
    if pt.shape[1] != poly.dim_ambient:
        raise ValueError(f"point dimension {pt.shape[1]} != {poly.dim_ambient}")
    return bool(_membership(poly, pt, _default_tol(poly, tol))[0])


def centroid(poly: Polytope) -> CentroidResult:
    """Uniform-mass centroid of the hull, computed in its affine dimension.

    Full-rank case: the hull is fanned into simplices from the vertex average;
    the centroid is the volume-weighted mean of simplex centroids (each the
    arithmetic mean of its vertices), simplex volume = |det| / r!.
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
    return CentroidResult(poly.origin + (acc / total) @ poly.basis, total)
