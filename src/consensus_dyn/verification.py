"""Independent checkers for simulator output.

Everything here re-derives its answers from recorded positions and the round
graphs alone: safety margins are recomputed from scratch, update steps are
re-expressed as row-stochastic matrices, and tiny instances get a separate
naive reference implementation. None of it calls back into the engine's
update path, so agreement is evidence rather than tautology.
"""

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .algorithms import AlgorithmKind
from .graphs import (
    CommGraph,
    CommPattern,
    graph_product,
    in_neighbors,
    infinitely_often_union,
    is_bidirectional,
    is_strongly_connected,
)
from .simulator import RANGE_FLOOR, RunTrace

# slack applied when comparing realized margins against a claimed constant
AUDIT_TOL = 1e-9
# A shortfall below this many ulps of the endpoints is the rounding of the
# update itself: (lo + hi) / 2 alone can land half an ulp off the exact value,
# which on a span of a few ulps reads as a large relative shortfall.
ROUNDING_ULPS = 4


class SafenessViolationError(RuntimeError):
    """A recorded position escapes the safe interval of its received values."""


@dataclass
class SafenessReport:
    """Realized update margins of a recorded run.

    ``margins[s, p, k]`` is the margin of agent p in macro-round s for
    component k: min(x - m, M - x) / (M - m) against the extremes m, M of the
    values p could have heard during the block. NaN marks vacuous constraints
    (range collapsed). ``worst_alpha`` is the minimum over all live entries
    (inf when every constraint was vacuous).
    """

    claimed_alpha: float
    period: int
    margins: np.ndarray
    worst_alpha: float
    violations: List[Tuple[int, int, int, float]] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.violations

    def to_json(self) -> dict:
        def clean(v):
            return None if not math.isfinite(v) else v

        return {
            "claimed_alpha": self.claimed_alpha,
            "period": self.period,
            "worst_alpha": clean(self.worst_alpha),
            "passed": self.passed,
            "violations": [[t, p, k, m] for t, p, k, m in self.violations],
            "margins": [[[clean(v) for v in agent] for agent in block]
                        for block in self.margins.tolist()],
        }


@dataclass
class StochasticMatrixSeq:
    """Row-stochastic matrices equivalent to a recorded run.

    ``matrices[t, k]`` maps component-k values of configuration t to
    configuration t+1 (rounds t+1 = 1..T). ``graphs[t]`` is the round graph
    the matrices were derived from; the nonzero pattern of ``matrices[t, k]``
    is that graph's edge set reversed.
    """

    matrices: np.ndarray
    graphs: List[CommGraph]
    alpha: float


@dataclass
class MoreauReport:
    """Outcome of the four convergence assumptions on a matrix sequence:
    positive diagonals, positive entries bounded below, bidirectional round
    graphs, and a strongly connected recurring-edge graph."""

    a: float
    a1: bool
    a2: bool
    a3: bool
    a4: bool
    a1_witness: Optional[Tuple[int, int, int]] = None  # (round, component, agent)
    a2_witness: Optional[Tuple[int, int, int, int, float]] = None
    a3_witness: Optional[int] = None  # first non-bidirectional round
    a4_witness: Optional[str] = None

    @property
    def holds(self) -> bool:
        return self.a1 and self.a2 and self.a3 and self.a4

    def to_json(self) -> dict:
        return {
            "a": self.a,
            "a1": self.a1, "a2": self.a2, "a3": self.a3, "a4": self.a4,
            "holds": self.holds,
            "a1_witness": list(self.a1_witness) if self.a1_witness else None,
            "a2_witness": list(self.a2_witness) if self.a2_witness else None,
            "a3_witness": self.a3_witness,
            "a4_witness": self.a4_witness,
        }


def _block_graph(pattern: CommPattern, start: int, end: int) -> CommGraph:
    """Composition of the round graphs start+1 .. end: who can hear whom
    across the whole block."""
    g = pattern.graph(start + 1)
    for t in range(start + 2, end + 1):
        g = graph_product(g, pattern.graph(t))
    return g


def audit_safeness(trace: RunTrace, pattern: CommPattern, claimed_alpha: float,
                   period: int = 1) -> SafenessReport:
    """Recompute every agent's received extremes from the round graphs and
    measure how far inside them each recorded position lands.

    With period > 1 the audit works on macro-rounds: extremes are taken over
    the block's graph product, matching algorithms that gather for period
    rounds before moving. Only complete blocks are audited. A margin below
    the claim is a violation when it falls short by more than AUDIT_TOL of
    the span and by more than ROUNDING_ULPS ulps of the endpoints.
    """
    positions = np.asarray(trace.positions, dtype=float)
    total, n, d = positions.shape
    total -= 1
    if total < 1:
        raise ValueError("trace records no transitions; nothing to audit")
    if pattern.n != n:
        raise ValueError(f"pattern is built for n={pattern.n}, trace has n={n}")
    if period < 1:
        raise ValueError(f"need period >= 1, got {period}")
    blocks = total // period
    if blocks < 1:
        raise ValueError(f"trace has {total} rounds, shorter than one period-{period} block")

    margins = np.full((blocks, n, d), np.nan)
    violations: List[Tuple[int, int, int, float]] = []
    worst = math.inf
    for s in range(blocks):
        start, end = s * period, (s + 1) * period
        g = _block_graph(pattern, start, end)
        for p in range(n):
            pts = positions[start][sorted(in_neighbors(g, p))]
            lo = pts.min(axis=0)
            hi = pts.max(axis=0)
            span = hi - lo
            x = positions[end][p]
            for k in range(d):
                # A span within a few hundred ulps of the endpoint magnitude
                # is a converged component kept alive by rounding noise; any
                # average can land exactly on an endpoint there, so the
                # constraint carries no information.
                if span[k] <= max(RANGE_FLOOR, 1e-13 * max(abs(lo[k]), abs(hi[k]))):
                    continue
                m = float(min(x[k] - lo[k], hi[k] - x[k]) / span[k])
                margins[s, p, k] = m
                worst = min(worst, m)
                if m < claimed_alpha - AUDIT_TOL:
                    shortfall = (claimed_alpha - m) * span[k]
                    if shortfall > ROUNDING_ULPS * np.spacing(max(abs(lo[k]), abs(hi[k]))):
                        violations.append((end, p, k, m))
    return SafenessReport(claimed_alpha=claimed_alpha, period=period,
                          margins=margins, worst_alpha=worst, violations=violations)


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
    if alpha == 1.0:  # unreachable given the range check, kept for clarity
        raise ValueError("alpha must be < 1")
    mean = sum(values) / n
    y = (x - alpha * mean) / (1 - alpha)
    # clamp fp residue so b stays a convex pair
    b1 = min(1.0, max(0.0, (vn - y) / (vn - v1)))
    bn = min(1.0, max(0.0, (y - v1) / (vn - v1)))
    a = [alpha / n] * n
    a[0] += (1 - alpha) * b1
    a[-1] += (1 - alpha) * bn
    return a


def reconstruct_matrices(trace: RunTrace, pattern: CommPattern, alpha: float) -> StochasticMatrixSeq:
    """Express each recorded round as one row-stochastic matrix per component.

    Row p of matrices[t, k] spreads weight over p's in-neighbors in round
    t+1's graph so that the weighted values reproduce p's new position; every
    used entry is at least alpha/|in-neighbors| >= alpha/n. A position outside
    its safe interval by more than fp slack means the trace was not produced
    by an alpha-safe update and is rejected.
    """
    positions = np.asarray(trace.positions, dtype=float)
    total, n, d = positions.shape
    total -= 1
    if total < 1:
        raise ValueError("trace records no transitions; nothing to reconstruct")
    if pattern.n != n:
        raise ValueError(f"pattern is built for n={pattern.n}, trace has n={n}")
    scale = max(1.0, float(np.abs(positions).max()))
    tol = 1e-9 * scale
    matrices = np.zeros((total, d, n, n))
    graphs = []
    for t in range(total):
        g = pattern.graph(t + 1)
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
                weights = decompose_safe_value(svals, min(hi, max(lo, x)), alpha)
                for i, w in zip(order, weights):
                    matrices[t, k, p, nbrs[i]] = w
    return StochasticMatrixSeq(matrices=matrices, graphs=graphs, alpha=alpha)


def check_moreau_assumptions(seq: StochasticMatrixSeq, pattern: CommPattern,
                             window: Optional[int] = None) -> MoreauReport:
    """Check the four assumptions that guarantee consensus for products of
    stochastic matrices: positive diagonals (A1), positive entries bounded
    below by a (A2), bidirectional round graphs (A3), and strong connectivity
    of the edges that recur in every window (A4)."""
    T, d, n, _ = seq.matrices.shape
    a = seq.alpha / n
    a1 = a2 = a3 = True
    a1_w = a2_w = a3_w = a4_w = None
    for t in range(T):
        for k in range(d):
            A = seq.matrices[t, k]
            if a1:
                diag = np.diag(A)
                if (diag <= 0).any():
                    a1 = False
                    a1_w = (t + 1, k, int(np.argmax(diag <= 0)))
            if a2:
                pos = A > 0
                small = pos & (A < a - 1e-12)
                if small.any():
                    p, q = np.argwhere(small)[0]
                    a2 = False
                    a2_w = (t + 1, k, int(p), int(q), float(A[p, q]))
    for t, g in enumerate(seq.graphs):
        if not is_bidirectional(g):
            a3 = False
            a3_w = t + 1
            break
    if window is None:
        window = pattern.period if pattern.period else pattern.n
    recurring = infinitely_often_union(pattern, window)
    a4 = is_strongly_connected(recurring)
    if not a4:
        a4_w = f"recurring-edge graph over window {window} is not strongly connected"
    return MoreauReport(a=a, a1=a1, a2=a2, a3=a3, a4=a4,
                        a1_witness=a1_w, a2_witness=a2_w, a3_witness=a3_w, a4_witness=a4_w)


# ---------------------------------------------------------------------------
# tiny-instance reference implementation


def brute_force_consensus_1d(values: Sequence[float], graphs: Sequence[CommGraph],
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
        if g.n != n:
            raise ValueError(f"graph on {g.n} nodes, expected {n}")
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
