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
    in_neighbors,
    infinitely_often_union,
    is_strongly_connected,
)
from .simulator import RANGE_FLOOR

# slack applied when comparing realized margins against a claimed constant
AUDIT_TOL = 1e-9
# A shortfall below this many ulps of the endpoints is the rounding of the
# update itself: (lo + hi) / 2 alone can land half an ulp off the exact value,
# which on a span of a few ulps reads as a large relative shortfall.
ROUNDING_ULPS = 4
# Elements of one (rounds or blocks, n, n, d) temporary: the audits walk the
# run in chunks of this size, so their temporary memory does not grow with T.
CHUNK_ELEMS = 1 << 17


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
        """Summary fragment: the first 20 violations and no margins, whose
        per-round detail lives in margins.csv."""
        return {
            "claimed_alpha": self.claimed_alpha,
            "period": self.period,
            "worst_alpha": self.worst_alpha if math.isfinite(self.worst_alpha) else None,
            "passed": self.passed,
            "violations": [[t, p, k, m] for t, p, k, m in self.violations[:20]],
        }


@dataclass
class StochasticMatrixSeq:
    """Row-stochastic matrices equivalent to a recorded run.

    ``matrices[t, k]`` maps component-k values of configuration t to
    configuration t+1 (rounds t+1 = 1..T); its nonzero pattern is round t+1's
    graph with the edges reversed.
    """

    matrices: np.ndarray
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


def moreau_window(pattern: CommPattern) -> int:
    """Window of the recurring-edge graph in the Moreau check (A4): the
    pattern's period when it has one, else n."""
    return pattern.period if pattern.period else pattern.n


def round_graphs(pattern: CommPattern, rounds: int) -> np.ndarray:
    """(rounds, n, n) adjacency stack of the pattern: entry t - 1 is round t's
    graph. Built once per audit pass and handed to every audit; it costs
    rounds·n² bytes."""
    out = np.empty((rounds, pattern.n, pattern.n), dtype=bool)
    for t in range(rounds):
        out[t] = pattern.graph(t + 1).adj
    return out


def _graph_stack(graphs: np.ndarray, n: int, rounds: int) -> np.ndarray:
    """The first `rounds` entries of a round-graph stack on n nodes."""
    if graphs.shape[1:] != (n, n) or len(graphs) < rounds:
        raise ValueError(f"graph stack of shape {graphs.shape} does not cover"
                         f" {rounds} rounds on {n} nodes")
    return graphs[:rounds]


def _chunks(total: int, per_item: int):
    """Consecutive (start, stop) ranges over `total` items with at most
    CHUNK_ELEMS // per_item items each."""
    step = max(1, CHUNK_ELEMS // per_item)
    for start in range(0, total, step):
        yield start, min(total, start + step)


def audit_safeness(positions: np.ndarray, graphs: np.ndarray, claimed_alpha: float,
                   period: int = 1) -> SafenessReport:
    """Recompute every agent's received extremes from the round graphs and
    measure how far inside them each recorded position lands.

    `positions` is the (T+1, n, d) recorded run and `graphs` a stack from
    `round_graphs` covering its audited rounds.

    With period > 1 the audit works on macro-rounds: extremes are taken over
    the block's graph product, matching algorithms that gather for period
    rounds before moving. Only complete blocks are audited. A margin below
    the claim is a violation when it falls short by more than AUDIT_TOL of
    the span and by more than ROUNDING_ULPS ulps of the endpoints.
    """
    positions = np.asarray(positions, dtype=float)
    total, n, d = positions.shape
    total -= 1
    if total < 1:
        raise ValueError("trace records no transitions; nothing to audit")
    if period < 1:
        raise ValueError(f"need period >= 1, got {period}")
    blocks = total // period
    if blocks < 1:
        raise ValueError(f"trace has {total} rounds, shorter than one period-{period} block")
    adj = _graph_stack(graphs, n, blocks * period)

    margins = np.full((blocks, n, d), np.nan)
    violations: List[Tuple[int, int, int, float]] = []
    worst = math.inf
    for b0, b1 in _chunks(blocks, n * n * d):
        start, stop = b0 * period, b1 * period
        # reach[s, q, p]: q's value at the block start can reach p by its end
        reach = adj[start:stop:period]
        for j in range(1, period):
            reach = reach @ adj[start + j:stop:period]
        heard = reach.transpose(0, 2, 1)[..., None]  # (block, p, q, 1)
        sent = positions[start:stop:period][:, None]  # (block, 1, q, d)
        lo = np.where(heard, sent, np.inf).min(axis=2)
        hi = np.where(heard, sent, -np.inf).max(axis=2)
        x = positions[start + period:stop + 1:period]
        span = hi - lo
        mag = np.maximum(np.abs(lo), np.abs(hi))
        # A span within a few hundred ulps of the endpoint magnitude is a
        # converged component kept alive by rounding noise; any average can
        # land exactly on an endpoint there, so the constraint carries no
        # information.
        live = ~(span <= np.maximum(RANGE_FLOOR, 1e-13 * mag))
        below, above = x - lo, hi - x
        with np.errstate(divide="ignore", invalid="ignore"):
            m = np.where(live, np.where(above < below, above, below) / span, np.nan)
        margins[b0:b1] = m
        worst = min(worst, float(np.where(np.isnan(m), np.inf, m).min()))
        cand = np.nonzero(m < claimed_alpha - AUDIT_TOL)
        if len(cand[0]):
            shortfall = (claimed_alpha - m[cand]) * span[cand]
            flagged = shortfall > ROUNDING_ULPS * np.spacing(mag[cand])
            for s, p, k, v in zip(*(c[flagged].tolist() for c in cand), m[cand][flagged].tolist()):
                violations.append(((b0 + s + 1) * period, p, k, v))
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
    mean = sum(values) / n
    y = (x - alpha * mean) / (1 - alpha)
    # clamp fp residue so b stays a convex pair
    b1 = min(1.0, max(0.0, (vn - y) / (vn - v1)))
    bn = min(1.0, max(0.0, (y - v1) / (vn - v1)))
    a = [alpha / n] * n
    a[0] += (1 - alpha) * b1
    a[-1] += (1 - alpha) * bn
    return a


def reconstruct_matrices(positions: np.ndarray, graphs: np.ndarray,
                         alpha: float) -> StochasticMatrixSeq:
    """Express each recorded round of the (T+1, n, d) `positions` as one
    row-stochastic matrix per component, over the first T entries of the
    round-graph stack `graphs`.

    Row p of matrices[t, k] spreads weight over p's in-neighbors in round
    t+1's graph so that the weighted values reproduce p's new position; every
    used entry is at least alpha/|in-neighbors| >= alpha/n. A position outside
    its safe interval by more than fp slack means the trace was not produced
    by an alpha-safe update and is rejected. The weights are the closed form
    of `decompose_safe_value`, taken for every (round, component, agent) at
    once.
    """
    positions = np.asarray(positions, dtype=float)
    total, n, d = positions.shape
    total -= 1
    if total < 1:
        raise ValueError("trace records no transitions; nothing to reconstruct")
    scale = max(1.0, float(np.abs(positions).max()))
    tol = 1e-9 * scale
    adj = _graph_stack(graphs, n, total)
    matrices = np.zeros((total, d, n, n))
    for t0, t1 in _chunks(total, n * n * d):
        heard = adj[t0:t1].transpose(0, 2, 1)[:, None]  # (round, 1, p, q)
        sent = positions[t0:t1].transpose(0, 2, 1)[:, :, None]  # (round, k, 1, q)
        # each row sorted ascending with its in-neighbours first; the stable
        # sort keeps agent order on ties, as `sorted` did
        filled = np.where(heard, sent, np.inf)
        order = np.argsort(filled, axis=-1, kind="stable")
        svals = np.take_along_axis(filled, order, axis=-1)
        count = heard.sum(axis=-1)  # (round, 1, p)
        last = np.broadcast_to(count - 1, svals.shape[:-1])[..., None]
        v1, vn = svals[..., 0], np.take_along_axis(svals, last, axis=-1)[..., 0]
        x = positions[t0 + 1:t1 + 1].transpose(0, 2, 1)  # (round, k, p)
        lo = (1 - alpha) * v1 + alpha * vn
        hi = alpha * v1 + (1 - alpha) * vn
        bad = ((x < lo - tol) | (x > hi + tol)).transpose(0, 2, 1)  # (round, p, k)
        if t0 == 0 and not 0.0 <= alpha <= 0.5 and not bad[0, 0, 0]:
            raise ValueError(f"alpha must be in [0, 1/2], got {alpha}")
        if bad.any():
            t, p, k = np.argwhere(bad)[0]
            raise SafenessViolationError(
                f"round {t0 + t + 1}, agent {p}, component {k}: value {float(x[t, k, p])} is"
                f" outside the {alpha}-safe interval [{lo[t, k, p]}, {hi[t, k, p]}]")
        # decompose_safe_value on x clamped into [lo, hi], with Python's
        # min/max tie rules and its left-to-right sum for the mean
        clamped = np.where(x > lo, x, lo)
        clamped = np.where(clamped < hi, clamped, hi)
        acc = np.zeros_like(v1)
        with np.errstate(invalid="ignore"):
            for j in range(n):
                acc = np.where(j < count, acc + svals[..., j], acc)
        y = (clamped - alpha * (acc / count)) / (1 - alpha)
        span = vn - v1
        flat = span <= 0.0
        with np.errstate(divide="ignore", invalid="ignore"):
            b1, bn = (vn - y) / span, (y - v1) / span
        b1, bn = (np.where(b > 0.0, b, 0.0) for b in (b1, bn))
        b1, bn = (np.where(b < 1.0, b, 1.0) for b in (b1, bn))
        share = alpha / count
        w_min = np.where(flat, 1.0 / count, share + (1 - alpha) * b1)
        w_max = np.where(flat, 1.0 / count, share + (1 - alpha) * bn)
        block = np.where(heard, np.where(flat, 1.0 / count, share)[..., None], 0.0)
        np.put_along_axis(block, order[..., :1], w_min[..., None], axis=-1)
        np.put_along_axis(block, np.take_along_axis(order, last, axis=-1), w_max[..., None],
                          axis=-1)
        matrices[t0:t1] = block
    return StochasticMatrixSeq(matrices=matrices, alpha=alpha)


def check_moreau_assumptions(seq: StochasticMatrixSeq, graphs: np.ndarray,
                             window: int) -> MoreauReport:
    """Check the four assumptions that guarantee consensus for products of
    stochastic matrices on the run's own T rounds: positive diagonals (A1),
    positive entries bounded below by a (A2), bidirectional round graphs (A3),
    and strong connectivity of the edges that recur in every whole `window`
    rounds of the run (A4). A run shorter than one window holds no evidence
    of recurring edges, so A4 fails for it. Witnesses are the first in
    (round, component, row, column) order. `graphs` is the stack of round
    graphs from `round_graphs`; A3 and A4 read its first T entries."""
    T, d, n, _ = seq.matrices.shape
    graphs = _graph_stack(graphs, n, T)
    a = seq.alpha / n
    a1_w = a2_w = a3_w = a4_w = None
    for t0, t1 in _chunks(T, n * n * d):
        A = seq.matrices[t0:t1]
        if a1_w is None:
            hit = np.argwhere(A.diagonal(axis1=2, axis2=3) <= 0)
            if len(hit):
                t, k, p = hit[0].tolist()
                a1_w = (t0 + t + 1, k, p)
        if a2_w is None:
            hit = np.argwhere((A > 0) & (A < a - 1e-12))
            if len(hit):
                t, k, p, q = hit[0].tolist()
                a2_w = (t0 + t + 1, k, p, q, float(A[t, k, p, q]))
        if a3_w is None:
            adj = graphs[t0:t1]
            hit = np.flatnonzero((adj != adj.transpose(0, 2, 1)).any(axis=(1, 2)))
            if len(hit):
                a3_w = t0 + int(hit[0]) + 1
    if T < window:
        a4 = False
        a4_w = f"the run's {T} rounds hold no whole window of {window} rounds"
    else:
        a4 = is_strongly_connected(infinitely_often_union(graphs, window))
        if not a4:
            a4_w = f"recurring-edge graph over window {window} is not strongly connected"
    return MoreauReport(a=a, a1=a1_w is None, a2=a2_w is None, a3=a3_w is None, a4=a4,
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
