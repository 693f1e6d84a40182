"""Independent checkers for simulator output.

Everything here re-derives its answers from recorded positions and the round
graphs alone: safety margins are recomputed from scratch and update steps
are re-expressed as row-stochastic matrices. None of it calls back into the
engine's update path, so agreement is evidence rather than tautology.

Every audit walks the run through one chunked generator, `_blocks`, and the
matrix reconstruction streams its chunks straight into the Moreau check.
"""

import math
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from .graphs import CommPattern, infinitely_often_union, is_strongly_connected
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


def _graph_stack(graphs: np.ndarray, n: int, rounds: int) -> np.ndarray:
    """The first `rounds` entries of a round-graph stack on n nodes."""
    if graphs.shape[1:] != (n, n) or len(graphs) < rounds:
        raise ValueError(f"graph stack of shape {graphs.shape} does not cover"
                         f" {rounds} rounds on {n} nodes")
    return graphs[:rounds]


def _blocks(positions: np.ndarray, graphs: np.ndarray, period: int):
    """Walk the complete period-`period` blocks of the (T+1, n, d) `positions`
    over the round-graph stack `graphs`, CHUNK_ELEMS // (n·n·d) blocks at a
    time (at least one). Each chunk yields (b0, start, reach, end): the index
    of its first block, the (blocks, n, d) block-start and block-end
    positions, and the (blocks, n, n) reach products, where reach[s, q, p]
    says q's value at block s's start can reach p by its end."""
    _, n, d = positions.shape
    blocks = (len(positions) - 1) // period
    adj = _graph_stack(graphs, n, blocks * period)
    step = max(1, CHUNK_ELEMS // (n * n * d))
    for b0 in range(0, blocks, step):
        start, stop = b0 * period, min(blocks, b0 + step) * period
        reach = adj[start:stop:period]
        for j in range(1, period):
            reach = reach @ adj[start + j:stop:period]
        yield b0, positions[start:stop:period], reach, positions[start + period:stop + 1:period]


def audit_safeness(positions: np.ndarray, graphs: np.ndarray, claimed_alpha: float,
                   period: int = 1) -> SafenessReport:
    """Recompute every agent's received extremes from the round graphs and
    measure how far inside them each recorded position lands.

    `positions` is the (T+1, n, d) recorded run and `graphs` an (R, n, n)
    round-graph stack (`graphs.RoundGraphs`) covering its audited rounds.

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

    margins = np.full((blocks, n, d), np.nan)
    violations: List[Tuple[int, int, int, float]] = []
    worst = math.inf
    for b0, start, reach, x in _blocks(positions, graphs, period):
        heard = reach.transpose(0, 2, 1)[..., None]  # (block, p, q, 1)
        sent = start[:, None]  # (block, 1, q, d)
        lo = np.where(heard, sent, np.inf).min(axis=2)
        hi = np.where(heard, sent, -np.inf).max(axis=2)
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
        margins[b0:b0 + len(m)] = m
        worst = min(worst, float(np.where(np.isnan(m), np.inf, m).min()))
        cand = np.nonzero(m < claimed_alpha - AUDIT_TOL)
        if len(cand[0]):
            shortfall = (claimed_alpha - m[cand]) * span[cand]
            flagged = shortfall > ROUNDING_ULPS * np.spacing(mag[cand])
            for s, p, k, v in zip(*(c[flagged].tolist() for c in cand), m[cand][flagged].tolist()):
                violations.append(((b0 + s + 1) * period, p, k, v))
    return SafenessReport(claimed_alpha=claimed_alpha, period=period,
                          margins=margins, worst_alpha=worst, violations=violations)


def reconstruct_matrices(positions: np.ndarray, graphs: np.ndarray, alpha: float):
    """Express each recorded round of the (T+1, n, d) `positions` as one
    row-stochastic matrix per component, over the first T entries of the
    round-graph stack `graphs`, yielded as (rounds, d, n, n) chunks in round
    order.

    Row p of chunk[t, k] spreads weight over p's in-neighbors in that round's
    graph so that the weighted values reproduce p's new position; every used
    entry is at least alpha/|in-neighbors| >= alpha/n. A position outside
    its safe interval by more than fp slack means the trace was not produced
    by an alpha-safe update and is rejected. The weights are the closed form
    of the scalar construction `decompose_safe_value` in tests/oracles.py,
    taken for every (round, component, agent) at once.
    """
    positions = np.asarray(positions, dtype=float)
    configs, n, _ = positions.shape
    if configs < 2:
        raise ValueError("trace records no transitions; nothing to reconstruct")
    scale = max(1.0, float(np.abs(positions).max()))
    tol = 1e-9 * scale
    for t0, start, adj, x in _blocks(positions, graphs, 1):
        heard = adj.transpose(0, 2, 1)[:, None]  # (round, 1, p, q)
        sent = start.transpose(0, 2, 1)[:, :, None]  # (round, k, 1, q)
        # each row sorted ascending with its in-neighbours first; the stable
        # sort keeps agent order on ties, as `sorted` did
        filled = np.where(heard, sent, np.inf)
        order = np.argsort(filled, axis=-1, kind="stable")
        svals = np.take_along_axis(filled, order, axis=-1)
        count = heard.sum(axis=-1)  # (round, 1, p)
        last = np.broadcast_to(count - 1, svals.shape[:-1])[..., None]
        v1, vn = svals[..., 0], np.take_along_axis(svals, last, axis=-1)[..., 0]
        x = x.transpose(0, 2, 1)  # (round, k, p)
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
        yield block


def check_moreau_assumptions(matrices, graphs: np.ndarray, alpha: float,
                             window: int) -> MoreauReport:
    """Check the four assumptions that guarantee consensus for products of
    stochastic matrices on the run's own T rounds: positive diagonals (A1),
    positive entries bounded below by a = alpha/n (A2), bidirectional round
    graphs (A3), and strong connectivity of the edges that recur in every
    whole `window` rounds of the run (A4). `matrices` is an iterable of
    (rounds, d, n, n) chunks in round order (`reconstruct_matrices`) holding
    T rounds in all. A run shorter than one window holds no evidence of
    recurring edges, so A4 fails for it. Witnesses are the first in (round,
    component, row, column) order. A3 and A4 read the first T entries of
    `graphs`, the (R, n, n) stack of the run's round graphs."""
    n = graphs.shape[-1]
    a = alpha / n
    a1_w = a2_w = a3_w = a4_w = None
    T = 0
    for A in matrices:
        t0, T = T, T + len(A)
        adj = _graph_stack(graphs, A.shape[-1], T)[t0:]
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
            hit = np.flatnonzero((adj != adj.transpose(0, 2, 1)).any(axis=(1, 2)))
            if len(hit):
                a3_w = t0 + int(hit[0]) + 1
    if T < window:
        a4 = False
        a4_w = f"the run's {T} rounds hold no whole window of {window} rounds"
    else:
        a4 = is_strongly_connected(infinitely_often_union(_graph_stack(graphs, n, T), window))
        if not a4:
            a4_w = f"recurring-edge graph over window {window} is not strongly connected"
    return MoreauReport(a=a, a1=a1_w is None, a2=a2_w is None, a3=a3_w is None, a4=a4,
                        a1_witness=a1_w, a2_witness=a2_w, a3_witness=a3_w, a4_witness=a4_w)
