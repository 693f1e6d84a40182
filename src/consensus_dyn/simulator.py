"""Round-based execution engine: run an algorithm over a communication pattern,
record the trajectory, and compare measured convergence against the worst-case
round bounds.

Rounds are 1-based: configuration t is the state after round t, configuration 0
is the initial one. Positions hold still inside a block of `period` rounds;
at its end every agent applies the base rule to the block-start positions that
reached it (period 1 is the per-round algorithm).
"""

import csv
import itertools
import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .algorithms import (
    AlgorithmKind,
    apply_rule,
    claimed_alpha,
    effective_period,
    format_kind,
    masked_max,
    masked_min,
    validate_kind,
)
from .graphs import CommPattern, NetworkModelKind, is_nonsplit, is_rooted

# component ranges at or below this are treated as already collapsed
RANGE_FLOOR = 1e-30


class UnsupportedScenarioError(RuntimeError):
    """No worst-case bound is on file for this algorithm/network pairing."""


@dataclass
class RunSpec:
    n: int
    d: int
    algorithm: AlgorithmKind
    pattern: CommPattern
    epsilon: float
    initial: Optional[np.ndarray] = None  # None: seeded uniform draw from the unit box
    max_rounds: int = 100_000
    seed: int = 0


@dataclass
class Metrics:
    t_eps: Optional[int]  # first round with all active components within epsilon, None if never hit
    converged: bool
    empirical_rate: float  # worst per-round contraction factor over active components
    bound_t: Optional[int]  # worst-case round bound, None when no theorem applies


@dataclass
class RunTrace:
    spec: RunSpec
    positions: np.ndarray  # (T+1, n, d), row t is the configuration after round t
    deltas: np.ndarray  # (T+1, d) per-component ranges
    # (T, n) realized safety margins, row t-1 for round t; for amortized rules
    # only block ends carry one (against the block's product graph), and NaN
    # marks rounds inside a block and vacuous constraints
    margins: np.ndarray
    metrics: Metrics


def delta_components(positions: np.ndarray) -> np.ndarray:
    """Per-component range max_p x_p^k - min_p x_p^k over the agent axis
    (-2): (n, d) positions give (d,), a (T+1, n, d) history gives (T+1, d)."""
    positions = np.asarray(positions, dtype=float)
    return positions.max(axis=-2) - positions.min(axis=-2)


def within_epsilon(delta: np.ndarray, delta0: np.ndarray, epsilon: float):
    """run's stopping test, row-wise over a (T, d) range history: every
    component with a range at round 0 is within epsilon times that range."""
    active = delta0 > 0.0
    return (delta[..., active] <= epsilon * delta0[active]).all(axis=-1)


def step(start: np.ndarray, reach: np.ndarray, algorithm: AlgorithmKind, t: int,
         tie_seed: int = 0) -> np.ndarray:
    """Positions after round t of the block that started at positions `start`
    (n, d), where reach[q, p] says q reached p during the block so far: `start`
    inside the block, the base rule over reach at its end. Every agent reads
    the block start, so the result does not depend on agent order."""
    n = len(start)
    if reach.shape != (n, n):
        raise ValueError(f"size mismatch: {n} positions, reach matrix of shape {reach.shape}")
    if t % effective_period(algorithm, n):
        return start
    return apply_rule(algorithm, start, reach, t, tie_seed)


def initial_positions(spec: RunSpec) -> np.ndarray:
    """Validate the spec and return x(0): its explicit positions or the seeded draw."""
    if spec.n < 1:
        raise ValueError(f"need n >= 1, got {spec.n}")
    if spec.d < 1:
        raise ValueError(f"need d >= 1, got {spec.d}")
    if not (spec.epsilon > 0 and math.isfinite(spec.epsilon)):
        raise ValueError(f"epsilon must be positive and finite, got {spec.epsilon}")
    if spec.max_rounds < 1:
        raise ValueError(f"need max_rounds >= 1, got {spec.max_rounds}")
    if spec.pattern.n != spec.n:
        raise ValueError(f"pattern is built for n={spec.pattern.n}, spec has n={spec.n}")
    if spec.seed < 0:
        raise ValueError(f"seed must be >= 0, got {spec.seed}")
    validate_kind(spec.algorithm, spec.n, spec.d)
    if spec.initial is None:
        rng = np.random.default_rng(spec.seed)
        return rng.uniform(0.0, 1.0, (spec.n, spec.d))
    initial = np.asarray(spec.initial, dtype=float)
    if initial.shape != (spec.n, spec.d):
        raise ValueError(f"initial positions must have shape {(spec.n, spec.d)}, got {initial.shape}")
    if not np.isfinite(initial).all():
        raise ValueError("initial positions must be finite")
    return initial.copy()


def _margin_row(prev: np.ndarray, adj: np.ndarray, new: np.ndarray) -> np.ndarray:
    """Realized relative margin of each agent against the range of prev over
    its in-neighbours (adj[q, p]); NaN when every component range had already
    collapsed."""
    lo, hi = masked_min(prev, adj), masked_max(prev, adj)
    span = hi - lo
    live = span > RANGE_FLOOR
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(live, np.minimum(new - lo, hi - new) / span, np.inf)
    return np.where(live.any(axis=1), ratio.min(axis=1), np.nan)


def measure_run(spec: RunSpec, deltas: np.ndarray) -> Metrics:
    """What a run reports of its (T+1, d) range history `deltas`: t_eps is the
    first round within epsilon among the first max_rounds (0 for a start in
    exact consensus), the empirical rate the worst per-round contraction of a
    component with a range at round 0, and bound_t the theorem bound when one
    applies. `run` stops at t_eps, else at max_rounds."""
    delta0 = deltas[0]
    active = delta0 > 0.0
    if not active.any():
        t_eps = 0
    else:
        hit = np.flatnonzero(within_epsilon(deltas[1:spec.max_rounds + 1], delta0, spec.epsilon))
        t_eps = int(hit[0]) + 1 if len(hit) else None
    rounds = len(deltas) - 1
    rate = 0.0
    if rounds:
        final = deltas[-1]
        for k in np.flatnonzero(active & (final > 0.0)):
            rate = max(rate, float((final[k] / delta0[k]) ** (1.0 / rounds)))
    try:
        bound = theorem_bound(spec)
    except UnsupportedScenarioError:
        bound = None
    return Metrics(t_eps=t_eps, converged=t_eps is not None, empirical_rate=rate, bound_t=bound)


def run(spec: RunSpec) -> RunTrace:
    initial = initial_positions(spec)
    delta0 = delta_components(initial)
    positions = [initial]
    margins: List[np.ndarray] = []
    if (delta0 > 0.0).any():
        x = initial
        period = effective_period(spec.algorithm, spec.n)
        inside_block = np.full(spec.n, np.nan)
        for t in range(1, spec.max_rounds + 1):
            g = spec.pattern.graph(t)
            # reach[q, p]: q's value can reach p within the current block; the
            # block-end update applies the rule over reach, and its margin is
            # measured against reach, not against g alone
            reach = g.adj if (t - 1) % period == 0 else reach @ g.adj
            x = step(x, reach, spec.algorithm, t, tie_seed=spec.seed)
            positions.append(x)
            if t % period == 0:
                margins.append(_margin_row(positions[t - period], reach, x))
            else:
                margins.append(inside_block)
            if within_epsilon(delta_components(x), delta0, spec.epsilon):
                break
    pos_arr = np.stack(positions)
    deltas = delta_components(pos_arr)
    margin_arr = np.stack(margins) if margins else np.empty((0, spec.n))
    return RunTrace(spec, pos_arr, deltas, margin_arr, measure_run(spec, deltas))


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


def _ceil_log(ratio: float, base: float) -> int:
    if ratio <= 1.0:
        return 0
    if base == 2.0:
        r = math.log2(ratio)
    else:
        r = math.log(ratio) / math.log(base)
    # guard against ratios that are exact powers landing a hair above an integer
    return max(0, math.ceil(r - 1e-12))


def _pattern_classes(pattern: CommPattern) -> Tuple[bool, bool]:
    """(every round nonsplit, every round rooted) as far as the pattern family
    guarantees it."""
    kind = pattern.kind
    if kind == NetworkModelKind.NONSPLIT:
        return True, True
    if kind == NetworkModelKind.ROOTED:
        return False, True
    if kind == NetworkModelKind.FIXED_GRAPH:
        g = pattern.graph(1)
        nonsplit = is_nonsplit(g)
        return nonsplit, nonsplit or is_rooted(g)
    return False, False


def theorem_bound(spec: RunSpec) -> int:
    """Worst-case number of rounds until every component range has shrunk by
    the factor epsilon. The convergence criterion is relative, so the count
    does not depend on the initial ranges.

    Covered pairings: any non-amortized rule on always-nonsplit patterns, and
    the amortized rules at period n-1 on always-rooted patterns. Anything else
    raises UnsupportedScenarioError.
    """
    validate_kind(spec.algorithm, spec.n, spec.d)
    if not (spec.epsilon > 0 and math.isfinite(spec.epsilon)):
        raise ValueError(f"epsilon must be positive and finite, got {spec.epsilon}")
    ratio = 1.0 / spec.epsilon
    period = effective_period(spec.algorithm, spec.n)
    nonsplit, rooted = _pattern_classes(spec.pattern)
    if period == 1 and nonsplit:
        alpha = claimed_alpha(spec.algorithm, spec.n, spec.d)
        return _ceil_log(ratio, 1.0 / (1.0 - alpha))
    if (spec.algorithm.amortized and period == max(1, spec.n - 1) and rooted):
        tag = spec.algorithm.tag
        if tag == "midpoint":
            base = 2.0
        elif tag == "extreme-point":
            base = (2.0 * spec.d) / (2.0 * spec.d - 1.0)
        elif tag == "centroid":
            base = (spec.d + 1.0) / spec.d
        else:
            raise UnsupportedScenarioError(
                f"no amortized round bound on file for {tag!r}")
        return period * _ceil_log(ratio, base)
    raise UnsupportedScenarioError(
        f"no round bound on file for {format_kind(spec.algorithm)} at period {period}"
        f" over pattern {spec.pattern.name!r}")


# ---------------------------------------------------------------------------
# artifact CSVs: the bytes csv.writer's excel dialect gives for rows of ints
# and repr() floats (`,` separators, `\r\n` line ends, nothing quoted), so
# floats round-trip bit-exactly


# values formatted per chunk: bounds the memory of a write whatever T is
_CHUNK_VALUES = 1 << 16


def _float_texts(values: np.ndarray) -> np.ndarray:
    """repr() of each float64 as an object array, computed once per distinct
    bit pattern (so -0.0 and 0.0 stay apart and every NaN prints `nan`)."""
    bits, inverse = np.unique(values.view(np.uint64), return_inverse=True)
    return np.array(list(map(repr, bits.view(np.float64).tolist())), dtype=object)[inverse]


def _write_table(path, header: List[str], table: np.ndarray, first: int) -> None:
    """Write `table` (m, k, w) as m * k rows `i + first, j, table[i, j, 0], ...`."""
    m, k, w = table.shape
    values = np.ascontiguousarray(table, dtype=np.float64).reshape(m * k, w)
    inner = np.array(list(map(str, range(k))), dtype=object)
    rows_per_chunk = max(1, _CHUNK_VALUES // w)
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for lo in range(0, m * k, rows_per_chunk):
            hi = min(lo + rows_per_chunk, m * k)
            row = np.arange(lo, hi)
            outer_lo = lo // k
            outer = np.array(list(map(str, range(outer_lo + first, (hi - 1) // k + 1 + first))),
                             dtype=object)
            # tokens of each line: i "," j "," v_0 ... "," v_{w-1} "\r\n"
            cells = np.empty((hi - lo, 2 * w + 4), dtype=object)
            cells[:, 0] = outer[row // k - outer_lo]
            cells[:, 1::2] = ","
            cells[:, 2] = inner[row % k]
            cells[:, 4::2] = _float_texts(values[lo:hi].ravel()).reshape(hi - lo, w)
            cells[:, -1] = "\r\n"
            fh.write("".join(cells.ravel().tolist()))


def write_trace_csv(trace: RunTrace, path) -> None:
    d = trace.positions.shape[2]
    _write_table(path, ["round", "agent"] + [f"comp_{k}" for k in range(d)], trace.positions, 0)


def read_trace_csv(path) -> np.ndarray:
    """The (T+1, n, d) positions of a trace file."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise ValueError("trace file is empty")
    header = rows[0]
    if header[:2] != ["round", "agent"] or any(not c.startswith("comp_") for c in header[2:]):
        raise ValueError(f"not a trace file: header {header}")
    d = len(header) - 2
    body = rows[1:]
    if not body:
        raise ValueError("trace file has no rows")
    width = len(header)
    if set(map(len, body)) != {width}:
        i, row = next((i, r) for i, r in enumerate(body) if len(r) != width)
        raise ValueError(f"trace file line {i + 2} has {len(row)} fields, the header has {width}")
    m = len(body)
    flat = list(itertools.chain.from_iterable(body))
    rounds = np.fromiter(map(int, flat[0::width]), dtype=np.intp, count=m)
    agents = np.fromiter(map(int, flat[1::width]), dtype=np.intp, count=m)
    # column by column, so the (d, m) result transposes into rows
    values = np.fromiter(map(float, itertools.chain.from_iterable(
        flat[k::width] for k in range(2, width))), dtype=np.float64, count=m * d)
    values = values.reshape(d, m).T
    if rounds.min() < 0 or agents.min() < 0:
        # a negative index would land on a row counted from the end
        i = int(np.argmax((rounds < 0) | (agents < 0)))
        raise ValueError(f"trace file line {i + 2} has a negative round or agent")
    n = int(agents.max()) + 1
    t_max = int(rounds.max())
    positions = np.full((t_max + 1, n, d), np.nan)
    positions[rounds, agents] = values
    if np.isnan(positions).any():
        raise ValueError("trace file is missing (round, agent) rows")
    if m > positions.shape[0] * n:
        # every (round, agent) cell is filled, so some row comes more than once
        seen = set()
        for t, p in zip(rounds.tolist(), agents.tolist()):
            if (t, p) in seen:
                raise ValueError(f"trace file repeats the row of round {t}, agent {p}")
            seen.add((t, p))
    return positions


def write_deltas_csv(trace: RunTrace, path) -> None:
    _write_table(path, ["round", "k", "delta_k"], trace.deltas[..., None], 0)


def write_margins_csv(trace: RunTrace, path) -> None:
    _write_table(path, ["round", "agent", "alpha_hat"], trace.margins[..., None], 1)
