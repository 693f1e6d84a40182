"""Round-based execution engine: run an algorithm over a communication pattern,
record the trajectory, and compare measured convergence against the worst-case
round bounds.

Rounds are 1-based: configuration t is the state after round t, configuration 0
is the initial one. Positions hold still inside a block of `period` rounds;
at its end every agent applies the base rule to the block-start positions that
reached it (period 1 is the per-round algorithm).

A run's record is its positions: its range history and metrics follow from
them, and its realized margins from them and its round graphs, formed when
margins.csv is written.
"""

import csv
import itertools
import math
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from .algorithms import (
    AlgorithmKind,
    apply_rule,
    claimed_alpha,
    effective_period,
    masked_max,
    masked_min,
    validate_kind,
)
from .graphs import CommPattern, RoundGraphs

# component ranges at or below this are treated as already collapsed
RANGE_FLOOR = 1e-30

# elements in one chunk of the passes over a whole run (margins, CSV rows):
# bounds their temporary memory whatever the number of rounds
CHUNK_ELEMS = 1 << 16


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
    """A run's trajectory and what it measured."""

    spec: RunSpec
    positions: np.ndarray  # (T+1, n, d), row t is the configuration after round t
    deltas: np.ndarray  # (T+1, d) per-component ranges
    metrics: Metrics


def delta_components(positions: np.ndarray) -> np.ndarray:
    """Per-component range max_p x_p^k - min_p x_p^k over the agent axis
    (-2): (n, d) positions give (d,), a (T+1, n, d) history gives (T+1, d)."""
    positions = np.asarray(positions, dtype=float)
    return positions.max(axis=-2) - positions.min(axis=-2)


def stop_threshold(delta0: np.ndarray, epsilon: float) -> np.ndarray:
    """run's stopping threshold per component of the round-0 ranges
    `delta0`: epsilon times the range, inf for a component without one. A
    run stops at the first round whose every range is at most this."""
    return np.where(delta0 > 0.0, epsilon * delta0, np.inf)


def step(start: np.ndarray, reach: np.ndarray, algorithm: AlgorithmKind, t: int,
         tie_seeds: Sequence[int], dims: Sequence[int]) -> np.ndarray:
    """Positions after round t of the block that started at positions `start`
    (B, n, D), B runs of `algorithm` whose run b holds its positions in the
    first dims[b] columns and zeros in the rest, where reach[q, p] says q
    reached p during the block so far: `start` inside the block, the base
    rule over reach at its end, with run b's random ties drawn from
    tie_seeds[b]. Every agent reads the block start, so the result does not
    depend on agent order."""
    n = start.shape[1]
    if reach.shape != (n, n):
        raise ValueError(f"size mismatch: {n} positions, reach matrix of shape {reach.shape}")
    if t % effective_period(algorithm, n):
        return start
    return apply_rule(algorithm, start, reach, t, tie_seeds, dims)


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
    # a range of inf makes epsilon times it inf too, and every range would
    # pass the stopping test (Python floats overflow to inf without a warning)
    for k, (hi, lo) in enumerate(zip(initial.max(axis=0).tolist(), initial.min(axis=0).tolist())):
        if hi - lo == math.inf:
            raise ValueError(f"the range of the initial positions overflows a float in component"
                             f" {k}: {hi!r} - {lo!r}")
    return initial.copy()


def _margin_row(positions: np.ndarray, graphs: np.ndarray, period: int) -> np.ndarray:
    """(T, n) realized relative margins of a run's (T+1, n, d) positions
    over its (T, n, n) round-graph stack `graphs`, entry t-1 round t's
    graph; row t-1 is round t. At the block ends t = period, 2·period, ...
    agent p's margin is measured against the range of positions[t - period]
    over the agents q that reached p during the block, by the boolean
    product of its round graphs, folded left as the round loop folds it; it
    is NaN inside a block and where every component range had already
    collapsed. One pass over the run, in chunks of block ends whose
    (blocks, n, n, d) temporaries hold at most CHUNK_ELEMS elements (or one
    block)."""
    rounds, n, d = positions.shape[0] - 1, positions.shape[1], positions.shape[2]
    margins = np.full((rounds, n), np.nan)
    block_ends = np.arange(period, rounds + 1, period)
    per_chunk = max(1, CHUNK_ELEMS // (n * n * d))
    with np.errstate(divide="ignore", invalid="ignore"):
        for first in range(0, len(block_ends), per_chunk):
            t = block_ends[first:first + per_chunk]
            block = graphs[t[0] - period:t[-1]].reshape(len(t), period, n, n)
            reach = block[:, 0]
            for k in range(1, period):
                reach = reach @ block[:, k]
            prev = positions[t - period]
            low, high = masked_min(prev, reach), masked_max(prev, reach)
            new = positions[t]
            span = high - low
            live = span > RANGE_FLOOR
            ratio = np.where(live, np.minimum(new - low, high - new) / span, np.inf)
            margins[t - 1] = np.where(live.any(axis=2), ratio.min(axis=2), np.nan)
    return margins


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
        threshold = stop_threshold(delta0, spec.epsilon)
        hit = np.flatnonzero((deltas[1:spec.max_rounds + 1] <= threshold).all(axis=1))
        t_eps = int(hit[0]) + 1 if len(hit) else None
    rounds = len(deltas) - 1
    rate = 0.0
    if rounds:
        final = deltas[-1]
        for k in np.flatnonzero(active & (final > 0.0)):
            rate = max(rate, float((final[k] / delta0[k]) ** (1.0 / rounds)))
    return Metrics(t_eps=t_eps, converged=t_eps is not None, empirical_rate=rate,
                   bound_t=theorem_bound(spec))


def run_batch(specs: Sequence[RunSpec], graphs: Optional[RoundGraphs] = None) -> list:
    """Run specs that share n, algorithm and pattern (they may differ in d,
    seed, start, epsilon and max_rounds) through one round loop, reading
    round t's graph from `graphs`, a stack of the pattern's round graphs that
    callers pass to share it with the audits or with other batches (a fresh
    one when None). Returns, per spec in order, its RunTrace or the
    ValueError that ended it: an invalid spec, or the round at which one of
    its positions became non-finite, which ends that run only.

    The live runs' positions are one (B, n, D) array, padded with zeros to
    the largest live d. Each round reads its graph once, updates the block's
    reach matrix once, calls `step` once for the batch and tests, per run,
    whether the range of every component that had one at round 0 is within
    epsilon times that range. A run that passes, reaches its max_rounds or
    fails leaves the live set at that round; a run that starts in exact
    consensus never enters it. Each run's range history and metrics are
    computed after the loop. Nothing of the round graphs is kept: margins
    are formed from the positions and the stack when margins.csv is written.
    """
    kind, n = specs[0].algorithm, specs[0].n
    if any(spec.algorithm != kind or spec.n != n for spec in specs[1:]):
        raise ValueError("a batch of runs must share n and the algorithm")
    outcomes: list = [None] * len(specs)
    starts = {}
    for i, spec in enumerate(specs):
        try:
            starts[i] = initial_positions(spec)
        except ValueError as e:
            outcomes[i] = e
    # measure_run's stopping test, one round at a time; a run without a
    # range at round 0 starts in exact consensus and never enters the loop
    thresholds = {}
    for i, x0 in starts.items():
        delta0 = delta_components(x0)
        if (delta0 > 0.0).any():
            thresholds[i] = stop_threshold(delta0, specs[i].epsilon)
    live = list(thresholds)
    period = effective_period(kind, n)
    segments = []  # (live runs, their (rounds, B, n, D) positions) per stretch of rounds
    if live:
        if graphs is None:
            graphs = RoundGraphs(specs[live[0]].pattern)
        dims = tuple(specs[i].d for i in live)
        x = np.zeros((len(live), n, max(dims)))
        threshold = np.full((len(live), max(dims)), np.inf)  # padding always passes
        for j, i in enumerate(live):
            x[j, :, :dims[j]] = starts[i]
            threshold[j, :dims[j]] = thresholds[i]
        seeds = tuple(specs[i].seed for i in live)
        limits = {specs[i].max_rounds for i in live}
        rows = [x]
        # an update that overflows, or a range of infinities, is reported
        # below by the position it made non-finite, not by numpy's warning
        with np.errstate(over="ignore", invalid="ignore"):
            for t in itertools.count(1):
                adj = graphs.adj(t)
                # reach[q, p]: q's value can reach p within the current block;
                # the block-end update applies the rule over reach
                reach = adj if (t - 1) % period == 0 else reach @ adj
                x = step(x, reach, kind, t, seeds, dims)
                rows.append(x)
                # the ufuncs' own reductions: x.max, x.min and all without
                # their Python wrappers, a few microseconds a round
                span = np.maximum.reduce(x, axis=1) - np.minimum.reduce(x, axis=1)
                done = np.logical_and.reduce(span <= threshold, axis=1).tolist()
                # a non-finite position makes the sum non-finite, as may an overflow
                failed = (not math.isfinite(sum(span.ravel().tolist()))
                          and not np.isfinite(x).all())
                if not (failed or any(done) or t in limits):
                    continue
                done = np.array(done) | [specs[i].max_rounds == t for i in live]
                if failed:
                    for j in np.flatnonzero(~np.isfinite(x).all(axis=(1, 2))):
                        p, k = np.argwhere(~np.isfinite(x[j]))[0]
                        outcomes[live[j]] = ValueError(
                            f"round {t}: agent {p} has a non-finite position"
                            f" {x[j, p, k]} in component {k}")
                        done[j] = True
                segments.append((live, np.stack(rows)))
                if done.all():
                    break
                live = [i for i, stop in zip(live, done) if not stop]
                dims = tuple(specs[i].d for i in live)
                seeds = tuple(specs[i].seed for i in live)
                x, threshold = x[~done, :, :max(dims)], threshold[~done, :max(dims)]
                rows = []
    for i, x0 in starts.items():
        if outcomes[i] is not None:
            continue
        d = specs[i].d
        parts = [stack[:, ids.index(i), :, :d] for ids, stack in segments if i in ids]
        positions = (np.concatenate(parts) if len(parts) > 1
                     else np.ascontiguousarray(parts[0]) if parts else x0[None])
        deltas = delta_components(positions)
        outcomes[i] = RunTrace(specs[i], positions, deltas, measure_run(specs[i], deltas))
    return outcomes


def run(spec: RunSpec, graphs: Optional[RoundGraphs] = None) -> RunTrace:
    """Run `spec`, reading round t's graph from `graphs`, a stack of
    spec.pattern's round graphs that callers pass to share it with the audits
    or with other runs of the same pattern (a fresh one when None).

    This is `run_batch` of one run: each round reads its graph, updates the
    block's reach matrix, calls `step` once and tests whether the range of
    every component that had one at round 0 is within epsilon times that
    range. An invalid spec, or a position that becomes non-finite, raises a
    ValueError. The range history and metrics of the whole run are computed
    once, after the last round.
    """
    outcome = run_batch([spec], graphs)[0]
    if isinstance(outcome, ValueError):
        raise outcome
    return outcome


def _ceil_log(ratio: float, base: float) -> int:
    if ratio <= 1.0:
        return 0
    if base == 2.0:
        r = math.log2(ratio)
    else:
        r = math.log(ratio) / math.log(base)
    # guard against ratios that are exact powers landing a hair above an integer
    return max(0, math.ceil(r - 1e-12))


def theorem_bound(spec: RunSpec) -> Optional[int]:
    """Worst-case number of rounds until every component range has shrunk by
    the factor epsilon. The convergence criterion is relative, so the count
    does not depend on the initial ranges.

    Covered pairings: any non-amortized rule on always-nonsplit patterns
    (`pattern.nonsplit`), and amortized midpoint, extreme-point and centroid
    at period n-1 on always-rooted ones (`pattern.rooted`); both contract by
    1 - claimed_alpha per round or block. Anything else has no bound on
    file: None.
    """
    validate_kind(spec.algorithm, spec.n, spec.d)
    if not (spec.epsilon > 0 and math.isfinite(spec.epsilon)):
        raise ValueError(f"epsilon must be positive and finite, got {spec.epsilon}")
    # 1/epsilon overflows for a subnormal epsilon; the integer ratio does not
    num, den = spec.epsilon.as_integer_ratio()
    ratio = 1.0 / spec.epsilon if spec.epsilon >= 2.0 ** -1022 else den // num
    period = effective_period(spec.algorithm, spec.n)
    alpha = claimed_alpha(spec.algorithm, spec.n, spec.d)
    # alpha = 1 (equal-neighbor at n = 1) contracts by 0: one step collapses
    # every range
    steps = _ceil_log(ratio, 1.0 / (1.0 - alpha)) if alpha < 1 else int(ratio > 1.0)
    if period == 1 and spec.pattern.nonsplit:
        return steps
    if (spec.algorithm.amortized and period == max(1, spec.n - 1) and spec.pattern.rooted
            and spec.algorithm.tag in ("midpoint", "extreme-point", "centroid")):
        return period * steps
    return None


# ---------------------------------------------------------------------------
# artifact CSVs: the bytes csv.writer's excel dialect gives for rows of ints
# and repr() floats (`,` separators, `\r\n` line ends, nothing quoted), so
# floats round-trip bit-exactly




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
    rows_per_chunk = max(1, CHUNK_ELEMS // w)
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


def _read_table(path, what: str, value_columns, first: int) -> np.ndarray:
    """The (m, k, w) table of a file `_write_table(path, header, table, first)`
    wrote: header `round,agent` and w value columns that `value_columns`
    accepts, rows in any order. A row of another field count, a round before
    `first`, a negative agent, an index beyond intp, and a missing or repeated
    (round, agent) raise."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise ValueError(f"{what} file is empty")
    header, body, width = rows[0], rows[1:], len(rows[0])
    if header[:2] != ["round", "agent"] or not value_columns(header[2:]):
        raise ValueError(f"not a {what} file: header {header}")
    if set(map(len, body)) - {width}:
        i, row = next((i, r) for i, r in enumerate(body) if len(r) != width)
        raise ValueError(f"{what} file line {i + 2} has {len(row)} fields, the header has {width}")
    m, flat = len(body), list(itertools.chain.from_iterable(body))
    try:
        rounds = np.fromiter(map(int, flat[0::width]), dtype=np.intp, count=m)
        agents = np.fromiter(map(int, flat[1::width]), dtype=np.intp, count=m)
    except OverflowError:
        raise ValueError(f"{what} file has a round or agent beyond the index range") from None
    # column by column, so the (w, m) result transposes into rows
    values = np.fromiter(map(float, itertools.chain.from_iterable(
        flat[k::width] for k in range(2, width))), dtype=np.float64, count=m * (width - 2))
    # checked before `first` is subtracted, which would wrap the least intp
    negative = (rounds < first) | (agents < 0)
    if negative.any():
        # a negative index would land on a row counted from the end
        raise ValueError(f"{what} file line {int(np.argmax(negative)) + 2} has a negative"
                         f" round or agent (rounds start at {first})")
    rounds -= first
    t, n = int(rounds.max(initial=-1)) + 1, int(agents.max(initial=-1)) + 1
    # counted before anything of the cells' size is allocated, so that a
    # huge index costs no memory
    if m < t * n:
        raise ValueError(f"{what} file is missing (round, agent) rows")
    firsts = np.unique(rounds * n + agents, return_index=True)[1]
    if len(firsts) < m:
        i = int(np.setdiff1d(np.arange(m), firsts)[0])  # the first row whose cell came before
        raise ValueError(f"{what} file repeats the row of round {rounds[i] + first},"
                         f" agent {agents[i]}")
    table = np.empty((t, n, width - 2))
    table[rounds, agents] = values.reshape(width - 2, m).T
    return table


def read_trace_csv(path) -> np.ndarray:
    """The (T+1, n, d) positions of a trace file."""
    positions = _read_table(path, "trace", lambda cols: all(c.startswith("comp_") for c in cols), 0)
    if not len(positions):
        raise ValueError("trace file has no rows")
    finite = np.isfinite(positions)
    if not finite.all():
        t, p, k = np.argwhere(~finite)[0]
        raise ValueError(f"trace file has a non-finite position: round {t}, agent {p},"
                         f" component {k} is {positions[t, p, k]}")
    return positions


def read_margins_csv(path) -> np.ndarray:
    """The (T, n) margins of a margins file; row t-1 is round t."""
    return _read_table(path, "margins", lambda cols: cols == ["alpha_hat"], 1)[..., 0]


def write_deltas_csv(trace: RunTrace, path) -> None:
    _write_table(path, ["round", "k", "delta_k"], trace.deltas[..., None], 0)


def write_margins_csv(trace: RunTrace, graphs: RoundGraphs, path) -> None:
    """The realized margins of `trace` (see `_margin_row`) over the round
    graphs of `graphs`, a stack of its pattern's rounds."""
    margins = _margin_row(trace.positions, graphs.first(len(trace.positions) - 1),
                          effective_period(trace.spec.algorithm, trace.spec.n))
    _write_table(path, ["round", "agent", "alpha_hat"], margins[..., None], 1)
