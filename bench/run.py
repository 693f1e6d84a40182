#!/usr/bin/env python3
"""Benchmark of the consensus-dyn command line on one workload.

Run from the repository root:

    python3 bench/run.py --workload rules-kernel --seed 1 --seconds 20 --trace 0

The program is imported from ./src; nothing needs installing. One closed
loop on one thread calls `consensus_dyn.cli.main` in-process: per workload
pass, `sweep` on each sweep config, then `run` and `verify` on every scenario
of its product, each call starting after the previous one returned. Passes
repeat until --seconds have gone by. Afterwards every artifact is checked
against computations made apart from the program (see checker.py).

--trace 0 prints the end-to-end metrics; --trace 1 alternates untraced and
traced passes and prints the per-layer metrics and the tracing overhead.
The last line of standard output is one JSON object.
"""

import os

# One BLAS/OpenMP thread: the default thread pools made `run` wall times
# spread by about 40% on a shared 2-core machine (README).
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import logging
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import checker
import spans
import workloads

ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

SETUP_REPEATS = 3
IMPORTTIME_REPEATS = 3
COMMANDS = ("sweep", "run", "verify")
ARTIFACTS = ("trace.csv", "deltas.csv", "margins.csv", "summary.json")

END_TO_END_UNITS = {
    "setup_s": "s",
    "run_ms_p50": "ms",
    "rounds_per_s": "rounds/s",
    "verify_ms_p50": "ms",
    "sweep_scenarios_per_s": "scenarios/s",
    "peak_rss_mb": "MB",
}

# (module under consensus_dyn, attribute, span name): the names each caller
# resolves at call time, so a wrapper there sees every call on the CLI path.
LAYER_PATCHES = [
    ("cli", "load_config", "cli.load_config"),
    ("cli", "_sweep_row", "cli.sweep_row"),
    ("cli", "run", "simulator.run"),
    ("cli", "write_trace_csv", "simulator.write_csv"),
    ("cli", "write_deltas_csv", "simulator.write_csv"),
    ("cli", "write_margins_csv", "simulator.write_csv"),
    ("cli", "read_trace_csv", "simulator.read_trace_csv"),
    ("cli", "audit_safeness", "verification.audit_safeness"),
    ("cli", "reconstruct_matrices", "verification.reconstruct_matrices"),
    ("cli", "check_moreau_assumptions", "verification.check_moreau"),
    ("simulator", "step", "simulator.step"),
    ("simulator", "_margin_row", "simulator.margin_row"),
    ("simulator", "amortize", "algorithms.amortize"),
    ("simulator", "in_neighbors", "graphs.in_neighbors"),
    ("verification", "in_neighbors", "graphs.in_neighbors"),
    ("geometry", "convex_hull", "geometry.convex_hull"),
    ("geometry", "centroid", "geometry.centroid"),
    ("graphs.CommPattern", "graph", "graphs.pattern_graph"),
]

PER_LAYER_UNITS = {
    "graphs.pattern_graph_calls": "count",
    "graphs.pattern_graph_s": "s",
    "graphs.in_neighbors_calls": "count",
    "graphs.in_neighbors_s": "s",
    "algorithms.amortize_calls": "count",
    "algorithms.amortize_self_s": "s",
    "geometry.convex_hull_calls": "count",
    "geometry.convex_hull_s": "s",
    "geometry.centroid_calls": "count",
    "geometry.centroid_s": "s",
    "geometry.hulls_per_centroid": "ratio",
    "geometry.hull_fallbacks": "count",
    "simulator.rounds": "count",
    "simulator.run_self_s": "s",
    "simulator.step_self_s": "s",
    "simulator.margin_row_s": "s",
    "simulator.write_csv_s": "s",
    "simulator.artifact_bytes": "bytes",
    "simulator.read_trace_csv_s": "s",
    "verification.audit_safeness_s": "s",
    "verification.reconstruct_matrices_s": "s",
    "verification.check_moreau_s": "s",
    "cli.self_s": "s",
    "cli.load_config_s": "s",
    "cli.sweep_overlap": "ratio",
    "cli.sweep_wall_s": "s",
    "setup.scipy_spatial_import_s": "s",
    "trace.overhead": "ratio",
}


class Calls:
    """CPU time and outcome of every CLI call, per subcommand."""

    def __init__(self):
        self.times = {c: [] for c in COMMANDS}
        self.failed = {c: 0 for c in COMMANDS}
        self.unexpected = []
        self.rounds = 0
        self.sweep_scenarios = 0

    def record(self, command, code, seconds, expect_fail, label, output):
        self.times[command].append(seconds)
        if code != 0:
            self.failed[command] += 1
        if (code != 0) != expect_fail:
            self.unexpected.append(f"{command} {label}: exit {code}: {output.strip()[-300:]}")


class LayerCounters:
    """What spans cannot see: hull fallbacks logged by the geometry module,
    the bytes `run` leaves on disk, and the wall time of `sweep`, which a
    worker pool would shorten without saving CPU time."""

    def __init__(self):
        self.hull_fallbacks = 0
        self.artifact_bytes = 0
        self.sweep_wall = 0.0


class _FallbackCounter(logging.Handler):
    def __init__(self, counters):
        super().__init__(logging.WARNING)
        self.counters = counters

    def emit(self, record):
        self.counters.hull_fallbacks += 1


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def import_program():
    """consensus_dyn.cli from ./src of the checkout, never an installed copy."""
    sys.path.insert(0, str(SRC))
    from consensus_dyn import cli

    if Path(cli.__file__).resolve().parent != (SRC / "consensus_dyn").resolve():
        raise ImportError(f"consensus_dyn was imported from {cli.__file__}, not from {SRC}")
    return cli


SETUP_CODE = """
import sys
sys.path.insert(0, sys.argv[1])
from consensus_dyn import cli
for path in sys.argv[2:]:
    cli.load_config(path)
"""


def measure_setup(paths) -> float:
    """Median over fresh interpreters of the CPU time each spends importing
    consensus_dyn.cli and loading every config of the workload."""
    samples = []
    for _ in range(SETUP_REPEATS):
        start = cpu_seconds()
        subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC), *map(str, paths)],
                       capture_output=True, text=True, timeout=120, check=True)
        samples.append(cpu_seconds() - start)
    return statistics.median(samples)


def scipy_spatial_import_s() -> float:
    """Median cumulative import time of scipy.spatial under `-X importtime`
    when a fresh interpreter imports consensus_dyn.cli; 0 if it is not imported."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import consensus_dyn.cli"
    samples = []
    for _ in range(IMPORTTIME_REPEATS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", code],
                              capture_output=True, text=True, timeout=120, check=True)
        micros = 0
        for line in proc.stderr.splitlines():
            fields = line.split("|")
            if len(fields) == 3 and fields[2].strip() == "scipy.spatial":
                micros = int(fields[1])
        samples.append(micros / 1e6)
    return statistics.median(samples)


def cpu_seconds() -> float:
    """CPU time of this process, all its threads and its reaped children.

    Calls are timed in CPU time, not wall time: on a shared machine, wall
    time of the same work swings with other tenants' load (README)."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def invoke(cli, argv, sink, tracer=None):
    """(exit code, CPU seconds, wall seconds, captured output) of one
    in-process CLI call."""
    start, wall_start = cpu_seconds(), time.perf_counter()
    try:
        if tracer is None:
            code = cli.main(argv)
        else:
            with tracer.root(f"cli.{argv[0]}"):
                code = cli.main(argv)
    except Exception:  # a crash is a failed call; the loop keeps going
        code = 1
        traceback.print_exc(file=sink)
    seconds, wall = cpu_seconds() - start, time.perf_counter() - wall_start
    output = sink.getvalue()
    sink.seek(0)
    sink.truncate()
    return code, seconds, wall, output


def run_pass(cli, workload, root, calls, tracer=None, counters=None):
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        for sc in workload.configs:
            code, seconds, wall, output = invoke(cli, [
                "sweep", "--config", str(workloads.config_path(root, sc.name)),
                "--out", str(workloads.artifact_dir(root, sc.name))], sink, tracer)
            calls.record("sweep", code, seconds, False, sc.name, output)
            if counters is not None:
                counters.sweep_wall += wall
            calls.sweep_scenarios += len(sc.scenarios)
            for s in sc.scenarios:
                args = ["--config", str(workloads.config_path(root, s.name)),
                        "--out", str(workloads.artifact_dir(root, s.name))]
                code, seconds, _, output = invoke(cli, ["run"] + args, sink, tracer)
                calls.record("run", code, seconds, sc.expect_fail, s.name, output)
                out = workloads.artifact_dir(root, s.name)
                try:
                    calls.rounds += json.loads((out / "summary.json").read_text())["rounds"]
                except (OSError, ValueError, KeyError):
                    pass
                if counters is not None:
                    counters.artifact_bytes += sum(
                        (out / a).stat().st_size for a in ARTIFACTS if (out / a).exists())
                if sc.verify:
                    code, seconds, _, output = invoke(cli, ["verify"] + args, sink, tracer)
                    calls.record("verify", code, seconds, sc.expect_fail, s.name, output)


def warm_up(cli, workload, root):
    """Run and verify the first scenario of each config once, untimed, so lazy
    imports and first-call costs stay out of the measured passes."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        for sc in workload.configs:
            s = sc.scenarios[0]
            args = ["--config", str(workloads.config_path(root, s.name)),
                    "--out", str(workloads.artifact_dir(root, s.name))]
            invoke(cli, ["run"] + args, sink)
            invoke(cli, ["verify"] + args, sink)


def digests(workload, root) -> dict:
    out = {}
    for sc in workload.configs:
        paths = [workloads.artifact_dir(root, sc.name) / "sweep.csv"]
        for s in sc.scenarios:
            paths += [workloads.artifact_dir(root, s.name) / a for a in ARTIFACTS]
        for p in paths:
            out[str(p)] = hashlib.sha256(p.read_bytes()).hexdigest() if p.exists() else None
    return out


def check_outputs(cli, workload, root, stats) -> list:
    """Every artifact of the last pass against independent recomputation,
    plus the tamper control."""
    errors = []
    for sc in workload.configs:
        results = {}
        for idx, s in enumerate(sc.scenarios):
            res = checker.check_scenario(s.config, workloads.artifact_dir(root, s.name), stats)
            results[idx] = res
            errors += [f"{s.name}: {e}" for e in res.errors]
        sweep_csv = workloads.artifact_dir(root, sc.name) / "sweep.csv"
        errors += [f"{sc.name}: {e}" for e in
                   checker.check_sweep_csv(sweep_csv, [s.config for s in sc.scenarios], results)]
    code, change = tamper_control(cli, workload, root)
    if code != 3:
        errors.append(f"tamper control: verify exited {code}, not 3, on a trace with {change}")
    return errors


def tamper_control(cli, workload, root):
    """Exit code of `verify` on a copy of the first healthy scenario's trace
    with one agent moved outside its safe interval at the first averaging round."""
    sc = next(c for c in workload.configs if not c.expect_fail)
    s = sc.scenarios[0]
    tampered = root / "tamper"
    tampered.mkdir(parents=True, exist_ok=True)
    t, p, k = checker.tamper_trace(workloads.artifact_dir(root, s.name) / "trace.csv",
                                   tampered / "trace.csv", s.config)
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        code, _, _, _ = invoke(cli, ["verify", "--config", str(workloads.config_path(root, s.name)),
                                  "--out", str(tampered)], sink)
    return code, f"agent {p}, component {k} moved at round {t} of {s.name}"


def layer_metrics(tracer, counters) -> dict:
    """Per-layer values of one traced pass."""
    summary = tracer.summary()
    empty = spans.LayerStats()

    def get(name):
        return summary.get(name, empty)

    hulls, centroids = get("geometry.convex_hull"), get("geometry.centroid")
    sweep_cpu = get("cli.sweep").total
    return {
        "graphs.pattern_graph_calls": get("graphs.pattern_graph").calls,
        "graphs.pattern_graph_s": get("graphs.pattern_graph").total,
        "graphs.in_neighbors_calls": get("graphs.in_neighbors").calls,
        "graphs.in_neighbors_s": get("graphs.in_neighbors").total,
        "algorithms.amortize_calls": get("algorithms.amortize").calls,
        "algorithms.amortize_self_s": get("algorithms.amortize").self_time,
        "geometry.convex_hull_calls": hulls.calls,
        "geometry.convex_hull_s": hulls.total,
        "geometry.centroid_calls": centroids.calls,
        "geometry.centroid_s": centroids.total,
        "geometry.hulls_per_centroid": hulls.calls / centroids.calls if centroids.calls else 0.0,
        "geometry.hull_fallbacks": counters.hull_fallbacks,
        "simulator.rounds": get("simulator.step").calls,
        "simulator.run_self_s": get("simulator.run").self_time,
        "simulator.step_self_s": get("simulator.step").self_time,
        "simulator.margin_row_s": get("simulator.margin_row").total,
        "simulator.write_csv_s": get("simulator.write_csv").total,
        "simulator.artifact_bytes": counters.artifact_bytes,
        "simulator.read_trace_csv_s": get("simulator.read_trace_csv").total,
        "verification.audit_safeness_s": get("verification.audit_safeness").total,
        "verification.reconstruct_matrices_s": get("verification.reconstruct_matrices").total,
        "verification.check_moreau_s": get("verification.check_moreau").total,
        "cli.self_s": sum(get(n).self_time for n in
                          ("cli.sweep", "cli.run", "cli.verify", "cli.sweep_row")),
        "cli.load_config_s": get("cli.load_config").total,
        "cli.sweep_wall_s": counters.sweep_wall,
        "cli.sweep_overlap": (tracer.child_time("cli.sweep_row", "simulator.run") / sweep_cpu
                              if sweep_cpu else 0.0),
    }


def traced_pass(cli, workload, root, calls) -> dict:
    tracer = spans.Tracer()
    counters = LayerCounters()
    for module, attr, name in LAYER_PATCHES:
        owner = importlib.import_module(f"consensus_dyn.{module.split('.')[0]}")
        if "." in module:
            owner = getattr(owner, module.split(".")[1])
        tracer.patch(owner, attr, name)
    geometry_log = logging.getLogger("consensus_dyn.geometry")
    handler = _FallbackCounter(counters)
    geometry_log.addHandler(handler)
    try:
        run_pass(cli, workload, root, calls, tracer, counters)
    finally:
        geometry_log.removeHandler(handler)
        tracer.unpatch()
    return layer_metrics(tracer, counters)


def measure(cli, workload, root, seconds, trace):
    """Passes until `seconds` of wall time have gone by. Returns (calls, CPU
    seconds of each pass, per-layer values averaged over traced passes or
    None, artifacts that differed from the first pass's)."""
    calls = Calls()
    reference = None
    differed = []
    pass_cpu = {"untraced": [], "traced": []}
    layers = []
    start = time.perf_counter()
    while True:
        traced = trace and len(pass_cpu["traced"]) < len(pass_cpu["untraced"])
        c0 = cpu_seconds()
        if traced:
            layers.append(traced_pass(cli, workload, root, calls))
        else:
            run_pass(cli, workload, root, calls)
        pass_cpu["traced" if traced else "untraced"].append(cpu_seconds() - c0)
        current = digests(workload, root)
        if reference is None:
            reference = current
        else:
            differed += [p for p in current if current[p] != reference.get(p)]
        # stop at the pass boundary nearest to `seconds`
        elapsed = time.perf_counter() - start
        mean_pass = elapsed / (len(pass_cpu["untraced"]) + len(pass_cpu["traced"]))
        if elapsed + mean_pass / 2 >= seconds and (not trace or pass_cpu["traced"]):
            break
    averaged = None
    if trace:
        # counts repeat exactly from pass to pass; times are averaged
        averaged = {k: statistics.mean(m[k] for m in layers) for k in layers[0]}
        for k in averaged:
            if PER_LAYER_UNITS[k] in ("count", "bytes") and len({m[k] for m in layers}) == 1:
                averaged[k] = layers[0][k]
        averaged["trace.overhead"] = (statistics.mean(pass_cpu["traced"])
                                      / statistics.mean(pass_cpu["untraced"]) - 1.0)
    return calls, pass_cpu, averaged, differed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "consensus_dyn" / "cli.py").is_file():
        return _fail(f"no program to benchmark: {SRC / 'consensus_dyn' / 'cli.py'} is missing;"
                     " run from the repository root")
    try:
        cli = import_program()
    except ImportError as e:
        return _fail(str(e))

    t_start = time.perf_counter()
    workload = workloads.make(args.workload, args.seed)
    root = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(root, ignore_errors=True)
    try:
        workload.write(root)
        config_paths = [workloads.config_path(root, c.name) for c in workload.configs]
        config_paths += [workloads.config_path(root, s.name) for s in workload.scenarios]
        setup_s = None if args.trace else measure_setup(config_paths)
        scipy_import = scipy_spatial_import_s() if args.trace else None

        t_measure = time.perf_counter()
        warm_up(cli, workload, root)
        calls, pass_cpu, layers, differed = measure(cli, workload, root, args.seconds,
                                                    args.trace)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        t_check = time.perf_counter()
        stats = checker.CheckStats()
        errors = [f"{p}: differs between passes" for p in sorted(set(differed))]
        errors += check_outputs(cli, workload, root, stats)
        t_done = time.perf_counter()
    finally:
        shutil.rmtree(root, ignore_errors=True)

    for message in calls.unexpected[:10] + errors[:20]:
        print(message, file=sys.stderr)
    passes = len(pass_cpu["untraced"]) + len(pass_cpu["traced"])
    print(f"workload {workload.name} seed {args.seed}: {len(workload.configs)} sweep configs,"
          f" {len(workload.scenarios)} scenarios, {passes} passes; seconds spent: setup"
          f" {t_measure - t_start:.1f}, passes {t_check - t_measure:.1f},"
          f" checks {t_done - t_check:.1f}")
    for c in COMMANDS:
        print(f"{c}: attempted {len(calls.times[c])} failed {calls.failed[c]}")
    print(f"checks: {json.dumps(stats.to_json())}, errors {len(errors)}")

    if args.trace:
        layers["setup.scipy_spatial_import_s"] = scipy_import
        metrics = {k: {"value": layers[k], "unit": u} for k, u in PER_LAYER_UNITS.items()}
    else:
        values = {
            "setup_s": setup_s,
            "run_ms_p50": 1000.0 * statistics.median(calls.times["run"]),
            "rounds_per_s": calls.rounds / sum(calls.times["run"]),
            "verify_ms_p50": 1000.0 * statistics.median(calls.times["verify"]),
            "sweep_scenarios_per_s": calls.sweep_scenarios / sum(calls.times["sweep"]),
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END_UNITS.items()}
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    attempted = sum(len(t) for t in calls.times.values())
    print(json.dumps({"correct": not errors,
                      "attempted": attempted,
                      "failed": sum(calls.failed.values()),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
