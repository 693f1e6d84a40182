"""SHA-256 digests of the engine's artifacts over a fixed scenario matrix.

The matrix covers every rule, per round and amortized where the rule allows
it, on the random-nonsplit, random-rooted, rotating-star and
bidirectional-intermittent patterns; both extreme-point tie-break modes;
centroid per round at d = 2 to 4 and amortized at d = 2 and 3, at n = 12 on
the rotating star too, per round at n = 16 and d = 1 and 5, and per round
from grid inputs at d = 2 and 3 (duplicate and coplanar stacks);
equal-neighbor at d = 1 with in-degrees of 8 and more (where numpy's mean
switches to pairwise summation); and seeded draws next to integer-grid
inputs. Seeded draws never tie across senders, so only the
grid inputs exercise the sender tie key.

Each scenario goes through `consensus-dyn run`. The digests cover trace.csv,
deltas.csv and margins.csv of every scenario (for amortized rules the
block-end margins, NaN inside a block).
Audited scenarios (every per-round rule on bidirectional-intermittent graphs
with all three audits, and an amortized rule with the safeness audit) are
digested by the `audits` block of their summary.json alone, so that new
top-level summary keys need no regeneration.

A change that must keep every byte is checked against the committed digests
by tests/test_engine_golden.py, which lists every key that differs. For a
change that alters some artifacts on purpose:

1. generate the digests from the change into a scratch file:

       python3 tests/golden/make_digests.py --out NEW_DIGESTS.json

2. compare it with the committed file, which holds the parent's digests: every
   key that differs must be one that CHANGES.md lists, with its reason, and
   every other key must match the parent;
3. commit only the listed keys' new digests.

`--src PARENT_CHECKOUT/src` regenerates the parent's digests from a checkout
of the parent, to confirm that the committed file is still the parent's.
"""

import argparse
import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
DIGESTS = HERE / "digests.json"

N = 6
PATTERNS = {
    "nonsplit": {"family": "random-nonsplit", "seed": 3},
    "rooted": {"family": "random-rooted", "seed": 5},
    "star": {"family": "rotating-star"},
    "bidir": {"family": "bidirectional-intermittent", "period": 4, "seed": 2},
}
PER_ROUND = [("midpoint", 1), ("component-midpoint", 2), ("extreme-point", 1),
             ("extreme-point", 3), ("equal-neighbor", 2), ("centroid", 2)]
AMORTIZED = [("midpoint+amortized", 1), ("component-midpoint+amortized", 2),
             ("extreme-point+amortized", 3), ("centroid+amortized", 2),
             ("extreme-point+amortized:2", 2)]
ALL_AUDITS = {"safeness": True, "matrices": True, "moreau": True}
# every agent hears itself and its 8 predecessors: in-degree 9
DENSE = {"family": "fixed", "graph": {"n": 12, "edges": [
    [p, (p + k) % 12] for p in range(12) for k in range(9)]}}


def _grid(n, d):
    """Integer-grid positions: many exact ties across senders and components."""
    return [[float((3 * p + 2 * k + p * k) % 4) for k in range(d)] for p in range(n)]


def _config(algorithm, d, pattern, n=N, **extra):
    cfg = {"n": n, "d": d, "algorithm": algorithm, "pattern": pattern,
           "epsilon": 1e-6, "seed": 11, "max_rounds": 60}
    cfg.update(extra)
    return cfg


def scenarios():
    """(name, config) pairs of the matrix, in a fixed order."""
    out = []
    for pname, pattern in PATTERNS.items():
        for alg, d in PER_ROUND + AMORTIZED:
            out.append((f"{pname}/{alg}/d{d}", _config(alg, d, pattern)))
    for pname in ("nonsplit", "star"):
        pattern = PATTERNS[pname]
        for alg, d in (("extreme-point", 2), ("extreme-point", 3),
                       ("extreme-point+amortized", 2), ("extreme-point+amortized", 3)):
            grid = {"kind": "explicit", "positions": _grid(N, d)}
            for tie in ("index", "random"):
                out.append((f"{pname}/{alg}/d{d}/grid/{tie}",
                            _config(alg, d, pattern, initial=grid, tie_break=tie)))
            out.append((f"{pname}/{alg}/d{d}/seeded/random",
                        _config(alg, d, pattern, tie_break="random")))
        for alg, d in (("midpoint", 1), ("component-midpoint+amortized", 2), ("centroid", 2)):
            grid = {"kind": "explicit", "positions": _grid(N, d)}
            out.append((f"{pname}/{alg}/d{d}/grid", _config(alg, d, pattern, initial=grid)))
    out.append(("rooted/centroid+amortized/d3",
                _config("centroid+amortized", 3, PATTERNS["rooted"])))
    for pname in ("nonsplit", "rooted"):
        for d in (3, 4):
            out.append((f"{pname}/centroid/d{d}", _config("centroid", d, PATTERNS[pname])))
    out.append(("star-n12/centroid+amortized/d3",
                _config("centroid+amortized", 3, PATTERNS["star"], n=12)))
    for d in (1, 5):
        out.append((f"nonsplit-n16/centroid/d{d}",
                    _config("centroid", d, PATTERNS["nonsplit"], n=16)))
    out.append(("nonsplit/centroid/d3/grid",
                _config("centroid", 3, PATTERNS["nonsplit"],
                        initial={"kind": "explicit", "positions": _grid(N, 3)})))
    for d in (1, 2):
        out.append((f"dense/equal-neighbor/d{d}", _config("equal-neighbor", d, DENSE, n=12)))
        out.append((f"nonsplit-n14/equal-neighbor/d{d}",
                    _config("equal-neighbor", d, {"family": "random-nonsplit", "seed": 8}, n=14)))
    for alg, d in PER_ROUND:
        out.append((f"bidir/{alg}/d{d}/audits",
                    _config(alg, d, PATTERNS["bidir"], audits=ALL_AUDITS)))
    out.append(("bidir/component-midpoint+amortized/d2/audits",
                _config("component-midpoint+amortized", 2, PATTERNS["bidir"],
                        audits={"safeness": True})))
    return out


def digests(workdir: Path) -> dict:
    """Run every scenario under `workdir` and return {name/file: sha256}."""
    from consensus_dyn import cli

    out = {}
    for name, cfg in scenarios():
        d = workdir / name.replace("/", "_").replace(":", "-")
        d.mkdir(parents=True)
        (d / "config.json").write_text(json.dumps(cfg))
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["run", "--config", str(d / "config.json"), "--out", str(d)])
        if code != 0:
            raise RuntimeError(f"{name}: run exited {code}")
        if "audits" in cfg:
            audits = json.loads((d / "summary.json").read_text())["audits"]
            blob = json.dumps(audits, indent=2, sort_keys=True).encode()
            out[f"{name}/summary.json#audits"] = hashlib.sha256(blob).hexdigest()
            continue
        for f in ("trace.csv", "deltas.csv", "margins.csv"):
            out[f"{name}/{f}"] = hashlib.sha256((d / f).read_bytes()).hexdigest()
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=str(HERE.parents[1] / "src"),
                        help="source tree whose consensus_dyn produces the digests")
    parser.add_argument("--out", default=str(DIGESTS))
    args = parser.parse_args(argv)
    sys.path.insert(0, args.src)
    with tempfile.TemporaryDirectory() as tmp:
        result = digests(Path(tmp))
    Path(args.out).write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    print(f"{len(result)} digests -> {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
