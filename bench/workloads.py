"""The benchmark's workloads: sweep configs generated from the workload seed.

A workload is a list of sweep configs. The seed picks pattern seeds,
bidirectional periods and scenario seeds. It never changes how many scenarios
a workload has, which rules they run, or which calls are expected to fail, so
every run attempts the same operations in the same proportions.
"""

import itertools
import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import List

# Above every round bound in these workloads (the largest is 2955, for
# extreme-point+amortized at n=16, d=5), so a bound can be checked, and low
# enough that a scenario which stops converging ends in seconds, not minutes.
MAX_ROUNDS = 5000

AUDITS_OFF = {"safeness": False, "matrices": False, "moreau": False}
AUDITS_ON = {"safeness": True, "matrices": True, "moreau": True}


@dataclass
class Scenario:
    """One element of a sweep product, run on its own by `run` and `verify`."""

    name: str
    config: dict


@dataclass
class SweepConfig:
    """One sweep config and the scenarios of its product, in `sweep` order.

    ``expect_fail``: every `run` and `verify` of these scenarios exits 3
    because of the audit-tolerance fault; their inputs do not depend on the
    workload seed. ``verify``: whether `verify` is called on the scenarios.
    """

    name: str
    config: dict
    expect_fail: bool = False
    verify: bool = True
    scenarios: List[Scenario] = field(default_factory=list)

    def __post_init__(self):
        axes = self.config["sweep"]
        base = {k: v for k, v in self.config.items() if k != "sweep"}
        product = itertools.product(axes["n"], axes["d"], axes["algorithm"], axes["seed"])
        for idx, (n, d, alg, seed) in enumerate(product):
            cfg = dict(base, n=n, d=d, algorithm=alg, seed=seed)
            self.scenarios.append(Scenario(f"{self.name}/s{idx:02d}", cfg))


@dataclass
class Workload:
    name: str
    seed: int
    configs: List[SweepConfig]

    @property
    def scenarios(self) -> List[Scenario]:
        return [s for c in self.configs for s in c.scenarios]

    def write(self, root: Path) -> None:
        """Write every sweep and scenario config as JSON under `root`."""
        for c in self.configs:
            config_path(root, c.name).parent.mkdir(parents=True, exist_ok=True)
            config_path(root, c.name).write_text(json.dumps(c.config, indent=1))
            for s in c.scenarios:
                config_path(root, s.name).parent.mkdir(parents=True, exist_ok=True)
                config_path(root, s.name).write_text(json.dumps(s.config, indent=1))


def config_path(root: Path, name: str) -> Path:
    return root / name / "config.json"


def artifact_dir(root: Path, name: str) -> Path:
    return root / name / "out"


def _sweep(name, *, pattern, epsilon, n, d, algorithm, seed, audits, **flags) -> SweepConfig:
    config = {
        "n": n[0], "d": d[0], "algorithm": algorithm[0], "pattern": pattern,
        "epsilon": epsilon, "seed": seed[0], "max_rounds": MAX_ROUNDS, "audits": audits,
        "sweep": {"n": n, "d": d, "algorithm": algorithm, "seed": seed},
    }
    return SweepConfig(name, config, **flags)


def _seeds(rng: random.Random, k: int) -> List[int]:
    return [rng.randrange(1_000_000) for _ in range(k)]


def rules_kernel(rng: random.Random) -> List[SweepConfig]:
    """The rules that need no geometry, audits off, on nonsplit and rooted patterns.

    Each group of rules runs on three patterns of its own, so that no single
    pattern seed sets how much work a run does.
    """

    def nonsplit():
        return {"family": "random-nonsplit", "seed": rng.randrange(1_000_000)}

    def rooted():
        return {"family": "random-rooted", "seed": rng.randrange(1_000_000)}

    common = dict(epsilon=1e-9, n=[8, 16], audits=AUDITS_OFF)
    configs = []
    for i in range(3):
        configs += [
            # verify is left out here: the audit-tolerance fault makes it exit 3
            # on a seed-dependent few of these scenarios (see CHANGES.md).
            _sweep(f"nonsplit-midpoint-d1-{i}", pattern=nonsplit(), d=[1],
                   algorithm=["midpoint", "component-midpoint", "extreme-point"],
                   seed=_seeds(rng, 1), verify=False, **common),
            _sweep(f"nonsplit-component-midpoint-d2-{i}", pattern=nonsplit(), d=[2],
                   algorithm=["component-midpoint"], seed=_seeds(rng, 1), verify=False,
                   **common),
            _sweep(f"nonsplit-extreme-point-{i}", pattern=nonsplit(), d=[2, 3, 4, 5],
                   algorithm=["extreme-point"], seed=_seeds(rng, 1), **common),
            _sweep(f"nonsplit-equal-neighbor-{i}", pattern=nonsplit(), d=[1, 2, 3, 4, 5],
                   algorithm=["equal-neighbor"], seed=_seeds(rng, 1), **common),
            _sweep(f"rooted-midpoint-amortized-{i}", pattern=rooted(), d=[1],
                   algorithm=["midpoint+amortized"], seed=_seeds(rng, 1), **common),
            _sweep(f"rooted-extreme-point-amortized-{i}", pattern=rooted(), d=[1, 2, 3, 4, 5],
                   algorithm=["extreme-point+amortized"], seed=_seeds(rng, 1), **common),
        ]
    star = {"family": "rotating-star"}
    configs += [
        _sweep("star-midpoint-amortized", pattern=star, d=[1],
               algorithm=["midpoint+amortized"], seed=_seeds(rng, 3), **common),
        _sweep("star-extreme-point-amortized", pattern=star, d=[1, 2, 3, 4, 5],
               algorithm=["extreme-point+amortized"], seed=_seeds(rng, 2), **common),
    ]
    return configs


def centroid_hull(rng: random.Random) -> List[SweepConfig]:
    """Centroid per round on nonsplit graphs and amortized on rooted ones.

    Two configs per pattern family and n, each with a pattern of its own, so
    that no single pattern seed sets how much work a run does.
    """
    common = dict(epsilon=1e-6, d=[2, 3, 4], audits=AUDITS_OFF)
    configs = []
    for n, i in itertools.product((8, 12, 16), range(2)):
        configs += [
            _sweep(f"nonsplit-centroid-n{n}-{i}",
                   pattern={"family": "random-nonsplit", "seed": rng.randrange(1_000_000)},
                   n=[n], algorithm=["centroid"], seed=_seeds(rng, 1), **common),
            _sweep(f"star-centroid-amortized-n{n}-{i}", pattern={"family": "rotating-star"},
                   n=[n], algorithm=["centroid+amortized"], seed=_seeds(rng, 1), **common),
            _sweep(f"rooted-centroid-amortized-n{n}-{i}",
                   pattern={"family": "random-rooted", "seed": rng.randrange(1_000_000)},
                   n=[n], algorithm=["centroid+amortized"], seed=_seeds(rng, 1), **common),
        ]
    return configs


# Inputs of the audit-tolerance fault (CHANGES.md). Midpoint-family rules on
# bidirectional-intermittent graphs, n=6, d=1, period 6, pattern seed 5 and
# scenario seed 1 is its first reproduction; centroid trips it too, on about
# 1 scenario in 300. These inputs are fixed, not drawn from the workload seed,
# so the same calls fail in every run.
_FAULT_PATTERNS = {6: {"period": 6, "seed": 5}, 8: {"period": 8, "seed": 5}}
_FAULT_CENTROID = {"n": 8, "period": 11, "pattern_seed": 835194, "seed": 721306}


def audit_bidirectional(rng: random.Random) -> List[SweepConfig]:
    """Per-round rules on bidirectional-intermittent graphs with every audit on."""
    common = dict(epsilon=1e-12, audits=AUDITS_ON)
    configs = []
    for n, i in itertools.product((6, 8), range(3)):
        pattern = {"family": "bidirectional-intermittent",
                   "period": rng.randint(n, 2 * n), "seed": rng.randrange(1_000_000)}
        configs.append(_sweep(f"bidirectional-n{n}-{i}", pattern=pattern, n=[n], d=[2],
                              algorithm=["extreme-point", "equal-neighbor"],
                              seed=_seeds(rng, 1), **common))
    for n, fault in _FAULT_PATTERNS.items():
        pattern = {"family": "bidirectional-intermittent", **fault}
        configs.append(_sweep(f"fault-n{n}-d1", pattern=pattern, n=[n], d=[1],
                              algorithm=["midpoint", "component-midpoint", "extreme-point"],
                              seed=[1], expect_fail=True, **common))
        configs.append(_sweep(f"fault-n{n}-d2", pattern=pattern, n=[n], d=[2],
                              algorithm=["component-midpoint"], seed=[1], expect_fail=True,
                              **common))
    f = _FAULT_CENTROID
    configs.append(_sweep("fault-centroid", n=[f["n"]], d=[2], algorithm=["centroid"],
                          pattern={"family": "bidirectional-intermittent",
                                   "period": f["period"], "seed": f["pattern_seed"]},
                          seed=[f["seed"]], expect_fail=True, **common))
    return configs


WORKLOADS = {
    "rules-kernel": rules_kernel,
    "centroid-hull": centroid_hull,
    "audit-bidirectional": audit_bidirectional,
}


def make(name: str, seed: int) -> Workload:
    """The workload `name` for `seed`; the same pair always gives the same configs."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; expected one of {sorted(WORKLOADS)}")
    rng = random.Random(f"{name}/{seed}")
    return Workload(name, seed, WORKLOADS[name](rng))
