#!/usr/bin/env python3
"""graphbac scaling curves: one JSON line per point.

    python3 tools/curves.py

graphbac is imported from the `src/` of the checkout this script is in,
and the seeded system generator from its `tests/randgen.py`; nothing
outside the standard library is needed.  Each line names the
curve and its size parameter, and holds what the point counts and the
median, minimum and maximum wall time of REPEATS runs of the measured
call.  Every run gets fresh rules, so that no cache of an earlier run is
reused; single calls of a point spread by up to 40 % on a shared machine.

kstar: `dependency_reasons` from a source that creates a k-edge star (a
hub and k leaves) to a sink that reads the same star.  Only the whole
star is a realizable overlap, once per way of matching the leaves, so a
point reports k! reasons.  An output-sensitive overlap engine keeps the
wall time per reason flat as k grows.

oracle: `run_oracle` on the shipped running-example project at a growing
exploration depth.  A point reports the hosts explored, which grow about
2.3 times per level, and whether the oracle agreed with the analysis.

sweep: `run_oracle` at depth 3 on the slowest systems of the wide random
sweep (`randgen.wide_system`: up to 3 node and 3 edge types, 3 rules of at
most 3 nodes and 2 edges, 0-2 isolated initial nodes).  A point reports
the hosts explored, the ordered rule pairs checked and whether the oracle
agreed.  Seed 66 explores only 4 hosts, but checks some 48,000
independent step pairs on them, so its time is per-pair overhead.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests"))

from graphbac.cli import Project  # noqa: E402
from graphbac.core import EdgeType, TypeGraph  # noqa: E402
from graphbac.dependency import dependency_reasons  # noqa: E402
from graphbac.oracle import run_oracle  # noqa: E402
from graphbac.rules import CREATE, PRESERVE, Rule  # noqa: E402
from randgen import wide_system  # noqa: E402

KSTAR_POINTS = (3, 4, 5, 6)
ORACLE_POINTS = (3, 4, 5)
SWEEP_SEEDS = (255, 66)
REPEATS = 5


def star_rule(name: str, typegraph: TypeGraph, k: int, tag: str) -> Rule:
    """A hub with k leaves, one spoke edge to each, every element tagged `tag`."""
    nodes = {"hub": "Hub", **{f"leaf{i}": "Leaf" for i in range(k)}}
    edges = {f"spoke{i}": ("spoke", "hub", f"leaf{i}") for i in range(k)}
    tags = {x: tag for x in [*nodes, *edges]}
    return Rule(name=name, typegraph=typegraph, nodes=nodes, edges=edges, tags=tags)


def timed(inputs, call) -> tuple:
    """`call(*inputs())` run REPEATS times, each on fresh inputs: the last
    result and the median, minimum and maximum wall time of the calls."""
    walls = []
    for _ in range(REPEATS):
        args = inputs()
        start = time.perf_counter()
        result = call(*args)
        walls.append(time.perf_counter() - start)
    return result, {
        "wall_s": round(statistics.median(walls), 4),
        "min_s": round(min(walls), 4),
        "max_s": round(max(walls), 4),
    }


def star_pair(k: int) -> tuple[Rule, Rule]:
    """Fresh rules that create and that read a k-edge star."""
    typegraph = TypeGraph(("Hub", "Leaf"), (EdgeType("spoke", "Hub", "Leaf"),))
    return (
        star_rule("createStar", typegraph, k, CREATE),
        star_rule("readStar", typegraph, k, PRESERVE),
    )


def kstar(k: int) -> dict:
    reasons, walls = timed(lambda: star_pair(k), dependency_reasons)
    return {"curve": "kstar", "k": k, "reasons": len(reasons), **walls}


def oracle(depth: int) -> dict:
    def inputs():
        project = Project.load(ROOT / "projects" / "running-example")
        return project.analyzed_rules(), project.rules(), project.initial(), depth

    report, walls = timed(inputs, run_oracle)
    return {
        "curve": "oracle",
        "depth": depth,
        "hosts": report.hosts_explored,
        "agreed": report.agreed,
        **walls,
    }


def sweep(seed: int) -> dict:
    def inputs():
        rules, initial = wide_system(seed)
        return rules, rules, initial, 3

    report, walls = timed(inputs, run_oracle)
    return {
        "curve": "sweep",
        "seed": seed,
        "hosts": report.hosts_explored,
        "pairs": report.pairs_checked,
        "agreed": report.agreed,
        **walls,
    }


def main() -> int:
    for k in KSTAR_POINTS:
        print(json.dumps(kstar(k)), flush=True)
    for depth in ORACLE_POINTS:
        print(json.dumps(oracle(depth)), flush=True)
    for seed in SWEEP_SEEDS:
        print(json.dumps(sweep(seed)), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
