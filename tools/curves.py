#!/usr/bin/env python3
"""graphbac scaling curves: one JSON line per point.

    python3 tools/curves.py

graphbac is imported from the `src/` of the checkout this script is in,
and the seeded system generator from its `tests/randgen.py`; nothing
outside the standard library is needed.  Each line names the
curve and its size parameter, and holds what the point counts and the
wall time of the measured call, on fresh rules, so that no cache of an
earlier point is reused.

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

KSTAR_POINTS = (3, 4, 5)
ORACLE_POINTS = (3, 4, 5)
SWEEP_SEEDS = (255, 66)


def star_rule(name: str, typegraph: TypeGraph, k: int, tag: str) -> Rule:
    """A hub with k leaves, one spoke edge to each, every element tagged `tag`."""
    nodes = {"hub": "Hub", **{f"leaf{i}": "Leaf" for i in range(k)}}
    edges = {f"spoke{i}": ("spoke", "hub", f"leaf{i}") for i in range(k)}
    tags = {x: tag for x in [*nodes, *edges]}
    return Rule(name=name, typegraph=typegraph, nodes=nodes, edges=edges, tags=tags)


def kstar(k: int) -> dict:
    typegraph = TypeGraph(("Hub", "Leaf"), (EdgeType("spoke", "Hub", "Leaf"),))
    source = star_rule("createStar", typegraph, k, CREATE)
    sink = star_rule("readStar", typegraph, k, PRESERVE)
    start = time.perf_counter()
    reasons = dependency_reasons(source, sink)
    wall = time.perf_counter() - start
    return {"curve": "kstar", "k": k, "reasons": len(reasons), "wall_s": round(wall, 4)}


def oracle(depth: int) -> dict:
    project = Project.load(ROOT / "projects" / "running-example")
    analyzed, rules, initial = project.analyzed_rules(), project.rules(), project.initial()
    start = time.perf_counter()
    report = run_oracle(analyzed, rules, initial, depth)
    wall = time.perf_counter() - start
    return {
        "curve": "oracle",
        "depth": depth,
        "hosts": report.hosts_explored,
        "agreed": report.agreed,
        "wall_s": round(wall, 4),
    }


def sweep(seed: int) -> dict:
    rules, initial = wide_system(seed)
    start = time.perf_counter()
    report = run_oracle(rules, rules, initial, 3)
    wall = time.perf_counter() - start
    return {
        "curve": "sweep",
        "seed": seed,
        "hosts": report.hosts_explored,
        "pairs": report.pairs_checked,
        "agreed": report.agreed,
        "wall_s": round(wall, 4),
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
