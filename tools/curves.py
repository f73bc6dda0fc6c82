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
2.3 times per level, whether the oracle agreed with the analysis, and the
peak memory the call allocates (`peak_mb`, the `tracemalloc` peak of one
more, untimed run).  The oracle holds one host's steps at a time, so the
peak grows with the hosts it keeps, not with every host's steps.

sweep: `run_oracle` at depth 3 on the slowest systems of the wide random
sweep (`randgen.wide_system`: up to 3 node and 3 edge types, 3 rules of at
most 3 nodes and 2 edges, 0-2 isolated initial nodes).  A point reports
the hosts explored, the ordered rule pairs checked and whether the oracle
agreed.  Seed 66 explores only 4 hosts, but checks some 48,000
independent step pairs on them, so its time is per-pair overhead.

mockstate: the running-example plan replayed in process, through
`MockTarget.transport()`, for a growing number of rounds on a mock that is
not reset, as the replay benchmark serves it (`drop_check:updateIssue`).
Each round adds 45 nodes to the mock's state.  A point reports the
state's nodes after the last round, and the last round's requests, its
wall time and its time per request (median, minimum and maximum of
REPEATS replays, each on a fresh mock).  If a new state's cost follows
the change, not the state, the last round costs about what the first does.

http: the same replay as mockstate, its last round timed once through
`MockTarget.transport()` and once over HTTP, through the runner's
kept-alive connection to the mock served on a local port.  A point reports
the last round's requests and its time per request each way (medians of
REPEATS replays, each on a fresh mock), and their difference, which is
what HTTP adds per request: the runner's `http.client` and the mock's
request handling.

forest: `explore` to a growing depth on a system of one node type and one
edge type, with a rule that creates a root and one that adds a child under
any node, from the empty host.  Each host is a rooted forest, so a point
reports as many hosts as there are forests of at most `depth` nodes.  It
also reports the `isomorphic` checks that `explore` made (counted in one
more run, by re-binding `graphbac.rules.isomorphic`), how many of them
compared graphs with identical nodes and edges, and how many answered no.
`canonical_form` cannot tell most forests of a size apart, so the
negatives grow fast with the depth.

verdicts: the analysis sidecar's verdict table for n rules, seeded with
n: nine pairs in ten independent, the rest with 0-2 reasons.  A point
reports the bytes of the table as `analyze` writes it (`to_doc`, then
`json.dumps` with `indent=2, sort_keys=True`), the median write time
(the same two calls) and load time (`json.loads`, then
`PairVerdicts.from_doc`), and whether the loaded verdicts equal the
written ones.  The table has n * n cells, so both times grow with n
squared; what a cell costs is the format's.
"""

from __future__ import annotations

import json
import random
import statistics
import sys
import threading
import time
import tracemalloc
from contextlib import ExitStack
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests"))

import graphbac.rules  # noqa: E402
from graphbac.cli import Project  # noqa: E402
from graphbac.core import EdgeType, InstanceGraph, TypeGraph  # noqa: E402
from graphbac.dependency import dependency_reasons  # noqa: E402
from graphbac.mockserver import serve, target_from_doc  # noqa: E402
from graphbac.oracle import run_oracle  # noqa: E402
from graphbac.rules import CREATE, PRESERVE, Rule, explore  # noqa: E402
from graphbac.runner import RunnerConfig, http_transport, run_plan  # noqa: E402
from graphbac.taint import PairVerdicts  # noqa: E402
from randgen import wide_system  # noqa: E402

KSTAR_POINTS = (3, 4, 5, 6)
ORACLE_POINTS = (3, 4, 5, 6)
SWEEP_SEEDS = (255, 66)
MOCKSTATE_POINTS = (1, 6, 12, 20, 60, 120)
HTTP_POINTS = (1, 6)
FOREST_POINTS = (6, 7, 8)
VERDICTS_POINTS = (17, 34, 68, 136)
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
    args = inputs()
    tracemalloc.start()
    try:
        run_oracle(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return {
        "curve": "oracle",
        "depth": depth,
        "hosts": report.hosts_explored,
        "agreed": report.agreed,
        "peak_mb": round(peak / 2**20, 2),
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


def replay_last_round(rounds: int, over_http: bool = False) -> tuple:
    """Replay the running-example plan `rounds` times on a fresh mock, in
    process or over HTTP: the last round's report, the mock's nodes after
    it, and the round's requests and wall time."""
    project = Project.load(ROOT / "projects" / "running-example")
    doc = json.loads(project.path("mock").read_text())
    doc["faults"] = [*doc.get("faults", []), {"kind": "drop_check", "rule": "updateIssue"}]
    target = target_from_doc(doc, project.rules(), project.roles(), project.initial())
    tokens = {entry["role"]: token for token, entry in doc["tokens"].items()}
    config = RunnerConfig(endpoint="in-process", tokens=tokens)
    plan, rules = project.plan(), project.rules_by_name()
    with ExitStack() as stack:
        if over_http:
            server = serve(target)
            # polled often, so that shutting it down does not wait 0.5 s
            thread = threading.Thread(target=server.serve_forever, args=(0.01,))
            thread.start()
            stack.callback(thread.join)
            stack.callback(server.server_close)
            stack.callback(server.shutdown)
            send = http_transport(f"http://127.0.0.1:{server.server_address[1]}/graphql")
            stack.callback(send.close)
        else:
            send = target.transport()
        for _ in range(rounds - 1):
            run_plan(plan, config, send, rules=rules)
        requests = 0

        def counted(request, headers, timeout):
            nonlocal requests
            requests += 1
            return send(request, headers, timeout)

        start = time.perf_counter()
        report = run_plan(plan, config, counted, rules=rules)
        wall = time.perf_counter() - start
    return report, len(target.graph.nodes), requests, wall


def mockstate(rounds: int) -> dict:
    walls = []
    for _ in range(REPEATS):
        report, nodes, requests, wall = replay_last_round(rounds)
        walls.append(wall)
    per_request = [1000 * wall / requests for wall in walls]
    return {
        "curve": "mockstate",
        "rounds": rounds,
        "nodes": nodes,
        "requests": requests,
        "detected": list(report.detected_vulnerabilities),
        "round_ms": round(1000 * statistics.median(walls), 2),
        "ms_per_request": round(statistics.median(per_request), 4),
        "min_ms_per_request": round(min(per_request), 4),
        "max_ms_per_request": round(max(per_request), 4),
    }


def http(rounds: int) -> dict:
    per_request: dict[bool, list[float]] = {False: [], True: []}
    for _ in range(REPEATS):
        for over_http in (False, True):
            report, nodes, requests, wall = replay_last_round(rounds, over_http)
            per_request[over_http].append(1000 * wall / requests)
    in_process_ms, http_ms = (statistics.median(per_request[x]) for x in (False, True))
    return {
        "curve": "http",
        "rounds": rounds,
        "nodes": nodes,
        "requests": requests,
        "detected": list(report.detected_vulnerabilities),
        "in_process_ms_per_request": round(in_process_ms, 4),
        "http_ms_per_request": round(http_ms, 4),
        "http_cost_ms_per_request": round(http_ms - in_process_ms, 4),
    }


def forest_rules() -> list[Rule]:
    """Fresh rules that create a root and that add a child under any node."""
    typegraph = TypeGraph(("Node",), (EdgeType("child", "Node", "Node"),))
    return [
        Rule(name="addRoot", typegraph=typegraph, nodes={"root": "Node"}, tags={"root": CREATE}),
        Rule(
            name="addChild",
            typegraph=typegraph,
            nodes={"parent": "Node", "kid": "Node"},
            edges={"edge": ("child", "parent", "kid")},
            tags={"parent": PRESERVE, "kid": CREATE, "edge": CREATE},
        ),
    ]


def forest(depth: int) -> dict:
    def inputs():
        rules = forest_rules()
        return rules, InstanceGraph.empty(rules[0].typegraph), depth

    def explore_all(rules, initial, depth):
        return list(explore(rules, initial, depth))

    checks = {"isomorphic_calls": 0, "identical": 0, "negative": 0}
    isomorphic = graphbac.rules.isomorphic

    def counted(a, b):
        checks["isomorphic_calls"] += 1
        checks["identical"] += a.nodes == b.nodes and a.edges == b.edges
        answer = isomorphic(a, b)
        checks["negative"] += not answer
        return answer

    graphbac.rules.isomorphic = counted
    try:
        hosts = explore_all(*inputs())
    finally:
        graphbac.rules.isomorphic = isomorphic
    _, walls = timed(inputs, explore_all)
    return {"curve": "forest", "depth": depth, "hosts": len(hosts), **checks, **walls}


def verdicts(n: int) -> dict:
    rng = random.Random(n)
    names = [f"rule{i:03d}" for i in range(n)]
    entries = {}
    for first in names:
        for second in names:
            independent = rng.random() < 0.9  # an independent pair has no reasons
            entries[first, second] = (independent, 0 if independent else rng.randint(0, 2))
    table = PairVerdicts(entries)
    write_ms, load_ms = [], []
    for _ in range(REPEATS):
        fresh = PairVerdicts(dict(table.entries))  # no names cached
        start = time.perf_counter()
        text = json.dumps(fresh.to_doc(), indent=2, sort_keys=True)
        middle = time.perf_counter()
        loaded = PairVerdicts.from_doc(json.loads(text))
        end = time.perf_counter()
        write_ms.append(1000 * (middle - start))
        load_ms.append(1000 * (end - middle))
    return {
        "curve": "verdicts",
        "rules": n,
        "bytes": len(text.encode()),
        "round_trip": loaded == table,
        "write_ms": round(statistics.median(write_ms), 3),
        "load_ms": round(statistics.median(load_ms), 3),
    }


def main() -> int:
    for k in KSTAR_POINTS:
        print(json.dumps(kstar(k)), flush=True)
    for depth in ORACLE_POINTS:
        print(json.dumps(oracle(depth)), flush=True)
    for seed in SWEEP_SEEDS:
        print(json.dumps(sweep(seed)), flush=True)
    for rounds in MOCKSTATE_POINTS:
        print(json.dumps(mockstate(rounds)), flush=True)
    for rounds in HTTP_POINTS:
        print(json.dumps(http(rounds)), flush=True)
    for depth in FOREST_POINTS:
        print(json.dumps(forest(depth)), flush=True)
    for n in VERDICTS_POINTS:
        print(json.dumps(verdicts(n)), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
