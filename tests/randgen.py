"""Seeded random generators for type graphs and instance graphs.

Shared by the unit suites and the randomized invariant suite; everything is
driven by an explicit random.Random so failures reproduce from the seed.
"""

from __future__ import annotations

import random

from graphbac.core import Edge, EdgeType, InstanceGraph, TypeGraph
from graphbac.rules import CREATE, DELETE, PRESERVE, Rule


def random_typegraph(rng: random.Random, max_node_types: int = 4, max_edge_types: int = 4) -> TypeGraph:
    node_types = tuple(f"T{i}" for i in range(rng.randint(1, max_node_types)))
    edge_types = []
    for j in range(rng.randint(0, max_edge_types)):
        edge_types.append(
            EdgeType(f"E{j}", rng.choice(node_types), rng.choice(node_types))
        )
    return TypeGraph(node_types, tuple(edge_types))


def random_graph(
    rng: random.Random,
    tg: TypeGraph,
    max_nodes: int = 6,
    max_edges: int = 8,
    prefix: str = "n",
) -> InstanceGraph:
    nodes = {
        f"{prefix}{i}": rng.choice(tg.node_types)
        for i in range(rng.randint(0, max_nodes))
    }
    edges: dict[str, Edge] = {}
    if tg.edge_types and nodes:
        for j in range(rng.randint(0, max_edges)):
            et = rng.choice(tg.edge_types)
            srcs = [n for n, t in nodes.items() if t == et.src]
            tgts = [n for n, t in nodes.items() if t == et.tgt]
            if srcs and tgts:
                edges[f"{prefix}_e{j}"] = Edge(et.name, rng.choice(srcs), rng.choice(tgts))
    return InstanceGraph(tg, nodes, edges)


def random_rule(
    rng: random.Random,
    tg: TypeGraph,
    name: str = "r",
    max_nodes: int = 4,
    max_edges: int = 4,
) -> Rule:
    """A random valid rule; edge tags respect the endpoint-tag constraints."""
    nodes: dict[str, str] = {}
    tags: dict[str, str] = {}
    for i in range(rng.randint(1, max_nodes)):
        nid = f"{name}_n{i}"
        nodes[nid] = rng.choice(tg.node_types)
        tags[nid] = rng.choice((PRESERVE, PRESERVE, DELETE, CREATE))
    edges: dict[str, Edge] = {}
    if tg.edge_types:
        for j in range(rng.randint(0, max_edges)):
            et = rng.choice(tg.edge_types)
            srcs = [n for n, t in nodes.items() if t == et.src]
            tgts = [n for n, t in nodes.items() if t == et.tgt]
            if not srcs or not tgts:
                continue
            src, tgt = rng.choice(srcs), rng.choice(tgts)
            endpoint_tags = {tags[src], tags[tgt]}
            if endpoint_tags == {CREATE, DELETE}:
                continue
            if CREATE in endpoint_tags:
                tag = CREATE
            elif DELETE in endpoint_tags:
                tag = DELETE
            else:
                tag = rng.choice((PRESERVE, DELETE, CREATE))
            eid = f"{name}_e{j}"
            edges[eid] = Edge(et.name, src, tgt)
            tags[eid] = tag
    return Rule(name=name, typegraph=tg, nodes=nodes, edges=edges, tags=tags)


def host_with_embedded_lhs(
    rng: random.Random, rule: Rule, extra_nodes: int = 3, extra_edges: int = 3
) -> InstanceGraph:
    """A random host guaranteed to contain an image of the rule's pattern."""
    tg = rule.typegraph
    graph = random_graph(rng, tg, max_nodes=extra_nodes, max_edges=extra_edges, prefix="x")
    lhs = rule.lhs
    nodes = {f"h_{n}": lhs.nodes[n] for n in lhs.nodes}
    edges = {
        f"h_{e}": Edge(d.type, f"h_{d.src}", f"h_{d.tgt}") for e, d in lhs.edges.items()
    }
    return graph._derive((), (), nodes, edges)


def wide_system(seed: int) -> tuple[list[Rule], InstanceGraph]:
    """The wide random system of a seed: a type graph of up to 3 node and 3
    edge types, 3 rules of at most 3 nodes and 2 edges, and an initial host
    of 0-2 isolated nodes."""
    rng = random.Random(seed)
    tg = random_typegraph(rng, max_node_types=3, max_edge_types=3)
    rules = [
        random_rule(rng, tg, name=f"r{i}", max_nodes=3, max_edges=2) for i in range(3)
    ]
    nodes = {f"s{i}": rng.choice(tg.node_types) for i in range(rng.randint(0, 2))}
    return rules, InstanceGraph(tg, nodes, {})
