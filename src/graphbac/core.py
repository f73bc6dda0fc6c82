"""Typed multigraphs, typed morphisms, match enumeration and the dangling check.

Graphs are typed over a fixed type graph.  Nodes and edges carry opaque string
ids and parallel edges are allowed because every edge has its own identity.
Node attributes are reporting metadata and never take part in matching.  All
values are immutable after construction, so they can be shared freely.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, NamedTuple


class GraphError(ValueError):
    """A graph, morphism or exchange document violates a structural invariant."""


class EdgeType(NamedTuple):
    name: str
    src: str
    tgt: str


class Edge(NamedTuple):
    type: str
    src: str
    tgt: str


@dataclass(frozen=True)
class TypeGraph:
    """Schema graph: named node types and directed edge types between them."""

    node_types: tuple[str, ...] = ()
    edge_types: tuple[EdgeType, ...] = ()
    # node type -> {attribute name: scalar kind}; informational only
    attributes: dict[str, dict[str, str]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "node_types", tuple(sorted(self.node_types)))
        object.__setattr__(
            self, "edge_types", tuple(sorted(EdgeType(*e) for e in self.edge_types))
        )
        object.__setattr__(
            self, "attributes", {t: dict(a) for t, a in self.attributes.items() if a}
        )
        if len(set(self.node_types)) != len(self.node_types):
            raise GraphError("duplicate node type name")
        names = [e.name for e in self.edge_types]
        if len(set(names)) != len(names):
            raise GraphError("duplicate edge type name")
        known = set(self.node_types)
        for e in self.edge_types:
            if e.src not in known or e.tgt not in known:
                raise GraphError(f"edge type {e.name} references unknown node type")
        for t in self.attributes:
            if t not in known:
                raise GraphError(f"attributes given for unknown node type {t}")

    def edge_type(self, name: str) -> EdgeType:
        """Look up an edge type by name."""
        for e in self.edge_types:
            if e.name == name:
                return e
        raise GraphError(f"unknown edge type {name}")

    def has_node_type(self, name: str) -> bool:
        return name in self.node_types

    def to_doc(self) -> dict:
        """Serializable form with node_types and edge_types arrays."""
        return {
            "node_types": [
                {"name": t, "attributes": dict(self.attributes.get(t, {}))}
                for t in self.node_types
            ],
            "edge_types": [
                {"name": e.name, "src": e.src, "tgt": e.tgt} for e in self.edge_types
            ],
        }

    @classmethod
    def from_doc(cls, doc: dict) -> "TypeGraph":
        try:
            node_types = tuple(t["name"] for t in doc["node_types"])
            attributes = {
                t["name"]: dict(t.get("attributes", {})) for t in doc["node_types"]
            }
            edge_types = tuple(
                EdgeType(e["name"], e["src"], e["tgt"]) for e in doc["edge_types"]
            )
        except (KeyError, TypeError) as exc:
            raise GraphError(f"malformed type graph document: {exc}") from exc
        return cls(node_types, edge_types, attributes)


@dataclass(frozen=True)
class InstanceGraph:
    """A host graph typed over a TypeGraph.

    nodes maps node id -> node type name; edges maps edge id -> Edge.  Node and
    edge ids live in one namespace so rule element sets are unambiguous.
    """

    typegraph: TypeGraph
    nodes: dict[str, str] = field(default_factory=dict)
    edges: dict[str, Edge] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "nodes", dict(self.nodes))
        object.__setattr__(self, "edges", {i: Edge(*e) for i, e in self.edges.items()})
        overlap = set(self.nodes) & set(self.edges)
        if overlap:
            raise GraphError(f"ids used for both a node and an edge: {sorted(overlap)}")
        for nid, ntype in self.nodes.items():
            if not self.typegraph.has_node_type(ntype):
                raise GraphError(f"node {nid} has unknown type {ntype}")
        for eid, edge in self.edges.items():
            et = self.typegraph.edge_type(edge.type)
            if edge.src not in self.nodes or edge.tgt not in self.nodes:
                raise GraphError(f"edge {eid} has a missing endpoint")
            if self.nodes[edge.src] != et.src or self.nodes[edge.tgt] != et.tgt:
                raise GraphError(f"edge {eid} endpoint types do not match {edge.type}")

    @classmethod
    def empty(cls, typegraph: TypeGraph) -> "InstanceGraph":
        return cls(typegraph, {}, {})

    def node_ids(self) -> list[str]:
        return sorted(self.nodes)

    def edge_ids(self) -> list[str]:
        return sorted(self.edges)

    def incident(self, nid: str) -> list[str]:
        """Edge ids touching the given node, sorted."""
        return sorted(
            eid for eid, e in self.edges.items() if e.src == nid or e.tgt == nid
        )

    def degree_signatures(self) -> dict[str, dict[tuple[str, str], int]]:
        """Each node's multiset of (edge type, direction) pairs, in one pass."""
        sigs: dict[str, dict[tuple[str, str], int]] = {n: {} for n in self.nodes}
        for e in self.edges.values():
            out, into = sigs[e.src], sigs[e.tgt]
            out[(e.type, "out")] = out.get((e.type, "out"), 0) + 1
            into[(e.type, "in")] = into.get((e.type, "in"), 0) + 1
        return sigs

    def subgraph(self, node_ids: Iterable[str], edge_ids: Iterable[str]) -> "InstanceGraph":
        """The induced subgraph on the given ids; endpoints must be included."""
        node_ids = set(node_ids)
        edge_ids = set(edge_ids)
        missing = node_ids - set(self.nodes)
        missing |= edge_ids - set(self.edges)
        if missing:
            raise GraphError(f"subgraph references unknown ids: {sorted(missing)}")
        return InstanceGraph(
            self.typegraph,
            {n: self.nodes[n] for n in node_ids},
            {e: self.edges[e] for e in edge_ids},
        )

    def add(self, nodes: dict[str, str], edges: dict[str, Edge]) -> "InstanceGraph":
        """A new graph with the given elements added; ids must be fresh."""
        clash = (set(nodes) | set(edges)) & (set(self.nodes) | set(self.edges))
        if clash:
            raise GraphError(f"ids already present: {sorted(clash)}")
        return InstanceGraph(
            self.typegraph, {**self.nodes, **nodes}, {**self.edges, **edges}
        )

    def remove(self, node_ids: Iterable[str], edge_ids: Iterable[str]) -> "InstanceGraph":
        """A new graph with the given elements removed."""
        node_ids = set(node_ids)
        edge_ids = set(edge_ids)
        return InstanceGraph(
            self.typegraph,
            {n: t for n, t in self.nodes.items() if n not in node_ids},
            {e: d for e, d in self.edges.items() if e not in edge_ids},
        )

    def is_subgraph_of(self, other: "InstanceGraph") -> bool:
        """True iff every element exists in other with the same type and endpoints."""
        return all(
            n in other.nodes and other.nodes[n] == t for n, t in self.nodes.items()
        ) and all(e in other.edges and other.edges[e] == d for e, d in self.edges.items())

    def to_doc(self) -> dict:
        """Serializable form with nodes and edges arrays (type graph not included)."""
        return {
            "nodes": [{"id": n, "type": self.nodes[n]} for n in self.node_ids()],
            "edges": [
                {
                    "id": e,
                    "type": self.edges[e].type,
                    "src": self.edges[e].src,
                    "tgt": self.edges[e].tgt,
                }
                for e in self.edge_ids()
            ],
        }

    @classmethod
    def from_doc(cls, doc: dict, typegraph: TypeGraph) -> "InstanceGraph":
        if not isinstance(doc, dict):
            raise GraphError("malformed graph document: expected an object")
        try:
            nodes = {n["id"]: n["type"] for n in doc.get("nodes", [])}
            edges = {
                e["id"]: Edge(e["type"], e["src"], e["tgt"])
                for e in doc.get("edges", [])
            }
        except (KeyError, TypeError) as exc:
            raise GraphError(f"malformed graph document: {exc}") from exc
        if len(nodes) != len(doc.get("nodes", [])) or len(edges) != len(doc.get("edges", [])):
            raise GraphError("duplicate element id in graph document")
        return cls(typegraph, nodes, edges)


def graph_to_doc(graph: InstanceGraph) -> dict:
    """Full exchange document: type graph arrays plus instance arrays."""
    doc = graph.typegraph.to_doc()
    doc.update(graph.to_doc())
    return doc


@dataclass(frozen=True)
class Morphism:
    """An injective typed graph morphism given by explicit node and edge maps."""

    source: InstanceGraph
    target: InstanceGraph
    node_map: dict[str, str]
    edge_map: dict[str, str]

    def __post_init__(self) -> None:
        object.__setattr__(self, "node_map", dict(self.node_map))
        object.__setattr__(self, "edge_map", dict(self.edge_map))
        src, tgt = self.source, self.target
        if set(self.node_map) != set(src.nodes) or set(self.edge_map) != set(src.edges):
            raise GraphError("morphism maps must cover exactly the source elements")
        for n, image in self.node_map.items():
            if image not in tgt.nodes:
                raise GraphError(f"node {n} maps to unknown node {image}")
            if src.nodes[n] != tgt.nodes[image]:
                raise GraphError(f"node {n} maps across types")
        for e, image in self.edge_map.items():
            if image not in tgt.edges:
                raise GraphError(f"edge {e} maps to unknown edge {image}")
            se, te = src.edges[e], tgt.edges[image]
            if se.type != te.type:
                raise GraphError(f"edge {e} maps across types")
            # structure preservation: mapping must commute with endpoints
            if te.src != self.node_map[se.src] or te.tgt != self.node_map[se.tgt]:
                raise GraphError(f"edge {e} does not commute with its endpoints")
        if len(set(self.node_map.values())) != len(self.node_map) or len(
            set(self.edge_map.values())
        ) != len(self.edge_map):
            raise GraphError("morphism has colliding images")

    @classmethod
    def inclusion(cls, sub: InstanceGraph, sup: InstanceGraph) -> "Morphism":
        """The identity-on-ids embedding of a subgraph into a supergraph."""
        if not sub.is_subgraph_of(sup):
            raise GraphError("inclusion source is not a subgraph of the target")
        return cls(sub, sup, {n: n for n in sub.nodes}, {e: e for e in sub.edges})

    def node_image(self) -> frozenset[str]:
        return frozenset(self.node_map.values())

    def edge_image(self) -> frozenset[str]:
        return frozenset(self.edge_map.values())

    def mapped_tuple(self) -> tuple:
        """Deterministic sort key: images in source id order."""
        return (
            tuple(self.node_map[n] for n in sorted(self.node_map)),
            tuple(self.edge_map[e] for e in sorted(self.edge_map)),
        )


def enumerate_matches(pattern: InstanceGraph, host: InstanceGraph) -> list[Morphism]:
    """All injective typed morphisms pattern -> host: every match
    `iter_matches` yields, sorted by mapped ids."""
    return sorted(iter_matches(pattern, host), key=Morphism.mapped_tuple)


def _search_order(pattern: InstanceGraph) -> list[str]:
    """Pattern nodes in assignment order: each next one is the first, by
    neighbour count then id, that is adjacent to one already placed (as in
    VF2), else the first left, so isolated nodes come last."""
    neighbours: dict[str, set[str]] = {n: set() for n in pattern.nodes}
    for e in pattern.edges.values():
        neighbours[e.src].add(e.tgt)
        neighbours[e.tgt].add(e.src)
    rest = sorted(pattern.nodes, key=lambda n: (-len(neighbours[n]), n))
    order: list[str] = []
    placed: set[str] = set()
    while rest:
        pn = next((n for n in rest if neighbours[n] & placed), rest[0])
        rest.remove(pn)
        order.append(pn)
        placed.add(pn)
    return order


def iter_matches(pattern: InstanceGraph, host: InstanceGraph) -> Iterator[Morphism]:
    """Yield the injective typed morphisms pattern -> host one at a time.

    Backtracking over candidate node images with type and degree pruning,
    followed by backtracking over parallel-edge images.  Nodes are assigned
    in `_search_order`, so the yield order is not the sorted order of
    `enumerate_matches`; a caller that only needs one match stops early.
    """
    if pattern.typegraph != host.typegraph:
        raise GraphError("pattern and host are typed over different type graphs")

    host_by_type: dict[str, list[str]] = {}
    for nid in sorted(host.nodes):
        host_by_type.setdefault(host.nodes[nid], []).append(nid)
    pattern_sig = pattern.degree_signatures()
    host_sig = host.degree_signatures()
    pnodes = _search_order(pattern)

    assignment: dict[str, str] = {}
    used: set[str] = set()

    def parallel_count(graph: InstanceGraph, a: str, b: str, etype: str) -> int:
        return sum(
            1 for e in graph.edges.values() if e == Edge(etype, a, b)
        )

    def edges_still_possible(last: str) -> bool:
        # every fully assigned pattern edge pair must have enough host edges
        for e in pattern.edges.values():
            if last not in (e.src, e.tgt):
                continue
            if e.src in assignment and e.tgt in assignment:
                need = parallel_count(pattern, e.src, e.tgt, e.type)
                have = parallel_count(host, assignment[e.src], assignment[e.tgt], e.type)
                if have < need:
                    return False
        return True

    def assign_edges(
        pedges: list[str], edge_map: dict[str, str], used_edges: set[str]
    ) -> Iterator[Morphism]:
        if not pedges:
            yield Morphism(pattern, host, dict(assignment), dict(edge_map))
            return
        pe, rest = pedges[0], pedges[1:]
        want = pattern.edges[pe]
        target = Edge(want.type, assignment[want.src], assignment[want.tgt])
        for he in sorted(host.edges):
            if he in used_edges or host.edges[he] != target:
                continue
            edge_map[pe] = he
            used_edges.add(he)
            yield from assign_edges(rest, edge_map, used_edges)
            del edge_map[pe]
            used_edges.discard(he)

    def extend(i: int) -> Iterator[Morphism]:
        if i == len(pnodes):
            yield from assign_edges(sorted(pattern.edges), {}, set())
            return
        pn = pnodes[i]
        psig = pattern_sig[pn]
        for hn in host_by_type.get(pattern.nodes[pn], []):
            if hn in used:
                continue
            hsig = host_sig[hn]
            if any(hsig.get(key, 0) < count for key, count in psig.items()):
                continue
            assignment[pn] = hn
            used.add(hn)
            if edges_still_possible(pn):
                yield from extend(i + 1)
            del assignment[pn]
            used.discard(hn)

    yield from extend(0)


def check_dangling(match: Morphism, deleted_nodes: Iterable[str]) -> bool:
    """True iff deleting the images of the given pattern nodes leaves no dangling edge.

    A host edge incident to a deleted node's image must itself be in the match
    image (rule validity then guarantees it is a deleted edge).
    """
    deleted_images = {match.node_map[n] for n in deleted_nodes}
    matched_edges = match.edge_image()
    for eid, edge in match.target.edges.items():
        if eid in matched_edges:
            continue
        if edge.src in deleted_images or edge.tgt in deleted_images:
            return False
    return True
