"""Typed multigraphs, typed morphisms, match enumeration and the dangling check.

Graphs are typed over a fixed type graph.  Nodes and edges carry opaque string
ids and parallel edges are allowed because every edge has its own identity.
Node attributes are reporting metadata and never take part in matching.  All
values are immutable after construction, so they can be shared freely, with
one exception: an owned graph (`InstanceGraph._owned`), which its one owner
steps in place.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass, field
from functools import cached_property
from typing import Container, Iterable, Iterator, NamedTuple


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
        try:
            return self._edge_types_by_name[name]
        except (KeyError, TypeError):  # TypeError: an unhashable name
            raise GraphError(f"unknown edge type {name}") from None

    def has_node_type(self, name: str) -> bool:
        try:
            return name in self._node_type_set
        except TypeError:  # an unhashable name
            return False

    # lookup tables for the two methods above, built on first use

    @cached_property
    def _node_type_set(self) -> frozenset[str]:
        return frozenset(self.node_types)

    @cached_property
    def _edge_types_by_name(self) -> dict[str, EdgeType]:
        return {e.name: e for e in self.edge_types}

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

    The constructor copies and validates the whole graph.  `subgraph` and
    `_derive` (through which rule steps go) validate only what they change.
    A graph is never changed once made, except an owned one (`_owned`):
    a step from it changes its dicts and matcher caches in place and hands
    them to the result, so that the step costs what it changes, not the
    whole graph, and the graph stepped from is spent.
    """

    typegraph: TypeGraph
    nodes: dict[str, str] = field(default_factory=dict)
    edges: dict[str, Edge] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "nodes", dict(self.nodes))
        object.__setattr__(self, "edges", {i: Edge(*e) for i, e in self.edges.items()})
        _check_elements(self.typegraph, self.nodes, self.nodes, self.edges)

    @classmethod
    def _trusted(
        cls, typegraph: TypeGraph, nodes: dict[str, str], edges: dict[str, Edge]
    ) -> "InstanceGraph":
        """A graph from dicts the caller owns and has validated: no copy and
        no check."""
        graph = object.__new__(cls)
        graph.__dict__.update(typegraph=typegraph, nodes=nodes, edges=edges)
        return graph

    @classmethod
    def empty(cls, typegraph: TypeGraph) -> "InstanceGraph":
        return cls(typegraph, {}, {})

    def node_ids(self) -> list[str]:
        return sorted(self.nodes)

    def edge_ids(self) -> list[str]:
        return sorted(self.edges)

    def incident(self, nid: str) -> list[str]:
        """Edge ids touching the given node, sorted (shared; do not modify)."""
        return self._incidence.get(nid, [])

    def degree_signatures(self) -> dict[str, dict[tuple[str, str], int]]:
        """Each node's multiset of (edge type, direction) pairs (shared; do
        not modify)."""
        return self._signatures

    # The caches below are made on first use, so a graph that is never
    # matched or checked for dangling edges pays for none of them.  Each is
    # built from the whole graph, except on an owned graph (`_owned`), whose
    # step changes the caches it has built in place and hands them on.

    @cached_property
    def _incidence(self) -> dict[str, list[str]]:
        incidence = {n: [] for n in self.nodes}
        for eid in sorted(self.edges):
            e = self.edges[eid]
            incidence[e.src].append(eid)
            if e.tgt != e.src:
                incidence[e.tgt].append(eid)
        return incidence

    @cached_property
    def _signatures(self) -> dict[str, dict[tuple[str, str], int]]:
        return _count_degrees({n: {} for n in self.nodes}, self.edges.values())

    @cached_property
    def _floors(self) -> dict[str, int]:
        """Base id -> a suffix n such that every `base~k` with k < n is an
        element of this graph (see `rules._fresh_ids`); each graph owns its
        copy, which grows as fresh ids are asked of it."""
        return {}

    @cached_property
    def _plans(self) -> dict[frozenset[str], "_Plan"]:
        """The matcher's search plans with this graph as the pattern, by
        set of anchored nodes (see `_plan`)."""
        return {}

    @cached_property
    def _index(self) -> "_HostIndex":
        by_type: dict[str, list[str]] = {}
        for nid in sorted(self.nodes):
            by_type.setdefault(self.nodes[nid], []).append(nid)
        by_edge: dict[Edge, list[str]] = {}
        for eid, e in self.edges.items():
            by_edge.setdefault(e, []).append(eid)
        # one entry per distinct triple keeps the lists free of duplicates
        neighbours: dict[tuple[str, str, str], list[str]] = {}
        for key, node in _links(by_edge):
            neighbours.setdefault(key, []).append(node)
        return _HostIndex(by_type, by_edge, neighbours, self._signatures)

    def subgraph(self, node_ids: Iterable[str], edge_ids: Iterable[str]) -> "InstanceGraph":
        """The induced subgraph on the given ids; endpoints must be included."""
        node_ids = set(node_ids)
        edge_ids = set(edge_ids)
        missing = {n for n in node_ids if n not in self.nodes}
        missing |= {e for e in edge_ids if e not in self.edges}
        if missing:
            raise GraphError(f"subgraph references unknown ids: {sorted(missing)}")
        edges = {e: self.edges[e] for e in edge_ids}
        for eid, edge in edges.items():
            if edge.src not in node_ids or edge.tgt not in node_ids:
                raise GraphError(f"edge {eid} has a missing endpoint")
        return InstanceGraph._trusted(
            self.typegraph, {n: self.nodes[n] for n in node_ids}, edges
        )

    def _derive(
        self,
        node_ids: Iterable[str],
        edge_ids: Iterable[str],
        nodes: dict[str, str],
        edges: dict[str, Edge],
    ) -> "InstanceGraph":
        """A new graph: this one without the given nodes and edges, then with
        the new `nodes` and `edges` added.

        Ids that name no element of their kind are ignored.  No kept edge
        may touch a removed node, and the new elements need ids fresh
        against the kept ones and must fit the type graph.  The result
        builds its own caches, unless this graph is owned (see `_owned`).
        """
        if "_live" in self.__dict__:
            return self._hand_on(node_ids, edge_ids, nodes, edges)
        kept_nodes, kept_edges = dict(self.nodes), dict(self.edges)
        # a stray id, or one given twice, pops nothing and goes unrecorded
        removed_nodes = tuple(n for n in node_ids if kept_nodes.pop(n, None) is not None)
        removed_edges = tuple(e for e in edge_ids if kept_edges.pop(e, None) is not None)
        if removed_nodes:
            edge = dangling_edge(self, removed_nodes, set(removed_edges))
            if edge is not None:
                raise GraphError(f"edge {edge} has a missing endpoint")
        clash = {i for i in (*nodes, *edges) if i in kept_nodes or i in kept_edges}
        if clash:
            raise GraphError(f"ids already present: {sorted(clash)}")
        nodes = dict(nodes)
        edges = {i: Edge(*e) for i, e in edges.items()}
        kept_nodes.update(nodes)
        _check_elements(self.typegraph, kept_nodes, nodes, edges)
        kept_edges.update(edges)
        return InstanceGraph._trusted(self.typegraph, kept_nodes, kept_edges)

    def _owned(self) -> "InstanceGraph":
        """A copy of this graph for an owner that steps from each graph once
        and never goes back to it, as the mock steps its state.

        Its `_derive` makes the same checks, all before anything changes,
        then changes the graph's dicts and the caches it has built in place
        and hands them to the result, which is owned in turn; the graph it
        stepped from is spent, and another step from it raises GraphError.
        """
        graph = InstanceGraph._trusted(self.typegraph, dict(self.nodes), dict(self.edges))
        graph.__dict__["_live"] = True
        return graph

    def _hand_on(
        self,
        node_ids: Iterable[str],
        edge_ids: Iterable[str],
        nodes: dict[str, str],
        edges: dict[str, Edge],
    ) -> "InstanceGraph":
        """`_derive` on an owned graph (see `_owned`).  Each cache it has
        built is changed to equal what the result would build afresh:
        incidence and `by_type` lists stay sorted, `by_edge` lists in edge
        order, and neighbour lists distinct."""
        if not self.__dict__["_live"]:
            raise GraphError("graph already stepped from; step from its result")
        own_nodes, own_edges = self.nodes, self.edges
        # a stray id, or one given twice, goes unrecorded
        removed_nodes = tuple(dict.fromkeys(n for n in node_ids if n in own_nodes))
        removed_edges = tuple(dict.fromkeys(e for e in edge_ids if e in own_edges))
        if removed_nodes:
            edge = dangling_edge(self, removed_nodes, set(removed_edges))
            if edge is not None:
                raise GraphError(f"edge {edge} has a missing endpoint")
        gone = {*removed_nodes, *removed_edges}
        clash = {
            i for i in (*nodes, *edges) if (i in own_nodes or i in own_edges) and i not in gone
        }
        if clash:
            raise GraphError(f"ids already present: {sorted(clash)}")
        nodes = dict(nodes)
        edges = {i: Edge(*e) for i, e in edges.items()}
        ends = {}  # the new edges' endpoints that are nodes after the change
        for e in edges.values():
            for n in (e.src, e.tgt):
                if n in nodes:
                    ends[n] = nodes[n]
                elif n in own_nodes and n not in gone:
                    ends[n] = own_nodes[n]
        _check_elements(self.typegraph, ends, nodes, edges)

        # every check made: change the dicts, then each built cache
        dropped = [(n, own_nodes.pop(n)) for n in removed_nodes]
        cut = [(e, own_edges.pop(e)) for e in removed_edges]
        own_nodes.update(nodes)
        own_edges.update(edges)
        built = self.__dict__
        incidence = built.get("_incidence")
        if incidence is not None:
            for eid, (_, src, tgt) in cut:
                for n in {src, tgt}:
                    ids = incidence[n]
                    del ids[bisect_left(ids, eid)]
            for n, _ in dropped:
                del incidence[n]
            for n in nodes:
                incidence[n] = []
            for eid, (_, src, tgt) in edges.items():
                for n in {src, tgt}:
                    insort(incidence[n], eid)
        sigs = built.get("_signatures")
        if sigs is not None:
            _count_degrees(sigs, (e for _, e in cut), -1)
            for n, _ in dropped:
                del sigs[n]
            for n in nodes:
                sigs[n] = {}
            _count_degrees(sigs, edges.values())
        floors = built.get("_floors")
        if floors is not None:
            for i in gone:
                base, _, suffix = i.rpartition("~")
                if suffix.isascii() and suffix.isdigit() and suffix[0] != "0":
                    if int(suffix) < floors.get(base, 0):
                        floors[base] = int(suffix)
        index = built.get("_index")
        if index is not None:
            by_type, by_edge, neighbours, _ = index
            for n, ntype in dropped:
                ids = by_type[ntype]
                del ids[bisect_left(ids, n)]
                if not ids:
                    del by_type[ntype]
            for n, ntype in nodes.items():
                insort(by_type.setdefault(ntype, []), n)
            # a neighbour goes with the last edge of its triple and comes
            # with the first
            for eid, triple in cut:
                ids = by_edge[triple]
                ids.remove(eid)
                if not ids:
                    del by_edge[triple]
                    for key, node in _links((triple,)):
                        near = neighbours[key]
                        near.remove(node)
                        if not near:
                            del neighbours[key]
            for eid, triple in edges.items():
                ids = by_edge.get(triple)
                if ids is None:
                    by_edge[triple] = [eid]
                    for key, node in _links((triple,)):
                        neighbours.setdefault(key, []).append(node)
                else:
                    ids.append(eid)

        graph = InstanceGraph._trusted(self.typegraph, own_nodes, own_edges)
        for cache in ("_incidence", "_signatures", "_floors", "_index"):
            if cache in built:
                graph.__dict__[cache] = built.pop(cache)
        built.pop("_plans", None)  # plans of the pattern it was
        built["_live"] = False
        graph.__dict__["_live"] = True
        return graph

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
        nodes, edges = elements_from_doc(doc, "graph document")
        return cls(typegraph, nodes, edges)


def _count_degrees(
    sigs: dict[str, dict[tuple[str, str], int]], edges: Iterable[Edge], step: int = 1
) -> dict[str, dict[tuple[str, str], int]]:
    """Add `step` for each edge to the degree signatures in `sigs`, each
    node's count of its edges by (edge type, "out" | "in"), and return
    `sigs`.  A count taken to 0 is dropped, as a fresh count has none."""
    for etype, src, tgt in edges:
        out, into = sigs[src], sigs[tgt]
        key = (etype, "out")
        if count := out.get(key, 0) + step:
            out[key] = count
        else:
            del out[key]
        key = (etype, "in")
        if count := into.get(key, 0) + step:
            into[key] = count
        else:
            del into[key]
    return sigs


def _links(triples: Iterable[Edge]) -> Iterator[tuple[tuple[str, str, str], str]]:
    """The neighbour entries of edge triples: ((node, edge type, "out" |
    "in"), neighbour) for both ends of each."""
    for etype, src, tgt in triples:
        yield (src, etype, "out"), tgt
        yield (tgt, etype, "in"), src


def _boolean(value: object, what: str) -> bool:
    """A document flag, which must be a JSON boolean: `bool("false")` is
    true, so a string would flip the flag without notice."""
    if not isinstance(value, bool):
        raise GraphError(f"{what} must be true or false, got {value!r}")
    return value


def elements_from_doc(
    doc: object, what: str
) -> tuple[dict[str, str], dict[str, Edge]]:
    """The nodes and edges of a graph or rule document (`what`), by id.

    Each entry is an object whose id, type and endpoints are strings, and no
    id repeats; other keys of the entries are the caller's to read.
    """
    if not isinstance(doc, dict):
        raise GraphError(f"malformed {what}: expected an object")
    node_docs, edge_docs = doc.get("nodes", []), doc.get("edges", [])
    try:
        nodes = {n["id"]: n["type"] for n in node_docs}
        edges = {e["id"]: Edge(e["type"], e["src"], e["tgt"]) for e in edge_docs}
    except (KeyError, TypeError) as exc:
        raise GraphError(f"malformed {what}: {exc}") from exc
    if len(nodes) != len(node_docs) or len(edges) != len(edge_docs):
        raise GraphError(f"duplicate element id in {what}")
    for nid, ntype in nodes.items():
        if not (isinstance(nid, str) and isinstance(ntype, str)):
            raise GraphError(f"malformed {what}: node {nid!r}: id and type must be strings")
    for eid, edge in edges.items():
        if not (isinstance(eid, str) and all(isinstance(s, str) for s in edge)):
            raise GraphError(
                f"malformed {what}: edge {eid!r}: id, type and endpoints must be strings"
            )
    return nodes, edges


def _check_elements(
    typegraph: TypeGraph,
    nodes: dict[str, str],
    new_nodes: dict[str, str],
    new_edges: dict[str, Edge],
) -> None:
    """Check the new elements of a graph whose nodes are `nodes`: no id names
    both a node and an edge, node types are known, and edge endpoints exist
    with the types their edge type declares."""
    overlap = new_nodes.keys() & new_edges.keys()
    if overlap:
        raise GraphError(f"ids used for both a node and an edge: {sorted(overlap)}")
    for nid, ntype in new_nodes.items():
        if not typegraph.has_node_type(ntype):
            raise GraphError(f"node {nid} has unknown type {ntype}")
    for eid, edge in new_edges.items():
        et = typegraph.edge_type(edge.type)
        if edge.src not in nodes or edge.tgt not in nodes:
            raise GraphError(f"edge {eid} has a missing endpoint")
        if nodes[edge.src] != et.src or nodes[edge.tgt] != et.tgt:
            raise GraphError(f"edge {eid} endpoint types do not match {edge.type}")


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
    def _trusted(
        cls,
        source: InstanceGraph,
        target: InstanceGraph,
        node_map: dict[str, str],
        edge_map: dict[str, str],
    ) -> "Morphism":
        """A morphism from maps the caller owns and has built to be valid
        (the matcher, a rule step): no copy and no check."""
        morphism = object.__new__(cls)
        morphism.__dict__.update(
            source=source, target=target, node_map=node_map, edge_map=edge_map
        )
        return morphism

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


class _HostIndex(NamedTuple):
    """What the matcher looks up in a host: built once per graph, or handed
    on from the graph an owned one was stepped from (`InstanceGraph._index`)."""

    by_type: dict[str, list[str]]  # node type -> node ids, sorted
    by_edge: dict[Edge, list[str]]  # (type, src, tgt) -> edge ids
    # (node, edge type, "out" | "in") -> distinct neighbours
    neighbours: dict[tuple[str, str, str], list[str]]
    signatures: dict[str, dict[tuple[str, str], int]]


# A search plan is (steps, edges).  Each step places one pattern node and
# is (node, node type, degree signature items, sources, checks): sources
# are (placed pattern node, edge type, "out" | "in"), and the node's
# candidates are that node's image's neighbours along the edge type; checks
# are (edge type, src, tgt, count) for the pattern edge triples whose
# endpoints are all placed once this node is, and the host needs as many
# parallel edges.  `edges` lists the pattern's (edge id, Edge) in id order.
_Step = tuple[str, str, tuple, tuple, tuple]
_Plan = tuple[tuple[_Step, ...], tuple[tuple[str, Edge], ...]]


def _plan(pattern: InstanceGraph, anchored: frozenset[str]) -> _Plan:
    """The pattern's search plan for a set of anchored nodes.

    A plan is kept on the pattern from its second search on: rule patterns
    are searched for again and again, but most other patterns (spans, new
    hosts tested for isomorphism) only once, and keeping their plans would
    hold memory for nothing.
    """
    plans = pattern._plans
    plan = plans.get(anchored)
    if plan is None:
        plan = _build_plan(pattern, anchored)
        plans[anchored] = plan if anchored in plans else None
    return plan


def _build_plan(pattern: InstanceGraph, anchored: frozenset[str]) -> _Plan:
    """Anchored nodes are placed first, in id order.  Each next node is the
    first, by neighbour count then id, that is adjacent to one already
    placed (as in VF2), else the first left, so isolated nodes come last."""
    nodes = pattern.nodes
    if not pattern.edges:
        order = sorted(anchored) + sorted(nodes.keys() - anchored)
        return tuple((n, nodes[n], (), (), ()) for n in order), ()
    counts: dict[Edge, int] = {}
    for e in pattern.edges.values():
        counts[e] = counts.get(e, 0) + 1
    adjacent: dict[str, set[str]] = {n: set() for n in nodes}
    for _, src, tgt in counts:
        adjacent[src].add(tgt)
        adjacent[tgt].add(src)
    sigs = _count_degrees({n: {} for n in nodes}, pattern.edges.values())
    order = sorted(anchored)
    reached: set[str] = set()  # nodes adjacent to a placed one
    for n in order:
        reached |= adjacent[n]
    rest = sorted(nodes.keys() - anchored, key=lambda n: (-len(adjacent[n]), n))
    while rest:
        for k, pn in enumerate(rest):
            if pn in reached:
                break
        else:
            k, pn = 0, rest[0]
        del rest[k]
        order.append(pn)
        reached |= adjacent[pn]
    # each edge triple is checked, and may give candidates, at the step
    # that places the later of its endpoints
    rank = {n: i for i, n in enumerate(order)}
    checks: list[list[tuple[str, str, str, int]]] = [[] for _ in order]
    sources: list[list[tuple[str, str, str]]] = [[] for _ in order]
    for (t, src, tgt), c in counts.items():
        i = max(rank[src], rank[tgt])
        checks[i].append((t, src, tgt, c))
        if src != tgt and order[i] not in anchored:
            sources[i].append((src, t, "out") if rank[tgt] == i else (tgt, t, "in"))
    steps = tuple(
        (pn, nodes[pn], tuple(sigs[pn].items()), tuple(sources[i]), tuple(checks[i]))
        for i, pn in enumerate(order)
    )
    return steps, tuple(sorted(pattern.edges.items()))


def enumerate_matches(pattern: InstanceGraph, host: InstanceGraph) -> list[Morphism]:
    """All injective typed morphisms pattern -> host: every match
    `iter_matches` yields, sorted by mapped ids."""
    return sorted(iter_matches(pattern, host), key=Morphism.mapped_tuple)


def first_match(
    pattern: InstanceGraph,
    host: InstanceGraph,
    fixed: dict[str, object] | None = None,
) -> Morphism | None:
    """The first match in `enumerate_matches` order among those the anchors
    allow, or None.  Mock responses and planned steps are fixed by it."""
    return min(
        iter_matches(pattern, host, fixed), key=Morphism.mapped_tuple, default=None
    )


def iter_matches(
    pattern: InstanceGraph,
    host: InstanceGraph,
    fixed: dict[str, object] | None = None,
) -> Iterator[Morphism]:
    """Yield the injective typed morphisms pattern -> host one at a time.

    `fixed` anchors pattern nodes to host ids: only matches that send each
    anchored node to its id are yielded, so none when an anchor names a
    node outside the pattern, or an id that is not a host node of that
    node's type.  Backtracking over node images in the plan's order: an
    anchored node has its id as only candidate, a node next to a placed one
    takes that node's image's neighbours along a connecting edge, any other
    node every host node of its type.  Degree signatures and parallel-edge
    counts prune candidates; then backtracking over parallel-edge images.
    The matches are built valid, so they skip `Morphism`'s checks.  The
    yield order is not the sorted order of `enumerate_matches`; a
    caller that only needs one match stops early.
    """
    if pattern.typegraph != host.typegraph:
        raise GraphError("pattern and host are typed over different type graphs")
    fixed = fixed or {}
    for pn, hn in fixed.items():
        if (
            pn not in pattern.nodes
            or not isinstance(hn, str)
            or host.nodes.get(hn) != pattern.nodes[pn]
        ):
            return

    by_type, by_edge, neighbours, host_sig = host._index
    # a cheap necessary condition before any plan is built: enough host
    # nodes of each type
    need: dict[str, int] = {}
    for ntype in pattern.nodes.values():
        need[ntype] = need.get(ntype, 0) + 1
    for ntype, count in need.items():
        if len(by_type.get(ntype, ())) < count:
            return
    steps, pedges = _plan(pattern, frozenset(fixed))
    assignment: dict[str, str] = {}
    used: set[str] = set()

    def assign_edges(
        k: int, edge_map: dict[str, str], used_edges: set[str]
    ) -> Iterator[Morphism]:
        if k == len(pedges):
            # valid by construction: every node and edge placed once, along
            # its own type, and edges looked up between placed endpoints
            yield Morphism._trusted(pattern, host, dict(assignment), dict(edge_map))
            return
        pe, want = pedges[k]
        for he in by_edge[Edge(want.type, assignment[want.src], assignment[want.tgt])]:
            if he in used_edges:
                continue
            edge_map[pe] = he
            used_edges.add(he)
            yield from assign_edges(k + 1, edge_map, used_edges)
            del edge_map[pe]
            used_edges.discard(he)

    def extend(i: int) -> Iterator[Morphism]:
        if i == len(steps):
            yield from assign_edges(0, {}, set())
            return
        pn, ptype, psig, sources, checks = steps[i]
        if pn in fixed:
            candidates = (fixed[pn],)
        elif len(sources) == 1:
            q, t, d = sources[0]
            candidates = neighbours.get((assignment[q], t, d), ())
        elif sources:
            candidates = min(
                (neighbours.get((assignment[q], t, d), ()) for q, t, d in sources),
                key=len,
            )
        else:
            candidates = by_type.get(ptype, ())
        for hn in candidates:
            if hn in used:
                continue
            hsig = host_sig[hn]
            if any(hsig.get(key, 0) < count for key, count in psig):
                continue
            assignment[pn] = hn
            for t, src, tgt, count in checks:
                if len(by_edge.get(Edge(t, assignment[src], assignment[tgt]), ())) < count:
                    break
            else:
                used.add(hn)
                yield from extend(i + 1)
                used.discard(hn)
            del assignment[pn]

    try:
        yield from extend(0)
    finally:
        # the two recursive closures reference themselves, a cycle that
        # would keep the host and its index alive until the collector runs
        del extend, assign_edges


def dangling_edge(
    host: InstanceGraph, node_ids: Iterable[str], exempt: Container[str]
) -> str | None:
    """The lowest-id host edge outside `exempt` that touches one of the
    given nodes, or None."""
    return min(
        (e for n in node_ids for e in host.incident(n) if e not in exempt),
        default=None,
    )


def check_dangling(match: Morphism, deleted_nodes: Iterable[str]) -> bool:
    """True iff deleting the images of the given pattern nodes leaves no dangling edge.

    A host edge incident to a deleted node's image must itself be in the match
    image (rule validity then guarantees it is a deleted edge).
    """
    deleted_images = [match.node_map[n] for n in deleted_nodes]
    return dangling_edge(match.target, deleted_images, match.edge_image()) is None
