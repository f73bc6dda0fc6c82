"""Transformation rules and their application.

A rule is one element set in which every node and edge carries a change tag
(preserve, delete or create).  The classic three-graph reading is derived:
L = preserve+delete, K = preserve, R = preserve+create, so K = L intersect R
holds by construction.  Application deletes first and then creates fresh
copies; inverse application undoes a step from its comatch and is the engine
primitive used to certify that glued overlap graphs are actually reachable.
`transformations` lists every way a rule fires on a host, and `explore` is
the one breadth-first search over them: the planner looks in it for setup
steps and the oracle enumerates the reachable states with it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Iterator

from .core import (
    Edge,
    GraphError,
    InstanceGraph,
    Morphism,
    TypeGraph,
    check_dangling,
    enumerate_matches,
)

PRESERVE = "preserve"
DELETE = "delete"
CREATE = "create"
TAGS = (PRESERVE, DELETE, CREATE)

KINDS = ("query", "mutation")


class NotApplicableError(GraphError):
    """The rule cannot be applied at the match (dangling condition)."""


class NotReversibleError(GraphError):
    """The host cannot have been produced by the rule at the comatch."""


@dataclass(frozen=True)
class CallSpec:
    """How a rule surfaces as an API call."""

    operation: str
    document_template: str = ""
    bindings: dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "bindings", dict(self.bindings))


@dataclass(frozen=True)
class Rule:
    """A change-tagged rule over a type graph."""

    name: str
    typegraph: TypeGraph
    nodes: dict[str, str] = field(default_factory=dict)
    edges: dict[str, Edge] = field(default_factory=dict)
    tags: dict[str, str] = field(default_factory=dict)
    kind: str = "mutation"
    call: CallSpec | None = None
    # node bound to the calling principal's own identity; if create-tagged,
    # the created image becomes the caller's identity instead
    actor: str | None = None
    setup_only: bool = False
    skeleton: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "nodes", dict(self.nodes))
        object.__setattr__(self, "edges", {i: Edge(*e) for i, e in self.edges.items()})
        object.__setattr__(self, "tags", dict(self.tags))
        if self.kind not in KINDS:
            raise GraphError(f"rule {self.name}: unknown kind {self.kind}")
        elements = set(self.nodes) | set(self.edges)
        if set(self.tags) != elements:
            raise GraphError(f"rule {self.name}: tags must cover every element exactly")
        for eid, tag in self.tags.items():
            if tag not in TAGS:
                raise GraphError(f"rule {self.name}: element {eid} has unknown tag {tag}")
        for eid, edge in self.edges.items():
            for endpoint in (edge.src, edge.tgt):
                if endpoint not in self.nodes:
                    raise GraphError(f"rule {self.name}: edge {eid} endpoint missing")
                pair = {self.tags[eid], self.tags[endpoint]}
                if pair == {CREATE, DELETE}:
                    raise GraphError(
                        f"rule {self.name}: edge {eid} mixes created and deleted elements"
                    )
        # constructing the derived graphs validates typing and graph-ness
        for graph in (self.lhs, self.interface, self.rhs):
            graph  # noqa: B018  (cached_property evaluation)
        if self.actor is not None and self.actor not in self.nodes:
            raise GraphError(f"rule {self.name}: actor {self.actor} is not a rule node")
        if self.call is not None:
            for var, target in self.call.bindings.items():
                if target not in self.nodes:
                    raise GraphError(
                        f"rule {self.name}: call binding {var} targets unknown node {target}"
                    )

    def _restrict(self, allowed: tuple[str, ...]) -> InstanceGraph:
        try:
            return InstanceGraph(
                self.typegraph,
                {n: t for n, t in self.nodes.items() if self.tags[n] in allowed},
                {e: d for e, d in self.edges.items() if self.tags[e] in allowed},
            )
        except GraphError as exc:
            raise GraphError(f"rule {self.name}: {exc}") from exc

    @cached_property
    def lhs(self) -> InstanceGraph:
        return self._restrict((PRESERVE, DELETE))

    @cached_property
    def interface(self) -> InstanceGraph:
        return self._restrict((PRESERVE,))

    @cached_property
    def rhs(self) -> InstanceGraph:
        return self._restrict((PRESERVE, CREATE))

    def tagged(self, tag: str, *, nodes: bool) -> list[str]:
        pool = self.nodes if nodes else self.edges
        return sorted(i for i in pool if self.tags[i] == tag)

    def created_nodes(self) -> list[str]:
        return self.tagged(CREATE, nodes=True)

    def created_edges(self) -> list[str]:
        return self.tagged(CREATE, nodes=False)

    def deleted_nodes(self) -> list[str]:
        return self.tagged(DELETE, nodes=True)

    def deleted_edges(self) -> list[str]:
        return self.tagged(DELETE, nodes=False)

    def operation(self) -> str:
        return self.call.operation if self.call else self.name


@dataclass(frozen=True)
class DirectTransformation:
    """One rule application: host => result through the intermediate graph."""

    rule: Rule
    host: InstanceGraph
    match: Morphism
    intermediate: InstanceGraph
    result: InstanceGraph
    comatch: Morphism

    def __post_init__(self) -> None:
        if not self.intermediate.is_subgraph_of(self.host):
            raise GraphError("intermediate graph must embed in the host")
        if not self.intermediate.is_subgraph_of(self.result):
            raise GraphError("intermediate graph must embed in the result")

    def created_node_ids(self) -> set[str]:
        return {self.comatch.node_map[n] for n in self.rule.created_nodes()}

    def created_edge_ids(self) -> set[str]:
        return {self.comatch.edge_map[e] for e in self.rule.created_edges()}

    def created_ids(self) -> set[str]:
        return self.created_node_ids() | self.created_edge_ids()

    def deleted_node_ids(self) -> set[str]:
        return {self.match.node_map[n] for n in self.rule.deleted_nodes()}

    def deleted_edge_ids(self) -> set[str]:
        return {self.match.edge_map[e] for e in self.rule.deleted_edges()}

    def deleted_ids(self) -> set[str]:
        return self.deleted_node_ids() | self.deleted_edge_ids()


def _fresh_ids(bases: Iterable[str], taken: set[str]) -> dict[str, str]:
    """Deterministic fresh host ids, one per base rule-element id."""
    out: dict[str, str] = {}
    for base in bases:
        n = 1
        while f"{base}~{n}" in taken:
            n += 1
        out[base] = f"{base}~{n}"
        taken.add(out[base])
    return out


def apply(rule: Rule, host: InstanceGraph, match: Morphism) -> DirectTransformation:
    """Apply the rule at an injective match of its left-hand side."""
    if match.source != rule.lhs or match.target != host:
        raise GraphError(f"match does not connect {rule.name}'s pattern to the host")
    deleted_nodes = rule.deleted_nodes()
    if not check_dangling(match, deleted_nodes):
        edge = _offending_edge(match, deleted_nodes)
        raise NotApplicableError(
            f"rule {rule.name} not applicable: host edge {edge} would dangle"
        )

    intermediate = host.remove(
        (match.node_map[n] for n in deleted_nodes),
        (match.edge_map[e] for e in rule.deleted_edges()),
    )

    taken = set(host.nodes) | set(host.edges)
    fresh = _fresh_ids(rule.created_nodes() + rule.created_edges(), taken)

    def image(node: str) -> str:
        return fresh[node] if rule.tags[node] == CREATE else match.node_map[node]

    new_nodes = {fresh[n]: rule.nodes[n] for n in rule.created_nodes()}
    new_edges = {
        fresh[e]: Edge(rule.edges[e].type, image(rule.edges[e].src), image(rule.edges[e].tgt))
        for e in rule.created_edges()
    }
    result = intermediate.add(new_nodes, new_edges)

    comatch = Morphism(
        rule.rhs,
        result,
        {n: image(n) for n in rule.rhs.nodes},
        {
            e: (fresh[e] if rule.tags[e] == CREATE else match.edge_map[e])
            for e in rule.rhs.edges
        },
    )
    return DirectTransformation(rule, host, match, intermediate, result, comatch)


def _offending_edge(match: Morphism, deleted_nodes: Iterable[str]) -> str:
    deleted_images = {match.node_map[n] for n in deleted_nodes}
    matched = match.edge_image()
    for eid in sorted(match.target.edges):
        edge = match.target.edges[eid]
        if eid not in matched and (edge.src in deleted_images or edge.tgt in deleted_images):
            return eid
    raise AssertionError("no offending edge found")


def apply_inverse(rule: Rule, host: InstanceGraph, comatch: Morphism) -> InstanceGraph:
    """Undo one application of the rule from an injective comatch of its result side.

    Fails exactly when some host edge outside the comatch image touches a
    created node's image; such a host cannot have been produced by the rule at
    this comatch, because the edge would have had to exist before its endpoint.
    """
    if comatch.source != rule.rhs or comatch.target != host:
        raise GraphError(f"comatch does not connect {rule.name}'s result side to the host")
    created_images = {comatch.node_map[n] for n in rule.created_nodes()}
    matched_edges = comatch.edge_image()
    for eid in sorted(host.edges):
        edge = host.edges[eid]
        if eid in matched_edges:
            continue
        if edge.src in created_images or edge.tgt in created_images:
            raise NotReversibleError(
                f"rule {rule.name} not reversible: host edge {eid} touches a created node"
            )

    stripped = host.remove(
        created_images, (comatch.edge_map[e] for e in rule.created_edges())
    )

    taken = set(host.nodes) | set(host.edges)
    fresh = _fresh_ids(rule.deleted_nodes() + rule.deleted_edges(), taken)

    def image(node: str) -> str:
        return fresh[node] if rule.tags[node] == DELETE else comatch.node_map[node]

    old_nodes = {fresh[n]: rule.nodes[n] for n in rule.deleted_nodes()}
    old_edges = {
        fresh[e]: Edge(rule.edges[e].type, image(rule.edges[e].src), image(rule.edges[e].tgt))
        for e in rule.deleted_edges()
    }
    return stripped.add(old_nodes, old_edges)


def transformations(rule: Rule, host: InstanceGraph) -> list[DirectTransformation]:
    """Every way the rule can fire on the host, in match order."""
    out = []
    for match in enumerate_matches(rule.lhs, host):
        try:
            out.append(apply(rule, host, match))
        except NotApplicableError:
            continue
    return out


def explore(
    rules: Iterable[Rule], initial: InstanceGraph, depth: int
) -> Iterator[tuple[InstanceGraph, tuple[DirectTransformation, ...]]]:
    """Search breadth-first through the hosts reachable in at most `depth` steps.

    Yields one host per isomorphism class with the steps that reached it
    first, rules in name order; the initial host comes first, with no steps.
    """
    yield initial, ()
    ordered = sorted(rules, key=lambda r: r.name)
    seen = {canonical_form(initial)}
    frontier = [(initial, ())]
    for _ in range(depth):
        next_frontier = []
        for host, trace in frontier:
            for rule in ordered:
                for t in transformations(rule, host):
                    key = canonical_form(t.result)
                    if key not in seen:
                        seen.add(key)
                        reached = (t.result, trace + (t,))
                        yield reached
                        next_frontier.append(reached)
        frontier = next_frontier


def canonical_form(graph: InstanceGraph) -> tuple:
    """A labeling-independent certificate; equal certificates mean isomorphic graphs.

    Iterative colour refinement by type and incident-edge structure, with
    backtracking individualization when refinement leaves colour classes.
    Adequate for the desk-scale graphs this package handles.
    """

    def refine(colors: dict[str, tuple]) -> dict[str, tuple]:
        while True:
            new = {}
            for n in graph.nodes:
                signature = []
                for e in graph.edges.values():
                    if e.src == n:
                        signature.append((e.type, "out", colors[e.tgt]))
                    if e.tgt == n:
                        signature.append((e.type, "in", colors[e.src]))
                new[n] = (colors[n], tuple(sorted(signature)))
            # compress to dense ranks so colour tuples stay small
            ranks = {c: i for i, c in enumerate(sorted(set(new.values())))}
            compressed = {n: (ranks[new[n]],) for n in new}
            if compressed == colors:
                return colors
            colors = compressed

    def certificate(order: list[str]) -> tuple:
        index = {n: i for i, n in enumerate(order)}
        return (
            tuple(graph.nodes[n] for n in order),
            tuple(sorted((e.type, index[e.src], index[e.tgt]) for e in graph.edges.values())),
        )

    def search(colors: dict[str, tuple]) -> tuple:
        colors = refine(colors)
        classes: dict[tuple, list[str]] = {}
        for n, c in colors.items():
            classes.setdefault(c, []).append(n)
        ambiguous = sorted(
            (c for c, members in classes.items() if len(members) > 1)
        )
        if not ambiguous:
            order = sorted(graph.nodes, key=lambda n: colors[n])
            return certificate(order)
        target = ambiguous[0]
        best: tuple | None = None
        for member in sorted(classes[target]):
            branched = dict(colors)
            branched[member] = colors[member] + ("pinned",)
            candidate = search(branched)
            if best is None or candidate < best:
                best = candidate
        return best

    initial = {n: (graph.nodes[n],) for n in graph.nodes}
    return search(initial)


def isomorphic(a: InstanceGraph, b: InstanceGraph) -> bool:
    """True iff the graphs are isomorphic as typed graphs."""
    if a.typegraph != b.typegraph:
        return False
    if len(a.nodes) != len(b.nodes) or len(a.edges) != len(b.edges):
        return False
    return canonical_form(a) == canonical_form(b)


def rule_to_doc(rule: Rule) -> dict:
    doc = {
        "name": rule.name,
        "kind": rule.kind,
        "nodes": [
            {"id": n, "type": rule.nodes[n], "tag": rule.tags[n]}
            for n in sorted(rule.nodes)
        ],
        "edges": [
            {
                "id": e,
                "type": rule.edges[e].type,
                "src": rule.edges[e].src,
                "tgt": rule.edges[e].tgt,
                "tag": rule.tags[e],
            }
            for e in sorted(rule.edges)
        ],
    }
    if rule.call is not None:
        doc["call"] = {
            "operation": rule.call.operation,
            "document_template": rule.call.document_template,
            "bindings": dict(rule.call.bindings),
        }
    if rule.actor is not None:
        doc["actor"] = rule.actor
    if rule.setup_only:
        doc["setup_only"] = True
    if rule.skeleton:
        doc["skeleton"] = True
    return doc


def rule_from_doc(doc: dict, typegraph: TypeGraph) -> Rule:
    try:
        name = doc["name"]
        nodes = {n["id"]: n["type"] for n in doc.get("nodes", [])}
        edges = {
            e["id"]: Edge(e["type"], e["src"], e["tgt"]) for e in doc.get("edges", [])
        }
        tags = {n["id"]: n["tag"] for n in doc.get("nodes", [])}
        tags.update({e["id"]: e["tag"] for e in doc.get("edges", [])})
    except (KeyError, TypeError) as exc:
        raise GraphError(f"malformed rule document: {exc}") from exc
    call = None
    if "call" in doc:
        if not isinstance(doc["call"], dict):
            raise GraphError(f"malformed rule document: rule {name}: call must be an object")
        call = CallSpec(
            doc["call"].get("operation", name),
            doc["call"].get("document_template", ""),
            doc["call"].get("bindings", {}),
        )
    return Rule(
        name=name,
        typegraph=typegraph,
        nodes=nodes,
        edges=edges,
        tags=tags,
        kind=doc.get("kind", "mutation"),
        call=call,
        actor=doc.get("actor"),
        setup_only=bool(doc.get("setup_only", False)),
        skeleton=bool(doc.get("skeleton", False)),
    )


def rules_to_doc(rules: Iterable[Rule]) -> dict:
    return {"rules": [rule_to_doc(r) for r in rules]}


def rules_from_doc(doc: dict, typegraph: TypeGraph) -> list[Rule]:
    if "rules" not in doc or not isinstance(doc["rules"], list):
        raise GraphError("rule document must contain a rules array")
    rules = [rule_from_doc(r, typegraph) for r in doc["rules"]]
    names = [r.name for r in rules]
    if len(set(names)) != len(names):
        raise GraphError("duplicate rule name in rule document")
    return rules
