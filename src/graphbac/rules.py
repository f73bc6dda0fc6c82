"""Transformation rules and their application.

A rule is one element set in which every node and edge carries a change tag
(preserve, delete or create).  The classic three-graph reading is derived:
L = preserve+delete, K = preserve, R = preserve+create, so K = L intersect R
holds by construction.  Application deletes first and then creates fresh
copies; inverse application undoes a step from its comatch and is the engine
primitive used to certify that glued overlap graphs are actually reachable.
`transformations` lists every way a rule fires on a host, and `explore` is
the one breadth-first search over them: the planner looks in it for setup
steps and the oracle enumerates the reachable states with it.  Two hosts
are the same state when `isomorphic`, which asks the matcher for one
injective match; `canonical_form` is only a cheap invariant that buckets
hosts before that check.
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
    dangling_edge,
    elements_from_doc,
    enumerate_matches,
    iter_matches,
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

    @cached_property
    def _by_tag(self) -> dict[tuple[str, bool], tuple[str, ...]]:
        """Sorted element ids per (tag, nodes?), fixed when the rule is built."""
        out = {}
        for tag in TAGS:
            for nodes, pool in ((True, self.nodes), (False, self.edges)):
                out[tag, nodes] = tuple(sorted(i for i in pool if self.tags[i] == tag))
        return out

    def tagged(self, tag: str, *, nodes: bool) -> tuple[str, ...]:
        return self._by_tag.get((tag, nodes), ())

    def created_nodes(self) -> tuple[str, ...]:
        return self.tagged(CREATE, nodes=True)

    def created_edges(self) -> tuple[str, ...]:
        return self.tagged(CREATE, nodes=False)

    def deleted_nodes(self) -> tuple[str, ...]:
        return self.tagged(DELETE, nodes=True)

    def deleted_edges(self) -> tuple[str, ...]:
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

    @classmethod
    def _trusted(
        cls,
        rule: Rule,
        host: InstanceGraph,
        match: Morphism,
        intermediate: InstanceGraph,
        result: InstanceGraph,
        comatch: Morphism,
    ) -> "DirectTransformation":
        """A step `apply` derived, whose graphs embed by construction: no
        check."""
        step = object.__new__(cls)
        step.__dict__.update(
            rule=rule,
            host=host,
            match=match,
            intermediate=intermediate,
            result=result,
            comatch=comatch,
        )
        return step

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


def _fresh_ids(bases: Iterable[str], host: InstanceGraph) -> dict[str, str]:
    """Deterministic fresh host ids, one per base rule-element id."""
    out: dict[str, str] = {}
    taken: set[str] = set()
    for base in bases:
        n = 1
        while (
            (fresh := f"{base}~{n}") in taken or fresh in host.nodes or fresh in host.edges
        ):
            n += 1
        out[base] = fresh
        taken.add(fresh)
    return out


def apply(rule: Rule, host: InstanceGraph, match: Morphism) -> DirectTransformation:
    """Apply the rule at an injective match of its left-hand side.

    The match is valid, so the comatch is too and the intermediate graph
    embeds in host and result: both skip their checks.
    """
    if match.source != rule.lhs or match.target != host:
        raise GraphError(f"match does not connect {rule.name}'s pattern to the host")
    deleted_nodes = rule.deleted_nodes()
    edge = dangling_edge(
        host, [match.node_map[n] for n in deleted_nodes], match.edge_image()
    )
    if edge is not None:
        raise NotApplicableError(
            f"rule {rule.name} not applicable: host edge {edge} would dangle"
        )

    intermediate = host.remove(
        (match.node_map[n] for n in deleted_nodes),
        (match.edge_map[e] for e in rule.deleted_edges()),
    )

    fresh = _fresh_ids(rule.created_nodes() + rule.created_edges(), host)

    def image(node: str) -> str:
        return fresh[node] if rule.tags[node] == CREATE else match.node_map[node]

    new_nodes = {fresh[n]: rule.nodes[n] for n in rule.created_nodes()}
    new_edges = {
        fresh[e]: Edge(rule.edges[e].type, image(rule.edges[e].src), image(rule.edges[e].tgt))
        for e in rule.created_edges()
    }
    result = intermediate.add(new_nodes, new_edges)

    comatch = Morphism._trusted(
        rule.rhs,
        result,
        {n: image(n) for n in rule.rhs.nodes},
        {
            e: (fresh[e] if rule.tags[e] == CREATE else match.edge_map[e])
            for e in rule.rhs.edges
        },
    )
    return DirectTransformation._trusted(
        rule, host, match, intermediate, result, comatch
    )


def apply_inverse(rule: Rule, host: InstanceGraph, comatch: Morphism) -> InstanceGraph:
    """Undo one application of the rule from an injective comatch of its result side.

    Fails exactly when some host edge outside the comatch image touches a
    created node's image; such a host cannot have been produced by the rule at
    this comatch, because the edge would have had to exist before its endpoint.
    """
    if comatch.source != rule.rhs or comatch.target != host:
        raise GraphError(f"comatch does not connect {rule.name}'s result side to the host")
    created_images = [comatch.node_map[n] for n in rule.created_nodes()]
    edge = dangling_edge(host, created_images, comatch.edge_image())
    if edge is not None:
        raise NotReversibleError(
            f"rule {rule.name} not reversible: host edge {edge} touches a created node"
        )

    stripped = host.remove(
        created_images, (comatch.edge_map[e] for e in rule.created_edges())
    )

    fresh = _fresh_ids(rule.deleted_nodes() + rule.deleted_edges(), host)

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
    Hosts are bucketed by `canonical_form`, and a result is new when no
    host in its bucket is `isomorphic` to it.
    """
    yield initial, ()
    ordered = sorted(rules, key=lambda r: r.name)
    seen = {canonical_form(initial): [initial]}
    frontier = [(initial, ())]
    for _ in range(depth):
        next_frontier = []
        for host, trace in frontier:
            for rule in ordered:
                for t in transformations(rule, host):
                    bucket = seen.setdefault(canonical_form(t.result), [])
                    if not any(isomorphic(t.result, kept) for kept in bucket):
                        bucket.append(t.result)
                        reached = (t.result, trace + (t,))
                        yield reached
                        next_frontier.append(reached)
        frontier = next_frontier


def canonical_form(graph: InstanceGraph) -> tuple:
    """An isomorphism invariant: the sorted multiset of node types with their
    degree signatures.

    Isomorphic graphs get equal keys, but equal keys do not prove
    isomorphism; `isomorphic` decides it.  One pass, no search.
    """
    sigs = graph.degree_signatures()
    return tuple(
        sorted((ntype, tuple(sorted(sigs[n].items()))) for n, ntype in graph.nodes.items())
    )


def isomorphic(a: InstanceGraph, b: InstanceGraph) -> bool:
    """True iff the graphs are isomorphic as typed graphs.

    With equal node and edge counts an injective morphism a -> b is a
    bijection on nodes and on edges, so one match decides it.
    """
    if a.typegraph != b.typegraph:
        return False
    if len(a.nodes) != len(b.nodes) or len(a.edges) != len(b.edges):
        return False
    return next(iter_matches(a, b), None) is not None


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
    nodes, edges = elements_from_doc(doc, "rule document")
    try:
        name = doc["name"]
        tags = {n["id"]: n["tag"] for n in doc.get("nodes", [])}
        tags.update({e["id"]: e["tag"] for e in doc.get("edges", [])})
    except (KeyError, TypeError) as exc:
        raise GraphError(f"malformed rule document: {exc}") from exc
    if not isinstance(name, str):
        raise GraphError(f"malformed rule document: rule name {name!r} is not a string")
    actor = doc.get("actor")
    if actor is not None and not isinstance(actor, str):
        raise GraphError(f"malformed rule document: rule {name}: actor must be a node id")
    call = None
    if "call" in doc:
        if not isinstance(doc["call"], dict):
            raise GraphError(f"malformed rule document: rule {name}: call must be an object")
        bindings = doc["call"].get("bindings", {})
        if not isinstance(bindings, dict) or not all(
            isinstance(v, str) for v in bindings.values()
        ):
            raise GraphError(
                f"malformed rule document: rule {name}: "
                "call bindings must map names to node ids"
            )
        operation = doc["call"].get("operation", name)
        template = doc["call"].get("document_template", "")
        if not (isinstance(operation, str) and isinstance(template, str)):
            raise GraphError(
                f"malformed rule document: rule {name}: "
                "call operation and document_template must be strings"
            )
        call = CallSpec(operation, template, bindings)
    return Rule(
        name=name,
        typegraph=typegraph,
        nodes=nodes,
        edges=edges,
        tags=tags,
        kind=doc.get("kind", "mutation"),
        call=call,
        actor=actor,
        setup_only=bool(doc.get("setup_only", False)),
        skeleton=bool(doc.get("skeleton", False)),
    )


def rules_to_doc(rules: Iterable[Rule]) -> dict:
    return {"rules": [rule_to_doc(r) for r in rules]}


def rules_from_doc(doc: dict, typegraph: TypeGraph) -> list[Rule]:
    if not isinstance(doc, dict) or not isinstance(doc.get("rules"), list):
        raise GraphError("rule document must contain a rules array")
    rules = [rule_from_doc(r, typegraph) for r in doc["rules"]]
    names = [r.name for r in rules]
    if len(set(names)) != len(names):
        raise GraphError("duplicate rule name in rule document")
    return rules
