"""Transformation rules and their application.

A rule is one element set in which every node and edge carries a change tag
(preserve, delete or create).  The classic three-graph reading is derived:
L = preserve+delete, K = preserve, R = preserve+create, so K = L intersect R
holds by construction.  One rewrite (`_rewrite`) serves both directions:
application removes the deleted elements' images at a match and adds fresh
copies of the created ones; inverse application reads the rule right to
left, undoing a step from its comatch, and is the engine primitive used to
certify that glued overlap graphs are actually reachable.
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
    _boolean,
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
    """One rule application: host => result, with the match into the host
    and the comatch into the result."""

    rule: Rule
    host: InstanceGraph
    match: Morphism
    result: InstanceGraph
    comatch: Morphism

    def created_node_ids(self) -> set[str]:
        return {self.comatch.node_map[n] for n in self.rule.created_nodes()}

    def created_ids(self) -> set[str]:
        edges = self.comatch.edge_map
        return self.created_node_ids() | {edges[e] for e in self.rule.created_edges()}

    def deleted_ids(self) -> set[str]:
        nodes, edges = self.match.node_map, self.match.edge_map
        return {nodes[n] for n in self.rule.deleted_nodes()} | {
            edges[e] for e in self.rule.deleted_edges()
        }


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


def _rewrite(
    rule: Rule, at: Morphism, old: str, new: str
) -> tuple[InstanceGraph, dict[str, str], dict[str, str]]:
    """Rewrite the host at `at`, a placement of the rule's `old` side: remove
    the images of the `old`-tagged elements, then add fresh copies of the
    `new`-tagged ones.

    `apply` reads the rule left to right (DELETE to CREATE at a match) and
    `apply_inverse` right to left (CREATE to DELETE at a comatch).  The
    caller has checked that no host edge dangles.  Returns the result and
    the node and edge images of the rule's `new` side in it.
    """
    host, node_map, edge_map, tags = at.target, at.node_map, at.edge_map, rule.tags
    new_nodes, new_edges = rule.tagged(new, nodes=True), rule.tagged(new, nodes=False)
    stripped = host.remove(
        [node_map[n] for n in rule.tagged(old, nodes=True)],
        [edge_map[e] for e in rule.tagged(old, nodes=False)],
    )
    fresh = _fresh_ids(new_nodes + new_edges, host)
    side = rule.rhs if new == CREATE else rule.lhs
    nodes = {n: fresh[n] if tags[n] == new else node_map[n] for n in side.nodes}
    edges = {e: fresh[e] if tags[e] == new else edge_map[e] for e in side.edges}
    added_edges = {}
    for e in new_edges:
        edge = rule.edges[e]
        added_edges[fresh[e]] = Edge(edge.type, nodes[edge.src], nodes[edge.tgt])
    result = stripped.add({fresh[n]: rule.nodes[n] for n in new_nodes}, added_edges)
    return result, nodes, edges


def apply(rule: Rule, host: InstanceGraph, match: Morphism) -> DirectTransformation:
    """Apply the rule at an injective match of its left-hand side.

    The match is valid, so the comatch is too and skips its checks.
    """
    if match.source != rule.lhs or match.target != host:
        raise GraphError(f"match does not connect {rule.name}'s pattern to the host")
    edge = dangling_edge(
        host, [match.node_map[n] for n in rule.deleted_nodes()], match.edge_image()
    )
    if edge is not None:
        raise NotApplicableError(
            f"rule {rule.name} not applicable: host edge {edge} would dangle"
        )
    result, nodes, edges = _rewrite(rule, match, DELETE, CREATE)
    comatch = Morphism._trusted(rule.rhs, result, nodes, edges)
    return DirectTransformation(rule, host, match, result, comatch)


def apply_inverse(rule: Rule, host: InstanceGraph, comatch: Morphism) -> InstanceGraph:
    """Undo one application of the rule from an injective comatch of its result side.

    Fails exactly when some host edge outside the comatch image touches a
    created node's image; such a host cannot have been produced by the rule at
    this comatch, because the edge would have had to exist before its endpoint.
    """
    if comatch.source != rule.rhs or comatch.target != host:
        raise GraphError(f"comatch does not connect {rule.name}'s result side to the host")
    edge = dangling_edge(
        host, [comatch.node_map[n] for n in rule.created_nodes()], comatch.edge_image()
    )
    if edge is not None:
        raise NotReversibleError(
            f"rule {rule.name} not reversible: host edge {edge} touches a created node"
        )
    return _rewrite(rule, comatch, CREATE, DELETE)[0]


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
    what = f"malformed rule document: rule {name}"
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
        setup_only=_boolean(doc.get("setup_only", False), f"{what}: setup_only"),
        skeleton=_boolean(doc.get("skeleton", False), f"{what}: skeleton"),
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
