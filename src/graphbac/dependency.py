"""Static dependency analysis between rules.

The unit of evidence is an overlap reason: a span subgraph of a source rule's
creation graph embedded into a sink rule's pattern, together with the glued
minimal host it induces.  A reason is reported only when that host is
realizable, meaning the source step can actually have produced it (inverse
application succeeds) and the sink step is applicable on it (dangling check).
One realizability check (`_realize`) serves both overlap kinds: produce-use
overlaps of the source's creation graph, and delete overlaps of the sink's
deletion graph, which decide whether two rules are universally sequentially
independent.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable

from .core import (
    GraphError,
    InstanceGraph,
    Morphism,
    check_dangling,
    enumerate_matches,
)
from .rules import (
    CREATE,
    DELETE,
    PRESERVE,
    DirectTransformation,
    NotReversibleError,
    Rule,
    apply_inverse,
)

INDEPENDENT = "independent"
PRODUCE_USE = "produce_use"
USE_DELETE = "use_delete"


@dataclass(frozen=True)
class CreationProfile:
    """Creation graph of a rule plus its boundary nodes.

    The creation graph is the smallest subgraph of the result side containing
    every created element; the boundary is its preserved part, exactly the
    preserved endpoints of created edges.  It holds no reference to its
    rule, which keeps it (see `_rule_profile`): a cycle would leave every
    rule and its kept spans to the cyclic garbage collector.
    """

    creation: InstanceGraph
    boundary: InstanceGraph


def _profile(rule: Rule, side: InstanceGraph, tag: str) -> CreationProfile:
    nodes = set(rule.tagged(tag, nodes=True))
    edges = set(rule.tagged(tag, nodes=False))
    for e in edges:
        nodes.add(rule.edges[e].src)
        nodes.add(rule.edges[e].tgt)
    graph = side.subgraph(nodes, edges)
    boundary = graph.subgraph({n for n in nodes if rule.tags[n] != tag}, set())
    return CreationProfile(graph, boundary)


def creation_profile(rule: Rule) -> CreationProfile:
    return _profile(rule, rule.rhs, CREATE)


def deletion_profile(rule: Rule) -> CreationProfile:
    """The mirror construction over the pattern side: deleted elements plus endpoints."""
    return _profile(rule, rule.lhs, DELETE)


@dataclass(frozen=True)
class DependencyReason:
    """A realizable produce-use overlap between a source and a sink rule."""

    id: str
    source_rule: str
    sink_rule: str
    # span: subgraph of the source creation graph (ids are source rule ids)
    span: InstanceGraph
    # embedding of the span into the sink pattern
    into_sink: Morphism
    # glued minimal host (source result side ids, plus snk_* for the rest)
    glued: InstanceGraph
    # morphisms of both rule sides into the glued host
    source_comatch: Morphism
    sink_match: Morphism
    tainted: bool | None = None

    def embedding_doc(self) -> dict:
        return {
            "nodes": dict(sorted(self.into_sink.node_map.items())),
            "edges": dict(sorted(self.into_sink.edge_map.items())),
        }

    def same_span(self, other: "DependencyReason") -> bool:
        """Equality of spans as spans: same subgraph, same embedding."""
        return (
            self.source_rule == other.source_rule
            and self.sink_rule == other.sink_rule
            and set(self.span.nodes) == set(other.span.nodes)
            and set(self.span.edges) == set(other.span.edges)
            and self.into_sink.node_map == other.into_sink.node_map
            and self.into_sink.edge_map == other.into_sink.edge_map
        )


def _fresh(base: str, taken: set[str]) -> str:
    candidate = base
    n = 1
    while candidate in taken:
        candidate = f"{base}~{n}"
        n += 1
    taken.add(candidate)
    return candidate


def _glue(
    left: InstanceGraph, right: InstanceGraph, right_to_left: dict[str, str]
) -> tuple[InstanceGraph, Morphism, Morphism]:
    """Union of left and right identified along right_to_left.

    Left keeps its ids; unshared right elements get fresh snk_* ids.  Returns
    the glued graph plus the embeddings of left and right into it.
    """
    taken = set(left.nodes) | set(left.edges)
    rmap: dict[str, str] = {}
    for x in sorted(right.nodes) + sorted(right.edges):
        if x in right_to_left:
            rmap[x] = right_to_left[x]
        else:
            rmap[x] = _fresh(f"snk_{x}", taken)
    nodes = dict(left.nodes)
    edges = dict(left.edges)
    for n, t in right.nodes.items():
        image = rmap[n]
        if image in nodes:
            if nodes[image] != t:
                raise GraphError("gluing identifies nodes of different types")
        else:
            nodes[image] = t
    for e, d in right.edges.items():
        image = rmap[e]
        mapped = d._replace(src=rmap[d.src], tgt=rmap[d.tgt])
        if image in edges:
            if edges[image] != mapped:
                raise GraphError("gluing identifies incompatible edges")
        else:
            edges[image] = mapped
    glued = InstanceGraph(left.typegraph, nodes, edges)
    left_in = Morphism.inclusion(left, glued)
    right_in = Morphism(
        right,
        glued,
        {n: rmap[n] for n in right.nodes},
        {e: rmap[e] for e in right.edges},
    )
    return glued, left_in, right_in


def _spans(profile: CreationProfile) -> Iterable[InstanceGraph]:
    """All subgraphs of the profile graph using at least one non-boundary element.

    Deterministic order: by element count, then by sorted id tuple.
    """
    graph = profile.creation
    core_ids = (set(graph.nodes) | set(graph.edges)) - (
        set(profile.boundary.nodes) | set(profile.boundary.edges)
    )
    all_edges = sorted(graph.edges)
    out = []
    for k in range(len(all_edges) + 1):
        for chosen_edges in combinations(all_edges, k):
            forced = set()
            for e in chosen_edges:
                forced.add(graph.edges[e].src)
                forced.add(graph.edges[e].tgt)
            optional = sorted(set(graph.nodes) - forced)
            for j in range(len(optional) + 1):
                for extra in combinations(optional, j):
                    nodes = forced | set(extra)
                    elements = nodes | set(chosen_edges)
                    if not elements or not (elements & core_ids):
                        continue
                    out.append(graph.subgraph(nodes, chosen_edges))
    out.sort(key=lambda g: (len(g.nodes) + len(g.edges), tuple(sorted(g.nodes)), tuple(sorted(g.edges))))
    return out


def _rule_profile(rule: Rule, tag: str) -> CreationProfile:
    """The rule's creation (CREATE) or deletion (DELETE) profile, built on
    first use and kept in the rule's instance dict, as its `lhs` and `rhs`
    are.  Every pair the rule is part of, and every concrete step pair the
    oracle extracts a reason from, reads the same profile."""
    key = f"_profile_{tag}"
    profile = rule.__dict__.get(key)
    if profile is None:
        build = creation_profile if tag == CREATE else deletion_profile
        profile = rule.__dict__[key] = build(rule)
    return profile


def _rule_spans(rule: Rule, tag: str) -> list[InstanceGraph]:
    """`_spans` of the rule's kept profile for the tag, enumerated on first
    use and kept beside it (shared; do not modify).  A rule meets every
    other rule as source and as sink, so this saves one enumeration per
    pair."""
    key = f"_spans_{tag}"
    spans = rule.__dict__.get(key)
    if spans is None:
        spans = rule.__dict__[key] = _spans(_rule_profile(rule, tag))
    return spans


def _context_identifications(
    producer: Rule, pattern: InstanceGraph, base: dict[str, str]
) -> list[dict[str, str]]:
    """Every consistent way the pattern may coincide with preserved context.

    `base` maps some pattern elements onto the producer's result side (the
    span identification).  In a concrete host the remaining pattern elements
    may either be separate or coincide with elements the producer merely
    preserves — and realizability can hinge on such a coincidence, e.g. when
    the pattern deletes a node together with *all* its edges, one of which is
    an edge the producer kept.  Returns every total choice extending `base`
    (each remaining element identified with a distinct preserved producer
    element of its type, or left separate), smallest extension first, in
    deterministic order; the plain `base` itself always comes first.
    """
    rhs = producer.rhs
    free_nodes = sorted(n for n in pattern.nodes if n not in base)
    free_edges = sorted(e for e in pattern.edges if e not in base)
    candidates: dict[str, list[str]] = {}
    for y in free_nodes:
        candidates[y] = sorted(
            x
            for x, t in rhs.nodes.items()
            if t == pattern.nodes[y] and producer.tags[x] == PRESERVE
        )
    for y in free_edges:
        candidates[y] = sorted(
            x
            for x, d in rhs.edges.items()
            if d.type == pattern.edges[y].type and producer.tags[x] == PRESERVE
        )
    elements = free_nodes + free_edges
    results: list[dict[str, str]] = []

    def extend(i: int, mapping: dict[str, str]) -> None:
        if i == len(elements):
            results.append(dict(mapping))
            return
        y = elements[i]
        extend(i + 1, mapping)  # keep y a separate, fresh element
        taken = set(mapping.values())
        for x in candidates[y]:
            if x in taken:
                continue
            if y in pattern.edges:
                # an identified edge needs both endpoints identified to match
                yd, xd = pattern.edges[y], rhs.edges[x]
                if mapping.get(yd.src) != xd.src or mapping.get(yd.tgt) != xd.tgt:
                    continue
            mapping[y] = x
            extend(i + 1, mapping)
            del mapping[y]

    extend(0, dict(base))
    results.sort(key=lambda m: (len(m), tuple(sorted(m.items()))))
    return results


def _realize(
    first: Rule, second: Rule, base: dict[str, str]
) -> tuple[InstanceGraph, Morphism, Morphism] | None:
    """Glue first's result side and second's pattern, certifying both steps.

    `base` identifies some of second's pattern elements with first's result
    side (the overlap).  Returns (glued host, first comatch, second match) or
    None when either the first step cannot have produced the host or the
    second step cannot fire on it.  Second's unshared context may
    additionally coincide with context first preserves, so every such
    identification counts as a realization; the returned witness is the
    smallest one that works.
    """
    for identification in _context_identifications(first, second.lhs, base):
        glued, first_in, second_in = _glue(first.rhs, second.lhs, identification)
        try:
            apply_inverse(first, glued, first_in)
        except NotReversibleError:
            continue
        if not check_dangling(second_in, second.deleted_nodes()):
            continue
        return glued, first_in, second_in
    return None


def _reason(
    reason_id: str,
    source: Rule,
    sink: Rule,
    span: InstanceGraph,
    embedding: Morphism,
    tainted: bool | None = None,
) -> DependencyReason | None:
    """The reason for a span embedded into the sink pattern, if it is realizable."""
    sink_to_source = {
        image: x for x, image in {**embedding.node_map, **embedding.edge_map}.items()
    }
    outcome = _realize(source, sink, sink_to_source)
    if outcome is None:
        return None
    glued, source_in, sink_in = outcome
    return DependencyReason(
        id=reason_id,
        source_rule=source.name,
        sink_rule=sink.name,
        span=span,
        into_sink=embedding,
        glued=glued,
        source_comatch=source_in,
        sink_match=sink_in,
        tainted=tainted,
    )


def dependency_reasons(source: Rule, sink: Rule) -> list[DependencyReason]:
    """Every realizable produce-use reason from source to sink, in stable order."""
    if source.typegraph != sink.typegraph:
        raise GraphError("rules are typed over different type graphs")
    reasons: list[DependencyReason] = []
    seen: set[tuple] = set()
    for span in _rule_spans(source, CREATE):
        for embedding in enumerate_matches(span, sink.lhs):
            reason = _reason(
                f"{source.name}->{sink.name}#{len(reasons)}", source, sink, span, embedding
            )
            if reason is None:
                continue
            key = (
                frozenset(span.nodes),
                frozenset(span.edges),
                tuple(sorted(embedding.node_map.items())),
                tuple(sorted(embedding.edge_map.items())),
            )
            # with spans kept as concrete subgraphs, distinct keys are never
            # isomorphic as spans; this guards the construction
            if key in seen:
                raise AssertionError("duplicate span enumerated")
            seen.add(key)
            reasons.append(reason)
    return reasons


def delete_overlap_reasons(first: Rule, second: Rule) -> list[dict]:
    """Realizable overlaps in which the second rule deletes part of the first's result.

    These are the obstructions to reversing a (first, second) step pair that
    produce-use reasons do not cover.  Returned as witness records.
    """
    if first.typegraph != second.typegraph:
        raise GraphError("rules are typed over different type graphs")
    witnesses = []
    for span in _rule_spans(second, DELETE):
        for embedding in enumerate_matches(span, first.rhs):
            # the span lives in the second rule's pattern here, so its
            # embedding already maps second's ids onto first's result side
            outcome = _realize(first, second, {**embedding.node_map, **embedding.edge_map})
            if outcome is None:
                continue
            witnesses.append(
                {
                    "first_rule": first.name,
                    "second_rule": second.name,
                    "span_nodes": sorted(span.nodes),
                    "span_edges": sorted(span.edges),
                    "glued": outcome[0],
                }
            )
    return witnesses


def universally_sequentially_independent(first: Rule, second: Rule) -> bool:
    """True iff every consecutive (first, second) step pair can be reversed.

    Holds exactly when the second rule can neither use something the first
    created (no produce-use reason) nor delete something the first step's
    result still needs (no realizable delete overlap).
    """
    if dependency_reasons(first, second):
        return False
    return not delete_overlap_reasons(first, second)


def classify_transformation_pair(
    t1: DirectTransformation, t2: DirectTransformation
) -> str:
    """independent, produce_use or use_delete for a consecutive step pair."""
    if t2.host != t1.result:
        raise GraphError("steps do not chain: second host differs from first result")
    used = t2.match.node_image() | t2.match.edge_image()
    if used & t1.created_ids():
        return PRODUCE_USE
    result_image = t1.comatch.node_image() | t1.comatch.edge_image()
    if t2.deleted_ids() & result_image:
        return USE_DELETE
    return INDEPENDENT


def extract_reason(
    t1: DirectTransformation, t2: DirectTransformation
) -> DependencyReason | None:
    """The span witnessing a produce-use pair, as element pairs with equal image."""
    if classify_transformation_pair(t1, t2) != PRODUCE_USE:
        return None
    creation = _rule_profile(t1.rule, CREATE).creation
    host_to_sink_node = {image: n for n, image in t2.match.node_map.items()}
    host_to_sink_edge = {image: e for e, image in t2.match.edge_map.items()}
    node_map = {}
    for n in creation.nodes:
        image = t1.comatch.node_map[n]
        if image in host_to_sink_node:
            node_map[n] = host_to_sink_node[image]
    edge_map = {}
    for e in creation.edges:
        image = t1.comatch.edge_map[e]
        if image in host_to_sink_edge:
            edge_map[e] = host_to_sink_edge[image]
    span = creation.subgraph(node_map, edge_map)
    embedding = Morphism(span, t2.rule.lhs, node_map, edge_map)
    reason = _reason(
        f"{t1.rule.name}->{t2.rule.name}#extracted", t1.rule, t2.rule, span, embedding
    )
    if reason is None:
        raise AssertionError("extracted span from a concrete pair must be realizable")
    return reason


def reason_to_doc(reason: DependencyReason) -> dict:
    return {
        "id": reason.id,
        "source_rule": reason.source_rule,
        "sink_rule": reason.sink_rule,
        "span": reason.span.to_doc(),
        "embedding": reason.embedding_doc(),
        "glued": reason.glued.to_doc(),
        "tainted": reason.tainted,
    }


def reason_from_doc(doc: dict, rules_by_name: dict[str, Rule]) -> DependencyReason:
    try:
        source = rules_by_name[doc["source_rule"]]
        sink = rules_by_name[doc["sink_rule"]]
        span_nodes = [n["id"] for n in doc["span"]["nodes"]]
        span_edges = [e["id"] for e in doc["span"]["edges"]]
        embedding_nodes = dict(doc["embedding"]["nodes"])
        embedding_edges = dict(doc["embedding"]["edges"])
    except KeyError as exc:
        raise GraphError(f"malformed reason document: {exc}") from exc
    span = _rule_profile(source, CREATE).creation.subgraph(span_nodes, span_edges)
    embedding = Morphism(span, sink.lhs, embedding_nodes, embedding_edges)
    reason = _reason(doc["id"], source, sink, span, embedding, doc.get("tainted"))
    if reason is None:
        raise GraphError(f"reason {doc.get('id')} is not realizable for these rules")
    return reason
