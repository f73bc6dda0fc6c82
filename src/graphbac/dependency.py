"""Static dependency analysis between rules.

The unit of evidence is an overlap reason: a span subgraph of a source rule's
creation graph embedded into a sink rule's pattern, together with the glued
minimal host it induces.  A reason is reported only when that host is
realizable, meaning the source step can actually have produced it (inverse
application succeeds) and the sink step is applicable on it (dangling check).
One overlap enumerator (`_overlaps`) and one realizability check
(`_realize`) serve both overlap kinds, with the tag as their parameter:
produce-use overlaps of the source's creation graph (created elements plus
their endpoints), and delete overlaps of the sink's deletion graph (deleted
elements plus their endpoints), which decide whether two rules are
universally sequentially independent.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterator

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
    Rule,
    apply_inverse,
)

INDEPENDENT = "independent"
PRODUCE_USE = "produce_use"
USE_DELETE = "use_delete"


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


def _spans(graph: InstanceGraph, core_ids: set[str]) -> list[InstanceGraph]:
    """All subgraphs of the part graph using at least one element of `core_ids`.

    Deterministic order: by element count, then by sorted id tuple.
    """
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


def _part_graph(rule: Rule, tag: str) -> InstanceGraph:
    """The rule's creation graph (CREATE: created elements plus their
    endpoints, in the result side) or deletion graph (DELETE: deleted
    elements plus their endpoints, in the pattern side).

    Built on first use and kept in the rule's instance dict, as its `lhs`
    and `rhs` are.  The graph holds no reference to its rule, so keeping
    it makes no cycle for the cyclic garbage collector to break.
    """
    key = f"_part_{tag}"
    graph = rule.__dict__.get(key)
    if graph is None:
        nodes = set(rule.tagged(tag, nodes=True))
        edges = rule.tagged(tag, nodes=False)
        for e in edges:
            nodes.add(rule.edges[e].src)
            nodes.add(rule.edges[e].tgt)
        side = rule.rhs if tag == CREATE else rule.lhs
        graph = rule.__dict__[key] = side.subgraph(nodes, edges)
    return graph


def _rule_spans(rule: Rule, tag: str) -> list[InstanceGraph]:
    """`_spans` of the rule's kept part graph for the tag, enumerated on
    first use and kept beside it (shared; do not modify).  The core ids are
    the elements carrying the tag.  A rule meets every other rule as source
    and as sink, so this saves one enumeration per pair."""
    key = f"_spans_{tag}"
    spans = rule.__dict__.get(key)
    if spans is None:
        core_ids = set(rule.tagged(tag, nodes=True) + rule.tagged(tag, nodes=False))
        spans = rule.__dict__[key] = _spans(_part_graph(rule, tag), core_ids)
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
    first: Rule, second: Rule, embedding: Morphism, tag: str
) -> tuple[InstanceGraph, Morphism, Morphism] | None:
    """Glue first's result side and second's pattern, certifying both steps.

    The overlap is a span embedded by `embedding`: a span of first's
    creation graph into second's pattern (CREATE), or of second's deletion
    graph into first's result side (DELETE).  Returns (glued host, first
    comatch, second match) or None when either the first step cannot have
    produced the host or the second step cannot fire on it.  Second's
    unshared context may additionally coincide with context first
    preserves, so every such identification counts as a realization; the
    returned witness is the smallest one that works.

    Every overlap that inverse application would refuse is refused here,
    before any host is glued.  `apply_inverse` refuses a glued host when a
    host edge outside first's comatch image touches the image of a node
    first creates.  In the glued host those edges are second's pattern
    edges that the identification leaves unmapped.  An identification
    extends `base` only onto elements first preserves, so it maps no node
    onto a created node, and it maps no edge with such an endpoint, since
    a preserved edge has preserved endpoints.  Hence the refusal does not
    depend on the identification: every one is refused exactly when some
    pattern edge outside `base` has an endpoint that `base` maps onto a
    created node.  In both directions `base` maps second's pattern into
    first's result side, so the check serves both.  What is left to try is
    second's dangling condition; the inverse step then certifies the
    witness, and raises should it ever refuse one.
    """
    # `base` identifies some of second's pattern elements with first's result side
    base = {**embedding.node_map, **embedding.edge_map}
    if tag == CREATE:
        base = {image: x for x, image in base.items()}
    onto_created = {y for y, x in base.items() if first.tags[x] == CREATE}
    for y, edge in second.lhs.edges.items():
        if y not in base and (edge.src in onto_created or edge.tgt in onto_created):
            return None
    for identification in _context_identifications(first, second.lhs, base):
        glued, first_in, second_in = _glue(first.rhs, second.lhs, identification)
        if check_dangling(second_in, second.deleted_nodes()):
            apply_inverse(first, glued, first_in)
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
    outcome = _realize(source, sink, embedding, CREATE)
    if outcome is None:
        return None
    return DependencyReason(
        reason_id, source.name, sink.name, span, embedding, *outcome, tainted
    )


def _overlaps(
    first: Rule, second: Rule, tag: str
) -> Iterator[tuple[InstanceGraph, Morphism, tuple[InstanceGraph, Morphism, Morphism]]]:
    """Every realizable overlap of a (first, second) step pair, in stable order.

    CREATE: spans of first's creation graph embedded into second's pattern
    (produce-use).  DELETE: spans of second's deletion graph embedded into
    first's result side (delete overlaps).  Yields the span, its embedding
    and `_realize`'s (glued host, first comatch, second match).
    """
    if first.typegraph != second.typegraph:
        raise GraphError("rules are typed over different type graphs")
    owner, into = (first, second.lhs) if tag == CREATE else (second, first.rhs)
    seen: set[tuple] = set()
    for span in _rule_spans(owner, tag):
        for embedding in enumerate_matches(span, into):
            outcome = _realize(first, second, embedding, tag)
            if outcome is None:
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
            yield span, embedding, outcome


def dependency_reasons(source: Rule, sink: Rule) -> list[DependencyReason]:
    """Every realizable produce-use reason from source to sink, in stable order."""
    return [
        DependencyReason(
            f"{source.name}->{sink.name}#{i}", source.name, sink.name, span, embedding,
            *outcome,
        )
        for i, (span, embedding, outcome) in enumerate(_overlaps(source, sink, CREATE))
    ]


def delete_overlap_reasons(first: Rule, second: Rule) -> list[dict]:
    """Realizable overlaps in which the second rule deletes part of the first's result.

    These are the obstructions to reversing a (first, second) step pair that
    produce-use reasons do not cover.  Returned as witness records.
    """
    return [
        {
            "first_rule": first.name,
            "second_rule": second.name,
            "span_nodes": sorted(span.nodes),
            "span_edges": sorted(span.edges),
            "glued": glued,
        }
        for span, _, (glued, _, _) in _overlaps(first, second, DELETE)
    ]


def _independent(
    first: Rule, second: Rule, reasons: list[DependencyReason]
) -> bool:
    """`universally_sequentially_independent` given the pair's produce-use
    `reasons`: none, and no realizable delete overlap, looked for only
    until the first one."""
    return not reasons and next(_overlaps(first, second, DELETE), None) is None


def universally_sequentially_independent(first: Rule, second: Rule) -> bool:
    """True iff every consecutive (first, second) step pair can be reversed.

    Holds exactly when the second rule can neither use something the first
    created (no produce-use reason) nor delete something the first step's
    result still needs (no realizable delete overlap).
    """
    return _independent(first, second, dependency_reasons(first, second))


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


def _span_maps(
    t1: DirectTransformation, t2: DirectTransformation
) -> tuple[dict[str, str], dict[str, str]]:
    """The node and edge maps from t1's creation graph into t2's pattern
    that pair the elements with equal host image, in the creation graph's
    fixed order.  Their keys are the span a produce-use pair extracts."""
    creation = _part_graph(t1.rule, CREATE)
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
    return node_map, edge_map


def extract_reason(
    t1: DirectTransformation, t2: DirectTransformation
) -> DependencyReason | None:
    """The reason witnessing a produce-use pair: the span of element pairs
    with equal image, realized.  None when the pair is not produce-use, or
    when the analysis cannot realize its span, which contradicts the pair."""
    if classify_transformation_pair(t1, t2) != PRODUCE_USE:
        return None
    node_map, edge_map = _span_maps(t1, t2)
    span = _part_graph(t1.rule, CREATE).subgraph(node_map, edge_map)
    embedding = Morphism(span, t2.rule.lhs, node_map, edge_map)
    return _reason(
        f"{t1.rule.name}->{t2.rule.name}#extracted", t1.rule, t2.rule, span, embedding
    )


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
    """The reason a `reason_to_doc` document describes, certified again: its
    span must embed into the sink pattern and be realizable for these rules."""
    try:
        reason_id = doc["id"]
        source = rules_by_name[doc["source_rule"]]
        sink = rules_by_name[doc["sink_rule"]]
        span_nodes = [n["id"] for n in doc["span"]["nodes"]]
        span_edges = [e["id"] for e in doc["span"]["edges"]]
        embedding_nodes = dict(doc["embedding"]["nodes"])
        embedding_edges = dict(doc["embedding"]["edges"])
        tainted = doc.get("tainted")
    except (KeyError, TypeError, ValueError) as exc:
        raise GraphError(f"malformed reason document: {exc}") from exc
    ids = [reason_id, *span_nodes, *span_edges]
    for mapping in (embedding_nodes, embedding_edges):
        ids += [*mapping, *mapping.values()]
    if not all(isinstance(x, str) for x in ids):
        raise GraphError(f"reason {reason_id!r}: every id must be a string")
    if tainted is not None and not isinstance(tainted, bool):
        raise GraphError(f"reason {reason_id}: tainted must be true, false or null")
    span = _part_graph(source, CREATE).subgraph(span_nodes, span_edges)
    embedding = Morphism(span, sink.lhs, embedding_nodes, embedding_edges)
    reason = _reason(reason_id, source, sink, span, embedding, tainted)
    if reason is None:
        raise GraphError(f"reason {reason_id} is not realizable for these rules")
    return reason
