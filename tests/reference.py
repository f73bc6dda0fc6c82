"""A slow, plain reference engine for the differential tests.

Each differential test runs a program function and the function of the same
job here on the same input, and asserts that both give the same answer
(McKeeman, "Differential Testing for Software", Digital Technical Journal
10(1), 1998).  A fault in the program's tuned core then shows as a
difference, unless the reference shares it, so the reference shares none of
that core: it is written for reading, not for speed.

Import rule: from `graphbac` this module takes only data types: `Edge`,
`InstanceGraph` (its validating constructor and its `nodes` and `edges`
dicts), `Morphism` (its validating constructor and its maps), `Rule` with
its tag constants, `DependencyReason` and the error classes; the tests may
build its inputs with the type graphs and document parsing of the package.
It calls no matcher, rewrite, isomorphism test, search, gluing or overlap
function of the program.  Every graph it builds goes through the
validating `InstanceGraph` constructor, and every morphism through the
validating `Morphism` constructor.

What it holds, each layer on the ones before it:
- graph edits (`add`, `remove`, `subgraph`);
- a backtracking matcher over all same-type host nodes (`matches`), with
  no index, signature or cache;
- one rewrite behind `apply` and `apply_inverse`, with its own fresh ids
  and dangling check, and every step of a rule (`steps`);
- isomorphism as an injective match between graphs of equal size, and a
  breadth-first `explore` that steps every rule;
- the classification of a consecutive step pair, spans, gluing and context
  identifications, and from them produce-use reasons, delete overlaps, the
  universal-independence verdict and the reason a concrete pair extracts;
- the oracle: a pair's switched steps (`switched_steps`) and the
  disagreements between the analysis and every concrete step pair.  The
  oracle receives the analysis's verdict functions as arguments, so a fault
  planted in them reaches it as it reaches the program's oracle.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import combinations, product
from typing import Callable, Iterable, Iterator, NamedTuple

from graphbac.core import Edge, GraphError, InstanceGraph, Morphism
from graphbac.dependency import DependencyReason
from graphbac.rules import (
    CREATE,
    DELETE,
    PRESERVE,
    NotApplicableError,
    NotReversibleError,
    Rule,
)

INDEPENDENT = "independent"
PRODUCE_USE = "produce_use"
USE_DELETE = "use_delete"


# ---- graph edits -----------------------------------------------------------


def add(g: InstanceGraph, nodes: dict, edges: dict) -> InstanceGraph:
    """The graph with the new elements, whose ids must be fresh."""
    clash = (set(nodes) | set(edges)) & (set(g.nodes) | set(g.edges))
    if clash:
        raise GraphError(f"ids already present: {sorted(clash)}")
    return InstanceGraph(g.typegraph, {**g.nodes, **nodes}, {**g.edges, **edges})


def remove(
    g: InstanceGraph, node_ids: Iterable[str], edge_ids: Iterable[str]
) -> InstanceGraph:
    """The graph without the given elements; ids it lacks are ignored."""
    node_ids, edge_ids = set(node_ids), set(edge_ids)
    return InstanceGraph(
        g.typegraph,
        {n: t for n, t in g.nodes.items() if n not in node_ids},
        {e: d for e, d in g.edges.items() if e not in edge_ids},
    )


def subgraph(
    g: InstanceGraph, node_ids: Iterable[str], edge_ids: Iterable[str]
) -> InstanceGraph:
    """The graph's elements with the given ids."""
    node_ids, edge_ids = set(node_ids), set(edge_ids)
    missing = (node_ids - set(g.nodes)) | (edge_ids - set(g.edges))
    if missing:
        raise GraphError(f"subgraph references unknown ids: {sorted(missing)}")
    return InstanceGraph(
        g.typegraph, {n: g.nodes[n] for n in node_ids}, {e: g.edges[e] for e in edge_ids}
    )


# ---- matching --------------------------------------------------------------


def _injections(pattern: InstanceGraph, host: InstanceGraph) -> Iterator[tuple[dict, dict]]:
    """The node and edge maps of every injective typed morphism pattern ->
    host.  Pattern nodes are placed in id order, each on every unused host
    node of its type; a placement stops as soon as a pattern edge between
    placed nodes has no host edge of its type between their images.  The
    pattern edges are then placed, in id order, on unused host edges."""
    if pattern.typegraph != host.typegraph:
        raise GraphError("pattern and host are typed over different type graphs")
    pattern_nodes, pattern_edges = sorted(pattern.nodes), sorted(pattern.edges)
    # each pattern edge is checked once its later end, in id order, is placed
    closing: dict[str, list[Edge]] = {n: [] for n in pattern_nodes}
    for edge in pattern.edges.values():
        closing[max(edge.src, edge.tgt)].append(edge)
    host_nodes, host_edges = sorted(host.nodes), set(host.edges.values())
    node_map: dict[str, str] = {}
    edge_map: dict[str, str] = {}

    def image(edge: Edge) -> Edge:
        return Edge(edge.type, node_map[edge.src], node_map[edge.tgt])

    def place_edges(k: int) -> Iterator[tuple[dict, dict]]:
        if k == len(pattern_edges):
            yield dict(node_map), dict(edge_map)
            return
        e = pattern_edges[k]
        for h, edge in host.edges.items():
            if edge == image(pattern.edges[e]) and h not in edge_map.values():
                edge_map[e] = h
                yield from place_edges(k + 1)
                del edge_map[e]

    def place_nodes(i: int) -> Iterator[tuple[dict, dict]]:
        if i == len(pattern_nodes):
            yield from place_edges(0)
            return
        n = pattern_nodes[i]
        for h in host_nodes:
            if host.nodes[h] != pattern.nodes[n] or h in node_map.values():
                continue
            node_map[n] = h
            if all(image(edge) in host_edges for edge in closing[n]):
                yield from place_nodes(i + 1)
            del node_map[n]

    yield from place_nodes(0)


def matches(pattern: InstanceGraph, host: InstanceGraph) -> list[Morphism]:
    """Every injective typed morphism pattern -> host, sorted by the images
    of the pattern's nodes, then of its edges, each in id order."""
    found = [Morphism(pattern, host, *maps) for maps in _injections(pattern, host)]
    return sorted(
        found,
        key=lambda m: (
            tuple(m.node_map[n] for n in sorted(m.node_map)),
            tuple(m.edge_map[e] for e in sorted(m.edge_map)),
        ),
    )


def dangling_edge(
    host: InstanceGraph, node_ids: Iterable[str], exempt: Iterable[str]
) -> str | None:
    """The lowest-id host edge outside `exempt` with an end among the nodes."""
    node_ids, exempt = set(node_ids), set(exempt)
    return min(
        (
            e
            for e, edge in host.edges.items()
            if (edge.src in node_ids or edge.tgt in node_ids) and e not in exempt
        ),
        default=None,
    )


# ---- rule steps ------------------------------------------------------------


@dataclass(frozen=True)
class Step:
    """One rule application: host => result, with its match and comatch."""

    rule: Rule
    host: InstanceGraph
    match: Morphism
    result: InstanceGraph
    comatch: Morphism


def tagged(rule: Rule, tag: str) -> tuple[list[str], list[str]]:
    """The rule's nodes and its edges that carry the tag, each sorted by id."""
    return (
        sorted(n for n in rule.nodes if rule.tags[n] == tag),
        sorted(e for e in rule.edges if rule.tags[e] == tag),
    )


def fresh_ids(bases: Iterable[str], host: InstanceGraph) -> dict[str, str]:
    """For each base id, `base~n` for the least n >= 1 the host does not use."""
    out = {}
    for base in bases:
        n = 1
        while f"{base}~{n}" in host.nodes or f"{base}~{n}" in host.edges:
            n += 1
        out[base] = f"{base}~{n}"
    return out


def _rewrite(
    rule: Rule, at: Morphism, old: str, new: str
) -> tuple[InstanceGraph, Morphism]:
    """Remove the images of the rule's `old`-tagged elements at `at` and add
    fresh copies of its `new`-tagged ones.  Returns the result and the
    morphism of the rule's `new` side (right-hand side for CREATE, pattern
    for DELETE) into it."""
    host = at.target
    old_nodes, old_edges = tagged(rule, old)
    new_nodes, new_edges = tagged(rule, new)
    fresh = fresh_ids(new_nodes + new_edges, host)
    side = rule.rhs if new == CREATE else rule.lhs
    node_map = {n: fresh[n] if n in fresh else at.node_map[n] for n in side.nodes}
    edge_map = {e: fresh[e] if e in fresh else at.edge_map[e] for e in side.edges}
    gone = {at.node_map[n] for n in old_nodes} | {at.edge_map[e] for e in old_edges}
    nodes = {n: t for n, t in host.nodes.items() if n not in gone}
    nodes.update((fresh[n], rule.nodes[n]) for n in new_nodes)
    edges = {e: edge for e, edge in host.edges.items() if e not in gone}
    for e in new_edges:
        edge = rule.edges[e]
        edges[fresh[e]] = Edge(edge.type, node_map[edge.src], node_map[edge.tgt])
    result = InstanceGraph(host.typegraph, nodes, edges)
    return result, Morphism(side, result, node_map, edge_map)


def apply(rule: Rule, host: InstanceGraph, match: Morphism) -> Step:
    """The rule's step at a match of its pattern; refused when a host edge
    outside the match touches a node the rule deletes."""
    if match.source != rule.lhs or match.target != host:
        raise GraphError(f"match does not connect {rule.name}'s pattern to the host")
    deleted = [match.node_map[n] for n in tagged(rule, DELETE)[0]]
    edge = dangling_edge(host, deleted, match.edge_map.values())
    if edge is not None:
        raise NotApplicableError(
            f"rule {rule.name} not applicable: host edge {edge} would dangle"
        )
    result, comatch = _rewrite(rule, match, DELETE, CREATE)
    return Step(rule, host, match, result, comatch)


def apply_inverse(rule: Rule, host: InstanceGraph, comatch: Morphism) -> InstanceGraph:
    """The host a step of the rule came from, read back from its comatch;
    refused when a host edge outside the comatch touches a created node."""
    if comatch.source != rule.rhs or comatch.target != host:
        raise GraphError(f"comatch does not connect {rule.name}'s result side to the host")
    created = [comatch.node_map[n] for n in tagged(rule, CREATE)[0]]
    edge = dangling_edge(host, created, comatch.edge_map.values())
    if edge is not None:
        raise NotReversibleError(
            f"rule {rule.name} not reversible: host edge {edge} touches a created node"
        )
    return _rewrite(rule, comatch, CREATE, DELETE)[0]


def steps(rule: Rule, host: InstanceGraph) -> list[Step]:
    """Every step of the rule on the host, in match order."""
    out = []
    for match in matches(rule.lhs, host):
        try:
            out.append(apply(rule, host, match))
        except NotApplicableError:
            continue
    return out


# ---- isomorphism and the state space ----------------------------------------


def isomorphic(a: InstanceGraph, b: InstanceGraph) -> bool:
    """True iff some injective typed morphism a -> b exists between graphs
    with as many nodes and edges of each type: it is then a bijection."""
    def sizes(g: InstanceGraph) -> tuple[Counter, Counter]:
        return Counter(g.nodes.values()), Counter(e.type for e in g.edges.values())

    return (
        a.typegraph == b.typegraph
        and sizes(a) == sizes(b)
        and next(_injections(a, b), None) is not None
    )


def explore(
    rules: Iterable[Rule], initial: InstanceGraph, depth: int
) -> Iterator[tuple[InstanceGraph, tuple[Step, ...]]]:
    """Every host reachable in at most `depth` steps, one per isomorphism
    class, breadth first, with the steps that reached it first: each
    frontier host is stepped by every rule, in name order."""
    yield initial, ()
    ordered = sorted(rules, key=lambda r: r.name)
    kept = [initial]
    frontier = [(initial, ())]
    for _ in range(depth):
        next_frontier = []
        for host, trace in frontier:
            for rule in ordered:
                for t in steps(rule, host):
                    if not any(isomorphic(t.result, k) for k in kept):
                        kept.append(t.result)
                        reached = (t.result, trace + (t,))
                        yield reached
                        next_frontier.append(reached)
        frontier = next_frontier


def reachable_hosts(
    rules: Iterable[Rule], initial: InstanceGraph, depth: int
) -> list[InstanceGraph]:
    """The hosts `explore` yields."""
    return [host for host, _ in explore(rules, initial, depth)]


# ---- step pairs, spans and overlaps -----------------------------------------


def _images(m: Morphism) -> set[str]:
    return set(m.node_map.values()) | set(m.edge_map.values())


def classify(t1: Step, t2: Step) -> str:
    """independent, produce_use or use_delete for a consecutive step pair."""
    if t2.host != t1.result:
        raise GraphError("steps do not chain: second host differs from first result")
    created_nodes, created_edges = tagged(t1.rule, CREATE)
    created = {t1.comatch.node_map[n] for n in created_nodes}
    created |= {t1.comatch.edge_map[e] for e in created_edges}
    if _images(t2.match) & created:
        return PRODUCE_USE
    deleted_nodes, deleted_edges = tagged(t2.rule, DELETE)
    deleted = {t2.match.node_map[n] for n in deleted_nodes}
    deleted |= {t2.match.edge_map[e] for e in deleted_edges}
    if deleted & _images(t1.comatch):
        return USE_DELETE
    return INDEPENDENT


def part_graph(rule: Rule, tag: str) -> InstanceGraph:
    """The elements carrying the tag with their endpoints: the creation
    graph in the right-hand side (CREATE) or the deletion graph in the
    pattern (DELETE)."""
    nodes, edges = tagged(rule, tag)
    ends = {rule.edges[e].src for e in edges} | {rule.edges[e].tgt for e in edges}
    return subgraph(rule.rhs if tag == CREATE else rule.lhs, set(nodes) | ends, edges)


def spans(rule: Rule, tag: str) -> list[InstanceGraph]:
    """Every subgraph of the rule's part graph for the tag with at least one
    element carrying the tag, by size, then by sorted node and edge ids."""
    graph = part_graph(rule, tag)
    out = []
    for k in range(len(graph.edges) + 1):
        for edges in combinations(sorted(graph.edges), k):
            ends = {graph.edges[e].src for e in edges} | {graph.edges[e].tgt for e in edges}
            optional = sorted(set(graph.nodes) - ends)
            for j in range(len(optional) + 1):
                for extra in combinations(optional, j):
                    nodes = ends | set(extra)
                    if any(rule.tags[x] == tag for x in (*nodes, *edges)):
                        out.append(subgraph(graph, nodes, edges))
    return sorted(
        out,
        key=lambda g: (len(g.nodes) + len(g.edges), sorted(g.nodes), sorted(g.edges)),
    )


def glue(
    left: InstanceGraph, right: InstanceGraph, right_to_left: dict[str, str]
) -> tuple[InstanceGraph, Morphism, Morphism]:
    """The union of left and right with each right element in
    `right_to_left` taken as its left image.  The other right elements get
    fresh ids `snk_<id>` (`snk_<id>~n` when taken), in id order, nodes
    first.  Returns the glued graph and the morphisms of both into it."""
    taken = set(left.nodes) | set(left.edges)
    rename = dict(right_to_left)
    for x in sorted(right.nodes) + sorted(right.edges):
        if x not in rename:
            fresh, n = f"snk_{x}", 1
            while fresh in taken:
                fresh, n = f"snk_{x}~{n}", n + 1
            taken.add(fresh)
            rename[x] = fresh
    nodes, edges = dict(left.nodes), dict(left.edges)
    for x, ntype in right.nodes.items():
        if nodes.setdefault(rename[x], ntype) != ntype:
            raise GraphError("gluing identifies nodes of different types")
    for x, edge in right.edges.items():
        image = Edge(edge.type, rename[edge.src], rename[edge.tgt])
        if edges.setdefault(rename[x], image) != image:
            raise GraphError("gluing identifies incompatible edges")
    glued = InstanceGraph(left.typegraph, nodes, edges)
    return (
        glued,
        Morphism(left, glued, {n: n for n in left.nodes}, {e: e for e in left.edges}),
        Morphism(
            right,
            glued,
            {n: rename[n] for n in right.nodes},
            {e: rename[e] for e in right.edges},
        ),
    )


def context_identifications(
    producer: Rule, pattern: InstanceGraph, base: dict[str, str]
) -> list[dict[str, str]]:
    """Every extension of `base` (pattern elements -> the producer's
    right-hand side) in which each other pattern element either stays
    separate or is identified with a distinct element of its type that the
    producer preserves; an identified edge needs both endpoints identified
    with the endpoints of its image.  Smallest extension first, then by
    sorted items, so `base` itself comes first."""
    rhs = producer.rhs
    kept_nodes = [x for x in sorted(rhs.nodes) if producer.tags[x] == PRESERVE]
    kept_edges = [x for x in sorted(rhs.edges) if producer.tags[x] == PRESERVE]
    free_nodes = sorted(n for n in pattern.nodes if n not in base)
    free_edges = sorted(e for e in pattern.edges if e not in base)

    def injective(mapping: dict[str, str]) -> bool:
        return len(set(mapping.values())) == len(mapping)

    out = []
    node_options = [
        [None, *(x for x in kept_nodes if rhs.nodes[x] == pattern.nodes[y])]
        for y in free_nodes
    ]
    for node_choice in product(*node_options):
        with_nodes = dict(base)
        with_nodes.update(
            (y, x) for y, x in zip(free_nodes, node_choice) if x is not None
        )
        if not injective(with_nodes):
            continue
        edge_options = []
        for y in free_edges:
            edge = pattern.edges[y]
            image = Edge(edge.type, with_nodes.get(edge.src), with_nodes.get(edge.tgt))
            edge_options.append([None, *(x for x in kept_edges if rhs.edges[x] == image)])
        for edge_choice in product(*edge_options):
            mapping = dict(with_nodes)
            mapping.update(
                (y, x) for y, x in zip(free_edges, edge_choice) if x is not None
            )
            if injective(mapping):
                out.append(mapping)
    return sorted(out, key=lambda m: (len(m), sorted(m.items())))


def realize(
    first: Rule, second: Rule, base: dict[str, str]
) -> tuple[InstanceGraph, Morphism, Morphism] | None:
    """The first context identification of `base` (second's pattern ->
    first's right-hand side) whose glued host first's step can have made
    (inverse application succeeds) and second's step can fire on (no
    dangling edge): the glued host, first's comatch and second's match."""
    for identification in context_identifications(first, second.lhs, base):
        glued, first_in, second_in = glue(first.rhs, second.lhs, identification)
        try:
            apply_inverse(first, glued, first_in)
        except NotReversibleError:
            continue
        deleted = [second_in.node_map[n] for n in tagged(second, DELETE)[0]]
        if dangling_edge(glued, deleted, second_in.edge_map.values()) is None:
            return glued, first_in, second_in
    return None


def _reason(
    reason_id: str, source: Rule, sink: Rule, span: InstanceGraph, embedding: Morphism
) -> DependencyReason | None:
    """The reason for a span of source's creation graph embedded into
    sink's pattern, when it is realizable."""
    maps = {**embedding.node_map, **embedding.edge_map}
    outcome = realize(source, sink, {image: x for x, image in maps.items()})
    if outcome is None:
        return None
    return DependencyReason(reason_id, source.name, sink.name, span, embedding, *outcome)


def dependency_reasons(source: Rule, sink: Rule) -> list[DependencyReason]:
    """Every realizable produce-use reason: each span of source's creation
    graph, embedded every way into sink's pattern."""
    if source.typegraph != sink.typegraph:
        raise GraphError("rules are typed over different type graphs")
    reasons = []
    for span in spans(source, CREATE):
        for embedding in matches(span, sink.lhs):
            reason_id = f"{source.name}->{sink.name}#{len(reasons)}"
            reason = _reason(reason_id, source, sink, span, embedding)
            if reason is not None:
                reasons.append(reason)
    return reasons


def delete_overlap_reasons(first: Rule, second: Rule) -> list[dict]:
    """Every realizable delete overlap: each span of second's deletion
    graph, embedded every way into first's right-hand side."""
    if first.typegraph != second.typegraph:
        raise GraphError("rules are typed over different type graphs")
    witnesses = []
    for span in spans(second, DELETE):
        for embedding in matches(span, first.rhs):
            outcome = realize(first, second, {**embedding.node_map, **embedding.edge_map})
            if outcome is not None:
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


def verdicts(
    pairs: Iterable[tuple[Rule, Rule]]
) -> dict[tuple[str, str], tuple[bool, int]]:
    """(first name, second name) -> (universally sequentially independent,
    number of produce-use reasons) for each pair.  A pair is independent
    when it has neither a produce-use reason nor a delete overlap."""
    out = {}
    for first, second in pairs:
        reasons = dependency_reasons(first, second)
        independent = not reasons and not delete_overlap_reasons(first, second)
        out[first.name, second.name] = independent, len(reasons)
    return out


def span_maps(t1: Step, t2: Step) -> tuple[dict[str, str], dict[str, str]]:
    """The node and edge maps from t1's creation graph into t2's pattern
    that pair the elements with the same host image."""
    creation = part_graph(t1.rule, CREATE)
    sink_of = {image: y for y, image in {**t2.match.node_map, **t2.match.edge_map}.items()}
    images = {**t1.comatch.node_map, **t1.comatch.edge_map}
    node_map = {n: sink_of[images[n]] for n in creation.nodes if images[n] in sink_of}
    edge_map = {e: sink_of[images[e]] for e in creation.edges if images[e] in sink_of}
    return node_map, edge_map


def extract_reason(t1: Step, t2: Step) -> DependencyReason | None:
    """The reason a produce-use pair witnesses, its `span_maps` realized;
    None for another pair, or when the span is not realizable."""
    if classify(t1, t2) != PRODUCE_USE:
        return None
    node_map, edge_map = span_maps(t1, t2)
    span = subgraph(part_graph(t1.rule, CREATE), node_map, edge_map)
    embedding = Morphism(span, t2.rule.lhs, node_map, edge_map)
    reason_id = f"{t1.rule.name}->{t2.rule.name}#extracted"
    return _reason(reason_id, t1.rule, t2.rule, span, embedding)


def same_span(a: DependencyReason, b: DependencyReason) -> bool:
    """The same rules, the same span elements and the same embedding."""

    def span_of(r: DependencyReason) -> tuple:
        return (
            r.source_rule,
            r.sink_rule,
            set(r.span.nodes),
            set(r.span.edges),
            r.into_sink.node_map,
            r.into_sink.edge_map,
        )

    return span_of(a) == span_of(b)


# ---- the oracle ------------------------------------------------------------


def step_at(rule: Rule, host: InstanceGraph, match: Morphism) -> Step:
    """The rule's step on the host at the match's images, the match validated."""
    return apply(rule, host, Morphism(rule.lhs, host, match.node_map, match.edge_map))


def switched_steps(t1: Step, t2: Step) -> tuple[Step, Step]:
    """(t2', t1'): the second step applied first, then the first; both
    matches carry over unchanged."""
    t2p = step_at(t2.rule, t1.host, t2.match)
    return t2p, step_at(t1.rule, t2p.result, t1.match)


def pairs(
    first: Rule, second: Rule, hosts: Iterable[InstanceGraph]
) -> Iterator[tuple[Step, Step]]:
    """Every consecutive (first, second) step pair from each host."""
    for host in hosts:
        for t1 in steps(first, host):
            for t2 in steps(second, t1.result):
                yield t1, t2


def witness_pairs(
    first: Rule, second: Rule, glued: InstanceGraph, comatch: Morphism
) -> Iterator[tuple[Step, Step]]:
    """The pairs from the host a static witness says first's step came from."""
    try:
        before = apply_inverse(first, glued, comatch)
    except NotReversibleError:
        return
    yield from pairs(first, second, [before])


def realizes(source: Rule, sink: Rule, reason: DependencyReason) -> bool:
    """True when a concrete pair from the reason's witness extracts its span."""
    for t1, t2 in witness_pairs(source, sink, reason.glued, reason.source_comatch):
        extracted = extract_reason(t1, t2)
        if extracted is not None and same_span(extracted, reason):
            return True
    return False


def produce_use_disagreements(
    source: Rule,
    sink: Rule,
    walk: list[tuple[Step, Step]],
    reported: list[DependencyReason],
    realized: list[bool],
) -> list[str]:
    """Each produce-use pair of the walk whose span is no reported reason,
    and each reported reason no concrete pair realizes."""
    out = []
    for t1, t2 in walk:
        if classify(t1, t2) != PRODUCE_USE:
            continue
        extracted = extract_reason(t1, t2)
        if extracted is None:
            node_map, edge_map = span_maps(t1, t2)
            out.append(
                f"{source.name}->{sink.name}: concrete pair over span "
                f"{sorted(node_map) + sorted(edge_map)} is not realizable "
                "by the analysis"
            )
        elif not any(same_span(extracted, r) for r in reported):
            out.append(
                f"{source.name}->{sink.name}: concrete pair over span "
                f"{sorted(extracted.span.nodes) + sorted(extracted.span.edges)} "
                "matches no reported reason"
            )
    for reason, ok in zip(reported, realized):
        if not ok:
            out.append(f"{reason.id}: reported reason has no concrete realization")
    return out


def delete_overlap_realized(first: Rule, second: Rule, overlaps: list[dict]) -> bool:
    """True when a delete-overlap witness gives a dependent concrete pair."""
    for witness in overlaps:
        glued = witness["glued"]
        rhs = first.rhs
        comatch = Morphism(rhs, glued, {n: n for n in rhs.nodes}, {e: e for e in rhs.edges})
        if any(
            classify(t1, t2) != INDEPENDENT
            for t1, t2 in witness_pairs(first, second, glued, comatch)
        ):
            return True
    return False


def independence_disagreements(
    first: Rule,
    second: Rule,
    walk: list[tuple[Step, Step]],
    verdict: bool,
    witnessed: bool,
) -> list[str]:
    """The universal-independence verdict against every pair of the walk:
    a dependent pair contradicts a verdict of independence, an independent
    pair must switch to an isomorphic result, and a verdict of dependence
    needs a dependent pair on some witness host (`witnessed`)."""
    pair = f"{first.name};{second.name}"
    out = []
    for t1, t2 in walk:
        cls = classify(t1, t2)
        if cls != INDEPENDENT:
            if verdict:
                out.append(
                    f"{pair}: declared universally independent "
                    f"but a concrete pair is {cls}"
                )
            continue
        try:
            t1p = switched_steps(t1, t2)[1]
        except GraphError as exc:
            out.append(f"{pair}: independent pair is not switchable ({exc})")
            continue
        if not isomorphic(t1p.result, t2.result):
            out.append(f"{pair}: switched order yields a different result")
    if not verdict and not witnessed:
        out.append(
            f"{pair}: declared dependent but no concrete "
            "dependent pair exists on any witness host"
        )
    return out


class Report(NamedTuple):
    """What `oracle` found: hosts explored, rule pairs checked, and the
    disagreements."""

    hosts: int
    pairs: int
    disagreements: list[str]


def oracle(
    analyzed: Iterable[Rule],
    all_rules: Iterable[Rule],
    initial: InstanceGraph,
    depth: int,
    *,
    dependency_reasons: Callable[[Rule, Rule], list[DependencyReason]],
    universally_sequentially_independent: Callable[[Rule, Rule], bool],
    delete_overlap_reasons: Callable[[Rule, Rule], list[dict]],
) -> Report:
    """The analysis's verdicts, given as its three functions, against every
    consecutive step pair from the hosts reachable in `depth` steps; the
    disagreements ordered by pair (rules in name order), produce-use ones
    first."""
    analyzed = sorted(analyzed, key=lambda r: r.name)
    hosts = reachable_hosts(all_rules, initial, depth)
    firsts = {a.name: [t for host in hosts for t in steps(a, host)] for a in analyzed}
    out = []
    for a in analyzed:
        for b in analyzed:
            walk = [(t1, t2) for t1 in firsts[a.name] for t2 in steps(b, t1.result)]
            reported = dependency_reasons(a, b)
            realized = [realizes(a, b, r) for r in reported]
            witnessed = any(realized) or delete_overlap_realized(
                a, b, delete_overlap_reasons(a, b)
            )
            verdict = universally_sequentially_independent(a, b)
            out += produce_use_disagreements(a, b, walk, reported, realized)
            out += independence_disagreements(a, b, walk, verdict, witnessed)
    return Report(len(hosts), len(analyzed) ** 2, out)
