"""Brute-force semantic oracle for the static analysis.

Explores the concrete state space of a rule system up to a bounded number of
steps and compares what actually happens there against what the static
analysis reports: every concrete produce-use pair must match a reported
reason, every reported reason must be concretely realizable, and a pair of
rules declared universally independent must never exhibit a dependent
consecutive pair (and independent pairs must commute up to isomorphism).
The reachable states come from `rules.explore`, the same breadth-first search
the planner uses for setup steps.

Each ordered rule pair is checked against one concrete walk: the first
rule's steps from every reachable host, each followed by every step of the
second rule, each step pair classified once.  Every analyzed rule's
matches are enumerated once on each reachable host, and its first steps
are taken at them; both are kept for the whole run.  A second step's
matches are not searched for on the first step's result: they are carried
from the second rule's matches on the first step's host
(`core.matches_after`), which keeps each host match that touches nothing
the first step deleted and searches only around what it created.  Every
step still goes through `transformations`.  The walks of (a, b) and
(b, a) are made and held together, and dropped when both pairs are done.
Both checks read the walk, the pair's reported reasons and whether each
reason is concretely realizable, all computed once, and each span a
concrete produce-use pair extracts is realized once per run.

An independent pair commutes when its switched result is isomorphic to the
original one.  By the local Church-Rosser theorem the switched steps use
the original matches, so the walk already holds them: t2' is a first step
of the second rule on t1's host, and t1' a step of the first rule after
t2', in the walk of the reversed pair.  The oracle looks both up there and
applies a rule only for a step the walk lacks.  `isomorphic` then decides
whether the two results are the same state: at once when the switched
result has the original's very nodes and edges, else by one match search.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Iterable, Iterator, Sequence

from .core import GraphError, InstanceGraph, Morphism, enumerate_matches, matches_after
from .dependency import (
    INDEPENDENT,
    PRODUCE_USE,
    DependencyReason,
    _span_maps,
    classify_transformation_pair,
    delete_overlap_reasons,
    dependency_reasons,
    extract_reason,
    universally_sequentially_independent,
)
from .rules import (
    DirectTransformation,
    NotReversibleError,
    Rule,
    apply,
    apply_inverse,
    explore,
    isomorphic,
    transformations,
)


def reachable_hosts(
    rules: Iterable[Rule], initial: InstanceGraph, depth: int
) -> list[InstanceGraph]:
    """All hosts reachable in at most `depth` steps, one per isomorphism class."""
    return [host for host, _ in explore(rules, initial, depth)]


StepPair = tuple[DirectTransformation, DirectTransformation, str]
# the reason a produce-use pair extracts, None when the analysis cannot
# realize its span (see `extract_reason`)
Extract = Callable[
    [DirectTransformation, DirectTransformation], DependencyReason | None
]
# (t2', t1') for an independent pair (t1, t2): the second step applied
# first on t1's host, then the first step, both at their original matches
Switch = Callable[
    [DirectTransformation, DirectTransformation],
    tuple[DirectTransformation, DirectTransformation],
]
# one rule's steps by host identity and match images (see `_index`)
StepIndex = dict[tuple, DirectTransformation]


def _step_pairs(
    firsts: Iterable[DirectTransformation],
    second: Rule,
    before: dict[int, list[Morphism]] | None = None,
) -> Iterator[StepPair]:
    """Every second-rule step after each first step, with the pair's class.

    `before`, when given, holds the second rule's matches on each first
    step's host, by host identity, and the matches on each first step's
    result are carried from them (`matches_after`), not searched again.
    """
    for t1 in firsts:
        matches = None
        if before is not None:
            matches = matches_after(
                second.lhs, before[id(t1.host)], t1.result, t1.deleted_ids(), t1.created_ids()
            )
        for t2 in transformations(second, t1.result, matches):
            yield t1, t2, classify_transformation_pair(t1, t2)


def _extractor() -> Extract:
    """`extract_reason` for produce-use pairs, each span realized once.

    The span and its embedding are cheap to read off a pair; realizing them
    is not, and many pairs extract the same span.  The returned function
    keeps each realization by (source, sink, embedding), which also names
    the span, its domain.
    """
    reasons: dict[tuple, DependencyReason | None] = {}

    def extract(
        t1: DirectTransformation, t2: DirectTransformation
    ) -> DependencyReason | None:
        node_map, edge_map = _span_maps(t1, t2)
        key = (
            t1.rule.name, t2.rule.name, tuple(node_map.items()), tuple(edge_map.items())
        )
        if key not in reasons:
            reasons[key] = extract_reason(t1, t2)
        return reasons[key]

    return extract


def produce_use_disagreements(
    source: Rule,
    sink: Rule,
    steps: Sequence[StepPair],
    reported: Sequence[DependencyReason],
    realized: Sequence[bool],
    extract: Extract,
) -> list[str]:
    """Completeness and soundness of the reported reasons for one rule pair.

    `realized[i]` says whether a concrete pair realizes `reported[i]`.
    """
    out = []
    for t1, t2, cls in steps:
        if cls != PRODUCE_USE:
            continue
        extracted = extract(t1, t2)
        if extracted is None:
            node_map, edge_map = _span_maps(t1, t2)
            out.append(
                f"{source.name}->{sink.name}: concrete pair over span "
                f"{sorted(node_map) + sorted(edge_map)} is not realizable "
                "by the analysis"
            )
        elif not any(extracted.same_span(r) for r in reported):
            out.append(
                f"{source.name}->{sink.name}: concrete pair over span "
                f"{sorted(extracted.span.nodes) + sorted(extracted.span.edges)} "
                "matches no reported reason"
            )
    for reason, ok in zip(reported, realized):
        if not ok:
            out.append(f"{reason.id}: reported reason has no concrete realization")
    return out


def _witness_pairs(
    first: Rule, second: Rule, glued: InstanceGraph, comatch: Morphism
) -> Iterator[StepPair]:
    """Every consecutive pair from the host a static witness says first came from."""
    try:
        before = apply_inverse(first, glued, comatch)
    except NotReversibleError:
        return
    yield from _step_pairs(transformations(first, before), second)


def _realize_reason(
    source: Rule, sink: Rule, reason: DependencyReason, extract: Extract
) -> bool:
    """True when a concrete consecutive pair's extracted span equals the reason's."""
    for t1, t2, cls in _witness_pairs(source, sink, reason.glued, reason.source_comatch):
        if cls == PRODUCE_USE:
            extracted = extract(t1, t2)
            if extracted is not None and extracted.same_span(reason):
                return True
    return False


def _step_at(rule: Rule, host: InstanceGraph, match: Morphism) -> DirectTransformation:
    """The rule's step on the host at the match's images, the match validated."""
    return apply(rule, host, Morphism(rule.lhs, host, match.node_map, match.edge_map))


def _images(rule: Rule, match: Morphism) -> tuple[str, ...]:
    """The match's node and edge images in the rule pattern's fixed order."""
    lhs, node_map, edge_map = rule.lhs, match.node_map, match.edge_map
    return (*map(node_map.__getitem__, lhs.nodes), *map(edge_map.__getitem__, lhs.edges))


def _index(steps: Iterable[DirectTransformation]) -> StepIndex:
    """Steps of one rule by host identity and match images, in walk order.

    A host is named by its identity, so the caller keeps every host alive
    while the index is in use.
    """
    return {(id(t.host), _images(t.rule, t.match)): t for t in steps}


def _looked_up(
    index: StepIndex, rule: Rule, host: InstanceGraph, match: Morphism
) -> DirectTransformation:
    """`_step_at(rule, host, match)`, taken from the index when it holds the
    step.  Matching, `apply` and `_fresh_ids` are deterministic, so an
    indexed step is the one `apply` would build."""
    step = index.get((id(host), _images(rule, match)))
    return step if step is not None else _step_at(rule, host, match)


def _switch(
    t1: DirectTransformation,
    t2: DirectTransformation,
    firsts: StepIndex,
    seconds: StepIndex,
) -> tuple[DirectTransformation, DirectTransformation]:
    """The switched steps (t2', t1') of an independent pair from the walk:
    t2' among the second rule's first steps (`firsts`, on t1's host), t1'
    among the first rule's steps after those (`seconds`, the walk of the
    reversed pair)."""
    t2p = _looked_up(firsts, t2.rule, t1.host, t2.match)
    return t2p, _looked_up(seconds, t1.rule, t2p.result, t1.match)


def independence_disagreements(
    first: Rule,
    second: Rule,
    steps: Sequence[StepPair],
    realized: Sequence[bool],
    switch: Switch,
) -> list[str]:
    """The universal-independence verdict against every concrete pair.

    `realized` says, for each reason reported for the pair, whether a
    concrete pair realizes it (see `run_oracle`); `switch` gives an
    independent pair's switched steps.
    """
    verdict = universally_sequentially_independent(first, second)
    out = []
    for t1, t2, cls in steps:
        if cls != INDEPENDENT:
            if verdict:
                out.append(
                    f"{first.name};{second.name}: declared universally independent "
                    f"but a concrete pair is {cls}"
                )
            continue
        try:
            t2p, t1p = switch(t1, t2)
        except GraphError as exc:
            out.append(
                f"{first.name};{second.name}: independent pair is not switchable ({exc})"
            )
            continue
        if not isomorphic(t1p.result, t2.result):
            out.append(
                f"{first.name};{second.name}: switched order yields a different result"
            )
    if not verdict:
        # a dependent pair exists when a reason or a delete overlap is realized
        if not (any(realized) or _delete_overlap_realized(first, second)):
            out.append(
                f"{first.name};{second.name}: declared dependent but no concrete "
                "dependent pair exists on any witness host"
            )
    return out


def _delete_overlap_realized(first: Rule, second: Rule) -> bool:
    """Realize a dependent pair from a static delete-overlap witness itself."""
    for witness in delete_overlap_reasons(first, second):
        glued = witness["glued"]
        comatch = Morphism.inclusion(first.rhs, glued)
        if any(
            cls != INDEPENDENT
            for _, _, cls in _witness_pairs(first, second, glued, comatch)
        ):
            return True
    return False


def find_flow_witness(
    source: Rule,
    sink: Rule,
    intermediates: Iterable[Rule],
    initial: InstanceGraph,
    max_len: int,
) -> list[DirectTransformation] | None:
    """A shortest step sequence source;...;sink whose last step uses something
    the first step created, with all intermediate steps by other rules."""
    middles = sorted(
        (r for r in intermediates if r.name not in {source.name, sink.name}),
        key=lambda r: r.name,
    )

    def closes(t1: DirectTransformation, t_last: DirectTransformation) -> bool:
        used = t_last.match.node_image() | t_last.match.edge_image()
        return bool(used & t1.created_ids())

    for length in range(2, max_len + 1):
        for t1 in transformations(source, initial):
            found = _extend_to_sink(t1, [t1], sink, middles, length - 1, closes)
            if found is not None:
                return found
    return None


def _extend_to_sink(t1, trace, sink, middles, remaining, closes):
    current = trace[-1].result
    if remaining == 1:
        for t_last in transformations(sink, current):
            if closes(t1, t_last):
                return trace + [t_last]
        return None
    for rule in middles:
        for t in transformations(rule, current):
            found = _extend_to_sink(t1, trace + [t], sink, middles, remaining - 1, closes)
            if found is not None:
                return found
    return None


@dataclass
class OracleReport:
    """Outcome of one oracle run over a rule system."""

    depth: int
    hosts_explored: int
    pairs_checked: int
    disagreements: list[str] = field(default_factory=list)
    elapsed_seconds: float = 0.0

    @property
    def agreed(self) -> bool:
        return not self.disagreements


def _pair_disagreements(
    first: Rule,
    second: Rule,
    steps: Sequence[StepPair],
    extract: Extract,
    switch: Switch,
) -> list[str]:
    """Both checks of one ordered rule pair against its walk."""
    reasons = dependency_reasons(first, second)
    realized = [_realize_reason(first, second, r, extract) for r in reasons]
    return produce_use_disagreements(
        first, second, steps, reasons, realized, extract
    ) + independence_disagreements(first, second, steps, realized, switch)


def run_oracle(
    analyzed: Iterable[Rule],
    all_rules: Iterable[Rule],
    initial: InstanceGraph,
    depth: int,
) -> OracleReport:
    """Compare the static analysis against everything reachable in `depth` steps."""
    start = time.monotonic()
    analyzed = sorted(analyzed, key=lambda r: r.name)
    hosts = reachable_hosts(all_rules, initial, depth)
    # `hosts` keeps every host alive while these lists and indexes name them
    matches = [
        {id(host): enumerate_matches(a.lhs, host) for host in hosts} for a in analyzed
    ]
    firsts = [
        _index(t for host in hosts for t in transformations(a, host, found[id(host)]))
        for a, found in zip(analyzed, matches)
    ]
    extract = _extractor()
    messages: dict[tuple[int, int], list[str]] = {}
    for i, a in enumerate(analyzed):
        for j in range(i, len(analyzed)):
            b = analyzed[j]
            # each walk's second steps are the reversed pair's switched t1';
            # the self-pair is its own reversed pair
            walks = {(i, j): list(_step_pairs(firsts[i].values(), b, matches[j]))}
            if j != i:
                walks[j, i] = list(_step_pairs(firsts[j].values(), a, matches[i]))
            for x, y in walks:
                switch = partial(
                    _switch,
                    firsts=firsts[y],
                    seconds=_index(t2 for _, t2, _ in walks[y, x]),
                )
                messages[x, y] = _pair_disagreements(
                    analyzed[x], analyzed[y], walks[x, y], extract, switch
                )
            del walks  # only one unordered pair's walks are held at a time
    n = len(analyzed)
    return OracleReport(
        depth=depth,
        hosts_explored=len(hosts),
        pairs_checked=n * n,
        disagreements=[m for i in range(n) for j in range(n) for m in messages[i, j]],
        elapsed_seconds=time.monotonic() - start,
    )

