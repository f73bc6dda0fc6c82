"""Brute-force semantic oracle for the static analysis.

Explores the concrete state space of a rule system up to a bounded number of
steps and compares what actually happens there against what the static
analysis reports: every concrete produce-use pair must match a reported
reason, every reported reason must be concretely realizable, and a pair of
rules declared universally independent must never exhibit a dependent
consecutive pair (and independent pairs must commute up to isomorphism).
The reachable states come from `rules.explore`, the same breadth-first search
the planner uses for setup steps.

The oracle walks the reachable hosts one at a time.  On each host it
enumerates every analyzed rule's matches once and takes the rule's first
steps at them.  The walk of an ordered rule pair on the host is each first
step of the first rule, followed by every step of the second rule, each
step pair classified once.  A second step's matches are not searched for
on the first step's result: they are carried from the second rule's
matches on the host (`core.matches_after`), which keeps each host match
that touches nothing the first step deleted and searches only around what
it created.  Every step still goes through `transformations`.  Both step
checks run on each walk, and their messages are kept per pair.  The
host's matches, steps and walks are dropped before the next host, so the
oracle holds one host's steps, not the whole depth's.

A pair's reported reasons and its independence verdict are read once,
before the first host.  After the last host come the checks that need no
host: each reported reason must be realized by a concrete pair from its
own witness, and a pair declared dependent must show a dependent pair
there, through a realized reason or delete overlap.  Each span a concrete
produce-use pair extracts is realized once per run.

An independent pair commutes when its switched result is isomorphic to the
original one.  By the local Church-Rosser theorem the switched steps use
the original matches, so the host's walks already hold them: t2' is a
first step of the second rule on t1's host, and t1' a step of the first
rule after t2', in the walk of the reversed pair.  The oracle looks both
up there and applies a rule only for a step the walks lack.  `isomorphic`
then decides whether the two results are the same state: at once when the
switched result has the original's very nodes and edges, else by one match
search.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import partial
from itertools import chain
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
    before: list[Morphism] | None = None,
) -> Iterator[StepPair]:
    """Every second-rule step after each first step, with the pair's class.

    `before`, when given, holds the second rule's matches on the host of
    the first steps, and the matches on each first step's result are
    carried from them (`matches_after`), not searched again.
    """
    for t1 in firsts:
        matches = None
        if before is not None:
            matches = matches_after(
                second.lhs, before, t1.result, t1.deleted_ids(), t1.created_ids()
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
    extract: Extract,
) -> list[str]:
    """Each produce-use pair of the steps whose span is no reported reason
    of the rule pair, or not realizable by the analysis."""
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
    """The switched steps (t2', t1') of an independent pair from the host's
    walks: t2' among the second rule's first steps (`firsts`, on t1's
    host), t1' among the first rule's steps after those (`seconds`, the
    walk of the reversed pair)."""
    t2p = _looked_up(firsts, t2.rule, t1.host, t2.match)
    return t2p, _looked_up(seconds, t1.rule, t2p.result, t1.match)


def independence_disagreements(
    first: Rule,
    second: Rule,
    steps: Sequence[StepPair],
    verdict: bool,
    switch: Switch,
) -> list[str]:
    """The universal-independence verdict against every concrete pair: a
    dependent pair contradicts a verdict of independence, and an
    independent pair must switch, by `switch`, to an isomorphic result."""
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


def run_oracle(
    analyzed: Iterable[Rule],
    all_rules: Iterable[Rule],
    initial: InstanceGraph,
    depth: int,
) -> OracleReport:
    """Compare the static analysis against everything reachable in `depth` steps."""
    start = time.monotonic()
    analyzed = sorted(analyzed, key=lambda r: r.name)
    n = len(analyzed)
    pairs = [(a, b) for a in analyzed for b in analyzed]
    reasons = [dependency_reasons(a, b) for a, b in pairs]
    verdicts = [universally_sequentially_independent(a, b) for a, b in pairs]
    hosts = reachable_hosts(all_rules, initial, depth)
    extract = _extractor()
    produce_use: list[list[str]] = [[] for _ in pairs]
    independence: list[list[str]] = [[] for _ in pairs]
    for host in hosts:
        matches = [enumerate_matches(a.lhs, host) for a in analyzed]
        firsts = [transformations(a, host, m) for a, m in zip(analyzed, matches)]
        walks = {}
        afters: list[list[DirectTransformation]] = [[] for _ in analyzed]
        for i, steps in enumerate(firsts):
            if steps:
                for j, b in enumerate(analyzed):
                    walk = list(_step_pairs(steps, b, matches[j]))
                    if walk:
                        walks[i, j] = walk
                        afters[j] += (t2 for _, t2, _ in walk)
        # each rule's steps after a first step, then its first steps, which
        # replace the equal steps after a query's step (its result is the host)
        indexes = [_index(chain(after, steps)) for after, steps in zip(afters, firsts)]
        for (i, j), walk in walks.items():
            k = i * n + j
            a, b = pairs[k]
            switch = partial(_switch, firsts=indexes[j], seconds=indexes[i])
            produce_use[k] += produce_use_disagreements(a, b, walk, reasons[k], extract)
            independence[k] += independence_disagreements(a, b, walk, verdicts[k], switch)
    disagreements = []
    for k, (a, b) in enumerate(pairs):
        realized = [_realize_reason(a, b, r, extract) for r in reasons[k]]
        disagreements += produce_use[k]
        disagreements += [
            f"{r.id}: reported reason has no concrete realization"
            for r, ok in zip(reasons[k], realized)
            if not ok
        ]
        disagreements += independence[k]
        # a dependent pair exists when a reason or a delete overlap is realized
        if not (verdicts[k] or any(realized) or _delete_overlap_realized(a, b)):
            disagreements.append(
                f"{a.name};{b.name}: declared dependent but no concrete "
                "dependent pair exists on any witness host"
            )
    return OracleReport(
        depth=depth,
        hosts_explored=len(hosts),
        pairs_checked=n * n,
        disagreements=disagreements,
        elapsed_seconds=time.monotonic() - start,
    )
