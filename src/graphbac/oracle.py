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
rule's steps from every reachable host (computed once per first rule), each
followed by every step of the second rule, each step pair classified once.
Both checks read that walk, the pair's reported reasons and whether each
reason is concretely realizable, all computed once; the walk is dropped
when the pair is done.

An independent pair commutes when its switched result is isomorphic to the
original one.  By the local Church-Rosser theorem the two results are
related by a known bijection (the identity on the untouched context, each
created element to its counterpart), so the oracle checks that certificate
with the validating `Morphism` constructor and searches with `isomorphic`
only when it fails.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

from .core import GraphError, InstanceGraph, Morphism
from .dependency import (
    INDEPENDENT,
    PRODUCE_USE,
    DependencyReason,
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


def _step_pairs(
    firsts: Iterable[DirectTransformation], second: Rule
) -> Iterator[StepPair]:
    """Every second-rule step after each first step, with the pair's class."""
    for t1 in firsts:
        for t2 in transformations(second, t1.result):
            yield t1, t2, classify_transformation_pair(t1, t2)


def produce_use_disagreements(
    source: Rule,
    sink: Rule,
    steps: Sequence[StepPair],
    reported: Sequence[DependencyReason],
    realized: Sequence[bool],
) -> list[str]:
    """Completeness and soundness of the reported reasons for one rule pair.

    `realized[i]` says whether a concrete pair realizes `reported[i]`.
    """
    out = []
    for t1, t2, cls in steps:
        if cls != PRODUCE_USE:
            continue
        extracted = extract_reason(t1, t2)
        if not any(extracted.same_span(r) for r in reported):
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


def _realize_reason(source: Rule, sink: Rule, reason: DependencyReason) -> bool:
    """True when a concrete consecutive pair's extracted span equals the reason's."""
    return any(
        cls == PRODUCE_USE and extract_reason(t1, t2).same_span(reason)
        for t1, t2, cls in _witness_pairs(
            source, sink, reason.glued, reason.source_comatch
        )
    )


def _switched_steps(
    t1: DirectTransformation, t2: DirectTransformation
) -> tuple[DirectTransformation, DirectTransformation]:
    """(t2', t1'): the second step applied first, then the first; both
    matches carry over unchanged."""
    host = t1.host
    m2 = Morphism(t2.rule.lhs, host, t2.match.node_map, t2.match.edge_map)
    t2p = apply(t2.rule, host, m2)
    m1 = Morphism(t1.rule.lhs, t2p.result, t1.match.node_map, t1.match.edge_map)
    return t2p, apply(t1.rule, t2p.result, m1)


def _certificate(
    t1: DirectTransformation,
    t2: DirectTransformation,
    t2p: DirectTransformation,
    t1p: DirectTransformation,
) -> tuple[dict[str, str], dict[str, str]]:
    """The node and edge maps t1'.result -> t2.result that local
    Church-Rosser predicts: the identity on the context neither step
    touched, and each element a switched step created to the element the
    same step created in the original order."""
    nodes = {n: n for n in t1p.result.nodes}
    edges = {e: e for e in t1p.result.edges}
    for switched, original in ((t1p, t1), (t2p, t2)):
        rule = switched.rule
        for x in rule.created_nodes():
            nodes[switched.comatch.node_map[x]] = original.comatch.node_map[x]
        for x in rule.created_edges():
            edges[switched.comatch.edge_map[x]] = original.comatch.edge_map[x]
    return nodes, edges


def _commutes(
    t1: DirectTransformation,
    t2: DirectTransformation,
    t2p: DirectTransformation,
    t1p: DirectTransformation,
) -> bool:
    """True iff t1'.result and t2.result are isomorphic.

    The certificate is checked by the validating `Morphism` constructor: an
    injective typed morphism between graphs of equal size is an
    isomorphism, so a certificate that passes is a proof, and one that
    fails only sends the question to `isomorphic`.
    """
    a, b = t1p.result, t2.result
    if (
        a.typegraph == b.typegraph
        and len(a.nodes) == len(b.nodes)
        and len(a.edges) == len(b.edges)
    ):
        try:
            Morphism(a, b, *_certificate(t1, t2, t2p, t1p))
            return True
        except GraphError:
            pass
    return isomorphic(a, b)


def independence_disagreements(
    first: Rule,
    second: Rule,
    steps: Sequence[StepPair],
    realized: Sequence[bool],
) -> list[str]:
    """The universal-independence verdict against every concrete pair.

    `realized` says, for each reason reported for the pair, whether a
    concrete pair realizes it (see `run_oracle`).
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
            t2p, t1p = _switched_steps(t1, t2)
        except GraphError as exc:
            out.append(
                f"{first.name};{second.name}: independent pair is not switchable ({exc})"
            )
            continue
        if not _commutes(t1, t2, t2p, t1p):
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
    disagreements = []
    pairs = 0
    for a in analyzed:
        firsts = [t for host in hosts for t in transformations(a, host)]
        for b in analyzed:
            pairs += 1
            steps = list(_step_pairs(firsts, b))
            reasons = dependency_reasons(a, b)
            realized = [_realize_reason(a, b, reason) for reason in reasons]
            disagreements.extend(
                produce_use_disagreements(a, b, steps, reasons, realized)
            )
            disagreements.extend(independence_disagreements(a, b, steps, realized))
            del steps  # only one pair's steps are held at a time
    return OracleReport(
        depth=depth,
        hosts_explored=len(hosts),
        pairs_checked=pairs,
        disagreements=disagreements,
        elapsed_seconds=time.monotonic() - start,
    )
