"""Brute-force semantic oracle for the static analysis.

Explores the concrete state space of a rule system up to a bounded number of
steps and compares what actually happens there against what the static
analysis reports: every concrete produce-use pair must match a reported
reason, every reported reason must be concretely realizable, and a pair of
rules declared universally independent must never exhibit a dependent
consecutive pair (and independent pairs must commute up to isomorphism).
The reachable states come from `rules.explore`, the same breadth-first search
the planner uses for setup steps.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .core import GraphError, InstanceGraph, Morphism
from .dependency import (
    INDEPENDENT,
    PRODUCE_USE,
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


def _consecutive_pairs(first: Rule, second: Rule, hosts: Sequence[InstanceGraph]):
    for host in hosts:
        for t1 in transformations(first, host):
            for t2 in transformations(second, t1.result):
                yield t1, t2


def produce_use_disagreements(
    source: Rule, sink: Rule, hosts: Sequence[InstanceGraph]
) -> list[str]:
    """Completeness and soundness of the reported reasons for one rule pair."""
    reported = dependency_reasons(source, sink)
    out = []
    for t1, t2 in _consecutive_pairs(source, sink, hosts):
        if classify_transformation_pair(t1, t2) != PRODUCE_USE:
            continue
        extracted = extract_reason(t1, t2)
        if not any(extracted.same_span(r) for r in reported):
            out.append(
                f"{source.name}->{sink.name}: concrete pair over span "
                f"{sorted(extracted.span.nodes) + sorted(extracted.span.edges)} "
                "matches no reported reason"
            )
    for reason in reported:
        if not _realize_reason(source, sink, reason):
            out.append(f"{reason.id}: reported reason has no concrete realization")
    return out


def _witness_pairs(
    first: Rule, second: Rule, glued: InstanceGraph, comatch: Morphism
):
    """Every consecutive pair from the host a static witness says first came from."""
    try:
        before = apply_inverse(first, glued, comatch)
    except NotReversibleError:
        return
    yield from _consecutive_pairs(first, second, [before])


def _realize_reason(source: Rule, sink: Rule, reason) -> bool:
    """True when a concrete consecutive pair's extracted span equals the reason's."""
    return any(
        classify_transformation_pair(t1, t2) == PRODUCE_USE
        and extract_reason(t1, t2).same_span(reason)
        for t1, t2 in _witness_pairs(source, sink, reason.glued, reason.source_comatch)
    )


def _switched(t1: DirectTransformation, t2: DirectTransformation):
    """Apply the second step first; both matches carry over unchanged."""
    host = t1.host
    m2 = Morphism(t2.rule.lhs, host, t2.match.node_map, t2.match.edge_map)
    t2p = apply(t2.rule, host, m2)
    m1 = Morphism(t1.rule.lhs, t2p.result, t1.match.node_map, t1.match.edge_map)
    t1p = apply(t1.rule, t2p.result, m1)
    return t1p


def independence_disagreements(
    first: Rule, second: Rule, hosts: Sequence[InstanceGraph]
) -> list[str]:
    """The universal-independence verdict against every concrete pair."""
    verdict = universally_sequentially_independent(first, second)
    out = []
    for t1, t2 in _consecutive_pairs(first, second, hosts):
        cls = classify_transformation_pair(t1, t2)
        if cls != INDEPENDENT:
            if verdict:
                out.append(
                    f"{first.name};{second.name}: declared universally independent "
                    f"but a concrete pair is {cls}"
                )
            continue
        try:
            t1p = _switched(t1, t2)
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
        if not _dependent_pair_exists(first, second):
            out.append(
                f"{first.name};{second.name}: declared dependent but no concrete "
                "dependent pair exists on any witness host"
            )
    return out


def _dependent_pair_exists(first: Rule, second: Rule) -> bool:
    """Realize at least one dependent pair from the static witnesses themselves."""
    for reason in dependency_reasons(first, second):
        if _realize_reason(first, second, reason):
            return True
    for witness in delete_overlap_reasons(first, second):
        glued = witness["glued"]
        comatch = Morphism.inclusion(first.rhs, glued)
        if any(
            classify_transformation_pair(t1, t2) != INDEPENDENT
            for t1, t2 in _witness_pairs(first, second, glued, comatch)
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

    def to_doc(self) -> dict:
        return {
            "depth": self.depth,
            "hosts_explored": self.hosts_explored,
            "pairs_checked": self.pairs_checked,
            "agreed": self.agreed,
            "disagreements": list(self.disagreements),
            "elapsed_seconds": round(self.elapsed_seconds, 3),
        }


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
        for b in analyzed:
            pairs += 1
            disagreements.extend(produce_use_disagreements(a, b, hosts))
            disagreements.extend(independence_disagreements(a, b, hosts))
    return OracleReport(
        depth=depth,
        hosts_explored=len(hosts),
        pairs_checked=pairs,
        disagreements=disagreements,
        elapsed_seconds=time.monotonic() - start,
    )
