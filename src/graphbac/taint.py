"""Tainted type graphs, source/sink classification, tainted flow, analyst
review, and the independence precondition checker for minimal-test soundness.

A node type is tainted when access to nodes of that type is worth protecting.
A rule is a source for a tainted type when it creates such a node, and a sink
when its pattern reads one.  The tainted information flow collects every
dependency reason between sources and sinks sharing a tainted type; the
analyst reviews each reason as secured or unsecured, and the theorem checker
establishes when the minimal two-step tests planned from those reasons are
conclusive for a pair.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from itertools import chain, product
from operator import mul
from typing import Iterable, Sequence

from .core import GraphError, TypeGraph, _boolean
from .dependency import DependencyReason, _independent, dependency_reasons
from .rules import CREATE, Rule

UNREVIEWED = "unreviewed"
SECURED = "secured"
UNSECURED = "unsecured"
REVIEW_STATUSES = (UNREVIEWED, SECURED, UNSECURED)

STABILITY_CAVEAT = (
    "holds only if the access policy is stable under shift, i.e. moving an "
    "allowed call across an independent step never changes its outcome; "
    "this is a semantic property the analyst asserts in the review ledger"
)


@dataclass(frozen=True)
class TaintedTypeGraph:
    """A type graph together with the node types considered tainted."""

    typegraph: TypeGraph
    tainted: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "tainted", tuple(sorted(set(self.tainted))))
        for t in self.tainted:
            if not self.typegraph.has_node_type(t):
                raise GraphError(f"tainted type {t} is not a node type")

    def is_tainted(self, node_type: str) -> bool:
        return node_type in self.tainted


@dataclass(frozen=True)
class TaintedGraphAPI:
    """Rules over a tainted type graph with their source/sink classification."""

    tainted_typegraph: TaintedTypeGraph
    rules: tuple[Rule, ...]
    sources: dict[str, tuple[str, ...]] = field(default_factory=dict)
    sinks: dict[str, tuple[str, ...]] = field(default_factory=dict)

    def rule(self, name: str) -> Rule:
        for r in self.rules:
            if r.name == name:
                return r
        raise GraphError(f"unknown rule {name}")

    def pairs(self) -> list[tuple[str, str]]:
        """Ordered rule pairs sharing at least one tainted type."""
        out = set()
        for t in self.tainted_typegraph.tainted:
            for src in self.sources.get(t, ()):
                for sink in self.sinks.get(t, ()):
                    out.add((src, sink))
        return sorted(out)


def classify_sources_sinks(
    rules: Iterable[Rule], tainted_typegraph: TaintedTypeGraph
) -> TaintedGraphAPI:
    ordered = tuple(sorted(rules, key=lambda r: r.name))
    for r in ordered:
        if r.typegraph != tainted_typegraph.typegraph:
            raise GraphError(f"rule {r.name} is typed over a different type graph")
    sources: dict[str, list[str]] = {}
    sinks: dict[str, list[str]] = {}
    for t in tainted_typegraph.tainted:
        for r in ordered:
            if any(
                r.tags[n] == CREATE and r.nodes[n] == t for n in r.nodes
            ):
                sources.setdefault(t, []).append(r.name)
            if any(r.nodes[n] == t for n in r.lhs.nodes):
                sinks.setdefault(t, []).append(r.name)
    return TaintedGraphAPI(
        tainted_typegraph=tainted_typegraph,
        rules=ordered,
        sources={t: tuple(names) for t, names in sources.items()},
        sinks={t: tuple(names) for t, names in sinks.items()},
    )


@dataclass(frozen=True)
class ReviewEntry:
    reason_id: str
    status: str
    rationale: str = ""
    policy_stable_under_shift: bool = False

    def __post_init__(self) -> None:
        if not isinstance(self.reason_id, str):
            raise GraphError(f"review entry reason_id must be a string, got {self.reason_id!r}")
        if self.status not in REVIEW_STATUSES:
            raise GraphError(
                f"review status must be one of {REVIEW_STATUSES}, got {self.status!r}"
            )


@dataclass(frozen=True)
class TaintedFlow:
    """The tainted reasons of an API with their review state."""

    api: TaintedGraphAPI
    reasons: tuple[DependencyReason, ...]
    entries: dict[str, ReviewEntry] = field(default_factory=dict)

    def reason_ids(self) -> list[str]:
        return [r.id for r in self.reasons]

    def status_of(self, reason_id: str) -> str:
        entry = self.entries.get(reason_id)
        return entry.status if entry else UNREVIEWED

    def secured_ids(self) -> list[str]:
        return [r.id for r in self.reasons if self.status_of(r.id) == SECURED]

    def unsecured_ids(self) -> list[str]:
        return [r.id for r in self.reasons if self.status_of(r.id) == UNSECURED]

    def unreviewed_ids(self) -> list[str]:
        return [r.id for r in self.reasons if self.status_of(r.id) == UNREVIEWED]

    def pairs(self) -> list[tuple[str, str]]:
        return sorted({(r.source_rule, r.sink_rule) for r in self.reasons})

    def reasons_for(self, source: str, sink: str) -> list[DependencyReason]:
        return [
            r for r in self.reasons if r.source_rule == source and r.sink_rule == sink
        ]

    def policy_stable_under_shift(self) -> bool:
        """True only when every reviewed reason carries the analyst assertion."""
        return bool(self.entries) and all(
            e.policy_stable_under_shift for e in self.entries.values()
        )


def tainted_flow(api: TaintedGraphAPI) -> TaintedFlow:
    """All dependency reasons between sources and sinks sharing a tainted type.

    Every reason of such a pair is part of the flow; reasons whose span
    contains no created tainted node are kept but flagged untainted so the
    analyst can deprioritize them.
    """
    reasons: list[DependencyReason] = []
    for source_name, sink_name in api.pairs():
        source = api.rule(source_name)
        for reason in dependency_reasons(source, api.rule(sink_name)):
            tainted = any(
                source.tags[n] == CREATE
                and api.tainted_typegraph.is_tainted(source.nodes[n])
                for n in reason.span.nodes
            )
            reasons.append(replace(reason, tainted=tainted))
    return TaintedFlow(api=api, reasons=tuple(reasons))


def init_review_entries(flow: TaintedFlow) -> list[ReviewEntry]:
    """A ledger skeleton with one unreviewed entry per reason."""
    return [ReviewEntry(reason_id=rid, status=UNREVIEWED) for rid in flow.reason_ids()]


def apply_review(flow: TaintedFlow, entries: Sequence[ReviewEntry]) -> TaintedFlow:
    known = set(flow.reason_ids())
    merged = dict(flow.entries)
    seen: set[str] = set()
    for entry in entries:
        if entry.reason_id not in known:
            raise GraphError(f"review entry references unknown reason {entry.reason_id}")
        if entry.reason_id in seen:
            raise GraphError(f"duplicate review entry for {entry.reason_id}")
        seen.add(entry.reason_id)
        if entry.status == UNREVIEWED:
            merged.pop(entry.reason_id, None)
        else:
            merged[entry.reason_id] = entry
    return replace(flow, entries=merged)


def ledger_to_doc(entries: Sequence[ReviewEntry]) -> list[dict]:
    return [
        {
            "reason_id": e.reason_id,
            "status": e.status,
            "rationale": e.rationale,
            "policy_stable_under_shift": e.policy_stable_under_shift,
        }
        for e in entries
    ]


def ledger_from_doc(doc: object) -> list[ReviewEntry]:
    if not isinstance(doc, list):
        raise GraphError("review ledger must be a list of entries")
    entries = []
    for item in doc:
        try:
            entries.append(
                ReviewEntry(
                    reason_id=item["reason_id"],
                    status=item["status"],
                    rationale=item.get("rationale", ""),
                    policy_stable_under_shift=_boolean(
                        item.get("policy_stable_under_shift", False),
                        f"review ledger entry {item.get('reason_id')!r}: "
                        "policy_stable_under_shift",
                    ),
                )
            )
        except (KeyError, TypeError) as exc:
            raise GraphError(f"malformed review ledger entry: {item!r}") from exc
    return entries


@dataclass(frozen=True)
class TheoremCheck:
    """Which independence precondition holds for a source/sink pair."""

    source: str
    sink: str
    condition1_holds: bool
    condition1_failures: tuple[str, ...]
    condition2_holds: bool
    condition2_failures: tuple[str, ...]
    reason_count: int
    caveat: str = STABILITY_CAVEAT

    @property
    def verdict(self) -> str:
        if self.condition1_holds:
            return "condition1"
        if self.condition2_holds:
            return "condition2"
        return "neither"

    @property
    def conclusive(self) -> bool:
        return self.condition1_holds or self.condition2_holds

    @property
    def blind_spot(self) -> bool:
        """No reason and no conclusive condition: an indirect dependency between
        this pair would be invisible to minimal tests."""
        return self.reason_count == 0 and not self.conclusive


@dataclass(frozen=True)
class PairVerdicts:
    """Per ordered pair (first, second) of analyzed rules: whether the two
    are universally sequentially independent, and how many produce-use
    reasons lead from first to second (0 for an independent pair).

    `entries` maps (first name, second name) to (independent, reason
    count).  Its document is a table: the rules' names, sorted, and two
    square matrices, `independent` and `reasons`, with a row per first
    rule and a column per second rule, in the order of the names.
    """

    entries: dict[tuple[str, str], tuple[bool, int]]

    def independent(self, first: str, second: str) -> bool:
        return self.entries[first, second][0]

    def reason_count(self, source: str, sink: str) -> int:
        return self.entries[source, sink][1]

    def to_doc(self) -> dict:
        names = self.names
        rows = [[self.entries[first, second] for second in names] for first in names]
        return {
            "rules": list(names),
            "independent": [[independent for independent, _ in row] for row in rows],
            "reasons": [[count for _, count in row] for row in rows],
        }

    @cached_property
    def names(self) -> tuple[str, ...]:
        """The rules the verdicts are about, sorted by name, as
        `classify_sources_sinks` orders an API's rules."""
        return tuple(sorted({first for first, _ in self.entries}))

    @classmethod
    def from_doc(cls, doc: object) -> "PairVerdicts":
        """Stored verdicts, which must cover every ordered pair of the rules
        they name, self-pairs included."""
        if not isinstance(doc, dict):
            raise GraphError(
                "verdicts must be a table of rules, independent and reasons"
            )
        names = doc.get("rules")
        if not isinstance(names, list):
            raise GraphError("verdicts: rules must be a list of rule names")
        for name in names:
            if type(name) is not str:
                raise GraphError(f"verdicts: rule name {name!r} must be a string")
        for before, name in zip(names, names[1:]):
            if before >= name:
                raise GraphError(
                    f"verdicts: rule {name} is named twice"
                    if before == name
                    else f"verdicts: rules must be sorted by name, but {name} "
                    f"follows {before}"
                )
        matrices = (doc.get("independent"), doc.get("reasons"))
        for key, matrix in zip(("independent", "reasons"), matrices):
            if not isinstance(matrix, list) or len(matrix) != len(names):
                raise GraphError(
                    f"verdicts: {key} must be a list of one row per rule, "
                    f"{len(names)} in all"
                )
            for first, row in zip(names, matrix):
                if not isinstance(row, list) or len(row) != len(names):
                    raise GraphError(
                        f"verdicts: {key} row of {first} must hold one cell per "
                        f"rule, {len(names)} in all"
                    )
        verdicts = list(chain.from_iterable(matrices[0]))
        counts = list(chain.from_iterable(matrices[1]))
        # JSON gives exact types: a bool is no count, and 1 is no verdict; a
        # verdict times its count is nonzero only for an independent pair
        # with reasons.  The cells are checked one by one only to name the
        # first bad one.
        if not (
            set(map(type, verdicts)) <= {bool}
            and set(map(type, counts)) <= {int}
            and min(counts, default=0) >= 0
            and not any(map(mul, verdicts, counts))
        ):
            for (first, second), independent, count in zip(
                product(names, repeat=2), verdicts, counts
            ):
                if type(independent) is not bool:
                    raise GraphError(
                        f"pair {first} -> {second}: independent must be true or false"
                    )
                if type(count) is not int or count < 0 or (independent and count):
                    raise GraphError(
                        f"pair {first} -> {second}: reasons must be a count of "
                        "reasons, 0 for an independent pair"
                    )
        return cls(dict(zip(product(names, repeat=2), zip(verdicts, counts))))


def pair_verdicts(flow: TaintedFlow) -> PairVerdicts:
    """The verdicts of every ordered pair of the flow's rules, self-pairs
    included.  The flow already holds the reasons of its API's pairs and
    the engine finds those of every other pair, so each pair's reasons are
    enumerated once; the verdict is `universally_sequentially_independent`'s
    on those reasons."""
    pairs = set(flow.api.pairs())
    entries = {}
    for first in flow.api.rules:
        for second in flow.api.rules:
            if (first.name, second.name) in pairs:
                reasons = flow.reasons_for(first.name, second.name)
            else:
                reasons = dependency_reasons(first, second)
            entries[first.name, second.name] = (
                _independent(first, second, reasons),
                len(reasons),
            )
    return PairVerdicts(entries)


def check_theorem_conditions(
    source_name: str, sink_name: str, verdicts: PairVerdicts
) -> TheoremCheck:
    """Evaluate the two sufficient conditions for minimal tests to be conclusive.

    Condition 1: the source is universally sequentially independent of every
    rule other than the sink, so nothing can consume or extend what the source
    produced before the sink sees it.  Condition 2: every rule other than the
    source is universally sequentially independent of the sink, so nothing
    else can have produced what the sink uses.  Either suffices — under the
    stability caveat.  The verdict matrix answers the independence questions
    and the pair's reason count, over the rules it names.
    """
    names = verdicts.names
    for name in (source_name, sink_name):
        if name not in names:
            raise GraphError(f"unknown rule {name}")
    c1_failures = [
        name
        for name in names
        if name != sink_name and not verdicts.independent(source_name, name)
    ]
    c2_failures = [
        name
        for name in names
        if name != source_name and not verdicts.independent(name, sink_name)
    ]
    return TheoremCheck(
        source=source_name,
        sink=sink_name,
        condition1_holds=not c1_failures,
        condition1_failures=tuple(c1_failures),
        condition2_holds=not c2_failures,
        condition2_failures=tuple(c2_failures),
        reason_count=verdicts.reason_count(source_name, sink_name),
    )
