"""Role-aware test planning over a reviewed tainted flow.

For every dependency reason the planner emits a minimal positive test (source
step directly followed by the sink step, both policy-allowed) and a minimal
negative test (same shape, sink step by the highest role the policy denies),
each prefixed by the setup steps that make the source applicable.  The plan
is then augmented to role coverage: one diagonal positive test per role and
one negative test per strictly ordered role pair.  Binding hints are symbolic
references to earlier steps' outputs, resolved by the runner once the server
has assigned ids.  Setup steps are the shortest trace `rules.explore` finds
to a host the source's context embeds in.  The setup searches of one run
share one `explore` per start host, grown only as far as they need; it is
deterministic, so sharing it changes no planned step.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

from .core import (
    GraphError,
    InstanceGraph,
    Morphism,
    _boolean,
    first_match,
    iter_matches,
)
from .dependency import DependencyReason
from .rules import (
    CREATE,
    DirectTransformation,
    Rule,
    apply,
    apply_inverse,
    explore,
)
from .taint import TaintedFlow

FLOW_POSITIVE = "flow-positive"
FLOW_NEGATIVE = "flow-negative"
ROLE_POSITIVE = "role-positive"
ROLE_NEGATIVE = "role-negative"

# most setup steps searched for before a test's context counts as unreachable
SETUP_DEPTH = 6


class PlanningError(GraphError):
    """Test synthesis could not complete."""


class PolicyError(PlanningError):
    """The policy lets no role take a step that a planned test needs."""


# --------------------------------------------------------------------------
# roles and policy


@dataclass(frozen=True)
class RoleSpec:
    """Roles with a partial privilege order and one principal per role."""

    roles: tuple[str, ...]
    order: tuple[tuple[str, str], ...] = ()  # (lower, higher) pairs
    principals: dict[str, str] = field(default_factory=dict)  # role -> token env var

    def __post_init__(self) -> None:
        if len(set(self.roles)) != len(self.roles):
            raise GraphError("duplicate role names")
        for lo, hi in self.order:
            if lo not in self.roles or hi not in self.roles:
                raise GraphError(f"order pair ({lo}, {hi}) references unknown role")
        for role, var in self.principals.items():
            if role not in self.roles:
                raise GraphError(f"principal for unknown role {role}")
            if not isinstance(var, str):
                raise GraphError(
                    f"principal for role {role} must name an environment "
                    f"variable (a string), not {var!r}"
                )
        closure = {(r, r) for r in self.roles} | set(self.order)
        changed = True
        while changed:
            changed = False
            for a, b in list(closure):
                for c, d in list(closure):
                    if b == c and (a, d) not in closure:
                        closure.add((a, d))
                        changed = True
        for a, b in closure:
            if a != b and (b, a) in closure:
                raise GraphError(f"role order has a cycle through {a} and {b}")
        object.__setattr__(self, "_closure", frozenset(closure))

    def leq(self, a: str, b: str) -> bool:
        return (a, b) in self._closure

    def lt(self, a: str, b: str) -> bool:
        return a != b and self.leq(a, b)

    def height(self, role: str) -> int:
        return sum(1 for r in self.roles if self.leq(r, role))

    def descending(self) -> list[str]:
        return sorted(self.roles, key=lambda r: (-self.height(r), r))

    def least_privileged(self) -> list[str]:
        return sorted(r for r in self.roles if not any(self.lt(x, r) for x in self.roles))

    def maximal(self, subset: Iterable[str]) -> str | None:
        candidates = [r for r in subset if r in self.roles]
        if not candidates:
            return None
        return max(candidates, key=lambda r: (self.height(r), r))

    def minimal(self, subset: Iterable[str]) -> str | None:
        candidates = [r for r in subset if r in self.roles]
        if not candidates:
            return None
        return min(candidates, key=lambda r: (self.height(r), r))

    def strict_pairs(self) -> list[tuple[str, str]]:
        """(higher, lower) pairs, most privileged first."""
        pairs = [
            (hi, lo)
            for hi in self.roles
            for lo in self.roles
            if self.lt(lo, hi)
        ]
        return sorted(pairs, key=lambda p: (-self.height(p[0]), p[0], -self.height(p[1]), p[1]))

    def to_doc(self) -> dict:
        return {
            "roles": list(self.roles),
            "order": [list(p) for p in self.order],
            "principals": dict(sorted(self.principals.items())),
        }

    @classmethod
    def from_doc(cls, doc: dict) -> "RoleSpec":
        try:
            return cls(
                roles=_string_list(doc["roles"], "roles"),
                order=_role_pairs_field(doc.get("order", []), "order"),
                principals=dict(doc.get("principals", {})),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise GraphError(f"malformed role spec: {exc}") from exc


@dataclass(frozen=True)
class PolicyAnnotation:
    """Allowed roles per rule, with optional creator-only restriction."""

    allowed: dict[str, tuple[str, ...]]
    creator_only: tuple[str, ...] = ()
    non_monotone: tuple[str, ...] = ()  # rules exempt from upward-closure

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "allowed",
            {rule: tuple(sorted(set(roles))) for rule, roles in self.allowed.items()},
        )

    def allows(self, rule: str, role: str) -> bool:
        return role in self.allowed.get(rule, ())

    def allowed_roles(self, rule: str) -> tuple[str, ...]:
        return self.allowed.get(rule, ())

    def denied_roles(self, rule: str, roles: RoleSpec) -> list[str]:
        return [r for r in roles.roles if not self.allows(rule, r)]

    def validate_against(self, roles: RoleSpec, rule_names: Iterable[str]) -> None:
        names = set(rule_names)
        for rule, allowed in self.allowed.items():
            if rule not in names:
                raise GraphError(f"policy references unknown rule {rule}")
            for role in allowed:
                if role not in roles.roles:
                    raise GraphError(f"policy for {rule} references unknown role {role}")
            if rule in self.non_monotone:
                continue
            for role in allowed:
                for higher in roles.roles:
                    if roles.lt(role, higher) and higher not in allowed:
                        raise GraphError(
                            f"policy for {rule} allows {role} but not the higher "
                            f"role {higher}; mark the rule non_monotone to override"
                        )
        for rule in self.creator_only:
            if rule not in names:
                raise GraphError(f"creator_only references unknown rule {rule}")

    @classmethod
    def from_doc(cls, doc: dict) -> "PolicyAnnotation":
        try:
            rules = doc["rules"]
            allowed = {
                name: _string_list(entry.get("allowed", []), f"policy for {name}: allowed")
                for name, entry in rules.items()
            }
            flagged = {
                flag: tuple(
                    sorted(
                        n
                        for n, e in rules.items()
                        if _boolean(e.get(flag, False), f"policy for {n}: {flag}")
                    )
                )
                for flag in ("creator_only", "non_monotone")
            }
        except (KeyError, TypeError, AttributeError) as exc:
            raise GraphError(f"malformed policy annotation: {exc}") from exc
        return cls(allowed=allowed, **flagged)


# --------------------------------------------------------------------------
# plan data model


def _string_list(value: object, what: str) -> tuple[str, ...]:
    """A document field that must be a list of strings."""
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise GraphError(f"{what} must be a list of strings, got {value!r}")
    return tuple(value)


def _role_pairs_field(value: object, what: str) -> tuple[tuple[str, str], ...]:
    """A document field that must be a list of [role, role] pairs."""
    if not isinstance(value, list) or not all(
        isinstance(p, list) and len(p) == 2 and all(isinstance(r, str) for r in p)
        for p in value
    ):
        raise GraphError(f"{what} must be a list of pairs of role names, got {value!r}")
    return tuple((a, b) for a, b in value)


@dataclass(frozen=True)
class TestStep:
    __test__ = False  # not a pytest class

    rule: str
    role: str
    bindings: dict[str, dict] = field(default_factory=dict)
    setup: bool = False

    def to_doc(self) -> dict:
        return {
            "rule": self.rule,
            "role": self.role,
            "bindings": {var: dict(hint) for var, hint in sorted(self.bindings.items())},
            "setup": self.setup,
        }

    @classmethod
    def from_doc(cls, doc: dict) -> "TestStep":
        if not isinstance(doc, dict):
            raise GraphError("malformed test step: expected an object")
        bindings = doc.get("bindings", {})
        if not isinstance(bindings, dict) or not all(
            isinstance(h, dict) for h in bindings.values()
        ):
            raise GraphError(f"step {doc.get('rule')}: bindings must map names to objects")
        rule, role = doc["rule"], doc["role"]
        if not (isinstance(rule, str) and isinstance(role, str)):
            raise GraphError(f"step {rule!r}: rule and role must be strings")
        return cls(
            rule=rule,
            role=role,
            bindings={var: dict(h) for var, h in bindings.items()},
            setup=_boolean(doc.get("setup", False), f"step {rule}: setup"),
        )


@dataclass(frozen=True)
class TaintTest:
    id: str
    kind: str
    steps: tuple[TestStep, ...]
    expected_access: bool
    covered_reasons: tuple[str, ...] = ()
    covered_role_pairs: tuple[tuple[str, str], ...] = ()

    def to_doc(self) -> dict:
        return {
            "id": self.id,
            "kind": self.kind,
            "expected_access": self.expected_access,
            "steps": [s.to_doc() for s in self.steps],
            "covered_reasons": list(self.covered_reasons),
            "covered_role_pairs": [list(p) for p in self.covered_role_pairs],
        }

    @classmethod
    def from_doc(cls, doc: dict) -> "TaintTest":
        try:
            test_id, kind = doc["id"], doc["kind"]
            if not (isinstance(test_id, str) and isinstance(kind, str)):
                raise GraphError(f"test {test_id!r}: id and kind must be strings")
            return cls(
                id=test_id,
                kind=kind,
                steps=tuple(TestStep.from_doc(s) for s in doc["steps"]),
                expected_access=_boolean(
                    doc["expected_access"], f"test {test_id}: expected_access"
                ),
                covered_reasons=_string_list(
                    doc.get("covered_reasons", []), f"test {test_id}: covered_reasons"
                ),
                covered_role_pairs=_role_pairs_field(
                    doc.get("covered_role_pairs", []), f"test {test_id}: covered_role_pairs"
                ),
            )
        except (KeyError, TypeError) as exc:
            raise GraphError(f"malformed test document: {exc}") from exc


@dataclass(frozen=True)
class TestPlan:
    __test__ = False  # not a pytest class

    roles: RoleSpec
    tests: tuple[TaintTest, ...]
    negative_infeasible: tuple[str, ...] = ()  # reason ids nobody can be denied for
    notes: tuple[str, ...] = ()

    def by_kind(self, kind: str) -> list[TaintTest]:
        return [t for t in self.tests if t.kind == kind]

    def to_doc(self) -> dict:
        return {
            "roles": self.roles.to_doc(),
            "tests": [t.to_doc() for t in self.tests],
            "negative_infeasible": list(self.negative_infeasible),
            "notes": list(self.notes),
        }

    @classmethod
    def from_doc(cls, doc: dict) -> "TestPlan":
        try:
            return cls(
                roles=RoleSpec.from_doc(doc["roles"]),
                tests=tuple(TaintTest.from_doc(t) for t in doc["tests"]),
                negative_infeasible=_string_list(
                    doc.get("negative_infeasible", []), "negative_infeasible"
                ),
                notes=_string_list(doc.get("notes", []), "notes"),
            )
        except (KeyError, TypeError) as exc:
            raise GraphError(f"malformed plan document: {exc}") from exc


# --------------------------------------------------------------------------
# setup synthesis


_Explored = tuple[InstanceGraph, tuple[DirectTransformation, ...]]


class _Exploration:
    """One `explore` from a start host, grown only as far as a search needs,
    and everything it has yielded so far."""

    def __init__(self, hosts: Iterator[_Explored]) -> None:
        self._hosts = hosts
        self._yielded: list[_Explored] = []

    def __iter__(self) -> Iterator[_Explored]:
        """What `explore` yields, in its order: first what it yielded
        before, then what it goes on to yield."""
        index = 0
        while True:
            if index == len(self._yielded):
                step = next(self._hosts, None)
                if step is None:
                    return
                self._yielded.append(step)
            yield self._yielded[index]
            index += 1


def _host_key(host: InstanceGraph) -> tuple:
    """The host's exact elements: equal keys mean equal node and edge ids."""
    return tuple(sorted(host.nodes.items())), tuple(sorted(host.edges.items()))


def _search_embedding(
    pattern: InstanceGraph,
    initial: InstanceGraph,
    rules: Iterable[Rule],
    depth: int,
    explorations: dict[tuple, _Exploration],
) -> list[DirectTransformation] | None:
    """The steps to the first explored host the pattern embeds in, else None.

    `explorations` holds, by start host, the explorations of earlier
    searches with the same rules and depth.  A search from one of those
    hosts goes on with its exploration rather than starting another.
    `explore` is deterministic, so the steps are the same either way.
    """
    key = _host_key(initial)
    if key not in explorations:
        explorations[key] = _Exploration(explore(rules, initial, depth))
    for host, trace in explorations[key]:
        if next(iter_matches(pattern, host), None) is not None:
            return list(trace)
    return None


# --------------------------------------------------------------------------
# symbolic plan execution


class _SymbolicRun:
    """Tracks the host a plan builds up and where each element came from."""

    def __init__(self, initial: InstanceGraph) -> None:
        self.host = initial
        self.provenance: dict[str, tuple[int, str]] = {}
        self.steps: list[TestStep] = []

    def _bindings(self, rule: Rule, match: Morphism) -> dict[str, dict]:
        bindings: dict[str, dict] = {}
        if rule.call is None:
            return bindings
        for var, node in rule.call.bindings.items():
            host_id = match.node_map[node]
            if host_id in self.provenance:
                step, out_node = self.provenance[host_id]
                bindings[var] = {"step": step, "node": out_node}
            else:
                bindings[var] = {"value": host_id}
        return bindings

    def deny(self, rule: Rule, role: str, match: Morphism) -> None:
        """Append a denied step, which leaves the host as is."""
        self.steps.append(
            TestStep(rule=rule.name, role=role, bindings=self._bindings(rule, match))
        )

    def record(
        self, t: DirectTransformation, role: str, setup: bool = False
    ) -> DirectTransformation:
        """Append a step already applied to the planned host: bindings from
        its match, the next host from its result, provenance from its
        comatch."""
        index = len(self.steps)
        self.steps.append(
            TestStep(
                rule=t.rule.name,
                role=role,
                bindings=self._bindings(t.rule, t.match),
                setup=setup,
            )
        )
        self.host = t.result
        for node in t.rule.created_nodes():
            self.provenance[t.comatch.node_map[node]] = (index, node)
        return t

    def add(
        self, rule: Rule, role: str, match: Morphism, setup: bool = False
    ) -> DirectTransformation:
        """Apply the rule at the match on the planned host and append the step."""
        return self.record(apply(rule, self.host, match), role, setup)


# --------------------------------------------------------------------------
# plan generation


def generate_minimal_tests(
    flow: TaintedFlow,
    roles: RoleSpec,
    policy: PolicyAnnotation,
    setup_rules: Sequence[Rule] = (),
    *,
    initial: InstanceGraph,
    include_unreviewed: bool = False,
) -> TestPlan:
    if not include_unreviewed and flow.unreviewed_ids():
        raise PlanningError(
            "flow has unreviewed reasons: "
            + ", ".join(flow.unreviewed_ids())
            + " (review them or force generation)"
        )
    planner = _Planner(flow, roles, policy, setup_rules, initial)
    return planner.plan()


class _Planner:
    def __init__(
        self,
        flow: TaintedFlow,
        roles: RoleSpec,
        policy: PolicyAnnotation,
        setup_rules: Sequence[Rule],
        initial: InstanceGraph,
    ) -> None:
        self.flow = flow
        self.roles = roles
        self.policy = policy
        self.api = flow.api
        self.initial = initial
        self.all_rules = list(self.api.rules) + [
            r for r in setup_rules if r.name not in {x.name for x in self.api.rules}
        ]
        names = [r.name for r in self.api.rules]
        policy.validate_against(roles, names + [r.name for r in setup_rules])
        self.seed_rule = next(
            (
                r
                for r in sorted(setup_rules, key=lambda r: r.name)
                if r.setup_only and not r.lhs.nodes and len(r.created_nodes()) == 1
            ),
            None,
        )
        self.notes: list[str] = []
        self.infeasible: list[str] = []
        # the explorations the run's setup searches share, by start host
        self.explorations: dict[tuple, _Exploration] = {}

    # -- helpers

    def _max_allowed(self, rule_name: str) -> str:
        role = self.roles.maximal(self.policy.allowed_roles(rule_name))
        if role is None:
            raise PolicyError(f"no role is allowed to call {rule_name}")
        return role

    def _min_allowed(self, rule_name: str) -> str:
        role = self.roles.minimal(self.policy.allowed_roles(rule_name))
        if role is None:
            raise PolicyError(f"no role is allowed to call {rule_name}")
        return role

    def _setup_role(self, rule_name: str, preferred: str) -> str:
        if self.policy.allows(rule_name, preferred):
            return preferred
        return self._max_allowed(rule_name)

    def _seed(self, run: _SymbolicRun, test_roles: list[str]) -> None:
        """One principal node per distinct role, most privileged first."""
        if self.seed_rule is None:
            return
        ordered = [r for r in self.roles.descending() if r in set(test_roles)]
        for role in ordered:
            if not self.policy.allows(self.seed_rule.name, role):
                raise PolicyError(
                    f"seed rule {self.seed_rule.name} is denied for {role}; "
                    "cannot establish that principal"
                )
            match = Morphism(self.seed_rule.lhs, run.host, {}, {})
            run.add(self.seed_rule, role, match, setup=True)

    def _complete(
        self, run: _SymbolicRun, pattern: InstanceGraph, role: str
    ) -> Morphism:
        """Add the setup steps after which the pattern embeds in the planned
        host, and return its first match there."""
        steps = _search_embedding(
            pattern, run.host, self.all_rules, SETUP_DEPTH, self.explorations
        )
        if steps is None:
            wanted = ", ".join(f"{n}:{t}" for n, t in sorted(pattern.nodes.items()))
            raise PlanningError(f"no setup embeds the required context ({wanted})")
        # the explored steps start at the planned host, so they are the
        # planned steps, and the last one's result is the host the pattern
        # embeds in
        for t in steps:
            run.record(t, self._setup_role(t.rule.name, role), setup=True)
        return first_match(pattern, run.host)

    # -- flow tests

    def _reason_pre_context(self, reason: DependencyReason) -> InstanceGraph:
        source = self.api.rule(reason.source_rule)
        return apply_inverse(source, reason.glued, reason.source_comatch)

    def _reason_test(
        self,
        test_id: str,
        kind: str,
        reason: DependencyReason,
        source_role: str,
        sink_role: str,
        expected: bool,
    ) -> TaintTest:
        source = self.api.rule(reason.source_rule)
        sink = self.api.rule(reason.sink_rule)
        if source.deleted_nodes() or source.deleted_edges():
            raise PlanningError(
                f"cannot plan around source rule {source.name}: it deletes elements"
            )
        run = _SymbolicRun(self.initial)
        seed_roles = [source_role] + ([sink_role] if expected else [])
        self._seed(run, seed_roles)
        embed = self._complete(run, self._reason_pre_context(reason), source_role)
        source_match = Morphism(
            source.lhs,
            run.host,
            {n: embed.node_map[n] for n in source.lhs.nodes},
            {e: embed.edge_map[e] for e in source.lhs.edges},
        )
        source_comatch = run.add(source, source_role, source_match).comatch
        sink_nodes = {}
        for x in sink.lhs.nodes:
            gid = reason.sink_match.node_map[x]
            if gid in source.tags and source.tags[gid] == CREATE:
                sink_nodes[x] = source_comatch.node_map[gid]
            else:
                sink_nodes[x] = embed.node_map[gid]
        sink_edges = {}
        for x in sink.lhs.edges:
            gid = reason.sink_match.edge_map[x]
            if gid in source.tags and source.tags[gid] == CREATE:
                sink_edges[x] = source_comatch.edge_map[gid]
            else:
                sink_edges[x] = embed.edge_map[gid]
        sink_match = Morphism(sink.lhs, run.host, sink_nodes, sink_edges)
        if expected:
            run.add(sink, sink_role, sink_match)
        else:
            run.deny(sink, sink_role, sink_match)
        pairs = _role_pairs(run.steps)
        return TaintTest(
            id=test_id,
            kind=kind,
            steps=tuple(run.steps),
            expected_access=expected,
            covered_reasons=(reason.id,),
            covered_role_pairs=pairs,
        )

    # -- role augmentation

    def _diagonal_positive(self, role: str) -> TaintTest | None:
        for reason in sorted(self.flow.reasons, key=lambda r: r.id):
            if self.policy.allows(reason.source_rule, role) and self.policy.allows(
                reason.sink_rule, role
            ):
                return self._reason_test(
                    f"role-pos:{role}", ROLE_POSITIVE, reason, role, role, True
                )
        for rule in sorted(self.api.rules, key=lambda r: r.name):
            if rule.setup_only or not self.policy.allows(rule.name, role):
                continue
            try:
                return self._repeated_rule_test(role, rule)
            except PlanningError:
                continue
        self.notes.append(f"role {role}: no positive test possible under the policy")
        return None

    def _repeated_rule_test(self, role: str, rule: Rule) -> TaintTest:
        run = _SymbolicRun(self.initial)
        self._seed(run, [role])
        run.add(rule, role, self._complete(run, rule.lhs, role))
        again = first_match(rule.lhs, run.host)
        if again is None:
            raise PlanningError(f"no match for {rule.name} in the planned host")
        run.add(rule, role, again)
        return TaintTest(
            id=f"role-pos:{role}",
            kind=ROLE_POSITIVE,
            steps=tuple(run.steps),
            expected_access=True,
            covered_reasons=(),
            covered_role_pairs=_role_pairs(run.steps),
        )

    def _strict_negative(self, hi: str, lo: str) -> TaintTest | None:
        for reason in sorted(self.flow.reasons, key=lambda r: r.id):
            if self.policy.allows(reason.source_rule, hi) and not self.policy.allows(
                reason.sink_rule, lo
            ):
                return self._reason_test(
                    f"role-neg:{hi}>{lo}", ROLE_NEGATIVE, reason, hi, lo, False
                )
        self.notes.append(
            f"role pair ({hi}, {lo}): no negative test possible under the policy"
        )
        return None

    # -- assembly

    def plan(self) -> TestPlan:
        tests: list[TaintTest] = []
        for reason in sorted(self.flow.reasons, key=lambda r: r.id):
            source_role = self._max_allowed(reason.source_rule)
            positive_sink_role = self._min_allowed(reason.sink_rule)
            tests.append(
                self._reason_test(
                    f"flow-pos:{reason.id}",
                    FLOW_POSITIVE,
                    reason,
                    source_role,
                    positive_sink_role,
                    True,
                )
            )
            denied = self.policy.denied_roles(reason.sink_rule, self.roles)
            denied_role = self.roles.maximal(denied)
            if denied_role is None:
                self.infeasible.append(reason.id)
                continue
            tests.append(
                self._reason_test(
                    f"flow-neg:{reason.id}",
                    FLOW_NEGATIVE,
                    reason,
                    source_role,
                    denied_role,
                    False,
                )
            )
        for role in self.roles.descending():
            test = self._diagonal_positive(role)
            if test is not None:
                tests.append(test)
        for hi, lo in self.roles.strict_pairs():
            test = self._strict_negative(hi, lo)
            if test is not None:
                tests.append(test)
        _check_plan_invariants(tests, self.policy)
        return TestPlan(
            roles=self.roles,
            tests=tuple(tests),
            negative_infeasible=tuple(self.infeasible),
            notes=tuple(self.notes),
        )


def _role_pairs(steps: Sequence[TestStep]) -> tuple[tuple[str, str], ...]:
    payload = [s for s in steps if not s.setup]
    pairs = []
    for i, a in enumerate(payload):
        for b in payload[i + 1 :]:
            if (a.role, b.role) not in pairs:
                pairs.append((a.role, b.role))
    return tuple(pairs)


def _check_plan_invariants(tests: Sequence[TaintTest], policy: PolicyAnnotation) -> None:
    for test in tests:
        denied = [
            s for s in test.steps if not policy.allows(s.rule, s.role)
        ]
        if test.expected_access and denied:
            raise PlanningError(
                f"positive test {test.id} contains denied steps: "
                + ", ".join(f"{s.rule}@{s.role}" for s in denied)
            )
        if not test.expected_access:
            if len(denied) != 1 or denied[0] is not test.steps[-1]:
                raise PlanningError(
                    f"negative test {test.id} must have exactly its final step denied"
                )


# --------------------------------------------------------------------------
# coverage checking


@dataclass(frozen=True)
class ReasonCoverage:
    reason_id: str
    positive: bool
    negative: bool
    negative_infeasible: bool

    @property
    def satisfied(self) -> bool:
        return self.positive and (self.negative or self.negative_infeasible)


@dataclass(frozen=True)
class FlowCoverageReport:
    reasons: tuple[ReasonCoverage, ...]
    secured_satisfied: bool
    unsecured_satisfied: bool

    @property
    def satisfied(self) -> bool:
        return all(r.satisfied for r in self.reasons)

    def uncovered(self) -> list[str]:
        return [r.reason_id for r in self.reasons if not r.satisfied]


def check_flow_coverage(plan: TestPlan, flow: TaintedFlow) -> FlowCoverageReport:
    """Every reason needs a positive and a negative test exercising it."""
    entries = []
    for reason in flow.reasons:
        positive = any(
            reason.id in t.covered_reasons and t.expected_access for t in plan.tests
        )
        negative = any(
            reason.id in t.covered_reasons and not t.expected_access for t in plan.tests
        )
        entries.append(
            ReasonCoverage(
                reason_id=reason.id,
                positive=positive,
                negative=negative,
                negative_infeasible=reason.id in plan.negative_infeasible,
            )
        )
    by_id = {e.reason_id: e for e in entries}
    secured = all(by_id[r].satisfied for r in flow.secured_ids())
    unsecured = all(by_id[r].satisfied for r in flow.unsecured_ids())
    return FlowCoverageReport(
        reasons=tuple(entries),
        secured_satisfied=secured,
        unsecured_satisfied=unsecured,
    )


@dataclass(frozen=True)
class RoleCoverage:
    role: str
    positive: bool
    negative: bool
    negative_waived: bool

    @property
    def satisfied(self) -> bool:
        return self.positive and (self.negative or self.negative_waived)


@dataclass(frozen=True)
class RoleCoverageReport:
    roles: tuple[RoleCoverage, ...]

    @property
    def satisfied(self) -> bool:
        return all(r.satisfied for r in self.roles)

    def uncovered(self) -> list[str]:
        return [r.role for r in self.roles if not r.satisfied]


def check_role_coverage(plan: TestPlan, roles: RoleSpec) -> RoleCoverageReport:
    """Each role needs a positive test at or below its privilege and, unless
    least privileged, a negative test exercising a strictly lower role."""
    least = set(roles.least_privileged())
    entries = []
    for role in roles.descending():
        positive = any(
            t.expected_access
            and any(a == role and roles.leq(role, b) for a, b in t.covered_role_pairs)
            for t in plan.tests
        )
        negative = any(
            not t.expected_access
            and any(a == role and roles.lt(b, role) for a, b in t.covered_role_pairs)
            for t in plan.tests
        )
        entries.append(
            RoleCoverage(
                role=role,
                positive=positive,
                negative=negative,
                negative_waived=role in least,
            )
        )
    return RoleCoverageReport(roles=tuple(entries))
