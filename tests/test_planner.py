"""Plan generation: minimal flow tests, role augmentation, coverage checking."""

from __future__ import annotations

import json

import pytest
from fixtures import (
    analyzed_collab_rules,
    collab_plan,
    collab_policy,
    collab_roles,
    collab_rules,
    collab_tainted_typegraph,
    collab_typegraph,
    policy_to_doc,
    reviewed_collab_flow,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from graphbac.core import GraphError, InstanceGraph
from graphbac.planner import (
    FLOW_NEGATIVE,
    FLOW_POSITIVE,
    ROLE_NEGATIVE,
    ROLE_POSITIVE,
    PlanningError,
    PolicyAnnotation,
    RoleSpec,
    TaintTest,
    TestPlan,
    check_flow_coverage,
    check_role_coverage,
    _search_embedding,
    generate_minimal_tests,
)
from graphbac.taint import (
    SECURED,
    ReviewEntry,
    apply_review,
    classify_sources_sinks,
    tainted_flow,
)

OWNER, COLLAB, NOPE = "Owner", "Collaborator", "NoPe-Collaborator"


def _planned(plan: TestPlan, test_id: str) -> TaintTest:
    """The planned test with the given id."""
    return next(t for t in plan.tests if t.id == test_id)


def empty_host() -> InstanceGraph:
    return InstanceGraph(collab_typegraph(), {}, {})


@pytest.fixture(scope="module")
def reviewed_flow():
    return reviewed_collab_flow()


@pytest.fixture(scope="module")
def plan():
    return collab_plan()


def test_role_spec_order_and_extremes():
    roles = collab_roles()
    assert roles.leq(NOPE, OWNER) and roles.leq(NOPE, COLLAB)
    assert roles.lt(COLLAB, OWNER) and not roles.lt(OWNER, COLLAB)
    assert roles.descending() == [OWNER, COLLAB, NOPE]
    assert roles.least_privileged() == [NOPE]
    assert roles.maximal((COLLAB, NOPE)) == COLLAB
    assert roles.minimal((OWNER, COLLAB)) == COLLAB
    assert roles.strict_pairs() == [(OWNER, COLLAB), (OWNER, NOPE), (COLLAB, NOPE)]


def test_role_spec_rejects_cycles_and_unknowns():
    with pytest.raises(GraphError, match="cycle"):
        RoleSpec(roles=("a", "b"), order=(("a", "b"), ("b", "a")))
    with pytest.raises(GraphError, match="unknown role"):
        RoleSpec(roles=("a",), order=(("a", "c"),))
    with pytest.raises(GraphError, match="duplicate"):
        RoleSpec(roles=("a", "a"))


def test_role_spec_roundtrip():
    roles = collab_roles()
    assert RoleSpec.from_doc(json.loads(json.dumps(roles.to_doc()))) == roles


def test_policy_upward_closure_enforced():
    roles = collab_roles()
    bad = PolicyAnnotation(allowed={"getUser": (COLLAB,)})
    with pytest.raises(GraphError, match="higher"):
        bad.validate_against(roles, ["getUser"])
    overridden = PolicyAnnotation(
        allowed={"getUser": (COLLAB,)}, non_monotone=("getUser",)
    )
    overridden.validate_against(roles, ["getUser"])
    with pytest.raises(GraphError, match="unknown rule"):
        collab_policy().validate_against(roles, ["getUser"])


def test_policy_roundtrip():
    policy = PolicyAnnotation(
        allowed={"a": (OWNER,), "b": (OWNER, COLLAB)},
        creator_only=("b",),
        non_monotone=("a",),
    )
    assert PolicyAnnotation.from_doc(json.loads(json.dumps(policy_to_doc(policy)))) == policy


def test_synthesize_setup_prefixes():
    rules = collab_rules()
    pool = list(rules.values())

    def setup(name):
        return _search_embedding(rules[name].lhs, empty_host(), pool, 6)

    assert setup("createUser") == []
    assert [t.rule.name for t in setup("createRepo")] == ["createUser"]
    assert [t.rule.name for t in setup("createIssue")] == ["createUser", "createRepo"]


def test_synthesize_setup_reports_unreachable_patterns():
    rules = collab_rules()
    assert (
        _search_embedding(rules["updateRepo"].lhs, empty_host(), [rules["getUser"]], 3)
        is None
    )


def test_plan_shape(plan):
    assert len(plan.tests) == 18
    kinds = {k: len(plan.by_kind(k)) for k in
             (FLOW_POSITIVE, FLOW_NEGATIVE, ROLE_POSITIVE, ROLE_NEGATIVE)}
    assert kinds == {
        FLOW_POSITIVE: 6,
        FLOW_NEGATIVE: 6,
        ROLE_POSITIVE: 3,
        ROLE_NEGATIVE: 3,
    }
    assert plan.negative_infeasible == ()
    assert plan.notes == ()
    assert len({t.id for t in plan.tests}) == 18


def test_flow_positive_direct_pair(plan):
    test = _planned(plan, "flow-pos:createRepo->updateRepo#0")
    assert [(s.rule, s.role, s.setup) for s in test.steps] == [
        ("createUser", OWNER, True),
        ("createRepo", OWNER, False),
        ("updateRepo", OWNER, False),
    ]
    assert test.expected_access
    assert test.steps[2].bindings == {"repo": {"step": 1, "node": "r"}}
    assert test.covered_reasons == ("createRepo->updateRepo#0",)
    assert test.covered_role_pairs == ((OWNER, OWNER),)


def test_flow_positive_with_setup_chain(plan):
    test = _planned(plan, "flow-pos:createIssue->updateIssue#0")
    assert [(s.rule, s.role, s.setup) for s in test.steps] == [
        ("createUser", OWNER, True),
        ("createUser", COLLAB, True),
        ("createRepo", OWNER, True),
        ("createIssue", OWNER, False),
        ("updateIssue", COLLAB, False),
    ]
    assert test.steps[3].bindings == {"repo": {"step": 2, "node": "r"}}
    assert test.steps[4].bindings == {"issue": {"step": 3, "node": "i"}}
    assert test.covered_role_pairs == ((OWNER, COLLAB),)


def test_flow_negative_denies_highest_denied_role(plan):
    test = _planned(plan, "flow-neg:createIssue->updateIssue#0")
    assert not test.expected_access
    assert test.steps[-1].rule == "updateIssue"
    assert test.steps[-1].role == NOPE
    negatives_on_update_issue = [
        t
        for t in plan.tests
        if not t.expected_access and t.steps[-1].rule == "updateIssue"
    ]
    assert negatives_on_update_issue == [test]
    deleted = _planned(plan, "flow-neg:createIssue->deleteIssue#0")
    assert deleted.steps[-1].role == COLLAB  # highest role the policy denies


def _payload(test):
    """(rule, role) of each step that is not setup."""
    return [(s.rule, s.role) for s in test.steps if not s.setup]


def test_role_positive_diagonals(plan):
    owner = _planned(plan, "role-pos:Owner")
    assert _payload(owner) == [
        ("createIssue", OWNER),
        ("deleteIssue", OWNER),
    ]
    collab = _planned(plan, "role-pos:Collaborator")
    assert _payload(collab) == [
        ("createIssue", COLLAB),
        ("updateIssue", COLLAB),
    ]
    assert collab.covered_reasons == ("createIssue->updateIssue#0",)
    nope = _planned(plan, "role-pos:NoPe-Collaborator")
    assert _payload(nope) == [
        ("getUser", NOPE),
        ("getUser", NOPE),
    ]
    assert nope.covered_reasons == ()
    for step in nope.steps[-2:]:
        assert not step.setup
        assert step.bindings == {"user": {"step": 0, "node": "u"}}


def test_role_negatives_pick_first_reason(plan):
    expectations = {
        "role-neg:Owner>Collaborator": (OWNER, COLLAB),
        "role-neg:Owner>NoPe-Collaborator": (OWNER, NOPE),
        "role-neg:Collaborator>NoPe-Collaborator": (COLLAB, NOPE),
    }
    for test_id, (hi, lo) in expectations.items():
        test = _planned(plan, test_id)
        assert not test.expected_access
        assert _payload(test) == [
            ("createIssue", hi),
            ("deleteIssue", lo),
        ]
        assert test.covered_role_pairs == ((hi, lo),)


def test_plan_satisfies_both_coverage_notions(plan, reviewed_flow):
    flow_report = check_flow_coverage(plan, reviewed_flow)
    assert flow_report.satisfied
    assert flow_report.secured_satisfied and flow_report.unsecured_satisfied
    assert flow_report.uncovered() == []
    role_report = check_role_coverage(plan, collab_roles())
    assert role_report.satisfied
    assert role_report.uncovered() == []


def test_positive_steps_allowed_negatives_deny_only_sink(plan):
    policy = collab_policy()
    for test in plan.tests:
        denied = [s for s in test.steps if not policy.allows(s.rule, s.role)]
        if test.expected_access:
            assert denied == []
        else:
            assert denied == [test.steps[-1]]


def test_setup_steps_do_not_count_for_role_coverage(plan):
    test = _planned(plan, "flow-pos:createIssue->updateIssue#0")
    assert any(s.setup and s.role == OWNER for s in test.steps)
    assert test.covered_role_pairs == ((OWNER, COLLAB),)


def test_dropped_negative_breaks_unsecured_flow_coverage(plan, reviewed_flow):
    pruned = TestPlan(
        roles=plan.roles,
        tests=tuple(
            t for t in plan.tests if t.id != "flow-neg:createProject->deleteProject#0"
        ),
        negative_infeasible=plan.negative_infeasible,
    )
    report = check_flow_coverage(pruned, reviewed_flow)
    assert not report.satisfied
    assert report.uncovered() == ["createProject->deleteProject#0"]
    assert report.secured_satisfied
    assert not report.unsecured_satisfied


def test_dropped_diagonal_breaks_role_coverage(plan):
    pruned = TestPlan(
        roles=plan.roles,
        tests=tuple(t for t in plan.tests if t.id != "role-pos:NoPe-Collaborator"),
    )
    report = check_role_coverage(pruned, collab_roles())
    assert not report.satisfied
    assert report.uncovered() == [NOPE]


def test_unreviewed_flow_blocks_generation():
    ttg = collab_tainted_typegraph()
    api = classify_sources_sinks(analyzed_collab_rules().values(), ttg)
    flow = tainted_flow(api)
    with pytest.raises(PlanningError, match="unreviewed"):
        generate_minimal_tests(
            flow,
            collab_roles(),
            collab_policy(),
            setup_rules=[collab_rules()["createUser"]],
        )
    forced = generate_minimal_tests(
        flow,
        collab_roles(),
        collab_policy(),
        setup_rules=[collab_rules()["createUser"]],
        include_unreviewed=True,
    )
    assert len(forced.tests) == 18


def test_fully_allowed_sink_is_negative_infeasible(reviewed_flow):
    everyone = (OWNER, COLLAB, NOPE)
    policy = collab_policy()
    relaxed = PolicyAnnotation(
        allowed={**policy.allowed, "deleteProject": everyone}
    )
    plan = generate_minimal_tests(
        reviewed_flow,
        collab_roles(),
        relaxed,
        setup_rules=[collab_rules()["createUser"]],
    )
    assert plan.negative_infeasible == ("createProject->deleteProject#0",)
    assert len(plan.tests) == 17
    report = check_flow_coverage(plan, reviewed_flow)
    entry = next(
        r for r in report.reasons if r.reason_id == "createProject->deleteProject#0"
    )
    assert entry.negative_infeasible and not entry.negative and entry.satisfied
    assert report.satisfied


def test_plan_document_roundtrip(plan):
    doc = json.loads(json.dumps(plan.to_doc()))
    assert TestPlan.from_doc(doc) == plan


RANKED = (NOPE, COLLAB, OWNER)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=3**9 - 1))
def test_random_policies_keep_plans_coverage_complete(seed):
    ttg = collab_tainted_typegraph()
    api = classify_sources_sinks(analyzed_collab_rules().values(), ttg)
    flow = tainted_flow(api)
    flow = apply_review(
        flow,
        [ReviewEntry(rid, SECURED, "fixture") for rid in flow.reason_ids()],
    )
    names = sorted(r.name for r in api.rules)
    allowed = {"createUser": RANKED}
    value = seed
    for name in names:
        threshold = value % 3
        value //= 3
        allowed[name] = RANKED[threshold:]
    policy = PolicyAnnotation(allowed=allowed)
    plan = generate_minimal_tests(
        flow,
        collab_roles(),
        policy,
        setup_rules=[collab_rules()["createUser"]],
    )
    for test in plan.tests:
        denied = [s for s in test.steps if not policy.allows(s.rule, s.role)]
        if test.expected_access:
            assert denied == []
        else:
            assert denied == [test.steps[-1]]
    flow_report = check_flow_coverage(plan, flow)
    assert flow_report.satisfied
    role_report = check_role_coverage(plan, collab_roles())
    if not role_report.satisfied:
        assert plan.notes  # impossibility is reported, never silent
