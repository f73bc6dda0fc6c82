"""Plan generation: minimal flow tests, role augmentation, coverage checking."""

from __future__ import annotations

import json
import random
import shutil

import pytest
from fixtures import (
    PROJECTS,
    SYNTHETIC_TINY,
    analyzed_collab_rules,
    collab_plan,
    collab_policy,
    collab_roles,
    collab_rules,
    collab_tainted_typegraph,
    collab_typegraph,
    policy_to_doc,
    reviewed_collab_flow,
    synthetic_project,
)
from hypothesis import given, settings
from hypothesis import strategies as st
from randgen import random_graph, random_rule, random_typegraph

from graphbac import planner
from graphbac.cli import Project
from graphbac.core import GraphError, InstanceGraph
from graphbac.planner import (
    FLOW_NEGATIVE,
    FLOW_POSITIVE,
    ROLE_NEGATIVE,
    ROLE_POSITIVE,
    SETUP_DEPTH,
    PlanningError,
    PolicyAnnotation,
    RoleSpec,
    TaintTest,
    TestPlan,
    check_flow_coverage,
    check_role_coverage,
    _host_key,
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
        return _search_embedding(rules[name].lhs, empty_host(), pool, 6, {})

    assert setup("createUser") == []
    assert [t.rule.name for t in setup("createRepo")] == ["createUser"]
    assert [t.rule.name for t in setup("createIssue")] == ["createUser", "createRepo"]


def test_synthesize_setup_reports_unreachable_patterns():
    rules = collab_rules()
    assert (
        _search_embedding(rules["updateRepo"].lhs, empty_host(), [rules["getUser"]], 3, {})
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
            initial=empty_host(),
        )
    forced = generate_minimal_tests(
        flow,
        collab_roles(),
        collab_policy(),
        setup_rules=[collab_rules()["createUser"]],
        initial=empty_host(),
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
        initial=empty_host(),
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
        initial=empty_host(),
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


# ---- one exploration per start host --------------------------------------

PLANNED = ("running-example", "github-issue", "synthetic")


@pytest.fixture(scope="module")
def planning_inputs(tmp_path_factory):
    """By project, the arguments `plan-tests` passes to `generate_minimal_tests`."""
    root = tmp_path_factory.mktemp("planned")
    for name in PLANNED[:2]:
        shutil.copytree(PROJECTS / name, root / name)
    synthetic_project(root / "synthetic", SYNTHETIC_TINY)
    inputs = {}
    for name in PLANNED:
        project = Project.load(root / name)
        inputs[name] = dict(
            flow=project.flow(reviewed=True),
            roles=project.roles(),
            policy=project.policy(),
            setup_rules=project.setup_rules(),
            initial=project.initial(),
        )
    return inputs


def _recorded_run(monkeypatch, inputs: dict) -> tuple[list[tuple], list[tuple]]:
    """One planner run: each setup search's arguments and steps, and the
    start host of each `explore` it began."""
    searches, explored = [], []
    search, explore = planner._search_embedding, planner.explore

    def recording(pattern, initial, rules, depth, explorations):
        steps = search(pattern, initial, rules, depth, explorations)
        searches.append((pattern, initial, rules, explorations, steps))
        return steps

    def counted(rules, initial, depth):
        explored.append(_host_key(initial))
        return explore(rules, initial, depth)

    with monkeypatch.context() as patched:
        patched.setattr(planner, "_search_embedding", recording)
        patched.setattr(planner, "explore", counted)
        generate_minimal_tests(**inputs)
    return searches, explored


def _steps(found) -> list[tuple] | None:
    """A search's result as rule names and match maps."""
    if found is None:
        return None
    return [(t.rule.name, t.match.node_map, t.match.edge_map) for t in found]


def _unreachable(host: InstanceGraph, rules, depth: int) -> InstanceGraph:
    """More nodes of one type than `depth` steps from the host can have."""
    most = len(host.nodes) + depth * max(len(r.created_nodes()) for r in rules) + 1
    ntype = host.typegraph.node_types[0]
    return InstanceGraph(host.typegraph, {f"u{i}": ntype for i in range(most)}, {})


@pytest.mark.parametrize("name", PLANNED)
def test_shared_setup_searches_find_what_fresh_ones_do(planning_inputs, monkeypatch, name):
    searches, _ = _recorded_run(monkeypatch, planning_inputs[name])
    tables = {id(explorations) for *_, explorations, _ in searches}
    assert len(tables) == 1  # one table per run
    for pattern, initial, rules, _, steps in searches:
        fresh = _search_embedding(pattern, initial, rules, SETUP_DEPTH, {})
        assert _steps(steps) == _steps(fresh)
    # again through a new table whose explorations an unreachable pattern
    # has already run to their end
    explorations: dict = {}
    for _, initial, rules, _, _ in searches:
        if _host_key(initial) not in explorations:
            pattern = _unreachable(initial, rules, SETUP_DEPTH)
            assert _search_embedding(pattern, initial, rules, SETUP_DEPTH, explorations) is None
    for pattern, initial, rules, _, steps in searches:
        shared = _search_embedding(pattern, initial, rules, SETUP_DEPTH, explorations)
        assert _steps(shared) == _steps(steps)


@pytest.mark.parametrize("seed", range(15))
def test_shared_searches_on_random_systems_find_what_fresh_ones_do(seed):
    rng = random.Random(seed)
    tg = random_typegraph(rng)
    rules = [random_rule(rng, tg, name=f"r{i}", max_nodes=3, max_edges=2) for i in range(3)]
    host = random_graph(rng, tg, max_nodes=3, max_edges=2)
    # the same nodes without their edges is another start host
    starts = [InstanceGraph.empty(tg), host, InstanceGraph(tg, host.nodes, {})]
    patterns = [host] + [r.lhs for r in rules] + [
        random_graph(rng, tg, max_nodes=3, max_edges=3, prefix="p") for _ in range(3)
    ]
    depth = 3
    explorations: dict = {}
    # the first start host's exploration runs to its end before any other search
    unreachable = _unreachable(starts[0], rules, depth)
    assert _search_embedding(unreachable, starts[0], rules, depth, explorations) is None
    searches = [(pattern, start) for pattern in patterns for start in starts]
    rng.shuffle(searches)
    for pattern, start in searches:
        # an equal host, not the same object: the table keys by elements
        equal = InstanceGraph(tg, start.nodes, start.edges)
        shared = _search_embedding(pattern, equal, rules, depth, explorations)
        assert _steps(shared) == _steps(_search_embedding(pattern, start, rules, depth, {}))
    assert len(explorations) == len({_host_key(s) for s in starts})


# distinct start hosts of one planner run: the empty host seeded with one
# principal, and with two
START_HOSTS = {"running-example": 2, "github-issue": 2, "synthetic": 2}


@pytest.mark.parametrize("name", PLANNED)
def test_a_planner_run_explores_once_per_start_host(planning_inputs, monkeypatch, name):
    inputs = planning_inputs[name]
    searches, explored = _recorded_run(monkeypatch, inputs)
    hosts = {_host_key(initial) for _, initial, *_ in searches}
    assert len(hosts) == START_HOSTS[name]
    assert len(searches) > len(hosts)
    assert sorted(explored) == sorted(hosts)
    # a second run, with the first reason's sink open to every role, starts
    # its own explorations: nothing is kept between runs
    policy = inputs["policy"]
    sink = min(inputs["flow"].reasons, key=lambda r: r.id).sink_rule
    opened = PolicyAnnotation(
        allowed={**policy.allowed, sink: inputs["roles"].roles},
        creator_only=policy.creator_only,
        non_monotone=policy.non_monotone,
    )
    searches, explored = _recorded_run(monkeypatch, {**inputs, "policy": opened})
    again = {_host_key(initial) for _, initial, *_ in searches}
    assert sorted(explored) == sorted(again)
    assert hosts & again
