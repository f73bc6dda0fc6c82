"""Dependency analysis against hand-checked expectations and concrete-step oracles."""

from __future__ import annotations

import json
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphbac.core import Edge, EdgeType, GraphError, InstanceGraph, TypeGraph, enumerate_matches
from graphbac.dependency import (
    INDEPENDENT,
    PRODUCE_USE,
    USE_DELETE,
    classify_transformation_pair,
    creation_profile,
    delete_overlap_reasons,
    deletion_profile,
    dependency_reasons,
    extract_reason,
    reason_from_doc,
    reason_to_doc,
    universally_sequentially_independent,
)
from graphbac.rules import Rule, apply

from fixtures import (
    analyzed_collab_rules,
    chain_initial,
    collab_rules,
    chain_rules,
    collab_typegraph,
    incident_initial,
    incident_rules,
)
from randgen import host_with_embedded_lhs, random_rule, random_typegraph


EXPECTED_EDGES = {
    ("createIssue", "deleteIssue"),
    ("createIssue", "updateIssue"),
    ("createProject", "deleteProject"),
    ("createProject", "getProject"),
    ("createRepo", "createIssue"),
    ("createRepo", "updateRepo"),
}


@pytest.fixture(scope="module")
def rules():
    return analyzed_collab_rules()


def _all_reasons(rules):
    """Reasons of every ordered pair that has any, keyed by (source, sink)."""
    names = sorted(rules)
    pairs = {(a, b): dependency_reasons(rules[a], rules[b]) for a in names for b in names}
    return {pair: found for pair, found in pairs.items() if found}


@pytest.fixture(scope="module")
def analysis(rules):
    return _all_reasons(rules)


def test_creation_profile_shape(rules):
    profile = creation_profile(rules["createRepo"])
    assert set(profile.creation.nodes) == {"u", "r"}
    assert set(profile.creation.edges) == {"repos", "owner"}
    assert set(profile.boundary.nodes) == {"u"}
    assert not profile.boundary.edges


def test_deletion_profile_shape(rules):
    profile = deletion_profile(rules["deleteProject"])
    assert set(profile.creation.nodes) == {"u", "p"}
    assert set(profile.creation.edges) == {"projects"}
    assert set(profile.boundary.nodes) == {"u"}


def test_dependency_graph_exact_edge_set(analysis):
    assert set(analysis) == EXPECTED_EDGES
    for pair in EXPECTED_EDGES:
        assert len(analysis[pair]) == 1


def test_reason_ids_are_stable(rules, analysis):
    again = _all_reasons(rules)
    assert [r.id for rs in again.values() for r in rs] == [
        r.id for rs in analysis.values() for r in rs
    ]
    assert analysis[("createRepo", "updateRepo")][0].id == "createRepo->updateRepo#0"


def test_repo_update_reason_spans_whole_result_side(rules, analysis):
    (reason,) = analysis[("createRepo", "updateRepo")]
    rhs = rules["createRepo"].rhs
    assert set(reason.span.nodes) == set(rhs.nodes)
    assert set(reason.span.edges) == set(rhs.edges)
    # minimal host: exactly the result side, nothing glued on
    assert set(reason.glued.nodes) == set(rhs.nodes)
    assert set(reason.glued.edges) == set(rhs.edges)


def test_issue_rules_unreachable_from_repo_creation(rules):
    assert dependency_reasons(rules["createRepo"], rules["updateIssue"]) == []
    assert dependency_reasons(rules["createRepo"], rules["deleteIssue"]) == []


def test_incident_toy_has_no_reason(rules):
    toy = incident_rules()
    assert dependency_reasons(toy["createIncidentT"], toy["deleteT"]) == []


def test_sink_context_may_coincide_with_preserved_context():
    # the source adds a second parallel loop next to one it merely preserves;
    # a sink deleting the node with two loops can only fire when its other
    # loop coincides with the preserved one, so realizability must consider
    # that identification instead of gluing the context as separate edges
    tg = TypeGraph(("T",), (EdgeType("loop", "T", "T"),))
    source = Rule(
        name="addLoop",
        typegraph=tg,
        nodes={"n": "T"},
        edges={"e0": Edge("loop", "n", "n"), "e1": Edge("loop", "n", "n")},
        tags={"n": "preserve", "e0": "preserve", "e1": "create"},
    )
    sink = Rule(
        name="dropNode",
        typegraph=tg,
        nodes={"m": "T"},
        edges={"f0": Edge("loop", "m", "m"), "f1": Edge("loop", "m", "m")},
        tags={"m": "delete", "f0": "delete", "f1": "delete"},
    )
    reasons = dependency_reasons(source, sink)
    # one reason per choice of which sink loop is the created one
    assert [r.id for r in reasons] == ["addLoop->dropNode#0", "addLoop->dropNode#1"]
    for reason in reasons:
        assert set(reason.span.edges) == {"e1"}
        # the witness host identifies the other sink loop with the preserved
        # loop: two loops in total, nothing left dangling for the deletion
        assert len(reason.glued.edges) == 2
    assert not universally_sequentially_independent(source, sink)


def test_incident_toy_indirect_witness_exists():
    toy = incident_rules()
    host = incident_initial()
    (m1,) = enumerate_matches(toy["createIncidentT"].lhs, host)
    t1 = apply(toy["createIncidentT"], host, m1)
    (m2,) = enumerate_matches(toy["deleteIncidentA"].lhs, t1.result)
    t2 = apply(toy["deleteIncidentA"], t1.result, m2)
    (m3,) = enumerate_matches(toy["deleteT"].lhs, t2.result)
    t3 = apply(toy["deleteT"], t2.result, m3)
    # the last step consumes what the first one made, through the middle step
    assert m3.node_image() <= t1.created_ids()
    assert not t3.result.nodes


def test_chain_toy_has_no_reason_but_indirect_witness():
    toy = chain_rules()
    assert dependency_reasons(toy["createIncidentT"], toy["createIncidentBPlus"]) == []
    host = chain_initial()
    (m1,) = enumerate_matches(toy["createIncidentT"].lhs, host)
    t1 = apply(toy["createIncidentT"], host, m1)
    (m2,) = enumerate_matches(toy["createIncidentB"].lhs, t1.result)
    t2 = apply(toy["createIncidentB"], t1.result, m2)
    (m3,) = enumerate_matches(toy["createIncidentBPlus"].lhs, t2.result)
    t3 = apply(toy["createIncidentBPlus"], t2.result, m3)
    assert classify_transformation_pair(t1, t2) == PRODUCE_USE
    assert m3.node_image() & t1.created_ids()
    assert len(t3.result.nodes) == 4


def _single_user_host():
    return InstanceGraph(collab_typegraph(), {"alice": "User"}, {})


def _apply_by_name(rule, host):
    matches = enumerate_matches(rule.lhs, host)
    assert matches, f"no match for {rule.name}"
    return apply(rule, host, matches[0])


def test_classify_produce_use_and_extract(rules, analysis):
    t1 = _apply_by_name(rules["createRepo"], _single_user_host())
    (m2,) = enumerate_matches(rules["updateRepo"].lhs, t1.result)
    t2 = apply(rules["updateRepo"], t1.result, m2)
    assert classify_transformation_pair(t1, t2) == PRODUCE_USE
    extracted = extract_reason(t1, t2)
    (reported,) = analysis[("createRepo", "updateRepo")]
    assert extracted.same_span(reported)


def test_classify_independent(rules):
    t1 = _apply_by_name(rules["createRepo"], _single_user_host())
    (m2,) = enumerate_matches(rules["createProject"].lhs, t1.result)
    t2 = apply(rules["createProject"], t1.result, m2)
    assert classify_transformation_pair(t1, t2) == INDEPENDENT
    assert extract_reason(t1, t2) is None


def test_classify_use_delete(rules):
    host = _apply_by_name(rules["createProject"], _single_user_host()).result
    t1 = _apply_by_name(rules["getProject"], host)
    (m2,) = enumerate_matches(rules["deleteProject"].lhs, t1.result)
    t2 = apply(rules["deleteProject"], t1.result, m2)
    assert classify_transformation_pair(t1, t2) == USE_DELETE


def test_classify_rejects_unchained_steps(rules):
    t1 = _apply_by_name(rules["createRepo"], _single_user_host())
    with pytest.raises(GraphError):
        classify_transformation_pair(t1, t1)


def test_universal_independence_examples(rules):
    assert universally_sequentially_independent(rules["createProject"], rules["updateRepo"])
    assert not universally_sequentially_independent(rules["createRepo"], rules["updateRepo"])
    assert universally_sequentially_independent(rules["updateRepo"], rules["deleteProject"])
    # reading then deleting the same project cannot be reordered
    assert not universally_sequentially_independent(rules["getProject"], rules["deleteProject"])
    assert delete_overlap_reasons(rules["getProject"], rules["deleteProject"])


# every ordered pair of running-example rules that is not universally
# sequentially independent, and the (span nodes, span edges) of every delete
# overlap witness; all other pairs are independent and have no witness
DEPENDENT_PAIRS = {
    ("createIssue", "deleteIssue"),
    ("createIssue", "updateIssue"),
    ("createProject", "deleteProject"),
    ("createProject", "getProject"),
    ("createRepo", "createIssue"),
    ("createRepo", "updateRepo"),
    ("createUser", "createProject"),
    ("createUser", "createRepo"),
    ("createUser", "getUser"),
    ("getProject", "deleteProject"),
    ("updateIssue", "deleteIssue"),
}
DELETE_OVERLAPS = {
    ("createIssue", "deleteIssue"): [(["i", "r"], ["repo"])],
    ("createProject", "deleteProject"): [(["p", "u"], ["projects"])],
    ("getProject", "deleteProject"): [
        (["p"], []),
        (["p", "u"], []),
        (["p", "u"], ["projects"]),
    ],
    ("updateIssue", "deleteIssue"): [
        (["i"], []),
        (["i", "r"], []),
        (["i", "r"], ["repo"]),
    ],
}


def test_independence_and_delete_overlaps_on_every_ordered_pair():
    rules = collab_rules()
    names = sorted(rules)
    assert len(names) == 10
    for first in names:
        for second in names:
            pair = (first, second)
            assert universally_sequentially_independent(
                rules[first], rules[second]
            ) == (pair not in DEPENDENT_PAIRS), pair
            witnesses = delete_overlap_reasons(rules[first], rules[second])
            assert [
                (w["span_nodes"], w["span_edges"]) for w in witnesses
            ] == DELETE_OVERLAPS.get(pair, []), pair


def test_reported_reason_is_concretely_realizable(rules, analysis):
    from graphbac.rules import apply_inverse, isomorphic

    (reason,) = analysis[("createRepo", "updateRepo")]
    rule = rules["createRepo"]
    before = apply_inverse(rule, reason.glued, reason.source_comatch)
    redone = [apply(rule, before, m) for m in enumerate_matches(rule.lhs, before)]
    assert any(isomorphic(t.result, reason.glued) for t in redone)


def test_analysis_doc_round_trip(rules, analysis):
    # analysis.json lists each reason as its reason document
    for i, reason in enumerate(r for rs in analysis.values() for r in rs):
        assert reason.tainted is None
        flagged = replace(reason, tainted=i % 2 == 0)
        doc = json.loads(json.dumps(reason_to_doc(flagged)))
        back = reason_from_doc(doc, rules)
        assert back.id == reason.id
        assert back.same_span(reason)
        assert back.glued == reason.glued
        assert back.tainted is flagged.tainted
        assert reason_to_doc(back) == doc


def test_reason_doc_rejects_unrealizable_span(rules, analysis):
    (reason,) = analysis[("createProject", "getProject")]
    doc = reason_to_doc(reason)
    doc["span"] = {
        "nodes": [{"id": "p", "type": "Project"}],
        "edges": [],
    }
    doc["embedding"] = {"nodes": {"p": "p"}, "edges": {}}
    with pytest.raises(GraphError):
        reason_from_doc(doc, rules)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_random_pairs_reported_reasons_cover_concrete_pairs(seed):
    """Completeness: every concrete produce-use pair matches a reported reason."""
    rng = random.Random(seed)
    tg = random_typegraph(rng, max_node_types=3, max_edge_types=3)
    r1 = random_rule(rng, tg, name="r1", max_nodes=3, max_edges=2)
    r2 = random_rule(rng, tg, name="r2", max_nodes=3, max_edges=2)
    reported = dependency_reasons(r1, r2)
    host = host_with_embedded_lhs(rng, r1, extra_nodes=2, extra_edges=2)
    for m1 in enumerate_matches(r1.lhs, host)[:4]:
        try:
            t1 = apply(r1, host, m1)
        except GraphError:
            continue
        for m2 in enumerate_matches(r2.lhs, t1.result)[:8]:
            try:
                t2 = apply(r2, t1.result, m2)
            except GraphError:
                continue
            if classify_transformation_pair(t1, t2) != PRODUCE_USE:
                continue
            extracted = extract_reason(t1, t2)
            assert any(extracted.same_span(r) for r in reported)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_random_pairs_independence_matches_concrete_reversal(seed):
    """Universal independence means no concrete pair is classified dependent."""
    rng = random.Random(seed)
    tg = random_typegraph(rng, max_node_types=3, max_edge_types=2)
    r1 = random_rule(rng, tg, name="r1", max_nodes=3, max_edges=2)
    r2 = random_rule(rng, tg, name="r2", max_nodes=3, max_edges=2)
    if not universally_sequentially_independent(r1, r2):
        return
    host = host_with_embedded_lhs(rng, r1, extra_nodes=2, extra_edges=2)
    for m1 in enumerate_matches(r1.lhs, host)[:4]:
        try:
            t1 = apply(r1, host, m1)
        except GraphError:
            continue
        for m2 in enumerate_matches(r2.lhs, t1.result)[:8]:
            try:
                t2 = apply(r2, t1.result, m2)
            except GraphError:
                continue
            assert classify_transformation_pair(t1, t2) == INDEPENDENT
