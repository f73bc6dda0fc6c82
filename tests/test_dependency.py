"""Dependency analysis against hand-checked expectations and concrete-step oracles."""

from __future__ import annotations

import json
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphbac.core import (
    Edge,
    EdgeType,
    GraphError,
    InstanceGraph,
    TypeGraph,
    enumerate_matches,
)
from graphbac.dependency import (
    INDEPENDENT,
    PRODUCE_USE,
    USE_DELETE,
    _candidate_spans,
    _part_graph,
    _realize,
    _rule_spans,
    classify_transformation_pair,
    delete_overlap_reasons,
    dependency_reasons,
    extract_reason,
    reason_from_doc,
    reason_to_doc,
    universally_sequentially_independent,
)
from graphbac.rules import (
    CREATE,
    DELETE,
    Rule,
    apply,
    apply_inverse,
)

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
import reference


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


def _untagged(rule, graph, tag):
    """The elements of a part graph that do not carry the tag."""
    return {x for x in (*graph.nodes, *graph.edges) if rule.tags[x] != tag}


def test_creation_profile_shape(rules):
    rule = rules["createRepo"]
    creation = _part_graph(rule, CREATE)
    assert set(creation.nodes) == {"u", "r"}
    assert set(creation.edges) == {"repos", "owner"}
    assert _untagged(rule, creation, CREATE) == {"u"}


def test_deletion_profile_shape(rules):
    rule = rules["deleteProject"]
    deletion = _part_graph(rule, DELETE)
    assert set(deletion.nodes) == {"u", "p"}
    assert set(deletion.edges) == {"projects"}
    assert _untagged(rule, deletion, DELETE) == {"u"}


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


# ---- the analysis against the reference engine ------------------------------
#
# `apply` and `apply_inverse` share one rewrite, and produce-use reasons and
# delete overlaps share one enumerator with a pre-check that keeps spans
# from the matcher.  The tests below check `rules.apply` and
# `rules.apply_inverse` against `reference.apply` and
# `reference.apply_inverse`, and `dependency_reasons` and
# `delete_overlap_reasons` against `reference.dependency_reasons` and
# `reference.delete_overlap_reasons`, which glue and invert every context
# identification of every span.


def _outcome(call):
    """What a call returns, or the class and message of what it raises."""
    try:
        return call()
    except GraphError as exc:
        return type(exc), str(exc)


def _maps(m):
    return m.node_map, m.edge_map


def _same_rewrites(rule, host):
    """Every step and inverse step of the rule on the host agree with the
    reference; returns the step results, to rewrite further."""
    results = []
    for match in enumerate_matches(rule.lhs, host):
        ref = _outcome(lambda: reference.apply(rule, host, match))
        got = _outcome(lambda: apply(rule, host, match))
        if isinstance(got, tuple):
            assert got == ref
            continue
        assert (got.result, _maps(got.comatch)) == (ref.result, _maps(ref.comatch))
        results.append(got.result)
    for target in (host, *results):
        for comatch in enumerate_matches(rule.rhs, target):
            assert _outcome(lambda: apply_inverse(rule, target, comatch)) == _outcome(
                lambda: reference.apply_inverse(rule, target, comatch)
            )
    return results


def _random_rule_pair(seed):
    """The rng after drawing them, and two rules over one random type graph."""
    rng = random.Random(seed)
    tg = random_typegraph(rng, max_node_types=3, max_edge_types=3)
    r1 = random_rule(rng, tg, name="r1", max_nodes=3, max_edges=3)
    r2 = random_rule(rng, tg, name="r2", max_nodes=3, max_edges=3)
    return rng, r1, r2


def _same_overlaps(first, second, seed):
    """Both overlap kinds of the pair agree with the reference engine; returns
    how many produce-use reasons and delete overlaps it has."""
    got = dependency_reasons(first, second)
    ref = reference.dependency_reasons(first, second)
    assert [reason_to_doc(r) for r in got] == [reason_to_doc(r) for r in ref], seed
    assert [(_maps(r.source_comatch), _maps(r.sink_match)) for r in got] == [
        (_maps(r.source_comatch), _maps(r.sink_match)) for r in ref
    ], seed
    overlaps = delete_overlap_reasons(first, second)
    assert overlaps == reference.delete_overlap_reasons(first, second), seed
    return len(got), len(overlaps)


def test_merged_directions_agree_with_the_separate_ones():
    """`rules.apply` and `apply_inverse` against `reference.apply` and
    `reference.apply_inverse`, and `dependency_reasons` and
    `delete_overlap_reasons` against the reference's, on 300 random pairs."""
    for seed in range(300):
        rng, r1, r2 = _random_rule_pair(seed)
        for first, second in ((r1, r2), (r2, r1)):
            _same_overlaps(first, second, seed)
        host = host_with_embedded_lhs(rng, r1, extra_nodes=2, extra_edges=2)
        for result in _same_rewrites(r1, host):
            _same_rewrites(r2, result)


def test_overlaps_agree_with_the_reference_on_a_thousand_pairs():
    """`dependency_reasons` and `delete_overlap_reasons` against the
    reference's: `_realize` refuses, before gluing, every overlap whose
    created nodes would carry a pattern edge the overlap leaves out;
    `reference.realize` glues and inverts every identification.  Seeds apart
    from the test above."""
    reasons = overlaps = 0
    for seed in range(300, 800):
        _, r1, r2 = _random_rule_pair(seed)
        for first, second in ((r1, r2), (r2, r1)):
            found = _same_overlaps(first, second, seed)
            reasons += found[0]
            overlaps += found[1]
    # both kinds occur often enough for a wrong refusal to show
    assert reasons > 100 and overlaps > 100, (reasons, overlaps)


# ---- the pre-check that keeps spans from the matcher ------------------------


def _skipped_embeddings(first, second, tag):
    """Every embedding of a span `_candidate_spans` leaves out, with the
    number `_realize` accepts."""
    owner, into = (first, second.lhs) if tag == CREATE else (second, first.rhs)
    kept = {id(span) for span in _candidate_spans(first, second, tag)}
    embeddings = accepted = 0
    for span in _rule_spans(owner, tag):
        if id(span) in kept:
            continue
        for embedding in enumerate_matches(span, into):
            embeddings += 1
            accepted += _realize(first, second, embedding, tag) is not None
    return embeddings, accepted


def test_skipped_spans_have_no_embedding_realize_accepts():
    """On the seeds of the thousand-pair test, the pre-check leaves out
    spans that do embed, and `_realize` refuses every such embedding."""
    skipped = {CREATE: 0, DELETE: 0}
    for seed in range(300, 800):
        _, r1, r2 = _random_rule_pair(seed)
        for first, second in ((r1, r2), (r2, r1)):
            for tag in (CREATE, DELETE):
                embeddings, accepted = _skipped_embeddings(first, second, tag)
                assert accepted == 0, (seed, tag)
                skipped[tag] += embeddings
    assert skipped[CREATE] > 0 and skipped[DELETE] > 0, skipped


def test_a_delete_span_short_of_its_edges_skips_a_created_image():
    # the second rule deletes x with its edge to p; the first rule creates
    # the only X node, so the span {x}, which leaves that edge out, embeds
    # only onto a created node, which `_realize` refuses
    tg = TypeGraph(("P", "X"), (EdgeType("link", "X", "P"),))
    first = Rule(
        name="addX",
        typegraph=tg,
        nodes={"c": "X", "q": "P"},
        edges={"f": Edge("link", "c", "q")},
        tags={"c": "create", "q": "preserve", "f": "create"},
    )
    second = Rule(
        name="dropX",
        typegraph=tg,
        nodes={"x": "X", "p": "P"},
        edges={"e": Edge("link", "x", "p")},
        tags={"x": "delete", "p": "preserve", "e": "delete"},
    )
    candidates = _candidate_spans(first, second, DELETE)
    assert [(set(s.nodes), set(s.edges)) for s in candidates] == [({"x", "p"}, {"e"})]
    assert _skipped_embeddings(first, second, DELETE) == (2, 0)
    got = delete_overlap_reasons(first, second)
    assert got == reference.delete_overlap_reasons(first, second)
    assert [(w["span_nodes"], w["span_edges"]) for w in got] == [(["p", "x"], ["e"])]
