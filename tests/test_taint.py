"""Source/sink classification, tainted flow, review, and the theorem checker."""

from __future__ import annotations

import json
import random
import shutil
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphbac.core import GraphError, InstanceGraph, enumerate_matches
from graphbac.dependency import (
    dependency_reasons,
    extract_reason,
    universally_sequentially_independent,
)
from graphbac.rules import CREATE, PRESERVE, Rule, apply
from graphbac.cli import Project, main
from graphbac.taint import (
    PairVerdicts,
    ReviewEntry,
    TaintedTypeGraph,
    apply_review,
    check_theorem_conditions,
    classify_sources_sinks,
    init_review_entries,
    ledger_from_doc,
    ledger_to_doc,
    pair_verdicts,
    tainted_flow,
)

from fixtures import (
    PROJECTS,
    SYNTHETIC_FULL,
    SYNTHETIC_TINY,
    analyzed_collab_rules,
    collab_typegraph,
    incident_rules,
    incident_typegraph,
    synthetic_project,
)
from randgen import random_rule, random_typegraph

TAINTED = ("Repository", "Project", "Issue")


@pytest.fixture(scope="module")
def api():
    ttg = TaintedTypeGraph(collab_typegraph(), TAINTED)
    return classify_sources_sinks(analyzed_collab_rules().values(), ttg)


@pytest.fixture(scope="module")
def flow(api):
    return tainted_flow(api)


def reference_verdicts(pairs) -> PairVerdicts:
    """The matrix the overlap engine gives for the (first, second) rule
    pairs, each question asked on its own."""
    return PairVerdicts(
        {
            (first.name, second.name): (
                universally_sequentially_independent(first, second),
                len(dependency_reasons(first, second)),
            )
            for first, second in pairs
        }
    )


def all_pairs(api) -> list:
    return [(first, second) for first in api.rules for second in api.rules]


def test_tainted_types_validated():
    with pytest.raises(GraphError):
        TaintedTypeGraph(collab_typegraph(), ("Nope",))


def test_source_sink_classification(api):
    assert api.sources == {
        "Issue": ("createIssue",),
        "Project": ("createProject",),
        "Repository": ("createRepo",),
    }
    assert api.sinks == {
        "Issue": ("deleteIssue", "updateIssue"),
        "Project": ("deleteProject", "getProject"),
        "Repository": ("createIssue", "deleteIssue", "updateIssue", "updateRepo"),
    }


def test_empty_taint_set_classifies_nothing():
    ttg = TaintedTypeGraph(collab_typegraph(), ())
    api = classify_sources_sinks(analyzed_collab_rules().values(), ttg)
    assert api.sources == {}
    assert api.sinks == {}
    assert api.pairs() == []
    assert tainted_flow(api).reasons == ()


def test_flow_covers_the_six_pairs(flow):
    assert flow.pairs() == [
        ("createIssue", "deleteIssue"),
        ("createIssue", "updateIssue"),
        ("createProject", "deleteProject"),
        ("createProject", "getProject"),
        ("createRepo", "createIssue"),
        ("createRepo", "updateRepo"),
    ]
    assert len(flow.reasons) == 6
    assert all(r.tainted for r in flow.reasons)


def test_incident_toy_vulnerable_pair_has_empty_flow():
    ttg = TaintedTypeGraph(incident_typegraph(), ("T",))
    api = classify_sources_sinks(incident_rules().values(), ttg)
    assert api.sources["T"] == ("createIncidentT",)
    assert set(api.sinks["T"]) == {"deleteIncidentA", "deleteT"}
    flow = tainted_flow(api)
    # the pair that deletes the protected node contributes nothing: the
    # deletion is blocked by the dangling edge, so minimal tests miss it
    assert flow.reasons_for("createIncidentT", "deleteT") == []
    # the helper pair that clears the incident structure is the only flow
    assert [
        (r.source_rule, r.sink_rule) for r in flow.reasons
    ] == [("createIncidentT", "deleteIncidentA")]


def test_untainted_overlap_is_flagged():
    tg = collab_typegraph()
    ttg = TaintedTypeGraph(tg, ("Issue",))
    source = Rule(
        name="makeBoth",
        typegraph=tg,
        nodes={"r": "Repository", "i": "Issue"},
        edges={},
        tags={"r": CREATE, "i": CREATE},
    )
    sink = Rule(
        name="readBoth",
        typegraph=tg,
        nodes={"r": "Repository", "i": "Issue"},
        edges={},
        tags={"r": PRESERVE, "i": PRESERVE},
    )
    api = classify_sources_sinks([source, sink], ttg)
    flow = tainted_flow(api)
    by_span = {frozenset(r.span.nodes): r for r in flow.reasons}
    assert by_span[frozenset({"r"})].tainted is False
    assert by_span[frozenset({"i"})].tainted is True
    assert by_span[frozenset({"r", "i"})].tainted is True


def test_review_partitions(flow):
    entries = [
        ReviewEntry(r.id, "unsecured" if r.source_rule == "createProject" and r.sink_rule == "deleteProject" else "secured", "checked", True)
        for r in flow.reasons
    ]
    reviewed = apply_review(flow, entries)
    assert reviewed.unsecured_ids() == ["createProject->deleteProject#0"]
    assert len(reviewed.secured_ids()) == 5
    assert reviewed.unreviewed_ids() == []
    assert set(reviewed.secured_ids()) & set(reviewed.unsecured_ids()) == set()
    assert reviewed.policy_stable_under_shift()


def test_empty_review_leaves_all_unreviewed(flow):
    assert flow.secured_ids() == []
    assert flow.unsecured_ids() == []
    assert len(flow.unreviewed_ids()) == 6
    assert not flow.policy_stable_under_shift()


def test_review_rejects_unknown_and_duplicate_ids(flow):
    with pytest.raises(GraphError):
        apply_review(flow, [ReviewEntry("nope->nothing#0", "secured")])
    rid = flow.reason_ids()[0]
    with pytest.raises(GraphError):
        apply_review(flow, [ReviewEntry(rid, "secured"), ReviewEntry(rid, "unsecured")])
    with pytest.raises(GraphError):
        ReviewEntry(rid, "fine")


def test_ledger_doc_round_trip(flow):
    entries = init_review_entries(flow)
    assert len(entries) == 6
    doc = ledger_to_doc(entries)
    assert ledger_from_doc(doc) == entries
    with pytest.raises(GraphError):
        ledger_from_doc([{"status": "secured"}])
    with pytest.raises(GraphError):
        ledger_from_doc({"reason_id": "x"})


def test_theorem_conditions_hold_on_reduced_rule_set():
    rules = analyzed_collab_rules()
    subset = [rules["createRepo"], rules["updateRepo"], rules["createProject"]]
    ttg = TaintedTypeGraph(collab_typegraph(), ("Repository",))
    api = classify_sources_sinks(subset, ttg)
    check = check_theorem_conditions(
        "createRepo", "updateRepo", reference_verdicts(all_pairs(api))
    )
    assert check.condition1_holds
    assert check.condition2_holds
    assert check.verdict == "condition1"
    assert check.conclusive
    assert not check.blind_spot
    assert check.reason_count == 1
    assert "stable under shift" in check.caveat


def test_theorem_conditions_fail_on_full_rule_set(api):
    check = check_theorem_conditions(
        "createRepo", "updateRepo", reference_verdicts(all_pairs(api))
    )
    # createRepo feeds createIssue, and createIssue feeds updateIssue/deleteIssue
    assert not check.condition1_holds
    assert "createIssue" in check.condition1_failures
    assert check.verdict in ("condition2", "neither")


def test_theorem_vacuous_on_two_rule_set():
    rules = analyzed_collab_rules()
    ttg = TaintedTypeGraph(collab_typegraph(), ("Repository",))
    api = classify_sources_sinks([rules["createRepo"], rules["updateRepo"]], ttg)
    check = check_theorem_conditions(
        "createRepo", "updateRepo", reference_verdicts(all_pairs(api))
    )
    assert check.condition1_holds and check.condition2_holds


def test_theorem_flags_toy_blind_spot():
    ttg = TaintedTypeGraph(incident_typegraph(), ("T",))
    api = classify_sources_sinks(incident_rules().values(), ttg)
    check = check_theorem_conditions(
        "createIncidentT", "deleteT", reference_verdicts(all_pairs(api))
    )
    assert check.verdict == "neither"
    assert check.reason_count == 0
    assert check.blind_spot


def test_stored_verdicts_answer_as_the_engine_does(api, flow):
    stored = PairVerdicts.from_doc(pair_verdicts(flow).to_doc())
    reference = reference_verdicts(all_pairs(api))
    for first in api.rules:
        for second in api.rules:
            pair = (first.name, second.name)
            assert stored.independent(*pair) == reference.independent(*pair)
            assert stored.reason_count(*pair) == reference.reason_count(*pair)
            assert check_theorem_conditions(*pair, stored) == check_theorem_conditions(
                *pair, reference
            )


@pytest.mark.parametrize("name", ["running-example", "github-issue", "synthetic"])
def test_the_sidecar_answers_as_the_engine_does(tmp_path, capsys, name):
    project = tmp_path / name
    if name == "synthetic":
        synthetic_project(project, SYNTHETIC_TINY)
    else:
        shutil.copytree(PROJECTS / name, project)
    assert main(["analyze", "--project", str(project)]) == 0
    capsys.readouterr()
    records = json.loads((project / "analysis.lock.json").read_text())["pairs"]
    rules = {r.name: r for r in Project.load(project).analyzed_rules()}
    assert len(records) == len(rules) ** 2
    for record in records:
        first, second = rules[record["first"]], rules[record["second"]]
        assert record["independent"] == universally_sequentially_independent(
            first, second
        ), record
        assert record["reasons"] == len(dependency_reasons(first, second)), record


def test_the_matrix_answers_every_pair_of_the_synthetic_project(tmp_path):
    api = Project.load(synthetic_project(tmp_path / "synthetic", SYNTHETIC_FULL)).api()
    start = time.process_time()
    verdicts = pair_verdicts(tainted_flow(api))
    checks = [
        check_theorem_conditions(source.name, sink.name, verdicts)
        for source in api.rules
        for sink in api.rules
        if source is not sink
    ]
    elapsed = time.process_time() - start
    assert len(checks) == 600
    assert elapsed < 2.0, elapsed
    # spot checks against the engine, around the widest source
    by_pair = {(check.source, check.sink): check for check in checks}
    star = next(
        r.name for r in api.rules if r.name.startswith("create") and r.name.endswith("Star")
    )
    others = [r.name for r in api.rules if r.name != star][:3]
    # the engine's verdicts of every pair these checks read
    reference = reference_verdicts(
        (first, second)
        for first, second in all_pairs(api)
        if {first.name, second.name} & {star, *others}
    )
    for other in others:
        for pair in ((star, other), (other, star)):
            assert by_pair[pair] == check_theorem_conditions(*pair, reference)


def test_flow_soundness_on_concrete_two_step_sequence(api, flow):
    rules = analyzed_collab_rules()
    host = InstanceGraph(collab_typegraph(), {"alice": "User"}, {})
    (m1,) = enumerate_matches(rules["createRepo"].lhs, host)
    t1 = apply(rules["createRepo"], host, m1)
    (m2,) = enumerate_matches(rules["updateRepo"].lhs, t1.result)
    t2 = apply(rules["updateRepo"], t1.result, m2)
    extracted = extract_reason(t1, t2)
    assert any(extracted.same_span(r) for r in flow.reasons)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_classification_matches_tag_scan_and_is_monotone(seed):
    rng = random.Random(seed)
    tg = random_typegraph(rng, max_node_types=4, max_edge_types=3)
    rules = [random_rule(rng, tg, name=f"r{i}", max_nodes=4, max_edges=3) for i in range(3)]
    types = list(tg.node_types)
    small = set(rng.sample(types, k=rng.randint(0, len(types) - 1)))
    large = small | {rng.choice(types)}
    api_small = classify_sources_sinks(rules, TaintedTypeGraph(tg, tuple(small)))
    api_large = classify_sources_sinks(rules, TaintedTypeGraph(tg, tuple(large)))
    for r in rules:
        created_types = {r.nodes[n] for n in r.nodes if r.tags[n] == CREATE}
        lhs_types = {r.nodes[n] for n in r.lhs.nodes}
        for t in small:
            assert (r.name in api_small.sources.get(t, ())) == (t in created_types)
            assert (r.name in api_small.sinks.get(t, ())) == (t in lhs_types)
    # tainting one more type keeps every entry of the smaller classification
    for table_small, table_large in (
        (api_small.sources, api_large.sources),
        (api_small.sinks, api_large.sinks),
    ):
        assert set(table_small) <= small
        for t, names in table_small.items():
            assert table_large[t] == names
