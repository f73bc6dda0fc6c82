"""The brute-force oracle on the toy systems and the collaboration API."""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

import graphbac.rules
from graphbac.core import InstanceGraph
from graphbac.oracle import (
    find_flow_witness,
    independence_disagreements,
    produce_use_disagreements,
    reachable_hosts,
    run_oracle,
    transformations,
)
from graphbac.rules import isomorphic

from fixtures import (
    analyzed_collab_rules,
    chain_initial,
    chain_rules,
    collab_rules,
    collab_typegraph,
    incident_initial,
    incident_rules,
)
from randgen import random_rule, random_typegraph


def test_reachable_hosts_dedups_isomorphic_states():
    rules = collab_rules()
    initial = InstanceGraph(collab_typegraph(), {}, {})
    one_step = reachable_hosts(rules.values(), initial, 1)
    # empty graph plus a single user; every other rule needs existing structure
    assert len(one_step) == 2
    two_steps = reachable_hosts(rules.values(), initial, 2)
    # adds: two users, user+repo, user+project
    assert len(two_steps) == 5
    for i, g in enumerate(two_steps):
        assert not any(isomorphic(g, h) for h in two_steps[i + 1 :])


def test_reachable_hosts_use_the_key_only_to_bucket(monkeypatch):
    rules = collab_rules()
    initial = InstanceGraph(collab_typegraph(), {}, {})
    expected = [g.to_doc() for g in reachable_hosts(rules.values(), initial, 3)]
    # one bucket for every host: `isomorphic` alone must give the same classes
    monkeypatch.setattr(graphbac.rules, "canonical_form", lambda graph: ())
    one_bucket = [g.to_doc() for g in reachable_hosts(rules.values(), initial, 3)]
    assert one_bucket == expected


def test_transformations_skip_blocked_matches():
    toy = incident_rules()
    host = incident_initial()
    (t1,) = transformations(toy["createIncidentT"], host)
    # deleting the created node directly would leave its edge dangling
    assert transformations(toy["deleteT"], t1.result) == []


def test_incident_toy_oracle_agrees():
    toy = incident_rules()
    report = run_oracle(toy.values(), toy.values(), incident_initial(), 3)
    assert report.agreed, report.disagreements
    assert report.pairs_checked == 9


def test_chain_toy_oracle_agrees():
    toy = chain_rules()
    report = run_oracle(toy.values(), toy.values(), chain_initial(), 3)
    assert report.agreed, report.disagreements


def test_incident_toy_flow_witness_is_three_steps():
    toy = incident_rules()
    witness = find_flow_witness(
        toy["createIncidentT"],
        toy["deleteT"],
        toy.values(),
        incident_initial(),
        4,
    )
    assert witness is not None
    assert [t.rule.name for t in witness] == [
        "createIncidentT",
        "deleteIncidentA",
        "deleteT",
    ]


def test_chain_toy_flow_witness_is_three_steps():
    toy = chain_rules()
    witness = find_flow_witness(
        toy["createIncidentT"],
        toy["createIncidentBPlus"],
        toy.values(),
        chain_initial(),
        4,
    )
    assert witness is not None
    assert [t.rule.name for t in witness] == [
        "createIncidentT",
        "createIncidentB",
        "createIncidentBPlus",
    ]


def test_no_two_step_flow_witness_on_toys():
    toy = incident_rules()
    assert (
        find_flow_witness(
            toy["createIncidentT"], toy["deleteT"], toy.values(), incident_initial(), 2
        )
        is None
    )
    chain = chain_rules()
    assert (
        find_flow_witness(
            chain["createIncidentT"],
            chain["createIncidentBPlus"],
            chain.values(),
            chain_initial(),
            2,
        )
        is None
    )


def test_collab_pairwise_agreement_at_shallow_depth():
    rules = analyzed_collab_rules()
    hosts = reachable_hosts(
        collab_rules().values(), InstanceGraph(collab_typegraph(), {}, {}), 3
    )
    for a in ("createRepo", "createProject", "getProject"):
        for b in ("updateRepo", "deleteProject", "createIssue"):
            assert produce_use_disagreements(rules[a], rules[b], hosts) == []
            assert independence_disagreements(rules[a], rules[b], hosts) == []


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_random_rules_oracle_agreement(seed):
    """Static verdicts agree with exhaustive exploration on random systems."""
    rng = random.Random(seed)
    tg = random_typegraph(rng, max_node_types=2, max_edge_types=2)
    rules = [
        random_rule(rng, tg, name=f"r{i}", max_nodes=2, max_edges=1) for i in range(2)
    ]
    nodes = {
        f"s{i}": rng.choice(tg.node_types)
        for i in range(rng.randint(0, 2))
    }
    initial = InstanceGraph(tg, nodes, {})
    report = run_oracle(rules, rules, initial, 2)
    assert report.agreed, report.disagreements


def test_switch_order_equivalence_concrete():
    rules = analyzed_collab_rules()
    host = InstanceGraph(collab_typegraph(), {"alice": "User"}, {})
    (t1,) = transformations(rules["createRepo"], host)
    steps = transformations(rules["createProject"], t1.result)
    (t2,) = steps
    from graphbac.oracle import _switched

    t1p = _switched(t1, t2)
    assert isomorphic(t1p.result, t2.result)
