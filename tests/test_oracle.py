"""The brute-force oracle on the toy systems and the collaboration API."""

from __future__ import annotations

import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import graphbac.rules
from graphbac import oracle
from graphbac.core import GraphError, InstanceGraph, Morphism
from graphbac.dependency import (
    INDEPENDENT,
    PRODUCE_USE,
    classify_transformation_pair,
    dependency_reasons,
    extract_reason,
    universally_sequentially_independent,
)
from graphbac.oracle import (
    find_flow_witness,
    independence_disagreements,
    produce_use_disagreements,
    reachable_hosts,
    run_oracle,
    transformations,
)
from graphbac.rules import NotReversibleError, apply_inverse, isomorphic

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
            first, second = rules[a], rules[b]
            steps = [
                (t1, t2, classify_transformation_pair(t1, t2))
                for host in hosts
                for t1 in transformations(first, host)
                for t2 in transformations(second, t1.result)
            ]
            reasons = dependency_reasons(first, second)
            realized = [oracle._realize_reason(first, second, r) for r in reasons]
            assert (
                produce_use_disagreements(first, second, steps, reasons, realized)
                == []
            )
            assert independence_disagreements(first, second, steps, realized) == []


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
    t1p = oracle._switched_steps(t1, t2)[1]
    assert isomorphic(t1p.result, t2.result)


# ---- certified commutation ------------------------------------------------
#
# `_commutes` first checks the bijection local Church-Rosser predicts and
# searches with `isomorphic` only when that check fails.  A wrong
# certificate must cost only the search, never the verdict.

TOYS = [(incident_rules, incident_initial), (chain_rules, chain_initial)]


def _count_searches(mp) -> list:
    """Count the oracle's `isomorphic` calls (only `_commutes` makes them)."""
    calls = []
    real = oracle.isomorphic

    def counted(a, b):
        calls.append(1)
        return real(a, b)

    mp.setattr(oracle, "isomorphic", counted)
    return calls


def _wrong_certificate(t1, t2, t2p, t1p):
    """A bijection onto ids the target does not have."""
    return (
        {n: f"{n}?" for n in t1p.result.nodes},
        {e: f"{e}?" for e in t1p.result.edges},
    )


@pytest.mark.parametrize("toy", TOYS)
def test_every_toy_commutation_is_certified(monkeypatch, toy):
    make_rules, make_initial = toy
    rules = list(make_rules().values())
    searches = _count_searches(monkeypatch)
    report = run_oracle(rules, rules, make_initial(), 3)
    assert report.agreed, report.disagreements
    assert searches == []


@pytest.mark.parametrize("toy", TOYS)
def test_a_wrong_certificate_falls_back_to_the_search(monkeypatch, toy):
    make_rules, make_initial = toy
    rules = list(make_rules().values())
    expected = run_oracle(rules, rules, make_initial(), 3).disagreements
    monkeypatch.setattr(oracle, "_certificate", _wrong_certificate)
    searches = _count_searches(monkeypatch)
    report = run_oracle(rules, rules, make_initial(), 3)
    assert report.disagreements == expected == []
    assert searches, "a wrong certificate must send the pair to `isomorphic`"


@pytest.mark.parametrize("toy", TOYS)
def test_a_switched_step_that_differs_is_reported(monkeypatch, toy):
    make_rules, make_initial = toy
    rules = list(make_rules().values())
    real = oracle._switched_steps

    def planted(t1, t2):
        t2p, t1p = real(t1, t2)
        extra = {"planted": t1p.result.typegraph.node_types[0]}
        return t2p, dataclasses.replace(t1p, result=t1p.result.add(extra, {}))

    monkeypatch.setattr(oracle, "_switched_steps", planted)
    monkeypatch.setattr(oracle, "_certificate", _wrong_certificate)
    shared, reference = _both_oracles(rules, make_initial(), 3)
    assert shared == reference
    assert any("switched order yields a different result" in m for m in shared)


# ---- planted faults: one shared walk against a walk per check ------------
#
# The reference is the oracle as it was before its two checks shared one
# walk: each check enumerates the consecutive step pairs itself and asks for
# the pair's reasons itself.  It reads `dependency_reasons`,
# `universally_sequentially_independent` and `delete_overlap_reasons` through
# `graphbac.oracle`, so a fault planted there reaches both oracles.


def _reference_pairs(first, second, hosts):
    for host in hosts:
        for t1 in transformations(first, host):
            for t2 in transformations(second, t1.result):
                yield t1, t2


def _reference_witness_pairs(first, second, glued, comatch):
    try:
        before = apply_inverse(first, glued, comatch)
    except NotReversibleError:
        return
    yield from _reference_pairs(first, second, [before])


def _reference_realize(source, sink, reason):
    return any(
        classify_transformation_pair(t1, t2) == PRODUCE_USE
        and extract_reason(t1, t2).same_span(reason)
        for t1, t2 in _reference_witness_pairs(
            source, sink, reason.glued, reason.source_comatch
        )
    )


def _reference_produce_use(source, sink, hosts):
    reported = oracle.dependency_reasons(source, sink)
    out = []
    for t1, t2 in _reference_pairs(source, sink, hosts):
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
        if not _reference_realize(source, sink, reason):
            out.append(f"{reason.id}: reported reason has no concrete realization")
    return out


def _reference_dependent_pair_exists(first, second):
    for reason in oracle.dependency_reasons(first, second):
        if _reference_realize(first, second, reason):
            return True
    for witness in oracle.delete_overlap_reasons(first, second):
        glued = witness["glued"]
        comatch = Morphism.inclusion(first.rhs, glued)
        if any(
            classify_transformation_pair(t1, t2) != INDEPENDENT
            for t1, t2 in _reference_witness_pairs(first, second, glued, comatch)
        ):
            return True
    return False


def _reference_independence(first, second, hosts):
    verdict = oracle.universally_sequentially_independent(first, second)
    pair = f"{first.name};{second.name}"
    out = []
    for t1, t2 in _reference_pairs(first, second, hosts):
        cls = classify_transformation_pair(t1, t2)
        if cls != INDEPENDENT:
            if verdict:
                out.append(
                    f"{pair}: declared universally independent "
                    f"but a concrete pair is {cls}"
                )
            continue
        try:
            t1p = oracle._switched_steps(t1, t2)[1]
        except GraphError as exc:
            out.append(f"{pair}: independent pair is not switchable ({exc})")
            continue
        if not isomorphic(t1p.result, t2.result):
            out.append(f"{pair}: switched order yields a different result")
    if not verdict and not _reference_dependent_pair_exists(first, second):
        out.append(
            f"{pair}: declared dependent but no concrete "
            "dependent pair exists on any witness host"
        )
    return out


def _reference_oracle(analyzed, all_rules, initial, depth):
    analyzed = sorted(analyzed, key=lambda r: r.name)
    hosts = reachable_hosts(all_rules, initial, depth)
    return [
        message
        for a in analyzed
        for b in analyzed
        for check in (_reference_produce_use, _reference_independence)
        for message in check(a, b, hosts)
    ]


# name -> (oracle attribute, which pairs it can be planted on, the fault);
# it is planted on the first such ordered pair in name order.  The imported
# names are the analysis's own functions, which no fault touches.
FAULTS = {
    "drop_a_reason": (
        "dependency_reasons",
        lambda a, b: bool(dependency_reasons(a, b)),
        lambda reasons: reasons[1:],
    ),
    "flip_a_dependent_verdict": (
        "universally_sequentially_independent",
        lambda a, b: not universally_sequentially_independent(a, b),
        lambda verdict: not verdict,
    ),
    "flip_an_independent_verdict": (
        "universally_sequentially_independent",
        universally_sequentially_independent,
        lambda verdict: not verdict,
    ),
}


def _plant(mp, fault, rules) -> bool:
    """Plant the named fault in graphbac.oracle; False when no pair admits it."""
    attr, admits, corrupt = FAULTS[fault]
    ordered = sorted(rules, key=lambda r: r.name)
    target = next(
        ((a.name, b.name) for a in ordered for b in ordered if admits(a, b)), None
    )
    if target is None:
        return False
    real = getattr(oracle, attr)

    def planted(first, second):
        value = real(first, second)
        return corrupt(value) if (first.name, second.name) == target else value

    mp.setattr(oracle, attr, planted)
    return True


def _both_oracles(rules, initial, depth):
    shared = run_oracle(rules, rules, initial, depth).disagreements
    return shared, _reference_oracle(rules, rules, initial, depth)


@pytest.mark.parametrize("fault", [None, *FAULTS])
@pytest.mark.parametrize(
    "toy", [(incident_rules, incident_initial), (chain_rules, chain_initial)]
)
def test_planted_faults_on_the_toys(monkeypatch, toy, fault):
    make_rules, make_initial = toy
    rules = list(make_rules().values())
    if fault is not None:
        assert _plant(monkeypatch, fault, rules)
    shared, reference = _both_oracles(rules, make_initial(), 3)
    assert shared == reference
    # the static analysis is right on the toys: a planted fault, and only a
    # planted fault, makes the oracle disagree
    assert bool(shared) == (fault is not None), shared


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_planted_faults_on_random_systems(seed):
    rng = random.Random(seed)
    tg = random_typegraph(rng, max_node_types=2, max_edge_types=2)
    rules = [
        random_rule(rng, tg, name=f"r{i}", max_nodes=2, max_edges=1) for i in range(3)
    ]
    nodes = {f"s{i}": rng.choice(tg.node_types) for i in range(rng.randint(0, 2))}
    initial = InstanceGraph(tg, nodes, {})
    for fault in [None, *FAULTS]:
        with pytest.MonkeyPatch.context() as mp:
            planted = fault is not None and _plant(mp, fault, rules)
            shared, reference = _both_oracles(rules, initial, 2)
        assert shared == reference, (fault, seed)
        if fault == "flip_an_independent_verdict" and planted:
            # no reason and no delete overlap can witness the claimed dependency
            assert any("declared dependent" in m for m in shared), shared
