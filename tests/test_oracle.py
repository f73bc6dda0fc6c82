"""The brute-force oracle on the toy systems and the collaboration API."""

from __future__ import annotations

import dataclasses
import random
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import graphbac.rules
from graphbac import dependency, oracle
from graphbac.cli import Project
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
from randgen import random_rule, random_typegraph, wide_system

PROJECTS = Path(__file__).resolve().parent.parent / "projects"


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
            realized = [
                oracle._realize_reason(first, second, r, extract_reason) for r in reasons
            ]
            assert (
                produce_use_disagreements(
                    first, second, steps, reasons, realized, extract_reason
                )
                == []
            )
            assert (
                independence_disagreements(
                    first, second, steps, realized, oracle._switched_steps
                )
                == []
            )


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


def _planted(step):
    """The step with one more isolated node in its result."""
    result = step.result
    if "planted" in result.nodes:  # already planted further down the call
        return step
    extra = {"planted": result.typegraph.node_types[0]}
    return dataclasses.replace(step, result=result.add(extra, {}))


@pytest.mark.parametrize("toy", TOYS)
def test_a_switched_step_that_differs_is_reported(monkeypatch, toy):
    make_rules, make_initial = toy
    rules = list(make_rules().values())

    def planting(real):
        def planted(t1, t2, *args, **kwargs):
            t2p, t1p = real(t1, t2, *args, **kwargs)
            return t2p, _planted(t1p)

        return planted

    # the shared oracle switches through `_switch` (lookup or fallback), the
    # reference through `_switched_steps`
    monkeypatch.setattr(oracle, "_switch", planting(oracle._switch))
    monkeypatch.setattr(oracle, "_switched_steps", planting(oracle._switched_steps))
    monkeypatch.setattr(oracle, "_certificate", _wrong_certificate)
    shared, reference = _both_oracles(rules, make_initial(), 3)
    assert shared == reference
    assert any("switched order yields a different result" in m for m in shared)


def _step_name(rule, host, match):
    """A step by its rule, its host's content and its match images."""
    content = tuple(sorted(host.nodes.items())), tuple(sorted(host.edges.items()))
    return rule.name, content, oracle._images(rule, match)


def _independent_pairs(rules, initial, depth):
    hosts = reachable_hosts(rules, initial, depth)
    for first in sorted(rules, key=lambda r: r.name):
        for second in sorted(rules, key=lambda r: r.name):
            for t1, t2 in _reference_pairs(first, second, hosts):
                if classify_transformation_pair(t1, t2) == INDEPENDENT:
                    yield t1, t2


def test_a_wrong_t2_prime_is_reported_for_every_pair_that_shares_it(monkeypatch):
    # on the incident toy no two independent pairs share a t2'
    rules = list(chain_rules().values())
    # plant a wrong t2' where the most independent pairs share it, among the
    # steps that are no pair's t1'
    t2_primes, t1_primes = Counter(), set()
    for t1, t2 in _independent_pairs(rules, chain_initial(), 3):
        t2p = oracle._switched_steps(t1, t2)[0]
        t2_primes[_step_name(t2.rule, t1.host, t2.match)] += 1
        t1_primes.add(_step_name(t1.rule, t2p.result, t1.match))
    target, count = max(
        ((name, n) for name, n in t2_primes.items() if name not in t1_primes),
        key=lambda item: item[1],
    )
    assert count == 4

    def planting(real):
        def planted(*args):
            step = real(*args)
            return _planted(step) if _step_name(*args[-3:]) == target else step

        return planted

    # the shared oracle looks t2' up in its walk, the reference applies it
    monkeypatch.setattr(oracle, "_looked_up", planting(oracle._looked_up))
    monkeypatch.setattr(oracle, "_step_at", planting(oracle._step_at))
    shared, reference = _both_oracles(rules, chain_initial(), 3)
    assert shared == reference
    differs = [m for m in shared if "switched order yields a different result" in m]
    assert len(differs) == len(shared) == count, shared


def test_the_running_example_oracle_applies_no_rule_outside_its_walk(monkeypatch):
    project = Project.load(PROJECTS / "running-example")

    def refused(*args):
        raise AssertionError("a switched step was applied, not looked up")

    monkeypatch.setattr(oracle, "apply", refused)
    report = run_oracle(project.analyzed_rules(), project.rules(), project.initial(), 4)
    assert report.agreed, report.disagreements
    assert (report.hosts_explored, report.pairs_checked) == (29, 81)


@pytest.mark.parametrize("toy", TOYS)
def test_every_looked_up_switch_is_the_applied_one(monkeypatch, toy):
    make_rules, make_initial = toy
    rules = list(make_rules().values())
    real = oracle._switch
    checked = []

    def compared(t1, t2, *args, **kwargs):
        switched = real(t1, t2, *args, **kwargs)
        checked.append(switched == oracle._switched_steps(t1, t2))
        return switched

    monkeypatch.setattr(oracle, "_switch", compared)
    assert run_oracle(rules, rules, make_initial(), 3).agreed
    assert checked and all(checked)


def test_an_unrealizable_extracted_span_is_a_disagreement(monkeypatch):
    rules = list(incident_rules().values())
    monkeypatch.setattr(dependency, "_realize", lambda *args: None)
    report = run_oracle(rules, rules, incident_initial(), 3)
    assert any("is not realizable by the analysis" in m for m in report.disagreements)


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


def test_wide_random_systems_agree_with_the_reference():
    """The wide shape explores many more step pairs per system than the
    2-rule systems above: both oracles must find no disagreement."""
    for seed in range(40):
        rules, initial = wide_system(seed)
        shared, reference = _both_oracles(rules, initial, 3)
        assert shared == reference == [], seed
