"""The brute-force oracle on the toy systems and the collaboration API."""

from __future__ import annotations

import dataclasses
import gc
import random
import sys
import weakref
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import graphbac.rules
from graphbac import core, dependency, oracle
from graphbac.cli import Project
from graphbac.core import Edge, EdgeType, InstanceGraph, TypeGraph
from graphbac.dependency import (
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
from graphbac.rules import Rule, isomorphic

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
import reference

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
    # the program's two checks, given the reference's switched steps
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
            verdict = universally_sequentially_independent(first, second)
            assert (
                produce_use_disagreements(first, second, steps, reasons, extract_reason)
                == []
            )
            assert (
                independence_disagreements(
                    first, second, steps, verdict, reference.switched_steps
                )
                == []
            )
            # the checks `run_oracle` makes once per pair, after the last host
            realized = [
                oracle._realize_reason(first, second, r, extract_reason) for r in reasons
            ]
            assert all(realized)
            assert verdict or any(realized) or oracle._delete_overlap_realized(first, second)


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
    t1p = reference.switched_steps(t1, t2)[1]
    assert isomorphic(t1p.result, t2.result)


TOYS = [(incident_rules, incident_initial), (chain_rules, chain_initial)]


def _planted(step):
    """The step with one more isolated node in its result."""
    result = step.result
    if "planted" in result.nodes:  # already planted further down the call
        return step
    extra = {"planted": result.typegraph.node_types[0]}
    return dataclasses.replace(step, result=reference.add(result, extra, {}))


@pytest.mark.parametrize("toy", TOYS)
def test_a_switched_step_that_differs_is_reported(monkeypatch, toy):
    make_rules, make_initial = toy
    rules = list(make_rules().values())

    def planting(real):
        def planted(t1, t2, *args, **kwargs):
            t2p, t1p = real(t1, t2, *args, **kwargs)
            return t2p, _planted(t1p)

        return planted

    # the program's oracle switches through `_switch` (lookup or fallback),
    # the reference through `switched_steps`
    monkeypatch.setattr(oracle, "_switch", planting(oracle._switch))
    monkeypatch.setattr(reference, "switched_steps", planting(reference.switched_steps))
    shared, ref = _both_oracles(rules, make_initial(), 3)
    assert shared == ref
    assert any("switched order yields a different result" in m for m in shared)


def _step_name(rule, host, match):
    """A step by its rule, its host's content and its match images."""
    content = tuple(sorted(host.nodes.items())), tuple(sorted(host.edges.items()))
    return rule.name, content, oracle._images(rule, match)


def _independent_pairs(rules, initial, depth):
    hosts = reference.reachable_hosts(rules, initial, depth)
    for first in sorted(rules, key=lambda r: r.name):
        for second in sorted(rules, key=lambda r: r.name):
            for t1, t2 in reference.pairs(first, second, hosts):
                if reference.classify(t1, t2) == reference.INDEPENDENT:
                    yield t1, t2


def test_a_wrong_t2_prime_is_reported_for_every_pair_that_shares_it(monkeypatch):
    # on the incident toy no two independent pairs share a t2'
    rules = list(chain_rules().values())
    # plant a wrong t2' where the most independent pairs share it, among the
    # steps that are no pair's t1'
    t2_primes, t1_primes = Counter(), set()
    for t1, t2 in _independent_pairs(rules, chain_initial(), 3):
        t2p = reference.switched_steps(t1, t2)[0]
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

    # the program's oracle looks t2' up in its walk, the reference applies it
    monkeypatch.setattr(oracle, "_looked_up", planting(oracle._looked_up))
    monkeypatch.setattr(reference, "step_at", planting(reference.step_at))
    shared, ref = _both_oracles(rules, chain_initial(), 3)
    assert shared == ref
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


def test_the_oracle_searches_no_first_step_result_for_matches(monkeypatch):
    # every graphbac module that binds `enumerate_matches` gets the wrapped
    # one, as the benchmark's tracer re-binds it; the walk's second steps
    # must take their matches from the first step's host's list
    project = Project.load(PROJECTS / "running-example")
    real_enumerate = core.enumerate_matches
    real_hosts, real_steps = oracle.reachable_hosts, oracle.transformations
    hosts, firsts, searched = [], [], []  # held, so that no id is reused

    def reachable(*args):
        hosts.extend(real_hosts(*args))
        return list(hosts)

    def stepped(rule, host, *args):
        steps = real_steps(rule, host, *args)
        if any(host is h for h in hosts):
            firsts.extend(steps)
        return steps

    def enumerated(pattern, host):
        searched.append(host)
        return real_enumerate(pattern, host)

    for name, module in list(sys.modules.items()):
        if name.startswith("graphbac") and vars(module).get("enumerate_matches") is real_enumerate:
            monkeypatch.setattr(module, "enumerate_matches", enumerated)
    monkeypatch.setattr(oracle, "reachable_hosts", reachable)
    monkeypatch.setattr(oracle, "transformations", stepped)
    report = run_oracle(project.analyzed_rules(), project.rules(), project.initial(), 4)
    assert report.agreed and report.hosts_explored == len(hosts) == 29
    # a query's step is its host, one of the reachable hosts, searched once
    results = {id(t.result) for t in firsts if t.result is not t.host}
    assert firsts and searched
    assert not [h for h in searched if id(h) in results]


def test_the_oracle_holds_one_hosts_first_steps(monkeypatch):
    # when host k + 1's matches are enumerated, or its first steps taken,
    # the first steps of every host before k are gone: the oracle walks one
    # host at a time
    project = Project.load(PROJECTS / "running-example")
    real_hosts, real_steps = oracle.reachable_hosts, oracle.transformations
    real_enumerate = oracle.enumerate_matches
    hosts, firsts, held = [], {}, {}  # firsts: host position -> weak references

    def reachable(*args):
        hosts.extend(real_hosts(*args))
        return list(hosts)

    def position(host):
        return next((k for k, h in enumerate(hosts) if h is host), None)

    def check(when, host):
        k = position(host)
        if k is not None and (when, k) not in held:
            gc.collect()
            held[when, k] = [j for j in range(k - 1) if any(r() for r in firsts.get(j, ()))]

    def stepped(rule, host, *args):
        check("stepped", host)
        steps = real_steps(rule, host, *args)
        k = position(host)
        if k is not None:
            firsts.setdefault(k, []).extend(map(weakref.ref, steps))
        return steps

    def enumerated(pattern, host):
        check("enumerated", host)
        return real_enumerate(pattern, host)

    monkeypatch.setattr(oracle, "reachable_hosts", reachable)
    monkeypatch.setattr(oracle, "transformations", stepped)
    monkeypatch.setattr(oracle, "enumerate_matches", enumerated)
    report = run_oracle(project.analyzed_rules(), project.rules(), project.initial(), 4)
    assert report.agreed and len(hosts) == 29
    assert len(held) == 2 * 29 and len(firsts) == 29
    assert {key: kept for key, kept in held.items() if kept} == {}


def _fields(step):
    return step.rule, step.host, step.match, step.result, step.comatch


@pytest.mark.parametrize("toy", TOYS)
def test_every_looked_up_switch_is_the_applied_one(monkeypatch, toy):
    # oracle._switch against reference.switched_steps
    make_rules, make_initial = toy
    rules = list(make_rules().values())
    real = oracle._switch
    checked = []

    def compared(t1, t2, *args, **kwargs):
        switched = real(t1, t2, *args, **kwargs)
        applied = reference.switched_steps(t1, t2)
        checked.append(list(map(_fields, switched)) == list(map(_fields, applied)))
        return switched

    monkeypatch.setattr(oracle, "_switch", compared)
    assert run_oracle(rules, rules, make_initial(), 3).agreed
    assert checked and all(checked)


def test_an_unrealizable_extracted_span_is_a_disagreement(monkeypatch):
    rules = list(incident_rules().values())
    monkeypatch.setattr(dependency, "_realize", lambda *args: None)
    report = run_oracle(rules, rules, incident_initial(), 3)
    assert any("is not realizable by the analysis" in m for m in report.disagreements)


# ---- run_oracle against reference.oracle ----------------------------------
#
# The reference oracle walks the reachable hosts with the reference engine
# and checks each ordered pair on its own.  It reads the analysis's
# `dependency_reasons`, `universally_sequentially_independent` and
# `delete_overlap_reasons` through `graphbac.oracle`, so a fault planted
# there reaches both oracles.


def _reports(analyzed, all_rules, initial, depth):
    """(hosts, pairs, disagreements) of `run_oracle` and of `reference.oracle`."""
    shared = run_oracle(analyzed, all_rules, initial, depth)
    ref = reference.oracle(
        analyzed,
        all_rules,
        initial,
        depth,
        dependency_reasons=oracle.dependency_reasons,
        universally_sequentially_independent=oracle.universally_sequentially_independent,
        delete_overlap_reasons=oracle.delete_overlap_reasons,
    )
    return (shared.hosts_explored, shared.pairs_checked, shared.disagreements), tuple(ref)


def _both_oracles(rules, initial, depth):
    shared, ref = _reports(rules, rules, initial, depth)
    return shared[2], ref[2]


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


@pytest.mark.parametrize("fault", [None, *FAULTS])
@pytest.mark.parametrize("toy", TOYS)
def test_planted_faults_on_the_toys(monkeypatch, toy, fault):
    make_rules, make_initial = toy
    rules = list(make_rules().values())
    if fault is not None:
        assert _plant(monkeypatch, fault, rules)
    shared, ref = _both_oracles(rules, make_initial(), 3)
    assert shared == ref
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
            shared, ref = _both_oracles(rules, initial, 2)
        assert shared == ref, (fault, seed)
        if fault == "flip_an_independent_verdict" and planted:
            # no reason and no delete overlap can witness the claimed dependency
            assert any("declared dependent" in m for m in shared), shared


@pytest.mark.parametrize(
    "name", ["running-example", "github-issue", "incident-toy", "incident-chain-toy"]
)
def test_the_shipped_projects_agree_with_the_reference(name):
    project = Project.load(PROJECTS / name)
    shared, ref = _reports(
        project.analyzed_rules(), project.rules(), project.initial(), 3
    )
    assert shared == ref
    assert shared[2] == []


def test_a_node_deleted_with_its_edge_agrees_with_the_reference():
    # the step deletes x with its edge from k, and k keeps another edge of
    # that type, so a match along k's edges would meet a neighbour entry
    # that x left behind (an owned graph's steps, which change the caches
    # in place, are tested on this input in test_core.py)
    tg = TypeGraph(("N",), (EdgeType("E", "N", "N"),))
    pair = {"a": "N", "b": "N"}
    rules = [
        Rule("dropTarget", tg, pair, {"e": Edge("E", "a", "b")},
             {"a": "preserve", "b": "delete", "e": "delete"}),
        Rule("follow", tg, pair, {"e": Edge("E", "a", "b")},
             {"a": "preserve", "b": "preserve", "e": "preserve"}),
    ]
    nodes = {f"n{i}": "N" for i in range(7)} | {"k": "N", "x": "N"}
    edges = {"e0": Edge("E", "k", "x"), "e1": Edge("E", "k", "n0")}
    shared, ref = _reports(rules, rules, InstanceGraph(tg, nodes, edges), 2)
    assert shared == ref


def test_wide_random_systems_agree_with_the_reference():
    """The wide shape explores many more step pairs per system than the
    2-rule systems above: both oracles must report the same hosts and pairs
    and find no disagreement."""
    for seed in range(40):
        rules, initial = wide_system(seed)
        shared, ref = _reports(rules, rules, initial, 3)
        assert shared == ref, seed
        assert shared[2] == [], seed
