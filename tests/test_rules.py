"""Engine tests: rule validity, application, inverse application, isomorphism."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import graphbac.rules as rules_module
from graphbac.cli import Project
from graphbac.core import (
    Edge,
    EdgeType,
    GraphError,
    InstanceGraph,
    Morphism,
    TypeGraph,
    enumerate_matches,
    first_match,
    iter_matches,
)
from graphbac.rules import (
    CallSpec,
    NotApplicableError,
    NotReversibleError,
    Rule,
    apply,
    apply_inverse,
    canonical_form,
    explore,
    isomorphic,
    rule_from_doc,
    rule_to_doc,
    rules_from_doc,
    rules_to_doc,
)
from fixtures import PROJECTS
from randgen import host_with_embedded_lhs, random_rule, random_typegraph, wide_system
import reference

TG = TypeGraph(
    ("User", "Repository"),
    (
        EdgeType("User.repos", "User", "Repository"),
        EdgeType("Repository.owner", "Repository", "User"),
    ),
)


def create_repo_rule() -> Rule:
    return Rule(
        name="createRepo",
        typegraph=TG,
        nodes={"u": "User", "r": "Repository"},
        edges={
            "repos": Edge("User.repos", "u", "r"),
            "owner": Edge("Repository.owner", "r", "u"),
        },
        tags={"u": "preserve", "r": "create", "repos": "create", "owner": "create"},
        actor="u",
    )


def update_repo_rule() -> Rule:
    return Rule(
        name="updateRepo",
        typegraph=TG,
        nodes={"u": "User", "r": "Repository"},
        edges={
            "repos": Edge("User.repos", "u", "r"),
            "owner": Edge("Repository.owner", "r", "u"),
        },
        tags={"u": "preserve", "r": "preserve", "repos": "preserve", "owner": "preserve"},
    )


def single_user_host() -> InstanceGraph:
    return InstanceGraph(TG, {"alice": "User"}, {})


def test_rule_derived_graphs():
    rule = create_repo_rule()
    assert set(rule.lhs.nodes) == {"u"}
    assert set(rule.interface.nodes) == {"u"}
    assert set(rule.rhs.nodes) == {"u", "r"}
    assert set(rule.rhs.edges) == {"repos", "owner"}
    # the interface is the intersection of both sides by construction
    assert rule.interface.is_subgraph_of(rule.lhs)
    assert rule.interface.is_subgraph_of(rule.rhs)


def test_invalid_rules_rejected():
    with pytest.raises(GraphError):
        Rule(name="bad", typegraph=TG, nodes={"u": "User"}, tags={})
    with pytest.raises(GraphError):
        Rule(name="bad", typegraph=TG, nodes={"u": "User"}, tags={"u": "kept"})
    with pytest.raises(GraphError):
        # an edge may not connect a created node with a deleted one
        Rule(
            name="bad",
            typegraph=TG,
            nodes={"u": "User", "r": "Repository"},
            edges={"repos": Edge("User.repos", "u", "r")},
            tags={"u": "delete", "r": "create", "repos": "create"},
        )
    with pytest.raises(GraphError):
        # a preserved edge needs both endpoints preserved, else the
        # intersection side is not a graph
        Rule(
            name="bad",
            typegraph=TG,
            nodes={"u": "User", "r": "Repository"},
            edges={"repos": Edge("User.repos", "u", "r")},
            tags={"u": "preserve", "r": "delete", "repos": "preserve"},
        )
    with pytest.raises(GraphError):
        Rule(name="bad", typegraph=TG, nodes={"u": "User"}, tags={"u": "preserve"}, actor="x")


def test_fresh_ids_do_not_depend_on_the_steps_made_before():
    # the oracle takes many steps from one host: an id a step picks must
    # be the one a freshly built copy of its host gives, whatever steps
    # were taken from that host, from its results or back to it before
    tg = TypeGraph(("Issue",), ())
    make = Rule(name="make", typegraph=tg, nodes={"i": "Issue"}, tags={"i": "create"})
    drop = Rule(name="drop", typegraph=tg, nodes={"i": "Issue"}, tags={"i": "delete"})

    def made(host):
        step = apply(make, host, first_match(make.lhs, host))
        return step.result, step.comatch.node_map["i"]

    def dropped(host, nid):
        return apply(drop, host, first_match(drop.lhs, host, {"i": nid})).result

    def as_if_fresh(host, nid):
        assert made(InstanceGraph(tg, host.nodes, host.edges))[1] == nid

    host = InstanceGraph.empty(tg)
    for _ in range(4):
        host, _ = made(host)
    first, nid = made(host)
    assert nid == "i~5"
    _, nid = made(first)  # its result's floor has risen past i~5
    assert nid == "i~6"
    _, nid = made(host)  # its host's has not
    assert nid == "i~5"
    gap = dropped(host, "i~2")
    again, nid = made(gap)  # a removal lowers the floor
    assert nid == "i~2"
    as_if_fresh(gap, nid)
    _, nid = made(again)
    assert nid == "i~5"
    as_if_fresh(again, nid)


def test_apply_read_rule_is_identity():
    rule = update_repo_rule()
    host = InstanceGraph(
        TG,
        {"hu": "User", "hr": "Repository"},
        {
            "hrepos": Edge("User.repos", "hu", "hr"),
            "howner": Edge("Repository.owner", "hr", "hu"),
        },
    )
    (match,) = enumerate_matches(rule.lhs, host)
    step = apply(rule, host, match)
    assert step.result == host
    assert not step.created_ids() and not step.deleted_ids()
    assert step.comatch.node_map == match.node_map
    assert step.comatch.edge_map == match.edge_map


def test_apply_creates_fresh_elements():
    rule = create_repo_rule()
    host = single_user_host()
    (match,) = enumerate_matches(rule.lhs, host)
    step = apply(rule, host, match)
    assert set(step.result.nodes) == {"alice", "r~1"}
    assert step.result.nodes["r~1"] == "Repository"
    assert step.result.edges["repos~1"] == Edge("User.repos", "alice", "r~1")
    assert step.result.edges["owner~1"] == Edge("Repository.owner", "r~1", "alice")
    # a second application must pick the next free ids
    again = apply(rule, step.result, enumerate_matches(rule.lhs, step.result)[0])
    assert "r~2" in again.result.nodes


def test_apply_rejects_dangling_deletion():
    tg = TypeGraph(("T", "A"), (EdgeType("inc", "T", "A"),))
    delete_t = Rule(
        name="deleteT", typegraph=tg, nodes={"t": "T"}, tags={"t": "delete"}
    )
    # two edges would dangle; the error names the one with the lowest id
    host = InstanceGraph(
        tg,
        {"ht": "T", "ha": "A"},
        {"e2": Edge("inc", "ht", "ha"), "e1": Edge("inc", "ht", "ha")},
    )
    (match,) = enumerate_matches(delete_t.lhs, host)
    with pytest.raises(NotApplicableError) as err:
        apply(delete_t, host, match)
    assert "host edge e1 would dangle" in str(err.value)


def test_apply_deletes_node_with_matched_edges():
    tg = TypeGraph(("T", "A"), (EdgeType("inc", "T", "A"),))
    delete_incident = Rule(
        name="deleteIncident",
        typegraph=tg,
        nodes={"t": "T", "a": "A"},
        edges={"e": Edge("inc", "t", "a")},
        tags={"t": "delete", "a": "preserve", "e": "delete"},
    )
    host = InstanceGraph(tg, {"ht": "T", "ha": "A"}, {"he": Edge("inc", "ht", "ha")})
    (match,) = enumerate_matches(delete_incident.lhs, host)
    step = apply(delete_incident, host, match)
    assert set(step.result.nodes) == {"ha"}
    assert not step.result.edges


def test_inverse_of_read_rule_is_identity():
    rule = update_repo_rule()
    host = InstanceGraph(
        TG,
        {"hu": "User", "hr": "Repository"},
        {
            "hrepos": Edge("User.repos", "hu", "hr"),
            "howner": Edge("Repository.owner", "hr", "hu"),
        },
    )
    (comatch,) = enumerate_matches(rule.rhs, host)
    assert apply_inverse(rule, host, comatch) == host


def test_inverse_of_creation_leaves_context():
    rule = create_repo_rule()
    host = single_user_host()
    (match,) = enumerate_matches(rule.lhs, host)
    step = apply(rule, host, match)
    back = apply_inverse(rule, step.result, step.comatch)
    assert back == host


def test_inverse_blocked_by_outside_edge():
    tg = TypeGraph(("T", "A"), (EdgeType("inc", "T", "A"),))
    create_t = Rule(
        name="createT",
        typegraph=tg,
        nodes={"a": "A", "t": "T"},
        edges={"e": Edge("inc", "t", "a")},
        tags={"a": "preserve", "t": "create", "e": "create"},
    )
    # host carries two extra incident edges the comatch does not account
    # for; the error names the one with the lowest id
    host = InstanceGraph(
        tg,
        {"ha": "A", "ht": "T", "hb": "A"},
        {
            "he": Edge("inc", "ht", "ha"),
            "xtra": Edge("inc", "ht", "hb"),
            "extra": Edge("inc", "ht", "hb"),
        },
    )
    comatch = Morphism(
        create_t.rhs, host, {"a": "ha", "t": "ht"}, {"e": "he"}
    )
    with pytest.raises(NotReversibleError) as err:
        apply_inverse(create_t, host, comatch)
    assert "host edge extra touches" in str(err.value)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 100_000))
def test_apply_inverse_round_trip(seed):
    rng = random.Random(seed)
    tg = random_typegraph(rng)
    rule = random_rule(rng, tg)
    host = host_with_embedded_lhs(rng, rule)
    for match in enumerate_matches(rule.lhs, host)[:4]:
        try:
            step = apply(rule, host, match)
        except NotApplicableError:
            continue
        back = apply_inverse(rule, step.result, step.comatch)
        assert isomorphic(back, host)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 100_000))
def test_frame_property(seed):
    # untouched elements keep identity and shape between host and result
    rng = random.Random(seed)
    tg = random_typegraph(rng)
    rule = random_rule(rng, tg)
    host = host_with_embedded_lhs(rng, rule)
    for match in enumerate_matches(rule.lhs, host)[:4]:
        try:
            step = apply(rule, host, match)
        except NotApplicableError:
            continue
        kept_nodes = set(host.nodes) - step.deleted_ids()
        kept_edges = set(host.edges) - step.deleted_ids()
        for n in kept_nodes:
            assert step.result.nodes[n] == host.nodes[n]
        for e in kept_edges:
            assert step.result.edges[e] == host.edges[e]
        created_edges = step.created_ids() - step.created_node_ids()
        assert set(step.result.nodes) == kept_nodes | step.created_node_ids()
        assert set(step.result.edges) == kept_edges | created_edges


def revalidated_graph(graph: InstanceGraph) -> InstanceGraph:
    """The graph rebuilt through the public, whole-graph-checking constructor."""
    rebuilt = InstanceGraph(graph.typegraph, graph.nodes, graph.edges)
    assert rebuilt == graph
    assert all(type(e) is Edge for e in graph.edges.values())
    return rebuilt


def revalidated_morphism(m: Morphism) -> Morphism:
    rebuilt = Morphism(
        revalidated_graph(m.source), revalidated_graph(m.target), m.node_map, m.edge_map
    )
    assert rebuilt == m
    return rebuilt


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 100_000))
def test_steps_pass_full_validation(seed):
    # matches, steps and inverse steps skip the whole-graph checks; each
    # must pass them when rebuilt through the public constructors
    rng = random.Random(seed)
    tg = random_typegraph(rng)
    rules = [random_rule(rng, tg, name=f"r{i}") for i in range(3)]
    host = host_with_embedded_lhs(rng, rules[0])
    for _ in range(3):
        steps = []
        for rule in rules:
            for match in iter_matches(rule.lhs, host):
                revalidated_morphism(match)
                try:
                    step = apply(rule, host, match)
                except NotApplicableError:
                    continue
                revalidated_morphism(step.comatch)
                steps.append(step)
            for comatch in iter_matches(rule.rhs, host):
                try:
                    revalidated_graph(apply_inverse(rule, host, comatch))
                except NotReversibleError:
                    continue
        if not steps:
            break
        host = rng.choice(steps).result


def test_isomorphism_on_relabeled_graph():
    rng = random.Random(11)
    cases = []
    for _ in range(20):
        tg = random_typegraph(rng)
        g = host_with_embedded_lhs(rng, random_rule(rng, tg))
        node_names = sorted(g.nodes)
        shuffled = node_names[:]
        rng.shuffle(shuffled)
        cases.append((g, dict(zip(node_names, shuffled))))
    # ten interchangeable nodes beside a chain, all of one type; the isolated
    # nodes sort first in the original and last in the copy
    tg = TypeGraph(("A",), (EdgeType("E", "A", "A"),))
    g = InstanceGraph(
        tg,
        {f"a{i:02}": "A" for i in range(10)} | {f"c{i}": "A" for i in range(3)},
        {"e0": Edge("E", "c0", "c1"), "e1": Edge("E", "c1", "c2")},
    )
    cases.append(
        (g, {n: ("b" if n.startswith("c") else "d") + n[1:] for n in g.nodes})
    )
    for g, rename in cases:
        relabeled = InstanceGraph(
            g.typegraph,
            {rename[n]: t for n, t in g.nodes.items()},
            {
                f"re_{e}": Edge(d.type, rename[d.src], rename[d.tgt])
                for e, d in g.edges.items()
            },
        )
        assert isomorphic(g, relabeled)
        assert canonical_form(g) == canonical_form(relabeled)


def test_isomorphism_distinguishes_cycle_structure():
    # same degrees everywhere, different cycle structure; shuffled ids keep
    # neighbours apart in id order, so the search must follow the edges
    tg = TypeGraph(("A",), (EdgeType("E", "A", "A"),))

    def cycles(*rings: list[str]) -> InstanceGraph:
        return InstanceGraph(
            tg,
            {n: "A" for ring in rings for n in ring},
            {
                f"e_{n}": Edge("E", n, ring[(i + 1) % len(ring)])
                for ring in rings
                for i, n in enumerate(ring)
            },
        )

    for k in (3, 7):
        ids = [f"n{i:02}" for i in range(2 * k)]
        random.Random(k).shuffle(ids)
        two_rings, one_ring = cycles(ids[:k], ids[k:]), cycles(ids)
        assert not isomorphic(two_rings, one_ring)
        assert isomorphic(two_rings, two_rings)
        # the invariant cannot tell them apart; only the match decides
        assert canonical_form(two_rings) == canonical_form(one_ring)


def test_isomorphism_respects_types_and_counts():
    a = InstanceGraph(TG, {"x": "User"}, {})
    b = InstanceGraph(TG, {"y": "Repository"}, {})
    c = InstanceGraph(TG, {"x": "User", "z": "User"}, {})
    assert not isomorphic(a, b)
    assert not isomorphic(a, c)
    # identical nodes and edges over another type graph
    other = TypeGraph(("User",), ())
    assert not isomorphic(a, InstanceGraph(other, {"x": "User"}, {}))


def test_canonical_form_stability():
    g = InstanceGraph(
        TG,
        {"u": "User", "r": "Repository"},
        {"e": Edge("User.repos", "u", "r")},
    )
    assert canonical_form(g) == canonical_form(g)


def test_rule_document_round_trip():
    rule = Rule(
        name="createRepo",
        typegraph=TG,
        nodes={"u": "User", "r": "Repository"},
        edges={
            "repos": Edge("User.repos", "u", "r"),
            "owner": Edge("Repository.owner", "r", "u"),
        },
        tags={"u": "preserve", "r": "create", "repos": "create", "owner": "create"},
        call=CallSpec("createRepo", "mutation createRepo($u: ID!) { createRepo }", {"u": "u"}),
        actor="u",
    )
    doc = rules_to_doc([rule])
    (back,) = rules_from_doc(doc, TG)
    assert back == rule
    assert rules_to_doc([back]) == doc


def test_rule_documents_validated():
    base = rule_to_doc(create_repo_rule())
    broken = dict(base)
    broken["nodes"] = [{"id": "u", "type": "User", "tag": "kept"}]
    broken["edges"] = []
    with pytest.raises(GraphError):
        rule_from_doc(broken, TG)
    with pytest.raises(GraphError):
        rules_from_doc({"rules": [base, base]}, TG)
    with pytest.raises(GraphError):
        rules_from_doc({}, TG)


# `explore` and `isomorphic` skip work that cannot change their answer: a
# rule that creates and deletes nothing is never stepped, and equal node
# and edge dicts prove isomorphism without a search.  `reference.explore`
# and `reference.isomorphic` do neither: every rule is stepped and a match
# alone decides.


def _walk(search) -> list:
    """The yielded hosts as documents, each with its steps' rule names and
    match maps."""
    return [
        (
            host.to_doc(),
            [(t.rule.name, t.match.node_map, t.match.edge_map) for t in trace],
        )
        for host, trace in search
    ]


TREE = TypeGraph(("N",), (EdgeType("E", "N", "N"),))


def _tree_rule(name: str, nodes: dict, edges: dict, tags: dict) -> Rule:
    return Rule(name=name, typegraph=TREE, nodes=nodes, edges=edges, tags=tags)


def edge_rules_system() -> list[Rule]:
    """Roots and children of one node type, with a query, a rule that only
    creates an edge, one that only deletes an edge and one that deletes a
    node."""
    pair = {"x": "N", "y": "N"}
    edge = {"e": Edge("E", "x", "y")}
    return [
        _tree_rule("addRoot", {"n": "N"}, {}, {"n": "create"}),
        _tree_rule("addChild", pair, edge, {"x": "preserve", "y": "create", "e": "create"}),
        _tree_rule("readNode", {"n": "N"}, {}, {"n": "preserve"}),
        _tree_rule("link", pair, edge, {"x": "preserve", "y": "preserve", "e": "create"}),
        _tree_rule("unlink", pair, edge, {"x": "preserve", "y": "preserve", "e": "delete"}),
        _tree_rule("dropNode", {"n": "N"}, {}, {"n": "delete"}),
    ]


def test_explore_yields_what_stepping_every_rule_yields():
    # rules.explore against reference.explore
    systems = []
    for name in ("running-example", "github-issue", "incident-toy", "incident-chain-toy"):
        project = Project.load(PROJECTS / name)
        systems.append((project.rules(), project.initial(), 3))
    systems += [(*wide_system(seed), 3) for seed in range(40)]
    systems.append((edge_rules_system(), InstanceGraph.empty(TREE), 5))
    for rules, initial, depth in systems:
        assert _walk(explore(rules, initial, depth)) == _walk(
            reference.explore(rules, initial, depth)
        )


def test_explore_never_steps_a_rule_that_creates_and_deletes_nothing(monkeypatch):
    project = Project.load(PROJECTS / "running-example")
    stepped = []
    original = rules_module.transformations

    def recorded(rule, host):
        stepped.append(rule)
        return original(rule, host)

    monkeypatch.setattr(rules_module, "transformations", recorded)
    hosts = list(explore(project.rules(), project.initial(), 3))
    queries = {
        r.name for r in project.rules() if set(r.tags.values()) == {"preserve"}
    }
    assert queries and len(hosts) > 1
    assert stepped and not queries & {r.name for r in stepped}


def test_identical_elements_are_isomorphic_without_a_search(monkeypatch):
    def refused(*args, **kwargs):
        raise AssertionError("the matcher was asked")

    g = host_with_embedded_lhs(random.Random(3), create_repo_rule())
    monkeypatch.setattr(rules_module, "iter_matches", refused)
    assert isomorphic(g, InstanceGraph(g.typegraph, g.nodes, g.edges))


def test_equal_nodes_with_other_edges_get_the_matchers_answer():
    # rules.isomorphic against reference.isomorphic
    nodes = {"a": "N", "b": "N", "c": "N"}
    chain = InstanceGraph(TREE, nodes, {"e1": Edge("E", "a", "b"), "e2": Edge("E", "b", "c")})
    turned = InstanceGraph(TREE, nodes, {"e1": Edge("E", "b", "c"), "e2": Edge("E", "c", "a")})
    cherry = InstanceGraph(TREE, nodes, {"e1": Edge("E", "a", "b"), "e2": Edge("E", "a", "c")})
    for a, b, expected in ((chain, turned, True), (chain, cherry, False)):
        assert a.nodes == b.nodes and a.edges != b.edges
        assert isomorphic(a, b) == reference.isomorphic(a, b) == expected
