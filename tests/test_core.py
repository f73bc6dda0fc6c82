"""Graph substrate tests: matching, morphisms, dangling check, documents."""

from __future__ import annotations

import itertools
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphbac.core import (
    Edge,
    EdgeType,
    GraphError,
    InstanceGraph,
    Morphism,
    TypeGraph,
    check_dangling,
    dangling_edge,
    enumerate_matches,
    graph_to_doc,
    iter_matches,
)
from randgen import random_graph, random_typegraph

TG = TypeGraph(
    ("User", "Repository"),
    (
        EdgeType("User.repos", "User", "Repository"),
        EdgeType("Repository.owner", "Repository", "User"),
    ),
)


def user_repo_host() -> InstanceGraph:
    # one user owning one repository, both reference edges present
    return InstanceGraph(
        TG,
        {"u": "User", "r": "Repository"},
        {
            "repos": Edge("User.repos", "u", "r"),
            "owner": Edge("Repository.owner", "r", "u"),
        },
    )


def naive_matches(pattern: InstanceGraph, host: InstanceGraph) -> list[Morphism]:
    """Independent oracle: try every injective assignment, keep the valid ones."""
    found = []
    pnodes = sorted(pattern.nodes)
    pedges = sorted(pattern.edges)
    for nimages in itertools.permutations(sorted(host.nodes), len(pnodes)):
        nmap = dict(zip(pnodes, nimages))
        for eimages in itertools.permutations(sorted(host.edges), len(pedges)):
            emap = dict(zip(pedges, eimages))
            try:
                found.append(Morphism(pattern, host, nmap, emap))
            except GraphError:
                continue
    return found


def as_tuples(matches) -> set:
    return {m.mapped_tuple() for m in matches}


def test_empty_pattern_has_exactly_one_match():
    empty = InstanceGraph.empty(TG)
    assert len(enumerate_matches(empty, user_repo_host())) == 1
    assert len(enumerate_matches(empty, empty)) == 1


def test_single_repository_pattern_in_owned_repo_host():
    pattern = InstanceGraph(TG, {"p": "Repository"}, {})
    matches = enumerate_matches(pattern, user_repo_host())
    assert len(matches) == 1
    assert matches[0].node_map == {"p": "r"}


def test_single_node_pattern_counts_candidates():
    tg = TypeGraph(("A",), ())
    pattern = InstanceGraph(tg, {"x": "A"}, {})
    host = InstanceGraph(tg, {"a1": "A", "a2": "A"}, {})
    matches = enumerate_matches(pattern, host)
    assert len(matches) == 2
    assert as_tuples(matches) == as_tuples(naive_matches(pattern, host))


def test_parallel_edges_give_distinct_matches():
    tg = TypeGraph(("A", "B"), (EdgeType("E", "A", "B"),))
    pattern = InstanceGraph(tg, {"a": "A", "b": "B"}, {"e": Edge("E", "a", "b")})
    host = InstanceGraph(
        tg,
        {"ha": "A", "hb": "B"},
        {"e1": Edge("E", "ha", "hb"), "e2": Edge("E", "ha", "hb")},
    )
    matches = enumerate_matches(pattern, host)
    assert len(matches) == 2
    assert {m.edge_map["e"] for m in matches} == {"e1", "e2"}


def test_matches_are_deterministic():
    host = user_repo_host()
    pattern = InstanceGraph(TG, {"p": "User"}, {})
    first = [m.mapped_tuple() for m in enumerate_matches(pattern, host)]
    second = [m.mapped_tuple() for m in enumerate_matches(pattern, host)]
    assert first == second


def test_type_graph_mismatch_rejected():
    other = TypeGraph(("User",), ())
    pattern = InstanceGraph(other, {"p": "User"}, {})
    with pytest.raises(GraphError):
        enumerate_matches(pattern, user_repo_host())


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000))
def test_matches_equal_naive_enumeration(seed):
    rng = random.Random(seed)
    tg = random_typegraph(rng, max_node_types=3, max_edge_types=3)
    pattern = random_graph(rng, tg, max_nodes=3, max_edges=3, prefix="p")
    host = random_graph(rng, tg, max_nodes=5, max_edges=6, prefix="h")
    assert as_tuples(enumerate_matches(pattern, host)) == as_tuples(
        naive_matches(pattern, host)
    )


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10_000))
def test_anchored_matches_equal_filtered_naive_enumeration(seed):
    # anchors on host nodes of any type, on absent ids, on values that are
    # no id at all and on names outside the pattern
    rng = random.Random(seed)
    tg = random_typegraph(rng, max_node_types=3, max_edge_types=3)
    pattern = random_graph(rng, tg, max_nodes=3, max_edges=3, prefix="p")
    host = random_graph(rng, tg, max_nodes=5, max_edges=6, prefix="h")
    values = sorted(host.nodes) + ["absent", 5, ["h0"]]
    names = sorted(pattern.nodes) + ["not-in-pattern"]
    fixed = {n: rng.choice(values) for n in names if rng.random() < 0.4}
    found = [m.mapped_tuple() for m in iter_matches(pattern, host, fixed)]
    assert len(found) == len(set(found))
    assert set(found) == as_tuples(
        m
        for m in naive_matches(pattern, host)
        if all(m.node_map.get(n) == v for n, v in fixed.items())
    )


def test_matching_cost_follows_the_pattern_not_the_host():
    # about 3000 s when every candidate pair scans every host edge
    tg = TypeGraph(("A", "B"), (EdgeType("E", "A", "B"),))
    pattern = InstanceGraph(tg, {"a": "A", "b": "B"}, {"e": Edge("E", "a", "b")})
    n = 2000
    host = InstanceGraph(
        tg,
        {**{f"a{i}": "A" for i in range(n)}, **{f"b{i}": "B" for i in range(n)}},
        {f"e{i}": Edge("E", f"a{i}", f"b{i}") for i in range(n)},
    )
    start = time.perf_counter()
    assert len(enumerate_matches(pattern, host)) == n
    assert time.perf_counter() - start < 5


def test_identity_and_inclusion_morphisms():
    host = user_repo_host()
    sub = host.subgraph(["u"], [])
    incl = Morphism.inclusion(sub, host)
    assert incl.node_map == {"u": "u"}
    with pytest.raises(GraphError):
        Morphism.inclusion(host, sub)


def test_dangling_with_no_deletions_is_true():
    rng = random.Random(7)
    for _ in range(25):
        tg = random_typegraph(rng)
        pattern = random_graph(rng, tg, max_nodes=3, max_edges=3, prefix="p")
        host = random_graph(rng, tg, max_nodes=5, max_edges=5, prefix="h")
        for m in enumerate_matches(pattern, host):
            assert check_dangling(m, set())


def test_dangling_isolated_node_deletion():
    tg = TypeGraph(("A",), ())
    pattern = InstanceGraph(tg, {"x": "A"}, {})
    host = InstanceGraph(tg, {"a": "A"}, {})
    (match,) = enumerate_matches(pattern, host)
    assert check_dangling(match, {"x"})


def test_dangling_blocked_by_unmatched_incident_edge():
    # host still carries an edge to a neighbour the pattern does not cover
    tg = TypeGraph(("T", "A"), (EdgeType("inc", "T", "A"),))
    pattern = InstanceGraph(tg, {"t": "T"}, {})
    host = InstanceGraph(
        tg, {"ht": "T", "ha": "A"}, {"e": Edge("inc", "ht", "ha")}
    )
    (match,) = enumerate_matches(pattern, host)
    assert not check_dangling(match, {"t"})


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000))
def test_dangling_equals_incident_edge_scan(seed):
    rng = random.Random(seed)
    tg = random_typegraph(rng)
    pattern = random_graph(rng, tg, max_nodes=3, max_edges=3, prefix="p")
    host = random_graph(rng, tg, max_nodes=5, max_edges=6, prefix="h")
    for nid in host.nodes:
        assert host.incident(nid) == sorted(
            eid for eid, e in host.edges.items() if nid in (e.src, e.tgt)
        )
    for m in enumerate_matches(pattern, host):
        deleted = {n for n in pattern.nodes if rng.random() < 0.5}
        images = {m.node_map[n] for n in deleted}
        incident_outside = {
            eid
            for eid, e in host.edges.items()
            if (e.src in images or e.tgt in images) and eid not in m.edge_image()
        }
        assert check_dangling(m, deleted) == (not incident_outside)
        assert dangling_edge(host, images, m.edge_image()) == min(
            incident_outside, default=None
        )


def test_graph_document_round_trip():
    host = user_repo_host()
    doc = graph_to_doc(host)
    back = InstanceGraph.from_doc(doc, TypeGraph.from_doc(doc))
    assert back == host
    assert graph_to_doc(back) == doc


def test_invalid_graphs_rejected():
    with pytest.raises(GraphError):
        TypeGraph(("A", "A"), ())
    with pytest.raises(GraphError):
        TypeGraph(("A",), (EdgeType("E", "A", "Missing"),))
    with pytest.raises(GraphError):
        InstanceGraph(TG, {"x": "Nope"}, {})
    with pytest.raises(GraphError):
        InstanceGraph(TG, {"u": "User"}, {"e": Edge("User.repos", "u", "gone")})
    with pytest.raises(GraphError):
        # endpoint types must agree with the declared edge type
        InstanceGraph(
            TG,
            {"u": "User", "v": "User"},
            {"e": Edge("User.repos", "u", "v")},
        )
    with pytest.raises(GraphError):
        user_repo_host().subgraph(["u"], ["repos"])


def test_invalid_morphisms_rejected():
    host = user_repo_host()
    pattern = InstanceGraph(TG, {"a": "User", "b": "User"}, {})
    two_users = InstanceGraph(TG, {"u1": "User", "u2": "User"}, {})
    with pytest.raises(GraphError):
        Morphism(pattern, two_users, {"a": "u1", "b": "u1"}, {})
    with pytest.raises(GraphError):
        Morphism(pattern, host, {"a": "u", "b": "r"}, {})
    with pytest.raises(GraphError):
        Morphism(pattern, host, {"a": "u"}, {})


def test_attributes_are_metadata_only():
    plain = TypeGraph(("User",), ())
    annotated = TypeGraph(("User",), (), {"User": {"login": "String"}})
    assert annotated.to_doc()["node_types"][0]["attributes"] == {"login": "String"}
    pattern = InstanceGraph(annotated, {"p": "User"}, {})
    host = InstanceGraph(annotated, {"h1": "User", "h2": "User"}, {})
    assert len(enumerate_matches(pattern, host)) == 2
    assert plain != annotated
