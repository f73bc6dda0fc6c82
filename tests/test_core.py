"""Graph substrate tests: matching, morphisms, dangling check, documents."""

from __future__ import annotations

import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import graphbac.core as core
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
from graphbac.rules import NotApplicableError, _fresh_ids, apply, transformations
from randgen import random_graph, random_rule, random_typegraph
import reference

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
    assert as_tuples(matches) == as_tuples(reference.matches(pattern, host))


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
    # core.enumerate_matches against reference.matches, order included
    rng = random.Random(seed)
    tg = random_typegraph(rng, max_node_types=3, max_edge_types=3)
    pattern = random_graph(rng, tg, max_nodes=3, max_edges=3, prefix="p")
    host = random_graph(rng, tg, max_nodes=5, max_edges=6, prefix="h")
    assert [m.mapped_tuple() for m in enumerate_matches(pattern, host)] == [
        m.mapped_tuple() for m in reference.matches(pattern, host)
    ]


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10_000))
def test_anchored_matches_equal_filtered_naive_enumeration(seed):
    # core.iter_matches with anchors against reference.matches filtered by
    # them: anchors on host nodes of any type, on absent ids, on values
    # that are no id at all and on names outside the pattern
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
        for m in reference.matches(pattern, host)
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
        # core.dangling_edge and check_dangling against reference.dangling_edge
        expected = reference.dangling_edge(host, images, m.edge_image())
        assert check_dangling(m, deleted) == (expected is None)
        assert dangling_edge(host, images, m.edge_image()) == expected


def assert_fully_valid(graph: InstanceGraph) -> None:
    """The graph passes the public constructor's whole-graph validation."""
    assert InstanceGraph(graph.typegraph, graph.nodes, graph.edges) == graph
    assert all(type(e) is Edge for e in graph.edges.values())


def assert_valid_morphism(m: Morphism) -> None:
    assert Morphism(m.source, m.target, m.node_map, m.edge_map) == m


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000))
def test_matches_pass_full_validation(seed):
    rng = random.Random(seed)
    tg = random_typegraph(rng, max_node_types=3, max_edge_types=3)
    pattern = random_graph(rng, tg, max_nodes=3, max_edges=4, prefix="p")
    host = random_graph(rng, tg, max_nodes=6, max_edges=8, prefix="h")
    names = sorted(pattern.nodes)
    fixed = {n: rng.choice(sorted(host.nodes) or ["absent"]) for n in names[:1]}
    for m in [*iter_matches(pattern, host), *iter_matches(pattern, host, fixed)]:
        assert_valid_morphism(m)


# `InstanceGraph._derive` and `subgraph` validate only their change;
# `reference.add`, `reference.remove` and `reference.subgraph` build each
# result through the whole-graph constructor.


def outcome(build):
    """The graph `build()` returns, or the message of the GraphError it raises."""
    try:
        graph = build()
    except GraphError as exc:
        return "error", str(exc)
    assert_fully_valid(graph)
    return "graph", graph


def some(rng: random.Random, ids, p: float) -> set:
    return {i for i in ids if rng.random() < p}


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10_000))
def test_derived_graphs_raise_exactly_when_the_whole_graph_check_does(seed):
    # clashing ids, ids used for both a node and an edge, unknown node and
    # edge types, missing endpoints, endpoint types that do not fit,
    # removals that leave an edge dangling, subgraphs without an endpoint
    rng = random.Random(seed)
    tg = random_typegraph(rng, max_node_types=3, max_edge_types=3)
    g = random_graph(rng, tg, max_nodes=5, max_edges=6, prefix="h")
    ids = sorted(g.nodes) + sorted(g.edges)

    def fresh_or_taken(fresh: str, taken: list[str]) -> str:
        return rng.choice(taken) if taken and rng.random() < 0.1 else fresh

    new_nodes = {}
    for i in range(rng.randint(0, 3)):
        ntype = rng.choice(tg.node_types) if rng.random() < 0.9 else "Nope"
        new_nodes[fresh_or_taken(f"x{i}", ids)] = ntype
    new_edges = {}
    ends = sorted(g.nodes) + sorted(new_nodes) or ["ghost"]
    for j in range(rng.randint(0, 3)):
        eid = fresh_or_taken(f"y{j}", ids + sorted(new_nodes))
        etype = rng.choice([e.name for e in tg.edge_types] or ["Nope"])
        if rng.random() < 0.1:
            etype = "Nope"
        src, tgt = (fresh_or_taken(rng.choice(ends), ["ghost"]) for _ in "st")
        new_edges[eid] = Edge(etype, src, tgt)
    old = outcome(lambda: reference.add(g, new_nodes, new_edges))
    assert outcome(lambda: g._derive((), (), new_nodes, new_edges)) == old

    strays = ["ghost"] + sorted(g.edges)[:1] + sorted(g.nodes)[:1]
    node_ids = some(rng, sorted(g.nodes), 0.4) | some(rng, strays, 0.2)
    edge_ids = some(rng, sorted(g.edges), 0.5) | some(rng, strays, 0.2)
    old = outcome(lambda: reference.remove(g, node_ids, edge_ids))
    new = outcome(lambda: g._derive(node_ids, edge_ids, {}, {}))
    # the message may name another dangling edge than the whole-graph check
    assert new[0] == old[0] and (new[0] == "error" or new == old)

    node_ids = some(rng, sorted(g.nodes), 0.6) | some(rng, ["ghost"], 0.1)
    edge_ids = some(rng, sorted(g.edges), 0.5) | some(rng, ["ghost"], 0.1)
    old = outcome(lambda: reference.subgraph(g, node_ids, edge_ids))
    assert outcome(lambda: g.subgraph(node_ids, edge_ids)) == old


def test_an_id_names_a_node_or_an_edge_not_both():
    with pytest.raises(GraphError, match=r"ids used for both a node and an edge: \['u'\]"):
        InstanceGraph(TG, {"u": "User", "r": "Repository"}, {"u": Edge("User.repos", "u", "r")})


def test_a_derivation_refuses_to_leave_an_edge_dangling():
    host = user_repo_host()
    with pytest.raises(GraphError, match="edge owner has a missing endpoint"):
        host._derive(["u"], ["repos"], {}, {})
    assert host._derive(["u"], ["repos", "owner"], {}, {}).nodes == {"r": "Repository"}


# The matcher's caches, as `_derive` carries them from graph to graph.

CACHES = ("_signatures", "_incidence", "_index", "_floors")


def assert_caches_as_if_built_afresh(graph: InstanceGraph) -> None:
    """Each cache the graph has made equals the one a copy of it builds
    from its elements alone; neighbour lists only as sets, since their
    order is not observable.  A floor only has to be a true floor."""
    made = graph.__dict__
    fresh = InstanceGraph(graph.typegraph, graph.nodes, graph.edges)
    if "_signatures" in made:
        assert made["_signatures"] == fresh._signatures
    if "_incidence" in made:
        assert made["_incidence"] == fresh._incidence
    if "_index" in made:
        index, want = made["_index"], fresh._index
        assert index.by_type == want.by_type
        assert index.by_edge == want.by_edge
        assert index.signatures == want.signatures
        assert index.neighbours.keys() == want.neighbours.keys()
        for key, found in index.neighbours.items():
            assert len(set(found)) == len(found)
            assert set(found) == set(want.neighbours[key])
    for base, floor in made.get("_floors", {}).items():
        taken = [f"{base}~{k}" for k in range(1, floor)]
        assert all(i in graph.nodes or i in graph.edges for i in taken)


def random_derivation(rng: random.Random, g: InstanceGraph, rules) -> InstanceGraph:
    """One `add`, removal or rule step on g, with some stray and clashing
    ids; a derivation that raises is tried again."""
    while True:
        kind = rng.choice(("add", "remove", "step", "step"))
        try:
            if kind == "step":
                steps = transformations(rng.choice(rules), g)
                if steps:
                    return rng.choice(steps).result
            elif kind == "add":
                nodes = {}
                for _ in range(rng.randint(0, 2)):
                    nid = rng.choice(["a", "b", "r0_n0"]) + f"~{rng.randint(1, 4)}"
                    nodes[nid] = rng.choice(g.typegraph.node_types)
                ends = {**g.nodes, **nodes}
                edges = {}
                for et in g.typegraph.edge_types:
                    srcs = [n for n, t in ends.items() if t == et.src]
                    tgts = [n for n, t in ends.items() if t == et.tgt]
                    if srcs and tgts and rng.random() < 0.5:
                        eid = f"r0_e{rng.randint(0, 2)}~{rng.randint(1, 4)}"
                        edges[eid] = Edge(et.name, rng.choice(srcs), rng.choice(tgts))
                return g._derive((), (), nodes, edges)
            else:
                node_ids = some(rng, sorted(g.nodes), 0.3)
                edge_ids = some(rng, sorted(g.edges), 0.3) | {
                    e for n in node_ids for e in g.incident(n)
                }
                strays = ["ghost", *sorted(g.nodes)[:1], *sorted(g.edges)[:1]]
                return g._derive(
                    node_ids | some(rng, strays, 0.3),
                    edge_ids | some(rng, strays, 0.3),
                    {},
                    {},
                )
        except (GraphError, NotApplicableError):
            continue


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 10_000))
def test_carried_caches_equal_caches_built_afresh(seed):
    # random adds, removals and rule steps, each from some graph made
    # before, so parents are shared as the oracle shares its hosts; caches
    # and fresh ids are asked for at random points in between
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(core, "_PATCH_FROM", 0)  # small graphs patch too
        derive_and_compare(random.Random(seed))


def derive_and_compare(rng: random.Random) -> None:
    tg = random_typegraph(rng, max_node_types=3, max_edge_types=3)
    rules = [random_rule(rng, tg, name=f"r{i}", max_nodes=3, max_edges=3) for i in range(3)]
    graphs = [random_graph(rng, tg, max_nodes=5, max_edges=6, prefix="h")]
    for _ in range(rng.randint(1, 12)):
        parent = graphs[-1] if rng.random() < 0.6 else rng.choice(graphs)
        child = random_derivation(rng, parent, rules)
        graphs.append(child)
        for g in (parent, child):
            for cache in CACHES:
                if rng.random() < 0.3:
                    getattr(g, cache)
            if rng.random() < 0.3:
                bases = sorted(rng.sample(["a", "b", "r0_n0", "r0_e1", "r1_n2"], 2))
                fresh = InstanceGraph(tg, g.nodes, g.edges)
                assert _fresh_ids(bases, g) == _fresh_ids(bases, fresh)
    # a patch that changed a parent's cache in place shows here too
    for g in graphs:
        assert_caches_as_if_built_afresh(g)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000))
def test_matches_on_derived_graphs_equal_the_reference(seed):
    # core.enumerate_matches against reference.matches on graphs whose
    # matcher caches were patched from their parent's, after removals too
    rng = random.Random(seed)
    tg = random_typegraph(rng, max_node_types=3, max_edge_types=3)
    rules = [random_rule(rng, tg, name=f"r{i}", max_nodes=3, max_edges=3) for i in range(3)]
    g = random_graph(rng, tg, max_nodes=6, max_edges=8, prefix="h")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(core, "_PATCH_FROM", 0)  # small graphs patch too
        for _ in range(rng.randint(1, 8)):
            g._index  # noqa: B018  (built, so that the next graph patches it)
            g = random_derivation(rng, g, rules)
            patterns = [r.lhs for r in rules]
            patterns.append(random_graph(rng, tg, max_nodes=3, max_edges=3, prefix="p"))
            for pattern in patterns:
                assert [m.mapped_tuple() for m in enumerate_matches(pattern, g)] == [
                    m.mapped_tuple() for m in reference.matches(pattern, g)
                ]


def test_a_matched_graph_lets_its_parent_go(monkeypatch):
    host = user_repo_host()
    host._index  # noqa: B018  (cached_property evaluation)
    assert "_origin" not in host._derive((), (), {"u2": "User"}, {}).__dict__  # too small
    monkeypatch.setattr(core, "_PATCH_FROM", 2)
    child = host._derive((), (), {"u2": "User"}, {})
    assert child.__dict__["_origin"].parent is host
    child._index  # noqa: B018
    assert "_origin" not in child.__dict__
    assert child._index.by_type["User"] == ["u", "u2"]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000))
def test_type_lookups_agree_with_a_linear_scan(seed):
    rng = random.Random(seed)
    tg = random_typegraph(rng)
    names = [*tg.node_types, *(e.name for e in tg.edge_types)]
    names += ["Nope", "", 5, None, ("T0",), ["T0"], {"T0": 1}, EdgeType("E0", "T0", "T0")]
    for name in names:
        assert tg.has_node_type(name) == any(t == name for t in tg.node_types)
        scanned = [e for e in tg.edge_types if e.name == name]
        if scanned:
            assert tg.edge_type(name) == scanned[0]
        else:
            with pytest.raises(GraphError, match="unknown edge type"):
                tg.edge_type(name)


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
