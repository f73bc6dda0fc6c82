"""Graph substrate tests: matching, morphisms, dangling check, documents."""

from __future__ import annotations

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
    first_match,
    graph_to_doc,
    iter_matches,
    matches_after,
)
from graphbac.rules import NotApplicableError, Rule, _fresh_ids, apply, transformations
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


def derived(g: InstanceGraph, *change):
    """The outcome of `g._derive(*change)`, which a step from an owned copy
    of g must give too: the same graph, or the same error."""
    got = outcome(lambda: g._derive(*change))
    assert outcome(lambda: g._owned()._derive(*change)) == got
    return got


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
    assert derived(g, (), (), new_nodes, new_edges) == old

    strays = ["ghost"] + sorted(g.edges)[:1] + sorted(g.nodes)[:1]
    node_ids = some(rng, sorted(g.nodes), 0.4) | some(rng, strays, 0.2)
    edge_ids = some(rng, sorted(g.edges), 0.5) | some(rng, strays, 0.2)
    old = outcome(lambda: reference.remove(g, node_ids, edge_ids))
    new = derived(g, node_ids, edge_ids, {}, {})
    # the message may name another dangling edge than the whole-graph check
    assert new[0] == old[0] and (new[0] == "error" or new == old)

    # both at once: a new element may take the id of a removed one
    old = outcome(
        lambda: reference.add(reference.remove(g, node_ids, edge_ids), new_nodes, new_edges)
    )
    new = derived(g, node_ids, edge_ids, new_nodes, new_edges)
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


# The matcher's caches: built by each graph, or handed on in place along
# an owned chain (`InstanceGraph._owned`).

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
        assert index.signatures is made["_signatures"]
        assert index.neighbours.keys() == want.neighbours.keys()
        for key, found in index.neighbours.items():
            assert len(set(found)) == len(found)
            assert set(found) == set(want.neighbours[key])
    for base, floor in made.get("_floors", {}).items():
        taken = [f"{base}~{k}" for k in range(1, floor)]
        assert all(i in graph.nodes or i in graph.edges for i in taken)


def random_derivation(rng: random.Random, g: InstanceGraph, rules) -> InstanceGraph:
    """One `add`, removal or rule step (one `apply` at one match) on g,
    with some stray and clashing ids; a derivation that raises is tried
    again, and must have left g as it was."""
    while True:
        kind = rng.choice(("add", "remove", "step", "step"))
        before = (list(g.nodes.items()), list(g.edges.items()))
        try:
            if kind == "step":
                rule = rng.choice(rules)
                matches = enumerate_matches(rule.lhs, g)
                if matches:
                    return apply(rule, g, rng.choice(matches)).result
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
            pass
        assert (list(g.nodes.items()), list(g.edges.items())) == before
        assert_caches_as_if_built_afresh(g)


def ask_for_caches(rng: random.Random, g: InstanceGraph) -> None:
    """Build some of g's caches and ask it for fresh ids, at random."""
    for cache in CACHES:
        if rng.random() < 0.3:
            getattr(g, cache)
    if rng.random() < 0.3:
        bases = sorted(rng.sample(["a", "b", "r0_n0", "r0_e1", "r1_n2"], 2))
        fresh = InstanceGraph(g.typegraph, g.nodes, g.edges)
        assert _fresh_ids(bases, g) == _fresh_ids(bases, fresh)


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 10_000))
def test_carried_caches_equal_caches_built_afresh(seed):
    # random adds, removals and rule steps, with caches and fresh ids asked
    # for at random points in between, first from shared graphs, as the
    # oracle shares its hosts, then along an owned chain
    rng = random.Random(seed)
    tg = random_typegraph(rng, max_node_types=3, max_edge_types=3)
    rules = [random_rule(rng, tg, name=f"r{i}", max_nodes=3, max_edges=3) for i in range(3)]
    start = random_graph(rng, tg, max_nodes=5, max_edges=6, prefix="h")

    # each derivation from some graph made before: no graph changes
    graphs = [start]
    made = [(dict(start.nodes), dict(start.edges))]
    for _ in range(rng.randint(1, 12)):
        parent = graphs[-1] if rng.random() < 0.6 else rng.choice(graphs)
        child = random_derivation(rng, parent, rules)
        graphs.append(child)
        made.append((dict(child.nodes), dict(child.edges)))
        for g in (parent, child):
            ask_for_caches(rng, g)
    for g, (nodes, edges) in zip(graphs, made):
        assert (g.nodes, g.edges) == (nodes, edges)
        assert_caches_as_if_built_afresh(g)

    # each derivation from the last: the caches handed on equal fresh ones
    g = start._owned()
    for _ in range(rng.randint(1, 12)):
        ask_for_caches(rng, g)
        parent, g = g, random_derivation(rng, g, rules)
        assert_caches_as_if_built_afresh(g)
        if g is parent:  # a query's step is its host, which stays live
            assert parent.__dict__["_live"]
            continue
        with pytest.raises(GraphError, match="already stepped from"):
            parent._derive((), (), {}, {})
    assert (start.nodes, start.edges) == made[0]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000))
def test_matches_on_derived_graphs_equal_the_reference(seed):
    # core.enumerate_matches against reference.matches along an owned
    # chain, whose matcher caches are changed in place, after removals too
    rng = random.Random(seed)
    tg = random_typegraph(rng, max_node_types=3, max_edge_types=3)
    rules = [random_rule(rng, tg, name=f"r{i}", max_nodes=3, max_edges=3) for i in range(3)]
    g = random_graph(rng, tg, max_nodes=6, max_edges=8, prefix="h")._owned()
    for _ in range(rng.randint(1, 8)):
        g._index  # noqa: B018  (built, so that the step hands it on)
        g = random_derivation(rng, g, rules)
        patterns = [r.lhs for r in rules]
        patterns.append(random_graph(rng, tg, max_nodes=3, max_edges=3, prefix="p"))
        for pattern in patterns:
            assert [m.mapped_tuple() for m in enumerate_matches(pattern, g)] == [
                m.mapped_tuple() for m in reference.matches(pattern, g)
            ]


def test_a_node_deleted_with_its_edge_on_an_owned_graph_matches_like_the_reference():
    # x goes with its edge from k, and k keeps another edge of that type,
    # so a match along k's edges meets whatever neighbour entry x left
    tg = TypeGraph(("N",), (EdgeType("E", "N", "N"),))
    pair = {"a": "N", "b": "N"}
    drop = Rule("dropTarget", tg, pair, {"e": Edge("E", "a", "b")},
                {"a": "preserve", "b": "delete", "e": "delete"})
    follow = InstanceGraph(tg, pair, {"e": Edge("E", "a", "b")})
    nodes = {f"n{i}": "N" for i in range(7)} | {"k": "N", "x": "N"}
    edges = {"e0": Edge("E", "k", "x"), "e1": Edge("E", "k", "n0")}
    host = InstanceGraph(tg, nodes, edges)._owned()
    assert [m.mapped_tuple() for m in enumerate_matches(follow, host)] == [
        m.mapped_tuple() for m in reference.matches(follow, host)
    ]
    step = apply(drop, host, first_match(drop.lhs, host, {"a": "k", "b": "x"}))
    want = reference.apply(drop, step.host, step.match)
    assert (step.result.nodes, step.result.edges) == (want.result.nodes, want.result.edges)
    for fixed in ({}, {"a": "k"}):
        assert [m.mapped_tuple() for m in iter_matches(follow, step.result, fixed)] == [
            m.mapped_tuple()
            for m in reference.matches(follow, step.result)
            if all(m.node_map[p] == h for p, h in fixed.items())
        ]


# `matches_after` carries a pattern's matches from a host to a graph
# derived from it; `reference.matches` enumerates them afresh.

LOOPS = TypeGraph(("M", "N"), (EdgeType("E", "N", "N"), EdgeType("F", "N", "M")))
P, D, C = "preserve", "delete", "create"


def carrying_rules() -> list[Rule]:
    """Rules whose steps make each change that carrying must get right."""
    pair = {"a": "N", "b": "N"}
    return [
        # an empty left-hand side, whose one match every step keeps
        Rule("spawn", LOOPS, {"n": "N"}, tags={"n": C}),
        # an edge created between two kept nodes, parallel to any they have
        Rule("link", LOOPS, pair, {"e": Edge("E", "a", "b")}, {"a": P, "b": P, "e": C}),
        Rule("loop", LOOPS, {"a": "N"}, {"e": Edge("E", "a", "a")}, {"a": P, "e": C}),
        # a node deleted on its own, which any edge of the node blocks ...
        Rule("drop", LOOPS, {"a": "N"}, tags={"a": D}),
        # ... until this deletes it
        Rule("cut", LOOPS, pair, {"e": Edge("E", "a", "b")}, {"a": P, "b": P, "e": D}),
        Rule("tag", LOOPS, {"a": "N", "m": "M"}, {"f": Edge("F", "a", "m")},
             {"a": P, "m": C, "f": C}),
    ]


# a loop, two parallel edges, and no element at all
CARRIED_PATTERNS = (
    InstanceGraph(LOOPS, {"x": "N"}, {"l": Edge("E", "x", "x")}),
    InstanceGraph(
        LOOPS, {"x": "N", "y": "N"}, {"p": Edge("E", "x", "y"), "q": Edge("E", "x", "y")}
    ),
    InstanceGraph.empty(LOOPS),
)


def step_view(t) -> tuple:
    return t.match.mapped_tuple(), t.result.nodes, t.result.edges


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10_000))
def test_carried_matches_equal_the_reference(seed):
    # a random derivation chain; each pattern's matches are carried from
    # step to step, never enumerated again
    rng = random.Random(seed)
    rules = carrying_rules()
    rules += [random_rule(rng, LOOPS, name=f"r{i}", max_nodes=3, max_edges=3) for i in (0, 1)]
    patterns = [r.lhs for r in rules] + list(CARRIED_PATTERNS)
    patterns.append(random_graph(rng, LOOPS, max_nodes=3, max_edges=3, prefix="p"))
    host = random_graph(rng, LOOPS, max_nodes=4, max_edges=6, prefix="h")
    carried = [enumerate_matches(p, host) for p in patterns]
    for _ in range(rng.randint(1, 6)):
        # `spawn` always fires, so there is always a step
        t = rng.choice([t for r in rules for t in transformations(r, host)])
        removed, added = t.deleted_ids(), t.created_ids()
        carried = [
            matches_after(p, before, t.result, removed, added)
            for p, before in zip(patterns, carried)
        ]
        for p, found in zip(patterns, carried):
            assert [m.mapped_tuple() for m in found] == [
                m.mapped_tuple() for m in reference.matches(p, t.result)
            ]
            assert all(m.source is p and m.target is t.result for m in found)
        # a rule steps at its carried matches as at its enumerated ones
        for r, found in zip(rules, carried):
            assert list(map(step_view, transformations(r, t.result, found))) == list(
                map(step_view, transformations(r, t.result))
            )
        host = t.result


def test_a_carried_match_that_a_dangling_edge_blocked_fires_once_the_edge_is_cut():
    rules = {r.name: r for r in carrying_rules()}
    drop, cut = rules["drop"], rules["cut"]
    host = InstanceGraph(LOOPS, {"x": "N", "y": "N"}, {"e": Edge("E", "x", "y")})
    before = enumerate_matches(drop.lhs, host)
    assert len(before) == 2 and transformations(drop, host, before) == []
    (t,) = transformations(cut, host)
    carried = matches_after(drop.lhs, before, t.result, t.deleted_ids(), t.created_ids())
    steps = transformations(drop, t.result, carried)
    assert [s.result.nodes for s in steps] == [{"y": "N"}, {"x": "N"}]
    assert list(map(step_view, steps)) == list(
        map(step_view, transformations(drop, t.result))
    )


@pytest.mark.parametrize(
    "change, message",
    [
        ((["u"], ["repos"], {}, {}), "edge owner has a missing endpoint"),
        (((), (), {"r": "User"}, {}), r"ids already present: \['r'\]"),
        (((), (), {"u2": "User"}, {"repos": ("User.repos", "u2", "r")}), "ids already present"),
        (((), ["repos"], {}, {"e": ("User.repos", "u", "ghost")}), "edge e has a missing endpoint"),
        (((), ["owner"], {"x": "Nope"}, {}), "node x has unknown type Nope"),
        (((), ["owner"], {}, {"e": ("User.repos", "r", "u")}), "endpoint types do not match"),
        ((["u"], ["repos", "owner"], {}, {"e": ("User.repos", "u", "r")}), "edge e has a missing"),
    ],
)
@pytest.mark.parametrize("owned", [True, False], ids=["owned", "shared"])
def test_a_refused_step_leaves_an_owned_graph_as_it_was(change, message, owned):
    # one derivation for both kinds of graph: its checks come before any change
    graph = user_repo_host()._owned() if owned else user_repo_host()
    for cache in CACHES:
        getattr(graph, cache)
    _fresh_ids(["repos"], graph)  # raises a floor
    before = {k: repr(v) for k, v in graph.__dict__.items()}
    with pytest.raises(GraphError, match=message):
        graph._derive(*change)
    assert {k: repr(v) for k, v in graph.__dict__.items()} == before
    # an owned graph is still live: the next step goes through
    result = graph._derive(["u"], ["repos", "owner"], {}, {})
    assert result.nodes == {"r": "Repository"}
    if not owned:
        # a shared graph keeps its own nodes, edges and caches
        assert {k: repr(v) for k, v in graph.__dict__.items()} == before
        assert result.nodes is not graph.nodes and result.edges is not graph.edges


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
