"""Seeded input generators for the benchmark workloads.

Every generator takes the workload seed and returns the same inputs for the
same seed.  The seed changes names, document order and type-graph edges no
rule uses, never the shape: two seeds give inputs that cost the same to
analyse, so run-to-run spread measures the program and the machine rather
than the draw.  Names keep their sorted order under every seed, because
graphbac visits rules in name order and a search that stops early would
otherwise do a different amount of work.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

SALT_LETTERS = "jkqxz"


def salt_for(seed: int) -> str:
    """A name prefix that appears nowhere in the unsalted documents.

    The capital Z and the letters j, k, q, x, z occur in no base name, rule
    element id or document key, so removing the salt from a generated
    artifact gives back the artifact of the unsalted project exactly.
    """
    rng = random.Random(f"salt:{seed}")
    return "Z" + "".join(rng.choice(SALT_LETTERS) for _ in range(3))


# ---------------------------------------------------------------------------
# synthetic project for the pipeline workload


def synthetic_project(seed: int, chain: int, hub: int, star: int) -> dict[str, str]:
    """Documents of a chain, hub and star project, as file name -> text.

    Shape: a principal type `User`; a chain of `chain` types in which each
    type hangs off the previous one (the first off `User`); and a `Hub` type
    whose create call attaches one new node to the first `hub` chain types
    at once.  A `Star` type has `star` fields that all reference the first
    chain type, so creating a star node adds `star` parallel edges to one
    parent: the span search grows exponentially in `star` while the setup
    the planner must find stays one step deep.  Each chain type has create,
    get, update and delete calls; the hub and the star have create and get.
    Three ordered roles (admin > member > guest) share a policy under which
    check-coverage is satisfied, and the ledger reviews every reason,
    marking each delete flow unsecured.

    Every setup the planner must find is at most `chain` steps deep, and
    the planner gives up beyond 6, so `chain` must be at most 6.
    """
    if not 1 <= chain <= 6:
        raise ValueError("chain length must be between 1 and 6")
    if not 0 <= hub <= chain:
        raise ValueError("hub fan-out must be between 0 and the chain length")
    rng = random.Random(f"synthetic:{seed}")
    s = salt_for(seed)
    user = f"{s}User"
    chain_types = [f"{s}T{i}" for i in range(1, chain + 1)]
    hub_type = f"{s}Hub"
    star_type = f"{s}Star"
    admin, member, guest = f"{s}Admin", f"{s}Member", f"{s}Guest"

    # -- schema
    types = [(user, [("name", "String!")])]
    for i, t in enumerate(chain_types):
        parent = user if i == 0 else chain_types[i - 1]
        types.append((t, [("title", "String!"), ("parent", f"{parent}!")]))
    if hub:
        types.append(
            (hub_type, [(f"ref{i}", f"{chain_types[i - 1]}!") for i in range(1, hub + 1)])
        )
    if star:
        types.append(
            (star_type, [(f"to{i}", f"{chain_types[0]}!") for i in range(1, star + 1)])
        )
    queries = [f"get{user}(id: ID!): {user}"]
    mutations = [f"create{user}: {user}"]
    for t in chain_types:
        queries.append(f"get{t}(id: ID!): {t}")
        mutations += [
            f"create{t}(parent: ID!): {t}" if t != chain_types[0] else f"create{t}: {t}",
            f"update{t}(id: ID!): {t}",
            f"delete{t}(id: ID!): {t}",
        ]
    if hub:
        args = ", ".join(f"ref{i}: ID!" for i in range(1, hub + 1))
        mutations.append(f"create{hub_type}({args}): {hub_type}")
        queries.append(f"get{hub_type}(id: ID!): {hub_type}")
    if star:
        mutations.append(f"create{star_type}(parent: ID!): {star_type}")
        queries.append(f"get{star_type}(id: ID!): {star_type}")
    rng.shuffle(types)
    lines = ["# Generated chain-and-hub project."]
    for name, fields in types:
        lines.append(f"\ntype {name} {{")
        lines += [f"  {f}: {ft}" for f, ft in fields]
        lines.append("}")
    for root, entries in (("Query", queries), ("Mutation", mutations)):
        rng.shuffle(entries)
        lines.append(f"\ntype {root} {{")
        lines += [f"  {e}" for e in entries]
        lines.append("}")
    schema = "\n".join(lines) + "\n"

    # -- rules
    def rule(name, kind, nodes, edges, bindings, actor=None, setup_only=False):
        doc = {
            "name": name,
            "kind": kind,
            "nodes": [{"id": n, "type": t, "tag": g} for n, t, g in nodes],
            "edges": [
                {"id": e, "type": t, "src": a, "tgt": b, "tag": g}
                for e, t, a, b, g in edges
            ],
            "call": {
                "operation": name,
                "bindings": bindings,
                "document_template": "",
            },
        }
        if actor:
            doc["actor"] = actor
        if setup_only:
            doc["setup_only"] = True
        return doc

    rules = [
        rule(f"create{user}", "mutation", [("u", user, "create")], [], {},
             actor="u", setup_only=True),
        rule(f"get{user}", "query", [("u", user, "preserve")], [], {"id": "u"}),
    ]
    for i, t in enumerate(chain_types):
        parent = user if i == 0 else chain_types[i - 1]
        edge_type = f"{t}.parent"

        def shape(tag):
            return (
                [("c", t, tag), ("p", parent, "preserve")],
                [("e", edge_type, "c", "p", tag)],
            )

        nodes, edges = shape("create")
        if i == 0:
            rules.append(rule(f"create{t}", "mutation", nodes, edges, {}, actor="p"))
        else:
            rules.append(rule(f"create{t}", "mutation", nodes, edges, {"parent": "p"}))
        nodes, edges = shape("preserve")
        rules.append(rule(f"get{t}", "query", nodes, edges, {"id": "c"}))
        rules.append(rule(f"update{t}", "mutation", nodes, edges, {"id": "c"}))
        nodes, edges = shape("delete")
        rules.append(rule(f"delete{t}", "mutation", nodes, edges, {"id": "c"}))
    if hub:
        targets = [(f"t{i}", chain_types[i - 1]) for i in range(1, hub + 1)]

        def hub_shape(tag):
            return (
                [("h", hub_type, tag)] + [(n, t, "preserve") for n, t in targets],
                [(f"r{n}", f"{hub_type}.ref{n[1:]}", "h", n, tag) for n, _ in targets],
            )

        nodes, edges = hub_shape("create")
        rules.append(rule(f"create{hub_type}", "mutation", nodes, edges,
                          {f"ref{n[1:]}": n for n, _ in targets}))
        nodes, edges = hub_shape("preserve")
        rules.append(rule(f"get{hub_type}", "query", nodes, edges, {"id": "h"}))
    if star:
        def star_shape(tag):
            return (
                [("s", star_type, tag), ("p", chain_types[0], "preserve")],
                [(f"a{i}", f"{star_type}.to{i}", "s", "p", tag) for i in range(1, star + 1)],
            )

        nodes, edges = star_shape("create")
        rules.append(rule(f"create{star_type}", "mutation", nodes, edges, {"parent": "p"}))
        nodes, edges = star_shape("preserve")
        rules.append(rule(f"get{star_type}", "query", nodes, edges, {"id": "s"}))
    rng.shuffle(rules)

    # -- roles, policy, taint
    roles = {
        "roles": [admin, member, guest],
        "order": [[guest, member], [member, admin]],
        "principals": {
            admin: "GRAPHBAC_TOKEN_ADMIN",
            member: "GRAPHBAC_TOKEN_MEMBER",
            guest: "GRAPHBAC_TOKEN_GUEST",
        },
    }
    everyone, writers, owners = [admin, guest, member], [admin, member], [admin]
    allowed = {f"create{user}": everyone, f"get{user}": everyone}
    for t in chain_types:
        allowed.update({
            f"create{t}": writers, f"get{t}": writers,
            f"update{t}": writers, f"delete{t}": owners,
        })
    if hub:
        allowed.update({f"create{hub_type}": writers, f"get{hub_type}": writers})
    if star:
        allowed.update({f"create{star_type}": writers, f"get{star_type}": writers})
    policy = {"rules": {r: {"allowed": sorted(a)} for r, a in allowed.items()}}
    taint = {"tainted_types": sorted(
        chain_types + [hub_type] * bool(hub) + [star_type] * bool(star)
    )}

    # -- ledger: the produce-use reasons of this shape.  A chain node the hub
    # attaches to gives one reason, plus a second whose span also holds the
    # node's parent when the hub attaches to that parent as well.
    pairs = []
    for i, t in enumerate(chain_types):
        pairs += [(f"create{t}", f"{op}{t}", 1) for op in ("get", "update", "delete")]
        if i + 1 < chain:
            pairs.append((f"create{t}", f"create{chain_types[i + 1]}", 1))
        if i < hub:
            pairs.append((f"create{t}", f"create{hub_type}", 2 if i else 1))
    if hub:
        pairs.append((f"create{hub_type}", f"get{hub_type}", 1))
    if star:
        pairs.append((f"create{chain_types[0]}", f"create{star_type}", 1))
        pairs.append((f"create{star_type}", f"get{star_type}", 1))
    ledger = [
        {
            "reason_id": f"{a}->{b}#{k}",
            "status": "unsecured" if b.startswith("delete") else "secured",
            "rationale": "generated review",
            "policy_stable_under_shift": True,
        }
        for a, b, count in sorted(pairs)
        for k in range(count)
    ]

    def dump(doc) -> str:
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"

    return {
        "schema.graphql": schema,
        "rules.json": json.dumps({"rules": rules}, indent=2) + "\n",
        "roles.json": dump(roles),
        "policy.json": dump(policy),
        "taint.json": dump(taint),
        "ledger.json": dump(ledger),
    }


def write_project(files: dict[str, str], root: Path) -> None:
    root.mkdir(parents=True, exist_ok=True)
    for name, text in files.items():
        (root / name).write_text(text)


# ---------------------------------------------------------------------------
# symmetric rule systems for the oracle workload


def symmetric_system(seed: int, same_type: bool) -> dict:
    """A two-rule system whose reachable hosts hold interchangeable nodes.

    Each rule creates one isolated node and nothing else.  With `same_type`
    both rules create the same node type, so every host is a set of
    identical nodes; otherwise they create two different types.  Either way
    every host is all symmetry, which is the case that makes isomorphism by
    individualisation search every permutation of a colour class.  The seed
    draws the type names, the node ids and extra edge types the rules never
    touch, none of which changes the number or size of the hosts.

    Returns a type graph document, a rules document and an (empty) initial
    graph document.
    """
    rng = random.Random(f"symmetric:{seed}:{same_type}")
    s = salt_for(seed)
    types = [f"{s}N{i}" for i in range(3)]
    rng.shuffle(types)
    first, second = types[:2]
    if same_type:
        second = first
    edge_types = [
        {"name": f"{s}E{j}", "src": rng.choice(types), "tgt": rng.choice(types)}
        for j in range(rng.randint(0, 3))
    ]
    rules = []
    for name, node_type in ((f"{s}r0", first), (f"{s}r1", second)):
        node = f"{name}_{rng.choice('abcdefgh')}"
        rules.append({
            "name": name,
            "kind": "mutation",
            "nodes": [{"id": node, "type": node_type, "tag": "create"}],
            "edges": [],
        })
    rng.shuffle(rules)
    return {
        "typegraph": {
            "node_types": [{"name": t, "attributes": {}} for t in sorted(types)],
            "edge_types": edge_types,
        },
        "rules": {"rules": rules},
        "initial": {"nodes": [], "edges": []},
    }
