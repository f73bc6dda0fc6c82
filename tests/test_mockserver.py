"""Mock target: auth, policy decisions, fault injection, state discipline."""

from __future__ import annotations

import gc
import json
import random
import socket
import struct
import threading
import urllib.request
import weakref
from pathlib import Path

import pytest
from fixtures import (
    collab_policy,
    collab_roles,
    collab_rules,
    collab_typegraph,
    policy_to_doc,
)

import graphbac.core
from graphbac.core import GraphError, InstanceGraph, enumerate_matches
from graphbac.mockserver import (
    BAD_REQUEST,
    FORBIDDEN,
    NOT_FOUND,
    UNAUTHENTICATED,
    FaultInjection,
    MockTarget,
    TokenEntry,
    _error,
    start_in_background,
    target_from_doc,
)
from graphbac.planner import PolicyAnnotation, RoleSpec
from graphbac.rules import CREATE, NotApplicableError, apply, rules_from_doc
from graphbac.schema import parse_sdl, to_type_graph

TOKENS = {
    "tok-owner": TokenEntry("Owner"),
    "tok-collab": TokenEntry("Collaborator"),
    "tok-nope": TokenEntry("NoPe-Collaborator"),
}


def make_target(faults=(), policies=None, tokens=None) -> MockTarget:
    return MockTarget(
        rules=collab_rules().values(),
        roles=collab_roles(),
        policies=policies or {"bearer": collab_policy()},
        tokens=dict(tokens or TOKENS),
        faults=faults,
        initial=InstanceGraph.empty(collab_typegraph()),
    )


def call(target, token, op, variables=None, scheme="bearer"):
    return target.execute(
        f"{scheme} {token}", {"operationName": op, "variables": variables or {}}
    )


def code_of(response) -> str:
    return response["errors"][0]["extensions"]["code"]


def seed_issue(target) -> tuple[str, str]:
    call(target, "tok-owner", "createUser")
    repo = call(target, "tok-owner", "createRepo")["data"]["createRepo"]["r"]
    issue = call(target, "tok-owner", "createIssue", {"repo": repo})
    return repo, issue["data"]["createIssue"]["i"]


def test_create_repo_extends_graph():
    target = make_target()
    user = call(target, "tok-owner", "createUser")["data"]["createUser"]["u"]
    data = call(target, "tok-owner", "createRepo")["data"]["createRepo"]
    assert data["u"] == user
    repo = data["r"]
    assert target.graph.nodes[repo] == "Repository"
    edge_types = sorted(e.type for e in target.graph.edges.values())
    assert edge_types == ["Repository.owner", "User.repos"]


def test_denied_call_leaves_state_byte_identical():
    target = make_target()
    _, issue = seed_issue(target)
    before = target.snapshot()
    response = call(target, "tok-nope", "updateIssue", {"issue": issue})
    assert code_of(response) == FORBIDDEN
    assert response["data"] is None
    assert target.snapshot() == before


def test_authentication_failures():
    target = make_target()
    body = {"operationName": "createUser", "variables": {}}
    assert code_of(target.execute(None, body)) == UNAUTHENTICATED
    assert code_of(target.execute("bearer no-such-token", body)) == UNAUTHENTICATED
    assert code_of(target.execute("fine-grained tok-owner", body)) == UNAUTHENTICATED


def test_malformed_requests():
    target = make_target()
    assert code_of(call(target, "tok-owner", "launchMissiles")) == BAD_REQUEST
    assert code_of(target.execute("bearer tok-owner", {})) == BAD_REQUEST
    call(target, "tok-owner", "createUser")
    assert code_of(call(target, "tok-owner", "getUser")) == BAD_REQUEST  # no variable


def test_missing_resources_not_found():
    target = make_target()
    response = call(target, "tok-owner", "createRepo")
    assert code_of(response) == NOT_FOUND  # the caller has no principal node yet
    call(target, "tok-owner", "createUser")
    response = call(target, "tok-owner", "getUser", {"user": "ghost"})
    assert code_of(response) == NOT_FOUND


def test_drop_check_lets_a_denied_call_through():
    target = make_target(faults=(FaultInjection("drop_check", "updateIssue"),))
    _, issue = seed_issue(target)
    response = call(target, "tok-nope", "updateIssue", {"issue": issue})
    assert response.get("errors") is None
    assert response["data"]["updateIssue"]["i"] == issue


def test_over_restrict_denies_an_allowed_call():
    target = make_target(
        faults=(FaultInjection("over_restrict", "createRepo", "Owner"),)
    )
    call(target, "tok-owner", "createUser")
    assert code_of(call(target, "tok-owner", "createRepo")) == FORBIDDEN


def test_fault_validation():
    with pytest.raises(GraphError, match="unknown fault kind"):
        FaultInjection("weaken", "updateIssue")
    with pytest.raises(GraphError, match="needs a role"):
        FaultInjection("over_restrict", "updateIssue")
    with pytest.raises(GraphError, match="unknown rule"):
        make_target(faults=(FaultInjection("drop_check", "launchMissiles"),))


def test_creator_only_restricts_to_the_creating_token():
    policy = PolicyAnnotation(
        allowed=collab_policy().allowed, creator_only=("updateIssue",)
    )
    target = make_target(policies={"bearer": policy})
    call(target, "tok-collab", "createUser")
    repo = call(target, "tok-collab", "createRepo")["data"]["createRepo"]["r"]
    issue = call(target, "tok-collab", "createIssue", {"repo": repo})
    issue_id = issue["data"]["createIssue"]["i"]
    own = call(target, "tok-collab", "updateIssue", {"issue": issue_id})
    assert own.get("errors") is None
    call(target, "tok-owner", "createUser")
    other = call(target, "tok-owner", "updateIssue", {"issue": issue_id})
    assert code_of(other) == FORBIDDEN


def test_allowed_transitions_match_the_engine():
    target = make_target()
    rules = collab_rules()
    call(target, "tok-owner", "createUser")
    repo = call(target, "tok-owner", "createRepo")["data"]["createRepo"]["r"]
    call(target, "tok-owner", "createIssue", {"repo": repo})

    host = InstanceGraph(collab_typegraph(), {}, {})
    for name, constraints in (
        ("createUser", {}),
        ("createRepo", {"u": "u~1"}),
        ("createIssue", {"r": "r~1"}),
    ):
        rule = rules[name]
        match = next(
            m
            for m in enumerate_matches(rule.lhs, host)
            if all(m.node_map[n] == v for n, v in constraints.items())
        )
        host = apply(rule, host, match).result
    assert target.graph == host


def test_reset_restores_the_initial_state():
    target = make_target()
    seed_issue(target)
    assert target.graph.nodes
    response = call(target, "tok-owner", "__reset")
    assert response["data"]["__reset"] is True
    assert target.graph == InstanceGraph(collab_typegraph(), {}, {})
    assert target.creators == {} and target.identities == {}


def test_scheme_specific_policy_tables():
    restrictive = PolicyAnnotation(
        allowed={**collab_policy().allowed, "getProject": ("Owner",)}
    )
    tokens = dict(TOKENS)
    tokens["tok-fine"] = TokenEntry("Collaborator", "fine-grained")
    target = make_target(
        policies={"bearer": restrictive, "fine-grained": collab_policy()},
        tokens=tokens,
    )
    call(target, "tok-owner", "createUser")
    project = call(target, "tok-owner", "createProject")["data"]["createProject"]["p"]
    via_bearer = call(target, "tok-collab", "getProject", {"project": project})
    assert code_of(via_bearer) == FORBIDDEN
    via_fine = call(
        target, "tok-fine", "getProject", {"project": project}, scheme="fine-grained"
    )
    assert via_fine.get("errors") is None
    assert via_fine["data"]["getProject"]["p"] == project


def test_token_validation():
    with pytest.raises(GraphError, match="unknown role"):
        make_target(tokens={"t": TokenEntry("Admin")})
    with pytest.raises(GraphError, match="no policy table"):
        make_target(tokens={"t": TokenEntry("Owner", "fine-grained")})


def test_config_document_round_trip():
    doc = {
        "tokens": {
            "tok-owner": {"role": "Owner"},
            "tok-fine": {"role": "Collaborator", "scheme": "fine-grained"},
        },
        "policies": {
            "bearer": policy_to_doc(collab_policy()),
            "fine-grained": policy_to_doc(collab_policy()),
        },
        "faults": [{"kind": "drop_check", "rule": "updateIssue"}],
    }
    empty = InstanceGraph.empty(collab_typegraph())
    target = target_from_doc(
        json.loads(json.dumps(doc)), collab_rules().values(), collab_roles(), empty
    )
    assert target.tokens["tok-fine"].scheme == "fine-grained"
    assert target.faults == (FaultInjection("drop_check", "updateIssue"),)
    with pytest.raises(GraphError, match="malformed mock config"):
        target_from_doc({"tokens": {}}, collab_rules().values(), collab_roles(), empty)


def test_a_token_scheme_matches_whatever_its_case():
    doc = {
        "tokens": {"tok-owner": {"role": "Owner", "scheme": "Bearer"}},
        "policies": {"Bearer": policy_to_doc(collab_policy())},
    }
    empty = InstanceGraph.empty(collab_typegraph())
    target = target_from_doc(doc, collab_rules().values(), collab_roles(), empty)
    for scheme in ("Bearer", "bearer", "BEARER"):
        response = call(target, "tok-owner", "createUser", scheme=scheme)
        assert response.get("errors") is None, (scheme, response)
    response = call(target, "tok-owner", "createUser", scheme="Basic")
    assert code_of(response) == UNAUTHENTICATED


def test_the_states_the_mock_has_left_are_collected(monkeypatch):
    # a state derived from another holds it only until it is first
    # matched, so the mock keeps its current state and at most that
    # state's parent, besides the initial state it resets to
    monkeypatch.setattr(graphbac.core, "_PATCH_FROM", 0)  # small states too
    target = make_target()
    states = []

    def request(op, variables=None):
        response = call(target, "tok-owner", op, variables)
        assert response.get("errors") is None, response
        states.append(weakref.ref(target.graph))
        return response["data"][op]

    request("createUser")
    repo = request("createRepo")["r"]
    for _ in range(3):
        issue = request("createIssue", {"repo": repo})["i"]
        request("updateIssue", {"issue": issue})
    request("deleteIssue", {"issue": issue})
    request("createProject")
    gc.collect()
    assert [state() for state in states[:-2]] == [None] * (len(states) - 2)
    assert states[-1]() is target.graph


def test_http_round_trip():
    target = make_target()
    server, thread = start_in_background(target)
    try:
        port = server.server_address[1]
        url = f"http://127.0.0.1:{port}/graphql"

        def post(body: bytes, token: str | None = "tok-owner"):
            request = urllib.request.Request(
                url, data=body, headers={"Content-Type": "application/json"}
            )
            if token is not None:
                request.add_header("Authorization", f"bearer {token}")
            try:
                with urllib.request.urlopen(request, timeout=5) as resp:
                    return resp.status, json.loads(resp.read())
            except urllib.error.HTTPError as exc:
                return exc.code, json.loads(exc.read())

        body = json.dumps({"operationName": "createUser", "variables": {}}).encode()
        status, payload = post(body)
        assert status == 200
        assert payload["data"]["createUser"]["u"] == "u~1"
        status, payload = post(b"this is not json")
        assert status == 400
        assert code_of(payload) == BAD_REQUEST
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


def served(target) -> tuple[object, threading.Semaphore]:
    """A running server for the target, and a semaphore released each time
    the server is done with a connection (after any error report)."""
    server, _thread = start_in_background(target)
    done = threading.Semaphore(0)
    shutdown_request = server.shutdown_request

    def finished(request):
        shutdown_request(request)
        done.release()

    server.shutdown_request = finished
    return server, done


def exchange(server, data: bytes, *, reset: bool = False) -> bytes:
    """Send raw bytes and read until the mock closes the connection, or,
    with `reset`, until one response is in and then reset the connection."""
    received = b""
    with socket.create_connection(server.server_address, timeout=3) as sock:
        sock.sendall(data)
        while not reset or b'"data"' not in received:
            try:
                chunk = sock.recv(65536)
            except ConnectionResetError:  # after bytes the mock did not read
                break
            if not chunk:
                break
            received += chunk
        if reset:  # a zero linger time: close sends RST, not FIN
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
    return received


def post(body: bytes, headers: str = "") -> bytes:
    return (
        f"POST /graphql HTTP/1.1\r\nHost: mock\r\n"
        f"Authorization: bearer tok-owner\r\n{headers}\r\n"
    ).encode() + body


CREATE_USER = json.dumps({"operationName": "createUser", "variables": {}}).encode()


def test_keep_alive_serves_requests_in_turn_on_one_connection():
    target = make_target()
    server, _done = served(target)
    try:
        request = post(CREATE_USER, f"Content-Length: {len(CREATE_USER)}\r\n")
        last = post(CREATE_USER, f"Content-Length: {len(CREATE_USER)}\r\nConnection: close\r\n")
        received = exchange(server, request + last)
    finally:
        server.shutdown()
        server.server_close()
    assert received.count(b"HTTP/1.1 200 ") == 2
    assert sorted(target.graph.nodes) == ["u~1", "u~2"]  # both requests ran


@pytest.mark.parametrize(
    "headers, body",
    [
        ("Content-Length: -1\r\n", CREATE_USER),
        ("Content-Length: ten\r\n", CREATE_USER),
        ("Transfer-Encoding: chunked\r\n", b"%x\r\n%s\r\n0\r\n\r\n" % (len(CREATE_USER), CREATE_USER)),
    ],
    ids=["negative-length", "length-not-a-number", "chunked"],
)
def test_a_body_of_unknown_length_is_refused_and_the_connection_closed(headers, body):
    target = make_target()
    server, _done = served(target)
    try:
        received = exchange(server, post(body, headers))  # times out if the mock hangs
    finally:
        server.shutdown()
        server.server_close()
    head, _, payload = received.partition(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.1 400 ")
    assert b"\r\nConnection: close" in head
    assert code_of(json.loads(payload)) == BAD_REQUEST
    assert received.count(b"HTTP/1.1") == 1  # the body was not read as a request
    assert not target.graph.nodes


def test_a_client_that_goes_away_prints_nothing(capsys):
    server, done = served(make_target())
    request = post(CREATE_USER, f"Content-Length: {len(CREATE_USER)}\r\n")
    try:
        # reset while the connection sits idle after a response
        assert b"HTTP/1.1 200 " in exchange(server, request, reset=True)
        assert done.acquire(timeout=5)
        # reset right after sending, before the response
        with socket.create_connection(server.server_address, timeout=3) as sock:
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
            sock.sendall(request)
        assert done.acquire(timeout=5)
    finally:
        server.shutdown()
        server.server_close()
    assert capsys.readouterr().err == ""


def test_a_fault_of_the_mock_is_still_reported(capsys, monkeypatch):
    target = make_target()

    def broken(authorization, body):
        raise RuntimeError("the mock broke")

    monkeypatch.setattr(target, "execute", broken)
    server, done = served(target)
    try:
        request = post(CREATE_USER, f"Content-Length: {len(CREATE_USER)}\r\n")
        assert exchange(server, request) == b""  # no response, then closed
        assert done.acquire(timeout=5)
    finally:
        server.shutdown()
        server.server_close()
    err = capsys.readouterr().err
    assert "Traceback" in err and "RuntimeError: the mock broke" in err


def test_concurrent_requests_are_serialized():
    target = make_target()
    call(target, "tok-owner", "createUser")
    workers = 8
    barrier = threading.Barrier(workers)
    failures: list[dict] = []

    def worker():
        barrier.wait()
        for _ in range(5):
            response = call(target, "tok-owner", "createProject")
            if response.get("errors"):
                failures.append(response)

    threads = [threading.Thread(target=worker) for _ in range(workers)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not failures
    projects = [n for n, t in target.graph.nodes.items() if t == "Project"]
    assert len(projects) == workers * 5
    assert len(target.graph.edges) == workers * 5  # one containment edge each


# ---- the running example ------------------------------------------------

RUNNING_EXAMPLE = Path(__file__).resolve().parent.parent / "projects" / "running-example"


def running_example_target(
    cls=MockTarget, creator_only=(), faults=(), bind_created=False
) -> MockTarget:
    """The running-example mock; `bind_created` also binds createIssue's
    created issue to a variable, which no request can satisfy."""
    typegraph = to_type_graph(parse_sdl((RUNNING_EXAMPLE / "schema.graphql").read_text()))
    rules_doc = json.loads((RUNNING_EXAMPLE / "rules.json").read_text())
    if bind_created:
        for rule in rules_doc["rules"]:
            if rule["name"] == "createIssue":
                rule["call"]["bindings"]["issue"] = "i"
    doc = json.loads((RUNNING_EXAMPLE / "mock.json").read_text())
    for name in creator_only:
        doc["policies"]["bearer"]["rules"][name]["creator_only"] = True
    return cls(
        rules=rules_from_doc(rules_doc, typegraph),
        roles=RoleSpec.from_doc(json.loads((RUNNING_EXAMPLE / "roles.json").read_text())),
        policies={s: PolicyAnnotation.from_doc(p) for s, p in doc["policies"].items()},
        tokens={t: TokenEntry(**entry) for t, entry in doc["tokens"].items()},
        faults=faults,
        initial=InstanceGraph.empty(typegraph),
    )


def seed_running_example(target) -> str:
    """The id of a repository the owner created."""
    call(target, "owner-token", "createUser")
    return call(target, "owner-token", "createRepo")["data"]["createRepo"]["r"]


NOT_AN_ID = (["x"], {"id": "x"}, 5, 1.5, True)


@pytest.mark.parametrize("value", NOT_AN_ID, ids=repr)
def test_creator_only_refuses_a_variable_that_is_not_an_id(value):
    target = running_example_target(creator_only=("updateIssue",))
    repo = seed_running_example(target)
    call(target, "owner-token", "createIssue", {"repo": repo})
    response = call(target, "owner-token", "updateIssue", {"issue": value})
    assert code_of(response) == FORBIDDEN


def test_bindings_no_resource_satisfies_are_not_found():
    target = running_example_target()
    repo = seed_running_example(target)
    call(target, "owner-token", "createIssue", {"repo": repo})
    before = target.snapshot()
    for value in (*NOT_AN_ID, "ghost", repo):  # repo: an id of another type
        response = call(target, "owner-token", "updateIssue", {"issue": value})
        assert code_of(response) == NOT_FOUND, value
    assert target.snapshot() == before
    # a binding of createIssue's created node, outside its pattern
    target = running_example_target(bind_created=True)
    repo = seed_running_example(target)
    before = target.snapshot()
    response = call(target, "owner-token", "createIssue", {"repo": repo, "issue": repo})
    assert code_of(response) == NOT_FOUND
    assert target.snapshot() == before


class SortThenFilterTarget(MockTarget):
    """The reference: every match of the pattern in the whole state, sorted,
    then filtered by the bindings."""

    def _transition(self, rule, token, variables):
        constraints = {}
        if rule.call is not None:
            for var, node in rule.call.bindings.items():
                value = variables.get(var)
                if value is None:
                    return _error(BAD_REQUEST, f"missing variable {var}")
                constraints[node] = value
        if (
            rule.actor is not None
            and rule.tags[rule.actor] != CREATE
            and rule.actor not in constraints
        ):
            principal = self.identities.get(token)
            if principal is None:
                return _error(NOT_FOUND, "the calling principal has no resource yet")
            constraints[rule.actor] = principal
        matches = [
            m
            for m in enumerate_matches(rule.lhs, self.graph)
            if all(m.node_map.get(n) == v for n, v in constraints.items())
        ]
        if not matches:
            return _error(NOT_FOUND, f"no resource satisfies the bindings of {rule.name}")
        try:
            t = apply(rule, self.graph, matches[0])
        except NotApplicableError as exc:
            return _error(NOT_FOUND, f"cannot apply {rule.name}: {exc}")
        self.graph = t.result
        for node in rule.created_nodes():
            self.creators[t.comatch.node_map[node]] = token
        if rule.actor is not None and rule.tags[rule.actor] == CREATE:
            self.identities[token] = t.comatch.node_map[rule.actor]
        payload = {
            node: t.comatch.node_map.get(node, t.match.node_map.get(node))
            for node in rule.nodes
        }
        return {"data": {rule.operation(): payload}}


@pytest.mark.parametrize("seed", range(12))
def test_anchored_transitions_equal_sort_then_filter(seed):
    rng = random.Random(seed)
    options = {
        "creator_only": ("updateIssue", "deleteIssue") if seed % 3 == 1 else (),
        "faults": (FaultInjection("drop_check", "updateIssue"),) if seed % 3 == 2 else (),
        "bind_created": seed % 2 == 1,
    }
    target = running_example_target(**options)
    reference = running_example_target(SortThenFilterTarget, **options)
    operations = sorted(target.rules) + ["__reset"]
    tokens = ("owner-token", "collab-token", "nope-token")
    for step in range(120):
        op = rng.choice(operations if step % 40 else ["__reset"])
        variables = {}
        rule = target.rules.get(op)
        for var, node in sorted(rule.call.bindings.items()) if rule and rule.call else ():
            nodes = target.graph.nodes
            typed = sorted(n for n, t in nodes.items() if t == rule.nodes[node])
            choice = rng.random()
            if choice < 0.6 and typed:
                variables[var] = rng.choice(typed)
            elif choice < 0.8 and nodes:
                variables[var] = rng.choice(sorted(nodes))
            elif choice < 0.95:
                variables[var] = rng.choice(NOT_AN_ID + ("ghost",))
        token = rng.choice(tokens)
        got = call(target, token, op, variables)
        want = call(reference, token, op, variables)
        assert got == want, (step, op, variables)
        assert target.snapshot() == reference.snapshot(), (step, op)
