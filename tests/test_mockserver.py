"""Mock target: auth, policy decisions, fault injection, state discipline."""

from __future__ import annotations

import email.utils
import gc
import http.client
import http.server
import io
import json
import random
import re
import socket
import struct
import threading
import time
import urllib.request
import weakref
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from fixtures import (
    collab_policy,
    collab_roles,
    collab_rules,
    collab_typegraph,
    policy_to_doc,
)

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
    _read_fields,
    _Refusal,
    serve,
    start_in_background,
    target_from_doc,
)
from graphbac.cli import Project
from graphbac.planner import PolicyAnnotation, RoleSpec
from graphbac.rules import CREATE, NotApplicableError, apply, rules_from_doc
from graphbac.runner import RunnerConfig, run_plan
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


def test_the_states_the_mock_has_left_are_collected():
    # no state holds the one it was stepped from, so the mock keeps only
    # its current state, besides the initial state it resets to
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
    assert [state() for state in states[:-1]] == [None] * (len(states) - 1)
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


def test_the_date_header_is_the_time_of_the_response():
    target = make_target()
    server, _done = served(target)
    try:
        request = post(CREATE_USER, f"Content-Length: {len(CREATE_USER)}\r\n")
        last = post(CREATE_USER, f"Content-Length: {len(CREATE_USER)}\r\nConnection: close\r\n")
        sent = time.time()
        received = exchange(server, request + last)
        done = time.time()
    finally:
        server.shutdown()
        server.server_close()
    dates = re.findall(rb"\r\nDate: ([^\r]*)\r\n", received)
    assert len(dates) == 2
    for date in dates:
        # HTTP's IMF-fixdate (RFC 9110, 5.6.7), as `http.server` writes it
        assert re.fullmatch(rb"[A-Z][a-z]{2}, \d\d [A-Z][a-z]{2} \d{4} \d\d:\d\d:\d\d GMT", date)
        when = email.utils.parsedate_to_datetime(date.decode()).timestamp()
        assert int(sent) <= when <= done  # the header holds whole seconds


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


def test_a_body_nested_too_deeply_gets_a_400_and_the_connection_serves_on(capsys):
    # json.loads raises RecursionError, not ValueError, on such a body
    deep = b"[" * 200_000 + b"]" * 200_000
    target = make_target()
    server, done = served(target)
    try:
        request = post(deep, f"Content-Length: {len(deep)}\r\n")
        last = post(CREATE_USER, f"Content-Length: {len(CREATE_USER)}\r\nConnection: close\r\n")
        received = exchange(server, request + last)
        assert done.acquire(timeout=5)
    finally:
        server.shutdown()
        server.server_close()
    refused, _, served_next = received.partition(b"HTTP/1.1 200 ")
    head, _, payload = refused.partition(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.1 400 ")
    assert code_of(json.loads(payload)) == BAD_REQUEST
    assert b"malformed request" in payload
    assert served_next and sorted(target.graph.nodes) == ["u~1"]
    assert capsys.readouterr().err == ""


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


def responses_in(received: bytes) -> list[int]:
    """The status codes of the responses at the head of `received`, each
    read to the end of its body by its Content-Length."""
    statuses = []
    while received.startswith(b"HTTP/1.1 "):
        head, _, rest = received.partition(b"\r\n\r\n")
        statuses.append(int(head[9:12]))
        length = re.search(rb"\r\nContent-Length: (\d+)", head)
        received = rest[int(length[1]) if length else 0 :]
    return statuses


@pytest.fixture(scope="module")
def both():
    """The mock as `serve` serves it, then the same but for `http.server`'s
    own `parse_request`, each on its own target; `exchange_with` resets it."""
    pairs = []
    for own_reader in (True, False):
        target = make_target()
        server = serve(target)
        if not own_reader:
            server.RequestHandlerClass = type(
                "StdlibParsed",
                (server.RequestHandlerClass,),
                {"parse_request": http.server.BaseHTTPRequestHandler.parse_request},
            )
        threading.Thread(target=server.serve_forever, daemon=True).start()
        pairs.append((target, server))
    yield pairs
    for _, server in pairs:
        server.shutdown()
        server.server_close()


def exchange_with(pair, data: bytes) -> bytes:
    target, server = pair
    target.reset()
    return re.sub(rb"\r\nDate: [^\r]*", b"\r\nDate: -", exchange(server, data))


LAST = post(CREATE_USER, f"Content-Length: {len(CREATE_USER)}\r\nConnection: close\r\n")


def fields(count: int) -> str:
    """`count` header lines, with the Host, Authorization and Content-Length
    lines of `post`."""
    return "".join(f"X-Field-{i}: {i}\r\n" for i in range(count - 3))


def request_line(line: str, headers: str = "") -> bytes:
    return (
        f"{line}\r\nHost: mock\r\nAuthorization: bearer tok-owner\r\n"
        f"Content-Length: {len(CREATE_USER)}\r\n{headers}\r\n"
    ).encode() + CREATE_USER


SAME_AS_HTTP_SERVER = {
    "lower-case-names": (
        f"POST /graphql HTTP/1.1\r\nhost: mock\r\nauthorization: bearer tok-owner\r\n"
        f"content-length: {len(CREATE_USER)}\r\n\r\n"
    ).encode() + CREATE_USER,
    "http-1.0-closes": request_line("POST /graphql HTTP/1.0"),
    "http-1.0-keep-alive": request_line("POST /graphql HTTP/1.0", "Connection: keep-alive\r\n"),
    "close": request_line("POST /graphql HTTP/1.1", "connection: CLOSE\r\n"),
    "expect-100": request_line("POST /graphql HTTP/1.1", "Expect: 100-Continue\r\n"),
    "http-1.2": request_line("POST /graphql HTTP/1.2"),
    "leading-zeros": request_line("POST /graphql HTTP/01.01"),
    "trailing-blanks": request_line("POST /graphql HTTP/1.1 \t "),
    "four-words": request_line("POST /a b HTTP/1.1"),
    "blank": request_line("   "),
    "get": request_line("GET /graphql HTTP/1.1"),
    "99-fields": request_line("POST /graphql HTTP/1.1", fields(99)),  # 100 lines with the blank
    "100-fields": request_line("POST /graphql HTTP/1.1", fields(100)),
    "longest-line": request_line("POST /graphql HTTP/1.1", f"X-Long: {'a' * 65526}\r\n"),
    "line-too-long": request_line("POST /graphql HTTP/1.1", f"X-Long: {'a' * 65527}\r\n"),
}


@pytest.mark.parametrize("data", SAME_AS_HTTP_SERVER.values(), ids=SAME_AS_HTTP_SERVER)
def test_the_mock_answers_as_it_does_with_http_servers_parser(both, data):
    """Followed by a request that closes the connection, so that keep-alive
    shows as a second response; Date lines masked."""
    mine, stdlib = (exchange_with(pair, data + LAST) for pair in both)
    assert mine == stdlib
    assert both[0][0].snapshot() == both[1][0].snapshot()


@pytest.mark.parametrize(
    "case, statuses",
    [
        ("lower-case-names", [200, 200]),
        ("http-1.0-closes", [200]),
        ("http-1.0-keep-alive", [200, 200]),
        ("close", [200]),
        ("expect-100", [100, 200, 200]),
        ("get", [501]),
        ("99-fields", [200, 200]),
        ("100-fields", [431]),
        ("longest-line", [200, 200]),
        ("line-too-long", [431]),
    ],
)
def test_the_mock_answers_each_request_as_http_1_1_asks(both, case, statuses):
    received = exchange_with(both[0], SAME_AS_HTTP_SERVER[case] + LAST)
    assert responses_in(received) == statuses
    assert len(both[0][0].graph.nodes) == statuses.count(200)


def assert_refused_and_closed(received: bytes, status: int) -> None:
    """One response, with the status and `Connection: close`."""
    assert responses_in(received) == [status]
    assert b"\r\nConnection: close\r\n" in received.partition(b"\r\n\r\n")[0]


# request lines `http.server` answers with an HTML page and no status line
REFUSED_REQUEST_LINES = {
    "http-2.0": (request_line("POST /graphql HTTP/2.0"), 505),
    "version-of-one-number": (request_line("POST /graphql HTTP/1"), 400),
    "version-of-three-numbers": (request_line("POST /graphql HTTP/1.1.1"), 400),
    "version-not-a-number": (request_line("POST /graphql HTTP/1.x"), 400),
    "version-lower-case": (request_line("POST /graphql http/1.1"), 400),
    "version-too-long": (request_line("POST /graphql HTTP/12345678901.1"), 400),
    "one-word": (request_line("POST"), 400),
}


@pytest.mark.parametrize(
    "data, status", REFUSED_REQUEST_LINES.values(), ids=REFUSED_REQUEST_LINES
)
def test_a_refused_request_line_gets_an_http_1_1_status_line(both, data, status):
    assert_refused_and_closed(exchange_with(both[0], data + LAST), status)
    assert not both[0][0].graph.nodes


@pytest.mark.parametrize(
    "data, status",
    [
        (request_line("POST /graphql HTTP/0.9"), 505),
        (request_line("POST /graphql"), 400),
        (request_line("GET /graphql"), 400),
    ],
    ids=["http-0.9-version", "http-0.9-post", "http-0.9-get"],
)
def test_a_request_below_http_1_0_is_refused(both, data, status):
    assert_refused_and_closed(exchange_with(both[0], data + LAST), status)
    assert not both[0][0].graph.nodes


@pytest.mark.parametrize(
    "headers",
    [
        f"Content-Length: {len(CREATE_USER)}\r\nContent-Length: {len(CREATE_USER)}\r\n",
        f"Content-Length: {len(CREATE_USER)}\r\ncontent-length: 0\r\n",
        f"Content-Length: {len(CREATE_USER)}\r\nTransfer-Encoding: x\r\nTransfer-Encoding: x\r\n",
        f"Content-Length: {len(CREATE_USER)}\r\nAuthorization: bearer tok-collab\r\n",
        f"Content-Length: {len(CREATE_USER)}\r\nX-No-Colon\r\n",
        f"Content-Length: {len(CREATE_USER)}\r\nX-Folded: a\r\n b\r\n",
        f"Content-Length: {len(CREATE_USER)}\r\nX-Space : a\r\n",
    ],
    ids=["repeated-length", "repeated-length-other-case", "repeated-encoding",
         "repeated-authorization", "no-colon", "folded", "space-before-colon"],
)
def test_a_header_block_the_mock_does_not_read_is_refused_and_the_connection_closed(both, headers):
    target, _server = both[0]
    received = exchange_with(both[0], post(CREATE_USER, headers) + LAST)
    assert responses_in(received) == [400]
    assert b"\r\nConnection: close\r\n" in received.partition(b"\r\n\r\n")[0]
    assert not target.graph.nodes


def test_expect_100_continue_is_answered_before_the_body_is_sent(both):
    target, server = both[0]
    target.reset()
    head = post(b"", f"Content-Length: {len(CREATE_USER)}\r\nExpect: 100-continue\r\n")
    with socket.create_connection(server.server_address, timeout=3) as sock:
        sock.sendall(head)
        assert sock.recv(65536) == b"HTTP/1.1 100 Continue\r\n\r\n"
        sock.sendall(CREATE_USER + LAST)
        received = b""
        while chunk := sock.recv(65536):
            received += chunk
    assert responses_in(received) == [200, 200]
    assert len(target.graph.nodes) == 2


def test_a_request_sent_one_byte_at_a_time_is_served(both):
    target, server = both[0]
    target.reset()
    with socket.create_connection(server.server_address, timeout=3) as sock:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, True)
        for byte in LAST:
            sock.sendall(bytes([byte]))
        received = b""
        while chunk := sock.recv(65536):
            received += chunk
    assert responses_in(received) == [200]
    assert sorted(target.graph.nodes) == ["u~1"]


def test_the_mock_reads_headers_without_the_email_parser(both, monkeypatch):
    def unused(*args, **kwargs):
        raise AssertionError("the mock parsed headers with the email package")

    monkeypatch.setattr(http.client, "parse_headers", unused)
    monkeypatch.setattr("email.parser.Parser.parsestr", unused)
    target, _server = both[0]
    request = post(CREATE_USER, f"Content-Length: {len(CREATE_USER)}\r\n")
    assert responses_in(exchange_with(both[0], request + LAST)) == [200, 200]
    assert len(target.graph.nodes) == 2


# the fields the mock reads; a block that repeats one of them is refused
READ = ("Content-Length", "Authorization", "Connection", "Transfer-Encoding", "Expect")
TCHAR = "!#$%&'*+-.^_`|~0123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"


def _recased(name: str, mask: int) -> str:
    """`name` with the letters whose bit is set in `mask` in upper case."""
    return "".join(c.upper() if mask >> i & 1 else c.lower() for i, c in enumerate(name))


FIELD_NAMES = st.one_of(
    st.builds(_recased, st.sampled_from(READ[:4] + ("Host", "Content-Type")), st.integers(0, 2**17)),
    st.text(TCHAR, min_size=1, max_size=12),
)
# visible characters, obs-text, space and tab, often leading and trailing:
# no CR, LF or other control
BLANKS = st.text(" \t", max_size=2)
FIELD_VALUES = st.builds(
    "".join,
    st.tuples(BLANKS, st.text(" \t" + "".join(map(chr, range(0x21, 0x100))), max_size=12), BLANKS),
)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.tuples(FIELD_NAMES, FIELD_VALUES, st.sampled_from(("\r\n", "\n"))), max_size=8),
    st.sampled_from(("\r\n", "\n")),
)
def test_the_header_reader_agrees_with_http_client(lines, end):
    block = "".join(f"{name}:{value}{eol}" for name, value, eol in lines).encode("latin-1")
    block += end.encode() + b"BODY"
    names = [name.lower() for name, _, _ in lines]
    ours = io.BytesIO(block)
    if any(names.count(name.lower()) > 1 for name in READ):
        with pytest.raises(_Refusal):
            _read_fields(ours)
        return
    got = _read_fields(ours)
    theirs = io.BytesIO(block)
    message = http.client.parse_headers(theirs)
    assert {n: got.get(n.lower()) for n in READ[:4]} == {n: message.get(n) for n in READ[:4]}
    assert ours.read() == theirs.read() == b"BODY"


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


def test_a_query_request_keeps_the_state(monkeypatch):
    """A rule whose every element is tagged preserve answers from its match
    and derives no state; over three replay rounds on a mock that is not
    reset, responses, creators and state equal those of a mock that steps
    every rule."""
    derived = []
    derive = InstanceGraph._derive

    def counting(self, *args):
        derived.append(self)
        return derive(self, *args)

    monkeypatch.setattr(InstanceGraph, "_derive", counting)
    project = Project.load(RUNNING_EXAMPLE)
    plan, rules = project.plan(), project.rules_by_name()
    faults = (FaultInjection("drop_check", "updateIssue"),)
    target = running_example_target(faults=faults)
    reference = running_example_target(SortThenFilterTarget, faults=faults)
    queries = {op for op, rule in target.rules.items() if rule.preserves_all()}
    assert queries == {"getUser", "getProject", "updateRepo", "updateIssue"}

    def recording(mock, log):
        send = mock.transport()

        def transport(request, headers, timeout):
            before = len(derived)
            response = send(request, headers, timeout)
            log.append((request["operationName"], response, len(derived) - before))
            return response

        return transport

    config = RunnerConfig(
        endpoint="in-process",
        tokens={entry.role: token for token, entry in target.tokens.items()},
    )
    for _ in range(3):
        got, want = [], []
        report = run_plan(plan, config, recording(target, got), rules=rules)
        assert report.to_doc() == run_plan(plan, config, recording(reference, want), rules=rules).to_doc()
        assert [(op, response) for op, response, _ in got] == [(op, r) for op, r, _ in want]
        assert target.creators == reference.creators
        assert target.snapshot() == reference.snapshot()
        answered = [n for op, response, n in got if op in queries and not response.get("errors")]
        assert len(answered) >= 5 and answered == [0] * len(answered)
        assert all(n == 1 for op, r, n in got if op not in queries and not r.get("errors"))


def test_twenty_replay_rounds_on_owned_states_equal_the_persistent_path(monkeypatch):
    """The mock steps its state in place (`InstanceGraph._owned`); over 20
    in-process replay rounds on a mock that is not reset, reports, creators,
    identities and state equal those of a mock whose states are plain
    graphs, each step building a new one."""
    project = Project.load(RUNNING_EXAMPLE)
    plan, rules = project.plan(), project.rules_by_name()
    faults = (FaultInjection("drop_check", "updateIssue"),)

    def replay(target) -> list:
        config = RunnerConfig(
            endpoint="in-process",
            tokens={entry.role: token for token, entry in target.tokens.items()},
        )
        send = target.transport()
        return [run_plan(plan, config, send, rules=rules).to_doc() for _ in range(20)]

    owned = running_example_target(faults=faults)
    assert owned.graph.__dict__["_live"]
    owned_reports = replay(owned)
    monkeypatch.setattr(
        InstanceGraph, "_owned", lambda g: InstanceGraph(g.typegraph, g.nodes, g.edges)
    )
    plain = running_example_target(faults=faults)
    assert "_live" not in plain.graph.__dict__
    assert replay(plain) == owned_reports
    assert owned.creators == plain.creators
    assert owned.identities == plain.identities
    assert owned.snapshot() == plain.snapshot()
    assert len(owned.graph.nodes) == 20 * 45
    assert owned_reports[-1]["detected_vulnerabilities"] == [
        "flow-neg:createIssue->updateIssue#0"
    ]


def test_a_state_the_mock_has_left_cannot_be_stepped_again():
    target = make_target()
    call(target, "tok-owner", "createUser")
    left = target.graph
    # a query's step is the state itself, which stays live
    assert call(target, "tok-owner", "getUser", {"user": "u~1"}).get("errors") is None
    assert target.graph is left and left.__dict__["_live"]
    call(target, "tok-owner", "createRepo")
    assert target.graph is not left
    rule = target.rules["createRepo"]
    with pytest.raises(GraphError, match="already stepped from"):
        apply(rule, left, enumerate_matches(rule.lhs, left)[0])
    # a reset starts from a fresh copy of the initial state
    target.reset()
    assert target.graph.nodes == {} and target._initial.nodes == {}
    assert call(target, "tok-owner", "createUser").get("errors") is None
    assert target._initial.nodes == {}
