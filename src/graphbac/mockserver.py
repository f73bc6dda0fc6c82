"""In-memory Graph API target executing a rule set under a role-based policy.

The server speaks the same wire convention as the runner: one operation per
request, dispatched by ``operationName`` with variables bound per the rule's
call spec.  Access control is evaluated before anything touches the state;
a denied or failed request leaves the instance graph untouched.  Fault
injection (dropping a rule's check, over-restricting a role) exists so the
dynamic analysis has something real to detect.
"""

from __future__ import annotations

import email.utils
import json
import re
import sys
import threading
import time
from dataclasses import dataclass
from functools import lru_cache
from http import HTTPStatus
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Iterable

from .core import GraphError, InstanceGraph, first_match, graph_to_doc
from .planner import PolicyAnnotation, RoleSpec
from .rules import CREATE, NotApplicableError, Rule, apply

FORBIDDEN = "FORBIDDEN"
UNAUTHENTICATED = "UNAUTHENTICATED"
NOT_FOUND = "NOT_FOUND"
BAD_REQUEST = "BAD_REQUEST"

DROP_CHECK = "drop_check"
OVER_RESTRICT = "over_restrict"

RESET_OPERATION = "__reset"


@dataclass(frozen=True)
class FaultInjection:
    kind: str  # drop_check | over_restrict
    rule: str
    role: str | None = None

    def __post_init__(self) -> None:
        if self.kind not in (DROP_CHECK, OVER_RESTRICT):
            raise GraphError(f"unknown fault kind {self.kind}")
        if self.kind == OVER_RESTRICT and self.role is None:
            raise GraphError("over_restrict needs a role")

    @classmethod
    def from_doc(cls, doc: dict) -> "FaultInjection":
        role = doc.get("role")
        return cls(
            kind=_text(doc["kind"], "fault kind"),
            rule=_text(doc["rule"], "fault rule"),
            role=None if role is None else _text(role, "fault role"),
        )


@dataclass(frozen=True)
class TokenEntry:
    role: str
    scheme: str = "bearer"


def _text(value: object, what: str) -> str:
    """A mock config value that must be a string: the target looks it up
    in dicts and sets, where a list or an object cannot be a key."""
    if not isinstance(value, str):
        raise GraphError(f"malformed mock config: {what} must be a string, got {value!r}")
    return value


def _error(code: str, message: str) -> dict:
    return {
        "data": None,
        "errors": [{"message": message, "extensions": {"code": code}}],
    }


class MockTarget:
    """The pure request -> response state machine behind the HTTP server."""

    def __init__(
        self,
        rules: Iterable[Rule],
        roles: RoleSpec,
        policies: dict[str, PolicyAnnotation],
        tokens: dict[str, TokenEntry],
        faults: Iterable[FaultInjection] = (),
        *,
        initial: InstanceGraph,
    ) -> None:
        self.rules = {r.operation(): r for r in rules}
        self.roles = roles
        self.policies = dict(policies)
        self.tokens = dict(tokens)
        self.faults = tuple(faults)
        rule_names = {r.name for r in self.rules.values()}
        for scheme, policy in self.policies.items():
            policy.validate_against(roles, rule_names)
        for token, entry in self.tokens.items():
            if entry.role not in roles.roles:
                raise GraphError(f"token for unknown role {entry.role}")
            if entry.scheme not in self.policies:
                raise GraphError(f"token scheme {entry.scheme} has no policy table")
        for fault in self.faults:
            if fault.rule not in rule_names:
                raise GraphError(f"fault references unknown rule {fault.rule}")
            if fault.role is not None and fault.role not in roles.roles:
                raise GraphError(f"fault references unknown role {fault.role}")
        self._initial = initial
        self._lock = threading.Lock()
        self._restart()

    # -- state inspection (used by tests and differential checks)

    def snapshot(self) -> str:
        """Canonical serialization of the current graph, for identity checks."""
        with self._lock:
            return json.dumps(graph_to_doc(self.graph), sort_keys=True)

    def reset(self) -> None:
        with self._lock:
            self._restart()

    def _restart(self) -> None:
        """Back to the initial state; callers other than `__init__` hold the lock."""
        self.graph = self._initial._owned()
        self.creators: dict[str, str] = {}  # node id -> creating token
        self.identities: dict[str, str] = {}  # token -> principal node id

    # -- request handling

    def execute(self, authorization: str | None, body: dict) -> dict:
        operation = body.get("operationName")
        variables = body.get("variables") or {}
        if not isinstance(operation, str):
            return _error(BAD_REQUEST, "request carries no operationName")
        if not isinstance(variables, dict):
            return _error(BAD_REQUEST, "variables must be an object")
        if authorization is None:
            return _error(UNAUTHENTICATED, "missing Authorization header")
        scheme, _, token = authorization.partition(" ")
        entry = self.tokens.get(token)
        if entry is None:
            return _error(UNAUTHENTICATED, "unknown token")
        if scheme.lower() != entry.scheme.lower():  # schemes ignore case (RFC 9110)
            return _error(
                UNAUTHENTICATED,
                f"token must be presented with the {entry.scheme} scheme",
            )
        with self._lock:
            if operation == RESET_OPERATION:
                self._restart()
                return {"data": {RESET_OPERATION: True}}
            rule = self.rules.get(operation)
            if rule is None:
                return _error(BAD_REQUEST, f"unknown operation {operation}")
            policy = self.policies[entry.scheme]
            allowed = self._decide(rule, entry.role, policy, token, variables)
            if not allowed:
                return _error(
                    FORBIDDEN, f"{entry.role} may not call {rule.name}"
                )
            return self._transition(rule, token, variables)

    def _decide(
        self,
        rule: Rule,
        role: str,
        policy: PolicyAnnotation,
        token: str,
        variables: dict,
    ) -> bool:
        if any(
            f.kind == DROP_CHECK and f.rule == rule.name for f in self.faults
        ):
            return True
        allowed = policy.allows(rule.name, role)
        if any(
            f.kind == OVER_RESTRICT and f.rule == rule.name and f.role == role
            for f in self.faults
        ):
            allowed = False
        if allowed and rule.name in policy.creator_only and rule.call is not None:
            for var in rule.call.bindings:
                target = variables.get(var)
                # only a node id can name a resource the caller created
                if not isinstance(target, str) or self.creators.get(target) != token:
                    return False
        return allowed

    def _transition(self, rule: Rule, token: str, variables: dict) -> dict:
        constraints: dict[str, object] = {}
        if rule.call is not None:
            for var, node in rule.call.bindings.items():
                value = variables.get(var)
                if value is None:
                    return _error(BAD_REQUEST, f"missing variable {var}")
                constraints[node] = value
        if (
            rule.actor is not None
            and rule.tags[rule.actor] != CREATE
            and rule.actor not in constraints  # explicit bindings take precedence
        ):
            principal = self.identities.get(token)
            if principal is None:
                return _error(
                    NOT_FOUND, "the calling principal has no resource yet"
                )
            constraints[rule.actor] = principal
        match = first_match(rule.lhs, self.graph, constraints)
        if match is None:
            return _error(
                NOT_FOUND, f"no resource satisfies the bindings of {rule.name}"
            )
        try:
            t = apply(rule, self.graph, match)
        except NotApplicableError as exc:
            return _error(NOT_FOUND, f"cannot apply {rule.name}: {exc}")
        self.graph = t.result
        for node in rule.created_nodes():
            self.creators[t.comatch.node_map[node]] = token
        if rule.actor is not None and rule.tags[rule.actor] == CREATE:
            self.identities[token] = t.comatch.node_map[rule.actor]
        # every rule node appears in the comatch (kept or created) or, when
        # deleted, in the match; the response echoes all of their host ids
        payload = {
            node: t.comatch.node_map.get(node, t.match.node_map.get(node))
            for node in rule.nodes
        }
        return {"data": {rule.operation(): payload}}

    # -- in-process transport for the runner

    def transport(self):
        """A runner-compatible transport that skips the network."""

        def send(request: dict, headers: dict, timeout: float) -> dict:
            return self.execute(headers.get("Authorization"), request)

        return send


# --------------------------------------------------------------------------
# HTTP layer


# A request's header block is read the way `http.client` reads it: lines of
# at most _MAX_LINE bytes, and at most _MAX_LINES of them with the blank
# line that ends the block.  Longer lines or more lines get a 431.
_MAX_LINE = 65536
_MAX_LINES = 100
# a header line is `name: value`, the name being one or more visible
# characters other than ":" (the names `email.parser` accepts)
_FIELD = re.compile(rb"([!-9;-~]+):[ \t]*([^\r\n]*)\r?\n?")
# the fields the mock reads; a repeat is refused, since a proxy in front of
# the mock might have read the other copy
_READ = frozenset(
    ("authorization", "connection", "content-length", "expect", "transfer-encoding")
)


class _Refusal(Exception):
    """A header block the mock does not serve; its args are `send_error`'s."""


def _read_fields(rfile) -> dict[str, str]:
    """The fields of `_READ` in the header block at the head of `rfile`, by
    lower-case name, each value without the whitespace after its colon.

    Reads up to and including the blank line that ends the block, or to
    the end of the stream.  A line too long, too many lines, a line that
    is not `name: value` (an obsolete folded line included) or a repeated
    field of `_READ` raises `_Refusal`.  Other fields are read and dropped.
    """
    fields: dict[str, str] = {}
    for _ in range(_MAX_LINES):
        line = rfile.readline(_MAX_LINE + 1)
        if len(line) > _MAX_LINE:
            raise _Refusal(
                HTTPStatus.REQUEST_HEADER_FIELDS_TOO_LARGE,
                "Line too long",
                f"got more than {_MAX_LINE} bytes when reading header line",
            )
        if line in (b"\r\n", b"\n", b""):
            return fields
        field = _FIELD.fullmatch(line)
        if field is None:
            raise _Refusal(HTTPStatus.BAD_REQUEST, f"Bad header line ({line!r})")
        name = field[1].decode("ascii").lower()
        if name in _READ:
            if name in fields:
                raise _Refusal(HTTPStatus.BAD_REQUEST, f"Repeated {name} field")
            fields[name] = field[2].decode("iso-8859-1")
    raise _Refusal(
        HTTPStatus.REQUEST_HEADER_FIELDS_TOO_LARGE,
        "Too many headers",
        f"got more than {_MAX_LINES} headers",
    )


def _version(word: str) -> tuple[int, int] | None:
    """`HTTP/major.minor` as numbers, on `http.server`'s terms, or None."""
    if not word.startswith("HTTP/"):
        return None
    numbers = word[5:].split(".")
    if len(numbers) != 2 or not all(n.isdecimal() and len(n) <= 10 for n in numbers):
        return None
    return int(numbers[0]), int(numbers[1])


class _Handler(BaseHTTPRequestHandler):
    target: MockTarget  # set by serve()
    # keep-alive: one connection, and one server thread, serve a whole run
    protocol_version = "HTTP/1.1"
    # a response goes out in one send, but `send_error` and `100 Continue`
    # send twice per request; with Nagle's algorithm on, the second send
    # would wait for the client's delayed ACK
    disable_nagle_algorithm = True

    def parse_request(self) -> bool:
        """Check the request line, then read the header block with
        `_read_fields` into `self.headers`.

        `http.server` hands the header block to `email.parser`, which cost
        about two thirds of the mock's time per request.  The request line
        is checked as `http.server` checks it, except that only HTTP/1.x
        is served: a line of fewer than three words (HTTP/0.9) gets a 400,
        and a version below 1.0 a 505, as one of 2.0 or more does.  Each
        refusal gets an HTTP/1.1 status line, where `http.server` sends a
        refused request line only its HTML page.  False once an error
        response is sent, which closes the connection.
        """
        self.command = None
        # `send_error` writes the status line and headers for any version
        # but HTTP/0.9, the default until the line's own version is read
        self.request_version = self.protocol_version
        self.close_connection = True
        self.requestline = str(self.raw_requestline, "iso-8859-1").rstrip("\r\n")
        words = self.requestline.split()
        if not words:
            return False
        if len(words) < 3:
            self.send_error(HTTPStatus.BAD_REQUEST, f"Bad request syntax ({self.requestline!r})")
            return False
        version = _version(words[-1])
        if version is None:
            self.send_error(HTTPStatus.BAD_REQUEST, f"Bad request version ({words[-1]!r})")
            return False
        if not (1, 0) <= version < (2, 0):
            self.send_error(
                HTTPStatus.HTTP_VERSION_NOT_SUPPORTED, f"Invalid HTTP version ({words[-1][5:]})"
            )
            return False
        self.request_version = words[-1]
        self.close_connection = version < (1, 1)
        if len(words) > 3:
            self.send_error(HTTPStatus.BAD_REQUEST, f"Bad request syntax ({self.requestline!r})")
            return False
        self.command, self.path = words[:2]
        try:
            self.headers = _read_fields(self.rfile)
        except _Refusal as refusal:
            self.send_error(*refusal.args)
            return False
        connection = self.headers.get("connection", "").lower()
        if connection == "close":
            self.close_connection = True
        elif connection == "keep-alive":
            self.close_connection = False
        if version >= (1, 1) and self.headers.get("expect", "").lower() == "100-continue":
            return self.handle_expect_100()
        return True

    def do_POST(self) -> None:  # noqa: N802  (http.server naming)
        # a body whose end is unknown ends the connection, or its bytes
        # would be read as the next request
        if "transfer-encoding" in self.headers:
            self._refuse("a request body needs a Content-Length")
            return
        length = self.headers.get("content-length", "0")
        try:
            size = int(length)
        except ValueError:
            size = -1
        if size < 0:
            self._refuse(f"Content-Length {length!r} is not a byte count")
            return
        try:
            body = json.loads(self.rfile.read(size) or b"{}")
            if not isinstance(body, dict):
                raise ValueError("body must be a JSON object")
        except (ValueError, RecursionError) as exc:  # bad JSON or UTF-8, too deep
            self._respond(400, _error(BAD_REQUEST, f"malformed request: {exc}"))
            return
        response = self.target.execute(self.headers.get("authorization"), body)
        self._respond(200, response)

    def _refuse(self, problem: str) -> None:
        self._respond(400, _error(BAD_REQUEST, f"malformed request: {problem}"), close=True)

    def _respond(self, status: int, payload: dict, *, close: bool = False) -> None:
        """Status line, headers and body in one write."""
        raw = json.dumps(payload).encode()
        head = (
            f"{self.protocol_version} {status} {self.responses[status][0]}\r\n"
            f"Server: {self.version_string()}\r\n"
            f"Date: {_http_date(int(time.time()))}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(raw)}\r\n"
        )
        if close:
            head += "Connection: close\r\n"
            self.close_connection = True
        self.wfile.write(head.encode("iso-8859-1") + b"\r\n" + raw)

    def log_message(self, fmt: str, *args) -> None:  # quiet by default
        pass


@lru_cache(maxsize=1)
def _http_date(second: int) -> str:
    """The `Date` header of responses sent in a wall-clock second, as
    `BaseHTTPRequestHandler.date_time_string` gives it: formatted once per
    second, not once per response."""
    return email.utils.formatdate(second, usegmt=True)


class _Server(ThreadingHTTPServer):
    def handle_error(self, request, client_address) -> None:
        # a client that goes away, mid-request or while its connection
        # sits idle, is no fault of the mock's
        if not isinstance(sys.exc_info()[1], ConnectionError):
            super().handle_error(request, client_address)


def serve(target: MockTarget, port: int = 0) -> ThreadingHTTPServer:
    """Bind an HTTP server for the target; the caller drives serve_forever."""
    handler = type("BoundHandler", (_Handler,), {"target": target})
    return _Server(("127.0.0.1", port), handler)


def start_in_background(target: MockTarget, port: int = 0) -> tuple[ThreadingHTTPServer, threading.Thread]:
    server = serve(target, port)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return server, thread


# --------------------------------------------------------------------------
# configuration


def target_from_doc(
    doc: dict,
    rules: Iterable[Rule],
    roles: RoleSpec,
    initial: InstanceGraph,
) -> MockTarget:
    """Build a target from its config document (tokens, policies, faults)."""
    try:
        tokens = {
            token: TokenEntry(
                role=_text(entry["role"], f"token {token!r} role"),
                scheme=_text(entry.get("scheme", "bearer"), f"token {token!r} scheme"),
            )
            for token, entry in doc["tokens"].items()
        }
        policies = {
            scheme: PolicyAnnotation.from_doc(policy_doc)
            for scheme, policy_doc in doc["policies"].items()
        }
        faults = [FaultInjection.from_doc(f) for f in doc.get("faults", [])]
    except (KeyError, TypeError, AttributeError) as exc:
        raise GraphError(f"malformed mock config: {exc}") from exc
    return MockTarget(
        rules=rules,
        roles=roles,
        policies=policies,
        tokens=tokens,
        faults=faults,
        initial=initial,
    )
