"""In-memory Graph API target executing a rule set under a role-based policy.

The server speaks the same wire convention as the runner: one operation per
request, dispatched by ``operationName`` with variables bound per the rule's
call spec.  Access control is evaluated before anything touches the state;
a denied or failed request leaves the instance graph untouched.  Fault
injection (dropping a rule's check, over-restricting a role) exists so the
dynamic analysis has something real to detect.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass
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
        return cls(kind=doc["kind"], rule=doc["rule"], role=doc.get("role"))


@dataclass(frozen=True)
class TokenEntry:
    role: str
    scheme: str = "bearer"


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
        self.graph = self._initial
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
        if scheme.lower() != entry.scheme:
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


class _Handler(BaseHTTPRequestHandler):
    target: MockTarget  # set by serve()

    def do_POST(self) -> None:  # noqa: N802  (http.server naming)
        try:
            length = int(self.headers.get("Content-Length", "0"))
            body = json.loads(self.rfile.read(length) or b"{}")
            if not isinstance(body, dict):
                raise ValueError("body must be a JSON object")
        except (ValueError, json.JSONDecodeError) as exc:
            self._respond(400, _error(BAD_REQUEST, f"malformed request: {exc}"))
            return
        response = self.target.execute(self.headers.get("Authorization"), body)
        self._respond(200, response)

    def _respond(self, status: int, payload: dict) -> None:
        raw = json.dumps(payload).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(raw)))
        self.end_headers()
        self.wfile.write(raw)

    def log_message(self, fmt: str, *args) -> None:  # quiet by default
        pass


def serve(target: MockTarget, port: int = 0) -> ThreadingHTTPServer:
    """Bind an HTTP server for the target; the caller drives serve_forever."""
    handler = type("BoundHandler", (_Handler,), {"target": target})
    return ThreadingHTTPServer(("127.0.0.1", port), handler)


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
                role=entry["role"], scheme=entry.get("scheme", "bearer")
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
