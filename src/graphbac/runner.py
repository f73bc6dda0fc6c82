"""Execute a test plan against a Graph API endpoint and classify outcomes.

Tests run sequentially, steps in order, each step authenticated as its role's
principal.  A step's access-denial flag is set when the response's errors
match the configured matcher; anything else that goes wrong (transport
trouble, unresolved bindings, non-access errors) makes the test inconclusive
rather than letting noise masquerade as a security verdict.
"""

from __future__ import annotations

import json
import os
import re
import threading
import urllib.error
import urllib.parse
import urllib.request
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping

from .core import GraphError
from .mockserver import RESET_OPERATION
from .planner import RoleSpec, TaintTest, TestPlan
from .rules import Rule

POSITIVE_SUCCESS = "positive-success"
POSITIVE_FAIL = "positive-fail"
NEGATIVE_SUCCESS = "negative-success"
NEGATIVE_FAIL = "negative-fail"

SUCCESS = "success"
FAIL = "fail"
INCONCLUSIVE = "inconclusive"

# transport: (request body, headers, timeout) -> parsed response document
Transport = Callable[[dict, dict, float], dict]


class RunnerError(GraphError):
    """Plan execution could not even start."""


def classify_outcome(expected_access: bool, observed_bac_exception: bool) -> str:
    if expected_access:
        return POSITIVE_FAIL if observed_bac_exception else POSITIVE_SUCCESS
    return NEGATIVE_SUCCESS if observed_bac_exception else NEGATIVE_FAIL


@dataclass(frozen=True)
class BacMatcher:
    """Decides whether a GraphQL error list denotes an access denial."""

    codes: tuple[str, ...] = ("FORBIDDEN",)
    message_pattern: str | None = None

    def __post_init__(self) -> None:
        if not self.codes and not self.message_pattern:
            raise GraphError("matcher must test error codes or messages")
        if self.message_pattern is not None:
            if not isinstance(self.message_pattern, str):
                raise GraphError("matcher message_pattern must be a string")
            try:
                re.compile(self.message_pattern)
            except re.error as exc:
                raise GraphError(f"matcher message_pattern: {exc}") from exc

    def is_bac(self, errors: Iterable[dict]) -> bool:
        for error in errors:
            code = (error.get("extensions") or {}).get("code")
            if code in self.codes:
                return True
            if self.message_pattern and re.search(
                self.message_pattern, error.get("message", "")
            ):
                return True
        return False

    @classmethod
    def from_doc(cls, doc: object) -> "BacMatcher":
        if not isinstance(doc, dict):
            raise GraphError("matcher must be an object")
        codes = doc.get("codes", [])
        if not isinstance(codes, list) or not all(isinstance(c, str) for c in codes):
            raise GraphError("matcher codes must be a list of strings")
        return cls(codes=tuple(codes), message_pattern=doc.get("message_pattern"))


@dataclass(frozen=True)
class RunnerConfig:
    endpoint: str
    tokens: dict[str, str]  # role -> token
    schemes: dict[str, str] = field(default_factory=dict)  # role -> auth scheme
    matcher: BacMatcher = field(default_factory=BacMatcher)
    timeout: float = 10.0
    cleanup: str = "none"  # none | reset

    def __post_init__(self) -> None:
        if self.cleanup not in ("none", "reset"):
            raise GraphError(f"unknown cleanup mode {self.cleanup}")
        # a JSON number: a bool is an int to Python, and "10" is text; a
        # socket cannot wait longer than TIMEOUT_MAX (about 292 years), and
        # float() cannot hold an integer of hundreds of digits
        if (
            type(self.timeout) not in (int, float)
            or not 0 < self.timeout <= threading.TIMEOUT_MAX
        ):
            raise GraphError(
                f"timeout must be a positive number of seconds, got {self.timeout!r}"
            )
        object.__setattr__(self, "timeout", float(self.timeout))

    def scheme_for(self, role: str) -> str:
        return self.schemes.get(role, "bearer")

    def validate_for(self, plan: TestPlan) -> None:
        needed = {s.role for t in plan.tests for s in t.steps}
        missing = sorted(needed - set(self.tokens))
        if missing:
            raise RunnerError(
                "no token configured for role(s): " + ", ".join(missing)
            )


def tokens_from_env(roles: RoleSpec, env: Mapping[str, str] | None = None) -> dict[str, str]:
    """Read each principal's token from the environment variable the role
    spec names for it."""
    env = os.environ if env is None else env
    tokens = {}
    missing = []
    for role, var in sorted(roles.principals.items()):
        value = env.get(var)
        if value:
            tokens[role] = value
        else:
            missing.append(f"{role} ({var})")
    if missing:
        raise RunnerError("token environment variables unset: " + ", ".join(missing))
    return tokens


# --------------------------------------------------------------------------
# report model


@dataclass(frozen=True)
class StepTranscript:
    index: int
    rule: str
    role: str
    request: dict
    response: dict | None
    bac_exception: bool
    failure: str | None = None  # transport/binding trouble, not an access denial

    def to_doc(self) -> dict:
        return {
            "index": self.index,
            "rule": self.rule,
            "role": self.role,
            "request": self.request,
            "response": self.response,
            "bac_exception": self.bac_exception,
            "failure": self.failure,
        }


@dataclass(frozen=True)
class TestResult:
    __test__ = False  # not a pytest class

    test_id: str
    kind: str
    expected_access: bool
    verdict: str  # success | fail | inconclusive
    classification: str | None  # one of the four outcome cases, if conclusive
    transcripts: tuple[StepTranscript, ...]
    detail: str

    def to_doc(self) -> dict:
        return {
            "test_id": self.test_id,
            "kind": self.kind,
            "expected_access": self.expected_access,
            "verdict": self.verdict,
            "classification": self.classification,
            "detail": self.detail,
            "transcripts": [t.to_doc() for t in self.transcripts],
        }


@dataclass(frozen=True)
class TestReport:
    __test__ = False  # not a pytest class

    results: tuple[TestResult, ...]
    detected_vulnerabilities: tuple[str, ...]

    def __post_init__(self) -> None:
        failing = tuple(
            r.test_id for r in self.results if r.classification == NEGATIVE_FAIL
        )
        if failing != self.detected_vulnerabilities:
            raise GraphError(
                "detected-vulnerability list must hold exactly the negative-fail tests"
            )

    def counts(self) -> dict[str, int]:
        out = {SUCCESS: 0, FAIL: 0, INCONCLUSIVE: 0}
        for r in self.results:
            out[r.verdict] += 1
        return out

    @property
    def all_passed(self) -> bool:
        return all(r.verdict == SUCCESS for r in self.results)

    def to_doc(self) -> dict:
        return {
            "summary": self.counts(),
            "all_passed": self.all_passed,
            "detected_vulnerabilities": list(self.detected_vulnerabilities),
            "results": [r.to_doc() for r in self.results],
        }

    def render_text(self) -> str:
        lines = []
        for r in self.results:
            label = r.classification or r.verdict
            lines.append(f"{label:18} {r.test_id}: {r.detail}")
        counts = self.counts()
        lines.append(
            f"{len(self.results)} tests: {counts[SUCCESS]} success, "
            f"{counts[FAIL]} fail, {counts[INCONCLUSIVE]} inconclusive"
        )
        if self.detected_vulnerabilities:
            lines.append(
                "detected BAC vulnerabilities: "
                + ", ".join(self.detected_vulnerabilities)
            )
        else:
            lines.append("detected BAC vulnerabilities: none")
        return "\n".join(lines)


# --------------------------------------------------------------------------
# execution


def http_transport(endpoint: str) -> Transport:
    try:
        url = urllib.parse.urlsplit(endpoint)
    except ValueError:  # an unbalanced IPv6 bracket, say
        url = None
    if url is None or url.scheme not in ("http", "https") or not url.netloc:
        raise RunnerError(f"endpoint must be an http or https URL, got {endpoint!r}")

    def send(request: dict, headers: dict, timeout: float) -> dict:
        data = json.dumps(request).encode()
        req = urllib.request.Request(
            endpoint, data=data, headers={"Content-Type": "application/json", **headers}
        )
        try:
            with urllib.request.urlopen(req, timeout=timeout) as resp:
                status, body = resp.status, resp.read()
        except urllib.error.HTTPError as exc:
            status, body = exc.code, exc.read()
        try:
            return json.loads(body)
        except ValueError as exc:  # not JSON, or not even text
            raise OSError(f"HTTP {status}: {body[:200]!r}") from exc

    return send


def _resolve_bindings(
    bindings: Mapping[str, dict], outputs: list[dict | None]
) -> tuple[dict, str | None]:
    variables = {}
    for var, hint in sorted(bindings.items()):
        if "value" in hint:
            variables[var] = hint["value"]
            continue
        step = hint.get("step")
        node = hint.get("node")
        if not isinstance(step, int) or not 0 <= step < len(outputs):
            return {}, f"binding {var} references step {step}, which has not run"
        data = outputs[step]
        if not isinstance(data, dict) or node not in data:
            return {}, (
                f"binding {var} expects node {node} in step {step}'s response, "
                "which did not provide it"
            )
        variables[var] = data[node]
    return variables, None


def _well_formed_errors(errors: object) -> bool:
    """A list of objects, each with a string message and object extensions
    where it has them."""
    return isinstance(errors, list) and all(
        isinstance(e, dict)
        and isinstance(e.get("message", ""), str)
        and isinstance(e.get("extensions") or {}, dict)
        for e in errors
    )


def _query_text(rule: Rule) -> str:
    if rule.call is not None and rule.call.document_template:
        return rule.call.document_template
    return f"# operation {rule.operation()}, dispatched by operationName"


def _run_test(
    test: TaintTest,
    config: RunnerConfig,
    transport: Transport,
    rules: Mapping[str, Rule],
) -> TestResult:
    transcripts: list[StepTranscript] = []
    outputs: list[dict | None] = []
    observed = False

    def inconclusive(detail: str) -> TestResult:
        return TestResult(
            test_id=test.id,
            kind=test.kind,
            expected_access=test.expected_access,
            verdict=INCONCLUSIVE,
            classification=None,
            transcripts=tuple(transcripts),
            detail=detail,
        )

    for index, step in enumerate(test.steps):
        variables, problem = _resolve_bindings(step.bindings, outputs)
        if problem is not None:
            transcripts.append(
                StepTranscript(index, step.rule, step.role, {}, None, False, problem)
            )
            return inconclusive(f"step {index} ({step.rule}): {problem}")
        rule = rules[step.rule]
        # the target dispatches and answers under the operation name, which
        # may differ from the rule name
        operation = rule.operation()
        request = {
            "query": _query_text(rule),
            "variables": variables,
            "operationName": operation,
        }
        headers = {
            "Authorization": f"{config.scheme_for(step.role)} {config.tokens[step.role]}"
        }
        try:
            response = transport(request, headers, config.timeout)
        except OSError as exc:
            problem = f"transport failure: {exc}"
        else:
            if not isinstance(response, dict):
                problem = f"response is not a JSON object: {response!r:.200}"
            elif not _well_formed_errors(response.get("errors") or []):
                problem = (
                    "response errors are not a list of error objects: "
                    f"{response['errors']!r:.200}"
                )
        if problem is not None:
            transcripts.append(
                StepTranscript(index, step.rule, step.role, request, None, False, problem)
            )
            return inconclusive(f"step {index} ({step.rule}): {problem}")
        errors = response.get("errors") or []
        bac = bool(errors) and config.matcher.is_bac(errors)
        transcripts.append(
            StepTranscript(index, step.rule, step.role, request, response, bac)
        )
        if errors and not bac:
            message = errors[0].get("message", "unspecified error")
            return inconclusive(
                f"step {index} ({step.rule}) returned a non-access error: {message}"
            )
        if bac:
            observed = True
            break  # a denied call ends the execution sequence
        data = response.get("data") or {}
        outputs.append(data.get(operation) if isinstance(data, dict) else None)

    classification = classify_outcome(test.expected_access, observed)
    verdict = SUCCESS if classification.endswith("-success") else FAIL
    if classification == POSITIVE_SUCCESS:
        detail = "all steps granted, as expected"
    elif classification == NEGATIVE_SUCCESS:
        denied = transcripts[-1]
        detail = f"access denied at {denied.rule} as {denied.role}, as expected"
    elif classification == POSITIVE_FAIL:
        denied = transcripts[-1]
        detail = (
            f"access denied at {denied.rule} as {denied.role}, "
            "but the policy review expects this flow to be possible"
        )
    else:
        last = transcripts[-1]
        detail = (
            f"{last.rule} as {last.role} was granted although the plan "
            "expects a denial: broken access control"
        )
    return TestResult(
        test_id=test.id,
        kind=test.kind,
        expected_access=test.expected_access,
        verdict=verdict,
        classification=classification,
        transcripts=tuple(transcripts),
        detail=detail,
    )


def run_plan(
    plan: TestPlan,
    config: RunnerConfig,
    transport: Transport | None = None,
    *,
    rules: Mapping[str, Rule],
) -> TestReport:
    """Run every test in order; one request in flight at a time.  A step
    whose rule `rules` lacks stops the run before anything is sent."""
    config.validate_for(plan)
    unknown = sorted({s.rule for t in plan.tests for s in t.steps} - set(rules))
    if unknown:
        raise RunnerError("plan uses unknown rule(s): " + ", ".join(unknown))
    transport = transport if transport is not None else http_transport(config.endpoint)
    results = tuple(_run_test(test, config, transport, rules) for test in plan.tests)
    if config.cleanup == "reset" and config.tokens:
        role = sorted(config.tokens)[0]
        request = {"query": "", "variables": {}, "operationName": RESET_OPERATION}
        headers = {
            "Authorization": f"{config.scheme_for(role)} {config.tokens[role]}"
        }
        try:
            transport(request, headers, config.timeout)
        except OSError:
            pass  # cleanup is best-effort
    detected = tuple(
        r.test_id for r in results if r.classification == NEGATIVE_FAIL
    )
    return TestReport(results=results, detected_vulnerabilities=detected)
