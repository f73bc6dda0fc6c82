"""Plan execution: outcome classification, fault detection, failure modes."""

from __future__ import annotations

import json
import threading
from dataclasses import replace
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest
from fixtures import collab_plan, collab_policy, collab_roles, collab_rules, collab_typegraph

from graphbac.cli import Project
from graphbac.core import GraphError, InstanceGraph
from graphbac.mockserver import (
    FaultInjection,
    MockTarget,
    TokenEntry,
    start_in_background,
    target_from_doc,
)
from graphbac.planner import TaintTest, TestPlan, TestStep
from graphbac.runner import (
    FAIL,
    INCONCLUSIVE,
    NEGATIVE_FAIL,
    NEGATIVE_SUCCESS,
    POSITIVE_FAIL,
    POSITIVE_SUCCESS,
    SUCCESS,
    BacMatcher,
    RunnerConfig,
    RunnerError,
    classify_outcome,
    http_transport,
    run_plan,
    tokens_from_env,
)

TOKENS = {
    "Owner": "tok-owner",
    "Collaborator": "tok-collab",
    "NoPe-Collaborator": "tok-nope",
}


def make_target(faults=(), rules=None) -> MockTarget:
    return MockTarget(
        rules=(rules or collab_rules()).values(),
        roles=collab_roles(),
        policies={"bearer": collab_policy()},
        tokens={token: TokenEntry(role) for role, token in TOKENS.items()},
        faults=faults,
        initial=InstanceGraph.empty(collab_typegraph()),
    )


def make_config(**overrides) -> RunnerConfig:
    defaults = dict(endpoint="http://mock.invalid/graphql", tokens=dict(TOKENS))
    defaults.update(overrides)
    return RunnerConfig(**defaults)


@pytest.fixture(scope="module")
def plan() -> TestPlan:
    return collab_plan()


def test_classify_outcome_truth_table():
    assert classify_outcome(True, False) == POSITIVE_SUCCESS
    assert classify_outcome(True, True) == POSITIVE_FAIL
    assert classify_outcome(False, True) == NEGATIVE_SUCCESS
    assert classify_outcome(False, False) == NEGATIVE_FAIL


def test_matcher_codes_and_messages():
    matcher = BacMatcher()
    assert matcher.is_bac([{"extensions": {"code": "FORBIDDEN"}, "message": "no"}])
    assert not matcher.is_bac([{"extensions": {"code": "NOT_FOUND"}, "message": "no"}])
    github_style = BacMatcher(codes=(), message_pattern="Resource not accessible")
    assert github_style.is_bac(
        [{"message": "Resource not accessible by integration"}]
    )
    assert not github_style.is_bac([{"message": "something else"}])
    with pytest.raises(GraphError, match="matcher"):
        BacMatcher(codes=(), message_pattern=None)


def test_config_validation(plan):
    config = make_config(tokens={"Owner": "tok-owner"})
    with pytest.raises(RunnerError, match="Collaborator"):
        config.validate_for(plan)
    with pytest.raises(GraphError, match="cleanup"):
        make_config(cleanup="wipe")


def test_tokens_from_env():
    roles = collab_roles()
    env = {
        "GRAPHBAC_TOKEN_OWNER": "o",
        "GRAPHBAC_TOKEN_COLLABORATOR": "c",
        "GRAPHBAC_TOKEN_NOPE": "n",
    }
    assert tokens_from_env(roles, env) == {
        "Owner": "o",
        "Collaborator": "c",
        "NoPe-Collaborator": "n",
    }
    with pytest.raises(RunnerError, match="GRAPHBAC_TOKEN_NOPE"):
        tokens_from_env(roles, {k: v for k, v in env.items() if not k.endswith("NOPE")})


def test_clean_target_passes_every_generated_test(plan):
    target = make_target()
    report = run_plan(plan, make_config(), transport=target.transport(), rules=collab_rules())
    assert len(report.results) == 18
    assert report.all_passed
    assert report.counts() == {SUCCESS: 18, FAIL: 0, INCONCLUSIVE: 0}
    assert report.detected_vulnerabilities == ()
    positives = {r.classification for r in report.results if r.expected_access}
    negatives = {r.classification for r in report.results if not r.expected_access}
    assert positives == {POSITIVE_SUCCESS}
    assert negatives == {NEGATIVE_SUCCESS}


def test_dropped_check_is_detected_as_vulnerability(plan):
    target = make_target(faults=(FaultInjection("drop_check", "updateIssue"),))
    report = run_plan(plan, make_config(), transport=target.transport(), rules=collab_rules())
    flipped = [r for r in report.results if r.classification == NEGATIVE_FAIL]
    assert [r.test_id for r in flipped] == ["flow-neg:createIssue->updateIssue#0"]
    assert report.detected_vulnerabilities == ("flow-neg:createIssue->updateIssue#0",)
    assert flipped[0].verdict == FAIL
    others = [r for r in report.results if r.classification != NEGATIVE_FAIL]
    assert all(r.verdict == SUCCESS for r in others)
    assert "broken access control" in flipped[0].detail


def test_over_restriction_fails_positive_tests(plan):
    target = make_target(
        faults=(FaultInjection("over_restrict", "createIssue", "Collaborator"),)
    )
    report = run_plan(plan, make_config(), transport=target.transport(), rules=collab_rules())
    failed = sorted(
        r.test_id for r in report.results if r.classification == POSITIVE_FAIL
    )
    assert failed == ["flow-pos:createRepo->createIssue#0", "role-pos:Collaborator"]
    assert report.detected_vulnerabilities == ()  # denial bugs are not BAC leaks


def test_transport_failure_is_inconclusive(plan):
    def broken(request, headers, timeout):
        raise OSError("connection refused")

    report = run_plan(plan, make_config(), transport=broken, rules=collab_rules())
    assert all(r.verdict == INCONCLUSIVE for r in report.results)
    assert all("transport failure" in r.detail for r in report.results)
    assert report.detected_vulnerabilities == ()


@pytest.mark.parametrize(
    "body",
    [
        [],
        "x",
        {"errors": "x"},
        {"errors": [1]},
        {"errors": {"message": "m"}},
        {"errors": [{"message": "m", "extensions": "x"}]},
        {"errors": [{"message": 5}]},
    ],
)
def test_response_that_is_not_an_object_is_inconclusive(plan, body):
    report = run_plan(plan, make_config(), transport=lambda *args: body, rules=collab_rules())
    problem = "not a list of error objects" if isinstance(body, dict) else "not a JSON object"
    assert all(r.verdict == INCONCLUSIVE for r in report.results)
    assert all(problem in r.detail for r in report.results)
    json.dumps(report.to_doc())  # the report is still writable


@pytest.mark.parametrize("status", [200, 500])
def test_body_that_is_not_json_is_inconclusive_over_http(plan, status):
    class NotJson(BaseHTTPRequestHandler):
        def do_POST(self):  # noqa: N802  (http.server naming)
            self.rfile.read(int(self.headers["Content-Length"]))
            raw = b"<html>oops</html>"
            self.send_response(status)
            self.send_header("Content-Length", str(len(raw)))
            self.end_headers()
            self.wfile.write(raw)

        def log_message(self, fmt, *args):
            pass

    server = ThreadingHTTPServer(("127.0.0.1", 0), NotJson)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        endpoint = f"http://127.0.0.1:{server.server_address[1]}/graphql"
        with pytest.raises(OSError, match=f"HTTP {status}"):
            http_transport(endpoint)({}, {}, 5.0)
        report = run_plan(plan, make_config(endpoint=endpoint), rules=collab_rules())
        assert all(r.verdict == INCONCLUSIVE for r in report.results)
        assert all("transport failure" in r.detail for r in report.results)
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
    assert not thread.is_alive()


@pytest.mark.parametrize("faults", [(), (FaultInjection("drop_check", "updateIssue"),)])
def test_renamed_operations_run_like_the_originals(plan, faults):
    operations = {name: f"{name}Op" for name in collab_rules()}
    operations["createUser"] = "userCreate"
    renamed = {
        name: replace(rule, call=replace(rule.call, operation=operations[name]))
        for name, rule in collab_rules().items()
    }
    original = run_plan(
        plan, make_config(), transport=make_target(faults).transport(), rules=collab_rules()
    )
    report = run_plan(
        plan,
        make_config(),
        transport=make_target(faults, renamed).transport(),
        rules=renamed,
    )
    assert report.counts() == original.counts()
    assert report.detected_vulnerabilities == original.detected_vulnerabilities
    assert report.counts()[INCONCLUSIVE] == 0
    sent = report.results[0].transcripts[0].request
    assert sent["operationName"] == "userCreate"


def test_a_step_with_an_unknown_rule_stops_the_run_before_any_request(plan):
    sent = []

    def recording(request, headers, timeout):
        sent.append(request)
        return {"data": {}}

    rules = {name: rule for name, rule in collab_rules().items() if name != "updateIssue"}
    with pytest.raises(RunnerError, match="unknown rule.*updateIssue"):
        run_plan(plan, make_config(), transport=recording, rules=rules)
    assert sent == []


def test_non_access_error_is_inconclusive(plan):
    def flaky(request, headers, timeout):
        return {
            "data": None,
            "errors": [{"message": "boom", "extensions": {"code": "INTERNAL"}}],
        }

    report = run_plan(plan, make_config(), transport=flaky, rules=collab_rules())
    assert all(r.verdict == INCONCLUSIVE for r in report.results)
    assert all("non-access error" in r.detail for r in report.results)


def test_unresolvable_binding_is_inconclusive_and_names_the_path():
    roles = collab_roles()
    test = TaintTest(
        id="bad-binding",
        kind="flow-positive",
        steps=(
            TestStep(rule="createUser", role="Owner", setup=True),
            TestStep(
                rule="getUser",
                role="Owner",
                bindings={"user": {"step": 0, "node": "zzz"}},
            ),
        ),
        expected_access=True,
    )
    plan = TestPlan(roles=roles, tests=(test,))
    target = make_target()
    report = run_plan(plan, make_config(), transport=target.transport(), rules=collab_rules())
    result = report.results[0]
    assert result.verdict == INCONCLUSIVE
    assert "zzz" in result.detail and "step 0" in result.detail


def test_cleanup_reset_clears_the_target(plan):
    target = make_target()
    run_plan(plan, make_config(cleanup="reset"), transport=target.transport(), rules=collab_rules())
    assert not target.graph.nodes


def test_report_documents_and_rendering(plan):
    target = make_target(faults=(FaultInjection("drop_check", "updateIssue"),))
    report = run_plan(plan, make_config(), transport=target.transport(), rules=collab_rules())
    doc = json.loads(json.dumps(report.to_doc()))
    assert doc["summary"] == {SUCCESS: 17, FAIL: 1, INCONCLUSIVE: 0}
    assert doc["all_passed"] is False
    assert doc["detected_vulnerabilities"] == ["flow-neg:createIssue->updateIssue#0"]
    failing = next(r for r in doc["results"] if r["verdict"] == FAIL)
    assert failing["transcripts"][-1]["rule"] == "updateIssue"
    assert failing["transcripts"][-1]["response"]["data"] is not None
    text = report.render_text()
    assert "18 tests: 17 success, 1 fail, 0 inconclusive" in text
    assert "flow-neg:createIssue->updateIssue#0" in text


def test_full_plan_over_http(plan):
    target = make_target()
    server, thread = start_in_background(target)
    try:
        port = server.server_address[1]
        config = make_config(endpoint=f"http://127.0.0.1:{port}/graphql")
        report = run_plan(config=config, plan=plan, rules=collab_rules())
        assert report.all_passed
        sent = report.results[0].transcripts[0].request
        assert sent["query"].startswith("mutation createUser")
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


# ---- the HTTP transport -------------------------------------------------

RUNNING_EXAMPLE = Path(__file__).resolve().parent.parent / "projects" / "running-example"


def running_example_mock() -> tuple[Project, MockTarget, dict[str, str]]:
    """The running-example project, its mock with `drop_check:updateIssue`
    (as the replay benchmark serves it) and its tokens by role."""
    project = Project.load(RUNNING_EXAMPLE)
    doc = json.loads(project.path("mock").read_text())
    doc["faults"] = [*doc.get("faults", []), {"kind": "drop_check", "rule": "updateIssue"}]
    target = target_from_doc(doc, project.rules(), project.roles(), project.initial())
    return project, target, {entry["role"]: token for token, entry in doc["tokens"].items()}


def stub_server(handler) -> tuple[ThreadingHTTPServer, threading.Semaphore]:
    """A running server for `handler` on a free port, and a semaphore
    released each time the server has closed a connection."""
    server = ThreadingHTTPServer(("127.0.0.1", 0), handler)
    closed = threading.Semaphore(0)
    shutdown_request = server.shutdown_request

    def closing(request):
        shutdown_request(request)
        closed.release()

    server.shutdown_request = closing
    threading.Thread(target=server.serve_forever, args=(0.05,), daemon=True).start()
    return server, closed


def stop(server) -> None:
    server.shutdown()
    server.server_close()


class Recording(BaseHTTPRequestHandler):
    """An HTTP/1.1 stub that records each request and answers `{"data": {}}`."""

    protocol_version = "HTTP/1.1"
    seen: list  # (path, headers, body) per request; set by each test
    answer = True
    close_after = False  # close without a Connection: close header

    def do_POST(self):  # noqa: N802  (http.server naming)
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        self.seen.append((self.path, dict(self.headers), body))
        if self.answer:
            raw = b'{"data": {}}'
            self.send_response(200)
            self.send_header("Content-Length", str(len(raw)))
            self.end_headers()
            self.wfile.write(raw)
        self.close_connection = self.close_after or not self.answer

    def log_message(self, fmt, *args):
        pass


def recording(**attrs) -> type[Recording]:
    return type("Stub", (Recording,), {"seen": [], **attrs})


def test_one_run_over_http_opens_one_connection():
    project, target, tokens = running_example_mock()
    server, thread = start_in_background(target)
    accepted = []
    get_request = server.get_request

    def counting():
        accepted.append(None)
        return get_request()

    server.get_request = counting
    try:
        endpoint = f"http://127.0.0.1:{server.server_address[1]}/graphql"
        report = run_plan(
            project.plan(),
            RunnerConfig(endpoint=endpoint, tokens=tokens),
            rules=project.rules_by_name(),
        )
    finally:
        stop(server)
        thread.join(timeout=5)
    assert report.counts() == {SUCCESS: 17, FAIL: 1, INCONCLUSIVE: 0}
    assert sum(len(r.transcripts) for r in report.results) > 1
    assert len(accepted) == 1


def test_a_replay_over_http_equals_the_in_process_one():
    project, served, tokens = running_example_mock()
    _, local, _ = running_example_mock()
    plan, rules = project.plan(), project.rules_by_name()
    server, thread = start_in_background(served)
    endpoint = f"http://127.0.0.1:{server.server_address[1]}/graphql"
    config = RunnerConfig(endpoint=endpoint, tokens=tokens)
    transport = http_transport(endpoint)
    try:
        for _ in range(3):  # the mock is not reset: each round grows its state
            over_http = run_plan(plan, config, transport, rules=rules)
            in_process = run_plan(plan, config, local.transport(), rules=rules)
            assert over_http.to_doc() == in_process.to_doc()
            assert served.snapshot() == local.snapshot()
    finally:
        transport.close()
        stop(server)
        thread.join(timeout=5)
    assert over_http.detected_vulnerabilities == ("flow-neg:createIssue->updateIssue#0",)


def test_a_connection_the_server_closed_is_replaced_and_no_post_is_resent():
    handler = recording(close_after=True)
    server, closed = stub_server(handler)
    transport = http_transport(f"http://127.0.0.1:{server.server_address[1]}/graphql")
    try:
        for n in range(5):
            assert transport({"n": n}, {}, 5.0) == {"data": {}}
            assert closed.acquire(timeout=5)  # gone before the next request
    finally:
        transport.close()
        stop(server)
    assert [body for _, _, body in handler.seen] == [{"n": n} for n in range(5)]


def test_a_request_that_fails_after_it_was_sent_is_not_resent(plan):
    handler = recording(answer=False)
    server, _closed = stub_server(handler)
    endpoint = f"http://127.0.0.1:{server.server_address[1]}/graphql"
    transport = http_transport(endpoint)
    try:
        with pytest.raises(OSError):
            transport({"n": 0}, {}, 5.0)
        assert [body for _, _, body in handler.seen] == [{"n": 0}]
        report = run_plan(plan, make_config(endpoint=endpoint), rules=collab_rules())
    finally:
        transport.close()
        stop(server)
    assert all(r.verdict == INCONCLUSIVE for r in report.results)
    assert all("transport failure" in r.detail for r in report.results)
    # each test stops at its first step, which was sent once
    assert len(handler.seen) == 1 + len(plan.tests)


def test_a_reply_that_is_not_http_is_inconclusive(plan):
    class Garbage(Recording):
        def do_POST(self):  # noqa: N802  (http.server naming)
            self.rfile.read(int(self.headers["Content-Length"]))
            self.wfile.write(b"SSH-2.0-not-http\r\n")
            self.close_connection = True

    server, _closed = stub_server(Garbage)
    endpoint = f"http://127.0.0.1:{server.server_address[1]}/graphql"
    try:
        with pytest.raises(OSError, match="malformed HTTP response"):
            http_transport(endpoint)({}, {}, 5.0)
        report = run_plan(plan, make_config(endpoint=endpoint), rules=collab_rules())
    finally:
        stop(server)
    assert all(r.verdict == INCONCLUSIVE for r in report.results)
    assert all("malformed HTTP response" in r.detail for r in report.results)


def test_a_reply_nested_too_deeply_is_inconclusive(plan):
    # json.loads raises RecursionError, not ValueError, on such a body
    class Deep(Recording):
        def do_POST(self):  # noqa: N802  (http.server naming)
            self.rfile.read(int(self.headers["Content-Length"]))
            raw = b'{"data": ' + b"[" * 200_000 + b"]" * 200_000 + b"}"
            self.send_response(200)
            self.send_header("Content-Length", str(len(raw)))
            self.end_headers()
            self.wfile.write(raw)

    server, _closed = stub_server(Deep)
    endpoint = f"http://127.0.0.1:{server.server_address[1]}/graphql"
    try:
        with pytest.raises(OSError, match="HTTP 200"):
            http_transport(endpoint)({}, {}, 5.0)
        report = run_plan(plan, make_config(endpoint=endpoint), rules=collab_rules())
    finally:
        stop(server)
    assert all(r.verdict == INCONCLUSIVE for r in report.results)
    assert all("transport failure" in r.detail for r in report.results)


@pytest.mark.parametrize("bypassed", [False, True])
def test_an_http_proxy_in_the_environment_is_used(monkeypatch, bypassed):
    handler = recording()
    server, _closed = stub_server(handler)
    netloc = f"127.0.0.1:{server.server_address[1]}"
    for var in ("http_proxy", "HTTP_PROXY", "no_proxy", "NO_PROXY"):
        monkeypatch.delenv(var, raising=False)
    monkeypatch.setenv("http_proxy", f"http://user:p%40ss@{netloc}")
    if bypassed:
        monkeypatch.setenv("no_proxy", "127.0.0.1")
    transport = http_transport(f"http://{netloc}/graphql?v=1")
    try:
        assert transport({}, {}, 5.0) == {"data": {}}
    finally:
        transport.close()
        stop(server)
    [(path, headers, body)] = handler.seen
    assert (headers["Host"], body) == (netloc, {})
    if bypassed:
        assert path == "/graphql?v=1"
        assert "Proxy-Authorization" not in headers
    else:  # a proxy is sent the absolute URI, and the proxy's credentials
        assert path == f"http://{netloc}/graphql?v=1"
        assert headers["Proxy-Authorization"] == "Basic dXNlcjpwQHNz"  # user:p@ss
