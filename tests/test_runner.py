"""Plan execution: outcome classification, fault detection, failure modes."""

from __future__ import annotations

import json
import threading
from dataclasses import replace
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest
from fixtures import collab_plan, collab_policy, collab_roles, collab_rules, collab_typegraph

from graphbac.core import GraphError, InstanceGraph
from graphbac.mockserver import (
    FaultInjection,
    MockTarget,
    TokenEntry,
    start_in_background,
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
        thread.join(timeout=5)
