"""Tests for the command line pipeline over the shipped project fixtures."""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import pytest

from graphbac import cli
from graphbac.cli import Project, main
from graphbac.mockserver import start_in_background, target_from_doc

PROJECTS = Path(__file__).resolve().parent.parent / "projects"

RUNNING_TOKENS = {
    "GRAPHBAC_TOKEN_OWNER": "owner-token",
    "GRAPHBAC_TOKEN_COLLABORATOR": "collab-token",
    "GRAPHBAC_TOKEN_NOPE": "nope-token",
}

GH_TOKENS = {
    "GRAPHBAC_TOKEN_GH_OWNER": "gh-owner-token",
    "GRAPHBAC_TOKEN_GH_OAUTH": "gh-oauth-token",
    "GRAPHBAC_TOKEN_GH_FINE": "gh-fine-token",
}


@pytest.fixture
def running_example(tmp_path):
    target = tmp_path / "running-example"
    shutil.copytree(PROJECTS / "running-example", target)
    return target


@pytest.fixture
def github_issue(tmp_path):
    target = tmp_path / "github-issue"
    shutil.copytree(PROJECTS / "github-issue", target)
    return target


def _served(project_dir: Path, faults: list[dict] | None = None):
    """A live mock server for the project's own mock config."""
    project = Project.load(project_dir)
    doc = json.loads((project_dir / "mock.json").read_text())
    if faults:
        doc["faults"] = list(doc.get("faults", [])) + faults
    target = target_from_doc(doc, project.rules(), project.roles())
    server, _thread = start_in_background(target)
    port = server.server_address[1]
    return server, f"http://127.0.0.1:{port}/graphql"


# ---- ingest and derive-rules --------------------------------------------


def test_ingest_is_idempotent(running_example, capsys):
    assert main(["ingest", "--project", str(running_example)]) == 0
    out = capsys.readouterr().out
    assert "4 node types, 4 edge types" in out
    first = (running_example / "typegraph.json").read_bytes()
    assert main(["ingest", "--project", str(running_example)]) == 0
    assert (running_example / "typegraph.json").read_bytes() == first


def test_ingest_without_schema_fails_with_context(tmp_path, capsys):
    assert main(["ingest", "--project", str(tmp_path)]) == 2
    assert "schema.graphql: file not found" in capsys.readouterr().err


def test_derive_rules_reports_unhandled_fields(tmp_path, capsys):
    (tmp_path / "schema.graphql").write_text(
        "type Query { search(q: String): Issue }\n"
        "type Mutation { createIssue: Issue }\n"
        "type Issue { title: String }\n"
    )
    assert main(["derive-rules", "--project", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "derived 1 rule skeletons" in out
    assert "unhandled entry field (model by hand): Query.search" in out
    doc = json.loads((tmp_path / "derived-rules.json").read_text())
    assert [r["name"] for r in doc["rules"]] == ["createIssue"]


# ---- analyze ------------------------------------------------------------


def test_analyze_reports_the_six_pairs(running_example, capsys):
    assert main(["analyze", "--project", str(running_example)]) == 0
    out = capsys.readouterr().out
    assert "6 dependency pairs, 6 reasons (6 tainted)" in out
    doc = json.loads((running_example / "analysis.json").read_text())
    pairs = {(p["source"], p["sink"]) for p in doc["pairs"]}
    assert pairs == {
        ("createIssue", "updateIssue"),
        ("createIssue", "deleteIssue"),
        ("createProject", "getProject"),
        ("createProject", "deleteProject"),
        ("createRepo", "updateRepo"),
        ("createRepo", "createIssue"),
    }
    first = (running_example / "analysis.json").read_bytes()
    assert main(["analyze", "--project", str(running_example)]) == 0
    assert (running_example / "analysis.json").read_bytes() == first


def test_malformed_json_error_carries_position(running_example, capsys):
    (running_example / "rules.json").write_text('{"rules": [,]}')
    assert main(["analyze", "--project", str(running_example)]) == 2
    err = capsys.readouterr().err
    assert "rules.json:1:" in err


def test_unknown_project_setting_is_rejected(running_example, capsys):
    config = json.loads((running_example / "project.json").read_text())
    config["endpont"] = "typo"
    (running_example / "project.json").write_text(json.dumps(config))
    assert main(["analyze", "--project", str(running_example)]) == 2
    err = capsys.readouterr().err
    assert "project.json" in err
    assert "endpont" in err


def test_tainted_type_outside_typegraph_fails_with_context(running_example, capsys):
    (running_example / "taint.json").write_text('{"tainted_types": ["Ghost"]}')
    assert main(["analyze", "--project", str(running_example)]) == 2
    err = capsys.readouterr().err
    assert "taint.json" in err
    assert "Ghost" in err


def _break_taint(doc):
    doc["tainted_types"] = 5


def _break_plan(doc):
    doc["tests"][0]["steps"][0]["bindings"] = {"x": "ab"}


def _break_rules(doc):
    doc["rules"][0]["call"] = "str"


@pytest.mark.parametrize(
    "name, command, damage",
    [
        ("taint.json", "analyze", _break_taint),
        ("plan.json", "check-coverage", _break_plan),
        ("rules.json", "analyze", _break_rules),
    ],
)
def test_malformed_document_exits_2_naming_the_file(
    running_example, capsys, name, command, damage
):
    path = running_example / name
    doc = json.loads(path.read_text())
    damage(doc)
    path.write_text(json.dumps(doc))
    assert main([command, "--project", str(running_example)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {path}: ")


@pytest.mark.parametrize("command", ["plan-tests", "check-coverage"])
def test_each_document_is_read_once_per_command(running_example, monkeypatch, command):
    reads: dict[str, int] = {}
    load_json, parse_sdl = cli._load_json, cli.parse_sdl

    def counted_load(path):
        reads[path.name] = reads.get(path.name, 0) + 1
        return load_json(path)

    def counted_parse(text):
        reads["<sdl>"] = reads.get("<sdl>", 0) + 1
        return parse_sdl(text)

    monkeypatch.setattr(cli, "_load_json", counted_load)
    monkeypatch.setattr(cli, "parse_sdl", counted_parse)
    assert main([command, "--project", str(running_example)]) == 0
    assert "<sdl>" in reads and "rules.json" in reads
    assert all(count == 1 for count in reads.values()), reads


# ---- review -------------------------------------------------------------


def test_review_init_apply_roundtrip(running_example, capsys):
    (running_example / "ledger.json").unlink()
    assert main(["review", "init", "--project", str(running_example)]) == 0
    assert "6 unreviewed entries" in capsys.readouterr().out

    entries = json.loads((running_example / "ledger.json").read_text())
    assert all(e["status"] == "unreviewed" for e in entries)
    for entry in entries:
        entry["status"] = (
            "unsecured"
            if entry["reason_id"] == "createProject->deleteProject#0"
            else "secured"
        )
        entry["policy_stable_under_shift"] = True
    (running_example / "ledger.json").write_text(json.dumps(entries))

    assert main(["review", "apply", "--project", str(running_example)]) == 0
    out = capsys.readouterr().out
    assert "5 secured, 1 unsecured, 0 unreviewed" in out
    assert "unsecured   createProject->deleteProject#0" in out
    assert "asserted for every reviewed reason" in out


def test_review_init_refuses_to_clobber_without_force(running_example, capsys):
    assert main(["review", "init", "--project", str(running_example)]) == 2
    assert "--force" in capsys.readouterr().err
    assert main(["review", "init", "--project", str(running_example), "--force"]) == 0


def test_review_apply_rejects_unknown_reason(running_example, capsys):
    (running_example / "ledger.json").write_text(
        json.dumps([{"reason_id": "ghost->ghost#0", "status": "secured"}])
    )
    assert main(["review", "apply", "--project", str(running_example)]) == 2
    err = capsys.readouterr().err
    assert "ledger.json" in err
    assert "ghost->ghost#0" in err


# ---- check-theorem ------------------------------------------------------


def test_check_theorem_exit_reflects_conclusiveness(running_example, capsys):
    assert main([
        "check-theorem", "--project", str(running_example),
        "--source", "createRepo", "--sink", "updateRepo",
    ]) == 0
    out = capsys.readouterr().out
    assert "condition 2 holds" in out
    assert "conclusive via condition2" in out
    assert "stable under shift" in out

    assert main([
        "check-theorem", "--project", str(running_example),
        "--source", "createIssue", "--sink", "deleteIssue",
    ]) == 1
    assert "neither condition holds" in capsys.readouterr().out

    assert main([
        "check-theorem", "--project", str(running_example),
        "--source", "ghost", "--sink", "updateRepo",
    ]) == 2


# ---- plan-tests and check-coverage --------------------------------------


def test_plan_tests_reproduces_the_shipped_plan(running_example, capsys):
    shipped = (running_example / "plan.json").read_bytes()
    assert main(["plan-tests", "--project", str(running_example)]) == 0
    out = capsys.readouterr().out
    assert (
        "planned 18 tests: 6 flow-positive, 6 flow-negative, "
        "3 role-positive, 3 role-negative"
    ) in out
    assert (running_example / "plan.json").read_bytes() == shipped


def test_plan_tests_requires_a_reviewed_flow(running_example, capsys):
    assert main(["review", "init", "--project", str(running_example), "--force"]) == 0
    capsys.readouterr()
    assert main(["plan-tests", "--project", str(running_example)]) == 2
    assert "unreviewed" in capsys.readouterr().err
    assert main([
        "plan-tests", "--project", str(running_example), "--include-unreviewed",
    ]) == 0


def test_check_coverage_satisfied_on_shipped_plan(running_example, capsys):
    assert main(["check-coverage", "--project", str(running_example)]) == 0
    out = capsys.readouterr().out
    assert "flow coverage: 6/6" in out
    assert "role coverage: 3/3" in out
    assert "negative waived for least-privileged role NoPe-Collaborator" in out
    assert "coverage: satisfied" in out


def test_check_coverage_fails_when_a_test_is_dropped(running_example, capsys):
    doc = json.loads((running_example / "plan.json").read_text())
    doc["tests"] = [
        t for t in doc["tests"] if t["id"] != "flow-neg:createProject->deleteProject#0"
    ]
    (running_example / "plan.json").write_text(json.dumps(doc))
    assert main(["check-coverage", "--project", str(running_example)]) == 1
    out = capsys.readouterr().out
    assert "uncovered reason: createProject->deleteProject#0" in out
    assert "coverage: NOT satisfied" in out


def test_plan_outside_the_role_spec_is_rejected(running_example, capsys):
    doc = json.loads((running_example / "plan.json").read_text())
    doc["tests"][0]["steps"][0]["role"] = "Ghost"
    (running_example / "plan.json").write_text(json.dumps(doc))
    assert main(["check-coverage", "--project", str(running_example)]) == 2
    err = capsys.readouterr().err
    assert "plan.json" in err
    assert "Ghost" in err


# ---- run-tests ----------------------------------------------------------


def test_run_tests_end_to_end(running_example, capsys, monkeypatch):
    for var, token in RUNNING_TOKENS.items():
        monkeypatch.setenv(var, token)
    server, endpoint = _served(running_example)
    try:
        code = main([
            "run-tests", "--project", str(running_example), "--endpoint", endpoint,
        ])
    finally:
        server.shutdown()
        server.server_close()
    assert code == 0
    out = capsys.readouterr().out
    assert "18 tests: 18 success, 0 fail, 0 inconclusive" in out
    assert "detected BAC vulnerabilities: none" in out
    report = json.loads((running_example / "report.json").read_text())
    assert report["all_passed"] is True


def test_run_tests_flags_an_injected_fault(running_example, capsys, monkeypatch):
    for var, token in RUNNING_TOKENS.items():
        monkeypatch.setenv(var, token)
    server, endpoint = _served(
        running_example, faults=[{"kind": "drop_check", "rule": "updateIssue"}]
    )
    try:
        code = main([
            "run-tests", "--project", str(running_example), "--endpoint", endpoint,
        ])
    finally:
        server.shutdown()
        server.server_close()
    assert code == 1
    out = capsys.readouterr().out
    assert "negative-fail" in out
    report = json.loads((running_example / "report.json").read_text())
    assert report["detected_vulnerabilities"] == ["flow-neg:createIssue->updateIssue#0"]


def test_run_tests_requires_tokens_in_env(running_example, capsys, monkeypatch):
    for var in RUNNING_TOKENS:
        monkeypatch.delenv(var, raising=False)
    assert main([
        "run-tests", "--project", str(running_example),
        "--endpoint", "http://127.0.0.1:1/graphql",
    ]) == 2
    err = capsys.readouterr().err
    assert "GRAPHBAC_TOKEN_OWNER" in err


def test_run_tests_requires_an_endpoint(running_example, capsys, monkeypatch):
    for var, token in RUNNING_TOKENS.items():
        monkeypatch.setenv(var, token)
    config = json.loads((running_example / "project.json").read_text())
    del config["endpoint"]
    (running_example / "project.json").write_text(json.dumps(config))
    assert main(["run-tests", "--project", str(running_example)]) == 2
    assert "no endpoint configured" in capsys.readouterr().err


def test_run_tests_reproduces_the_permissions_issue(github_issue, capsys, monkeypatch):
    for var, token in GH_TOKENS.items():
        monkeypatch.setenv(var, token)
    server, endpoint = _served(github_issue)
    try:
        code = main([
            "run-tests", "--project", str(github_issue), "--endpoint", endpoint,
        ])
    finally:
        server.shutdown()
        server.server_close()
    assert code == 1
    out = capsys.readouterr().out
    assert "negative-success   compare-oauth" in out
    assert "negative-fail      compare-fine-grained" in out
    report = json.loads((github_issue / "report.json").read_text())
    assert report["detected_vulnerabilities"] == ["compare-fine-grained"]


# ---- mock-serve ---------------------------------------------------------


def test_mock_serve_announces_endpoint(running_example, capsys, monkeypatch):
    monkeypatch.setattr(
        "graphbac.cli._serve_forever", lambda server: server.server_close()
    )
    assert main([
        "mock-serve", "--project", str(running_example),
        "--fault", "drop_check:updateIssue",
    ]) == 0
    assert "serving mock target on http://127.0.0.1:" in capsys.readouterr().out


def test_mock_serve_rejects_malformed_fault(running_example, capsys):
    assert main([
        "mock-serve", "--project", str(running_example), "--fault", "explode",
    ]) == 2
    assert "drop_check:RULE" in capsys.readouterr().err


def test_mock_serve_rejects_fault_for_unknown_rule(running_example, capsys):
    assert main([
        "mock-serve", "--project", str(running_example), "--fault", "drop_check:ghost",
    ]) == 2
    assert "ghost" in capsys.readouterr().err


# ---- oracle -------------------------------------------------------------


def test_oracle_agrees_on_the_toy_projects(capsys):
    for name in ("incident-toy", "incident-chain-toy"):
        assert main([
            "oracle", "--project", str(PROJECTS / name), "--max-depth", "3",
        ]) == 0
        out = capsys.readouterr().out
        assert "static analysis and brute-force enumeration agree" in out


def test_toy_projects_fall_back_to_the_typegraph_document():
    project = Project.load(PROJECTS / "incident-toy")
    tg = project.typegraph()
    assert set(tg.node_types) == {"T", "A"}
    assert [r.name for r in project.rules()] == [
        "createIncidentT", "deleteIncidentA", "deleteT",
    ]
    assert project.initial().nodes == {"a0": "A"}
