"""Tests for the command line pipeline over the shipped project fixtures."""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import socket
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from graphbac import cli, dependency
from graphbac.cli import Project, main
from graphbac.mockserver import start_in_background, target_from_doc

from fixtures import SYNTHETIC_TINY, synthetic_project

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
    target = target_from_doc(doc, project.rules(), project.roles(), project.initial())
    server, _thread = start_in_background(target)
    port = server.server_address[1]
    return server, f"http://127.0.0.1:{port}/graphql"


# ---- ingest and derive-rules --------------------------------------------


def test_ingest_is_idempotent(running_example, capsys):
    assert main(["ingest", "--project", str(running_example)]) == 0
    out, err = capsys.readouterr()
    assert "4 node types, 4 edge types" in out
    assert err == ""  # the shipped schema uses nothing the parser ignores
    first = (running_example / "typegraph.json").read_bytes()
    assert main(["ingest", "--project", str(running_example)]) == 0
    assert (running_example / "typegraph.json").read_bytes() == first


def test_ingest_without_schema_fails_with_context(tmp_path, capsys):
    assert main(["ingest", "--project", str(tmp_path)]) == 2
    assert "schema.graphql: file not found" in capsys.readouterr().err


@pytest.mark.parametrize("value, node_types", [(True, 8), (False, 5)])
def test_include_inputs_switches_input_types(github_issue, capsys, value, node_types):
    path = github_issue / "project.json"
    config = json.loads(path.read_text())
    config["include_inputs"] = value
    path.write_text(json.dumps(config))
    assert main(["ingest", "--project", str(github_issue)]) == 0
    assert f"{node_types} node types" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["ingest", "derive-rules", "analyze"])
@pytest.mark.parametrize("value", ["false", "true", 0, 1, None, []])
def test_include_inputs_must_be_a_json_boolean(github_issue, capsys, command, value):
    path = github_issue / "project.json"
    config = json.loads(path.read_text())
    config["include_inputs"] = value
    path.write_text(json.dumps(config))
    assert main([command, "--project", str(github_issue)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: include_inputs must be true or false"), err


def test_a_closed_stdout_exits_141_without_a_traceback(running_example, capsys, monkeypatch):
    read_end, write_end = os.pipe()
    os.close(read_end)  # every write to the pipe now raises BrokenPipeError
    with open(write_end, "w") as closed:
        monkeypatch.setattr(sys, "stdout", closed)
        assert main(["ingest", "--project", str(running_example)]) == 141
        closed.write("flushed at exit\n")
        closed.flush()  # stdout now points at devnull, so this cannot raise
        monkeypatch.undo()
    assert capsys.readouterr().err == ""


def test_a_reader_that_left_ends_the_process_quietly(running_example):
    # `graphbac ingest | head -0`: the output flushed at exit is the last
    # chance to raise BrokenPipeError
    read_end, write_end = os.pipe()
    os.close(read_end)
    src = Path(cli.__file__).resolve().parent.parent
    paths = [str(src), *filter(None, os.environ.get("PYTHONPATH", "").split(os.pathsep))]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}
    try:
        done = subprocess.run(
            [sys.executable, "-m", "graphbac.cli", "ingest", "--project", str(running_example)],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60,
        )
    finally:
        os.close(write_end)
    assert done.returncode == 141
    assert done.stderr == b""


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


@pytest.mark.parametrize("command", ["ingest", "derive-rules"])
def test_schema_warnings_go_to_stderr(tmp_path, capsys, command):
    schema = tmp_path / "schema.graphql"
    schema.write_text(
        "interface Node { id: ID! }\n"
        "type Mutation { createIssue(title: String): Issue }\n"
        "type Issue implements Node { id: ID! title: String }\n"
    )
    assert main([command, "--project", str(tmp_path)]) == 0
    out, err = capsys.readouterr()
    assert err.splitlines() == [
        f"warning: {schema}: 1:1: interface definition ignored",
        f"warning: {schema}: 3:12: implements clause on Issue ignored",
    ]
    assert "ignored" not in out


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
    return doc


def _break_plan(doc):
    doc["tests"][0]["steps"][0]["bindings"] = {"x": "ab"}
    return doc


def _break_plan_step(doc):
    doc["tests"][0]["steps"][0] = "x"
    return doc


def _break_rules(doc):
    doc["rules"][0]["call"] = "str"
    return doc


def _break_call_bindings(doc):
    doc["rules"][1]["call"]["bindings"] = 5
    return doc


def _break_rule_name(doc):
    doc["rules"][1]["name"] = 5
    return doc


def _break_actor(doc):
    doc["rules"][2]["actor"] = []
    return doc


def _break_edge_endpoint(doc):
    doc["rules"][2]["edges"][0]["tgt"] = []
    return doc


def _break_reason_id(doc):
    doc[0]["reason_id"] = []
    return doc


def _break_step_role(doc):
    doc["tests"][0]["steps"][0]["role"] = 5
    return doc


def _break_node_id(doc):
    return {"nodes": [{"id": 5, "type": "User"}], "edges": []}


def _break_policy(doc):
    doc["rules"]["createIssue"]["allowed"] = [["owner"]]
    return doc


def _as_list(doc):
    return []


def _set(value, *path):
    """A damage that puts `value` at the key `path` of the document."""

    def damage(doc):
        target = doc
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        return doc

    damage.__name__ = f"_set_{'.'.join(map(str, path))}={json.dumps(value)}"
    return damage


def _as_null(doc):
    return None


@pytest.mark.parametrize(
    "name, command, damage",
    [
        ("taint.json", "analyze", _break_taint),
        ("plan.json", "check-coverage", _break_plan),
        ("plan.json", "check-coverage", _break_plan_step),
        ("rules.json", "analyze", _break_rules),
        ("rules.json", "analyze", _as_null),
        ("policy.json", "plan-tests", _break_policy),
        ("initial.json", "plan-tests", _as_list),
        ("roles.json", "check-coverage", _as_list),
        ("rules.json", "analyze", _break_call_bindings),
        ("rules.json", "analyze", _break_rule_name),
        ("rules.json", "analyze", _break_edge_endpoint),
        ("rules.json", "analyze", _break_actor),
        ("ledger.json", "plan-tests", _break_reason_id),
        ("plan.json", "check-coverage", _break_step_role),
        ("initial.json", "plan-tests", _break_node_id),
        # a flag must be a JSON boolean: `bool("false")` is true
        ("rules.json", "analyze", _set("false", "rules", 0, "setup_only")),
        ("rules.json", "analyze", _set("false", "rules", 0, "skeleton")),
        ("plan.json", "check-coverage", _set("false", "tests", 0, "expected_access")),
        ("plan.json", "check-coverage", _set("false", "tests", 0, "steps", 0, "setup")),
        ("ledger.json", "plan-tests", _set("false", 0, "policy_stable_under_shift")),
        ("policy.json", "plan-tests", _set("false", "rules", "createIssue", "creator_only")),
        ("policy.json", "plan-tests", _set(0, "rules", "createIssue", "non_monotone")),
        (
            "mock.json",
            "mock-serve",
            _set("false", "policies", "bearer", "rules", "createIssue", "creator_only"),
        ),
        # plan test entries that once crashed `check-coverage`
        ("plan.json", "check-coverage", _set([["Owner"]], "tests", 0, "covered_role_pairs")),
        ("plan.json", "check-coverage", _set([["a", "b", "c"]], "tests", 0, "covered_role_pairs")),
        ("plan.json", "check-coverage", _set([[["a"], "b"]], "tests", 0, "covered_role_pairs")),
        ("plan.json", "check-coverage", _set(5, "tests", 0, "id")),
        ("plan.json", "check-coverage", _set([], "tests", 0, "kind")),
        ("plan.json", "check-coverage", _set([5], "tests", 0, "covered_reasons")),
        ("plan.json", "check-coverage", _set("r#0", "tests", 0, "covered_reasons")),
        ("plan.json", "check-coverage", _set([["a"]], "negative_infeasible")),
        ("plan.json", "check-coverage", _set("note", "notes")),
    ],
)
def test_malformed_document_exits_2_naming_the_file(
    running_example, capsys, name, command, damage
):
    path = running_example / name
    doc = json.loads(path.read_text()) if path.exists() else {}
    path.write_text(json.dumps(damage(doc)))
    assert main([command, "--project", str(running_example)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ")
    # the message names no other file of the project
    assert err.count(str(running_example)) == 1, err


@pytest.mark.parametrize("key", ["operation", "document_template"])
@pytest.mark.parametrize("value", [5, None, []])
def test_a_rule_call_that_is_not_a_string_exits_2(running_example, capsys, key, value):
    path = running_example / "rules.json"
    doc = json.loads(path.read_text())
    doc["rules"][1]["call"][key] = value
    path.write_text(json.dumps(doc))
    assert main(["analyze", "--project", str(running_example)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ")
    assert "getUser" in err and key in err, err


def test_internal_error_exits_4_with_a_traceback(running_example, capsys, monkeypatch):
    def crash(args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "cmd_analyze", crash)
    assert main(["analyze", "--project", str(running_example)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("Traceback (most recent call last):")
    assert err.rstrip().endswith("RuntimeError: boom")


def test_the_parser_is_built_once_and_calls_the_current_handler(
    running_example, capsys, monkeypatch
):
    def unbuildable():
        raise AssertionError("main built a parser")

    monkeypatch.setattr(cli, "_build_parser", unbuildable)
    assert main(["analyze", "--project", str(running_example)]) == 0
    calls = []

    def patched(args):
        calls.append(args.project)
        return 0

    # re-bound after the parser was built, as a test or a tracer does
    monkeypatch.setattr(cli, "cmd_analyze", patched)
    assert main(["analyze", "--project", str(running_example)]) == 0
    assert calls == [str(running_example)]


def test_a_traced_command_records_its_span(running_example, capsys):
    from tracer import Tracer  # perfbench/, on the path through fixtures

    tracer = Tracer()
    tracer.install()
    try:
        assert main(["analyze", "--project", str(running_example)]) == 0
        assert main(["plan-tests", "--project", str(running_example)]) == 0
    finally:
        tracer.uninstall()
    metrics = tracer.layer_metrics()
    assert metrics["cli.analyze_s"] > 0 and metrics["cli.plan_tests_s"] > 0
    assert metrics["planner.setup.canonical_calls"] > 0


@pytest.mark.parametrize(
    "command", ["analyze", "review apply", "plan-tests", "check-coverage", "check-theorem"]
)
@pytest.mark.parametrize("sidecar", [True, False])
def test_each_document_is_read_once_per_command(
    running_example, capsys, monkeypatch, command, sidecar
):
    if sidecar:
        _analyzed(running_example, capsys)
    reads: dict[str, int] = {}
    read, parse_sdl, to_type_graph = cli._read, cli.parse_sdl, cli.to_type_graph

    def counted_read(path):
        reads[path.name] = reads.get(path.name, 0) + 1
        return read(path)

    def counted_parse(text):
        reads["<sdl>"] = reads.get("<sdl>", 0) + 1
        return parse_sdl(text)

    def counted_derivation(model, **options):
        reads["<typegraph>"] = reads.get("<typegraph>", 0) + 1
        return to_type_graph(model, **options)

    monkeypatch.setattr(cli, "_read", counted_read)
    monkeypatch.setattr(cli, "parse_sdl", counted_parse)
    monkeypatch.setattr(cli, "to_type_graph", counted_derivation)
    argv = LATER.get(command, [command])
    assert main([*argv, "--project", str(running_example)]) == 0
    assert {"schema.graphql", "rules.json"} <= set(reads)
    # the theorem answers from a fresh sidecar's matrix and parses no schema
    parsed = {"<sdl>", "<typegraph>"}
    answers_from_matrix = sidecar and command == "check-theorem"
    assert parsed & set(reads) == (set() if answers_from_matrix else parsed)
    assert all(count == 1 for count in reads.values()), reads
    # only the stages after `analyze` read the analysis, and only from a sidecar
    analysis_files = {"analysis.json", "analysis.lock.json"}
    loads_analysis = sidecar and command != "analyze"
    assert analysis_files & set(reads) == (analysis_files if loads_analysis else set())


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
    assert capsys.readouterr().err == "error: unknown rule ghost\n"


@pytest.mark.parametrize(
    "source, sink", [("createUser", "updateRepo"), ("createRepo", "createUser")]
)
def test_check_theorem_names_a_setup_only_rule(running_example, capsys, source, sink):
    assert main([
        "check-theorem", "--project", str(running_example),
        "--source", source, "--sink", sink,
    ]) == 2
    _, err = capsys.readouterr()
    assert err == (
        "error: rule createUser is setup-only: the analysis skips setup-only "
        "rules, so they have no verdicts\n"
    )


# ---- the analysis sidecar ----------------------------------------------

# the commands that read the analysis, and the arguments they need
LATER = {
    "review apply": ["review", "apply"],
    "plan-tests": ["plan-tests"],
    "check-coverage": ["check-coverage"],
    "check-theorem": ["check-theorem", "--source", "createRepo", "--sink", "updateRepo"],
}


def _analyzed(project: Path, capsys) -> Path:
    """Run `analyze` on the project and return its sidecar."""
    assert main(["analyze", "--project", str(project)]) == 0
    capsys.readouterr()
    return project / "analysis.lock.json"


def _later(project: Path, command: str) -> int:
    return main([*LATER[command], "--project", str(project)])


def test_analyze_writes_a_sidecar_and_keeps_analysis_json(running_example, capsys):
    lock = _analyzed(running_example, capsys)
    doc = json.loads(lock.read_text())
    analysis = (running_example / "analysis.json").read_text()
    assert doc["analysis_sha256"] == hashlib.sha256(analysis.encode()).hexdigest()
    names = [r.name for r in Project.load(running_example).analyzed_rules()]
    assert len(doc["pairs"]) == len(names) ** 2
    verdicts = {
        (p["first"], p["second"]): (p["independent"], p["reasons"]) for p in doc["pairs"]
    }
    assert verdicts["createRepo", "updateRepo"] == (False, 1)
    assert verdicts["createProject", "updateRepo"] == (True, 0)
    assert verdicts["getProject", "deleteProject"] == (False, 0)  # a delete overlap
    # a second analysis over the same inputs writes the same bytes
    first = lock.read_bytes()
    _analyzed(running_example, capsys)
    assert lock.read_bytes() == first


def _engine_calls(monkeypatch) -> Counter:
    """Count calls of the overlap engine's entry points from any module."""
    calls: Counter = Counter()
    modules = [m for name, m in sys.modules.items() if name.startswith("graphbac")]
    for name in (
        "dependency_reasons",
        "universally_sequentially_independent",
        "delete_overlap_reasons",
    ):
        original = getattr(dependency, name)

        def counted(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        for module in modules:
            if module.__dict__.get(name) is original:
                monkeypatch.setattr(module, name, counted)
    return calls


def test_a_fresh_sidecar_runs_no_overlap_search(running_example, capsys, monkeypatch):
    lock = _analyzed(running_example, capsys)
    calls = _engine_calls(monkeypatch)
    for command in LATER:
        assert _later(running_example, command) == 0, command
    assert calls == {}
    lock.unlink()  # without the sidecar, each command computes what `analyze` would
    n = len(Project.load(running_example).analyzed_rules())
    for command in LATER:
        calls.clear()
        assert _later(running_example, command) == 0, command
        assert calls == {"dependency_reasons": n * n}, command


@pytest.mark.parametrize("name", ["running-example", "synthetic"])
def test_a_fresh_sidecar_answers_check_theorem_without_parsing(
    tmp_path, capsys, monkeypatch, name
):
    project = tmp_path / name
    if name == "synthetic":
        synthetic_project(project, SYNTHETIC_TINY)
    else:
        shutil.copytree(PROJECTS / name, project)
    _analyzed(project, capsys)
    rules = [r.name for r in Project.load(project).analyzed_rules()]
    calls: Counter = Counter()
    for attr in ("parse_sdl", "to_type_graph", "rules_from_doc"):
        original = getattr(cli, attr)

        def counted(*args, _attr=attr, _original=original, **kwargs):
            calls[_attr] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(cli, attr, counted)
    for source in rules:
        for sink in rules:
            argv = ["check-theorem", "--source", source, "--sink", sink]
            assert main([*argv, "--project", str(project)]) in (0, 1), argv
    assert calls == {}
    capsys.readouterr()
    # without the sidecar the same command parses each input once
    (project / "analysis.lock.json").unlink()
    argv = ["check-theorem", "--source", rules[0], "--sink", rules[-1]]
    assert main([*argv, "--project", str(project)]) in (0, 1)
    assert calls == {"parse_sdl": 1, "to_type_graph": 1, "rules_from_doc": 1}


@pytest.mark.parametrize("sidecar", [True, False])
@pytest.mark.parametrize("flag", ["--source", "--sink"])
def test_check_theorem_names_an_unknown_rule(running_example, capsys, sidecar, flag):
    if sidecar:
        _analyzed(running_example, capsys)
    names = {"--source": "createRepo", "--sink": "updateRepo", flag: "noSuchRule"}
    argv = [item for pair in names.items() for item in pair]
    assert main(["check-theorem", "--project", str(running_example), *argv]) == 2
    assert capsys.readouterr().err == "error: unknown rule noSuchRule\n"


@pytest.mark.parametrize("name", ["running-example", "synthetic"])
def test_analyze_enumerates_each_pair_once(tmp_path, capsys, monkeypatch, name):
    project = tmp_path / name
    if name == "synthetic":
        synthetic_project(project, SYNTHETIC_TINY)
    else:
        shutil.copytree(PROJECTS / name, project)
    n = len(Project.load(project).analyzed_rules())
    calls = _engine_calls(monkeypatch)
    _analyzed(project, capsys)
    # the flow's reasons and the verdicts' together: once per ordered pair
    assert calls["dependency_reasons"] == n * n
    # the verdicts stop at a first delete overlap, and build no witness list
    assert calls["delete_overlap_reasons"] == 0
    assert calls["universally_sequentially_independent"] == 0


def _outputs(project: Path, argv: list[str], capsys) -> tuple[int, str, dict]:
    """Exit code, stdout with the project path taken out, and every file
    of the project but the sidecar."""
    code = main([*argv, "--project", str(project)])
    out = capsys.readouterr().out.replace(str(project), "<project>")
    files = {
        p.name: p.read_bytes()
        for p in sorted(project.iterdir())
        if p.name != "analysis.lock.json"
    }
    return code, out, files


@pytest.mark.parametrize("name", ["running-example", "github-issue", "synthetic"])
def test_the_sidecar_changes_no_output(tmp_path, capsys, name):
    loaded, computed = tmp_path / "loaded", tmp_path / "computed"
    if name == "synthetic":
        synthetic_project(loaded, SYNTHETIC_TINY)
    else:
        shutil.copytree(PROJECTS / name, loaded)
    _analyzed(loaded, capsys)
    shutil.copytree(loaded, computed)
    (computed / "analysis.lock.json").unlink()
    rules = [r.name for r in Project.load(loaded).analyzed_rules()]
    commands = [["review", "apply"], ["plan-tests"], ["check-coverage"]] + [
        ["check-theorem", "--source", source, "--sink", sink]
        for source in rules
        for sink in rules
    ]
    for argv in commands:
        got = _outputs(loaded, argv, capsys)
        assert got == _outputs(computed, argv, capsys), argv
        assert got[0] in (0, 1), argv


def _reformat_rules(project: Path) -> None:
    """Edit only the whitespace of `rules.json`."""
    path = project / "rules.json"
    path.write_text(json.dumps(json.loads(path.read_text()), indent=4))


def _comment_schema(project: Path) -> None:
    """Edit `schema.graphql` so that it derives the same type graph."""
    with (project / "schema.graphql").open("a") as out:
        out.write("\n# the sidecar is keyed on bytes\n")


def _change_rules(project: Path) -> None:
    doc = json.loads((project / "rules.json").read_text())
    doc["rules"][1]["call"]["operation"] = "fetchUser"
    (project / "rules.json").write_text(json.dumps(doc))


def _change_taint(project: Path) -> None:
    (project / "taint.json").write_text('{"tainted_types": ["Issue", "Repository"]}')


def _include_inputs(project: Path) -> None:
    config = json.loads((project / "project.json").read_text())
    config["include_inputs"] = True
    (project / "project.json").write_text(json.dumps(config))


def _change_analysis(project: Path) -> None:
    with (project / "analysis.json").open("a") as out:
        out.write("\n")


@pytest.mark.parametrize("command", sorted(LATER))
@pytest.mark.parametrize(
    "change",
    [
        _change_rules,
        _reformat_rules,
        _comment_schema,
        _change_taint,
        _include_inputs,
        _change_analysis,
    ],
)
def test_a_stale_sidecar_asks_for_analyze(running_example, capsys, command, change):
    # an input type the type graph gains only with include_inputs
    with (running_example / "schema.graphql").open("a") as out:
        out.write("\ninput Label {\n  name: String!\n}\n")
    lock = _analyzed(running_example, capsys)
    change(running_example)
    assert _later(running_example, command) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {lock}: out of date: "), err
    assert err.rstrip().endswith("run `graphbac analyze`"), err


def test_a_missing_analysis_json_asks_for_analyze(running_example, capsys):
    _analyzed(running_example, capsys)
    (running_example / "analysis.json").unlink()
    assert _later(running_example, "plan-tests") == 2
    err = capsys.readouterr().err
    assert "analysis.json is missing; run `graphbac analyze`" in err


def _truncated(text: str) -> str:
    return text[: len(text) // 2]


def _pairs(damage):
    def edit(text: str) -> str:
        doc = json.loads(text)
        damage(doc["pairs"])
        return json.dumps(doc)

    edit.__name__ = damage.__name__
    return edit


def _drop_entry(pairs):
    del pairs[5]


def _verdict(value):
    def damage(pairs):
        pairs[0]["independent"] = value

    damage.__name__ = f"independent={json.dumps(value)}"
    return damage


def _count(value):
    def damage(pairs):
        pairs[0]["reasons"] = value

    damage.__name__ = f"reasons={json.dumps(value)}"
    return damage


@pytest.mark.parametrize("command", sorted(LATER))
@pytest.mark.parametrize(
    "damage",
    [
        _truncated,
        _pairs(_drop_entry),
        _pairs(_verdict("true")),
        _pairs(_verdict(1)),
        _pairs(_verdict(None)),
        _pairs(_count(-1)),
        _pairs(_count(True)),
        _pairs(_count(2)),  # reasons for a pair the sidecar calls independent
        lambda text: "[]",
    ],
    ids=lambda damage: damage.__name__,
)
def test_a_damaged_sidecar_exits_2_naming_it(running_example, capsys, command, damage):
    lock = _analyzed(running_example, capsys)
    lock.write_text(damage(lock.read_text()))
    assert _later(running_example, command) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {lock}"), err
    assert err.count(str(running_example)) == 1, err


@pytest.mark.parametrize("command", ["review apply", "plan-tests", "check-coverage"])
def test_verdicts_of_other_rules_exit_2_naming_the_sidecar(
    running_example, capsys, command
):
    lock = _analyzed(running_example, capsys)
    doc = json.loads(lock.read_text())
    # a complete matrix, but without one analyzed rule
    doc["pairs"] = [
        p for p in doc["pairs"] if "getProject" not in (p["first"], p["second"])
    ]
    lock.write_text(json.dumps(doc))
    assert _later(running_example, command) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {lock}: its verdicts are not those of the analyzed rules")
    assert err.count(str(running_example)) == 1, err


@pytest.mark.parametrize("command", ["review apply", "plan-tests", "check-coverage"])
@pytest.mark.parametrize("where", ["list", "entry"])
@pytest.mark.parametrize("value", ["x", 5, [], {}, None])
def test_damaged_reasons_exit_2_naming_analysis_json(
    running_example, capsys, command, where, value
):
    lock = _analyzed(running_example, capsys)
    path = running_example / "analysis.json"
    doc = json.loads(path.read_text())
    if where == "list":
        doc["pairs"][0]["reasons"] = value
    else:
        doc["pairs"][0]["reasons"][0] = value
    text = json.dumps(doc)
    path.write_text(text)
    # a sidecar that matches the damaged document, so that the reasons are read
    sidecar = json.loads(lock.read_text())
    sidecar["analysis_sha256"] = hashlib.sha256(text.encode()).hexdigest()
    lock.write_text(json.dumps(sidecar))
    assert _later(running_example, command) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: "), err
    assert err.count(str(running_example)) == 1, err


def test_a_damaged_input_names_its_own_file_before_the_sidecar(running_example, capsys):
    _analyzed(running_example, capsys)
    path = running_example / "rules.json"
    path.write_text(path.read_text()[:-10])
    assert _later(running_example, "check-theorem") == 2
    assert capsys.readouterr().err.startswith(f"error: {path}:")


@pytest.mark.parametrize("command", ["plan-tests", "check-coverage", "run-tests"])
@pytest.mark.parametrize("value", [["x"], 5, None])
def test_a_principal_that_is_not_a_string_exits_2_naming_roles_json(
    running_example, capsys, monkeypatch, command, value
):
    for var, token in RUNNING_TOKENS.items():
        monkeypatch.setenv(var, token)
    path = running_example / "roles.json"
    doc = json.loads(path.read_text())
    doc["principals"]["Owner"] = value
    path.write_text(json.dumps(doc))
    assert main([command, "--project", str(running_example)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: "), err
    assert "principal for role Owner" in err


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


@pytest.mark.parametrize(
    "rule, message",
    [
        ("updateRepo", "no role is allowed to call updateRepo"),
        (
            "createUser",
            "seed rule createUser is denied for Owner; cannot establish that principal",
        ),
    ],
)
def test_a_policy_that_blocks_the_plan_exits_2_naming_policy_json(
    running_example, capsys, rule, message
):
    path = running_example / "policy.json"
    doc = json.loads(path.read_text())
    doc["rules"][rule]["allowed"] = []
    path.write_text(json.dumps(doc))
    assert main(["plan-tests", "--project", str(running_example)]) == 2
    assert capsys.readouterr().err == f"error: {path}: {message}\n"


def test_an_unreachable_context_names_no_file(running_example, capsys):
    # without createRepo no setup reaches the repository createIssue needs
    rules_path, policy_path = running_example / "rules.json", running_example / "policy.json"
    rules = json.loads(rules_path.read_text())
    rules["rules"] = [r for r in rules["rules"] if r["name"] != "createRepo"]
    rules_path.write_text(json.dumps(rules))
    policy = json.loads(policy_path.read_text())
    del policy["rules"]["createRepo"]
    policy_path.write_text(json.dumps(policy))
    (running_example / "ledger.json").unlink()
    code = main(["plan-tests", "--project", str(running_example), "--include-unreviewed"])
    err = capsys.readouterr().err
    assert code == 2, err
    assert err.startswith("error: no setup embeds the required context ("), err


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


@pytest.mark.parametrize("command", ["check-coverage", "run-tests"])
def test_a_plan_step_with_an_unknown_rule_exits_2_naming_the_plan(
    running_example, capsys, monkeypatch, command
):
    for var, token in RUNNING_TOKENS.items():
        monkeypatch.setenv(var, token)
    doc = json.loads((running_example / "plan.json").read_text())
    doc["tests"][0]["steps"][-1]["rule"] = "noSuchRule"
    if command == "check-coverage":
        plan = running_example / "plan.json"
        argv = ["check-coverage"]
    else:
        plan = running_example / "elsewhere.json"
        # the port is never contacted: the plan is refused before any request
        argv = ["run-tests", "--plan", str(plan), "--endpoint", "http://127.0.0.1:1/graphql"]
    plan.write_text(json.dumps(doc))
    assert main([*argv, "--project", str(running_example)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {plan}: plan uses rule(s) not in rules.json: noSuchRule\n"
    assert not (running_example / "report.json").exists()


@pytest.mark.parametrize(
    "name, damage, field",
    [
        ("roles.json", _set("Owner", "roles"), "roles"),
        ("roles.json", _set("Owner", "order"), "order"),
        ("roles.json", _set(["ab"], "order"), "order"),
        ("policy.json", _set("Owner", "rules", "createIssue", "allowed"), "allowed"),
    ],
)
def test_a_string_for_a_list_of_roles_exits_2_naming_the_field(
    running_example, capsys, name, damage, field
):
    path = running_example / name
    path.write_text(json.dumps(damage(json.loads(path.read_text()))))
    assert main(["plan-tests", "--project", str(running_example)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: "), err
    assert f"{field} must be a list" in err, err


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


@pytest.mark.parametrize(
    "setting, value",
    [
        pytest.param("matcher", "x", id="matcher-not-an-object"),
        pytest.param("matcher", {"codes": 5}, id="matcher-codes-not-a-list"),
        pytest.param("matcher", {"codes": []}, id="matcher-tests-nothing"),
        pytest.param("matcher", {"message_pattern": "("}, id="matcher-bad-pattern"),
        pytest.param("timeout", "abc", id="timeout-text"),
        pytest.param("timeout", [], id="timeout-list"),
        pytest.param("timeout", -1, id="timeout-negative"),
        pytest.param("timeout", True, id="timeout-bool"),
        pytest.param("timeout", "10", id="timeout-numeric-text"),
        pytest.param("timeout", 1e300, id="timeout-beyond-the-platform"),
        pytest.param("timeout", 10**400, id="timeout-beyond-a-float"),
        pytest.param("cleanup", 5, id="cleanup-number"),
        pytest.param("matcher", [], id="matcher-empty-list"),
        pytest.param("matcher", 0, id="matcher-zero"),
        pytest.param("matcher", False, id="matcher-false"),
        pytest.param("matcher", "", id="matcher-empty-text"),
        pytest.param("matcher", None, id="matcher-null"),
        pytest.param("schemes", {"Owner": 5}, id="scheme-number"),
        pytest.param("schemes", {"Owner": None}, id="scheme-null"),
        pytest.param("schemes", [], id="schemes-empty-list"),
        pytest.param("schemes", "", id="schemes-empty-text"),
    ],
)
def test_malformed_run_setting_exits_2_naming_project_json(
    running_example, capsys, monkeypatch, setting, value
):
    for var, token in RUNNING_TOKENS.items():
        monkeypatch.setenv(var, token)
    path = running_example / "project.json"
    config = json.loads(path.read_text())
    config[setting] = value
    path.write_text(json.dumps(config))
    # the port is never contacted: the settings are refused before any request
    assert main([
        "run-tests", "--project", str(running_example),
        "--endpoint", "http://127.0.0.1:1/graphql",
    ]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: "), err
    assert not (running_example / "report.json").exists()


@pytest.mark.parametrize("endpoint", ["notaurl", "ftp://127.0.0.1/graphql", "http://[::1"])
def test_run_tests_rejects_an_endpoint_that_is_not_an_http_url(
    running_example, capsys, monkeypatch, endpoint
):
    for var, token in RUNNING_TOKENS.items():
        monkeypatch.setenv(var, token)
    args = ["run-tests", "--project", str(running_example), "--endpoint", endpoint]
    assert main(args) == 2
    assert "endpoint must be an http or https URL" in capsys.readouterr().err


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


@pytest.mark.parametrize("port", ["70000", "-5"])
def test_mock_serve_rejects_a_port_out_of_range(running_example, capsys, port):
    assert main(["mock-serve", "--project", str(running_example), "--port", port]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: --port {port}: "), err
    assert "Traceback" not in err


def test_mock_serve_reports_a_busy_port(running_example, capsys):
    with socket.socket() as busy:
        busy.bind(("127.0.0.1", 0))
        busy.listen()
        port = str(busy.getsockname()[1])
        assert main([
            "mock-serve", "--project", str(running_example), "--port", port,
        ]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: --port {port}: cannot bind 127.0.0.1:{port}: "), err
    assert "Traceback" not in err


# ---- oracle -------------------------------------------------------------


def test_oracle_agrees_on_the_toy_projects(capsys):
    for name in ("incident-toy", "incident-chain-toy"):
        assert main([
            "oracle", "--project", str(PROJECTS / name), "--max-depth", "3",
        ]) == 0
        out = capsys.readouterr().out
        assert "static analysis and brute-force enumeration agree" in out


def test_oracle_rejects_a_negative_depth(capsys):
    assert main([
        "oracle", "--project", str(PROJECTS / "incident-toy"), "--max-depth", "-1",
    ]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: --max-depth -1: "), captured.err
    assert captured.out == ""


def test_an_unrealizable_extracted_span_exits_1(capsys, monkeypatch):
    # every concrete produce-use pair then extracts a span the analysis
    # cannot realize: a disagreement, not an internal error
    monkeypatch.setattr(dependency, "_realize", lambda *args: None)
    assert main([
        "oracle", "--project", str(PROJECTS / "incident-toy"), "--max-depth", "3",
    ]) == 1
    captured = capsys.readouterr()
    assert "is not realizable by the analysis" in captured.out
    assert captured.err == ""


def test_toy_projects_fall_back_to_the_typegraph_document():
    project = Project.load(PROJECTS / "incident-toy")
    tg = project.typegraph()
    assert set(tg.node_types) == {"T", "A"}
    assert [r.name for r in project.rules()] == [
        "createIncidentT", "deleteIncidentA", "deleteT",
    ]
    assert project.initial().nodes == {"a0": "A"}
