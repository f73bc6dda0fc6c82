"""Acceptance checks, one per advertised guarantee of the toolkit.

Each test prints a single `PASS criterion-N` / `FAIL criterion-N` line so the
suite output doubles as a checklist of what the package promises:

 1. static analysis of the collaboration example finds exactly six
    dependency pairs, quickly;
 2. the repository create/update pair has exactly one reason, spanning the
    whole created subgraph;
 3. pairs hidden from the static analysis by the dangling condition still
    show up dynamically as three-step indirect sequences;
 4. the independence conditions make minimal tests conclusive on a
    restricted API;
 5. brute-force enumeration up to depth three agrees with the static
    analysis;
 6. the generated plan has twelve flow tests plus six role tests and
    satisfies both coverage checkers;
 7. every planned test succeeds against the bundled mock endpoint;
 8. an injected missing-authorization fault is detected by exactly the
    negative tests aimed at the broken call, and nothing else moves;
 9. the version-control example yields the commit/compare dependency edge,
    and the runner flags the scheme whose comparison is not locked down;
10. the rewriting engine upholds its invariants across a thousand
    randomized applications.
"""

from __future__ import annotations

import json
import random
import re
import shutil
import time
from pathlib import Path

import pytest

from graphbac.cli import Project, main
from graphbac.core import InstanceGraph, check_dangling, enumerate_matches
from graphbac.dependency import (
    dependency_reasons,
    universally_sequentially_independent,
)
from graphbac.mockserver import start_in_background, target_from_doc
from graphbac.oracle import find_flow_witness, run_oracle
from graphbac.planner import (
    FLOW_NEGATIVE,
    FLOW_POSITIVE,
    ROLE_NEGATIVE,
    ROLE_POSITIVE,
    check_flow_coverage,
    check_role_coverage,
)
from graphbac.rules import (
    PRESERVE,
    NotApplicableError,
    Rule,
    apply,
    apply_inverse,
    isomorphic,
)
from graphbac.taint import (
    TaintedTypeGraph,
    check_theorem_conditions,
    classify_sources_sinks,
    pair_verdicts,
    tainted_flow,
)

from fixtures import (
    chain_initial,
    chain_rules,
    collab_rules,
    collab_typegraph,
    incident_initial,
    incident_rules,
)
from randgen import host_with_embedded_lhs, random_rule, random_typegraph

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

THE_SIX_PAIRS = {
    ("createIssue", "updateIssue"),
    ("createIssue", "deleteIssue"),
    ("createProject", "getProject"),
    ("createProject", "deleteProject"),
    ("createRepo", "updateRepo"),
    ("createRepo", "createIssue"),
}


@pytest.fixture
def report(capsys, request):
    number = int(re.search(r"criterion_(\d+)", request.node.name).group(1))

    def _report(ok: bool, detail: str) -> None:
        line = f"{'PASS' if ok else 'FAIL'} criterion-{number}: {detail}"
        with capsys.disabled():
            print(line)
        assert ok, line

    return _report


def _copy(tmp_path: Path, name: str) -> Path:
    target = tmp_path / name
    shutil.copytree(PROJECTS / name, target)
    return target


def _served(project_dir: Path, faults: list[dict] | None = None):
    project = Project.load(project_dir)
    doc = json.loads((project_dir / "mock.json").read_text())
    if faults:
        doc["faults"] = list(doc.get("faults", [])) + faults
    target = target_from_doc(doc, project.rules(), project.roles(), project.initial())
    server, _thread = start_in_background(target)
    return server, f"http://127.0.0.1:{server.server_address[1]}/graphql"


def _run_against_mock(project_dir: Path, faults: list[dict] | None = None):
    """Exit code and parsed report of a run-tests invocation over a live mock."""
    server, endpoint = _served(project_dir, faults)
    try:
        code = main(["run-tests", "--project", str(project_dir), "--endpoint", endpoint])
    finally:
        server.shutdown()
        server.server_close()
    return code, json.loads((project_dir / "report.json").read_text())


def test_criterion_01_analysis_reports_exactly_the_six_pairs(tmp_path, report):
    project_dir = _copy(tmp_path, "running-example")
    started = time.monotonic()
    code = main(["analyze", "--project", str(project_dir)])
    elapsed = time.monotonic() - started
    doc = json.loads((project_dir / "analysis.json").read_text())
    pairs = {(p["source"], p["sink"]) for p in doc["pairs"]}
    report(
        code == 0 and pairs == THE_SIX_PAIRS and elapsed < 10.0,
        f"analysis found {len(pairs)} dependency pairs "
        f"({'the expected six' if pairs == THE_SIX_PAIRS else sorted(pairs)}) "
        f"in {elapsed:.2f}s",
    )


def test_criterion_02_repo_update_has_one_whole_span_reason(report):
    rules = collab_rules()
    reasons = dependency_reasons(rules["createRepo"], rules["updateRepo"])
    rhs = rules["createRepo"].rhs
    ok = (
        len(reasons) == 1
        and reasons[0].id == "createRepo->updateRepo#0"
        and set(reasons[0].span.nodes) == set(rhs.nodes)
        and set(reasons[0].span.edges) == set(rhs.edges)
    )
    report(
        ok,
        f"createRepo->updateRepo has {len(reasons)} reason(s); "
        "the span is the whole created repository subgraph",
    )


def test_criterion_03_dangling_blind_spots_have_indirect_witnesses(report):
    problems = []

    incident = incident_rules()
    if dependency_reasons(incident["createIncidentT"], incident["deleteT"]):
        problems.append("incident pair unexpectedly has a static reason")
    witness = find_flow_witness(
        incident["createIncidentT"],
        incident["deleteT"],
        incident.values(),
        incident_initial(),
        max_len=3,
    )
    if witness is None or [t.rule.name for t in witness] != [
        "createIncidentT", "deleteIncidentA", "deleteT",
    ]:
        problems.append("no three-step create/unlink/delete sequence found")
    elif not witness[0].created_node_ids() & set(witness[-1].match.node_map.values()):
        problems.append("final step does not touch what the first step created")

    chain = chain_rules()
    if dependency_reasons(chain["createIncidentT"], chain["createIncidentBPlus"]):
        problems.append("chain pair unexpectedly has a static reason")
    witness = find_flow_witness(
        chain["createIncidentT"],
        chain["createIncidentBPlus"],
        chain.values(),
        chain_initial(),
        max_len=3,
    )
    if witness is None or [t.rule.name for t in witness] != [
        "createIncidentT", "createIncidentB", "createIncidentBPlus",
    ]:
        problems.append("no three-step create/extend/use sequence found")

    report(
        not problems,
        "; ".join(problems)
        or "both toy systems: zero static reasons, three-step dynamic witnesses",
    )


def test_criterion_04_independence_makes_minimal_tests_conclusive(report):
    rules = collab_rules()
    restricted = [rules[n] for n in ("createRepo", "updateRepo", "createProject")]
    api = classify_sources_sinks(
        restricted, TaintedTypeGraph(collab_typegraph(), ("Project", "Repository"))
    )
    independent = universally_sequentially_independent(
        rules["createProject"], rules["updateRepo"]
    )
    check = check_theorem_conditions(
        "createRepo", "updateRepo", pair_verdicts(tainted_flow(api))
    )
    report(
        independent and check.conclusive and check.reason_count == 1,
        "createProject is universally sequentially independent of updateRepo; "
        f"createRepo->updateRepo conclusive via {check.verdict} "
        f"with {check.reason_count} reason",
    )


def test_criterion_05_brute_force_enumeration_agrees(report):
    rules = collab_rules()
    analyzed = [r for r in rules.values() if not r.setup_only]
    outcome = run_oracle(
        analyzed, rules.values(), InstanceGraph(collab_typegraph(), {}, {}), depth=3
    )
    report(
        outcome.agreed and outcome.depth == 3 and outcome.elapsed_seconds < 300.0,
        f"depth {outcome.depth}: {outcome.hosts_explored} hosts, "
        f"{outcome.pairs_checked} pairs, {len(outcome.disagreements)} disagreements "
        f"in {outcome.elapsed_seconds:.1f}s",
    )


def test_criterion_06_plan_composition_and_coverage(report):
    project = Project.load(PROJECTS / "running-example")
    plan = project.plan()
    counts = {
        kind: len(plan.by_kind(kind))
        for kind in (FLOW_POSITIVE, FLOW_NEGATIVE, ROLE_POSITIVE, ROLE_NEGATIVE)
    }
    flow_tests = counts[FLOW_POSITIVE] + counts[FLOW_NEGATIVE]
    role_tests = counts[ROLE_POSITIVE] + counts[ROLE_NEGATIVE]
    flow_cov = check_flow_coverage(plan, project.flow(reviewed=True))
    role_cov = check_role_coverage(plan, project.roles())
    report(
        flow_tests == 12
        and role_tests == 6
        and len(plan.tests) == 18
        and flow_cov.satisfied
        and role_cov.satisfied,
        f"{flow_tests} flow tests + {role_tests} role tests = {len(plan.tests)}; "
        f"flow coverage {'satisfied' if flow_cov.satisfied else 'NOT satisfied'}, "
        f"role coverage {'satisfied' if role_cov.satisfied else 'NOT satisfied'}",
    )


def test_criterion_07_every_planned_test_succeeds_on_the_mock(
    tmp_path, report, monkeypatch
):
    for var, token in RUNNING_TOKENS.items():
        monkeypatch.setenv(var, token)
    project_dir = _copy(tmp_path, "running-example")
    started = time.monotonic()
    code, outcome = _run_against_mock(project_dir)
    elapsed = time.monotonic() - started
    successes = [
        r for r in outcome["results"]
        if r["classification"] in ("positive-success", "negative-success")
    ]
    report(
        code == 0
        and len(outcome["results"]) == 18
        and len(successes) == 18
        and outcome["all_passed"],
        f"{len(successes)}/{len(outcome['results'])} tests succeeded "
        f"in {elapsed:.1f}s",
    )


def test_criterion_08_injected_fault_is_localized(tmp_path, report, monkeypatch):
    for var, token in RUNNING_TOKENS.items():
        monkeypatch.setenv(var, token)
    project_dir = _copy(tmp_path, "running-example")

    base_code, baseline = _run_against_mock(project_dir)
    fault_code, faulted = _run_against_mock(
        project_dir, faults=[{"kind": "drop_check", "rule": "updateIssue"}]
    )

    plan = json.loads((project_dir / "plan.json").read_text())
    expected_hits = sorted(
        t["id"] for t in plan["tests"]
        if not t["expected_access"] and t["steps"][-1]["rule"] == "updateIssue"
    )
    outcomes = lambda doc: {r["test_id"]: r["classification"] for r in doc["results"]}
    moved = {
        tid for tid in outcomes(baseline)
        if outcomes(baseline)[tid] != outcomes(faulted)[tid]
    }
    report(
        base_code == 0
        and fault_code == 1
        and expected_hits
        and faulted["detected_vulnerabilities"] == expected_hits
        and moved == set(expected_hits)
        and all(outcomes(faulted)[tid] == "negative-fail" for tid in expected_hits),
        f"dropping updateIssue's check flipped exactly {sorted(moved)} "
        "to negative-fail; every other verdict unchanged",
    )


def test_criterion_09_scheme_divergence_is_detected(tmp_path, report, monkeypatch):
    for var, token in GH_TOKENS.items():
        monkeypatch.setenv(var, token)
    project_dir = _copy(tmp_path, "github-issue")

    analyze_code = main(["analyze", "--project", str(project_dir)])
    analysis = json.loads((project_dir / "analysis.json").read_text())
    edge = next(
        (
            p for p in analysis["pairs"]
            if (p["source"], p["sink"]) == ("createCommitOnBranch", "compare")
        ),
        None,
    )

    run_code, outcome = _run_against_mock(project_dir)
    classifications = {r["test_id"]: r["classification"] for r in outcome["results"]}
    report(
        analyze_code == 0
        and edge is not None
        and len(edge["reasons"]) == 2
        and run_code == 1
        and classifications.get("compare-oauth") == "negative-success"
        and classifications.get("compare-fine-grained") == "negative-fail"
        and outcome["detected_vulnerabilities"] == ["compare-fine-grained"],
        "createCommitOnBranch->compare found with "
        f"{len(edge['reasons']) if edge else 0} reasons; bearer comparison "
        "denied, fine-grained comparison let through and flagged",
    )


def _dpo_case(rule: Rule, host: InstanceGraph, match) -> tuple[str, str]:
    """Run one rule application and check every engine invariant on it.

    Returns (status, problem) with status `applied`, `refused`, or `violation`.
    """
    dangling_ok = check_dangling(match, rule.deleted_nodes())
    try:
        step = apply(rule, host, match)
    except NotApplicableError:
        if dangling_ok:
            return "violation", "refused although no deleted node dangles"
        return "refused", ""
    if not dangling_ok:
        return "violation", "applied although a deleted node dangles"

    deleted_nodes = {match.node_map[n] for n in rule.deleted_nodes()}
    deleted_edges = {match.edge_map[e] for e in rule.deleted_edges()}
    for nid, ntype in host.nodes.items():
        expected = None if nid in deleted_nodes else ntype
        if step.result.nodes.get(nid) != expected:
            return "violation", f"frame broken at node {nid}"
    for eid, edge in host.edges.items():
        expected = None if eid in deleted_edges else edge
        if step.result.edges.get(eid) != expected:
            return "violation", f"frame broken at edge {eid}"
    for created in step.created_ids():
        if created in host.nodes or created in host.edges:
            return "violation", f"created id {created} already existed"

    pure_read = not (
        rule.created_nodes() or rule.created_edges()
        or rule.deleted_nodes() or rule.deleted_edges()
    )
    if pure_read and step.result != host:
        return "violation", "a read rule changed the host"

    back = apply_inverse(rule, step.result, step.comatch)
    if rule.deleted_nodes() or rule.deleted_edges():
        if not isomorphic(back, host):
            return "violation", "inverse round trip lost the host's shape"
    elif back != host:
        return "violation", "inverse round trip changed the host"
    return "applied", ""


def test_criterion_10_randomized_engine_invariants(report):
    master = random.Random(823_001)
    attempts = applied = refused = 0
    violations: list[str] = []

    case = 0
    while attempts < 1000 and len(violations) < 5:
        case += 1
        rng = random.Random(master.randrange(10**9))
        typegraph = random_typegraph(rng)
        rule = random_rule(rng, typegraph, name=f"c{case}")
        if case % 10 == 0:
            # force pure-read cases into the mix: identical sides, no effect
            rule = Rule(
                name=rule.name,
                typegraph=typegraph,
                nodes=rule.nodes,
                edges=rule.edges,
                tags={element: PRESERVE for element in rule.tags},
            )
        host = host_with_embedded_lhs(rng, rule)
        for match in enumerate_matches(rule.lhs, host)[:2]:
            attempts += 1
            status, problem = _dpo_case(rule, host, match)
            if status == "applied":
                applied += 1
            elif status == "refused":
                refused += 1
            else:
                violations.append(f"case {case}: {problem}")

    report(
        attempts >= 1000 and applied >= 300 and not violations,
        violations[0] if violations else (
            f"{attempts} randomized applications: {applied} applied with all "
            f"invariants intact, {refused} justified refusals"
        ),
    )
