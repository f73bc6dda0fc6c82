"""Shared model fixtures, read from the example projects the repo ships.

`projects/running-example` is the collaboration API; `incident-toy` and
`incident-chain-toy` are two small toy systems.  Every call loads its
project again, so no test sees another's objects.  The collaboration rules
are typed over `collab_typegraph()`, the hand-written reference the schema
frontend is tested against, and not over the graph derived from the
project's schema, which also carries attributes.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from graphbac.cli import Project
from graphbac.core import EdgeType, InstanceGraph, TypeGraph
from graphbac.planner import PolicyAnnotation, RoleSpec, TestPlan, generate_minimal_tests
from graphbac.rules import Rule, rules_from_doc
from graphbac.taint import (
    TaintedFlow,
    TaintedTypeGraph,
    apply_review,
    classify_sources_sinks,
    ledger_from_doc,
    tainted_flow,
)

ROOT = Path(__file__).resolve().parent.parent
PROJECTS = ROOT / "projects"
sys.path.insert(0, str(ROOT / "perfbench"))

import gen  # noqa: E402  (the benchmark's seeded project generator)

# sizes of gen.synthetic_project: the benchmark's pipeline project, and a tiny one
SYNTHETIC_FULL = {"chain": 5, "hub": 3, "star": 9}
SYNTHETIC_TINY = {"chain": 2, "hub": 1, "star": 2}


def synthetic_project(target: Path, size: dict, seed: int = 3) -> Path:
    """Write the benchmark's generated chain, hub and star project to `target`."""
    gen.write_project(gen.synthetic_project(seed, **size), target)
    return target


def _collab_doc(name: str) -> object:
    return json.loads((PROJECTS / "running-example" / name).read_text())


def collab_typegraph() -> TypeGraph:
    return TypeGraph(
        node_types=("User", "Repository", "Project", "Issue"),
        edge_types=(
            EdgeType("User.repos", "User", "Repository"),
            EdgeType("Repository.owner", "Repository", "User"),
            EdgeType("User.projects", "User", "Project"),
            EdgeType("Issue.repo", "Issue", "Repository"),
        ),
    )


def collab_rules() -> dict[str, Rule]:
    rules = rules_from_doc(_collab_doc("rules.json"), collab_typegraph())
    return {r.name: r for r in rules}


def analyzed_collab_rules() -> dict[str, Rule]:
    return {name: r for name, r in collab_rules().items() if not r.setup_only}


def incident_typegraph() -> TypeGraph:
    return Project.load(PROJECTS / "incident-toy").typegraph()


def incident_rules() -> dict[str, Rule]:
    return Project.load(PROJECTS / "incident-toy").rules_by_name()


def incident_initial() -> InstanceGraph:
    return Project.load(PROJECTS / "incident-toy").initial()


def chain_typegraph() -> TypeGraph:
    return Project.load(PROJECTS / "incident-chain-toy").typegraph()


def chain_rules() -> dict[str, Rule]:
    return Project.load(PROJECTS / "incident-chain-toy").rules_by_name()


def chain_initial() -> InstanceGraph:
    return Project.load(PROJECTS / "incident-chain-toy").initial()


def collab_roles() -> RoleSpec:
    return RoleSpec.from_doc(_collab_doc("roles.json"))


def collab_policy() -> PolicyAnnotation:
    return PolicyAnnotation.from_doc(_collab_doc("policy.json"))


def policy_to_doc(policy: PolicyAnnotation) -> dict:
    """The policy document `PolicyAnnotation.from_doc` reads."""
    doc: dict = {
        "rules": {
            rule: {"allowed": list(roles)} for rule, roles in sorted(policy.allowed.items())
        }
    }
    for rule in policy.creator_only:
        doc["rules"].setdefault(rule, {})["creator_only"] = True
    for rule in policy.non_monotone:
        doc["rules"].setdefault(rule, {})["non_monotone"] = True
    return doc


def collab_tainted_typegraph() -> TaintedTypeGraph:
    tainted = _collab_doc("taint.json")["tainted_types"]
    return TaintedTypeGraph(collab_typegraph(), tuple(tainted))


def reviewed_collab_flow() -> TaintedFlow:
    ttg = collab_tainted_typegraph()
    flow = tainted_flow(classify_sources_sinks(analyzed_collab_rules().values(), ttg))
    return apply_review(flow, ledger_from_doc(_collab_doc("ledger.json")))


def collab_plan() -> TestPlan:
    return generate_minimal_tests(
        reviewed_collab_flow(),
        collab_roles(),
        collab_policy(),
        setup_rules=[collab_rules()["createUser"]],
        initial=InstanceGraph.empty(collab_typegraph()),
    )
