"""Command line entry point: one subcommand per stage of the analysis pipeline.

A *project* is a directory of plain-text documents — schema, rules, taint
set, role spec, policy annotation, review ledger, test plan, mock config —
named in an optional ``project.json``.  Every stage reads its inputs from the
project, writes its output document back into it, and prints a short summary.
Stage outputs are deterministic: rerunning a stage on identical inputs
produces identical bytes, so the artifacts diff cleanly under version
control and the ledger and plan stay editable by the analyst.

Exit codes: 0 on success; 1 when an analysis or run reports a failure
(unsatisfied coverage, inconclusive theorem check, failed test verdict,
oracle disagreement); 2 on configuration or validation errors; 3 when a test
run finished without failures but with inconclusive verdicts.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterator, Sequence, TypeVar

from .core import GraphError, InstanceGraph, TypeGraph
from .dependency import reason_to_doc
from .mockserver import serve, target_from_doc
from .oracle import run_oracle
from .planner import (
    FLOW_NEGATIVE,
    FLOW_POSITIVE,
    ROLE_NEGATIVE,
    ROLE_POSITIVE,
    PolicyAnnotation,
    RoleSpec,
    TestPlan,
    check_flow_coverage,
    check_role_coverage,
    generate_minimal_tests,
)
from .rules import Rule, rules_from_doc, rules_to_doc
from .runner import (
    FAIL,
    INCONCLUSIVE,
    BacMatcher,
    RunnerConfig,
    run_plan,
    tokens_from_env,
)
from .schema import parse_sdl, to_type_graph, derive_rule_skeletons
from .taint import (
    TaintedFlow,
    TaintedGraphAPI,
    TaintedTypeGraph,
    apply_review,
    check_theorem_conditions,
    classify_sources_sinks,
    init_review_entries,
    ledger_from_doc,
    ledger_to_doc,
    tainted_flow,
)

T = TypeVar("T")

# Document names resolved relative to the project directory; project.json may
# override any of them.
_DEFAULT_PATHS = {
    "schema": "schema.graphql",
    "typegraph": "typegraph.json",
    "rules": "rules.json",
    "derived_rules": "derived-rules.json",
    "taint": "taint.json",
    "roles": "roles.json",
    "policy": "policy.json",
    "ledger": "ledger.json",
    "analysis": "analysis.json",
    "plan": "plan.json",
    "mock": "mock.json",
    "initial": "initial.json",
    "report": "report.json",
}
_SETTINGS = ("endpoint", "schemes", "matcher", "timeout", "cleanup", "include_inputs")


def _read(path: Path) -> str:
    try:
        return path.read_text()
    except FileNotFoundError:
        raise GraphError(f"{path}: file not found") from None
    except OSError as exc:
        raise GraphError(f"{path}: {exc.strerror}") from exc


def _load_json(path: Path) -> object:
    text = _read(path)
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise GraphError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc


@contextmanager
def _file_context(path: Path) -> Iterator[None]:
    """Prefix validation errors with the file they came from."""
    try:
        yield
    except GraphError as exc:
        message = str(exc)
        if not message.startswith(str(path)):
            raise GraphError(f"{path}: {message}") from exc
        raise


def _write_doc(path: Path, doc: object) -> None:
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(f"wrote {path}")


class Project:
    """A project directory with cross-validated documents, loaded once per command."""

    def __init__(self, root: Path, config: dict):
        self.root = root
        self.config = config
        self._loaded: dict[Path, object] = {}

    @classmethod
    def load(cls, root: str | Path) -> "Project":
        root = Path(root)
        if not root.is_dir():
            raise GraphError(f"{root}: not a directory")
        config_path = root / "project.json"
        config = _load_json(config_path) if config_path.exists() else {}
        if not isinstance(config, dict):
            raise GraphError(f"{config_path}: project config must be an object")
        unknown = sorted(set(config) - set(_DEFAULT_PATHS) - set(_SETTINGS))
        if unknown:
            raise GraphError(
                f"{config_path}: unknown project setting(s): {', '.join(unknown)}"
            )
        return cls(root, config)

    def path(self, key: str) -> Path:
        return self.root / self.config.get(key, _DEFAULT_PATHS[key])

    def setting(self, key: str, default: object = None) -> object:
        return self.config.get(key, default)

    def _parsed(self, path: Path, parse: Callable[[object], T], text: bool = False) -> T:
        """`parse` of the document at `path` (JSON unless `text`) on first use,
        its kept result after; the errors it raises name the file."""
        if path not in self._loaded:
            doc = _read(path) if text else _load_json(path)
            with _file_context(path):
                self._loaded[path] = parse(doc)
        return self._loaded[path]

    # ---- documents ------------------------------------------------------

    def schema_model(self):
        return self._parsed(self.path("schema"), parse_sdl, text=True)

    def typegraph(self) -> TypeGraph:
        """From the schema when present, else from a stored type graph document."""
        if self.path("schema").exists():
            include_inputs = bool(self.setting("include_inputs", False))
            return to_type_graph(self.schema_model(), include_inputs=include_inputs)
        tg_path = self.path("typegraph")
        if not tg_path.exists():
            raise GraphError(
                f"{self.path('schema')}: file not found "
                f"(and no {tg_path.name} to fall back on)"
            )
        return self._parsed(tg_path, TypeGraph.from_doc)

    def rules(self) -> list[Rule]:
        return self._parsed(self.path("rules"), lambda d: rules_from_doc(d, self.typegraph()))

    def rules_by_name(self) -> dict[str, Rule]:
        return {r.name: r for r in self.rules()}

    def analyzed_rules(self) -> list[Rule]:
        return [r for r in self.rules() if not r.setup_only]

    def setup_rules(self) -> list[Rule]:
        return [r for r in self.rules() if r.setup_only]

    def tainted_typegraph(self) -> TaintedTypeGraph:
        def parse(doc: object) -> TaintedTypeGraph:
            if not isinstance(doc, dict) or not isinstance(doc.get("tainted_types"), list):
                raise GraphError("taint document must have a tainted_types array")
            if not all(isinstance(t, str) for t in doc["tainted_types"]):
                raise GraphError("tainted_types must hold type names")
            return TaintedTypeGraph(self.typegraph(), tuple(doc["tainted_types"]))

        return self._parsed(self.path("taint"), parse)

    def api(self) -> TaintedGraphAPI:
        return classify_sources_sinks(self.analyzed_rules(), self.tainted_typegraph())

    def flow(self, reviewed: bool = True) -> TaintedFlow:
        """The tainted flow, with the review ledger applied when it exists."""
        flow = tainted_flow(self.api())
        ledger_path = self.path("ledger")
        if reviewed and ledger_path.exists():
            entries = self._parsed(ledger_path, ledger_from_doc)
            with _file_context(ledger_path):
                flow = apply_review(flow, entries)
        return flow

    def roles(self) -> RoleSpec:
        return self._parsed(self.path("roles"), RoleSpec.from_doc)

    def policy(self) -> PolicyAnnotation:
        def parse(doc: object) -> PolicyAnnotation:
            policy = PolicyAnnotation.from_doc(doc)
            policy.validate_against(self.roles(), [r.name for r in self.rules()])
            return policy

        return self._parsed(self.path("policy"), parse)

    def plan(self, override: str | None = None) -> TestPlan:
        def parse(doc: object) -> TestPlan:
            plan = TestPlan.from_doc(doc)
            spec = self.roles()
            used = set(plan.roles.roles) | {
                s.role for t in plan.tests for s in t.steps
            }
            extra = sorted(used - set(spec.roles))
            if extra:
                raise GraphError(
                    "plan uses role(s) not in the project role spec: "
                    + ", ".join(extra)
                )
            return plan

        return self._parsed(Path(override) if override else self.path("plan"), parse)

    def initial(self) -> InstanceGraph:
        path = self.path("initial")
        if not path.exists():
            return InstanceGraph.empty(self.typegraph())
        return self._parsed(path, lambda d: InstanceGraph.from_doc(d, self.typegraph()))


# --------------------------------------------------------------------------
# subcommands


def cmd_ingest(args: argparse.Namespace) -> int:
    project = Project.load(args.project)
    tg = to_type_graph(
        project.schema_model(),
        include_inputs=bool(project.setting("include_inputs", False)),
    )
    print(
        f"ingested {project.path('schema')}: "
        f"{len(tg.node_types)} node types, {len(tg.edge_types)} edge types"
    )
    _write_doc(project.path("typegraph"), tg.to_doc())
    return 0


def cmd_derive_rules(args: argparse.Namespace) -> int:
    project = Project.load(args.project)
    result = derive_rule_skeletons(
        project.schema_model(),
        include_inputs=bool(project.setting("include_inputs", False)),
    )
    print(f"derived {len(result.rules)} rule skeletons from {project.path('schema')}")
    for name in result.unhandled:
        print(f"  unhandled entry field (model by hand): {name}")
    _write_doc(project.path("derived_rules"), rules_to_doc(result.rules))
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    project = Project.load(args.project)
    flow = project.flow(reviewed=False)
    api = flow.api
    doc = {
        "tainted_types": list(api.tainted_typegraph.tainted),
        "sources": {t: list(names) for t, names in sorted(api.sources.items())},
        "sinks": {t: list(names) for t, names in sorted(api.sinks.items())},
        "pairs": [
            {
                "source": source,
                "sink": sink,
                "reasons": [reason_to_doc(r) for r in flow.reasons_for(source, sink)],
            }
            for source, sink in flow.pairs()
        ],
    }
    tainted = sum(1 for r in flow.reasons if r.tainted)
    print(
        f"analyzed {len(api.rules)} rules over "
        f"{len(api.tainted_typegraph.tainted)} tainted types: "
        f"{len(flow.pairs())} dependency pairs, "
        f"{len(flow.reasons)} reasons ({tainted} tainted)"
    )
    for source, sink in flow.pairs():
        count = len(flow.reasons_for(source, sink))
        label = "reason" if count == 1 else "reasons"
        print(f"  {source} -> {sink}  ({count} {label})")
    _write_doc(project.path("analysis"), doc)
    return 0


def cmd_review_init(args: argparse.Namespace) -> int:
    project = Project.load(args.project)
    ledger_path = project.path("ledger")
    if ledger_path.exists() and not args.force:
        raise GraphError(
            f"{ledger_path}: already exists; pass --force to discard the "
            "existing review and start over"
        )
    entries = init_review_entries(project.flow(reviewed=False))
    print(f"review skeleton has {len(entries)} unreviewed entries")
    _write_doc(ledger_path, ledger_to_doc(entries))
    return 0


def cmd_review_apply(args: argparse.Namespace) -> int:
    project = Project.load(args.project)
    ledger_path = project.path("ledger")
    if not ledger_path.exists():
        raise GraphError(
            f"{ledger_path}: file not found (run `graphbac review init` first)"
        )
    flow = project.flow(reviewed=True)
    print(
        f"{len(flow.reasons)} reasons: {len(flow.secured_ids())} secured, "
        f"{len(flow.unsecured_ids())} unsecured, "
        f"{len(flow.unreviewed_ids())} unreviewed"
    )
    for rid in flow.secured_ids():
        print(f"  secured     {rid}")
    for rid in flow.unsecured_ids():
        print(f"  unsecured   {rid}")
    for rid in flow.unreviewed_ids():
        print(f"  unreviewed  {rid}")
    if flow.policy_stable_under_shift():
        print("policy stability under shift is asserted for every reviewed reason")
    else:
        print(
            "policy stability under shift is not asserted for every reason; "
            "minimal tests may not be conclusive"
        )
    return 0


def cmd_check_theorem(args: argparse.Namespace) -> int:
    project = Project.load(args.project)
    check = check_theorem_conditions(project.api(), args.source, args.sink)
    reasons = "reason" if check.reason_count == 1 else "reasons"
    print(f"{check.source} -> {check.sink}: {check.reason_count} dependency {reasons}")
    if check.condition1_holds:
        print("condition 1 holds: the source is sequentially independent of every other rule")
    else:
        print(f"condition 1 fails for: {', '.join(check.condition1_failures)}")
    if check.condition2_holds:
        print("condition 2 holds: every other rule is sequentially independent of the sink")
    else:
        print(f"condition 2 fails for: {', '.join(check.condition2_failures)}")
    if check.conclusive:
        print(
            f"verdict: conclusive via {check.verdict} — a minimal test for this "
            "pair decides the access-control question"
        )
    else:
        print(
            "verdict: neither condition holds — minimal tests may miss "
            "indirect dependencies for this pair"
        )
    if check.blind_spot:
        print(
            "blind spot: the pair also has no direct dependency reason, so an "
            "indirect dependency would go untested"
        )
    print(f"caveat: {check.caveat}")
    return 0 if check.conclusive else 1


def cmd_plan_tests(args: argparse.Namespace) -> int:
    project = Project.load(args.project)
    plan = generate_minimal_tests(
        project.flow(reviewed=True),
        project.roles(),
        project.policy(),
        setup_rules=project.setup_rules(),
        initial=project.initial(),
        include_unreviewed=args.include_unreviewed,
    )
    counts = {kind: len(plan.by_kind(kind)) for kind in (
        FLOW_POSITIVE, FLOW_NEGATIVE, ROLE_POSITIVE, ROLE_NEGATIVE,
    )}
    print(
        f"planned {len(plan.tests)} tests: "
        f"{counts[FLOW_POSITIVE]} flow-positive, {counts[FLOW_NEGATIVE]} flow-negative, "
        f"{counts[ROLE_POSITIVE]} role-positive, {counts[ROLE_NEGATIVE]} role-negative"
    )
    for rid in plan.negative_infeasible:
        print(f"  no negative test possible for {rid} (every role may call the sink)")
    for note in plan.notes:
        print(f"  note: {note}")
    _write_doc(project.path("plan"), plan.to_doc())
    return 0


def cmd_check_coverage(args: argparse.Namespace) -> int:
    project = Project.load(args.project)
    plan = project.plan()
    flow_report = check_flow_coverage(plan, project.flow(reviewed=True))
    role_report = check_role_coverage(plan, project.roles())
    covered = [r for r in flow_report.reasons if r.satisfied]
    print(
        f"flow coverage: {len(covered)}/{len(flow_report.reasons)} reasons have "
        "a positive test and a negative test (or an infeasibility record)"
    )
    for rid in flow_report.uncovered():
        print(f"  uncovered reason: {rid}")
    satisfied_roles = [r for r in role_report.roles if r.satisfied]
    print(
        f"role coverage: {len(satisfied_roles)}/{len(role_report.roles)} roles have "
        "the required positive and negative tests"
    )
    for entry in role_report.roles:
        if entry.negative_waived:
            print(f"  negative waived for least-privileged role {entry.role}")
        if not entry.satisfied:
            print(f"  uncovered role: {entry.role}")
    if flow_report.satisfied and role_report.satisfied:
        print("coverage: satisfied")
        return 0
    print("coverage: NOT satisfied")
    return 1


def cmd_run_tests(args: argparse.Namespace) -> int:
    project = Project.load(args.project)
    plan = project.plan(override=args.plan)
    endpoint = args.endpoint or project.setting("endpoint")
    if not endpoint:
        raise GraphError(
            "no endpoint configured; pass --endpoint or set endpoint in project.json"
        )
    matcher_doc = project.setting("matcher")
    schemes = project.setting("schemes") or {}
    if not isinstance(schemes, dict):
        raise GraphError(f"{project.root / 'project.json'}: schemes must be an object")
    config = RunnerConfig(
        endpoint=str(endpoint),
        tokens=tokens_from_env(plan.roles),
        schemes={str(k): str(v) for k, v in schemes.items()},
        matcher=BacMatcher.from_doc(matcher_doc) if matcher_doc else BacMatcher(),
        timeout=float(project.setting("timeout", 10.0)),
        cleanup=args.cleanup or str(project.setting("cleanup", "none")),
    )
    report = run_plan(plan, config, rules=project.rules_by_name())
    print(report.render_text())
    _write_doc(project.path("report"), report.to_doc())
    counts = report.counts()
    if counts.get(FAIL):
        return 1
    if counts.get(INCONCLUSIVE):
        return 3
    return 0


def _parse_fault(spec: str) -> dict:
    parts = spec.split(":")
    if len(parts) == 2 and parts[0] == "drop_check":
        return {"kind": "drop_check", "rule": parts[1]}
    if len(parts) == 3 and parts[0] == "over_restrict":
        return {"kind": "over_restrict", "rule": parts[1], "role": parts[2]}
    raise GraphError(
        f"malformed fault {spec!r}: expected drop_check:RULE or over_restrict:RULE:ROLE"
    )


def _serve_forever(server) -> None:
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()


def cmd_mock_serve(args: argparse.Namespace) -> int:
    project = Project.load(args.project)
    config_path = Path(args.config) if args.config else project.path("mock")
    doc = _load_json(config_path)
    if not isinstance(doc, dict):
        raise GraphError(f"{config_path}: mock config must be an object")
    if args.fault:
        doc = {**doc, "faults": list(doc.get("faults", []))}
        doc["faults"].extend(_parse_fault(spec) for spec in args.fault)
    with _file_context(config_path):
        target = target_from_doc(
            doc, project.rules(), project.roles(), initial=project.initial()
        )
    server = serve(target, port=args.port)
    port = server.server_address[1]
    print(f"serving mock target on http://127.0.0.1:{port}/graphql", flush=True)
    _serve_forever(server)
    return 0


def cmd_oracle(args: argparse.Namespace) -> int:
    project = Project.load(args.project)
    rules = project.rules()
    analyzed = [r for r in rules if not r.setup_only]
    report = run_oracle(analyzed, rules, project.initial(), depth=args.max_depth)
    print(
        f"oracle at depth {report.depth}: explored {report.hosts_explored} hosts, "
        f"checked {report.pairs_checked} ordered rule pairs "
        f"({report.elapsed_seconds:.1f}s)"
    )
    for item in report.disagreements:
        print(f"  disagreement: {item}")
    if report.agreed:
        print("static analysis and brute-force enumeration agree")
        return 0
    print(f"{len(report.disagreements)} disagreement(s) found")
    return 1


# --------------------------------------------------------------------------
# argument parsing


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graphbac",
        description=(
            "Static and dynamic taint analysis for broken access control "
            "in graph APIs."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    def add(name: str, func, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text, description=help_text)
        p.add_argument(
            "--project",
            default=".",
            help="project directory (default: current directory)",
        )
        p.set_defaults(func=func)
        return p

    add("ingest", cmd_ingest, "parse the schema and write the derived type graph")
    add(
        "derive-rules",
        cmd_derive_rules,
        "derive rule skeletons from the schema as a starting point for modeling",
    )
    add(
        "analyze",
        cmd_analyze,
        "compute dependency reasons between source and sink rules",
    )

    review = sub.add_parser(
        "review", help="manage the analyst review ledger over the analysis"
    )
    review_sub = review.add_subparsers(dest="action", required=True, metavar="action")
    init_p = review_sub.add_parser(
        "init", help="write a ledger skeleton with one unreviewed entry per reason"
    )
    init_p.add_argument("--project", default=".", help="project directory")
    init_p.add_argument(
        "--force", action="store_true", help="overwrite an existing ledger"
    )
    init_p.set_defaults(func=cmd_review_init)
    apply_p = review_sub.add_parser(
        "apply", help="validate the ledger against the analysis and show its state"
    )
    apply_p.add_argument("--project", default=".", help="project directory")
    apply_p.set_defaults(func=cmd_review_apply)

    theorem = add(
        "check-theorem",
        cmd_check_theorem,
        "check the sufficient conditions for a pair's minimal test to be conclusive",
    )
    theorem.add_argument("--source", required=True, help="source rule name")
    theorem.add_argument("--sink", required=True, help="sink rule name")

    plan_p = add(
        "plan-tests",
        cmd_plan_tests,
        "generate the coverage-complete test plan from the reviewed analysis",
    )
    plan_p.add_argument(
        "--include-unreviewed",
        action="store_true",
        help="plan over a flow whose reasons are not all reviewed",
    )

    add(
        "check-coverage",
        cmd_check_coverage,
        "check the plan against the flow and role coverage criteria",
    )

    run_p = add("run-tests", cmd_run_tests, "execute the plan against an endpoint")
    run_p.add_argument("--plan", help="plan document (default: the project's plan)")
    run_p.add_argument("--endpoint", help="GraphQL endpoint URL")
    run_p.add_argument(
        "--cleanup",
        choices=("none", "reset"),
        help="state cleanup after the run (default: from project settings)",
    )

    serve_p = add("mock-serve", cmd_mock_serve, "serve the in-memory mock target")
    serve_p.add_argument(
        "--config", help="mock config document (default: the project's mock config)"
    )
    serve_p.add_argument(
        "--port", type=int, default=0, help="port to bind (default: any free port)"
    )
    serve_p.add_argument(
        "--fault",
        action="append",
        metavar="KIND:RULE[:ROLE]",
        help="inject an extra fault, e.g. drop_check:updateIssue (repeatable)",
    )

    oracle_p = add(
        "oracle",
        cmd_oracle,
        "compare the static analysis against brute-force enumeration",
    )
    oracle_p.add_argument(
        "--max-depth",
        type=int,
        default=3,
        help="exploration depth from the initial graph (default: 3)",
    )

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except GraphError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
