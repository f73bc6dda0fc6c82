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
run finished without failures but with inconclusive verdicts; 4 when the tool
itself failed (an internal error, reported with its traceback).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import traceback
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cache, cached_property
from pathlib import Path
from typing import Callable, Iterator, Sequence, TypeVar

from .core import GraphError, InstanceGraph, TypeGraph, _boolean
from .dependency import reason_from_doc, reason_to_doc
from .mockserver import serve, target_from_doc
from .oracle import run_oracle
from .planner import (
    FLOW_NEGATIVE,
    FLOW_POSITIVE,
    ROLE_NEGATIVE,
    ROLE_POSITIVE,
    PolicyAnnotation,
    PolicyError,
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
from .schema import SchemaModel, derive_rule_skeletons, parse_sdl, to_type_graph
from .taint import (
    PairVerdicts,
    TaintedFlow,
    TaintedGraphAPI,
    TaintedTypeGraph,
    apply_review,
    check_theorem_conditions,
    classify_sources_sinks,
    init_review_entries,
    ledger_from_doc,
    ledger_to_doc,
    pair_verdicts,
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
# The modules whose code turns the input bytes into the analysis and the
# documents that hold it, from the schema parser on; `analyze` records a
# digest of their source in the analysis sidecar, beside that of the inputs.
_ANALYSIS_MODULES = (
    "schema.py", "core.py", "rules.py", "dependency.py", "taint.py", "cli.py"
)
_RERUN = "run `graphbac analyze`"


def _read(path: Path) -> str:
    try:
        return path.read_text()
    except FileNotFoundError:
        raise GraphError(f"{path}: file not found") from None
    except OSError as exc:
        raise GraphError(f"{path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise GraphError(f"{path}: byte {exc.start} is not UTF-8 text") from exc


def _load_json(path: Path) -> object:
    return _parse_json(path, _read(path))


def _parse_json(path: Path, text: str) -> object:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise GraphError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    except RecursionError as exc:
        raise GraphError(f"{path}: JSON nested too deeply to read") from exc


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _table_sha256(table: object) -> str:
    """sha256 of the sidecar's verdicts table, over its compact JSON form
    with sorted keys, so that it does not depend on the file's layout.  A
    table parsed from JSON or built by `PairVerdicts.to_doc` has no cycle
    to check for, and the check takes a fifth of the time."""
    text = json.dumps(table, sort_keys=True, separators=(",", ":"), check_circular=False)
    return _sha256(text)


@cache
def _analysis_code_sha256() -> str:
    """sha256 over the source of the modules that run the analysis."""
    here = Path(__file__).parent
    return _sha256("".join((here / name).read_text() for name in _ANALYSIS_MODULES))


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


def _write_doc(path: Path, doc: object) -> str:
    """Write the document and return the text written."""
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    path.write_text(text)
    print(f"wrote {path}")
    return text


@dataclass
class Analysis:
    """A project's static analysis: the verdicts of every ordered pair of
    analyzed rules, then its API and its unreviewed tainted flow, each built
    (or loaded) on first use."""

    verdicts: PairVerdicts
    build_api: Callable[[], TaintedGraphAPI]
    build_flow: Callable[[TaintedGraphAPI], TaintedFlow]

    @classmethod
    def computed(cls, api: TaintedGraphAPI) -> "Analysis":
        """The flow and its verdicts, as `analyze` computes and writes them."""
        flow = tainted_flow(api)
        return cls(pair_verdicts(flow), lambda: api, lambda _api: flow)

    @cached_property
    def api(self) -> TaintedGraphAPI:
        return self.build_api()

    @cached_property
    def flow(self) -> TaintedFlow:
        return self.build_flow(self.api)


def _analysis_doc(flow: TaintedFlow) -> dict:
    """The `analysis.json` document of an unreviewed flow."""
    api = flow.api
    return {
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


def _flow_from_doc(
    doc: object, api: TaintedGraphAPI, verdicts: PairVerdicts, sidecar: Path
) -> TaintedFlow:
    """The flow an `analysis.json` document holds, each reason re-certified
    by `reason_from_doc`.  In order, it must hold as many reasons for each
    pair of the API as the verdicts of the `sidecar` count, with their
    positional ids."""
    if not isinstance(doc, dict) or not isinstance(doc.get("pairs"), list):
        raise GraphError("analysis document must have a pairs array")
    rules = {r.name: r for r in api.rules}
    reasons = []
    for entry in doc["pairs"]:
        if not isinstance(entry, dict) or not isinstance(entry.get("reasons"), list):
            raise GraphError("each analysis pair must be an object with a reasons array")
        reasons += [reason_from_doc(item, rules) for item in entry["reasons"]]
    expected = [
        (f"{source}->{sink}#{i}", source, sink)
        for source, sink in api.pairs()
        for i in range(verdicts.reason_count(source, sink))
    ]
    if [(r.id, r.source_rule, r.sink_rule) for r in reasons] != expected:
        raise GraphError(
            f"its reasons are not those that {sidecar.name} counts; " + _RERUN
        )
    for r in reasons:
        if not isinstance(r.tainted, bool):
            raise GraphError(f"reason {r.id}: tainted must be true or false")
    return TaintedFlow(api=api, reasons=tuple(reasons))


class Project:
    """A project directory with cross-validated documents, loaded once per command."""

    def __init__(self, root: Path, config: dict):
        self.root = root
        self.config = config
        # document path -> the sha256 of its text, for each document read
        self._sha256s: dict[Path, str] = {}
        # document path -> its text, from the read until `_parsed` parses it
        self._texts: dict[Path, str] = {}
        # document path (or path and derived form) -> parsed value
        self._loaded: dict[object, object] = {}

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

    def include_inputs(self) -> bool:
        """The `include_inputs` setting, which must be a JSON boolean."""
        return _boolean(
            self.setting("include_inputs", False),
            f"{self.root / 'project.json'}: include_inputs",
        )

    def _text(self, path: Path) -> str:
        """The text of the document at `path`, read on first use and kept
        until `_parsed` parses that same copy; its sha256 is kept on."""
        if path not in self._texts:
            self._texts[path] = text = _read(path)
            self._sha256s[path] = _sha256(text)
        return self._texts[path]

    def _sha256_of(self, path: Path) -> str:
        """The sha256 of the document's text, which is read once per command."""
        if path not in self._sha256s:
            self._text(path)
        return self._sha256s[path]

    def _parsed(
        self,
        path: Path,
        parse: Callable[..., T],
        *needs: Callable[[], object],
        text: bool = False,
    ) -> T:
        """`parse(doc, *needed)` of the document at `path` (JSON unless `text`)
        on first use, its kept result after.  The errors `parse` raises name
        this file; the documents it needs are loaded first, outside that
        context, so their errors name only their own file."""
        if path not in self._loaded:
            raw = self._text(path)
            del self._texts[path]
            doc = raw if text else _parse_json(path, raw)
            needed = [need() for need in needs]
            with _file_context(path):
                self._loaded[path] = parse(doc, *needed)
        return self._loaded[path]

    # ---- documents ------------------------------------------------------

    def schema_model(self) -> SchemaModel:
        return self._parsed(self.path("schema"), parse_sdl, text=True)

    def _typegraph_source(self) -> str:
        """The document the type graph comes from: "schema" when present,
        else "typegraph", a stored type graph document."""
        if self.path("schema").exists():
            return "schema"
        if not self.path("typegraph").exists():
            raise GraphError(
                f"{self.path('schema')}: file not found "
                f"(and no {self.path('typegraph').name} to fall back on)"
            )
        return "typegraph"

    def typegraph(self) -> TypeGraph:
        """From the schema when present, else from a stored type graph document."""
        if self._typegraph_source() == "schema":
            key = (self.path("schema"), "typegraph")
            if key not in self._loaded:
                self._loaded[key] = to_type_graph(
                    self.schema_model(),
                    include_inputs=self.include_inputs(),
                )
            return self._loaded[key]
        return self._parsed(self.path("typegraph"), TypeGraph.from_doc)

    def rules(self) -> list[Rule]:
        return self._parsed(self.path("rules"), rules_from_doc, self.typegraph)

    def rules_by_name(self) -> dict[str, Rule]:
        return {r.name: r for r in self.rules()}

    def analyzed_rules(self) -> list[Rule]:
        return [r for r in self.rules() if not r.setup_only]

    def setup_rules(self) -> list[Rule]:
        return [r for r in self.rules() if r.setup_only]

    def tainted_typegraph(self) -> TaintedTypeGraph:
        def parse(doc: object, typegraph: TypeGraph) -> TaintedTypeGraph:
            if not isinstance(doc, dict) or not isinstance(doc.get("tainted_types"), list):
                raise GraphError("taint document must have a tainted_types array")
            if not all(isinstance(t, str) for t in doc["tainted_types"]):
                raise GraphError("tainted_types must hold type names")
            return TaintedTypeGraph(typegraph, tuple(doc["tainted_types"]))

        return self._parsed(self.path("taint"), parse, self.typegraph)

    def api(self) -> TaintedGraphAPI:
        return classify_sources_sinks(self.analyzed_rules(), self.tainted_typegraph())

    # ---- the analysis ----------------------------------------------------

    def analysis_lock_path(self) -> Path:
        """The analysis sidecar, beside `analysis.json`."""
        return self.path("analysis").with_suffix(".lock.json")

    def analysis_inputs_sha256(self) -> str:
        """sha256 over what the analysis depends on: the bytes of the type
        graph's source document, keyed by which document it is, `include_inputs`
        when that source is the schema, the bytes of the rules and of the
        taint document, and the source of the analysis code.  No document is
        parsed for it, so any byte edit to an input makes the digest new."""
        source = self._typegraph_source()
        inputs = {
            source: self._sha256_of(self.path(source)),
            "rules": self._sha256_of(self.path("rules")),
            "taint": self._sha256_of(self.path("taint")),
            "code_sha256": _analysis_code_sha256(),
        }
        if source == "schema":
            inputs["include_inputs"] = self.include_inputs()
        return _sha256(json.dumps(inputs, sort_keys=True))

    def analysis(self) -> Analysis:
        """The analysis the stages after `analyze` read, once per command.

        Without a sidecar it is computed now, as `analyze` computes it.
        With one whose digests match the input bytes, `analysis.json` and
        the sidecar's own verdicts table, the verdicts come from the
        sidecar, and the API and the flow are built on first use, so a
        stage that needs only the verdicts parses no input.  A sidecar that
        is damaged or no longer matches is an error that asks for
        `analyze`; the input documents are parsed before it is raised, so
        that a damaged one names its own file.
        """
        lock_path = self.analysis_lock_path()
        if not lock_path.exists():
            return Analysis.computed(self.api())
        try:
            verdicts, analysis_text = self._checked_sidecar(lock_path)
        except GraphError:
            self.api()
            raise
        analysis_path = self.path("analysis")

        def build_api() -> TaintedGraphAPI:
            api = self.api()
            if verdicts.names != tuple(r.name for r in api.rules):
                raise GraphError(
                    f"{lock_path}: its verdicts are not those of the analyzed "
                    f"rules; {_RERUN}"
                )
            return api

        def load_flow(api: TaintedGraphAPI) -> TaintedFlow:
            with _file_context(analysis_path):
                doc = _parse_json(analysis_path, analysis_text)
                return _flow_from_doc(doc, api, verdicts, lock_path)

        return Analysis(verdicts, build_api, load_flow)

    def _checked_sidecar(self, lock_path: Path) -> tuple[PairVerdicts, str]:
        """The sidecar's verdicts and the text of the `analysis.json` it
        vouches for, once its three digests match."""
        lock = _load_json(lock_path)
        analysis_path = self.path("analysis")
        with _file_context(lock_path):
            digests = ("inputs_sha256", "analysis_sha256", "verdicts_sha256")
            if not isinstance(lock, dict) or not all(
                isinstance(lock.get(key), str) for key in digests
            ):
                raise GraphError(
                    "analysis sidecar must hold the inputs_sha256, analysis_sha256 "
                    f"and verdicts_sha256 digests; {_RERUN}"
                )
            if lock["inputs_sha256"] != self.analysis_inputs_sha256():
                raise GraphError(
                    "out of date: the type graph, rules, tainted types or "
                    f"analysis code changed since it was written; {_RERUN}"
                )
            if not analysis_path.exists():
                raise GraphError(f"{analysis_path.name} is missing; {_RERUN}")
            text = _read(analysis_path)
            if lock["analysis_sha256"] != _sha256(text):
                raise GraphError(
                    f"out of date: {analysis_path.name} changed since it was "
                    f"written; {_RERUN}"
                )
            table = lock.get("verdicts")
            if lock["verdicts_sha256"] != _table_sha256(table):
                raise GraphError(
                    f"its verdicts table changed since analyze wrote it; {_RERUN}"
                )
            try:
                return PairVerdicts.from_doc(table), text
            except GraphError as exc:
                raise GraphError(f"{exc}; {_RERUN}") from exc

    def flow(self, reviewed: bool = True) -> TaintedFlow:
        """The analysis's tainted flow, with the review ledger applied when
        it exists."""
        flow = self.analysis().flow
        ledger_path = self.path("ledger")
        if reviewed and ledger_path.exists():
            entries = self._parsed(ledger_path, ledger_from_doc)
            with _file_context(ledger_path):
                flow = apply_review(flow, entries)
        return flow

    def roles(self) -> RoleSpec:
        return self._parsed(self.path("roles"), RoleSpec.from_doc)

    def policy(self) -> PolicyAnnotation:
        def parse(doc: object, roles: RoleSpec, rules: list[Rule]) -> PolicyAnnotation:
            policy = PolicyAnnotation.from_doc(doc)
            policy.validate_against(roles, [r.name for r in rules])
            return policy

        return self._parsed(self.path("policy"), parse, self.roles, self.rules)

    def plan(self, override: str | None = None) -> TestPlan:
        def parse(doc: object, spec: RoleSpec, rules: list[Rule]) -> TestPlan:
            plan = TestPlan.from_doc(doc)
            steps = [s for t in plan.tests for s in t.steps]
            used = set(plan.roles.roles) | {s.role for s in steps}
            extra = sorted(used - set(spec.roles))
            if extra:
                raise GraphError(
                    "plan uses role(s) not in the project role spec: "
                    + ", ".join(extra)
                )
            unknown = sorted({s.rule for s in steps} - {r.name for r in rules})
            if unknown:
                raise GraphError(
                    f"plan uses rule(s) not in {self.path('rules').name}: "
                    + ", ".join(unknown)
                )
            return plan

        path = Path(override) if override else self.path("plan")
        return self._parsed(path, parse, self.roles, self.rules)

    def initial(self) -> InstanceGraph:
        path = self.path("initial")
        if not path.exists():
            return InstanceGraph.empty(self.typegraph())
        return self._parsed(path, InstanceGraph.from_doc, self.typegraph)


# --------------------------------------------------------------------------
# subcommands


def _warned_schema(project: Project) -> SchemaModel:
    """The parsed schema, once what the parser ignored is printed to stderr."""
    model = project.schema_model()
    for text in model.warnings:
        print(f"warning: {project.path('schema')}: {text}", file=sys.stderr)
    return model


def cmd_ingest(args: argparse.Namespace) -> int:
    project = Project.load(args.project)
    tg = to_type_graph(
        _warned_schema(project),
        include_inputs=project.include_inputs(),
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
        _warned_schema(project),
        include_inputs=project.include_inputs(),
    )
    print(f"derived {len(result.rules)} rule skeletons from {project.path('schema')}")
    for name in result.unhandled:
        print(f"  unhandled entry field (model by hand): {name}")
    _write_doc(project.path("derived_rules"), rules_to_doc(result.rules))
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    project = Project.load(args.project)
    analysis = Analysis.computed(project.api())
    api, flow = analysis.api, analysis.flow
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
    text = _write_doc(project.path("analysis"), _analysis_doc(flow))
    table = analysis.verdicts.to_doc()
    _write_doc(
        project.analysis_lock_path(),
        {
            "inputs_sha256": project.analysis_inputs_sha256(),
            "analysis_sha256": _sha256(text),
            "verdicts": table,
            "verdicts_sha256": _table_sha256(table),
        },
    )
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
    analysis = project.analysis()
    verdicts = analysis.verdicts
    for name in (args.source, args.sink):
        if name in verdicts.names:
            continue
        # the analyzed and setup rules are read only for a name the verdicts
        # lack; the API's check names a sidecar of other rules
        analysis.api
        if name in {r.name for r in project.setup_rules()}:
            raise GraphError(
                f"rule {name} is setup-only: the analysis skips setup-only "
                "rules, so they have no verdicts"
            )
    check = check_theorem_conditions(args.source, args.sink, verdicts)
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
    try:
        plan = generate_minimal_tests(
            project.flow(reviewed=True),
            project.roles(),
            project.policy(),
            setup_rules=project.setup_rules(),
            initial=project.initial(),
            include_unreviewed=args.include_unreviewed,
        )
    except PolicyError as exc:
        raise GraphError(f"{project.path('policy')}: {exc}") from exc
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
    tokens = tokens_from_env(plan.roles)
    schemes = project.setting("schemes", {})
    with _file_context(project.root / "project.json"):
        if not isinstance(schemes, dict):
            raise GraphError("schemes must be an object")
        if not all(isinstance(v, str) for v in schemes.values()):
            raise GraphError("schemes must map each role to a string")
        config = RunnerConfig(
            endpoint=str(endpoint),
            tokens=tokens,
            schemes=schemes,
            matcher=(
                BacMatcher.from_doc(project.setting("matcher"))
                if "matcher" in project.config
                else BacMatcher()
            ),
            timeout=project.setting("timeout", 10.0),
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
    if not 0 <= args.port <= 65535:
        raise GraphError(
            f"--port {args.port}: the port must be 0 (any free port) to 65535"
        )
    project = Project.load(args.project)
    config_path = Path(args.config) if args.config else project.path("mock")
    doc = _load_json(config_path)
    if not isinstance(doc, dict):
        raise GraphError(f"{config_path}: mock config must be an object")
    if args.fault:
        doc = {**doc, "faults": list(doc.get("faults", []))}
        doc["faults"].extend(_parse_fault(spec) for spec in args.fault)
    rules, roles, initial = project.rules(), project.roles(), project.initial()
    with _file_context(config_path):
        target = target_from_doc(doc, rules, roles, initial=initial)
    try:
        server = serve(target, port=args.port)
    except OSError as exc:
        raise GraphError(
            f"--port {args.port}: cannot bind 127.0.0.1:{args.port}: "
            f"{exc.strerror or exc}"
        ) from exc
    port = server.server_address[1]
    print(f"serving mock target on http://127.0.0.1:{port}/graphql", flush=True)
    _serve_forever(server)
    return 0


def cmd_oracle(args: argparse.Namespace) -> int:
    if args.max_depth < 0:
        raise GraphError(f"--max-depth {args.max_depth}: the depth must be 0 or more")
    project = Project.load(args.project)
    report = run_oracle(
        project.analyzed_rules(), project.rules(), project.initial(), args.max_depth
    )
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
    """The command line parser.  Each subcommand names its handler rather
    than holding it, and `main` looks the name up in this module when it
    runs, so a handler re-bound after the build is the one called."""
    parser = argparse.ArgumentParser(
        prog="graphbac",
        description=(
            "Static and dynamic taint analysis for broken access control "
            "in graph APIs."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    def add(name: str, func: Callable, help_text: str, within=sub) -> argparse.ArgumentParser:
        p = within.add_parser(name, help=help_text, description=help_text)
        p.add_argument(
            "--project",
            default=".",
            help="project directory (default: current directory)",
        )
        p.set_defaults(func=func.__name__)
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
    init_p = add(
        "init",
        cmd_review_init,
        "write a ledger skeleton with one unreviewed entry per reason",
        review_sub,
    )
    init_p.add_argument(
        "--force", action="store_true", help="overwrite an existing ledger"
    )
    add(
        "apply",
        cmd_review_apply,
        "validate the ledger against the analysis and show its state",
        review_sub,
    )

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


# built once per process, when the module loads and every handler still has
# its own name
_PARSER = _build_parser()


def main(argv: Sequence[str] | None = None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        code = globals()[args.func](args)
        # flushed here, a closed stdout raises in this block and not at exit
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader of stdout went away (`graphbac ingest ... | head -1`):
        # point stdout at devnull, so the flush at exit cannot raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141  # 128 + SIGPIPE, as a shell reports a reader that left
    except GraphError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:
        traceback.print_exc()
        return 4


if __name__ == "__main__":
    sys.exit(main())
