"""Outside-in tracing of graphbac's layers, for the benchmark's traced runs.

The tracer changes no graphbac file.  It re-binds each traced function in
every graphbac module that refers to it (a function imported by name, such
as `enumerate_matches`, lives in several module namespaces), so every call
into a layer records a span: name, start, end, parent span and request id.
Spans stay in memory until the run ends; `write` stores them as JSON lines.

The parent of a span is the innermost open span on the same thread.  The
mock serves each request on its own thread, so a span opened there with no
open span of its own takes the transport span in flight as its parent; the
replay client keeps one request in flight, which makes that unambiguous.
Span times include the benchmark's machine-speed samples (calibrate.py),
about 4 % of a pass, and are not scaled.
"""

from __future__ import annotations

import itertools
import json
import statistics
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from graphbac.rules import NotReversibleError

# (module, attribute, span name, recorder of result attributes).  A dotted
# attribute names a method.  The recorder sees (args, result) and returns a
# dict of numbers kept on the span.


def _length(args, result):
    return {"n": len(result)}


def _match(args, result):
    return {"n": len(result), "host_nodes": len(args[1].nodes)}


def _plan(args, result):
    return {"n": len(result.tests)}


def _execute(args, result):
    errors = result.get("errors") or []
    denied = any(e.get("extensions", {}).get("code") == "FORBIDDEN" for e in errors)
    return {"denied": int(denied), "state_nodes": len(args[0].graph.nodes)}


# attributes aggregated by maximum; every other attribute is summed
MAX_ATTRS = ("host_nodes", "state_nodes")


TARGETS: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("graphbac.core", "enumerate_matches", "core.match", _match),
    ("graphbac.rules", "apply", "rules.apply", None),
    ("graphbac.rules", "apply_inverse", "rules.apply_inverse", None),
    ("graphbac.rules", "canonical_form", "rules.canonical", None),
    ("graphbac.rules", "isomorphic", "rules.isomorphic", None),
    ("graphbac.dependency", "dependency_reasons", "dependency.reasons", _length),
    ("graphbac.dependency", "delete_overlap_reasons", "dependency.delete_overlap", None),
    ("graphbac.dependency", "universally_sequentially_independent", "dependency.usi", None),
    ("graphbac.taint", "tainted_flow", "taint.flow", None),
    ("graphbac.taint", "check_theorem_conditions", "taint.theorem", None),
    ("graphbac.planner", "generate_minimal_tests", "planner.plan", _plan),
    ("graphbac.planner", "_search_embedding", "planner.setup", None),
    ("graphbac.planner", "check_flow_coverage", "planner.coverage", None),
    ("graphbac.planner", "check_role_coverage", "planner.coverage", None),
    ("graphbac.oracle", "reachable_hosts", "oracle.reachable", _length),
    ("graphbac.oracle", "produce_use_disagreements", "oracle.pairs", None),
    ("graphbac.oracle", "independence_disagreements", "oracle.pairs", None),
    ("graphbac.oracle", "transformations", "oracle.transformations", None),
    ("graphbac.mockserver", "MockTarget.execute", "mock.execute", _execute),
    ("graphbac.runner", "run_plan", "runner.run_plan", None),
    ("graphbac.schema", "parse_sdl", "schema.parse", None),
    ("graphbac.cli", "cmd_analyze", "cli.analyze", None),
    ("graphbac.cli", "cmd_review_apply", "cli.review_apply", None),
    ("graphbac.cli", "cmd_plan_tests", "cli.plan_tests", None),
    ("graphbac.cli", "cmd_check_coverage", "cli.check_coverage", None),
    ("graphbac.cli", "cmd_check_theorem", "cli.check_theorem", None),
    ("graphbac.cli", "Project.rules", "cli.rules_load", None),
)

TRANSPORT = "runner.transport"
DEPENDENCY_SPANS = ("dependency.reasons", "dependency.delete_overlap")


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    request: str | None
    pass_no: int
    attrs: dict | None


class Tracer:
    """Records spans around graphbac calls while installed."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.pass_no = 0
        self._ids = itertools.count()
        self._local = threading.local()
        self._inflight: Span | None = None  # the client's open transport span
        self._test, self._step = "", 0  # the replay test being run, next step
        self._restore: list[tuple[object, str, object]] = []

    # -- recording

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str, request: str | None = None) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else self._inflight
        span = Span(
            id=next(self._ids),
            name=name,
            start=time.perf_counter(),
            end=0.0,
            parent=parent.id if parent else None,
            request=request if request is not None else (parent.request if parent else None),
            pass_no=self.pass_no,
            attrs=None,
        )
        stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()
        self.spans.append(span)

    def wrap(self, name: str, fn: Callable, recorder: Callable | None) -> Callable:
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except NotReversibleError:
                span.attrs = {"refused": 1}
                raise
            finally:
                self._close(span)
            if recorder is not None:
                span.attrs = recorder(args, result)
            return result

        return traced

    def transport(self, send: Callable) -> Callable:
        """Wrap a runner transport; its spans carry the test id and step index."""

        def traced(request, headers, timeout):
            span = self._open(TRANSPORT, request=f"{self._test}#{self._step}")
            self._step += 1
            self._inflight = span
            try:
                return send(request, headers, timeout)
            finally:
                self._inflight = None
                self._close(span)

        return traced

    # -- installation

    def install(self) -> None:
        """Re-bind every target in every graphbac module that refers to it."""
        import graphbac.cli  # noqa: F401  (loads every graphbac module)

        runner = sys.modules["graphbac.runner"]
        run_test = runner._run_test

        def tracked(test, *args, **kwargs):
            self._test, self._step = test.id, 0
            return run_test(test, *args, **kwargs)

        self._set(runner, "_run_test", tracked)
        modules = [m for n, m in sys.modules.items() if n.startswith("graphbac")]
        for module_name, attr, name, recorder in TARGETS:
            home = sys.modules[module_name]
            if "." in attr:
                cls_name, method = attr.split(".")
                owner = getattr(home, cls_name)
                original = owner.__dict__[method]
                self._set(owner, method, self.wrap(name, original, recorder))
                continue
            original = getattr(home, attr)
            wrapped = self.wrap(name, original, recorder)
            for module in modules:
                if module.__dict__.get(attr) is original:
                    self._set(module, attr, wrapped)

    def _set(self, owner: object, attr: str, value: object) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def layer_metrics(self) -> dict[str, float]:
        """Median over passes of each pass's layer metrics."""
        by_pass: dict[int, list[Span]] = {}
        for s in self.spans:
            by_pass.setdefault(s.pass_no, []).append(s)
        rows = [pass_metrics(by_pass.get(n, [])) for n in range(self.pass_no + 1)]
        return {key: statistics.median(r[key] for r in rows) for key in rows[0]}

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            for s in self.spans:
                out.write(json.dumps(s.__dict__) + "\n")


# ---------------------------------------------------------------------------
# per-layer report


def pass_metrics(spans: list[Span]) -> dict[str, float]:
    """Layer metrics of one pass: counts, self times and ratios."""
    by_id = {s.id: s for s in spans}
    child_time: dict[int, float] = {}
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] = child_time.get(s.parent, 0.0) + (s.end - s.start)

    def self_time(s: Span) -> float:
        return max(0.0, (s.end - s.start) - child_time.get(s.id, 0.0))

    def parent_name(s: Span) -> str | None:
        parent = by_id.get(s.parent) if s.parent is not None else None
        return parent.name if parent else None

    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    total_s: dict[str, float] = {}
    attr_sum: dict[str, float] = {}
    for s in spans:
        calls[s.name] = calls.get(s.name, 0) + 1
        self_s[s.name] = self_s.get(s.name, 0.0) + self_time(s)
        total_s[s.name] = total_s.get(s.name, 0.0) + (s.end - s.start)
        for key, value in (s.attrs or {}).items():
            key = f"{s.name}.{key}"
            if key.rsplit(".", 1)[1] in MAX_ATTRS:
                attr_sum[key] = max(attr_sum.get(key, 0), value)
            else:
                attr_sum[key] = attr_sum.get(key, 0) + value

    def under(child: str, parents: tuple[str, ...]) -> int:
        return sum(1 for s in spans if s.name == child and parent_name(s) in parents)

    spans_tried = under("core.match", DEPENDENCY_SPANS)
    found = attr_sum.get("dependency.reasons.n", 0)
    transport = [s for s in spans if s.name == TRANSPORT]
    execute_in_transport = sum(
        s.end - s.start
        for s in spans
        if s.name == "mock.execute" and parent_name(s) == TRANSPORT
    )
    return {
        "core.match.calls": calls.get("core.match", 0),
        "core.match.self_s": self_s.get("core.match", 0.0),
        "core.match.found": attr_sum.get("core.match.n", 0),
        "core.match.host_nodes_max": attr_sum.get("core.match.host_nodes", 0),
        "rules.apply.calls": calls.get("rules.apply", 0),
        "rules.apply.self_s": self_s.get("rules.apply", 0.0),
        "rules.apply_inverse.calls": calls.get("rules.apply_inverse", 0),
        "rules.apply_inverse.self_s": self_s.get("rules.apply_inverse", 0.0),
        "rules.apply_inverse.refused": attr_sum.get("rules.apply_inverse.refused", 0),
        "rules.canonical.calls": calls.get("rules.canonical", 0),
        "rules.canonical.self_s": self_s.get("rules.canonical", 0.0),
        "rules.isomorphic.calls": calls.get("rules.isomorphic", 0),
        "dependency.reasons.calls": calls.get("dependency.reasons", 0),
        "dependency.reasons.self_s": self_s.get("dependency.reasons", 0.0),
        "dependency.reasons.found": found,
        "dependency.spans_tried": spans_tried,
        "dependency.realize_tried": under("rules.apply_inverse", DEPENDENCY_SPANS),
        "dependency.yield": found / spans_tried if spans_tried else 0.0,
        "dependency.delete_overlap.calls": calls.get("dependency.delete_overlap", 0),
        "dependency.delete_overlap.self_s": self_s.get("dependency.delete_overlap", 0.0),
        "dependency.usi.calls": calls.get("dependency.usi", 0),
        "taint.flow.calls": calls.get("taint.flow", 0),
        "taint.flow.self_s": self_s.get("taint.flow", 0.0),
        "taint.theorem.self_s": self_s.get("taint.theorem", 0.0),
        "planner.plan.self_s": self_s.get("planner.plan", 0.0),
        "planner.plan.tests": attr_sum.get("planner.plan.n", 0),
        "planner.setup.apply_calls": under("rules.apply", ("planner.setup",)),
        "planner.setup.canonical_calls": under("rules.canonical", ("planner.setup",)),
        "planner.coverage.self_s": self_s.get("planner.coverage", 0.0),
        "oracle.reachable.self_s": self_s.get("oracle.reachable", 0.0),
        "oracle.reachable.hosts": attr_sum.get("oracle.reachable.n", 0),
        "oracle.pairs.self_s": self_s.get("oracle.pairs", 0.0),
        "oracle.transformations.calls": calls.get("oracle.transformations", 0),
        "mock.execute.calls": calls.get("mock.execute", 0),
        "mock.execute.self_s": self_s.get("mock.execute", 0.0),
        "mock.execute.denied": attr_sum.get("mock.execute.denied", 0),
        "mock.state_nodes": attr_sum.get("mock.execute.state_nodes", 0),
        "mock.http_s": max(
            0.0, sum(s.end - s.start for s in transport) - execute_in_transport
        ),
        "runner.run_plan.self_s": self_s.get("runner.run_plan", 0.0),
        "runner.wait_s": sum(s.end - s.start for s in transport),
        "schema.parse.calls": calls.get("schema.parse", 0),
        "schema.parse.self_s": self_s.get("schema.parse", 0.0),
        "cli.analyze_s": total_s.get("cli.analyze", 0.0),
        "cli.review_apply_s": total_s.get("cli.review_apply", 0.0),
        "cli.plan_tests_s": total_s.get("cli.plan_tests", 0.0),
        "cli.check_coverage_s": total_s.get("cli.check_coverage", 0.0),
        "cli.check_theorem_s": total_s.get("cli.check_theorem", 0.0),
        "cli.rules_loads": calls.get("cli.rules_load", 0),
    }
