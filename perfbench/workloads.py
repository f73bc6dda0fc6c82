"""The benchmark's workloads: what one pass runs and how its output is checked.

Each workload is a closed loop driven by one single-threaded client that
calls graphbac's public functions.  The constructor builds the inputs and
brings the program up; `run_pass` does one fixed amount of work, times it,
and checks every output against `expected.json`.  A pass never depends on
how long the run is, so it measures the same work on every run and commit.

An *operation* is the unit each latency sample times: one `graphbac.cli.main`
call (pipeline), one GraphQL request (replay) or one `run_oracle` call
(oracle).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import gen
from calibrate import Calibration
from graphbac.cli import Project, main
from graphbac.core import InstanceGraph, TypeGraph
from graphbac.mockserver import start_in_background, target_from_doc
from graphbac.oracle import run_oracle
from graphbac.rules import rules_from_doc
from graphbac import runner
from graphbac.runner import FAIL, INCONCLUSIVE, SUCCESS, RunnerConfig, http_transport

EXPECTED = json.loads((Path(__file__).parent / "expected.json").read_text())


class Clock:
    """Times one pass and each operation in it, net of calibration samples."""

    def __init__(self) -> None:
        self.calibration = Calibration()
        self.latencies: list[float] = []
        self.spans: list[tuple[float, float]] = []  # perf_counter() start, end
        self.begin = self.end = self.now()

    def now(self) -> float:
        """perf_counter() minus the reference time so far."""
        while True:  # a timer signal may add a sample between the two reads
            stolen = self.calibration.stolen
            now = time.perf_counter()
            if stolen == self.calibration.stolen:
                return now - stolen

    def call(self, fn, *args, **kwargs):
        start, raw_start = self.now(), time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.latencies.append(self.now() - start)
            self.spans.append((raw_start, time.perf_counter()))

    def stop(self) -> None:
        self.end = self.now()


@dataclass
class PassResult:
    """One pass's outcome; times are in reference-speed seconds (calibrate.py)."""

    clock: Clock
    failed: int = 0  # operations that failed (see error_rate)
    problems: list[str] = field(default_factory=list)  # failed output checks
    # replay curve: (mock nodes after the round, requests, seconds) per round
    rounds: list[tuple[int, int, float]] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.scale = self.clock.calibration.scale()

    @property
    def attempted(self) -> int:
        return len(self.clock.latencies)

    @property
    def verdict_s(self) -> float:
        """First call into graphbac to the pass's last verdict."""
        return (self.clock.end - self.clock.begin) * self.scale

    @property
    def raw_verdict_s(self) -> float:
        return self.clock.end - self.clock.begin

    @property
    def latencies(self) -> list[float]:
        calibration = self.clock.calibration
        return [
            t * calibration.scale_near(*span)
            for t, span in zip(self.clock.latencies, self.clock.spans)
        ]

    @property
    def round_rates(self) -> list[tuple[int, float]]:
        """Replay curve: mock nodes after each round, and the round's req/s."""
        return [(nodes, ops / (secs * self.scale)) for nodes, ops, secs in self.rounds]


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------------------
# pipeline


class Pipeline:
    """The analyst's static path, through the CLI, over three projects.

    Per project: analyze, review apply, plan-tests, check-coverage, then
    check-theorem on every pair the analysis reports.  The projects are the
    running-example, github-issue and a generated chain-and-hub-and-star
    project (see gen.synthetic_project) sized so a pass takes seconds.
    """

    name = "pipeline"
    SHIPPED = ("running-example", "github-issue")
    SIZES = {"full": {"chain": 5, "hub": 3, "star": 9}, "tiny": {"chain": 2, "hub": 1, "star": 2}}

    def __init__(self, root: Path, work: Path, seed: int, size: str) -> None:
        self.salt = gen.salt_for(seed)
        self.expected = EXPECTED["pipeline"][size]
        self.committed_plan = (root / "projects/running-example/plan.json").read_text()
        for name in self.SHIPPED:
            shutil.copytree(root / "projects" / name, work / name)
        gen.write_project(
            gen.synthetic_project(seed, **self.SIZES[size]), work / "synthetic"
        )
        self.projects = [work / name for name in self.SHIPPED] + [work / "synthetic"]

    def close(self) -> None:
        pass

    def _canonical(self, project: Path, text: str) -> str:
        return text.replace(self.salt, "") if project.name == "synthetic" else text

    def run_pass(self, tracer=None) -> PassResult:
        clock = Clock()
        records: list[tuple[Path, str, str | None, object, str]] = []
        sink = io.StringIO()

        def cli(project: Path, argv: list[str], pair: str | None = None) -> None:
            sink.seek(0)
            sink.truncate()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                try:
                    code = clock.call(main, [*argv, "--project", str(project)])
                except Exception as exc:  # a crash is a failed stage, not a lost run
                    code = f"raised {exc!r}"
            records.append((project, argv[0], pair, code, sink.getvalue()))

        with clock.calibration.every_interval():
            for project in self.projects:
                for stage in (["analyze"], ["review", "apply"], ["plan-tests"], ["check-coverage"]):
                    cli(project, stage)
                try:
                    doc = json.loads((project / "analysis.json").read_text())
                    pairs = [(p["source"], p["sink"]) for p in doc["pairs"]]
                except (OSError, ValueError, KeyError, TypeError):
                    pairs = []
                for source, sink_rule in pairs:
                    argv = ["check-theorem", "--source", source, "--sink", sink_rule]
                    cli(project, argv, pair=f"{source}->{sink_rule}")
            clock.stop()
        result = PassResult(clock)
        self._check(records, result)
        return result

    def _check(self, records, result: PassResult) -> None:
        for project, stage, pair, code, output in records:
            theorem = self.expected[project.name]["theorem"]
            want = 0 if pair is None else theorem.get(self._canonical(project, pair))
            if code != want:
                result.failed += 1
                result.problems.append(
                    f"{project.name}: {stage} {pair or ''} exited {code}, expected {want}"
                )
            if stage == "check-coverage" and "coverage: satisfied" not in output:
                result.problems.append(f"{project.name}: check-coverage not satisfied")
        for project in self.projects:
            expected = self.expected[project.name]
            seen = sorted(
                self._canonical(project, pair)
                for p, _, pair, _, _ in records
                if p == project and pair is not None
            )
            if seen != sorted(expected["theorem"]):
                result.problems.append(f"{project.name}: analysis reports pairs {seen}")
            for artifact in ("analysis", "plan"):
                try:
                    text = (project / f"{artifact}.json").read_text()
                except OSError as exc:
                    result.problems.append(f"{project.name}: {exc}")
                    continue
                if artifact == "plan" and project.name == "running-example":
                    ok = text == self.committed_plan
                else:
                    ok = sha256(self._canonical(project, text)) == expected[f"{artifact}_sha256"]
                if not ok:
                    result.problems.append(
                        f"{project.name}: {artifact}.json differs from the recorded output"
                    )


# ---------------------------------------------------------------------------
# replay


class Replay:
    """The running-example plan replayed round after round over HTTP.

    The mock runs `mock.json` plus `drop_check:updateIssue` and is not reset
    within a pass, so its host grows by 45 nodes a round: early rounds cost
    HTTP and JSON, late rounds matching and rule application on a large
    host.  It is reset between passes, outside the timed region.  The
    inputs are the committed plan and mock config, so the seed changes
    nothing: the plan's order decides how large the host is when each
    request runs, and so the cost of each request.
    """

    name = "replay"
    ROUNDS = {"full": 6, "tiny": 1}

    def __init__(self, root: Path, work: Path, seed: int, size: str) -> None:
        self.expected = EXPECTED["replay"]
        self.rounds = self.ROUNDS[size]
        project = Project.load(root / "projects/running-example")
        doc = json.loads(project.path("mock").read_text())
        doc["faults"] = [*doc.get("faults", []), {"kind": "drop_check", "rule": "updateIssue"}]
        self.target = target_from_doc(
            doc, project.rules(), project.roles(), initial=project.initial()
        )
        self.server, self.thread = start_in_background(self.target)
        self.plan = project.plan()
        self.rules = project.rules_by_name()
        endpoint = f"http://127.0.0.1:{self.server.server_address[1]}/graphql"
        tokens = {entry["role"]: token for token, entry in doc["tokens"].items()}
        self.config = RunnerConfig(endpoint=endpoint, tokens=tokens)
        self.send = http_transport(endpoint)

    def close(self) -> None:
        self.server.shutdown()
        self.server.server_close()
        self.thread.join(timeout=10)

    def run_pass(self, tracer=None) -> PassResult:
        self.target.reset()
        clock = Clock()

        def timed(request, headers, timeout):
            return clock.call(self.send, request, headers, timeout)

        traced = tracer.transport(timed) if tracer else timed

        def send(request, headers, timeout):
            # sampled outside the transport span, which must time HTTP alone
            clock.calibration.sample_if_due()
            return traced(request, headers, timeout)
        reports = []
        rounds = []
        crash = None
        for _ in range(self.rounds):
            before = len(clock.latencies)
            round_start = clock.now()
            try:
                # through the module, so a traced run sees the re-bound run_plan
                reports.append(
                    runner.run_plan(self.plan, self.config, transport=send, rules=self.rules)
                )
            except Exception as exc:  # a crash fails the pass, not the run
                crash = exc
                break
            rounds.append((
                len(self.target.graph.nodes),
                len(clock.latencies) - before,
                clock.now() - round_start,
            ))
        clock.stop()
        result = PassResult(clock, rounds=rounds)
        if crash is not None:
            result.failed += 1
            result.problems.append(f"round {len(reports) + 1}: run_plan raised {crash!r}")
        for index, report in enumerate(reports, 1):
            self._check(index, report, rounds[index - 1][0], result)
        return result

    def _check(self, index: int, report, state_nodes: int, result: PassResult) -> None:
        want = self.expected
        for test in report.results:
            for step in test.transcripts:
                errors = (step.response or {}).get("errors")
                if step.failure is not None or (errors and not step.bac_exception):
                    result.failed += 1
        counts = report.counts()
        got = [counts.get(SUCCESS, 0), counts.get(FAIL, 0), counts.get(INCONCLUSIVE, 0)]
        if got != [want["success"], want["fail"], 0]:
            result.problems.append(f"round {index}: success/fail/inconclusive {got}")
        if list(report.detected_vulnerabilities) != want["detected"]:
            result.problems.append(
                f"round {index}: detected {list(report.detected_vulnerabilities)}"
            )
        if state_nodes != want["nodes_per_round"] * index:
            result.problems.append(f"round {index}: mock holds {state_nodes} nodes")


# ---------------------------------------------------------------------------
# oracle


class Oracle:
    """Brute-force enumeration checked against the static analysis.

    `run_oracle` on the running-example, incident-chain-toy and incident-toy
    at depth 4, and on two seeded symmetric systems (see
    gen.symmetric_system) whose hosts are made of interchangeable nodes.
    """

    name = "oracle"
    DEPTH = {"full": 4, "tiny": 2}
    PROJECTS = ("running-example", "incident-chain-toy", "incident-toy")

    def __init__(self, root: Path, work: Path, seed: int, size: str) -> None:
        self.expected = EXPECTED["oracle"][size]
        depth = self.DEPTH[size]
        self.cases = []
        for name in self.PROJECTS:
            project = Project.load(root / "projects" / name)
            rules = project.rules()
            analyzed = [r for r in rules if not r.setup_only]
            self.cases.append((name, analyzed, rules, project.initial(), depth))
        for label, same_type in (("symmetric-same", True), ("symmetric-distinct", False)):
            doc = gen.symmetric_system(seed, same_type)
            typegraph = TypeGraph.from_doc(doc["typegraph"])
            rules = rules_from_doc(doc["rules"], typegraph)
            initial = InstanceGraph.from_doc(doc["initial"], typegraph)
            self.cases.append((label, rules, rules, initial, depth))

    def close(self) -> None:
        pass

    def run_pass(self, tracer=None) -> PassResult:
        clock = Clock()
        outcomes = []
        with clock.calibration.every_interval():
            for label, analyzed, rules, initial, depth in self.cases:
                try:
                    outcome = clock.call(run_oracle, analyzed, rules, initial, depth)
                except Exception as exc:  # a crash is a failed system, not a lost run
                    outcome = exc
                outcomes.append((label, outcome))
            clock.stop()
        result = PassResult(clock)
        for label, outcome in outcomes:
            want = self.expected[label]
            if isinstance(outcome, Exception):
                result.failed += 1
                result.problems.append(f"{label}: run_oracle raised {outcome!r}")
                continue
            if not outcome.agreed:
                result.failed += 1
                result.problems.append(f"{label}: {outcome.disagreements[:3]}")
            got = [outcome.hosts_explored, outcome.pairs_checked]
            if got != [want["hosts"], want["pairs"]]:
                result.problems.append(f"{label}: hosts/pairs {got}, expected {want}")
        return result


WORKLOADS = {w.name: w for w in (Pipeline, Replay, Oracle)}
