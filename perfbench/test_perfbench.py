"""Self-tests of the benchmark: tiny runs of every workload, and proof that
the output checks reject a wrong verdict or a tampered artifact.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

run.import_graphbac()

import workloads  # noqa: E402  (needs graphbac on the path)

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _bench(*argv: str) -> tuple[int, dict]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(list(argv))
    return code, json.loads(out.getvalue().splitlines()[-1])


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_tiny_run_reports_every_metric(workload, trace):
    code, result = _bench(
        "--workload", workload, "--seed", "7", "--seconds", "0",
        "--trace", trace, "--size", "tiny",
    )
    kind = "per_layer" if trace == "1" else "end_to_end"
    assert code == 0
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert sorted(result["metrics"]) == sorted(m["name"] for m in SPEC[kind])
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())


def _one_pass(cls, tmp_path, monkeypatch, owner, name, wrap):
    """One tiny pass of `cls` with `owner.name`, a graphbac function, wrapped."""
    monkeypatch.setattr(owner, name, wrap(getattr(owner, name)))
    workload = cls(run.ROOT, tmp_path, 7, "tiny")
    try:
        return workload.run_pass()
    finally:
        workload.close()


def test_pipeline_rejects_wrong_exit_code(tmp_path, monkeypatch):
    def wrap(main):
        def flipped(argv):
            code = main(argv)
            return 1 - code if argv[0] == "check-theorem" else code
        return flipped

    result = _one_pass(workloads.Pipeline, tmp_path, monkeypatch, workloads, "main", wrap)
    assert result.failed >= 1
    assert any("check-theorem" in p for p in result.problems)


def test_pipeline_rejects_tampered_plan(tmp_path, monkeypatch):
    def wrap(main):
        def tampered(argv):
            code = main(argv)
            if argv[0] == "plan-tests":
                plan = Path(argv[-1]) / "plan.json"
                plan.write_text(plan.read_text().replace("flow-neg", "flow-pos", 1))
            return code
        return tampered

    result = _one_pass(workloads.Pipeline, tmp_path, monkeypatch, workloads, "main", wrap)
    assert len([p for p in result.problems if "plan.json differs" in p]) == 3


def test_replay_rejects_wrong_verdict(tmp_path, monkeypatch):
    def wrap(run_plan):
        def missed(*args, **kwargs):  # as if the injected fault went unseen
            report = run_plan(*args, **kwargs)
            kept = tuple(r for r in report.results if r.verdict == "success")
            return dataclasses.replace(report, results=kept, detected_vulnerabilities=())
        return missed

    result = _one_pass(
        workloads.Replay, tmp_path, monkeypatch, workloads.runner, "run_plan", wrap
    )
    assert any("detected []" in p for p in result.problems)
    assert any("success/fail/inconclusive [17, 0, 0]" in p for p in result.problems)


def test_oracle_rejects_wrong_host_count_and_disagreement(tmp_path, monkeypatch):
    def wrap(run_oracle):
        def skewed(*args, **kwargs):
            report = run_oracle(*args, **kwargs)
            report.hosts_explored += 1
            report.disagreements.append("injected")
            return report
        return skewed

    result = _one_pass(workloads.Oracle, tmp_path, monkeypatch, workloads, "run_oracle", wrap)
    assert result.failed == result.attempted == 5
    assert sum("hosts/pairs" in p for p in result.problems) == 5


def test_refuses_to_run_without_graphbac(tmp_path):
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "oracle", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
