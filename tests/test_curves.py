"""The scaling curves script at its smallest points."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import graphbac.dependency as dependency

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "curves.py"


def _curves():
    spec = importlib.util.spec_from_file_location("curves", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_kstar_curve_at_k3_has_its_six_reasons():
    point = _curves().kstar(3)
    assert (point["curve"], point["k"], point["reasons"]) == ("kstar", 3, 6)
    assert point["wall_s"] >= 0


def test_the_oracle_curve_at_depth_3_explores_12_hosts():
    point = _curves().oracle(3)
    assert (point["curve"], point["depth"], point["hosts"]) == ("oracle", 3, 12)
    assert point["agreed"]
    assert point["wall_s"] >= 0
    assert point["peak_mb"] > 0


def test_the_sweep_curve_at_seed_255_explores_18_hosts():
    point = _curves().sweep(255)
    assert (point["curve"], point["seed"], point["hosts"], point["pairs"]) == (
        "sweep", 255, 18, 9,
    )
    assert point["agreed"]
    assert point["wall_s"] >= 0


def test_the_kstar_at_k4_matches_only_the_whole_star(monkeypatch):
    """Only the whole star can be realized: a span leaving a spoke out gives
    its hub a smaller degree than the sink's hub, and a leaf without its
    spoke a smaller degree than every sink leaf.  The pre-check skips every
    other span, so the matcher runs once."""
    source, sink = _curves().star_pair(4)
    matched = []
    original = dependency.enumerate_matches

    def counting(pattern, host):
        matched.append(pattern)
        return original(pattern, host)

    monkeypatch.setattr(dependency, "enumerate_matches", counting)
    reasons = dependency.dependency_reasons(source, sink)
    assert len(reasons) == 24
    assert [(len(p.nodes), len(p.edges)) for p in matched] == [(5, 4)]


def test_the_mockstate_curve_after_one_round_holds_45_nodes():
    point = _curves().mockstate(1)
    assert (point["curve"], point["rounds"], point["nodes"], point["requests"]) == (
        "mockstate", 1, 45, 66,
    )
    assert point["detected"] == ["flow-neg:createIssue->updateIssue#0"]
    assert point["ms_per_request"] > 0


def test_the_http_curve_after_one_round_times_66_requests_each_way():
    point = _curves().http(1)
    assert (point["curve"], point["rounds"], point["nodes"], point["requests"]) == (
        "http", 1, 45, 66,
    )
    assert point["detected"] == ["flow-neg:createIssue->updateIssue#0"]
    assert point["in_process_ms_per_request"] > 0 and point["http_ms_per_request"] > 0


def test_the_forest_curve_at_depth_6_explores_85_hosts():
    point = _curves().forest(6)
    assert (point["curve"], point["depth"], point["hosts"]) == ("forest", 6, 85)
    assert (point["isomorphic_calls"], point["negative"]) == (140, 34)
    assert 0 < point["identical"] <= point["isomorphic_calls"] - point["negative"]
    assert point["wall_s"] >= 0


def test_the_verdicts_curve_at_17_rules_round_trips_its_table():
    point = _curves().verdicts(17)
    assert (point["curve"], point["rules"], point["round_trip"]) == ("verdicts", 17, True)
    # the rules' names and two 17 x 17 matrices, one cell a line
    assert point["bytes"] == 6822
    assert point["write_ms"] > 0 and point["load_ms"] > 0
