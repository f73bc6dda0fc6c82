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
