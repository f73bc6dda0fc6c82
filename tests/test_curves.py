"""The scaling curves script at its smallest points."""

from __future__ import annotations

import importlib.util
from pathlib import Path

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
