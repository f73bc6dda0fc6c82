"""The oracle sweep script on a few seeds."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

from graphbac import oracle

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "sweep.py"


def _sweep():
    spec = importlib.util.spec_from_file_location("sweep", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_three_seeds_agree_and_match_the_reference(capsys):
    assert _sweep().main(["0", "3"]) == 0
    result = json.loads(capsys.readouterr().out)
    assert result["seeds"] == [0, 3]
    assert (result["systems"], result["pairs"]) == (3, 27)
    assert result["hosts"] >= 3
    assert (result["disagreements"], result["mismatches"]) == (0, 0)


def test_a_disagreement_or_a_mismatch_exits_1(monkeypatch, capsys):
    sweep = _sweep()
    # a flipped verdict reaches both oracles: each disagrees, alike
    verdict = oracle.universally_sequentially_independent
    with monkeypatch.context() as mp:
        mp.setattr(oracle, verdict.__name__, lambda first, second: not verdict(first, second))
        assert sweep.main(["0", "3"]) == 1
    flipped = json.loads(capsys.readouterr().out)
    assert flipped["disagreements"] > 0 and flipped["mismatches"] == 0
    # a host the program's oracle loses is a mismatch
    real_hosts = oracle.reachable_hosts
    monkeypatch.setattr(oracle, "reachable_hosts", lambda *args: real_hosts(*args)[:-1])
    assert sweep.main(["0", "3"]) == 1
    lost = json.loads(capsys.readouterr().out)
    assert lost["mismatches"] == 3 and lost["mismatched_seeds"] == [0, 1, 2]


def test_a_malformed_seed_range_exits_2(capsys):
    assert _sweep().main(["0"]) == 2
    assert _sweep().main(["a", "3"]) == 2
    assert "sweep.py [START STOP]" in capsys.readouterr().err
