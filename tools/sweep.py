#!/usr/bin/env python3
"""Sweep the oracle over wide random systems, against the reference oracle.

    python3 tools/sweep.py [START STOP]

For each seed in range(START, STOP), 0 to 300 by default, the wide random
system of `randgen.wide_system` (up to 3 node and 3 edge types, 3 rules of
at most 3 nodes and 2 edges, 0-2 isolated initial nodes) is checked at
depth 3 by the program's `run_oracle` and by the reference engine's
`reference.oracle`, which shares none of the program's matcher, rewrite,
isomorphism or search code.  The reference reads the analysis's verdict
functions through `graphbac.oracle`, as the differential tests do.

It prints one JSON line: the systems swept, the hosts explored and rule
pairs checked (summed over the systems), the program oracle's
disagreements with the analysis, the mismatches (seeds whose two reports
differ in hosts, pairs or disagreements), the first seeds of each, and the
wall time.  It exits 1 when there is a disagreement or a mismatch, else 0.

graphbac is imported from the `src/` of the checkout this script is in,
and the generator and reference engine from its `tests/`; nothing outside
the standard library is needed.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests"))

from graphbac import oracle  # noqa: E402
from randgen import wide_system  # noqa: E402
import reference  # noqa: E402

DEPTH = 3
SHOWN = 10  # seeds listed for disagreements and for mismatches


def sweep(seeds: range) -> dict:
    """Both oracles on the wide system of each seed, counted."""
    start = time.monotonic()
    counts = {"systems": 0, "hosts": 0, "pairs": 0, "disagreements": 0, "mismatches": 0}
    disagreeing, mismatched = [], []
    for seed in seeds:
        rules, initial = wide_system(seed)
        report = oracle.run_oracle(rules, rules, initial, DEPTH)
        ref = reference.oracle(
            rules,
            rules,
            initial,
            DEPTH,
            dependency_reasons=oracle.dependency_reasons,
            universally_sequentially_independent=oracle.universally_sequentially_independent,
            delete_overlap_reasons=oracle.delete_overlap_reasons,
        )
        counts["systems"] += 1
        counts["hosts"] += report.hosts_explored
        counts["pairs"] += report.pairs_checked
        counts["disagreements"] += len(report.disagreements)
        if report.disagreements:
            disagreeing.append(seed)
        if (report.hosts_explored, report.pairs_checked, report.disagreements) != tuple(ref):
            counts["mismatches"] += 1
            mismatched.append(seed)
    return {
        "seeds": [seeds.start, seeds.stop],
        **counts,
        "disagreeing_seeds": disagreeing[:SHOWN],
        "mismatched_seeds": mismatched[:SHOWN],
        "wall_s": round(time.monotonic() - start, 2),
    }


def main(argv: list[str]) -> int:
    if len(argv) not in (0, 2) or not all(a.isdigit() for a in argv):
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    start, stop = map(int, argv) if argv else (0, 300)
    result = sweep(range(start, stop))
    print(json.dumps(result), flush=True)
    return 1 if result["disagreements"] or result["mismatches"] else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
