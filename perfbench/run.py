"""graphbac benchmark: one workload, timed, checked and reported as JSON.

    python3 perfbench/run.py --workload pipeline|replay|oracle \\
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout; graphbac is imported from `src/`
there and nowhere else.  The run sets the workload up several times and
keeps the median as `setup_s`, then repeats fixed-size passes (see
workloads.py) until `--seconds` have gone, checking every pass's output.
With `--trace 0` it reports the end-to-end metrics, medians over passes.
With `--trace 1` it spends the first half of the time on untraced passes
and the second half on traced ones, reports the per-layer metrics (medians
over traced passes) and the tracing overhead, and writes every span to
`.perfbench-work/`.  End-to-end times are in reference-speed seconds (see
calibrate.py); the wall time of the median pass is printed beside them.
Metric names and units come from BENCHMARK.json.  The last line of
standard output is one JSON object; the exit code is 1 when an output check
failed and 2 when the checkout holds no graphbac.

Out of scope here: counters inside graphbac and a `--stats` flag on its
CLI; this benchmark observes graphbac only from outside.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench-work"
SETUPS = 11  # set-ups per run; setup_s is their median
# Set and dict layouts follow the string hash seed, and with a random seed
# per process the same passes ran 10 % slower or faster from run to run.
HASH_SEED = "0"


def import_graphbac() -> None:
    """Put the checkout's `src/` first on the path, or exit 2."""
    src = ROOT / "src"
    if not (src / "graphbac" / "__init__.py").is_file():
        print(f"error: {src}/graphbac not found; run from a graphbac checkout",
              file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(src))


def percentile(values: list[float], q: float) -> float:
    """Linearly interpolated percentile, q in [0, 1]."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def run_passes(workload, seconds: float, tracer=None) -> list:
    """Fixed-size passes until `seconds` have gone; at least one."""
    passes = []
    deadline = time.perf_counter() + seconds
    while not passes or time.perf_counter() < deadline:
        gc.collect()
        if tracer is not None:
            tracer.pass_no = len(passes)
        passes.append(workload.run_pass(tracer))
    return passes


def pass_medians(passes) -> dict[str, float]:
    """Medians over passes; latency percentiles are taken within each pass.

    Each pass does the same work, so the median pass is the run's typical
    pass; on a shared host whose speed drifts, medians spread least from
    run to run of all the estimators tried (minima spread most).
    """
    return {
        "verdict_s": statistics.median(p.verdict_s for p in passes),
        "req_per_s": statistics.median(p.attempted / p.verdict_s for p in passes),
        "req_p50_ms": statistics.median(percentile(p.latencies, 0.5) for p in passes) * 1e3,
        "req_p95_ms": statistics.median(percentile(p.latencies, 0.95) for p in passes) * 1e3,
    }


def end_to_end(passes, setup_times: list[float]) -> dict[str, float]:
    return {
        **pass_medians(passes),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def round_rates(passes) -> list[tuple[int, float]]:
    """Replay curve: mock nodes after each round, and the round's median req/s."""
    return [
        (rounds[0][0], statistics.median(rate for _, rate in rounds))
        for rounds in zip(*(p.round_rates for p in passes))
    ]


def per_layer(tracer, traced, untraced) -> dict[str, float]:
    """The tracer's layer metrics, the replay curve's ends, and the overhead."""
    layers = tracer.layer_metrics()
    curve = round_rates(traced) or [(0, 0.0)]
    layers["mock.first_round_req_per_s"] = curve[0][1]
    layers["mock.last_round_req_per_s"] = curve[-1][1]
    on, off = pass_medians(traced), pass_medians(untraced)
    layers["trace.verdict_overhead_pct"] = (on["verdict_s"] / off["verdict_s"] - 1) * 100
    layers["trace.req_per_s_overhead_pct"] = (1 - on["req_per_s"] / off["req_per_s"]) * 100
    return layers


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("pipeline", "replay", "oracle"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("full", "tiny"), default="full",
        help="tiny shrinks every workload, for the benchmark's self-tests",
    )
    args = parser.parse_args(argv)
    if argv is None and os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # replaces this process (same pid) with one whose hash seed is fixed
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  {**os.environ, "PYTHONHASHSEED": HASH_SEED})
    import_graphbac()
    from calibrate import Calibration
    from tracer import Tracer
    from workloads import WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[kind]}
    run_dir = WORK / f"{args.workload}-{args.seed}-{args.size}-{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)

    setup_times = []
    calibration = Calibration()
    workload = None
    for index in range(SETUPS):
        work = run_dir / f"setup-{index}"
        work.mkdir(parents=True)
        calibration.sample()
        start = time.perf_counter()
        built = WORKLOADS[args.workload](ROOT, work, args.seed, args.size)
        setup_times.append(time.perf_counter() - start)
        if workload is not None:
            workload.close()
        workload = built
    setup_times = [t * calibration.scale() for t in setup_times]

    try:
        if args.trace:
            untraced = run_passes(workload, args.seconds / 2)
            tracer = Tracer()
            tracer.install()
            try:
                traced = run_passes(workload, args.seconds / 2, tracer)
            finally:
                tracer.uninstall()
            tracer.write(run_dir / "spans.jsonl")
            values = per_layer(tracer, traced, untraced)
            passes = untraced + traced
        else:
            passes = run_passes(workload, args.seconds)
            values = end_to_end(passes, setup_times)
    finally:
        workload.close()

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    print(f"workload {args.workload}, seed {args.seed}: {len(passes)} passes, "
          f"{attempted} operations ({passes[0].attempted} per pass), {failed} failed, "
          f"error_rate {failed / attempted:.6f}; median pass "
          f"{statistics.median(p.raw_verdict_s for p in passes):.4g} s wall, machine-speed "
          f"scale {statistics.median(p.scale for p in passes):.4g}")
    for nodes, rate in round_rates(passes):
        print(f"  round curve: {nodes} mock nodes, {rate:.1f} req/s")
    for name, unit in units.items():
        print(f"  {name} = {values[name]:.6g} {unit}")
    problems = [f"pass {i}: {msg}" for i, p in enumerate(passes) for msg in p.problems]
    for problem in problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
