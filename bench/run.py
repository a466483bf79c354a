"""Verdict benchmark for trigather: one command, every metric by name and unit.

    python3 bench/run.py --workload n7-gather --seed 1 --seconds 20 --trace 0

Repeats whole rounds of the workload until ``--seconds`` have passed.  Each
round runs ``bench/child.py`` in a fresh interpreter, so the decision memo
starts cold as on every ``trigather verify`` call, and the child checks
every verdict outside its timed region.  With ``--trace 0`` the last line
is the end-to-end medians over the rounds; with ``--trace 1`` the rounds
are followed by one traced round (and, for the ``n7-*`` workloads, one
sweep through the process pool), and the last line holds the per-layer
metrics.  Exits 1, printing no result, when a round cannot run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / "bench-out"
WORKLOADS = ("n7-gather", "n7-verbatim", "range1-replay")
ROUND_TIMEOUT_S = 120
# Set-up is short and the machine's noise is not, so each run adds this many
# set-up-only interpreters to the set-up samples its rounds give.
SETUP_SAMPLES = 9

END_TO_END = {"wall_s": "s", "verdicts_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "config.enumerate_connected_s": "s",
    "config.is_connected_s": "s",
    "config.is_connected_calls": "count",
    "config.canonicalize_s": "s",
    "config.canonicalize_calls": "count",
    "config.is_gathered_s": "s",
    "engine.run_self_s": "s",
    "engine.compute_decisions_s": "s",
    "engine.looks": "count",
    "engine.steps": "count",
    "engine.observe_s": "s",
    "engine.observe_calls": "count",
    "engine.apply_decisions_s": "s",
    "engine.collisions": "count",
    "engine.trace_to_lines_s": "s",
    "engine.trace_bytes": "bytes",
    "gather2.decide_s": "s",
    "gather2.decide_calls": "count",
    "gather2.distinct_views": "count",
    "gather2.decisions_per_view": "ratio",
    "range1.check_table_s": "s",
    "range1.check_table_calls": "count",
    "range1.decide_s": "s",
    "range1.decide_calls": "count",
    "cli.verify_sweep_s": "s",
    "cli.output_s": "s",
    "cli.bytes_written": "bytes",
    "cli.pool_sweep_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.self_sum_s": "s",
}


def clock() -> float:
    """CLOCK_MONOTONIC is system-wide: the child measures set-up from it."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def run_round(workload: str, seed: int, out: Path, *extra: str) -> dict:
    cmd = [sys.executable, str(BENCH / "child.py"), "--workload", workload,
           "--seed", str(seed), "--out", str(out), *extra]
    try:
        done = subprocess.run(
            cmd + ["--started", repr(clock())],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=ROUND_TIMEOUT_S,
        )
    finally:
        shutil.rmtree(out, ignore_errors=True)
    if done.returncode != 0:
        raise RuntimeError(f"round exited with code {done.returncode}: {' '.join(cmd)}")
    return json.loads(done.stdout.splitlines()[-1])


def per_layer(traced: dict, untraced_walls: list[float], pool: dict | None) -> dict:
    layers = traced["layers"]
    views = layers["gather2.distinct_views"]
    values = dict(layers)
    values.update({
        "engine.looks": layers["engine.compute_decisions_calls"],
        "gather2.decisions_per_view": layers["gather2.decide_calls"] / views if views else 0.0,
        "cli.pool_sweep_s": pool["wall_s"] if pool else 0.0,
        "trace.wall_s": traced["wall_s"],
        "trace.overhead_s": traced["wall_s"] - statistics.median(untraced_walls),
    })
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items()}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ns = ap.parse_args(argv)
    if not (ROOT / "src" / "trigather" / "__init__.py").is_file():
        print(f"error: no trigather sources under {ROOT / 'src'}", file=sys.stderr)
        return 1

    run_dir = OUT / f"{ns.workload}-{os.getpid()}"
    rounds: list[dict] = []
    try:
        deadline = time.monotonic() + ns.seconds
        setups = [run_round(ns.workload, ns.seed, run_dir / "setup", "--setup-only")["setup_s"]
                  for _ in range(0 if ns.trace else SETUP_SAMPLES)]
        while not rounds or time.monotonic() < deadline:
            rounds.append(run_round(ns.workload, ns.seed, run_dir / f"round-{len(rounds)}"))
            r = rounds[-1]
            print(f"round {len(rounds)}: wall_s={r['wall_s']:.4f} setup_s={r['setup_s']:.4f}"
                  f" peak_rss_mb={r['peak_rss_mb']:.2f} failed={r['failed']}/{r['attempted']}",
                  file=sys.stderr)
        extra: list[dict] = []
        if ns.trace:
            extra.append(run_round(ns.workload, ns.seed, run_dir / "traced", "--traced"))
            if ns.workload != "range1-replay":
                jobs = str(len(os.sched_getaffinity(0)))
                extra.append(run_round(ns.workload, ns.seed, run_dir / "pool", "--jobs", jobs))
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    everything = rounds + extra
    problems = [p for r in everything for p in r["problems"]]
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    walls = [r["wall_s"] for r in rounds]
    if ns.trace:
        metrics = per_layer(extra[0], walls, extra[1] if len(extra) > 1 else None)
    else:
        values = {
            "wall_s": statistics.median(walls),
            "verdicts_per_s": statistics.median(r["attempted"] / r["wall_s"] for r in rounds),
            "setup_s": statistics.median(setups + [r["setup_s"] for r in rounds]),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(r["attempted"] for r in everything),
        "failed": sum(r["failed"] for r in everything),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
