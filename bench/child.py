"""One benchmark round, in a fresh interpreter.

Imports ``trigather`` from the checkout's ``src``, builds the workload's
inputs, times the workload's one call, then checks every verdict the call
produced against the independent reference.  Prints one JSON object.

    python3 bench/child.py --workload n7-gather --seed 1 --out DIR \
        --started <CLOCK_MONOTONIC at spawn> [--traced | --jobs N | --setup-only]
"""

from __future__ import annotations

import argparse
import contextlib
import json
import random
import resource
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"

import checks  # noqa: E402  (sibling modules; the script's directory is on sys.path)
import reference as ref  # noqa: E402

# workload -> (algorithm id, gather2 decision function the checks re-run)
ALGORITHM = {
    "n7-gather": ("gather2-v1", "decide_move"),
    "n7-verbatim": ("gather2-verbatim", "decide_verbatim"),
}
RANGE1_TABLES = 16


def now() -> float:
    """CLOCK_MONOTONIC is system-wide, so the parent's spawn time compares."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def import_program():
    sys.path.insert(0, str(SRC))
    try:
        import trigather
        from trigather import cli, engine, gather2, range1
    except ImportError as exc:
        raise SystemExit(f"cannot import trigather from {SRC}: {exc}")
    if Path(trigather.__file__).resolve().parent != SRC / "trigather":
        raise SystemExit(f"trigather was imported from {trigather.__file__}, not {SRC}")
    return cli, engine, gather2, range1


def range1_tables(range1, seed: int, count: int = RANGE1_TABLES) -> list:
    """``count`` rule tables, each entry drawn from ``range1.constrained_actions``."""
    rng = random.Random(seed)
    return [
        range1.RuleTable(
            tuple(rng.choice(range1.constrained_actions(mask)) for mask in range(range1.TABLE_SIZE))
        )
        for _ in range(count)
    ]


def bytes_under(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=[*ALGORITHM, "range1-replay"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--started", type=float, required=True)
    ap.add_argument("--traced", action="store_true")
    ap.add_argument("--jobs", type=int, default=1)
    ap.add_argument("--setup-only", action="store_true", help="stop after set-up")
    ns = ap.parse_args(argv)

    cli, engine, gather2, range1 = import_program()
    ns.out.mkdir(parents=True, exist_ok=True)
    if ns.workload == "range1-replay":
        shapes = ref.fixed_polyhexes(7)
        tables = range1_tables(range1, ns.seed)

        def call():
            return [[range1.check_table(table, shape) for shape in shapes] for table in tables]

    else:
        argv = ["verify", "--n", "7", "--algorithm", ALGORITHM[ns.workload][0],
                "--jobs", str(ns.jobs), "--out-dir", str(ns.out)]
        stdout_path = ns.out / "stdout.txt"

        def call():
            with open(stdout_path, "w") as sink, contextlib.redirect_stdout(sink):
                return cli.main(argv)

    setup_s = now() - ns.started
    if ns.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = None
    if ns.traced:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    start = time.perf_counter()
    result = call()
    wall_s = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        tracer.uninstall()

    if ns.workload == "range1-replay":
        actions = [tuple(None if m is None else m.name for m in t.actions) for t in tables]
        report = checks.check_range1(actions, shapes, result)
    else:
        shapes = ref.fixed_polyhexes(7)
        decide = getattr(gather2, ALGORITHM[ns.workload][1])
        report = checks.check_sweep(
            ns.out,
            result,
            stdout_path.read_text(),
            checks.range2_decider(decide, engine.View),
            shapes,
            checks.sample_ids(ns.seed),
            headline=ns.workload == "n7-gather",
        )
    if len(shapes) != ref.POLYHEX_7:
        report.problems.append("reference enumeration disagrees with OEIS A001168")
    layers = None
    if tracer is not None:
        layers = tracer.metrics()
        layers["cli.bytes_written"] = bytes_under(ns.out)
        if abs(layers["trace.self_sum_s"] - wall_s) > 0.1 * wall_s:
            report.problems.append("traced self times do not sum to the traced wall time")

    out = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": peak_rss_mb,
        "attempted": report.attempted,
        "failed": len(report.failed),
        "problems": report.problems,
        "layers": layers,
    }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
