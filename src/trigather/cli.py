"""Command-line front end: enumeration, tracing, exhaustive verification.

Exit codes are a stable contract: 0 success, 1 verification failure,
2 usage or input error.  Handlers raise :class:`UsageError` for bad input and
unwritable outputs; :func:`main` alone reports it.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from . import config as configs
from . import engine, gather2, range1, render

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2

DEFAULT_OUT_DIR = "trigather-out"


def _all_stay(view: engine.View) -> engine.Move:
    return None


# algorithm id -> (decision function, visibility range)
ALGORITHMS: dict[str, tuple[engine.DecisionFunction, int]] = {
    gather2.ALGORITHM_ID: (gather2.decide_move, 2),
    gather2.ALGORITHM_ID_VERBATIM: (gather2.decide_verbatim, 2),
    "all-stay": (_all_stay, 2),
}


@dataclass(frozen=True)
class ConfigResult:
    config_id: int
    outcome: engine.Outcome
    steps: int
    min_connected: bool

    @property
    def gathered(self) -> bool:
        return self.outcome.kind == engine.OutcomeKind.GATHERED


@dataclass(frozen=True)
class VerificationSummary:
    algorithm: str
    n: int
    total: int
    gathered: int
    failures: tuple[ConfigResult, ...]
    max_steps_observed: int
    wall_time: float
    results: tuple[ConfigResult, ...]

    @property
    def outcome_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for r in self.results:
            counts[r.outcome.token()] = counts.get(r.outcome.token(), 0) + 1
        return counts


def verify_sweep(
    n: int,
    algorithm: str,
    max_steps: int = engine.DEFAULT_MAX_STEPS,
) -> tuple[VerificationSummary, list[tuple[int, list[str]]]]:
    """Run an algorithm over every enumerated configuration of size n.

    Valid because decisions depend only on the robot-relative view and every
    connected successor of an n-shape is an enumerated n-shape: each shape is
    stepped once, and steps-to-gather is its depth below a quiescent gathered
    shape in the successor graph.  Every other start fails and is re-run
    with :func:`engine.run` for its outcome and trace.  Results are in
    canonical enumeration order.
    """
    if algorithm not in ALGORITHMS:
        raise KeyError(f"unknown algorithm {algorithm!r}")
    if max_steps < 1:
        raise ValueError("max_steps must be positive")
    decide, visibility = ALGORITHMS[algorithm]
    started = time.perf_counter()
    shapes = configs.enumerate_connected(n)
    index = {cfg: idx for idx, cfg in enumerate(shapes)}
    predecessors: list[list[int]] = [[] for _ in shapes]
    queue: list[int] = []  # quiescent gathered shapes, then breadth-first
    for idx, cfg in enumerate(shapes):
        decisions = engine.compute_decisions(cfg, decide, visibility)
        if all(m is None for m in decisions.values()):
            if configs.is_gathered(cfg):
                queue.append(idx)
            continue
        successor = engine.apply_decisions(cfg, decisions)
        if not isinstance(successor, engine.CollisionReport):
            nxt = index.get(configs.canonicalize(successor))
            if nxt is not None:
                predecessors[nxt].append(idx)

    # Breadth-first over reverse edges.  Each shape has one successor, so
    # each is reached at most once, and cycles are never reached.
    depth = dict.fromkeys(queue, 0)
    for idx in queue:
        for prev in predecessors[idx]:
            depth[prev] = depth[idx] + 1
            queue.append(prev)

    gathered_outcome = engine.Outcome(engine.OutcomeKind.GATHERED)
    results = []
    failure_traces = []
    for idx, cfg in enumerate(shapes):
        if depth.get(idx, max_steps) < max_steps:
            results.append(ConfigResult(idx, gathered_outcome, depth[idx], True))
            continue
        trace = engine.run(cfg, decide, visibility, max_steps)
        results.append(ConfigResult(idx, trace.outcome, len(trace.steps), trace.min_connected))
        failure_traces.append((idx, engine.trace_to_lines(trace, algorithm)))
    summary = VerificationSummary(
        algorithm=algorithm,
        n=n,
        total=len(results),
        gathered=sum(1 for r in results if r.gathered),
        failures=tuple(r for r in results if not r.gathered),
        max_steps_observed=max((r.steps for r in results), default=0),
        wall_time=time.perf_counter() - started,
        results=tuple(results),
    )
    return summary, failure_traces


def summary_csv_rows(summary: VerificationSummary) -> list[str]:
    rows = ["config_id,outcome,steps,min_connected"]
    for r in summary.results:
        rows.append(
            f"{r.config_id},{r.outcome.token()},{r.steps},{str(r.min_connected).lower()}"
        )
    return rows


def _summary_json(summary: VerificationSummary) -> dict:
    return {
        "algorithm": summary.algorithm,
        "n": summary.n,
        "total": summary.total,
        "gathered": summary.gathered,
        "failures": [r.config_id for r in summary.failures],
        "max_steps_observed": summary.max_steps_observed,
        "outcomes": summary.outcome_counts,
        "wall_time_seconds": round(summary.wall_time, 3),
    }


def _print_summary(summary: VerificationSummary, fmt: str) -> None:
    if fmt == "csv":
        print("\n".join(summary_csv_rows(summary)))
        return
    if fmt == "json":
        print(json.dumps(_summary_json(summary), sort_keys=True))
        return
    if summary.n != 7:
        print("informational: gathering is defined for 7 robots;"
              " outcomes reported without assertion")
    print(
        f"algorithm={summary.algorithm} n={summary.n} total={summary.total}"
        f" gathered={summary.gathered} failures={len(summary.failures)}"
        f" max-steps-observed={summary.max_steps_observed}"
        f" wall-time={summary.wall_time:.1f}s"
    )
    counts = summary.outcome_counts
    print("outcomes: " + " ".join(f"{k}={counts[k]}" for k in sorted(counts)))
    for r in summary.failures:
        print(f"failure: config-{r.config_id} outcome={r.outcome.token()} steps={r.steps}")


class UsageError(Exception):
    """Bad input or an unwritable output; :func:`main` reports it and exits 2."""


def _read(path: str, parse, hint: str = ""):
    """``parse`` applied to the text of ``path``; unreadable or malformed is a UsageError."""
    try:
        return parse(Path(path).read_text())
    except (OSError, ValueError) as exc:
        raise UsageError(f"{path}: {exc}{hint}") from exc


def _connected(cfg: configs.Configuration, name: str) -> configs.Configuration:
    if not configs.is_connected(cfg):
        raise UsageError(f"{name}: configuration is not connected")
    return cfg


def _claim_dir(path: str | Path) -> Path:
    """Create the output directory ``path`` (and its parents) before any work."""
    out = Path(path)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise UsageError(f"cannot write to {path}: {exc}") from exc
    return out


def _write(path: Path, text: str) -> None:
    try:
        path.write_text(text)
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc}") from exc


def _cmd_enumerate(ns: argparse.Namespace) -> int:
    shapes = configs.enumerate_connected(ns.n)
    print(f"n={ns.n} count={len(shapes)}")
    if ns.out:
        _write(Path(ns.out), "".join(configs.config_to_json(c) + "\n" for c in shapes))
    return EXIT_OK


def _cmd_verify(ns: argparse.Namespace) -> int:
    out_dir = _claim_dir(ns.out_dir)
    summary, failure_traces = verify_sweep(ns.n, ns.algorithm, ns.max_steps)
    _write(out_dir / "summary.csv", "\n".join(summary_csv_rows(summary)) + "\n")
    if failure_traces:
        fail_dir = _claim_dir(out_dir / "failures")
        for idx, lines in failure_traces:
            _write(fail_dir / f"config-{idx}.trace", "\n".join(lines) + "\n")
    _print_summary(summary, ns.format)
    return EXIT_FAILURE if ns.n == 7 and summary.failures else EXIT_OK


def _cmd_run(ns: argparse.Namespace) -> int:
    cfg = _connected(_read(ns.config, configs.config_from_json), ns.config)
    out_dir = _claim_dir(ns.out_dir)
    decide, visibility = ALGORITHMS[ns.algorithm]
    trace = engine.run(cfg, decide, visibility, ns.max_steps)
    stem = Path(ns.config).stem or "run"
    trace_path = out_dir / f"{stem}.trace"
    _write(trace_path, "\n".join(engine.trace_to_lines(trace, ns.algorithm)) + "\n")
    if ns.render == "svg":
        for i, doc in enumerate(render.svg_trace(trace)):
            _write(out_dir / f"{stem}-step{i:03d}.svg", doc)
    if ns.render == "ascii":
        print(render.ascii_trace(trace), end="")
    print(f"outcome={trace.outcome.token()} steps={len(trace.steps)} trace={trace_path}")
    return EXIT_OK


def _cmd_range1(ns: argparse.Namespace) -> int:
    table = _read(ns.table, range1.table_from_text)
    if ns.config in range1.BUILTIN_CONFIGS:
        cfg = range1.BUILTIN_CONFIGS[ns.config].robots
    else:
        builtins = ", ".join(sorted(range1.BUILTIN_CONFIGS))
        cfg = _read(ns.config, configs.config_from_json, f" (built-in configurations: {builtins})")
    cfg = _connected(cfg, ns.config)
    out_dir = _claim_dir(ns.out_dir)
    verdict = range1.check_table(table, cfg, ns.max_steps)
    lines = engine.trace_to_lines(verdict.trace, f"range1:{Path(ns.table).name}")
    _write(out_dir / "range1.trace", "\n".join(lines) + "\n")
    print(f"outcome={verdict.outcome.token()} steps={len(verdict.trace.steps)}")
    return EXIT_OK


def _cmd_dump_guards(ns: argparse.Namespace) -> int:
    print(gather2.dump_guards(), end="")
    return EXIT_OK


def _step_budget(text: str) -> int:
    """The ``--max-steps`` value: a decimal integer of at least 1."""
    if not text.isdigit() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be an integer of at least 1, got {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trigather",
        description="Gathering of oblivious robots on the triangular grid:"
        " simulate, render, and exhaustively verify.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="count/emit connected configurations up to translation")
    sizes = range(1, configs.MAX_ENUMERATION_SIZE + 1)
    p.add_argument("--n", type=int, choices=sizes, required=True, help="number of robots (1..8)")
    p.add_argument("--out", help="write all canonical configurations, one JSON object per line")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("verify", help="run an algorithm over every connected configuration")
    p.add_argument("--n", type=int, choices=sizes, default=7)
    p.add_argument("--algorithm", choices=sorted(ALGORITHMS), default=gather2.ALGORITHM_ID)
    p.add_argument("--max-steps", type=_step_budget, default=engine.DEFAULT_MAX_STEPS)
    p.add_argument("--jobs", type=int, help="accepted for compatibility; has no effect")
    p.add_argument("--out-dir", default=DEFAULT_OUT_DIR)
    p.add_argument("--format", choices=("human", "csv", "json"), default="human")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("run", help="trace one configuration file")
    p.add_argument("--config", required=True, help="configuration JSON file")
    p.add_argument("--algorithm", choices=sorted(ALGORITHMS), default=gather2.ALGORITHM_ID)
    p.add_argument("--max-steps", type=_step_budget, default=engine.DEFAULT_MAX_STEPS)
    p.add_argument("--render", choices=("none", "ascii", "svg"), default="none")
    p.add_argument("--out-dir", default=DEFAULT_OUT_DIR)
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("range1", help="check a visibility-range-1 rule table on a configuration")
    p.add_argument("--table", required=True, help="rule-table text file")
    p.add_argument("--config", required=True, help="built-in configuration name or JSON file")
    p.add_argument("--max-steps", type=_step_budget, default=engine.DEFAULT_MAX_STEPS)
    p.add_argument("--out-dir", default=DEFAULT_OUT_DIR)
    p.set_defaults(func=_cmd_range1)

    p = sub.add_parser("dump-guards", help="print the compiled guard table for auditing")
    p.set_defaults(func=_cmd_dump_guards)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return ns.func(ns)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
