"""Command-line front end: argument parsing, output formatting and file I/O.

The subcommands call the library (the exhaustive sweep is
:func:`trigather.verify.verify_sweep`); this module keeps only argparse, the
summary formats and the reads and writes around those calls.

Exit codes are a stable contract: 0 success, 1 verification failure,
2 usage or input error.  Handlers raise :class:`UsageError` for bad input and
unwritable outputs; :func:`main` alone reports it.  A closed standard output
changes neither: once its reader has gone, further output is discarded.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from pathlib import Path

from . import config as configs
from . import engine, gather2, range1, render
from .verify import ALGORITHMS, VerificationSummary, verify_sweep

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2

DEFAULT_OUT_DIR = "trigather-out"


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


def _discard_stdout() -> None:
    """Point standard output at the null device, so pending and later writes succeed."""
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, sys.stdout.fileno())
    os.close(devnull)


def _print(text: str, end: str = "\n") -> None:
    """``print`` to standard output, which may have been closed by its reader."""
    try:
        print(text, end=end)
    except BrokenPipeError:
        _discard_stdout()


def _print_summary(summary: VerificationSummary, fmt: str) -> None:
    if fmt == "csv":
        _print("\n".join(summary_csv_rows(summary)))
        return
    if fmt == "json":
        _print(json.dumps(_summary_json(summary), sort_keys=True))
        return
    if summary.n != 7:
        _print("informational: gathering is defined for 7 robots;"
               " outcomes reported without assertion")
    _print(
        f"algorithm={summary.algorithm} n={summary.n} total={summary.total}"
        f" gathered={summary.gathered} failures={len(summary.failures)}"
        f" max-steps-observed={summary.max_steps_observed}"
        f" wall-time={summary.wall_time:.1f}s"
    )
    counts = summary.outcome_counts
    _print("outcomes: " + " ".join(f"{k}={counts[k]}" for k in sorted(counts)))
    for r in summary.failures:
        _print(f"failure: config-{r.config_id} outcome={r.outcome.token()} steps={r.steps}")


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


def _remove_earlier(directory: Path, prefix: str, suffix: str) -> None:
    """Delete the files named ``<prefix><digits><suffix>`` in ``directory``.

    A run calls this before it writes its own artifacts of that pattern, so
    the directory holds only the latest run's; other files stay.
    """
    try:
        names = os.listdir(directory)
    except (FileNotFoundError, NotADirectoryError):
        return
    artifact = re.compile(re.escape(prefix) + "[0-9]+" + re.escape(suffix))
    for name in names:
        if artifact.fullmatch(name):
            try:
                (directory / name).unlink()
            except OSError as exc:
                raise UsageError(f"cannot remove {directory / name}: {exc}") from exc


def _cmd_enumerate(ns: argparse.Namespace) -> int:
    if ns.out:
        _write(Path(ns.out), "")  # claim --out before enumerating
    shapes = configs.enumerate_connected(ns.n)
    _print(f"n={ns.n} count={len(shapes)}")
    if ns.out:
        _write(Path(ns.out), "".join(configs.config_to_json(c) + "\n" for c in shapes))
    return EXIT_OK


def _cmd_verify(ns: argparse.Namespace) -> int:
    out_dir = _claim_dir(ns.out_dir)
    _write(out_dir / "summary.csv", "")  # claim the outputs before sweeping
    fail_dir = out_dir / "failures"
    if fail_dir.exists() and not fail_dir.is_dir():
        raise UsageError(f"cannot write to {fail_dir}: not a directory")
    summary, failure_traces = verify_sweep(ns.n, ns.algorithm, ns.max_steps)
    _write(out_dir / "summary.csv", "\n".join(summary_csv_rows(summary)) + "\n")
    _remove_earlier(fail_dir, "config-", ".trace")
    if failure_traces:
        _claim_dir(fail_dir)
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
    _remove_earlier(out_dir, f"{stem}-step", ".svg")
    if ns.render == "svg":
        for i, doc in enumerate(render.svg_trace(trace)):
            _write(out_dir / f"{stem}-step{i:03d}.svg", doc)
    if ns.render == "ascii":
        _print(render.ascii_trace(trace), end="")
    _print(f"outcome={trace.outcome.token()} steps={len(trace.steps)} trace={trace_path}")
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
    _print(f"outcome={verdict.outcome.token()} steps={len(verdict.trace.steps)}")
    return EXIT_OK


def _cmd_dump_guards(ns: argparse.Namespace) -> int:
    _print(gather2.dump_guards(), end="")
    return EXIT_OK


def _step_budget(text: str) -> int:
    """The ``--max-steps`` value: ASCII decimal digits, at least 1."""
    if not (text.isascii() and text.isdigit()) or int(text) < 1:
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
    except BrokenPipeError:  # --help into a closed pipe; argparse before 3.11 lets it out
        _discard_stdout()
        return EXIT_OK
    try:
        return ns.func(ns)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry() -> None:
    code = main()
    try:
        sys.stdout.flush()  # here rather than at exit, where a closed pipe is an error
    except BrokenPipeError:
        _discard_stdout()
    sys.exit(code)


if __name__ == "__main__":
    entry()
