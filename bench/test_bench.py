"""Tests of the benchmark itself: the reference, the checks and the tracer.

Run from the repository root with ``python3 -m pytest bench -q``.  The
mutation tests show that each check can fail: a flipped decision in a
failure trace, a dropped summary row and a range-1 table reported to
gather every start must each come back as failed verdicts.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import checks  # noqa: E402
import child  # noqa: E402
import reference as ref  # noqa: E402
from tracing import Tracer  # noqa: E402
from trigather import cli, config, engine, gather2, range1  # noqa: E402

SHAPES = ref.fixed_polyhexes(7)


def sweep(out: Path, algorithm: str) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(["verify", "--n", "7", "--algorithm", algorithm, "--jobs", "1",
                         "--out-dir", str(out)])
    return code, buf.getvalue()


def check(out: Path, code: int, stdout: str, decide, headline: bool) -> checks.Report:
    return checks.check_sweep(out, code, stdout, checks.range2_decider(decide, engine.View),
                              SHAPES, checks.sample_ids(1), headline)


@pytest.fixture(scope="module")
def gather_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("gather")
    return (out, *sweep(out, "gather2-v1"))


@pytest.fixture(scope="module")
def verbatim_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("verbatim")
    return (out, *sweep(out, "gather2-verbatim"))


def test_reference_enumeration_matches_oeis_and_canonical_order():
    # OEIS A001168, fixed polyhexes with 1..7 cells.
    assert [len(ref.fixed_polyhexes(n)) for n in range(1, 7)] == [1, 3, 11, 44, 186, 814]
    assert len(SHAPES) == ref.POLYHEX_7 == 3652
    assert SHAPES == config.enumerate_connected(7)


def test_reference_step_semantics():
    line = frozenset({(0, 0), (1, 0)})
    assert ref.fsync_step(line, {(0, 0): "E", (1, 0): "W"})[1] == "swap"
    assert ref.fsync_step(line, {(0, 0): "E", (1, 0): None})[1] == "move-onto-stationary"
    assert ref.fsync_step(line, {(0, 0): "NE", (1, 0): "NW"})[1] == "same-target"
    assert ref.fsync_step(line, {(0, 0): "E", (1, 0): "E"}) == ("ok", frozenset({(1, 0), (2, 0)}))
    hexagon = frozenset({(0, 0), *(ref.target((0, 0), d) for d in ref.DIRECTION_NAMES)})
    assert ref.is_hexagon(hexagon) and ref.connected(hexagon)
    assert not ref.connected(frozenset({(0, 0), (2, 0)}))
    assert ref.range1_mask(hexagon, (0, 0)) == 0b111111
    assert ref.range1_mask(line, (0, 0)) == 0b000001


def test_headline_sweep_passes_every_check(gather_run):
    report = check(*gather_run, gather2.decide_move, headline=True)
    assert (report.attempted, report.failed, report.problems) == (3652, [], [])


def test_dropped_csv_row_is_a_failed_verdict(gather_run, tmp_path):
    out, code, stdout = gather_run
    shutil.copytree(out, tmp_path, dirs_exist_ok=True)
    csv = tmp_path / "summary.csv"
    csv.write_text("".join(line for line in csv.read_text().splitlines(True)
                           if not line.startswith("100,")))
    report = check(tmp_path, code, stdout, gather2.decide_move, headline=True)
    assert report.attempted == 3652
    assert report.failed == [100]


def test_verbatim_sweep_passes_every_check(verbatim_run):
    report = check(*verbatim_run, gather2.decide_verbatim, headline=False)
    assert (report.attempted, report.failed, report.problems) == (3652, [], [])


def test_flipped_decision_in_a_failure_trace_is_a_failed_verdict(verbatim_run, tmp_path):
    out, code, stdout = verbatim_run
    shutil.copytree(out, tmp_path, dirs_exist_ok=True)
    trace = min((tmp_path / "failures").iterdir(), key=lambda p: int(p.stem.split("-")[1]))
    lines = trace.read_text().splitlines()
    step = json.loads(lines[1])
    assert step["type"] == "step"
    step["decisions"][0] = "E" if step["decisions"][0] == "stay" else "stay"
    lines[1] = json.dumps(step, sort_keys=True, separators=(",", ":"))
    trace.write_text("\n".join(lines) + "\n")
    report = check(tmp_path, code, stdout, gather2.decide_verbatim, headline=False)
    assert report.failed == [int(trace.stem.split("-")[1])]


def test_range1_replay_passes_and_table_gathering_everything_fails():
    (table,) = child.range1_tables(range1, seed=1, count=1)
    actions = tuple(None if m is None else m.name for m in table.actions)
    verdicts = [range1.check_table(table, shape) for shape in SHAPES]
    report = checks.check_range1([actions], SHAPES, [verdicts])
    assert (report.attempted, report.failed, report.problems) == (3652, [], [])

    gathered = engine.Outcome(engine.OutcomeKind.GATHERED)
    forged = [range1.Verdict(gathered, engine.Trace(shape, 1, (), gathered)) for shape in SHAPES]
    report = checks.check_range1([actions], SHAPES, [forged])
    assert report.attempted == 3652
    assert len(report.failed) == 3652


def test_tracer_accounts_for_nested_time_and_restores_the_program():
    (table,) = child.range1_tables(range1, seed=2, count=1)
    original = range1.check_table
    tracer = Tracer()
    tracer.install()
    try:
        for shape in SHAPES[:200]:
            range1.check_table(table, shape)
    finally:
        tracer.uninstall()
    assert range1.check_table is original and engine.run is range1.run
    m = tracer.metrics()
    assert m["range1.check_table_calls"] == 200
    assert m["engine.run_self_calls"] == 200
    assert m["range1.decide_calls"] == m["engine.observe_calls"] > 0
    spans = [v for k, v in m.items() if k.endswith("_s") and k != "trace.self_sum_s"]
    assert all(v >= 0 for v in spans)
    assert m["trace.self_sum_s"] == pytest.approx(sum(spans))


def test_run_fails_without_program_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "n7-gather", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
