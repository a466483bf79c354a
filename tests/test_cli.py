"""Command-line contract: subcommands, formats, exit codes."""

import contextlib
import functools
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import tempfile
from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st

from rule_tables import ALL_STAY, stay
from trigather import cli, engine, verify
from trigather.cli import ALGORITHMS, EXIT_FAILURE, EXIT_OK, EXIT_USAGE, main, summary_csv_rows
from trigather.config import config_to_json, enumerate_connected, gathered_hexagon
from trigather.gather2 import dump_guards
from trigather.range1 import (
    ACTIONS,
    TABLE_SIZE,
    RuleTable,
    constrained_actions,
    table_to_decision,
    table_to_text,
)
from trigather.verify import ConfigResult, verify_sweep

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


@pytest.fixture()
def hexa_file(tmp_path):
    path = tmp_path / "hexa.json"
    path.write_text(config_to_json(gathered_hexagon()))
    return path


@pytest.fixture()
def all_stay(monkeypatch):
    """Registers ``all-stay``, a baseline where every robot stays, as an algorithm id."""
    monkeypatch.setitem(verify.ALGORITHMS, "all-stay", (stay, 2))


@pytest.fixture()
def line_file(tmp_path):
    path = tmp_path / "line.json"
    path.write_text(config_to_json(frozenset((k, -k) for k in range(7))))
    return path


def test_enumerate_out_of_range_exits_2(tmp_path, capsys):
    # --n takes ASCII digits only, as --max-steps does: no Arabic-Indic ٣ or ٢
    for value in ("0", "9", "٣", "٢", " 3 ", "0_3"):
        assert main(["enumerate", "--n", value]) == EXIT_USAGE
        assert main(["verify", "--n", value, "--out-dir", str(tmp_path)]) == EXIT_USAGE


def test_enumerate_writes_configs(tmp_path, capsys):
    out = tmp_path / "shapes.jsonl"
    assert main(["enumerate", "--n", "3", "--out", str(out)]) == EXIT_OK
    lines = out.read_text().splitlines()
    assert len(lines) == 11
    for line in lines:
        robots = json.loads(line)["robots"]
        assert len(robots) == 3
    assert main(["enumerate", "--n", "3", "--out", ""]) == EXIT_USAGE  # no file is named ''


def test_run_gathered_hexagon(hexa_file, tmp_path, capsys):
    out = tmp_path / "artifacts"
    code = main(
        ["run", "--config", str(hexa_file), "--algorithm", "gather2-v1",
         "--render", "ascii", "--out-dir", str(out)]
    )
    assert code == EXIT_OK
    printed = capsys.readouterr().out
    assert printed == (
        "step 0 (initial)\n"
        "    . . . . .\n"
        "   . * * . .\n"
        "  . * * * .\n"
        " . . * * .\n"
        ". . . . .\n"
        "\n"
        "outcome: gathered after 0 steps\n"
        f"outcome=gathered steps=0 trace={out / 'hexa.trace'}\n"
    )
    trace = (out / "hexa.trace").read_text().splitlines()
    assert json.loads(trace[0])["algorithm"] == "gather2-v1"
    assert json.loads(trace[-1]) == {"type": "trailer", "outcome": "gathered", "steps": 0}


def test_run_line_frozen_step_count(line_file, tmp_path, capsys):
    code = main(["run", "--config", str(line_file), "--out-dir", str(tmp_path / "o")])
    assert code == EXIT_OK
    assert "outcome=gathered steps=17" in capsys.readouterr().out


def test_run_render_svg_deterministic(line_file, tmp_path, capsys):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    for out in (out1, out2):
        assert main(
            ["run", "--config", str(line_file), "--render", "svg", "--out-dir", str(out)]
        ) == EXIT_OK
    files1 = sorted(p.name for p in out1.glob("*.svg"))
    assert len(files1) == 18  # initial plus 17 steps
    for name in files1:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_run_duplicate_coordinates_exit_2(tmp_path, capsys):
    bad = tmp_path / "dup.json"
    bad.write_text('{"robots": [[0, 0], [0, 0], [1, 0]]}')
    assert main(["run", "--config", str(bad), "--out-dir", str(tmp_path)]) == EXIT_USAGE
    assert "duplicate" in capsys.readouterr().err


def test_run_disconnected_exit_2(tmp_path, capsys):
    bad = tmp_path / "gap.json"
    bad.write_text('{"robots": [[0, 0], [5, 5]]}')
    assert main(["run", "--config", str(bad), "--out-dir", str(tmp_path)]) == EXIT_USAGE
    assert "not connected" in capsys.readouterr().err


def test_verify_informational_for_small_n(tmp_path, capsys):
    code = main(["verify", "--n", "2", "--jobs", "1", "--out-dir", str(tmp_path / "v")])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "informational" in out
    assert "total=3" in out
    csv_rows = (tmp_path / "v" / "summary.csv").read_text().splitlines()
    assert csv_rows[0] == "config_id,outcome,steps,min_connected"
    assert len(csv_rows) == 4


def test_verify_unknown_algorithm_exit_2(tmp_path, capsys):
    for algorithm in ("nope", "all-stay"):
        assert main(
            ["verify", "--n", "2", "--algorithm", algorithm, "--out-dir", str(tmp_path)]
        ) == EXIT_USAGE


def test_verify_csv_format(tmp_path, capsys):
    code = main(
        ["verify", "--n", "2", "--jobs", "1", "--format", "csv",
         "--out-dir", str(tmp_path / "v")]
    )
    assert code == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "config_id,outcome,steps,min_connected"
    assert lines[1].startswith("0,livelock:1,0,")


def printed_json(capsys):
    """The one-line ``--format json`` summary, without its wall time."""
    printed = capsys.readouterr().out
    assert printed.endswith("}\n") and printed.count("\n") == 1
    summary = json.loads(printed)
    assert isinstance(summary.pop("wall_time_seconds"), float)
    return summary


def test_verify_json_format(tmp_path, capsys):
    code = main(["verify", "--n", "2", "--format", "json", "--out-dir", str(tmp_path / "v")])
    assert code == EXIT_OK
    assert printed_json(capsys) == {
        "algorithm": "gather2-v1",
        "n": 2,
        "total": 3,
        "gathered": 0,
        "failures": [0, 1, 2],
        "max_steps_observed": 0,
        "outcomes": {"livelock:1": 3},
    }


def test_verify_failing_algorithm_exit_1_and_persists_traces(all_stay, tmp_path, capsys):
    out = tmp_path / "v"
    code = main(
        ["verify", "--n", "7", "--algorithm", "all-stay", "--jobs", "1",
         "--max-steps", "5", "--out-dir", str(out)]
    )
    assert code == EXIT_FAILURE
    printed = capsys.readouterr().out
    # every shape but the already-gathered hexagon stalls under all-stay
    assert "total=3652 gathered=1 failures=3651" in printed
    traces = list((out / "failures").glob("config-*.trace"))
    assert len(traces) == 3651


def test_range1_builtin_and_table_file(tmp_path, capsys):
    table_file = tmp_path / "allstay.tbl"
    table_file.write_text(table_to_text(ALL_STAY))
    code = main(
        ["range1", "--table", str(table_file), "--config", "fig5a-diagonal",
         "--out-dir", str(tmp_path / "r")]
    )
    assert code == EXIT_OK
    assert capsys.readouterr().out == "outcome=livelock:1 steps=0\n"
    assert (tmp_path / "r" / "range1.trace").exists()


def test_range1_malformed_table_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.tbl"
    bad.write_text("000000 stay\n000001 E\n")
    code = main(
        ["range1", "--table", str(bad), "--config", "fig5a-diagonal",
         "--out-dir", str(tmp_path)]
    )
    assert code == EXIT_USAGE
    assert "64 lines" in capsys.readouterr().err


def test_range1_unknown_config_exit_2(tmp_path, capsys):
    table_file = tmp_path / "allstay.tbl"
    table_file.write_text(table_to_text(ALL_STAY))
    code = main(
        ["range1", "--table", str(table_file), "--config", "no-such-thing",
         "--out-dir", str(tmp_path)]
    )
    assert code == EXIT_USAGE


def test_module_entry_point_in_a_subprocess(tmp_path):
    env = {**os.environ, "PYTHONPATH": SRC}

    def trigather(*args):
        return subprocess.run(
            [sys.executable, "-m", "trigather", *args],
            cwd=tmp_path, env=env, capture_output=True, text=True,
        )

    dump = trigather("dump-guards")
    assert dump.returncode == EXIT_OK
    assert dump.stdout == dump_guards()
    too_many = trigather("verify", "--n", "9")
    assert too_many.returncode == EXIT_USAGE
    assert "Traceback" not in too_many.stderr and "error: " in too_many.stderr


@pytest.mark.parametrize("unbuffered", [False, True])
def test_closed_stdout_keeps_the_exit_code_and_prints_no_traceback(tmp_path, unbuffered):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = SRC
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    # only an n=7 sweep can fail: smaller sizes are informational and exit 0
    cases = [
        (["verify", "--n", n, "--algorithm", algorithm, "--out-dir", str(tmp_path / algorithm)],
         expected)
        for n, algorithm, expected in (
            ("2", "gather2-v1", EXIT_OK), ("7", "gather2-verbatim", EXIT_FAILURE)
        )
    ]
    for argv, expected in cases + [(["--help"], EXIT_OK)]:
        read_end, write_end = os.pipe()
        os.close(read_end)  # the reader is gone before the command starts
        try:
            done = subprocess.run(
                [sys.executable, "-m", "trigather", *argv],
                stdout=write_end, stderr=subprocess.PIPE, env=env, text=True,
            )
        finally:
            os.close(write_end)
        assert (done.returncode, done.stderr) == (expected, ""), argv


def test_reused_verify_out_dir_holds_only_the_latest_traces(tmp_path, capsys):
    out = tmp_path / "o"
    failures = out / "failures"
    assert main(["verify", "--algorithm", "gather2-verbatim", "--format", "json",
                 "--out-dir", str(out)]) == EXIT_FAILURE
    assert len(list(failures.glob("config-*.trace"))) == 1757
    # the json summary agrees with summary.csv, failure ids included
    summary = printed_json(capsys)
    rows = [line.split(",") for line in (out / "summary.csv").read_text().splitlines()[1:]]
    assert summary == {
        "algorithm": "gather2-verbatim",
        "n": 7,
        "total": len(rows),
        "gathered": 3652 - 1757,
        "failures": [int(cid) for cid, outcome, _, _ in rows if outcome != "gathered"],
        "max_steps_observed": max(int(steps) for _, _, steps, _ in rows),
        "outcomes": dict(Counter(outcome for _, outcome, _, _ in rows)),
    }
    for name in ("notes.txt", "config-x.trace"):  # not the tool's names: kept
        (failures / name).write_text("kept\n")
    assert main(["verify", "--n", "3", "--out-dir", str(out)]) == EXIT_OK
    assert "total=11 gathered=0 failures=11" in capsys.readouterr().out
    latest = sorted(f"config-{cid}.trace" for cid in range(11))
    assert sorted(p.name for p in failures.iterdir()) == sorted(
        latest + ["config-x.trace", "notes.txt"]
    )


def test_reused_run_out_dir_holds_only_the_latest_frames(line_file, tmp_path, capsys):
    out = tmp_path / "o"
    argv = ["run", "--config", str(line_file), "--out-dir", str(out)]
    assert main(argv + ["--render", "svg"]) == EXIT_OK
    assert len(list(out.glob("line-step*.svg"))) == 18
    for name in ("line-stepper-step000.svg", "line-step01x.svg"):  # not this run's names: kept
        (out / name).write_text("kept\n")
    assert main(argv + ["--render", "svg", "--max-steps", "2"]) == EXIT_OK
    trailer = json.loads((out / "line.trace").read_text().splitlines()[-1])
    assert trailer["steps"] == 2
    kept = ["line-step01x.svg", "line-stepper-step000.svg", "line.trace"]
    frames = [f"line-step{i:03d}.svg" for i in range(3)]
    assert sorted(p.name for p in out.iterdir()) == sorted(frames + kept)
    assert main(argv) == EXIT_OK  # no frames rendered: none left over
    assert sorted(p.name for p in out.iterdir()) == kept


def test_usage_error_exit_code():
    assert main([]) == EXIT_USAGE
    assert main(["enumerate"]) == EXIT_USAGE  # missing --n


def test_cli_calls_the_verify_module():
    # the benchmark tracer wraps cli.verify_sweep and rebinds cli.ALGORITHMS entries
    assert cli.verify_sweep is verify.verify_sweep
    assert cli.ALGORITHMS is verify.ALGORITHMS


# the benchmark passes --jobs 1 and --jobs <cores>
@pytest.mark.parametrize(
    "value, expected",
    [("1", EXIT_OK), (str(len(os.sched_getaffinity(0))), EXIT_OK)]
    + [(value, EXIT_USAGE) for value in ("0", "-5", "٣", "²", " 1", "x")],
)
def test_verify_jobs_takes_ascii_digits_of_at_least_1(value, expected, tmp_path, capsys):
    argv = ["verify", "--n", "2", "--jobs", value, "--out-dir", str(tmp_path)]
    assert main(argv) == expected
    captured = capsys.readouterr()
    if expected == EXIT_OK:
        assert "total=3" in captured.out
    else:
        assert "error: argument --jobs: must be an integer of at least 1" in captured.err
        assert "Traceback" not in captured.err
        assert not (tmp_path / "summary.csv").exists()


@pytest.mark.parametrize("value", ["0", "-3", "²"])
@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--n", "2"],
        ["run", "--config", "start.json"],
        ["range1", "--table", "rules.tbl", "--config", "fig5a-diagonal"],
    ],
    ids=["verify", "run", "range1"],
)
def test_max_steps_below_one_exits_2(argv, value, tmp_path, capsys):
    assert main(argv + ["--max-steps", value, "--out-dir", str(tmp_path)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "error: argument --max-steps: must be an integer of at least 1" in err
    assert "Traceback" not in err


_OUT_ARGV = {
    "verify": ["verify", "--n", "2", "--out-dir"],
    "run": ["run", "--config", "start.json", "--out-dir"],
    "range1": ["range1", "--table", "rules.tbl", "--config", "fig5a-diagonal", "--out-dir"],
    "enumerate": ["enumerate", "--n", "2", "--out"],
}


@pytest.mark.parametrize(
    "command,block",
    [(c, b) for c in _OUT_ARGV for b in ("file", "under-file")]
    + [("verify", "failures-file"), ("verify", "summary-dir")]
    + [(c, "empty") for c in _OUT_ARGV],
    ids=lambda v: v,
)
def test_unwritable_output_path_exits_2(command, block, hexa_file, tmp_path, capsys,
                                        monkeypatch):
    def no_sweep(*args):
        raise AssertionError("verify swept before claiming its outputs")

    def no_enumeration(*args):
        raise AssertionError("enumerate enumerated before claiming --out")

    monkeypatch.setattr(cli, "verify_sweep", no_sweep)
    monkeypatch.setattr(cli.configs, "enumerate_connected", no_enumeration)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "start.json").write_text(hexa_file.read_text())
    (tmp_path / "rules.tbl").write_text(table_to_text(ALL_STAY))
    blocker = target = tmp_path / "blocker"
    if block == "empty":  # Path("") is the working directory; a run there would delete this
        target, blocker = "", tmp_path / "start-step007.svg"
    if block == "under-file":
        target = blocker / "x"
    if block in ("failures-file", "summary-dir"):  # --out-dir is writable, an output in it not
        target = tmp_path / "o"
        target.mkdir()
        blocker = target / ("failures" if block == "failures-file" else "summary.csv")
    if block == "summary-dir":
        blocker.mkdir()
    else:
        blocker.write_text("")
    if command == "enumerate" and block == "file":
        target = tmp_path  # a directory cannot be written as a file
    names = sorted(tmp_path.iterdir())
    assert main(_OUT_ARGV[command] + [str(target)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err
    if block == "empty":
        assert err == "error: the output path is empty\n"
    assert sorted(tmp_path.iterdir()) == names
    if block == "summary-dir":
        assert blocker.is_dir() and not any(blocker.iterdir())
    else:
        assert blocker.read_text() == ""


@pytest.mark.parametrize(
    "argv",
    [["run", "--config", "deep.json"],
     ["range1", "--table", "rules.tbl", "--config", "deep.json"]],
    ids=["run", "range1"],
)
def test_deeply_nested_config_exits_2(argv, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "deep.json").write_text('{"robots": ' + "[" * 5000 + "]" * 5000 + "}")
    (tmp_path / "rules.tbl").write_text(table_to_text(ALL_STAY))
    assert main(argv) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: deep.json: ")
    assert "Traceback" not in err
    assert not (tmp_path / "trigather-out").exists()


@pytest.mark.parametrize("max_steps", [0, -3])
def test_verify_sweep_rejects_max_steps_below_one(max_steps):
    with pytest.raises(ValueError, match="max_steps"):
        verify_sweep(1, "gather2-v1", max_steps)


def per_start_sweep(n, algorithm, max_steps):
    """The reference verify: one engine.run per enumerated start."""
    decide, visibility = ALGORITHMS[algorithm]
    decide = functools.cache(decide)  # decisions are pure, and views repeat across starts
    results = []
    failure_traces = []
    for idx, cfg in enumerate(enumerate_connected(n)):
        trace = engine.run(cfg, decide, visibility, max_steps)
        result = ConfigResult(idx, trace.outcome, len(trace.steps))
        assert result.min_connected == all(s.connected for s in trace.steps)
        results.append(result)
        if trace.outcome.kind != engine.OutcomeKind.GATHERED:
            failure_traces.append((idx, engine.trace_to_lines(trace, algorithm)))
    return tuple(results), failure_traces


# gather2-v1 at 19 steps: the two 19-step starts hit the step limit
BUDGETS = {"gather2-v1": 19, "gather2-verbatim": 500, "all-stay": 5}


@pytest.mark.parametrize("n", range(1, 8))
@pytest.mark.parametrize("algorithm", sorted(BUDGETS))
def test_verify_sweep_matches_per_start_runs(all_stay, algorithm, n):
    summary, failure_traces = verify_sweep(n, algorithm, BUDGETS[algorithm])
    results, expected_traces = per_start_sweep(n, algorithm, BUDGETS[algorithm])
    assert summary.results == results
    assert failure_traces == expected_traces
    if (algorithm, n) == ("gather2-v1", 7):
        assert [r.outcome.token() for r in summary.failures] == ["step-limit"] * 2


# The SHA-256 of the n=7 sweep at max_steps=500 of each seed's table: its
# summary.csv, and each failure trace as its name line then its lines, in config order.
COLLIDING_TABLE_SHA256 = {
    2: ("539186b34f71df6ee8a5fea4d7a13b5ca40bafae9ff4d3aa93f3aef6ec6c0e51",
        "02e53ebc0108071f34fe60739f96b5f957a1f60d04d30291588ae900ddf5a1fd"),
    3: ("21f7729c68c692d05bfcf14cfca0f65fb83c028555a8e9eda00d008b9c4ce227",
        "319ee7696315a929086e52e113a380a0da3a499ad6a310e91fbad82ad1032541"),
}


# The gather2 algorithms never collide at n<=7; random range-1 tables do,
# also after a few steps, where the sweep settles the last cycle in the start's frame.
@pytest.mark.parametrize("n", range(1, 8))
@pytest.mark.parametrize("seed", [2, 3])
def test_verify_sweep_matches_per_start_runs_of_colliding_tables(seed, n, monkeypatch):
    rng = random.Random(seed)
    table = RuleTable(tuple(rng.choice(constrained_actions(m)) for m in range(TABLE_SIZE)))
    monkeypatch.setitem(verify.ALGORITHMS, "range1-table", (table_to_decision(table), 1))
    late_collisions = 0
    for max_steps in (1, 2, 3, 500):
        summary, failure_traces = verify_sweep(n, "range1-table", max_steps)
        results, expected_traces = per_start_sweep(n, "range1-table", max_steps)
        assert summary.results == results
        assert failure_traces == expected_traces
        if (n, max_steps) == (7, 500):
            traces = hashlib.sha256()
            for idx, lines in failure_traces:
                traces.update(f"config-{idx}.trace\n".encode())
                traces.update(("\n".join(lines) + "\n").encode())
            csv = "\n".join(summary_csv_rows(summary)) + "\n"
            digests = (hashlib.sha256(csv.encode()).hexdigest(), traces.hexdigest())
            assert digests == COLLIDING_TABLE_SHA256[seed]
        late_collisions += sum(r.outcome.kind == engine.OutcomeKind.COLLISION and r.steps > 0
                               for r in results)
    assert late_collisions > 0 or n < 3


@pytest.mark.slow  # n=8 per-start runs
@pytest.mark.parametrize(
    ("algorithm", "max_steps"),
    [("gather2-v1", 500), ("gather2-v1", 7), ("gather2-verbatim", 500)],
)
def test_verify_sweep_matches_per_start_runs_at_n8(algorithm, max_steps):
    summary, failure_traces = verify_sweep(8, algorithm, max_steps)
    results, expected_traces = per_start_sweep(8, algorithm, max_steps)
    assert summary.results == results
    assert failure_traces == expected_traces
    if (algorithm, max_steps) == ("gather2-v1", 500):
        assert summary.outcome_counts["collision:same-target"] == 321


# --- the exit-code contract under arbitrary argv and file payloads ---

_TABLE_LINES = table_to_text(ALL_STAY).splitlines()
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats(allow_nan=False)
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(["robots", "x"]), inner),
    max_leaves=12,
)
_deep = st.sampled_from([10, 900, 5000])
_bytes = st.binary(max_size=40)
_junk_configs = st.one_of(
    _bytes,
    _json_values.map(json.dumps),
    _json_values.map(lambda v: json.dumps({"robots": v})),
    st.lists(st.tuples(st.integers(-2, 2), st.integers(-2, 2)), max_size=8).map(
        lambda robots: json.dumps({"robots": [list(r) for r in robots]})
    ),
    _deep.map(lambda d: '{"robots": ' + "[" * d + "]" * d + "}"),
)
_junk_tables = st.one_of(
    _bytes,
    _deep.map(lambda d: "[" * d),
    st.integers(0, 70).map(lambda k: "\n".join((_TABLE_LINES * 2)[:k])),
    st.lists(st.sampled_from(_TABLE_LINES + ["000000 up", "0101 E", "x"]), max_size=66).map(
        "\n".join
    ),
)


def _mostly(valid, invalid):
    """Values drawn three times as often from ``valid`` as from ``invalid``."""
    return st.sampled_from(valid * 3 + invalid)


def _valid_or(valid, junk):
    """Payloads drawn as often from ``valid`` as from ``junk``."""
    return st.sampled_from([valid, junk]).flatmap(lambda strategy: strategy)


_configs = _valid_or(
    st.sampled_from(enumerate_connected(4) + [gathered_hexagon()]).map(config_to_json),
    _junk_configs,
)
_tables = _valid_or(
    st.lists(st.sampled_from(ACTIONS), min_size=63, max_size=63).map(
        lambda actions: table_to_text(RuleTable((None, *actions)))
    ),
    _junk_tables,
)
_outputs = _mostly(["out", "a/b"], ["blocker", "blocker/x", "missing/out", "."])
_steps = _mostly(["1", "3", "40"], ["0", "-2", "+5", "x"])
_algorithms = _mostly(sorted(ALGORITHMS), ["nope"])
_sizes = _mostly(["1", "3", "5"], ["0", "9", "x", "٣"])


def _flag(name, values, required=False):
    """A ``--name value`` pair; unless ``required``, possibly absent."""
    pair = values.map(lambda v: [f"--{name}", v])
    return pair if required else st.one_of(st.just([]), pair)


def _argv(*parts):
    """Token lists, fixed or drawn, joined in order into one argv."""
    drawn = (st.just(p) if isinstance(p, list) else p for p in parts)
    return st.tuples(*drawn).map(lambda groups: [tok for group in groups for tok in group])


_free_tokens = st.lists(st.text("-=abcdeginorstu13 ", max_size=8), max_size=5)
_argvs = st.one_of(
    _argv(["enumerate"], _flag("n", _sizes, required=True), _flag("out", _outputs)),
    _argv(["verify"], _flag("n", _sizes, required=True), _flag("algorithm", _algorithms),
          _flag("max-steps", _steps), _flag("jobs", _mostly(["1"], ["x"])),
          _flag("out-dir", _outputs), _flag("format", _mostly(["human", "csv", "json"], ["xml"]))),
    _argv(["run"], _flag("config", _mostly(["cfg.json"], ["missing.json", "."]), required=True),
          _flag("algorithm", _algorithms), _flag("max-steps", _steps),
          _flag("render", _mostly(["none", "ascii", "svg"], ["png"])), _flag("out-dir", _outputs)),
    _argv(["range1"], _flag("table", _mostly(["rules.tbl"], ["missing.tbl"]), required=True),
          _flag("config", _mostly(["cfg.json", "fig5a-diagonal", "prop1c-geometry"],
                                  ["missing.json"]), required=True),
          _flag("max-steps", _steps), _flag("out-dir", _outputs)),
    # free tokens after any subcommand; verify keeps --n small, as the last occurrence wins
    _argv(st.sampled_from([[], ["enumerate"], ["run"], ["range1"], ["dump-guards"], ["nope"]]),
          _free_tokens),
    _argv(["verify"], _free_tokens, ["--n", "3"]),
)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(argv=_argvs, config=_configs, table=_tables)
@example(argv=["run", "--config", "cfg.json"], config=b"\xff\xfe[", table="")
@example(argv=["range1", "--table", "rules.tbl", "--config", "fig5a-diagonal"], config="",
         table="\n".join(_TABLE_LINES[:63]))
def test_cli_exit_codes_and_no_traceback(argv, config, table):
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for name, payload in (("cfg.json", config), ("rules.tbl", table)):
                with open(name, "wb") as fh:
                    fh.write(payload if isinstance(payload, bytes) else payload.encode())
            with open("blocker", "w"):
                pass
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
        finally:
            os.chdir(cwd)
    assert code in (EXIT_OK, EXIT_FAILURE, EXIT_USAGE)
    assert "Traceback" not in err.getvalue()
    if code == EXIT_USAGE:
        assert "error: " in err.getvalue()
