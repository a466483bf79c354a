"""Command-line contract: subcommands, formats, exit codes."""

import json

import pytest

from trigather import engine
from trigather.cli import (
    ALGORITHMS,
    EXIT_FAILURE,
    EXIT_OK,
    EXIT_USAGE,
    ConfigResult,
    main,
    verify_sweep,
)
from trigather.config import config_to_json, enumerate_connected, gathered_hexagon
from trigather.range1 import RuleTable, table_to_text


@pytest.fixture()
def hexa_file(tmp_path):
    path = tmp_path / "hexa.json"
    path.write_text(config_to_json(gathered_hexagon()))
    return path


@pytest.fixture()
def line_file(tmp_path):
    path = tmp_path / "line.json"
    path.write_text(config_to_json(frozenset((k, -k) for k in range(7))))
    return path


def test_enumerate_count_line(capsys):
    assert main(["enumerate", "--n", "2"]) == EXIT_OK
    assert capsys.readouterr().out == "n=2 count=3\n"


def test_enumerate_out_of_range_exits_2(capsys):
    assert main(["enumerate", "--n", "0"]) == EXIT_USAGE
    assert main(["enumerate", "--n", "9"]) == EXIT_USAGE


def test_enumerate_writes_configs(tmp_path, capsys):
    out = tmp_path / "shapes.jsonl"
    assert main(["enumerate", "--n", "3", "--out", str(out)]) == EXIT_OK
    lines = out.read_text().splitlines()
    assert len(lines) == 11
    for line in lines:
        robots = json.loads(line)["robots"]
        assert len(robots) == 3


def test_run_gathered_hexagon(hexa_file, tmp_path, capsys):
    out = tmp_path / "artifacts"
    code = main(
        ["run", "--config", str(hexa_file), "--algorithm", "gather2-v1",
         "--out-dir", str(out)]
    )
    assert code == EXIT_OK
    printed = capsys.readouterr().out
    assert "outcome=gathered steps=0" in printed
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
    assert main(
        ["verify", "--n", "2", "--algorithm", "nope", "--out-dir", str(tmp_path)]
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


def test_verify_failing_algorithm_exit_1_and_persists_traces(tmp_path, capsys):
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
    table_file.write_text(table_to_text(RuleTable.all_stay()))
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
    table_file.write_text(table_to_text(RuleTable.all_stay()))
    code = main(
        ["range1", "--table", str(table_file), "--config", "no-such-thing",
         "--out-dir", str(tmp_path)]
    )
    assert code == EXIT_USAGE


def test_dump_guards_prints_table(capsys):
    assert main(["dump-guards"]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.startswith("guard table gather2-v1")
    assert "branch lines 31-33" in out


def test_usage_error_exit_code():
    assert main([]) == EXIT_USAGE
    assert main(["enumerate"]) == EXIT_USAGE  # missing --n


def test_verify_sweep_merges_in_canonical_order():
    summary, _ = verify_sweep(3, "gather2-v1", max_steps=50)
    assert summary.total == 11
    assert [r.config_id for r in summary.results] == list(range(11))
    assert summary.total == summary.gathered + len(summary.failures)


@pytest.mark.parametrize("value", ["0", "-3"])
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
    assert "error: argument --max-steps" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("under_file", [False, True], ids=["file", "under-file"])
@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--n", "2", "--out-dir"],
        ["run", "--config", "start.json", "--out-dir"],
        ["range1", "--table", "rules.tbl", "--config", "fig5a-diagonal", "--out-dir"],
        ["enumerate", "--n", "2", "--out"],
    ],
    ids=["verify", "run", "range1", "enumerate"],
)
def test_unwritable_output_path_exits_2(argv, under_file, hexa_file, tmp_path, capsys,
                                        monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "start.json").write_text(hexa_file.read_text())
    (tmp_path / "rules.tbl").write_text(table_to_text(RuleTable.all_stay()))
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    target = blocker / "x" if under_file else blocker
    if argv[0] == "enumerate" and not under_file:
        target = tmp_path  # a directory cannot be written as a file
    assert main(argv + [str(target)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err
    assert blocker.read_text() == ""


@pytest.mark.parametrize("max_steps", [0, -3])
def test_verify_sweep_rejects_max_steps_below_one(max_steps):
    with pytest.raises(ValueError, match="max_steps"):
        verify_sweep(1, "gather2-v1", max_steps)


def per_start_sweep(n, algorithm, max_steps):
    """The reference verify: one engine.run per enumerated start."""
    decide, visibility = ALGORITHMS[algorithm]
    results = []
    failure_traces = []
    for idx, cfg in enumerate(enumerate_connected(n)):
        trace = engine.run(cfg, decide, visibility, max_steps)
        results.append(
            ConfigResult(
                idx, tuple(sorted(cfg)), trace.outcome, len(trace.steps), trace.min_connected
            )
        )
        if trace.outcome.kind != engine.OutcomeKind.GATHERED:
            failure_traces.append((idx, engine.trace_to_lines(trace, algorithm)))
    return tuple(results), failure_traces


# gather2-v1 at 19 steps: the two 19-step starts hit the step limit
BUDGETS = {"gather2-v1": 19, "gather2-verbatim": 500, "all-stay": 5}


@pytest.mark.parametrize("n", range(1, 8))
@pytest.mark.parametrize("algorithm", sorted(BUDGETS))
def test_verify_sweep_matches_per_start_runs(algorithm, n):
    summary, failure_traces = verify_sweep(n, algorithm, BUDGETS[algorithm])
    results, expected_traces = per_start_sweep(n, algorithm, BUDGETS[algorithm])
    assert summary.results == results
    assert failure_traces == expected_traces
    if (algorithm, n) == ("gather2-v1", 7):
        assert [r.outcome.token() for r in summary.failures] == ["step-limit"] * 2
