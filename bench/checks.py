"""Checks of every verdict a workload produced, against ``reference``.

A verdict is one (algorithm or table, start) pair.  A verdict fails when
the program's record of it disagrees with the independent reference or
with the paper's claim for it; a missing record fails too.  Faults that
belong to no single verdict (an exit code, a summary line, a stray file)
are reported as problems, which make the whole run incorrect.

The decision functions under test (``gather2.decide_move`` and
``gather2.decide_verbatim``) are the only pieces of the program the
checks call; they are fed views the reference builds itself.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass, field
from pathlib import Path

import reference as ref

HEADLINE_MAX_STEPS = 19
SAMPLE_SIZE = 256
CSV_HEADER = "config_id,outcome,steps,min_connected"
_SUMMARY_LINE = re.compile(r"gathered=(\d+) failures=(\d+) max-steps-observed=(\d+)")


@dataclass
class Report:
    attempted: int = 0
    failed: list = field(default_factory=list)  # verdict keys
    problems: list = field(default_factory=list)  # run-level faults


def range2_decider(decide, view_type):
    """Wrap a range-2 decision function to take a reference configuration."""

    def decide_ref(cfg, robot):
        move = decide(view_type(2, ref.range2_labels(cfg, robot)))
        return None if move is None else move.name

    return decide_ref


def sample_ids(seed: int, total: int = ref.POLYHEX_7, size: int = SAMPLE_SIZE) -> list[int]:
    return sorted(random.Random(seed).sample(range(total), size))


def _parse_csv(text: str, report: Report) -> dict:
    lines = text.splitlines()
    if not lines or lines[0] != CSV_HEADER:
        report.problems.append("summary.csv: missing or wrong header")
        return {}
    rows = {}
    for line in lines[1:]:
        parts = line.split(",")
        try:
            cid, outcome, steps, min_conn = parts
            key, row = int(cid), (outcome, int(steps), {"true": True, "false": False}[min_conn])
        except (ValueError, KeyError):
            report.problems.append(f"summary.csv: malformed row {line!r}")
            continue
        if key in rows or not 0 <= key < ref.POLYHEX_7:
            report.problems.append(f"summary.csv: duplicate or unknown config_id {key}")
            continue
        rows[key] = row
    return rows


def _name(move) -> str | None:
    return None if move == "stay" else move


def check_failure_trace(lines: list[str], shape, row, decide_ref) -> bool:
    """Replay a persisted failure trace step by step and confirm its trailer.

    Every recorded decision must be the algorithm's decision on the view the
    reference computes, applying the decisions must give the recorded
    robots without a collision, and ``connected`` must match the
    reference's own BFS.  The trailer must then be confirmed from the final
    shape: a disconnection by BFS, a ``livelock:1`` by every robot deciding
    to stay on a shape that is not a hexagon, a longer livelock by a
    repeated shape, a collision by the reference's own move phase.
    """
    try:
        records = [json.loads(line) for line in lines if line.strip()]
        header, steps, trailer = records[0], records[1:-1], records[-1]
        if header["type"] != "header" or trailer["type"] != "trailer" or header["range"] != 2:
            return False
        cfg = frozenset(tuple(r) for r in header["robots"])
        if cfg != shape or len(header["robots"]) != len(shape):
            return False
        configs = [cfg]
        for index, rec in enumerate(steps, start=1):
            order = sorted(cfg)
            recorded = tuple(_name(m) for m in rec["decisions"])
            if rec["type"] != "step" or rec["index"] != index:
                return False
            if recorded != tuple(decide_ref(cfg, r) for r in order):
                return False
            result = ref.fsync_step(cfg, dict(zip(order, recorded)))
            if result[0] != "ok" or result[1] != frozenset(tuple(r) for r in rec["robots"]):
                return False
            cfg = result[1]
            if rec["connected"] != ref.connected(cfg):
                return False
            if not rec["connected"] and index != len(steps):
                return False
            configs.append(cfg)
        outcome = trailer["outcome"]
        if trailer["steps"] != len(steps):
            return False
        if outcome == "collision":
            token = f"collision:{trailer['collision']['kind']}"
        elif outcome == "livelock":
            token = f"livelock:{trailer['cycle_length']}"
        else:
            token = outcome
        if (token, len(steps), all(rec["connected"] for rec in steps)) != row:
            return False
        if outcome == "disconnected":
            return bool(steps) and not ref.connected(cfg)
        if token == "livelock:1":
            return all(decide_ref(cfg, r) is None for r in cfg) and not ref.is_hexagon(cfg)
        if outcome == "livelock":
            k = trailer["cycle_length"]
            return 1 < k <= len(steps) and ref.canonical(configs[-1 - k]) == ref.canonical(cfg)
        if outcome == "collision":
            moves = {r: decide_ref(cfg, r) for r in cfg}
            result = ref.fsync_step(cfg, moves)
            return result[0] == "collision" and result[1] == trailer["collision"]["kind"]
        if outcome == "step-limit":
            return len(steps) == ref.MAX_STEPS
        return False
    except (KeyError, IndexError, TypeError, ValueError):
        return False


def check_sweep(
    out_dir: Path,
    exit_code: int,
    stdout_text: str,
    decide_ref,
    shapes: list,
    sample: list[int],
    headline: bool,
) -> Report:
    """Check one ``trigather verify --n 7`` output directory.

    ``headline`` holds the run to the paper's claim: every start gathered
    with connectivity kept, in at most 19 steps, 19 reached.  Otherwise each
    non-gathered row needs a failure trace that the reference confirms.  A
    seeded sample of starts is re-simulated by the reference in both cases.
    """
    report = Report(attempted=len(shapes))
    csv_path = out_dir / "summary.csv"
    rows = _parse_csv(csv_path.read_text() if csv_path.exists() else "", report)
    fail_dir = out_dir / "failures"
    traces = {p.name for p in fail_dir.iterdir()} if fail_dir.is_dir() else set()
    expected_traces = set()
    sampled = set(sample)
    for cid, shape in enumerate(shapes):
        row = rows.get(cid)
        ok = row is not None
        if ok and row[0] == "gathered":
            ok = row[2] and (row[1] <= HEADLINE_MAX_STEPS or not headline)
        elif ok:
            name = f"config-{cid}.trace"
            expected_traces.add(name)
            ok = not headline and name in traces and check_failure_trace(
                (fail_dir / name).read_text().splitlines(), shape, row, decide_ref
            )
        if ok and cid in sampled:
            run = ref.simulate(shape, decide_ref)
            ok = (run.outcome, run.steps, run.min_connected) == row
        if not ok:
            report.failed.append(cid)
    if traces - expected_traces:
        report.problems.append(f"{len(traces - expected_traces)} failure traces for gathered or unknown starts")
    gathered = sum(1 for row in rows.values() if row[0] == "gathered")
    max_steps = max((row[1] for row in rows.values()), default=0)
    if headline and max_steps != HEADLINE_MAX_STEPS:
        report.problems.append(f"maximum steps {max_steps}, expected exactly {HEADLINE_MAX_STEPS}")
    all_gathered = gathered == len(shapes) == len(rows)
    if exit_code != (0 if all_gathered else 1):
        report.problems.append(f"exit code {exit_code} with {gathered} of {len(shapes)} gathered")
    match = _SUMMARY_LINE.search(stdout_text)
    if match is None or tuple(map(int, match.groups())) != (gathered, len(rows) - gathered, max_steps):
        report.problems.append("printed summary disagrees with summary.csv")
    return report


def check_range1(tables: list[tuple], shapes: list, verdicts: list[list]) -> Report:
    """Check range-1 verdicts: ``verdicts[t][i]`` is table ``t`` on start ``i``.

    ``tables[t]`` lists the action (direction name or None) for each of the
    64 neighbour masks.  Each verdict's trace must be the reference's run of
    that table from that start: every decision the table's action on the
    robot's own mask, every step and the outcome the same.  A table that
    gathers every start contradicts the paper's range-1 impossibility
    result, so all of its verdicts fail.
    """
    report = Report()
    for t, table in enumerate(tables):
        report.attempted += len(shapes)
        row = verdicts[t] if t < len(verdicts) else []

        def decide_ref(cfg, robot, table=table):
            return table[ref.range1_mask(cfg, robot)]

        failed = []
        gathered = 0
        for i, shape in enumerate(shapes):
            verdict = row[i] if i < len(row) else None
            if verdict is None or not _range1_verdict_ok(verdict, shape, decide_ref):
                failed.append((t, i))
            elif verdict.outcome.kind == "gathered":
                gathered += 1
        if gathered == len(shapes):
            failed = [(t, i) for i in range(len(shapes))]
        report.failed.extend(failed)
    return report


def _range1_verdict_ok(verdict, shape, decide_ref) -> bool:
    trace = verdict.trace
    if trace.visibility != 1 or trace.initial != shape or verdict.outcome != trace.outcome:
        return False
    run = ref.simulate(shape, decide_ref)
    if verdict.outcome.token() != run.outcome or len(trace.steps) != run.steps:
        return False
    for step, decisions, robots in zip(trace.steps, run.decisions, run.configs[1:]):
        if step.robots != robots or step.connected != ref.connected(robots):
            return False
        if tuple(None if m is None else m.name for m in step.decisions) != decisions:
            return False
    collision = verdict.outcome.collision
    if collision is not None:
        return tuple(
            (coord, None if m is None else m.name) for coord, m in collision.participants
        ) == run.participants
    return True
