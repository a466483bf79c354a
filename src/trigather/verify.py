"""Exhaustive verification: one algorithm over every connected start of size n."""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass

from . import config as configs
from . import engine, gather2


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
    """The per-start results of one sweep; every aggregate is read off them."""

    algorithm: str
    n: int
    results: tuple[ConfigResult, ...]
    wall_time: float

    @property
    def total(self) -> int:
        return len(self.results)

    @property
    def gathered(self) -> int:
        return sum(r.gathered for r in self.results)

    @property
    def failures(self) -> tuple[ConfigResult, ...]:
        return tuple(r for r in self.results if not r.gathered)

    @property
    def max_steps_observed(self) -> int:
        return max((r.steps for r in self.results), default=0)

    @property
    def outcome_counts(self) -> dict[str, int]:
        return dict(Counter(r.outcome.token() for r in self.results))


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
    summary = VerificationSummary(algorithm, n, tuple(results), time.perf_counter() - started)
    return summary, failure_traces
