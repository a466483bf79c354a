"""Fully synchronous Look-Compute-Move execution.

Every cycle, each robot observes the occupancy of the nodes within its
visibility range (a :class:`View`, in label space), a pure decision
function maps the view to a move or a stay, and all moves are applied
simultaneously.  A view is its range and its occupancy bit ``mask``; bits
0..5 are the neighbors E, NE, NW, W, SW, SE at either range, which is the
index of a range-1 rule table.  Views are interned by mask: equal
observations return one shared :class:`View`, which is immutable.

Three simultaneous-move events are collisions and terminate the run with
a report instead of a successor state:

- ``SWAP``: two robots traverse one edge in opposite directions,
- ``MOVE_ONTO_STATIONARY``: a mover's target is held by a robot that stays,
- ``SAME_TARGET``: two or more movers end on one node.

A robot entering a node that its occupant is simultaneously vacating is
legal.  Runs are deterministic, so a revisit of an earlier configuration
(up to translation) proves an infinite loop and is reported as a livelock;
an all-stay cycle that is not gathered is a livelock of length 1.

One cycle is :func:`compute_decisions` then :func:`settle`, the only
public call that runs a cycle to its end; on the gathered hexagon it
returns the outcome ``gathered``, not the hexagon.  Every run ends in
:func:`record`, which turns a stream of cycles into a :class:`Trace`:
:func:`run` feeds it simulated cycles, ``verify`` cycles read off a table.

Equal immutable values that runs repeat are shared: each outcome with no
payload, one :class:`Outcome` per distinct collision, and one node tuple
per coordinate in the successors of :func:`apply_decisions`, so the nodes
robots move onto are shared too.  Compare outcomes and nodes with ``==``,
never with ``is``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Iterator

from .config import Configuration, canonicalize, is_connected, is_gathered
from .grid import (
    Direction,
    LABEL_OFFSET,
    Label,
    RANGE1_LABELS,
    RANGE2_LABELS,
    TriCoord,
    neighbor,
)

# A decision: a Direction, or None for "stay at the current node".
Move = Direction | None

# The labels a view of each visibility range can mention, with their mask
# bits: bit i is label i of RANGE1_LABELS + RANGE2_LABELS, so bits 0..5 are
# the six neighbors in DIRECTIONS order at both ranges.
_BITS: dict[int, dict[Label, int]] = {
    v: {lbl: 1 << i for i, lbl in enumerate(labels)}
    for v, labels in ((1, RANGE1_LABELS), (2, RANGE1_LABELS + RANGE2_LABELS))
}
# One (da, db, bit) probe per label.
PROBES: dict[int, tuple] = {
    v: tuple((*LABEL_OFFSET[lbl], bit) for lbl, bit in bits.items())
    for v, bits in _BITS.items()
}


def _bits_of(visibility: int) -> dict[Label, int]:
    # bool and float 1.0 hash like 1; only a plain int names a range.
    bits = _BITS.get(visibility) if type(visibility) is int else None
    if bits is None:
        raise ValueError(f"visibility range must be 1 or 2, got {visibility}")
    return bits


DEFAULT_MAX_STEPS = 500


@dataclass(frozen=True, slots=True, init=False)
class View:
    """Occupancy of the labels within a robot's visibility range.

    A view is its range and its bit ``mask``: bit i is set when label i of
    ``RANGE1_LABELS + RANGE2_LABELS`` carries a robot.  Robots are
    transparent: occupancy of a label is independent of other labels on
    the same axis.  ``View(visibility, occupied)`` takes the occupied
    labels (never (0, 0), the robot itself); equality and hashing read
    the range and the mask alone.
    """

    visibility: int
    mask: int

    def __init__(self, visibility: int, occupied) -> None:
        bits = _bits_of(visibility)
        occupied = frozenset(occupied)
        bad = occupied.difference(bits)
        if bad:
            raise ValueError(f"labels {sorted(bad)} are outside visibility range {visibility}")
        object.__setattr__(self, "visibility", visibility)
        object.__setattr__(self, "mask", sum(map(bits.__getitem__, occupied)))

    @property
    def occupied(self) -> frozenset:
        """The occupied labels, read off ``mask``."""
        return frozenset([lbl for lbl, bit in _BITS[self.visibility].items() if self.mask & bit])


DecisionFunction = Callable[[View], Move]


class CollisionKind:
    SWAP = "swap"
    MOVE_ONTO_STATIONARY = "move-onto-stationary"
    SAME_TARGET = "same-target"


@dataclass(frozen=True, slots=True)
class CollisionReport:
    """The robots (coordinate, move) involved in a forbidden event."""

    kind: str
    participants: tuple[tuple[TriCoord, Move], ...]


class OutcomeKind:
    GATHERED = "gathered"
    COLLISION = "collision"
    DISCONNECTED = "disconnected"
    LIVELOCK = "livelock"
    STEP_LIMIT = "step-limit"


@dataclass(frozen=True, slots=True)
class Outcome:
    kind: str
    collision: CollisionReport | None = None
    cycle_length: int | None = None

    def token(self) -> str:
        """Compact machine-parsable form, e.g. ``livelock:1``."""
        if self.kind == OutcomeKind.COLLISION:
            return f"collision:{self.collision.kind}"
        if self.kind == OutcomeKind.LIVELOCK:
            return f"livelock:{self.cycle_length}"
        return self.kind


# The outcomes that carry no payload, one shared immutable value each.
_GATHERED = Outcome(OutcomeKind.GATHERED)
_LIVELOCK_1 = Outcome(OutcomeKind.LIVELOCK, cycle_length=1)
_DISCONNECTED = Outcome(OutcomeKind.DISCONNECTED)
_STEP_LIMIT = Outcome(OutcomeKind.STEP_LIMIT)


@dataclass(frozen=True, slots=True)
class TraceStep:
    decisions: tuple[Move, ...]  # aligned with sorted() of the pre-step robots
    robots: Configuration  # configuration after the step
    connected: bool


@dataclass(frozen=True, slots=True)
class Trace:
    initial: Configuration
    visibility: int
    steps: tuple[TraceStep, ...]
    outcome: Outcome


# Interned views per visibility range, keyed by occupancy mask; at most
# 2^6 and 2^18 entries.  Views are immutable, so every caller may share one.
_VIEWS: dict[int, dict[int, View]] = {v: {} for v in _BITS}


def observe(cfg: Configuration, robot: TriCoord, visibility: int) -> View:
    """The view of ``robot`` in ``cfg``: occupied labels within range.

    Equal observations return the same shared ``View`` object.
    """
    if robot not in cfg:
        raise ValueError(f"robot {robot!r} is not part of the configuration")
    _bits_of(visibility)
    a, b = robot
    mask = 0
    for da, db, bit in PROBES[visibility]:
        if (a + da, b + db) in cfg:
            mask |= bit
    view = _VIEWS[visibility].get(mask)
    if view is None:
        view = _VIEWS[visibility][mask] = view_of(mask, visibility)
    return view


def view_of(mask: int, visibility: int) -> View:
    """A new ``View`` of occupancy ``mask``; only :func:`observe` interns views."""
    if not 0 <= mask < 1 << len(_bits_of(visibility)):
        raise ValueError(f"mask {mask:#x} is outside visibility range {visibility}")
    view = object.__new__(View)
    object.__setattr__(view, "visibility", visibility)
    object.__setattr__(view, "mask", mask)
    return view


def compute_decisions(
    cfg: Configuration, decide: DecisionFunction, visibility: int
) -> dict[TriCoord, Move]:
    """All robots' simultaneous Look+Compute results for one cycle.

    The dict is in sorted robot order, the order of ``TraceStep.decisions``.
    """
    return {r: decide(observe(cfg, r, visibility)) for r in sorted(cfg)}


# One shared tuple per node a successor holds, keyed by itself: integer
# pairs, immutable.  It grows by one entry per distinct coordinate the
# process's successors hold, 85 after replaying 16 seeded range-1 tables on
# all 3652 seven-robot starts (bench/run.py --workload range1-replay).  In
# that replay the verdicts hold 103,508 node tuples without it; with it
# and _COLLISION_POOL they hold 24.3 MiB instead of 41.0 MiB (tracemalloc), and
# a round peaks at 44.9 MB instead of 63.9 MB (10-run medians, 2-core Xeon).
_NODE_POOL: dict[TriCoord, TriCoord] = {}


def apply_decisions(
    cfg: Configuration, decisions: dict[TriCoord, Move]
) -> Configuration | CollisionReport:
    """Execute one synchronous Move phase.

    Collision modes are checked before any state change, in the order
    swap, move-onto-stationary, same-target, scanning robots in the order
    of ``decisions`` (sorted, as :func:`compute_decisions` builds it) so the
    first report is deterministic.  A collision-free successor is a
    frozenset built from a dict of the arrivals, so it is sized for its
    robots rather than grown by one insertion at a time.  Its nodes, the
    ones robots move onto included, are shared: one tuple per coordinate.
    """
    targets = {r: (neighbor(r, m) if m is not None else r) for r, m in decisions.items()}
    movers = [r for r, m in decisions.items() if m is not None]

    for r in movers:
        t = targets[r]
        if t in cfg and decisions[t] is not None and targets[t] == r:
            return CollisionReport(
                CollisionKind.SWAP, ((r, decisions[r]), (t, decisions[t]))
            )
    for r in movers:
        t = targets[r]
        if t in cfg and decisions[t] is None:
            return CollisionReport(
                CollisionKind.MOVE_ONTO_STATIONARY, ((r, decisions[r]), (t, None))
            )
    shared: dict[TriCoord, list[TriCoord]] = {}
    for r in movers:
        shared.setdefault(targets[r], []).append(r)
    for r in movers:
        group = shared[targets[r]]
        if len(group) >= 2:
            return CollisionReport(
                CollisionKind.SAME_TARGET, tuple((g, decisions[g]) for g in group)
            )

    nodes = targets.values()
    nxt = frozenset(dict.fromkeys(map(_NODE_POOL.setdefault, nodes, nodes)))
    assert len(nxt) == len(cfg), "collision check must preserve robot count"
    return nxt


# One shared collision outcome per distinct report: frozen dataclasses of
# strings, integer pairs and moves.  It grows by one entry per distinct
# collision the process's runs end on: 1,166 after the replay _NODE_POOL
# describes, whose 40,907 collision verdicts held a new outcome, report,
# participant tuple and pairs each without it.
_COLLISION_POOL: dict[CollisionReport, Outcome] = {}


def settle(cfg: Configuration, decisions: dict[TriCoord, Move]) -> Outcome | Configuration:
    """Classify one cycle of ``cfg``: the one place a cycle is classified.

    ``decisions`` maps every robot, in sorted order, to its move.  Returns
    the ``Outcome`` that ends a run at ``cfg`` (all stay: gathered on a
    hexagon, else ``livelock:1``; or a collision) or the successor,
    connected or not.  ``gathered``, ``livelock:1`` and each distinct
    collision are shared immutable values, and so are the successor's
    nodes, the ones robots move onto included: compare outcomes with
    ``==``, never with ``is``.
    """
    if all(m is None for m in decisions.values()):
        return _GATHERED if is_gathered(cfg) else _LIVELOCK_1
    result = apply_decisions(cfg, decisions)
    if isinstance(result, CollisionReport):
        outcome = _COLLISION_POOL.get(result)
        if outcome is None:
            outcome = _COLLISION_POOL[result] = Outcome(OutcomeKind.COLLISION, collision=result)
        return outcome
    return result


def record(
    initial: Configuration,
    visibility: int,
    cycles: Iterator[Outcome | TraceStep],
    max_steps: int,
) -> Trace:
    """The trace of the run from ``initial`` whose cycles ``cycles`` yields.

    A cycle is the ``Outcome`` that ends the run there or the ``TraceStep``
    it records.  The run ends, in this order: on an ``Outcome``; on the
    first disconnected step; with ``livelock:<k>`` when the canonical form
    repeats; with ``step-limit`` after ``max_steps`` steps.  No cycle is
    drawn after the one that ends the run.  Like ``settle``'s, the
    ``disconnected`` and ``step-limit`` outcomes are shared immutable values.
    """
    if max_steps < 1:
        raise ValueError("max_steps must be positive")
    steps: list[TraceStep] = []
    seen = {canonicalize(initial): 0}
    for cycle in cycles:
        if isinstance(cycle, Outcome):
            outcome = cycle
            break
        steps.append(cycle)
        if not cycle.connected:
            outcome = _DISCONNECTED
            break
        key = canonicalize(cycle.robots)
        if key in seen:
            outcome = Outcome(OutcomeKind.LIVELOCK, cycle_length=len(steps) - seen[key])
            break
        seen[key] = len(steps)
        if len(steps) >= max_steps:
            outcome = _STEP_LIMIT
            break
    return Trace(initial, visibility, tuple(steps), outcome)


def _cycles(cfg: Configuration, decide: DecisionFunction, visibility: int) -> Iterator:
    """Simulated cycles from ``cfg``: :func:`compute_decisions` then :func:`settle`."""
    if not is_connected(cfg):
        raise ValueError("initial configuration must be connected")
    while True:
        decisions = compute_decisions(cfg, decide, visibility)
        result = settle(cfg, decisions)
        if isinstance(result, Outcome):
            yield result
            return
        yield TraceStep(tuple(decisions.values()), result, is_connected(result))
        cfg = result


def run(
    cfg: Configuration,
    decide: DecisionFunction,
    visibility: int,
    max_steps: int = DEFAULT_MAX_STEPS,
) -> Trace:
    """Iterate cycles until gathering, failure, livelock, or the step cap.

    The reference path: :func:`record` ends the run on simulated cycles, so
    an all-stay or colliding cycle ends it as :func:`settle` classifies it.
    """
    initial = frozenset(cfg)
    return record(initial, visibility, _cycles(initial, decide, visibility), max_steps)


# --- trace line format (see docs/formats.md) ---


def _coords(cfg: Configuration) -> list[list[int]]:
    return [list(r) for r in sorted(cfg)]


def _move_name(m: Move) -> str:
    return "stay" if m is None else m.name


def _dump(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def trace_to_lines(trace: Trace, algorithm: str) -> list[str]:
    """Serialize a trace as line-delimited JSON records."""
    lines = [
        _dump(
            {
                "type": "header",
                "robots": _coords(trace.initial),
                "range": trace.visibility,
                "algorithm": algorithm,
            }
        )
    ]
    for i, s in enumerate(trace.steps, start=1):
        lines.append(
            _dump(
                {
                    "type": "step",
                    "index": i,
                    "decisions": [_move_name(m) for m in s.decisions],
                    "robots": _coords(s.robots),
                    "connected": s.connected,
                }
            )
        )
    trailer: dict = {
        "type": "trailer",
        "outcome": trace.outcome.kind,
        "steps": len(trace.steps),
    }
    if trace.outcome.collision is not None:
        trailer["collision"] = {
            "kind": trace.outcome.collision.kind,
            "participants": [
                [list(coord), _move_name(move)]
                for coord, move in trace.outcome.collision.participants
            ],
        }
    if trace.outcome.cycle_length is not None:
        trailer["cycle_length"] = trace.outcome.cycle_length
    lines.append(_dump(trailer))
    return lines

