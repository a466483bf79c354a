"""Arbitrary visibility-range-1 algorithms as rule tables, plus failure replay.

A deterministic oblivious range-1 algorithm is nothing more than a total
map from the 64 occupancy patterns of the six neighbor labels to an
action (stay or one of the six directions).  This module represents such
maps as :class:`RuleTable` values and replays a table from a connected
start through the engine (``check_table``).  A run fails when it
collides, disconnects the robots, revisits a configuration, or runs out
of its step budget.  The module checks only the tables and starts it is
given: no exhaustive check of all range-1 tables exists yet.

The structural constraint on tables is one rule on grid adjacency.  A
robot that sees one neighbor, or two neighbors not adjacent to each
other, may only stay or move to a node adjacent to every neighbor it
sees: so it stays between an opposite pair, moves to one of the two
nodes flanking a lone neighbor, or to the single node between a
120-degree pair.  Its moves are listed after stay, counterclockwise from
just after its first visible neighbor in ``DIRECTIONS`` order; seeded
table draws follow that order.  Every other nonempty view may take any
of the seven actions.

The all-empty view is always constrained to stay: a robot with no visible
neighbor has no information to move on without risking disconnection.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from .config import Configuration, make_configuration
from .engine import (
    DEFAULT_MAX_STEPS,
    DecisionFunction,
    Move,
    Outcome,
    Trace,
    View,
    run,
)
from .grid import DIRECTIONS, Direction, neighbor, neighbors

ACTIONS: tuple[Move, ...] = (None,) + DIRECTIONS

TABLE_SIZE = 64


def mask_of(dirs: Iterable[Direction]) -> int:
    """Bitmask of a neighbor set; bit i is DIRECTIONS[i] (E..SE = 0..5)."""
    mask = 0
    for d in dirs:
        mask |= 1 << DIRECTIONS.index(d)
    return mask


def dirs_of_mask(mask: int) -> frozenset:
    if not 0 <= mask < TABLE_SIZE:
        raise ValueError(f"view bitmask out of range: {mask}")
    return frozenset(d for i, d in enumerate(DIRECTIONS) if mask & (1 << i))


@dataclass(frozen=True, slots=True)
class RuleTable:
    """A total view -> action map over the 64 range-1 occupancy patterns."""

    actions: tuple[Move, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "actions", tuple(self.actions))
        if len(self.actions) != TABLE_SIZE:
            raise ValueError(f"rule table needs {TABLE_SIZE} actions, got {len(self.actions)}")
        for mask, action in enumerate(self.actions):
            if action is not None and not isinstance(action, Direction):
                raise ValueError(f"mask {mask:06b}: {action!r} is neither stay (None) nor a Direction")
        if self.actions[0] is not None:
            raise ValueError("the all-empty view must map to stay")

    @classmethod
    def all_stay(cls) -> "RuleTable":
        return cls((None,) * TABLE_SIZE)

    @classmethod
    def from_moves(cls, moves: Mapping[frozenset, Move]) -> "RuleTable":
        """Build from {neighbor-direction-set: action}; unmentioned views stay."""
        actions: list[Move] = [None] * TABLE_SIZE
        for dirs, move in moves.items():
            actions[mask_of(dirs)] = move
        return cls(tuple(actions))


def table_to_decision(table: RuleTable) -> DecisionFunction:
    """Wrap a table as a decision function reading only the six neighbor labels.

    Bits 0..5 of a view's mask are the neighbors in ``DIRECTIONS`` order at
    either visibility range, which is the table index.
    """
    actions = table.actions

    def decide(view: View) -> Move:
        return actions[view.mask & 0b111111]

    return decide


# --- structural constraints ---

_ORIGIN = (0, 0)


def _derive_constrained_actions(mask: int) -> tuple[Move, ...]:
    dirs = [d for i, d in enumerate(DIRECTIONS) if mask >> i & 1]
    if not dirs:
        return (None,)
    seen = [neighbor(_ORIGIN, d) for d in dirs]
    if len(seen) > 2 or (len(seen) == 2 and seen[1] in neighbors(seen[0])):
        return ACTIONS
    after = DIRECTIONS.index(dirs[0]) + 1
    scan = DIRECTIONS[after:] + DIRECTIONS[:after]
    return (None,) + tuple(
        d for d in scan if all(neighbor(_ORIGIN, d) in neighbors(s) for s in seen)
    )


_CONSTRAINED_ACTIONS = tuple(_derive_constrained_actions(m) for m in range(TABLE_SIZE))


def constrained_actions(mask: int) -> tuple[Move, ...]:
    """Actions a view may take under the structural constraint (module docstring)."""
    if not 0 <= mask < TABLE_SIZE:
        raise ValueError(f"view bitmask out of range: {mask}")
    return _CONSTRAINED_ACTIONS[mask]


def satisfies_constraints(table: RuleTable) -> bool:
    return all(table.actions[m] in constrained_actions(m) for m in range(TABLE_SIZE))


# --- replay ---


@dataclass(frozen=True, slots=True)
class Verdict:
    """Outcome of one table on one configuration, with the witnessing trace."""

    outcome: Outcome
    trace: Trace


def check_table(
    table: RuleTable, cfg: Configuration, max_steps: int = DEFAULT_MAX_STEPS
) -> Verdict:
    """Run a rule table on one connected configuration at range 1.

    ``engine.run`` raises ``ValueError`` for a disconnected configuration.
    """
    trace = run(cfg, table_to_decision(table), 1, max_steps)
    return Verdict(trace.outcome, trace)


# --- built-in configuration library ---


@dataclass(frozen=True, slots=True)
class LibraryConfig:
    name: str
    robots: Configuration
    provenance: str


BUILTIN_CONFIGS: dict[str, LibraryConfig] = {
    c.name: c
    for c in (
        LibraryConfig(
            "fig5a-diagonal",
            make_configuration([(k, -k) for k in range(7)]),
            "text-anchored: the 7-robot SE/NW diagonal line; each interior robot"
            " sees exactly the neighbors SE and NW, the endpoints see one of them.",
        ),
        LibraryConfig(
            "fig5b-diagonal",
            make_configuration([(0, k) for k in range(7)]),
            "text-anchored: the 7-robot NE/SW diagonal line; each interior robot"
            " sees exactly the neighbors NE and SW, the endpoints see one of them.",
        ),
        LibraryConfig(
            "prop1a-geometry",
            make_configuration([(0, 0), (1, -1), (1, -2)]),
            "derived geometry: minimal witness that a lone-SE-neighbor robot moving SW"
            " and a lone-NE-neighbor robot moving NW share one target node.",
        ),
        LibraryConfig(
            "prop1b-geometry",
            make_configuration([(0, 0), (1, -1), (1, -2)]),
            "derived geometry: same witness set as prop1a; here the middle robot sees"
            " NW and SW, and moving it W collides with the lone-SE-neighbor robot moving SW.",
        ),
        LibraryConfig(
            "prop1c-geometry",
            make_configuration([(0, 0), (1, -1), (1, -2), (0, -2)]),
            "derived geometry: minimal witness that a lone-E-neighbor robot moving NE"
            " and a lone-SE-neighbor robot moving SW share one target node.",
        ),
        LibraryConfig(
            "prop1d-geometry",
            make_configuration([(0, 0), (1, 0), (-1, 1), (0, 2), (1, 1)]),
            "derived geometry: minimal witness that a robot seeing NW and E moving NE"
            " and a lone-SE-neighbor robot moving SW share one target node.",
        ),
    )
}


# --- rule-table text format (see docs/formats.md) ---


def table_to_text(table: RuleTable) -> str:
    """64 lines of '<bitmask> <action>', masks ascending, in binary.

    The six binary digits are, from rightmost to leftmost, the neighbor
    labels E, NE, NW, W, SW, SE; actions are direction names or 'stay'.
    """
    lines = []
    for mask, move in enumerate(table.actions):
        name = "stay" if move is None else move.name
        lines.append(f"{mask:06b} {name}")
    return "\n".join(lines) + "\n"


def table_from_text(text: str) -> RuleTable:
    """Parse the text format; strict: all 64 masks, ascending, no repeats."""
    actions: list[Move] = []
    lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln]
    if len(lines) != TABLE_SIZE:
        raise ValueError(f"rule table needs {TABLE_SIZE} lines, got {len(lines)}")
    for expected, line in enumerate(lines):
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"bad rule line {line!r}: expected '<bitmask> <action>'")
        raw_mask, raw_action = parts
        if len(raw_mask) != 6 or any(ch not in "01" for ch in raw_mask):
            raise ValueError(f"bad bitmask {raw_mask!r}: expected six binary digits")
        mask = int(raw_mask, 2)
        if mask != expected:
            raise ValueError(f"rule lines must cover masks in ascending order; got {raw_mask!r}")
        if raw_action == "stay":
            actions.append(None)
        else:
            try:
                actions.append(Direction[raw_action])
            except KeyError:
                raise ValueError(f"unknown action {raw_action!r}") from None
    return RuleTable(tuple(actions))
