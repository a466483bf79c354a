"""Independent reference for the benchmark's output checks.

Nothing here imports ``trigather``: the enumeration, the synchronous step
semantics, the views and the predicates are rebuilt from the documented
conventions (``docs/formats.md`` and the module docstrings), so that a
fault in the program cannot hide behind a shared helper.

Conventions restated:

- a node is an ``(a, b)`` pair: ``a`` counts steps along the E axis and
  ``b`` along the NE axis;
- directions, in mask-bit order: E, NE, NW, W, SW, SE;
- a node at offset ``(da, db)`` from a robot carries the label
  ``(2*da + db, db)``;
- a shape is canonical when its lexicographically smallest node is the
  origin; shapes are listed by their sorted node lists.
"""

from __future__ import annotations

from collections import deque

DIRECTION_NAMES = ("E", "NE", "NW", "W", "SW", "SE")
STEP = {
    "E": (1, 0),
    "NE": (0, 1),
    "NW": (-1, 1),
    "W": (-1, 0),
    "SW": (0, -1),
    "SE": (1, -1),
}
OFFSETS = tuple(STEP[name] for name in DIRECTION_NAMES)

# Published count of fixed 7-cell polyhexes (OEIS A001168).
POLYHEX_7 = 3652
MAX_STEPS = 500


def hex_distance(da: int, db: int) -> int:
    return (abs(da) + abs(db) + abs(da + db)) // 2


# Every offset a range-2 robot sees, with the label the rules use for it.
RANGE2_LABELLED = tuple(
    ((da, db), (2 * da + db, db))
    for da in range(-2, 3)
    for db in range(-2, 3)
    if 1 <= hex_distance(da, db) <= 2
)


def fixed_polyhexes(n: int) -> list[frozenset]:
    """Connected n-node shapes up to translation, by Redelmeier's method.

    Each shape is grown from its lexicographically smallest node at the
    origin, adding only nodes that are lexicographically larger; a node is
    offered as a candidate at most once per branch, so every shape is
    produced exactly once and no deduplication is needed.
    """

    def allowed(c: tuple) -> bool:
        return c > (0, 0)

    found: list[frozenset] = []

    def grow(shape: list, untried: list, offered: set) -> None:
        untried = list(untried)
        while untried:
            cell = untried.pop()
            shape.append(cell)
            if len(shape) == n:
                found.append(frozenset(shape))
            else:
                fresh = []
                for da, db in OFFSETS:
                    nb = (cell[0] + da, cell[1] + db)
                    if allowed(nb) and nb not in offered:
                        fresh.append(nb)
                grow(shape, untried + fresh, offered | set(fresh))
            shape.pop()

    grow([], [(0, 0)], {(0, 0)})
    return sorted(found, key=sorted)


def canonical(cfg) -> frozenset:
    ma, mb = min(cfg)
    return frozenset((a - ma, b - mb) for a, b in cfg)


def connected(cfg) -> bool:
    """Breadth-first search over occupied neighbours."""
    cells = set(cfg)
    start = next(iter(cells))
    seen = {start}
    queue = deque([start])
    while queue:
        a, b = queue.popleft()
        for da, db in OFFSETS:
            nb = (a + da, b + db)
            if nb in cells and nb not in seen:
                seen.add(nb)
                queue.append(nb)
    return len(seen) == len(cells)


def is_hexagon(cfg) -> bool:
    """Seven robots with one of them surrounded by the other six."""
    cells = set(cfg)
    return len(cells) == 7 and any(
        all((a + da, b + db) in cells for da, db in OFFSETS) for a, b in cells
    )


def range1_mask(cfg, robot) -> int:
    """Bit i is set when the neighbour in direction DIRECTION_NAMES[i] is occupied."""
    a, b = robot
    mask = 0
    for i, (da, db) in enumerate(OFFSETS):
        if (a + da, b + db) in cfg:
            mask |= 1 << i
    return mask


def range2_labels(cfg, robot) -> frozenset:
    """Labels of the occupied nodes within distance 2 of ``robot``."""
    a, b = robot
    return frozenset(lbl for (da, db), lbl in RANGE2_LABELLED if (a + da, b + db) in cfg)


def target(robot, move):
    if move is None:
        return robot
    da, db = STEP[move]
    return (robot[0] + da, robot[1] + db)


def fsync_step(cfg, moves: dict):
    """Apply one synchronous move phase.

    ``moves`` maps each robot to a direction name or None (stay).  Returns
    ``("ok", next_cfg)`` or ``("collision", kind, participants)``.  The
    three collisions are checked in the documented order, each scanning
    robots in sorted order: a swap along one edge, a move onto a robot that
    stays, then two or more movers sharing a target.
    """
    movers = [r for r in sorted(cfg) if moves[r] is not None]
    dest = {r: target(r, moves[r]) for r in cfg}
    for r in movers:
        t = dest[r]
        if t in cfg and moves[t] is not None and dest[t] == r:
            return ("collision", "swap", ((r, moves[r]), (t, moves[t])))
    for r in movers:
        t = dest[r]
        if t in cfg and moves[t] is None:
            return ("collision", "move-onto-stationary", ((r, moves[r]), (t, None)))
    by_target: dict = {}
    for r in movers:
        by_target.setdefault(dest[r], []).append(r)
    for r in movers:
        group = by_target[dest[r]]
        if len(group) > 1:
            return ("collision", "same-target", tuple((g, moves[g]) for g in group))
    return ("ok", frozenset(dest.values()))


class Run:
    """A reference execution: configurations, decisions and the outcome."""

    __slots__ = ("configs", "decisions", "outcome", "participants")

    def __init__(self):
        self.configs: list[frozenset] = []  # the start, then one per recorded step
        self.decisions: list[tuple] = []  # per recorded step, aligned with sorted(pre)
        self.outcome = ""
        self.participants = ()

    @property
    def steps(self) -> int:
        return len(self.decisions)

    @property
    def min_connected(self) -> bool:
        return all(connected(c) for c in self.configs[1:])


def simulate(start, decide, max_steps: int = MAX_STEPS) -> Run:
    """Run ``decide(cfg, robot) -> direction name | None`` from ``start``.

    Ends on quiescence (gathered, or ``livelock:1`` when not a hexagon), a
    collision, a disconnection, a repeated shape up to translation
    (``livelock:<period>``), or ``max_steps`` recorded steps.
    """
    run = Run()
    cfg = frozenset(start)
    run.configs.append(cfg)
    seen = {canonical(cfg): 0}
    while True:
        order = sorted(cfg)
        moves = {r: decide(cfg, r) for r in order}
        if all(m is None for m in moves.values()):
            run.outcome = "gathered" if is_hexagon(cfg) else "livelock:1"
            return run
        result = fsync_step(cfg, moves)
        if result[0] == "collision":
            run.outcome = f"collision:{result[1]}"
            run.participants = result[2]
            return run
        cfg = result[1]
        run.decisions.append(tuple(moves[r] for r in order))
        run.configs.append(cfg)
        if not connected(cfg):
            run.outcome = "disconnected"
            return run
        key = canonical(cfg)
        if key in seen:
            run.outcome = f"livelock:{run.steps - seen[key]}"
            return run
        seen[key] = run.steps
        if run.steps >= max_steps:
            run.outcome = "step-limit"
            return run
