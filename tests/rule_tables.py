"""Range-1 rule-table fixtures shared by the test suite.

``RuleTable(actions)`` is the package's one constructor for a table; these
helpers spell its 64 actions as {neighbor-direction-set: action} maps, with
``E`` .. ``SE`` naming the six directions.
"""

from trigather.grid import DIRECTIONS, Direction
from trigather.range1 import TABLE_SIZE, RuleTable, table_to_decision

E, NE, NW, W, SW, SE = (
    Direction.E, Direction.NE, Direction.NW, Direction.W, Direction.SW, Direction.SE,
)


def mask_of(dirs):
    """Bitmask of a neighbor set; bit i is DIRECTIONS[i] (E..SE = 0..5)."""
    mask = 0
    for d in dirs:
        mask |= 1 << DIRECTIONS.index(d)
    return mask


def from_moves(moves):
    """The table taking {neighbor-direction-set: action}; unmentioned views stay."""
    actions = [None] * TABLE_SIZE
    for dirs, move in moves.items():
        actions[mask_of(dirs)] = move
    return RuleTable(tuple(actions))


def table(moves):
    """The decision function of ``from_moves(moves)``."""
    return table_to_decision(from_moves(moves))


ALL_STAY = RuleTable((None,) * TABLE_SIZE)


def stay(view):
    """The decision function of a robot that never moves."""
    return None
