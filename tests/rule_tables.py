"""Range-1 rule-table fixtures shared by the test suite.

``RuleTable(actions)`` is the package's one constructor for a table; these
helpers spell its 64 actions as {neighbor-direction-set: action} maps.
"""

from trigather.grid import DIRECTIONS
from trigather.range1 import TABLE_SIZE, RuleTable


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


ALL_STAY = RuleTable((None,) * TABLE_SIZE)


def stay(view):
    """The decision function of a robot that never moves."""
    return None
