"""Gathering of oblivious mobile robots on the infinite triangular grid.

Simulation of fully synchronous Look-Compute-Move executions, the
visibility-range-2 gathering rule, exhaustive verification over all
connected 7-robot starting shapes, and a failure checker for arbitrary
visibility-range-1 rule tables.
"""

from .config import (
    Configuration,
    canonicalize,
    enumerate_connected,
    gathered_hexagon,
    is_connected,
    is_gathered,
    make_configuration,
    translate,
)
from .engine import (
    CollisionKind,
    CollisionReport,
    Outcome,
    OutcomeKind,
    Trace,
    View,
    observe,
    run,
)
from .gather2 import ALGORITHM_ID, base_label, decide_move, dump_guards
from .grid import (
    Direction,
    DIRECTIONS,
    Label,
    TriCoord,
    coord_of_label,
    distance,
    label_of,
    neighbor,
    neighbors,
    opposite,
)
from .range1 import BUILTIN_CONFIGS, RuleTable, check_table, table_to_decision

__version__ = "0.1.0"
