"""The visibility-range-2 gathering rule as a pure decision function.

Each robot labels the nodes it can see (self is (0, 0)) and determines a
*base node*: the robot-node label with the strictly largest x-element,
robots included, self counted with x-element 0.  A tie leaves the base
undetermined, with two exceptions handled by the rule chain itself: the
empty node (4, 0) acts as base when (3, 1) and (3, -1) are both robot
nodes, and an empty (2, 0) acts as base when (1, 1) and (1, -1) are the
only robot nodes with positive x-element.  Robots then funnel eastward
around the base under guards that rule out collisions and disconnection.

The decision function is layered, and every layer is data that
``dump_guards`` renders for auditing (the CLI surfaces it as
``dump-guards``):

1. ``GUARD_TABLE`` transcribes the movement rules from their 33-line
   reference pseudocode listing; the ``line`` tags index into that
   listing (every statement line counted, blanks included).
   Transcription normalizations are listed in ``NORMALIZATION_NOTES``.

2. The printed listing is demonstrably lossy (it even carries a struck
   rule), so two reconstruction layers restore the behavior the listing
   is elsewhere careful about.  A *connectivity screen* suppresses a
   chain move that would split the group of robots the mover can see;
   exhaustive replay shows the printed guards already imply this screen
   everywhere except three under-guarded lines (8, 19 and 29), whose
   firings it filters.

3. ``COMPLETION_RULES`` supply moves for the exact views the screened
   chain leaves quiescent although gathering is not reached.  They were
   synthesized mechanically, one view at a time, against exhaustive
   replay of all 3652 connected 7-robot configurations, and pruned to a
   minimal set; see the transcription notes for the derivation.

``decide_move`` (algorithm id ``gather2-v1``) applies all three layers
and gathers every connected 7-robot configuration.  ``decide_verbatim``
(``gather2-verbatim``) is the unscreened, uncompleted chain, kept so the
lossiness of the printed listing stays reproducible.  The chain is
ordered: the first branch whose condition holds is entered, the first
rule inside it whose guard holds fires, and anything else means stay;
quiescence is the default, which is what makes a gathered configuration
a fixed point.

The functions evaluate a bitmask form of the three layers that is derived
at import from their label sets alone: a robots mask and an empties mask
per clause, tested against a view's ``mask``.  The base is read off the
same mask, column by column of the window from x-element 4 down to 0:
the first column holding a robot gives its one label, or no base when it
holds two or more.
``tests/test_gather2.py::test_decisions_match_the_chain_oracle`` checks
both decision functions equal to a label-level reading of the tables,
and ``base_label`` equal to the base rule as stated above.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .engine import Move, View
from .grid import DIRECTIONS, Direction, Label, RANGE1_LABELS, RANGE2_LABELS

ALGORITHM_ID = "gather2-v1"
ALGORITHM_ID_VERBATIM = "gather2-verbatim"


@dataclass(frozen=True, slots=True)
class GuardClause:
    """One conjunction: these labels occupied, those labels empty."""

    robots: frozenset
    empties: frozenset


@dataclass(frozen=True, slots=True)
class MoveRule:
    """One pseudocode action line: move ``move`` if any clause holds."""

    line: int
    move: Direction
    clauses: tuple[GuardClause, ...]


@dataclass(frozen=True, slots=True)
class Branch:
    """One branch of the dispatch chain, keyed on the base node."""

    lines: str
    title: str
    bases: frozenset
    when: tuple[GuardClause, ...]
    rules: tuple[MoveRule, ...]
    match_no_base: bool = False


def _clause(robots: Iterable[Label] = (), empties: Iterable[Label] = ()) -> GuardClause:
    robots = frozenset(robots)
    empties = frozenset(empties)
    stray = (robots | empties).difference(RANGE1_LABELS, RANGE2_LABELS)  # outside a range-2 view
    if stray:
        raise ValueError(f"guard mentions labels outside the range-2 domain: {sorted(stray)}")
    if robots & empties:
        raise ValueError(f"guard requires labels both occupied and empty: {sorted(robots & empties)}")
    return GuardClause(robots, empties)


# The exception guards of the base determination, shared by base_label()
# and the corresponding branch conditions of the chain.
_BASE_40_EXCEPTION = _clause(robots=[(3, 1), (3, -1)], empties=[(4, 0)])
_BASE_20_EXCEPTION = _clause(
    robots=[(1, 1), (1, -1)],
    empties=[(2, 0), (2, 2), (2, -2), (3, 1), (3, -1), (4, 0)],
)

GUARD_TABLE: tuple[Branch, ...] = (
    Branch(
        lines="1-3",
        title="empty base column (2,0) flanked by the (1,1)/(1,-1) pair",
        bases=frozenset(),
        when=(_BASE_20_EXCEPTION,),
        rules=(
            MoveRule(
                3,
                Direction.E,
                (
                    _clause(empties=[(-2, 0)]),
                    _clause(robots=[(-2, 0), (-1, 1)]),
                    _clause(robots=[(-2, 0), (-1, -1)]),
                ),
            ),
        ),
    ),
    Branch(
        lines="5-9",
        title="base (4,0)",
        bases=frozenset({(4, 0)}),
        when=(_BASE_40_EXCEPTION,),
        rules=(
            MoveRule(
                7,
                Direction.E,
                (
                    _clause(empties=[(2, 0), (-1, 1), (-2, 0), (-1, -1)]),
                    _clause(robots=[(1, -1)], empties=[(2, 0), (-2, 0), (-1, 1)]),
                    _clause(robots=[(1, 1)], empties=[(2, 0), (-2, 0), (-1, -1)]),
                    _clause(robots=[(1, -1), (-1, -1), (-2, 0)], empties=[(2, 0), (-1, 1)]),
                    _clause(robots=[(-2, 0), (-1, 1), (1, 1)], empties=[(2, 0), (-1, -1)]),
                ),
            ),
            MoveRule(
                8,
                Direction.NE,
                (
                    _clause(robots=[(2, 0)], empties=[(1, 1), (-2, 0), (-1, 1), (-1, -1), (2, 2)]),
                    _clause(
                        robots=[(2, 0), (2, 2), (3, 1), (3, -1), (-2, -2)],
                        empties=[(1, 1), (-2, 0), (-1, 1)],
                    ),
                ),
            ),
            MoveRule(
                9,
                Direction.SE,
                (
                    _clause(
                        robots=[(2, 0), (1, 1)],
                        empties=[(1, -1), (-1, -1), (-2, 0), (-1, 1), (2, -2)],
                    ),
                    _clause(
                        robots=[(2, 0), (1, 1), (2, 2)],
                        empties=[(1, -1), (-1, -1), (-2, 0), (-1, 1), (2, -2)],
                    ),
                ),
            ),
        ),
    ),
    Branch(
        lines="11-15",
        title="base (3,-1)",
        bases=frozenset({(3, -1)}),
        when=(),
        rules=(
            MoveRule(
                13,
                Direction.SE,
                (
                    _clause(empties=[(1, -1), (-1, -1), (0, -2), (-2, 0), (-1, 1)]),
                    _clause(robots=[(-1, 1), (1, 1)], empties=[(1, -1), (-1, -1), (0, -2), (0, 2)]),
                ),
            ),
            MoveRule(
                14,
                Direction.E,
                (
                    _clause(robots=[(1, -1)], empties=[(2, 0), (-1, 1), (-2, 0)]),
                    _clause(robots=[(1, -1), (-2, 0), (-1, -1)], empties=[(2, 0), (-1, 1)]),
                ),
            ),
            MoveRule(
                15,
                Direction.SW,
                (
                    _clause(robots=[(1, -1), (2, 0), (1, 1)], empties=[(-1, -1), (-2, 0), (-2, -2)]),
                ),
            ),
        ),
    ),
    Branch(
        lines="17-19",
        title="base (2,-2)",
        bases=frozenset({(2, -2)}),
        when=(),
        rules=(
            MoveRule(
                19,
                Direction.SW,
                (_clause(empties=[(-1, -1), (-2, 0), (-3, -1), (-1, 1)]),),
            ),
        ),
    ),
    Branch(
        lines="21-25",
        title="base (3,1)",
        bases=frozenset({(3, 1)}),
        when=(),
        rules=(
            MoveRule(
                23,
                Direction.NE,
                (
                    _clause(empties=[(1, 1), (-1, 1), (-2, 0), (-1, -1)]),
                    _clause(robots=[(1, -1), (-1, -1)], empties=[(1, 1), (0, -2), (-1, 1)]),
                ),
            ),
            MoveRule(
                24,
                Direction.E,
                (
                    _clause(robots=[(1, 1)], empties=[(2, 0), (-2, 0), (-1, -1)]),
                    _clause(robots=[(1, 1), (-2, 0), (-1, 1)], empties=[(2, 0), (-1, -1)]),
                ),
            ),
            MoveRule(
                25,
                Direction.NW,
                (
                    _clause(robots=[(1, 1), (2, 0), (1, -1)], empties=[(-1, 1), (-2, 0), (-2, 2)]),
                ),
            ),
        ),
    ),
    Branch(
        lines="27-29",
        title="base (2,2)",
        bases=frozenset({(2, 2)}),
        when=(),
        rules=(
            MoveRule(
                29,
                Direction.NW,
                (_clause(empties=[(-1, 1), (-3, 1), (-2, 0), (-1, -1)]),),
            ),
        ),
    ),
    Branch(
        lines="31-33",
        title="base adjacent to self, or undetermined: stay",
        bases=frozenset({(0, 0), (2, 0), (1, -1), (1, 1)}),
        when=(),
        rules=(),
        match_no_base=True,
    ),
)

NORMALIZATION_NOTES: tuple[str, ...] = (
    "line 2: article typo in the branch comment; comment content only, no guard change.",
    "line 8: the action phrase calls its target a robot node although the guard requires"
    " label (1,1) empty; read as the adjacent node (1,1), direction NE.",
    "line 9: subject/verb number typo; a missing comma inside the empty-label list is read"
    " as a separator; the trailing robot-node alternative on (1,1)/(2,2) is kept as printed"
    " although this rule already requires (1,1) occupied.",
    "line 15: plural typo in the empty-label phrase; guard content unchanged.",
    "line 23: plural typo in the empty-label phrase; guard content unchanged.",
    "line 25: the printed guard requires label (1,-1) both occupied and empty; the empty"
    " occurrence is read as (-1,1), this rule's move target, mirroring line 15 whose guard"
    " requires its own target (-1,-1) empty. a stray comma in the empty-label list is dropped.",
    "after line 29: the listing carries a struck-out rule (move SE under a (2,0)-occupied"
    " guard); it is excluded here, as in the listing, but it is direct evidence that rules"
    " were cut from the printed chain.",
)


# --- layer 3: completion rules for views the screened chain leaves quiescent ---

# Exact views (occupied labels; all other window labels empty) mapped to
# the move that unsticks them.  Synthesized against exhaustive replay of
# all 3652 connected 7-robot configurations and pruned to a minimal set;
# every entry passed the same screen and the full replay stays free of
# collisions and disconnections.
COMPLETION_RULES: tuple[tuple[frozenset, Direction], ...] = (
    (frozenset({(-2, -2), (0, -2), (1, -1), (1, 1), (2, -2)}), Direction.E),
    (frozenset({(-2, 2), (0, 2), (1, -1), (1, 1), (2, 2)}), Direction.E),
    (frozenset({(-1, -1), (0, -2), (0, 2), (1, -1), (1, 1), (2, 2)}), Direction.E),
    (frozenset({(-1, -1), (0, -2), (1, -1), (1, 1), (2, 2)}), Direction.E),
    (frozenset({(-1, -1), (0, -2), (1, -1), (1, 1), (2, 2), (3, 1)}), Direction.E),
    (frozenset({(-1, -1), (0, -2), (1, -1), (1, 1), (3, 1)}), Direction.E),
    (frozenset({(-1, -1), (0, 2), (1, -1), (1, 1), (2, 2)}), Direction.E),
    (frozenset({(-1, -1), (0, 2), (1, -1), (1, 1), (2, 2), (3, 1)}), Direction.E),
    (frozenset({(-1, -1), (1, -1), (1, 1), (2, 2)}), Direction.E),
    (frozenset({(-1, -1), (1, -1), (1, 1), (2, 2), (3, 1)}), Direction.E),
    (frozenset({(-1, -1), (1, -1), (1, 1), (3, 1)}), Direction.E),
    (frozenset({(-1, 1), (0, -2), (0, 2), (1, -1), (1, 1), (2, -2)}), Direction.E),
    (frozenset({(-1, 1), (0, -2), (1, -1), (1, 1), (2, -2)}), Direction.E),
    (frozenset({(-1, 1), (0, -2), (1, -1), (1, 1), (2, -2), (3, -1)}), Direction.E),
    (frozenset({(-1, 1), (0, 2), (1, -1), (1, 1), (2, -2)}), Direction.E),
    (frozenset({(-1, 1), (0, 2), (1, -1), (1, 1), (2, -2), (3, -1)}), Direction.E),
    (frozenset({(-1, 1), (0, 2), (1, -1), (1, 1), (3, -1)}), Direction.E),
    (frozenset({(-1, 1), (1, -1), (1, 1), (2, -2)}), Direction.E),
    (frozenset({(-1, 1), (1, -1), (1, 1), (2, -2), (2, 0)}), Direction.SW),
    (frozenset({(-1, 1), (1, -1), (1, 1), (2, -2), (3, -1)}), Direction.E),
    (frozenset({(-1, 1), (1, -1), (1, 1), (3, -1)}), Direction.E),
    (frozenset({(0, -2), (0, 2), (1, -1), (1, 1), (2, -2)}), Direction.E),
    (frozenset({(0, -2), (0, 2), (1, -1), (1, 1), (2, -2), (2, 2)}), Direction.E),
    (frozenset({(0, -2), (1, -1), (1, 1), (2, -2), (2, 2)}), Direction.E),
    (frozenset({(0, 2), (1, -1), (1, 1), (2, -2)}), Direction.E),
    (frozenset({(0, 2), (1, -1), (1, 1), (2, -2), (2, 2)}), Direction.E),
    (frozenset({(0, 2), (1, 1)}), Direction.NW),
    (frozenset({(0, 2), (2, -2), (2, 0), (2, 2), (3, -1), (3, 1)}), Direction.NE),
    (frozenset({(0, 2), (2, 0), (2, 2), (3, -1), (3, 1)}), Direction.NE),
    (frozenset({(0, 2), (2, 0), (2, 2), (3, -1), (3, 1), (4, 0)}), Direction.SE),
    (frozenset({(0, 2), (2, 0), (2, 2), (3, 1), (4, 0)}), Direction.NE),
    (frozenset({(1, -1), (1, 1), (2, -2)}), Direction.E),
    (frozenset({(1, -1), (1, 1), (2, -2), (2, 2)}), Direction.E),
    (frozenset({(1, -1), (1, 1), (2, 0), (3, -1), (3, 1)}), Direction.NW),
    (frozenset({(1, -1), (1, 1), (2, 2)}), Direction.E),
    (frozenset({(1, -1), (2, -2), (2, 0), (3, -1)}), Direction.SW),
    (frozenset({(1, -1), (2, 0), (2, 2), (3, -1), (3, 1)}), Direction.NE),
    (frozenset({(1, 1), (2, -2), (2, 0), (3, -1), (3, 1)}), Direction.SE),
    (frozenset({(1, 1), (2, 0), (2, 2), (3, 1)}), Direction.NW),
    (frozenset({(2, -2), (2, 0), (2, 2), (3, -1), (3, 1)}), Direction.NE),
    (frozenset({(2, 0), (2, 2), (3, -1), (3, 1)}), Direction.NE),
    (frozenset({(2, 0), (2, 2), (3, -1), (4, 0)}), Direction.NE),
    (frozenset({(2, 0), (2, 2), (3, 1), (4, 0)}), Direction.SE),
    (frozenset({(2, 0), (2, 2), (4, 0)}), Direction.NE),
)


# --- the mask form that every function below evaluates ---
#
# Derived at import from the label sets of GUARD_TABLE, its two base
# exceptions and COMPLETION_RULES, and from nothing else.  A clause holds
# on a view mask when ``mask & care == robots``, where ``care`` is its
# robots mask or'ed with its empties mask.  The plain base is read off
# the rightmost window column the mask occupies, self included.

# Each label's bit, as ``View`` numbers them.  Self at (0, 0) takes the
# bit above them, so the closed range-2 window of 19 nodes is one mask.
_BIT: dict[Label, int] = {lbl: View(2, [lbl]).mask for lbl in RANGE1_LABELS + RANGE2_LABELS}
_SELF = 1 << len(_BIT)
_WINDOW_BIT: dict[Label, int] = {(0, 0): _SELF} | _BIT


def _mask(labels: Iterable[Label]) -> int:
    """The range-2 view mask with exactly ``labels`` occupied."""
    return sum(map(_BIT.__getitem__, labels))


def _clause_masks(clause: GuardClause) -> tuple[int, int]:
    """``(care, robots)`` of one clause."""
    robots = _mask(clause.robots)
    return robots | _mask(clause.empties), robots


def _holds(mask: int, clauses: tuple[tuple[int, int], ...]) -> bool:
    for care, robots in clauses:
        if mask & care == robots:
            return True
    return False


# The window's columns of x-element 4 down to 0, each as its mask and its
# labels by bit.  Self is in column 0, so a scan that counts self as a
# robot ends there at the latest.
_COLUMNS: tuple[tuple[int, dict[int, Label]], ...] = tuple(
    (sum(column), column)
    for column in (
        {bit: lbl for lbl, bit in _WINDOW_BIT.items() if lbl[0] == x} for x in range(4, -1, -1)
    )
)
_BASE_EXCEPTIONS: tuple[tuple[tuple[int, int], Label], ...] = (
    (_clause_masks(_BASE_40_EXCEPTION), (4, 0)),
    (_clause_masks(_BASE_20_EXCEPTION), (2, 0)),
)

# The chain: each branch's rules with the masks of their clauses; the
# first branch each plain base (None when undetermined) selects; and the
# branch conditions on clauses, in chain order, which can only select a
# branch before that one.
_CHAIN: tuple[tuple[tuple[MoveRule, tuple[tuple[int, int], ...]], ...], ...] = tuple(
    tuple((rule, tuple(map(_clause_masks, rule.clauses))) for rule in branch.rules)
    for branch in GUARD_TABLE
)
_FIRST_BRANCH: dict[Label | None, int] = {
    base: index
    for index, branch in reversed(tuple(enumerate(GUARD_TABLE)))
    for base in (*branch.bases, *([None] if branch.match_no_base else []))
}
_BRANCH_CLAUSES: tuple[tuple[int, int, int], ...] = tuple(
    (index, *_clause_masks(clause))
    for index, branch in enumerate(GUARD_TABLE)
    for clause in branch.when
)

# Links between the window's nodes, as the mask of each node's window
# neighbours.  Labels are linear in the offset, so adjacent labels differ
# by a range-1 label.
_ADJ: dict[int, int] = {
    bit: sum(_WINDOW_BIT.get((x + dx, y + dy), 0) for dx, dy in RANGE1_LABELS)
    for (x, y), bit in _WINDOW_BIT.items()
}
_MOVE_LABEL: dict[Direction, Label] = dict(zip(DIRECTIONS, RANGE1_LABELS))
_MOVE_BIT: dict[Direction, int] = {d: _BIT[lbl] for d, lbl in _MOVE_LABEL.items()}

_COMPLETION: dict[int, Direction] = {_mask(labels): move for labels, move in COMPLETION_RULES}


def _require_range2(view: View) -> None:
    if view.visibility != 2:
        raise ValueError("the gathering rule needs visibility range 2")


def _plain_base(mask: int) -> Label | None:
    """The rightmost occupied column's one label, self included; None on a tie."""
    mask |= _SELF
    for column, labels in _COLUMNS:
        if mask & column:
            return labels.get(mask & column)


def _base(mask: int) -> Label | None:
    for (care, robots), label in _BASE_EXCEPTIONS:
        if mask & care == robots:
            return label
    return _plain_base(mask)


def base_label(view: View) -> Label | None:
    """The base node's label for this view, or None when undetermined."""
    _require_range2(view)
    return _base(view.mask)


def _reach(nodes: int, start: int) -> int:
    """The window bits of ``nodes`` connected to bit ``start`` through window links."""
    seen = frontier = start
    while frontier:
        bit = frontier & -frontier
        frontier ^= bit
        fresh = _ADJ[bit] & nodes & ~seen
        seen |= fresh
        frontier |= fresh
    return seen


def preserves_visible_connectivity(mask: int, move: Direction) -> bool:
    """False when stepping in ``move`` would split the robots the mover sees.

    ``mask`` is the mover's range-2 view mask.  The documented screen asks
    that any pair of visible robots (the mover included) connected through
    occupied window nodes before the move stay connected after it.  Links
    through nodes outside the window are invisible to the mover, so losing
    a visible link counts as a disconnection risk.  Only the mover's own
    group can split: every other visible group keeps its nodes and links,
    and adding the target can only merge groups.  So the screen asks one
    thing: the mover's group, with the mover moved to its target, is still
    connected.
    """
    target = _MOVE_BIT[move]
    group = _reach(mask | _SELF, _SELF) ^ _SELF | target
    return _reach(group, target) == group


def _entered(mask: int) -> int:
    """The index in ``GUARD_TABLE`` of the branch the chain enters."""
    first = _FIRST_BRANCH[_plain_base(mask)]
    for index, care, robots in _BRANCH_CLAUSES:
        if index >= first:
            break
        if mask & care == robots:
            return index
    return first


def matching_rules(mask: int) -> tuple[Branch, tuple[MoveRule, ...]]:
    """The branch the dispatch chain enters on a range-2 view mask, and
    every one of its rules whose guard holds.

    The chain only ever fires the first match; this reports all matches
    so the guard-exclusivity audit can document overlaps.
    """
    index = _entered(mask)
    return GUARD_TABLE[index], tuple(
        [rule for rule, clauses in _CHAIN[index] if _holds(mask, clauses)]
    )


def decide_move(view: View) -> Move:
    """The move (or None to stay) the gathering rule picks for a view."""
    _require_range2(view)
    mask = view.mask
    for rule, clauses in _CHAIN[_entered(mask)]:
        if _holds(mask, clauses) and preserves_visible_connectivity(mask, rule.move):
            return rule.move
    return _COMPLETION.get(mask)


def decide_verbatim(view: View) -> Move:
    """The unscreened, uncompleted chain exactly as printed.

    Kept for reproducing how far the printed listing alone gets; it
    strands or stalls roughly half of the connected 7-robot
    configurations.
    """
    _require_range2(view)
    mask = view.mask
    for rule, clauses in _CHAIN[_entered(mask)]:
        if _holds(mask, clauses):
            return rule.move
    return None


# --- auditable dump of the compiled table ---


def _fmt_labels(labels: frozenset) -> str:
    return "{" + ",".join(f"({x},{y})" for x, y in sorted(labels)) + "}"


def _fmt_clause(clause: GuardClause) -> str:
    return f"robots {_fmt_labels(clause.robots)} empty {_fmt_labels(clause.empties)}"


def dump_guards() -> str:
    """Human-readable listing of the compiled decision layers.

    Byte-stable across runs; the transcription-notes document embeds this
    text verbatim and a checksum test pins it.
    """
    out = [
        f"guard table {ALGORITHM_ID}",
        "",
        "line numbers refer to the 33-line reference pseudocode listing of the",
        "movement rules (every statement line counted, blanks included).",
        "",
        "dispatch: self counts as a robot node with x-element 0; the base is the",
        "unique robot-node label of largest x-element, undetermined on a tie.",
        "the first branch whose condition holds is entered; inside it the first",
        "rule whose guard holds fires; in every other case the robot stays.",
        "",
        "layer 1: transcribed rule chain",
        "",
    ]
    for branch in GUARD_TABLE:
        out.append(f"branch lines {branch.lines}: {branch.title}")
        conds = [f"base is {_fmt_labels(branch.bases)[1:-1] or 'none'}"] if branch.bases else []
        if branch.match_no_base:
            conds.append("base undetermined")
        conds.extend(_fmt_clause(c) for c in branch.when)
        out.append("  enter when: " + "; or ".join(conds))
        if not branch.rules:
            out.append("  action: stay")
        for rule in branch.rules:
            out.append(f"  rule line {rule.line} -> move {rule.move.name}, when any of:")
            for clause in rule.clauses:
                out.append(f"    {_fmt_clause(clause)}")
        out.append("")
    out += [
        "layer 2: connectivity screen (reconstruction)",
        "  a chain move fires only if it does not split the visible robots:",
        "  every pair of robots in the mover's window (mover included) that is",
        "  connected through occupied window nodes before the move must remain",
        "  connected after it.  exhaustive replay shows the screen only ever",
        "  filters rule lines 8, 19 and 29, whose printed guards do not imply it.",
        "",
        "layer 3: completion rules (reconstruction)",
        "  exact views (occupied labels listed; all other window labels empty)",
        "  that the screened chain leaves quiescent short of gathering, with the",
        "  move that unsticks them; synthesized and minimized against exhaustive",
        "  replay of all 3652 connected 7-robot configurations.",
    ]
    for occupied, move in COMPLETION_RULES:
        out.append(f"  view {_fmt_labels(occupied)} -> move {move.name}")
    out.append("")
    out.append("normalization notes (transcription of the printed listing):")
    for note in NORMALIZATION_NOTES:
        out.append(f"  {note}")
    out.append("")
    return "\n".join(out)
