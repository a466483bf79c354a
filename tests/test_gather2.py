"""The gathering rule: base determination, guard chain, audits, dump."""

import functools
import itertools
import random

import pytest

from oracles import base_of, chain_moves, screen_all_pairs
from trigather import engine, gather2
from trigather.config import enumerate_connected, gathered_hexagon
from trigather.engine import View, observe
from trigather.gather2 import (
    ALGORITHM_ID,
    COMPLETION_RULES,
    GUARD_TABLE,
    _MOVE_LABEL,
    base_label,
    decide_move,
    decide_verbatim,
    dump_guards,
    matching_rules,
    preserves_visible_connectivity,
)
from trigather.grid import DIRECTIONS, Direction, RANGE1_LABELS, RANGE2_LABELS

ALL_LABELS = RANGE1_LABELS + RANGE2_LABELS
MAX_STEPS_OBSERVED = 19  # gather2-v1 over every connected 7-robot start


def view(*occupied):
    return View(2, frozenset(occupied))


def mask_of(occupied):
    return View(2, occupied).mask


def labels_of(mask):
    return frozenset(lbl for i, lbl in enumerate(ALL_LABELS) if mask >> i & 1)


@pytest.fixture(scope="module")
def n7_views():
    """Each range-2 view of the 7-robot shapes, with the shapes showing it.

    gather2-v1 keeps every run connected, so these are exactly the views
    its runs reach.
    """
    shapes = {}
    for cfg in enumerate_connected(7):
        for robot in cfg:
            shapes.setdefault(observe(cfg, robot, 2), []).append(cfg)
    return shapes


def test_base_label_exception_empty_40():
    assert base_label(view((3, 1), (3, -1))) == (4, 0)


def test_base_label_tie_is_undetermined():
    assert base_label(view((2, 2), (2, -2))) is None


def test_base_label_unique_max():
    assert base_label(view((2, 0))) == (2, 0)
    assert base_label(view((-1, 1))) == (0, 0)  # self is the rightmost


def test_base_label_exception_empty_20():
    assert base_label(view((1, 1), (1, -1))) == (2, 0)


def test_base_label_requires_range2():
    with pytest.raises(ValueError):
        base_label(View(1, frozenset()))


def test_decide_pair_exception_moves_east():
    assert decide_move(view((1, 1), (1, -1))) is Direction.E


def test_decide_gathered_center_stays():
    assert decide_move(view(*RANGE1_LABELS)) is None


def test_decide_west_rim_stays():
    assert decide_move(view((2, 0), (1, 1), (1, -1), (4, 0), (3, 1), (3, -1))) is None


def test_decide_standstill_case_moves_northwest():
    assert decide_move(view((3, 1), (1, 1), (2, 0), (1, -1))) is Direction.NW


def test_gathered_hexagon_is_quiescent():
    hexa = gathered_hexagon()
    for robot in hexa:
        assert decide_move(observe(hexa, robot, 2)) is None
    decisions = engine.compute_decisions(hexa, decide_move, 2)
    assert engine.settle(hexa, decisions) == engine.Outcome(engine.OutcomeKind.GATHERED)


def test_requires_range2():
    with pytest.raises(ValueError):
        decide_move(View(1, frozenset()))
    with pytest.raises(ValueError):
        decide_verbatim(View(1, frozenset()))


def test_completion_rules_target_empty_and_screened():
    for occupied, move in COMPLETION_RULES:
        assert _MOVE_LABEL[move] not in occupied
        assert preserves_visible_connectivity(mask_of(occupied), move)


def test_completion_rules_apply_only_where_chain_stays():
    for occupied, _ in COMPLETION_RULES:
        mask = mask_of(occupied)
        _, matched = matching_rules(mask)
        screened = [r for r in matched if preserves_visible_connectivity(mask, r.move)]
        assert screened == []


def test_screen_blocks_splitting_move():
    # NW rule of line 29 would strand the lone (1,-1) dependent; the
    # screen suppresses it and a completion rule supplies E instead
    occ = frozenset({(1, 1), (2, 2), (1, -1)})
    _, matched = matching_rules(mask_of(occ))
    assert [r.line for r in matched] == [29]
    assert not preserves_visible_connectivity(mask_of(occ), Direction.NW)
    assert decide_move(View(2, occ)) is Direction.E
    assert decide_verbatim(View(2, occ)) is Direction.NW


def test_exhaustive_view_audit():
    """All 2^18 view masks: guard exclusivity, move legality, base dispatch.

    Within a selected branch at most one rule may match (the chain order
    therefore never adjudicates between live guards), and a matched rule
    never targets an occupied label.  The chain enters the branch of the
    base ``base_label`` reports, so the two base exceptions need no
    separate dispatch: an empty (2, 0) base selects lines 1-3; an
    undetermined base or an occupied (2, 0) selects lines 31-33.  The
    masks are walked as integers, and the base is read off each by the
    column scan behind ``base_label``, so no label set or ``View`` is
    built per view.
    """
    owner = {b: branch.lines for branch in GUARD_TABLE for b in branch.bases}
    assert len(owner) == sum(len(branch.bases) for branch in GUARD_TABLE)
    assert all(owner[b] == "31-33" for b in [(0, 0), (1, 1), (1, -1), (2, 0)])
    target_bit = {move: mask_of([lbl]) for move, lbl in _MOVE_LABEL.items()}
    east = mask_of([(2, 0)])
    multi = 0
    for mask in range(1 << 18):
        branch, matched = matching_rules(mask)
        if len(matched) >= 2:
            multi += 1
        if matched:
            assert not mask & target_bit[matched[0].move], mask
        base = gather2._base(mask)
        if base == (2, 0) and not mask & east:
            assert branch.lines == "1-3", mask
        elif base is None:
            assert branch.lines == "31-33", mask
        else:
            assert branch.lines == owner[base], mask
    assert multi == 0


def test_screen_filters_exactly_the_documented_lines(n7_views):
    """Recompute which rule lines the connectivity screen filters."""
    filtered = set()
    for v in n7_views:
        _, matched = matching_rules(v.mask)
        if matched and not preserves_visible_connectivity(v.mask, matched[0].move):
            filtered.add(matched[0].line)
    assert filtered == {8, 19, 29}
    assert "filters rule lines 8, 19 and 29," in dump_guards()
    assert "lines (8, 19 and 29)" in " ".join(gather2.__doc__.split())


def _empty_target_moves(occupied):
    return [d for d in DIRECTIONS if _MOVE_LABEL[d] not in occupied]


def test_screen_matches_all_pairs_definition_on_reached_views(n7_views):
    """The one-group screen equals the documented all-pairs screen where it is used."""
    views = [v.occupied for v in n7_views]
    pairs = [(occ, d) for occ in views for d in _empty_target_moves(occ)]
    assert (len(views), len(pairs)) == (5188, 16860)
    pairs += [(occ, d) for occ, _ in COMPLETION_RULES for d in _empty_target_moves(occ)]
    for occ, d in pairs:
        assert preserves_visible_connectivity(mask_of(occ), d) == screen_all_pairs(occ, d), (occ, d)


@pytest.mark.slow  # 2^18 views x 6 moves against the oracle
def test_screen_matches_all_pairs_definition_on_every_view():
    for bits in itertools.product((0, 1), repeat=18):
        occ = frozenset(l for l, b in zip(ALL_LABELS, bits) if b)
        mask = mask_of(occ)
        for d in DIRECTIONS:
            assert preserves_visible_connectivity(mask, d) == screen_all_pairs(occ, d), (occ, d)


def _assert_decisions_match_the_chain_oracle(views):
    for occ in views:
        v = View(2, occ)
        assert base_label(v) == base_of(occ), sorted(occ)
        assert (decide_move(v), decide_verbatim(v)) == chain_moves(occ), sorted(occ)


def test_decisions_match_the_chain_oracle(n7_views):
    """Both decision functions equal the label-level reading of the tables,
    and ``base_label`` the documented base rule, on the 5,188 views the n=7 sweep reaches, the 44 completion views and
    20,000 seeded random views.
    """
    rng = random.Random(1)
    views = [v.occupied for v in n7_views]
    views += [occ for occ, _ in COMPLETION_RULES]
    views += [labels_of(rng.getrandbits(18)) for _ in range(20_000)]
    assert len(views) == 5188 + 44 + 20_000
    _assert_decisions_match_the_chain_oracle(views)


@pytest.mark.slow  # 2^18 views against the chain oracle
def test_decisions_match_the_chain_oracle_on_every_view():
    _assert_decisions_match_the_chain_oracle(map(labels_of, range(1 << 18)))


def test_every_completion_rule_is_necessary(n7_views):
    """Dropping any one of the 44 completion rules breaks the n=7 sweep.

    For each rule, the decision function that stays on exactly its view
    must leave some start ungathered after 19 steps.  Runs differ from
    gather2-v1 only once a robot sees the dropped view, so the witnesses
    are looked for among the starts that show it from the outset.
    """
    decide = functools.cache(decide_move)  # shared by all rules: views repeat across runs
    for occupied, _ in COMPLETION_RULES:
        completion_view = View(2, occupied)

        def dropped(v, completion_view=completion_view):
            return None if v == completion_view else decide(v)

        failing = []
        for cfg in dict.fromkeys(n7_views.get(completion_view, ())):
            trace = engine.run(cfg, dropped, 2, max_steps=MAX_STEPS_OBSERVED + 1)
            gathered = trace.outcome.kind == engine.OutcomeKind.GATHERED
            if not (gathered and len(trace.steps) <= MAX_STEPS_OBSERVED):
                failing.append(cfg)
        assert failing, f"completion rule for {sorted(occupied)} is redundant"


def test_guard_table_shape():
    assert ALGORITHM_ID == "gather2-v1"
    assert [b.lines for b in GUARD_TABLE] == [
        "1-3", "5-9", "11-15", "17-19", "21-25", "27-29", "31-33",
    ]
    assert [len(b.rules) for b in GUARD_TABLE] == [1, 3, 3, 1, 3, 1, 0]
    assert len(COMPLETION_RULES) == 44


@pytest.mark.parametrize("label", [(0, 0), (1, 0), (6, 0), (3, 3)])
def test_clause_rejects_labels_outside_the_range2_window(label):
    # (0, 0) is the robot itself; (1, 0) names no node; (6, 0) and (3, 3) are 3 steps away
    for kwargs in ({"robots": [label]}, {"empties": [label]}):
        with pytest.raises(ValueError, match="outside the range-2 domain"):
            gather2._clause(**kwargs)


def test_clause_rejects_a_label_both_occupied_and_empty():
    # line 25 as printed requires (1,-1) occupied and empty (see NORMALIZATION_NOTES)
    with pytest.raises(ValueError, match=r"both occupied and empty: \[\(1, -1\)\]"):
        gather2._clause(robots=[(1, 1), (2, 0), (1, -1)], empties=[(1, -1), (-2, 0), (-2, 2)])
