"""Independent oracles used by the test suite.

The enumeration check needs no code of the package.  A list is the set of
connected n-shapes up to translation, once each and in the documented
order, when three things hold: every entry has n nodes, is connected and
has its smallest node at the origin (the canonical representative of its
translation class); the entries' sorted node lists strictly increase (so
they are distinct, in sorted order); and the list is as long as the
number of translation classes, the fixed polyhexes counted by OEIS
A001168.  A one-to-one map into a finite set of that size is onto it.

The base oracle reads the range-2 base node off the ``gather2`` docstring
on label sets, both exceptions included.  The connectivity-screen oracle
states the range-2 screen as the ``dump-guards`` text does, pair by pair,
on grid coordinates.  The chain oracle reads the range-2 rule's decisions
off ``GUARD_TABLE`` and ``COMPLETION_RULES`` on label sets, as the
``gather2`` docstring states the chain.  None of the three calls an
evaluation function of ``gather2``.
"""

from trigather.gather2 import COMPLETION_RULES, GUARD_TABLE
from trigather.grid import coord_of_label, neighbor, neighbors

FIXED_POLYHEXES = (1, 3, 11, 44, 186, 814, 3652, 16689)  # OEIS A001168


def union_find_connected(cells):
    """Connectivity by union-find over the six unit offsets."""
    parent = {c: c for c in cells}

    def root(c):
        while parent[c] != c:
            parent[c] = parent[parent[c]]
            c = parent[c]
        return c

    for a, b in cells:
        for da, db in ((1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1)):
            if (a + da, b + db) in parent:
                parent[root((a + da, b + db))] = root((a, b))
    return len({root(c) for c in cells}) == 1


def check_fixed_polyhexes(n, shapes):
    """Assert ``shapes`` is every connected n-shape up to translation, once, in order."""
    previous = []  # sorts below every node list
    for cfg in shapes:
        nodes = sorted(cfg)
        assert len(set(nodes)) == len(nodes) == n, nodes
        assert nodes[0] == (0, 0), f"smallest node off the origin: {nodes}"
        assert union_find_connected(nodes), f"disconnected: {nodes}"
        assert previous < nodes, f"out of order: {previous} {nodes}"
        previous = nodes
    assert len(shapes) == FIXED_POLYHEXES[n - 1], f"n={n}: {len(shapes)} shapes"


def _components(cells):
    """Component index of every cell, by flood fill over grid neighbours."""
    comp = {}
    for seed in cells:
        if seed in comp:
            continue
        comp[seed] = seed
        stack = [seed]
        while stack:
            for nb in neighbors(stack.pop()):
                if nb in cells and nb not in comp:
                    comp[nb] = seed
                    stack.append(nb)
    return comp


def screen_all_pairs(occupied, move):
    """The connectivity screen as documented: every pair of robots in the
    mover's window (mover included) that is connected through occupied
    window nodes before the move must remain connected after it.

    ``occupied`` holds the labels of the robots the mover at (0, 0) sees.
    """
    me = (0, 0)
    target = neighbor(me, move)
    before = {coord_of_label(me, lbl) for lbl in occupied} | {me}
    after = (before - {me}) | {target}
    moved = {cell: cell for cell in before}
    moved[me] = target
    pre = _components(before)
    post = _components(after)
    # pairs connected before share a component before; they must all share one after
    post_of_pre = {}
    for cell in before:
        post_of_pre.setdefault(pre[cell], set()).add(post[moved[cell]])
    return all(len(comps) == 1 for comps in post_of_pre.values())


def _plain_base(occupied):
    """The robot label of strictly largest x-element, self included, or None on a tie."""
    robots = [(0, 0), *occupied]
    top = max(x for x, _ in robots)
    rightmost = [lbl for lbl in robots if lbl[0] == top]
    return rightmost[0] if len(rightmost) == 1 else None


def base_of(occupied):
    """The base node's label for a range-2 view, as the ``gather2`` docstring
    states it.

    ``occupied`` holds the labels of the robots the mover at (0, 0) sees.
    The empty (4, 0) is the base when (3, 1) and (3, -1) are robots, and
    the empty (2, 0) when (1, 1) and (1, -1) are the only robots of
    positive x-element.  Otherwise the base is the robot label of strictly
    largest x-element, self counted at x-element 0, and undetermined
    (None) on a tie.
    """
    occupied = frozenset(occupied)
    if (4, 0) not in occupied and {(3, 1), (3, -1)} <= occupied:
        return (4, 0)
    if {lbl for lbl in occupied if lbl[0] > 0} == {(1, 1), (1, -1)}:
        return (2, 0)
    return _plain_base(occupied)


_COMPLETION = dict(COMPLETION_RULES)


def chain_moves(occupied):
    """The ``gather2-v1`` and ``gather2-verbatim`` moves for a range-2 view.

    ``occupied`` holds the labels of the robots the mover at (0, 0) sees.
    The base is the unique robot-node label of largest x-element, self
    counted at x-element 0, and undetermined (None) on a tie.  The first
    branch whose condition holds is entered: the base is one of its bases,
    or it is undetermined and the branch matches that, or one of its
    clauses holds.  The verbatim chain fires the first rule of that branch
    whose guard holds.  ``gather2-v1`` fires the first one whose move also
    passes the connectivity screen, and otherwise the completion rule for
    the exact view, if any.  A move of None is a stay.
    """
    occupied = frozenset(occupied)

    def holds(clause):
        return clause.robots <= occupied and clause.empties.isdisjoint(occupied)

    base = _plain_base(occupied)
    branch = next(
        b
        for b in GUARD_TABLE
        if base in b.bases or (base is None and b.match_no_base) or any(map(holds, b.when))
    )
    matched = [rule.move for rule in branch.rules if any(map(holds, rule.clauses))]
    screened = [move for move in matched if screen_all_pairs(occupied, move)]
    move = screened[0] if screened else _COMPLETION.get(occupied)
    return move, (matched[0] if matched else None)
