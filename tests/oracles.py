"""Independent brute-force oracles used by the test suite.

The shape-count oracle enumerates n-subsets directly (no canonical
growth): every connected n-shape, translated so its lexicographically
smallest cell sits at the origin, consists of the origin plus n-1 cells
that are lex-greater than the origin and within lattice distance n-1 of
it (a connected induced subgraph on n vertices has diameter at most
n-1).  Counting connected subsets of that anchored half-disc therefore
counts connected shapes up to translation.

For small n an even blunter oracle is kept alongside: enumerate every
n-subset of a full disc and deduplicate by canonical form.

The ordered-enumeration oracle is the growth the packed enumeration
replaced: the same level-by-level growth on frozensets of coordinate
tuples, canonicalized by translating the smallest node to the origin.

The connectivity-screen oracle states the range-2 screen as the
``dump-guards`` text does, pair by pair, on grid coordinates.
"""

from itertools import combinations

from trigather.config import canonicalize, is_connected
from trigather.grid import coord_of_label, distance, neighbor, neighbors


def disc(radius, center=(0, 0)):
    ca, cb = center
    return [
        (ca + da, cb + db)
        for da in range(-radius, radius + 1)
        for db in range(-radius, radius + 1)
        if distance((0, 0), (da, db)) <= radius
    ]


def count_connected_anchored(n):
    """Connected n-shapes up to translation, by anchored subset enumeration."""
    if n == 1:
        return 1
    pool = [c for c in disc(n - 1) if c > (0, 0)]
    shapes = set()
    for rest in combinations(pool, n - 1):
        cells = frozenset((( 0, 0),) + rest)
        if is_connected(cells):
            shapes.add(canonicalize(cells))
    return len(shapes)


def count_connected_full_disc(n, radius=None):
    """Connected n-subsets of a radius-n disc, deduplicated by canonical form.

    Only tractable for small n; quadratic in the binomial coefficient.
    """
    radius = n if radius is None else radius
    shapes = set()
    for cells in combinations(disc(radius), n):
        cells = frozenset(cells)
        if is_connected(cells):
            shapes.add(canonicalize(cells))
    return len(shapes)


def enumerate_connected_tuples(n):
    """Connected n-shapes up to translation, grown on coordinate tuples, sorted."""
    level = {frozenset({(0, 0)})}
    for _ in range(n - 1):
        level = {canonicalize(cfg | {nb}) for cfg in level for cell in cfg
                 for nb in neighbors(cell) if nb not in cfg}
    return sorted(level, key=sorted)


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
