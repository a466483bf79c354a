"""Robot configurations: predicates, canonical form, and enumeration.

A configuration is a frozenset of distinct ``TriCoord`` robot nodes.
Connectivity is a derived predicate, not an invariant: post-move states
may legitimately be disconnected and the engine must be able to say so.

The canonical form of a configuration translates it so its
lexicographically smallest coordinate (by ``a``, then ``b``) sits at the
origin.  Translation is the only symmetry quotiented: robots agree on the
axes and on chirality, so rotated or mirrored configurations are
genuinely distinct inputs.
"""

from __future__ import annotations

import json
from typing import Iterable

from .grid import DIRECTIONS, TriCoord, neighbors

Configuration = frozenset  # of TriCoord

# Largest robot count the fixed-shape enumeration is sized for.
MAX_ENUMERATION_SIZE = 8

# A node (a, b) packs to the key a * KEY_STRIDE + b.  While |b| < KEY_STRIDE // 2,
# keys order like nodes (by a, then b) and subtracting keys subtracts nodes, so
# the canonical form of a packed shape subtracts its smallest key.  Offsets
# between two nodes of a connected n-shape have |b| <= n - 1, and one step of
# every robot adds at most 2, so shapes and their successors pack.
KEY_STRIDE = 64
assert MAX_ENUMERATION_SIZE + 1 < KEY_STRIDE // 2, "enumerated shapes must pack"


def key_of(node: TriCoord) -> int:
    """The key a node, or an offset between two nodes, packs to."""
    a, b = node
    return a * KEY_STRIDE + b


# The key offsets of the six neighbors, in DIRECTIONS order.
NEIGHBOR_DELTAS: tuple[int, ...] = tuple(key_of(d.value) for d in DIRECTIONS)


class _Nodes(dict):
    """Nodes by key, unpacked once: every unpacked shape shares these tuples.

    The sharing is why this cache stays: without it, ``trigather enumerate
    --n 8`` peaks at 38.6 MB instead of 30.2 MB and takes 0.35 s instead of
    0.23 s (medians of 9 runs, 2-core Xeon, Python 3.11); ``verify --n 7``
    does not change (22.3 MB either way, 0.34 s against 0.32 s).
    """

    def __missing__(self, key: int) -> TriCoord:
        a, b = divmod(key + KEY_STRIDE // 2, KEY_STRIDE)
        node = self[key] = (a, b - KEY_STRIDE // 2)
        return node


_NODES = _Nodes()


def unpack(keys: Iterable[int]) -> Configuration:
    """The configuration of a packed shape."""
    return frozenset(map(_NODES.__getitem__, keys))


def make_configuration(robots: Iterable[TriCoord]) -> Configuration:
    """Validate and freeze a robot set: nonempty, integer pairs, distinct."""
    seen = set()
    for r in robots:
        if (
            not isinstance(r, tuple)
            or len(r) != 2
            or not all(isinstance(v, int) and not isinstance(v, bool) for v in r)
        ):
            raise ValueError(f"robot coordinate must be an (a, b) integer pair, got {r!r}")
        if r in seen:
            raise ValueError(f"duplicate robot coordinate {r!r}")
        seen.add(r)
    if not seen:
        raise ValueError("configuration must contain at least one robot")
    return frozenset(seen)


def translate(cfg: Configuration, offset: TriCoord) -> Configuration:
    da, db = offset
    return frozenset((a + da, b + db) for a, b in cfg)


def is_connected(cfg: Configuration) -> bool:
    """True iff the robot nodes induce one connected subgraph."""
    if not cfg:
        raise ValueError("connectivity is undefined for an empty configuration")
    unvisited = set(cfg)
    stack = [unvisited.pop()]
    while stack:
        a, b = stack.pop()
        for nb in ((a + 1, b), (a, b + 1), (a - 1, b + 1), (a - 1, b), (a, b - 1), (a + 1, b - 1)):
            if nb in unvisited:
                unvisited.remove(nb)
                if not unvisited:
                    return True
                stack.append(nb)
    return not unvisited


def is_gathered(cfg: Configuration) -> bool:
    """True iff some robot node has all six neighbors occupied by robots."""
    return any(all(nb in cfg for nb in neighbors(r)) for r in cfg)


def canonicalize(cfg: Configuration) -> Configuration:
    """Translate so the lexicographically smallest robot lands on (0, 0)."""
    if not cfg:
        raise ValueError("cannot canonicalize an empty configuration")
    ma, mb = min(cfg)
    if ma == 0 and mb == 0:
        return frozenset(cfg)
    return translate(cfg, (-ma, -mb))


def gathered_hexagon() -> Configuration:
    """The 7-robot gathering-achieved shape: the origin plus its full ring."""
    return frozenset(((0, 0),) + neighbors((0, 0)))


def enumerate_keys(n: int) -> list[tuple[int, ...]]:
    """All connected n-robot shapes up to translation, as sorted key tuples.

    Redelmeier's method (D. H. Redelmeier, "Counting polyominoes: yet
    another attack", Discrete Mathematics 36, 1981), on packed keys.  Every
    shape is grown from its smallest node, key 0, so only neighbours with a
    key above 0 are offered; while keys pack, those are exactly the nodes
    lexicographically after the origin.  A branch holds its shape and the
    untried neighbours offered to it, and takes them one at a time.  The
    child that takes a key contains it.  The key stays marked as offered
    until the branch returns, so no later sibling, nor anything grown from
    one, can add it again.  Each offered key is therefore a yes/no decision,
    two leaves differ in a key one took and the other passed over, and
    every shape is found exactly once: no deduplication is needed.  Every
    node above 0 is offered as soon as it borders the shape, so every
    connected shape is reached.  Returns the shapes sorted.
    """
    if n < 1:
        raise ValueError("robot count must be at least 1")
    if n > MAX_ENUMERATION_SIZE:
        raise ValueError(f"robot count above practical bound {MAX_ENUMERATION_SIZE}")
    found: list[tuple[int, ...]] = []
    shape: list[int] = []
    offered = {0}

    def grow(untried: list[int]) -> None:
        while untried:
            key = untried.pop()
            shape.append(key)
            if len(shape) == n:
                found.append(tuple(sorted(shape)))
            else:
                fresh = []
                for delta in NEIGHBOR_DELTAS:
                    nb = key + delta
                    if nb > 0 and nb not in offered:
                        fresh.append(nb)
                offered.update(fresh)
                grow(untried + fresh)
                offered.difference_update(fresh)
            shape.pop()

    grow([0])
    found.sort()
    return found


def enumerate_connected(n: int) -> list[Configuration]:
    """All connected n-robot configurations up to translation.

    The shapes of :func:`enumerate_keys`, unpacked: canonical forms in a
    deterministic sorted order.
    """
    return [unpack(keys) for keys in enumerate_keys(n)]


# --- configuration file payload ({"robots": [[a, b], ...]}) ---


def config_to_json(cfg: Configuration) -> str:
    """Serialize a configuration; canonical on write."""
    robots = sorted(canonicalize(cfg))
    return json.dumps({"robots": [list(r) for r in robots]})


def config_from_json(text: str) -> Configuration:
    """Parse a configuration payload; rejects duplicates and bad shapes."""
    try:
        obj = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ValueError(f"not valid JSON: {exc}") from exc
    if not isinstance(obj, dict) or "robots" not in obj:
        raise ValueError('configuration payload must be an object with a "robots" key')
    robots = obj["robots"]
    if not isinstance(robots, list):
        raise ValueError('"robots" must be a list of [a, b] pairs')
    coords = []
    for item in robots:
        if not isinstance(item, list) or len(item) != 2:
            raise ValueError(f'robot entry {item!r} is not an [a, b] pair')
        coords.append(tuple(item))
    return make_configuration(coords)
