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

from .grid import TriCoord, neighbors

Configuration = frozenset  # of TriCoord

# Largest robot count the fixed-shape enumeration is sized for.
MAX_ENUMERATION_SIZE = 8


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
    return frozenset((a - ma, b - mb) for a, b in cfg)


def gathered_hexagon(center: TriCoord = (0, 0)) -> Configuration:
    """The 7-robot gathering-achieved shape: a center plus its full ring."""
    return frozenset((center,) + neighbors(center))


def enumerate_connected(n: int) -> list[Configuration]:
    """All connected n-robot configurations up to translation.

    Grown level by level: every connected (k+1)-shape contains a connected
    k-shape (drop a leaf of any spanning tree), so extending each k-shape
    by one neighbor node and deduplicating canonical forms is exhaustive.
    Returns canonical forms in a deterministic sorted order.
    """
    if n < 1:
        raise ValueError("robot count must be at least 1")
    if n > MAX_ENUMERATION_SIZE:
        raise ValueError(f"robot count above practical bound {MAX_ENUMERATION_SIZE}")
    level: set[Configuration] = {frozenset({(0, 0)})}
    for _ in range(n - 1):
        grown: set[Configuration] = set()
        for cfg in level:
            for cell in cfg:
                for nb in neighbors(cell):
                    if nb not in cfg:
                        grown.add(canonicalize(cfg | {nb}))
        level = grown
    return sorted(level, key=sorted)


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
