"""The shape graph: every connected n-robot shape on packed keys, and one step.

A shape is the sorted tuple of its robots' keys (see ``config.KEY_STRIDE``),
smallest key 0, as :func:`config.enumerate_keys` lists them.  Robot i of a
shape is its i-th smallest node, so per-robot lists here align with
``sorted()`` of the unpacked configuration and with ``TraceStep.decisions``.
Shapes are unpacked to coordinates only where a caller needs them.
"""

from __future__ import annotations

from . import config as configs
from . import engine
from .grid import DIRECTIONS

# Key offsets between two nodes of an enumerated shape lie in [-_REACH, _REACH].
_REACH = configs.MAX_ENUMERATION_SIZE * configs.KEY_STRIDE


def _bit_table(probes: tuple) -> list[int]:
    """The view mask bit of each key offset d, at index d + _REACH."""
    table = [0] * (2 * _REACH + 1)
    for da, db, bit in probes:
        table[configs.key_of((da, db)) + _REACH] = bit
    return table


# One table per visibility range.  The bits are engine.observe's, so a mask
# here is the mask of the View it observes.
_OFFSET_BITS: dict[int, list[int]] = {v: _bit_table(p) for v, p in engine.PROBES.items()}
# The key offset of each move.
_DELTA: dict[engine.Move, int] = {None: 0} | dict(zip(DIRECTIONS, configs.NEIGHBOR_DELTAS))

# Where one cycle of a shape leads: the Outcome that ends a run there, a
# disconnected successor in the shape's frame, or a connected successor as
# (index, da, db): shape index translated by (da, db).
Edge = engine.Outcome | configs.Configuration | tuple[int, int, int]


class ShapeGraph:
    """The connected n-robot shapes: packed, indexed, observed and stepped."""

    def __init__(self, n: int) -> None:
        self.keys = configs.enumerate_keys(n)
        self.index = {keys: idx for idx, keys in enumerate(self.keys)}

    def __len__(self) -> int:
        return len(self.keys)

    def shape(self, idx: int) -> configs.Configuration:
        """Shape ``idx`` as a configuration, the one ``enumerate_connected`` lists."""
        return configs.unpack(self.keys[idx])

    def masks(self, idx: int, visibility: int) -> list[int]:
        """Each robot's view mask, read off the key offsets within the shape."""
        bits = _OFFSET_BITS[visibility]
        keys = self.keys[idx]
        masks = []
        for key in keys:
            at = _REACH - key
            mask = 0
            for other in keys:
                mask |= bits[at + other]
            masks.append(mask)
        return masks

    def step(self, idx: int, moves: tuple[engine.Move, ...]) -> Edge:
        """Move every robot of shape ``idx`` at once; ``moves`` is in robot order.

        The move is collision-free exactly when all targets are distinct and
        no two robots swap.  An all-stay or colliding step goes to
        :func:`engine.settle`, which classifies and reports it.
        """
        keys = self.keys[idx]
        targets = [key + _DELTA[m] for key, m in zip(keys, moves)]
        moved = {key: t for key, t in zip(keys, targets) if key != t}
        if (
            not moved
            or len(set(targets)) < len(targets)
            or any(moved.get(t) == key for key, t in moved.items())
        ):
            cfg = self.shape(idx)
            outcome = engine.settle(cfg, dict(zip(sorted(cfg), moves)))
            assert isinstance(outcome, engine.Outcome), "a clash must collide"
            return outcome
        low = min(targets)
        nxt = self.index.get(tuple(sorted([t - low for t in targets])))
        if nxt is None:
            # All n robots remain, so a successor outside the index is disconnected.
            return configs.unpack(targets)
        return (nxt, *configs.node_of(low))
