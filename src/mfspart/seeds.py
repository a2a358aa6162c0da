"""Deterministic sub-seed derivation.

All randomness in the pipeline flows from one master seed; component seeds
are expanded with a splitmix64 chain so they stay stable across versions
and are independent of each other.
"""

from __future__ import annotations

_MASK = (1 << 64) - 1

# Component tags (documented part of the seeding scheme).
TAG_COARSEN = 1
TAG_ASSIGN = 2
TAG_GEN = 3


def splitmix64(x: int) -> int:
    z = (x + 0x9E3779B97F4A7C15) & _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def sub_seed(master: int, *tags: int) -> int:
    """Derive a component seed from the master seed and integer tags."""
    s = master & _MASK
    for t in tags:
        s = splitmix64(splitmix64(s) ^ (t & _MASK))
    return s
