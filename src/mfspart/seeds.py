"""Deterministic sub-seed derivation and the assignment jitter's stream.

All randomness in the pipeline flows from one master seed; component seeds
are expanded with a splitmix64 chain so they stay stable across versions
and are independent of each other.

The assignment's heat jitter is a PCG64 stream seeded through a
SeedSequence, equal value for value to numpy's
`np.random.default_rng(seed).uniform(low, high, n)` (O'Neill, "PCG",
HMC-CS-2014-0905).  It is written here with Python ints, so partitioning
never imports `numpy.random`, and pinned here, so placements do not
depend on which numpy is installed: numpy lets a `Generator` method's
stream change between releases (NEP 19).
"""

from __future__ import annotations

_MASK = (1 << 64) - 1
_M32 = (1 << 32) - 1
_M128 = (1 << 128) - 1
_PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341

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


def _seed_sequence_state(entropy: int) -> tuple[int, int]:
    """A SeedSequence's first four 64-bit words, as PCG64 reads them:
    (initial state, stream)."""
    if entropy < 0:
        raise ValueError(f"seed must be a non-negative integer, got {entropy}")
    words = [entropy & _M32]  # little-endian 32-bit words
    while entropy := entropy >> 32:
        words.append(entropy & _M32)
    const = 0x43B0D7E5

    def hashmix(value: int) -> int:
        nonlocal const
        value ^= const
        const = const * 0x931E8875 & _M32
        value = value * const & _M32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        r = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
        return r ^ r >> 16

    # mix the entropy into a pool of four words (SeedSequence.mix_entropy)
    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for w in words[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(w))
    # generate_state(4, uint64): eight words, paired low word first
    const = 0x8B51F9DD
    out = []
    for i in range(8):
        value = pool[i % 4] ^ const
        const = const * 0x58F38DED & _M32
        value = value * const & _M32
        out.append(value ^ value >> 16)
    s0, s1, i0, i1 = (out[j] | out[j + 1] << 32 for j in range(0, 8, 2))
    return s0 << 64 | s1, i0 << 64 | i1


def pcg64_uniform(seed: int, low: float, high: float, n: int) -> list[float]:
    """`np.random.default_rng(seed).uniform(low, high, n).tolist()`."""
    init, stream = _seed_sequence_state(seed)
    inc = (stream << 1 | 1) & _M128
    state = ((inc + init) * _PCG_MULT + inc) & _M128  # step from 0, add, step
    span = high - low
    out = []
    for _ in range(n):
        state = (state * _PCG_MULT + inc) & _M128
        x = (state >> 64 ^ state) & _MASK  # XSL-RR
        rot = state >> 122
        x = (x >> rot | x << (64 - rot)) & _MASK
        out.append(low + span * ((x >> 11) * 2.0**-53))
    return out
