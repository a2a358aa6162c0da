"""The seeding scheme's streams: the assignment jitter is numpy's
`default_rng(seed).uniform` stream, written out in Python ints, and this
test is the reference that pins the copy to numpy's own generator."""

import random

import numpy as np
import pytest

from mfspart.seeds import TAG_ASSIGN, pcg64_uniform, sub_seed


def _jitter_seeds() -> list[int]:
    """Every assignment seed of master seeds 0-199 and searches 0-3, random
    64-bit seeds (two 32-bit entropy words) and 160-bit ones (five words,
    one more than the pool of four), and the word-boundary seeds."""
    rng = random.Random(2014)
    return (
        [sub_seed(m, TAG_ASSIGN, i) for m in range(200) for i in range(4)]
        + [rng.getrandbits(64) for _ in range(500)]
        + [rng.getrandbits(160) for _ in range(50)]
        + [0, 2**32 - 1, 2**32, 2**64 - 1]
    )


@pytest.mark.parametrize("n", [0, 1, 37])
def test_jitter_stream_equals_numpy_default_rng_uniform(n):
    for s in _jitter_seeds():
        expected = np.random.default_rng(s).uniform(0.9, 1.1, n).tolist()
        assert pcg64_uniform(s, 0.9, 1.1, n) == expected, s


def test_negative_seed_refused_as_numpy_does():
    with pytest.raises(ValueError):
        np.random.default_rng(-1)
    with pytest.raises(ValueError):
        pcg64_uniform(-1, 0.9, 1.1, 3)
