"""Deterministic random-number plumbing.

All stochastic pieces of the stack (initial perturbations, synthetic
workloads) draw from generators created here so runs are reproducible
bit-for-bit given a seed, independent of rank execution order.
"""

from __future__ import annotations

import numpy as np


def make_rng(seed: int) -> np.random.Generator:
    """Create the generator for `seed`.

    >>> float(make_rng(7).random()) == float(make_rng(7).random())
    True
    """
    if seed < 0:
        raise ValueError("seed must be non-negative")
    return np.random.default_rng(np.random.SeedSequence(entropy=seed))
