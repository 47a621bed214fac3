"""Deterministic seed derivation.

Every stochastic routine in the package takes either an integer master
seed or a ready ``numpy.random.Generator``; `as_rng` and `master_seed`
turn either into a generator or a seed and reject anything else.
Parallel work units (theta draws, sweep and verify cells) derive their
own child seed from the master seed plus a tuple of keys, so results
never depend on scheduling order or thread count.
"""

from __future__ import annotations

import zlib

import numpy as np


def _key_to_int(key) -> int:
    if isinstance(key, (int, np.integer)):
        return int(key) & 0xFFFFFFFF
    if isinstance(key, str):
        return zlib.crc32(key.encode("utf-8"))
    raise TypeError(f"unsupported seed key type: {type(key)!r}")


def derive_seed_sequence(master_seed: int, *keys) -> np.random.SeedSequence:
    """Child seed sequence for work unit identified by ``keys``."""
    entropy = [int(master_seed) & 0xFFFFFFFFFFFFFFFF]
    entropy.extend(_key_to_int(k) for k in keys)
    return np.random.SeedSequence(entropy)


def make_rng(master_seed: int, *keys) -> np.random.Generator:
    """PCG64 generator seeded from (master seed, *keys)."""
    return np.random.default_rng(derive_seed_sequence(master_seed, *keys))


def master_seed(rng) -> int:
    """An int seed as is; a Generator yields a fresh 62-bit seed drawn from it."""
    if isinstance(rng, np.random.Generator):
        return int(rng.integers(1 << 62))
    if isinstance(rng, (int, np.integer)):
        return int(rng)
    raise TypeError(f"expected int seed or numpy Generator, got {type(rng)!r}")


def as_rng(rng, *keys) -> np.random.Generator:
    """Generator for the work unit ``keys`` of an int seed or a Generator.

    An int seed gives ``make_rng(seed, *keys)``, so units are independent
    of call order; a Generator is returned as is and consumed sequentially.
    """
    if isinstance(rng, np.random.Generator):
        return rng
    return make_rng(master_seed(rng), *keys)
