"""Deterministic random-stream derivation.

Every stochastic stage (deployment, phase draw, statistics draws, evaluation
draws) pulls its generator from a key derived off one base seed. Streams are
identified by integer key paths, never by call order, so results do not depend
on how work is scheduled across workers.
"""

from __future__ import annotations

import numpy as np

# Role tags of the top-level substreams of one setup.
ROLE_DEPLOY = 0
ROLE_STATISTICS = 1
ROLE_EVALUATION = 2
ROLE_PHASES = 3


def substream(base: np.random.SeedSequence | int, *key: int) -> np.random.Generator:
    """Return the generator for a fixed key path under `base`.

    The same (base, key) always yields the same stream, independent of any
    other substream that was created before or after it.
    """
    return np.random.default_rng(subsequence(base, *key))


def as_seed_sequence(base: np.random.SeedSequence | int) -> np.random.SeedSequence:
    if isinstance(base, np.random.SeedSequence):
        return base
    return np.random.SeedSequence(int(base))


def subsequence(base: np.random.SeedSequence | int, *key: int) -> np.random.SeedSequence:
    """Child seed sequence for a fixed key path (for further derivation)."""
    seq = as_seed_sequence(base)
    return np.random.SeedSequence(
        entropy=seq.entropy, spawn_key=tuple(seq.spawn_key) + tuple(int(k) for k in key)
    )
