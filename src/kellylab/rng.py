"""Deterministic random-number streams.

Every stochastic component draws from a counter-based Philox generator keyed
by (master seed, stream index). Episode k of a run seeded with m always sees
the stream (m, k) regardless of how many episodes ran before it, which is
what makes paired comparisons (common random numbers across policies) and
byte-identical reruns possible.
"""

import numpy as np

from .errors import ConfigError

# reserved stream indices for non-episode consumers; episode indices start at 0
NET_INIT_STREAM = -1
ACTION_STREAM = -2
UPDATE_STREAM = -3
HMM_STREAM = -4


def check_seed(seed: int, path: str):
    """Reject a master seed outside [0, 2**32): stream() keys on its low 32
    bits, so seed 2**32 would replay seed 0 under another label."""
    if not 0 <= seed < 2**32:
        raise ConfigError(f"seed {seed} is outside [0, 2**32)", path=path)


def stream(master_seed: int, index: int) -> np.random.Generator:
    """Return the Philox generator for (master_seed, index).

    Negative indices are reserved for non-episode streams (net init, action
    sampling, minibatch shuffling); episode streams use the episode number.
    """
    # SeedSequence requires non-negative entropy words
    key = (int(master_seed) & 0xFFFFFFFF, int(index) & 0xFFFFFFFF)
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(key)))


def episode_stream(master_seed: int, episode: int) -> np.random.Generator:
    if episode < 0:
        raise ValueError(f"episode index must be >= 0, got {episode}")
    return stream(master_seed, episode)
