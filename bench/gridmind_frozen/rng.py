"""Named random sub-streams derived from a single run seed.

Each stream is an independent numpy Generator keyed by (seed, label), so
adding draws to one stream never perturbs another. Per-step streams are
additionally keyed by the step index, which keeps scheduler decisions
aligned across runs that differ only in how often they fire.
"""

from __future__ import annotations

import numpy as np

# Stable stream ids; never reorder, CSV reproducibility depends on them.
STREAMS = {
    "world": 1,
    "exploration": 2,
    "wandering": 3,
    "observation": 4,
    "sweep": 5,
}


def substream(seed: int, label: str) -> np.random.Generator:
    return np.random.default_rng([int(seed), STREAMS[label]])


def per_step(seed: int, label: str, t: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), STREAMS[label], int(t)])
