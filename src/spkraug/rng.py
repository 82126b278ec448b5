"""Named, versioned random generators.

The subset draw, the verification trials and the t-SNE initialisation each
get a generator derived from a user seed plus a purpose string, so each step
is independently reproducible and adding a new consumer never shifts another
one's stream. `metrics.eer_loss` draws from the trial stream on purpose, to
get the same trials as `pairs`; `spectral.griffin_lim` seeds
`np.random.default_rng(seed)` directly for its initial phases.
"""

import hashlib

import numpy as np

_VERSION = "spkraug.rng.v1"


def rng_for(seed: int, purpose: str) -> np.random.Generator:
    """Derive a deterministic generator for (seed, purpose)."""
    digest = hashlib.sha256(f"{_VERSION}|{seed}|{purpose}".encode("utf-8")).digest()
    return np.random.default_rng(int.from_bytes(digest[:8], "little"))
