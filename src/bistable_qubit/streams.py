"""Deterministic counter-based random substreams.

A single 64-bit root seed fans out to independent substreams keyed by an
arbitrary path of labels (experiment name, replica index, shot index, ...).
Substreams are backed by the Philox counter-based bit generator, so every
stream is reproducible on its own, independent of how many draws any other
stream has consumed.
"""

from __future__ import annotations

import hashlib

import numpy as np
from numpy.random import Generator, Philox, SeedSequence  # loaded with the package, not at the first draw

_MASK64 = (1 << 64) - 1


def _label_entropy(label) -> int:
    """Map an int or string label to a stable 64-bit entropy word."""
    if isinstance(label, (int, np.integer)):
        return int(label) & _MASK64
    digest = hashlib.blake2s(str(label).encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little")


def substream(root_seed: int, *path) -> Generator:
    """Return the generator for the substream identified by ``path``.

    The same (root_seed, path) always yields the same stream; distinct paths
    yield statistically independent streams.
    """
    entropy = [int(root_seed) & _MASK64] + [_label_entropy(p) for p in path]
    return Generator(Philox(SeedSequence(entropy)))
