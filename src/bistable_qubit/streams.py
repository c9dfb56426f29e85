"""Deterministic counter-based random substreams, and block reads of one kind of draw.

A single 64-bit root seed fans out to independent substreams keyed by an
arbitrary path of labels (experiment name, replica index, shot index, ...).
Substreams are backed by the Philox counter-based bit generator, so every
stream is reproducible on its own, independent of how many draws any other
stream has consumed.

A stream that yields one kind of draw can be read in blocks with no change in
value: n ``random()`` calls equal ``random(n)``, and n ``exponential(scale)``
calls equal ``standard_exponential(n) * scale``, bit for bit.  ``Draws`` reads
such a stream through a buffer of ``BLOCK`` draws, or of a longer take.
"""

from __future__ import annotations

import hashlib

import numpy as np
from numpy.random import Generator, Philox, SeedSequence  # loaded with the package, not at the first draw

_MASK64 = (1 << 64) - 1
BLOCK = 2048  # the draws a Draws buffer holds, unless a take reads more


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


def words_drawn(generator: Generator) -> int:
    """64-bit words a Philox generator has produced, read from its state: no draw is made."""
    state = generator.bit_generator.state
    return 4 * int(state["state"]["counter"][0]) + state["buffer_pos"] - 4


class Draws:
    """The draws of one kind from ``generator``, read through a buffer of ``BLOCK`` draws.

    ``kind`` is ``"random"`` (uniforms) or ``"standard_exponential"``.  ``next``
    reads one draw as a Python float and ``take(n)`` reads the next n as an
    array, for any n (a longer take tops the buffer up to n).  ``taken`` counts
    the draws read, the ``taken`` draws of ``generator`` made before the buffer
    included.  ``random()`` and ``exponential(scale)`` are the Generator calls
    that ``bloch.measure`` and ``telegraph.next_switch`` make, served from a
    uniform and an exponential buffer respectively, with the values the
    generator's own calls would return.
    """

    def __init__(self, generator: Generator, kind: str, taken: int = 0):
        self._fill = getattr(generator, kind)
        self._block = np.empty(0)
        self._values: list[float] | None = None  # the block as Python floats, built at its first scalar read
        self._pos = 0
        self._filled = taken  # draws made from the generator, ``taken`` of them before this buffer

    @property
    def taken(self) -> int:
        return self._filled - self._block.size + self._pos

    def _refill(self, n: int) -> None:
        """Keep the unread draws and top the block up to ``max(n, BLOCK)`` from the generator."""
        fresh = self._fill(max(n, BLOCK) - self._block.size + self._pos)
        self._filled += fresh.size
        self._block = np.concatenate((self._block[self._pos:], fresh))
        self._values = None
        self._pos = 0

    def next(self) -> float:
        pos = self._pos
        if pos == self._block.size:
            self._refill(1)
            pos = 0
        if self._values is None:
            self._values = self._block.tolist()
        self._pos = pos + 1
        return self._values[pos]

    random = next

    def exponential(self, scale: float) -> float:
        return self.next() * scale

    def take(self, n: int) -> np.ndarray:
        if self._block.size - self._pos < n:
            self._refill(n)
        self._pos += n
        return self._block[self._pos - n:self._pos]
