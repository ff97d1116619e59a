"""Deterministic random streams.

A :class:`RandomStream` names one reproducible stream of randomness by a
``(seed, substream)`` pair. Streams with the same pair yield bit-identical
draws; streams differing in either coordinate are statistically independent.
Composite samplers assign each independent source its own substream, so a
sampler's output is a pure function of its arguments and the stream. Work
split into blocks draws block b of a stream from ``block_generator(b)``.

Keys are numpy ``SeedSequence`` spawn keys: ``(substream,)`` for a stream
and ``(substream, block)`` for one of its blocks. numpy splits a key into
32-bit words, so the substream ``s + b * 2**32`` would alias block b of
substream s; substreams and blocks are therefore kept below ``2**32``,
and a one-word stream key never equals a two-word block key.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError

_UINT64_MAX = 2**64 - 1
_KEY_WORD = 2**32

DEFAULT_SEED = 1729


@dataclass(frozen=True)
class RandomStream:
    """Addressable source of reproducible randomness.

    seed
        Base seed, an integer in [0, 2**64).
    substream
        Index in [0, 2**32) selecting an independent stream under the seed.
    """

    seed: int
    substream: int = 0

    def __post_init__(self) -> None:
        if not isinstance(self.seed, (int, np.integer)):
            raise DomainError("seed must be an integer")
        if not 0 <= int(self.seed) <= _UINT64_MAX:
            raise DomainError("seed must lie in [0, 2**64)")
        if not isinstance(self.substream, (int, np.integer)) or not (
            0 <= self.substream < _KEY_WORD
        ):
            raise DomainError("substream must be an integer in [0, 2**32)")

    def generator(self) -> np.random.Generator:
        """Fresh PCG64 generator for this (seed, substream) pair."""
        return self._generator((int(self.substream),))

    def block_generator(self, block: int) -> np.random.Generator:
        """Fresh PCG64 generator for block ``block`` of this stream.

        Independent of the stream's own generator and of every other block.
        """
        if not isinstance(block, (int, np.integer)) or not 0 <= block < _KEY_WORD:
            raise DomainError("block must be an integer in [0, 2**32)")
        return self._generator((int(self.substream), int(block)))

    def _generator(self, spawn_key: tuple[int, ...]) -> np.random.Generator:
        ss = np.random.SeedSequence(int(self.seed), spawn_key=spawn_key)
        return np.random.Generator(np.random.PCG64(ss))

    def shifted(self, offset: int) -> "RandomStream":
        """Stream at ``substream + offset`` under the same seed."""
        if offset < 0:
            raise DomainError("offset must be nonnegative")
        return RandomStream(self.seed, self.substream + int(offset))
