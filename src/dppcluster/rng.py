"""Deterministic, independently-addressable random streams."""

from __future__ import annotations

import numpy as np
import numpy.random  # numpy loads it lazily; every run draws from it

from .errors import ConfigError


class RngStream:
    """One reproducible random stream addressed by (seed, stream_id).

    Streams with distinct ids are statistically independent, and the draw
    sequence of a given (seed, stream_id) never depends on which other
    streams exist or run concurrently.  ``stream_id`` may be an int or a
    tuple of ints for nested derivation, e.g. (scenario, replica).  The
    seed and every id must be nonnegative.
    """

    __slots__ = ("seed", "stream_id", "_generator")

    def __init__(self, seed: int, stream_id: int | tuple[int, ...] = 0):
        self.seed = int(seed)
        ids = stream_id if isinstance(stream_id, (tuple, list)) else (stream_id,)
        self.stream_id = tuple(int(v) for v in ids)
        if self.seed < 0 or min(self.stream_id, default=0) < 0:
            raise ConfigError(f"seed {self.seed} and stream id {self.stream_id} must be >= 0")
        self._generator: np.random.Generator | None = None

    @property
    def generator(self) -> np.random.Generator:
        if self._generator is None:
            seq = np.random.SeedSequence(self.seed, spawn_key=self.stream_id)
            self._generator = np.random.default_rng(seq)
        return self._generator

    def __repr__(self) -> str:  # pragma: no cover
        return f"RngStream(seed={self.seed}, stream_id={self.stream_id})"


def as_generator(rng) -> np.random.Generator:
    """Accept an RngStream, a numpy Generator, a seed, or None."""
    if isinstance(rng, RngStream):
        return rng.generator
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.default_rng(rng)
