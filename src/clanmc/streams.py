"""Counter-based random streams for deterministic, shardable Monte Carlo.

A single 64-bit master seed plus a (purpose, index) pair is hashed into a
128-bit Philox key, so every substream is a pure function of what it is
for, never of which worker happens to draw from it.  Sharded runs therefore
reproduce bit for bit at any parallelism degree.
"""

from __future__ import annotations

import hashlib

import numpy as np

from .errors import ConfigurationError, _is_integer


class RngStream:
    """Derives independent numpy generators from (purpose, index) labels."""

    def __init__(self, master_seed: int):
        if not _is_integer(master_seed) or not 0 <= master_seed < 2**64:
            raise ConfigurationError(f"master seed must be a 64-bit unsigned integer, "
                                     f"got {master_seed!r}")
        self.master_seed = int(master_seed)
        self._key = self.master_seed.to_bytes(8, "little")

    def substream(self, purpose: str, index: int = 0) -> np.random.Generator:
        """Return a fresh generator for the given label.

        Equal (master seed, purpose, index) always yields a generator in the
        same initial state; distinct labels yield statistically independent
        streams.
        """
        if not isinstance(purpose, str):
            raise ConfigurationError(f"substream purpose must be a str, got {purpose!r}")
        if not _is_integer(index) or not 0 <= index < 2**64:
            raise ConfigurationError(f"substream index must be a 64-bit unsigned integer, "
                                     f"got {index!r}")
        try:
            label = purpose.encode("utf-8")
        except UnicodeEncodeError as exc:  # a lone surrogate
            raise ConfigurationError(f"substream purpose must be valid UTF-8 text, "
                                     f"got {purpose!r}") from exc
        msg = label + b"\x1f" + int(index).to_bytes(8, "little")
        digest = hashlib.blake2b(msg, digest_size=16, key=self._key).digest()
        return np.random.Generator(np.random.Philox(key=int.from_bytes(digest, "little")))

    def __repr__(self) -> str:
        return f"RngStream(master_seed={self.master_seed})"
