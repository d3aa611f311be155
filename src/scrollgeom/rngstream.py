"""Counter-based deterministic randomness.

Every draw is a pure function of (key, counter) through SHA-256, so a
stream replays identically on any platform and is unaffected by draws
made from other streams.  Experiments derive one child stream per trial
(``child("trial3")``), which keeps per-trial results independent of trial
order and makes batched runs mergeable.
"""

from __future__ import annotations

import hashlib

_U64 = 2**64


class RngStream:
    __slots__ = ("key", "counter")

    def __init__(self, key: str):
        self.key = key
        self.counter = 0

    @classmethod
    def from_seed(cls, seed: int) -> "RngStream":
        return cls(f"seed={int(seed)}")

    def child(self, label: str) -> "RngStream":
        """Derive an independent stream; never shares draws with self."""
        return RngStream(f"{self.key}/{label}")

    def next_u64(self) -> int:
        digest = hashlib.sha256(f"{self.key}#{self.counter}".encode("ascii")).digest()
        self.counter += 1
        return int.from_bytes(digest[:8], "big")

    def below(self, bound: int) -> int:
        """Uniform integer in [0, bound), exact via rejection sampling.

        One 64-bit draw per attempt, so a bound above 2**64 raises
        ValueError: no draw could fall below its rejection limit.
        """
        if not 0 < bound <= _U64:
            raise ValueError(f"bound must be in [1, 2**64], got {bound}")
        limit = (_U64 // bound) * bound
        while True:
            v = self.next_u64()
            if v < limit:
                return v % bound

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi], both ends included."""
        if hi < lo:
            raise ValueError("empty range")
        return lo + self.below(hi - lo + 1)

    def choice(self, seq):
        return seq[self.below(len(seq))]


def as_stream(seed_or_stream) -> RngStream:
    """Accept either an integer seed or an existing stream."""
    if isinstance(seed_or_stream, RngStream):
        return seed_or_stream
    return RngStream.from_seed(seed_or_stream)
