"""A tiny, dependency-free, splittable PRNG.

The schedulers and workload generators must be *deterministic given a
seed* and *independent of each other*: drawing an extra random number in
the workload generator must not perturb the scheduler's choices.  Python's
``random.Random`` would work, but a hand-rolled SplitMix64 keeps the state
tiny (one integer), makes splitting explicit and cheap, and guarantees
identical sequences across Python versions (``random.Random`` only
promises stability for ``random()`` itself).

SplitMix64 is the mixing function from Steele, Lea & Flood, "Fast
Splittable Pseudorandom Number Generators" (OOPSLA 2014); it passes
BigCrush and is the standard seeder for xoshiro generators.
"""

from __future__ import annotations

__all__ = ["SplitMix64"]

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _mix(z: int) -> int:
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK64
    return z ^ (z >> 31)


class SplitMix64:
    """Deterministic 64-bit PRNG with O(1) state and explicit splitting."""

    __slots__ = ("_state",)

    def __init__(self, seed: int) -> None:
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        """Return the next raw 64-bit output."""
        self._state = (self._state + _GOLDEN) & _MASK64
        return _mix(self._state)

    def randrange(self, n: int) -> int:
        """Uniform integer in ``[0, n)``; ``n`` must be positive.

        Uses rejection sampling to avoid modulo bias (the bias would be
        negligible for small ``n``, but determinism tests compare exact
        sequences, so we keep the sampling principled).
        """
        if n <= 0:
            raise ValueError(f"randrange needs n > 0, got {n}")
        limit = _MASK64 - (_MASK64 % n)
        while True:
            value = self.next_u64()
            if value < limit:
                return value % n

    def random(self) -> float:
        """Uniform float in ``[0, 1)`` with 53 bits of entropy."""
        return (self.next_u64() >> 11) * (1.0 / (1 << 53))

    def choice(self, seq):
        """Uniform choice from a non-empty sequence.

        Draws as ``seq[self.randrange(len(seq))]`` would, with the draw
        written out: the schedulers make one choice per trap.
        """
        n = len(seq)
        if not n:
            raise IndexError("choice from empty sequence")
        limit = _MASK64 - (_MASK64 % n)
        state = self._state
        while True:
            state = (state + _GOLDEN) & _MASK64
            value = _mix(state)
            if value < limit:
                self._state = state
                return seq[value % n]

    def shuffle(self, seq: list) -> None:
        """In-place Fisher-Yates shuffle."""
        for i in range(len(seq) - 1, 0, -1):
            j = self.randrange(i + 1)
            seq[i], seq[j] = seq[j], seq[i]

    def split(self) -> "SplitMix64":
        """Return an independent child generator.

        The child is seeded from this generator's stream, so two splits
        from the same state yield different children, and consuming the
        child never advances the parent beyond the single split draw.
        """
        return SplitMix64(self.next_u64())

    def fork(self, label: str) -> "SplitMix64":
        """Return a child generator derived from a *label*, not the stream.

        Unlike :meth:`split`, forking does not consume parent state, so
        components seeded by label are insulated from each other: adding a
        new consumer cannot shift the sequences of existing ones.
        """
        h = self._state
        for ch in label:
            h = (h * 1099511628211 ^ ord(ch)) & _MASK64
        return SplitMix64(_mix(h))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SplitMix64(state={self._state:#x})"
