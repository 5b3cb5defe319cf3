"""A tiny, dependency-free, splittable PRNG.

The schedulers and workload generators must be *deterministic given a
seed* and *independent of each other*: drawing an extra random number in
the workload generator must not perturb the scheduler's choices.  Python's
``random.Random`` would work, but a hand-rolled SplitMix64 keeps the state
small (one integer, plus a block of outputs made from it), makes
splitting explicit and cheap, and guarantees identical sequences across
Python versions (``random.Random`` only promises stability for
``random()`` itself).

SplitMix64 is the mixing function from Steele, Lea & Flood, "Fast
Splittable Pseudorandom Number Generators" (OOPSLA 2014); it passes
BigCrush and is the standard seeder for xoshiro generators.

Outputs are made a block of :data:`_LANES` at a time.  Output ``k`` of a
seed is ``_mix(seed + k * golden mod 2**64)``, so a block needs no output
before it: :func:`_block` packs its states into one Python int, each in
the low half of a 128-bit lane, and mixes every lane at once.  A 64 x
64-bit product fits in its lane, so the lanes never carry into each
other, and a lane mask after each shift and multiply drops what spilled
into the lanes' high halves.  One ``to_bytes`` and one ``struct`` unpack
then read the values out.  That is one big-int operation per step for
the whole block, where the scalar :func:`_mix` pays the same steps per
value.  The stream is the scalar stream bit for bit.
"""

from __future__ import annotations

import struct

__all__ = ["SplitMix64"]

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

#: Outputs made per block.
_LANES = 256
#: ``_LANES`` steps of the state.
_BLOCK_STEP = _LANES * _GOLDEN & _MASK64
#: A block's lanes read out: the low 8 bytes of each 16-byte lane.
_UNPACK = struct.Struct("<" + "Q8x" * _LANES)
#: The low 64 bits of every lane.
_LANE_MASK = int.from_bytes((b"\xff" * 8 + b"\x00" * 8) * _LANES, "little")
#: 1 in every lane: ``x * _ONES`` holds ``x`` in every lane.
_ONES = int.from_bytes((b"\x01" + b"\x00" * 15) * _LANES, "little")
#: ``k * golden`` in lane ``k - 1``, for ``k`` in ``1.._LANES``.
_STEPS = int.from_bytes(
    _UNPACK.pack(*[k * _GOLDEN & _MASK64 for k in range(1, _LANES + 1)]), "little"
)
#: For ``n <= _SMALL_N``, every value below ``_SMALL_N_SAFE`` is below the
#: rejection limit ``_MASK64 - _MASK64 % n``, which is then left uncomputed.
_SMALL_N = 1 << 32
_SMALL_N_SAFE = (1 << 64) - (1 << 32)


def _mix(z: int) -> int:
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK64
    return z ^ (z >> 31)


def _block(base: int) -> tuple[int, ...]:
    """``_mix(base + k * golden)`` for ``k`` in ``1.._LANES``: the next
    block of outputs after state ``base``, :func:`_mix` done in every
    lane at once."""
    z = (base * _ONES + _STEPS) & _LANE_MASK
    z = (z ^ (z >> 30)) & _LANE_MASK
    z = z * 0xBF58476D1CE4E5B9 & _LANE_MASK
    z = (z ^ (z >> 27)) & _LANE_MASK
    z = z * 0x94D049BB133111EB & _LANE_MASK
    # The last shift spills only into the lanes' high halves, which the
    # unpack skips.
    return _UNPACK.unpack((z ^ (z >> 31)).to_bytes(16 * _LANES, "little"))


class SplitMix64:
    """Deterministic 64-bit PRNG with O(1) state and explicit splitting.

    The scalar state is ``_base + _pos * golden``: ``_values`` holds the
    block made after state ``_base``, of which ``_pos`` are consumed.
    """

    __slots__ = ("_base", "_pos", "_values")

    def __init__(self, seed: int) -> None:
        # As if a whole block ending at the seed had been consumed: the
        # first draw makes the seed's first block.
        self._base = (seed - _BLOCK_STEP) & _MASK64
        self._pos = _LANES
        self._values: tuple[int, ...] = ()

    @property
    def _state(self) -> int:
        """The scalar SplitMix64 state: the last output was ``_mix`` of it."""
        return (self._base + self._pos * _GOLDEN) & _MASK64

    def _refill(self) -> None:
        """Make the next block, with none of it consumed."""
        self._base = base = (self._base + _BLOCK_STEP) & _MASK64
        self._values = _block(base)
        self._pos = 0

    def next_u64(self) -> int:
        """Return the next raw 64-bit output."""
        pos = self._pos
        if pos == _LANES:
            self._refill()
            pos = 0
        self._pos = pos + 1
        return self._values[pos]

    def randrange(self, n: int) -> int:
        """Uniform integer in ``[0, n)``; ``n`` must be positive.

        Uses rejection sampling to avoid modulo bias (the bias would be
        negligible for small ``n``, but determinism tests compare exact
        sequences, so we keep the sampling principled).
        """
        if n <= 0:
            raise ValueError(f"randrange needs n > 0, got {n}")
        value = self.next_u64()
        if n > _SMALL_N or value >= _SMALL_N_SAFE:
            limit = _MASK64 - (_MASK64 % n)
            while value >= limit:
                value = self.next_u64()
        return value % n

    def random(self) -> float:
        """Uniform float in ``[0, 1)`` with 53 bits of entropy."""
        return (self.next_u64() >> 11) * (1.0 / (1 << 53))

    def choice(self, seq):
        """Uniform choice from a non-empty sequence.

        Draws as ``seq[self.randrange(len(seq))]`` would, with the first
        draw written out: the schedulers make one choice per trap.
        """
        n = len(seq)
        if not n:
            raise IndexError("choice from empty sequence")
        pos = self._pos
        if pos == _LANES:
            self._refill()
            pos = 0
        self._pos = pos + 1
        value = self._values[pos]
        if n > _SMALL_N or value >= _SMALL_N_SAFE:
            limit = _MASK64 - (_MASK64 % n)
            while value >= limit:
                value = self.next_u64()
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
