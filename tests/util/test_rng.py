"""Tests for the SplitMix64 PRNG."""

from __future__ import annotations

from itertools import cycle

import pytest
from hypothesis import given, settings, strategies as st

from repro._util.rng import _LANES, SplitMix64
from repro.runtime.scheduler import RandomScheduler, StickyScheduler
from repro.runtime.thread import SimThread

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _scalar_mix(z: int) -> int:
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK64
    return z ^ (z >> 31)


class ScalarSplitMix64:
    """The reference: SplitMix64 one output at a time, the state
    advanced and mixed per draw, as the generator computed it before
    it made its outputs in blocks.  Same methods, same results."""

    def __init__(self, seed: int) -> None:
        self.state = seed & _MASK64
        self.draws = 0

    def next_u64(self) -> int:
        self.state = (self.state + _GOLDEN) & _MASK64
        self.draws += 1
        return _scalar_mix(self.state)

    def randrange(self, n: int) -> int:
        if n <= 0:
            raise ValueError(f"randrange needs n > 0, got {n}")
        limit = _MASK64 - (_MASK64 % n)
        while True:
            value = self.next_u64()
            if value < limit:
                return value % n

    def random(self) -> float:
        return (self.next_u64() >> 11) * (1.0 / (1 << 53))

    def choice(self, seq):
        if not len(seq):
            raise IndexError("choice from empty sequence")
        return seq[self.randrange(len(seq))]

    def shuffle(self, seq: list) -> None:
        for i in range(len(seq) - 1, 0, -1):
            j = self.randrange(i + 1)
            seq[i], seq[j] = seq[j], seq[i]

    def split(self) -> "ScalarSplitMix64":
        return ScalarSplitMix64(self.next_u64())

    def fork(self, label: str) -> "ScalarSplitMix64":
        h = self.state
        for ch in label:
            h = (h * 1099511628211 ^ ord(ch)) & _MASK64
        return ScalarSplitMix64(_scalar_mix(h))

    def __repr__(self) -> str:
        return f"SplitMix64(state={self.state:#x})"


class TestDeterminism:
    def test_same_seed_same_sequence(self):
        a = SplitMix64(12345)
        b = SplitMix64(12345)
        assert [a.next_u64() for _ in range(100)] == [b.next_u64() for _ in range(100)]

    def test_different_seeds_differ(self):
        a = SplitMix64(1)
        b = SplitMix64(2)
        assert [a.next_u64() for _ in range(10)] != [b.next_u64() for _ in range(10)]

    def test_known_reference_value(self):
        # The published SplitMix64 outputs (the reference C code's test
        # vectors), pinned so any drift of the stream is caught.
        assert SplitMix64(0).next_u64() == 0xE220A8397B1DCDAF
        rng = SplitMix64(1234567)
        assert [rng.next_u64() for _ in range(5)] == [
            6457827717110365317,
            3203168211198807973,
            9817491932198370423,
            4593380528125082431,
            16408922859458223821,
        ]


class TestDistributionContracts:
    def test_randrange_bounds(self):
        rng = SplitMix64(7)
        for _ in range(1000):
            assert 0 <= rng.randrange(13) < 13

    def test_randrange_rejects_nonpositive(self):
        rng = SplitMix64(7)
        with pytest.raises(ValueError):
            rng.randrange(0)
        with pytest.raises(ValueError):
            rng.randrange(-5)

    def test_random_unit_interval(self):
        rng = SplitMix64(99)
        values = [rng.random() for _ in range(1000)]
        assert all(0.0 <= v < 1.0 for v in values)
        # Crude uniformity check: the mean of 1000 uniforms is near 0.5.
        assert 0.4 < sum(values) / len(values) < 0.6

    def test_choice_covers_all_elements(self):
        rng = SplitMix64(3)
        seen = {rng.choice("abcd") for _ in range(200)}
        assert seen == {"a", "b", "c", "d"}

    def test_choice_empty_raises(self):
        with pytest.raises(IndexError):
            SplitMix64(0).choice([])

    def test_shuffle_is_permutation(self):
        rng = SplitMix64(5)
        items = list(range(50))
        shuffled = list(items)
        rng.shuffle(shuffled)
        assert sorted(shuffled) == items
        assert shuffled != items  # astronomically unlikely to be identity


class TestSplitting:
    def test_split_children_are_independent(self):
        parent = SplitMix64(42)
        child1 = parent.split()
        child2 = parent.split()
        assert [child1.next_u64() for _ in range(5)] != [
            child2.next_u64() for _ in range(5)
        ]

    def test_fork_does_not_consume_parent_state(self):
        a = SplitMix64(42)
        b = SplitMix64(42)
        a.fork("scheduler")
        a.fork("workload")
        # Forking by label must not advance the parent stream.
        assert a.next_u64() == b.next_u64()

    def test_fork_same_label_same_stream(self):
        a = SplitMix64(42).fork("x")
        b = SplitMix64(42).fork("x")
        assert [a.next_u64() for _ in range(5)] == [b.next_u64() for _ in range(5)]

    def test_fork_different_labels_differ(self):
        a = SplitMix64(42).fork("x")
        b = SplitMix64(42).fork("y")
        assert [a.next_u64() for _ in range(5)] != [b.next_u64() for _ in range(5)]


@given(st.integers(min_value=0, max_value=(1 << 64) - 1), st.integers(1, 10_000))
def test_randrange_always_in_bounds(seed, n):
    rng = SplitMix64(seed)
    for _ in range(20):
        assert 0 <= rng.randrange(n) < n


@given(st.integers(min_value=0, max_value=(1 << 64) - 1))
def test_outputs_are_64_bit(seed):
    rng = SplitMix64(seed)
    for _ in range(20):
        assert 0 <= rng.next_u64() < (1 << 64)


class _Indices:
    """A sequence of ``n`` elements whose element ``i`` is ``i`` — so
    ``choice`` can be drawn from sequences as long as ``len`` allows."""

    def __init__(self, n: int) -> None:
        self.n = n

    def __len__(self) -> int:
        return self.n

    def __getitem__(self, i: int) -> int:
        return i


#: ``n = 1``; small ``n``; ``n`` in ``(2**62, 2**63)``, where up to a
#: third of the draws are rejected; and ``n`` near ``2**63``.
_SIZES = st.one_of(
    st.just(1),
    st.integers(1, 1000),
    st.integers((1 << 62) + 1, (1 << 63) - 1),
    st.integers((1 << 63) - 1000, (1 << 63) + 1000),
)


@given(st.integers(min_value=0, max_value=(1 << 64) - 1), _SIZES)
def test_randrange_and_choice_draw_the_reference_sequence(seed, n):
    fast, ref = SplitMix64(seed), ScalarSplitMix64(seed)
    seq = _Indices(n) if n < (1 << 63) else None
    for _ in range(8):
        assert fast.randrange(n) == ref.randrange(n)
        if seq is not None:
            assert fast.choice(seq) == ref.randrange(n)
    # Rejected draws advance the state too.
    assert fast.next_u64() == ref.next_u64()


_SEEDS = st.integers(min_value=0, max_value=(1 << 64) - 1)

#: ``(operation, argument)``; each draws as its scalar twin must.
_OPERATIONS = st.one_of(
    st.tuples(st.just("next_u64"), st.none()),
    st.tuples(st.sampled_from(["choice", "randrange"]), _SIZES),
    st.tuples(st.just("random"), st.none()),
    st.tuples(st.just("shuffle"), st.integers(0, 24)),
    st.tuples(st.just("split"), st.none()),
    st.tuples(st.just("fork"), st.text(max_size=6)),
)


def _apply(rng, operation: str, arg):
    """What ``operation`` returns on ``rng``, in a form two generators'
    results compare by: children by their repr and first outputs."""
    if operation == "choice":
        return rng.choice(_Indices(arg)) if arg < (1 << 63) else rng.randrange(arg)
    if operation == "randrange":
        return rng.randrange(arg)
    if operation == "shuffle":
        items = list(range(arg))
        rng.shuffle(items)
        return items
    if operation in ("split", "fork"):
        child = rng.split() if operation == "split" else rng.fork(arg)
        return repr(child), child.next_u64(), child.next_u64()
    return getattr(rng, operation)()


@settings(deadline=None)
@given(
    _SEEDS,
    st.lists(st.tuples(_OPERATIONS, st.integers(1, 64)), min_size=1, max_size=8),
)
def test_block_stream_is_the_scalar_stream(seed, program):
    """Any interleaving of every method, running over more than two
    blocks, gives what the scalar reference gives, and ``repr`` (the
    state ``fork`` hashes) agrees at every step."""
    fast, ref = SplitMix64(seed), ScalarSplitMix64(seed)
    # The trailing draws make every pass over the program advance.
    program = [*program, (("next_u64", None), 16)]
    steps = cycle(program)
    while ref.draws <= 2 * _LANES:
        (operation, arg), repeat = next(steps)
        # A child makes a whole block at its first draw: one per entry.
        for _ in range(1 if operation in ("split", "fork") else repeat):
            assert _apply(fast, operation, arg) == _apply(ref, operation, arg)
            assert repr(fast) == repr(ref)


def _threads(n):
    return tuple(
        SimThread(tid=i, name=f"t{i}", target=None, args=(), parent_tid=None)
        for i in range(n)
    )


@settings(deadline=None)
@given(
    _SEEDS,
    st.lists(st.integers(1, 12), min_size=1, max_size=20),
    st.floats(0.0, 1.0),
)
def test_scheduler_decisions_match_the_scalar_reference(seed, sizes, switch_prob):
    """The schedulers' decision logs over a sequence of runnable-set
    sizes, each drawn through the block generator, equal the logs the
    same schedulers draw through the scalar reference."""
    threads = _threads(12)
    for make in (
        lambda: RandomScheduler(seed),
        lambda: StickyScheduler(seed, switch_prob),
    ):
        fast, ref = make(), make()
        ref._rng = ScalarSplitMix64(seed)
        # ``current`` is the last pick, runnable or not.
        fast_current = ref_current = None
        for _, size in zip(range(2 * _LANES + 40), cycle(sizes)):
            runnable = threads[:size]
            fast_current = fast.pick(runnable, fast_current)
            ref_current = ref.pick(runnable, ref_current)
        assert fast.record() == ref.record()
