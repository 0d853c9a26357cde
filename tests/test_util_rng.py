"""Tests for repro.util.rng — determinism and stream independence."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.util.rng import RngStream, derive_seed


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(42, "a", 1) == derive_seed(42, "a", 1)

    def test_label_sensitivity(self):
        assert derive_seed(42, "a", 1) != derive_seed(42, "a", 2)
        assert derive_seed(42, "a") != derive_seed(42, "b")

    def test_seed_sensitivity(self):
        assert derive_seed(1, "x") != derive_seed(2, "x")

    def test_is_63_bit_nonnegative(self):
        for s in range(20):
            v = derive_seed(s, "lbl")
            assert 0 <= v < 2**63

    @given(st.integers(min_value=0, max_value=2**31), st.text(max_size=20))
    def test_stable_across_calls(self, seed, label):
        assert derive_seed(seed, label) == derive_seed(seed, label)


class TestRngStream:
    def test_reproducible_sequence(self):
        a = RngStream(7, "core", 0)
        b = RngStream(7, "core", 0)
        assert [a.random() for _ in range(10)] == [b.random() for _ in range(10)]

    def test_distinct_labels_distinct_streams(self):
        a = RngStream(7, "core", 0)
        b = RngStream(7, "core", 1)
        assert [a.random() for _ in range(5)] != [b.random() for _ in range(5)]

    def test_child_derivation(self):
        parent = RngStream(7, "sys")
        c1 = parent.child("ctrl")
        c2 = RngStream(7, "sys", "ctrl")
        assert [c1.random() for _ in range(5)] == [c2.random() for _ in range(5)]

    def test_randint_range(self):
        rng = RngStream(1)
        vals = [rng.randint(3, 9) for _ in range(200)]
        assert all(3 <= v < 9 for v in vals)
        assert set(vals) == set(range(3, 9))  # all values reachable

    def test_geometric_positive(self):
        rng = RngStream(1)
        vals = [rng.geometric(0.3) for _ in range(500)]
        assert all(v >= 1 for v in vals)
        # mean of geometric(p) is 1/p
        assert 2.0 < np.mean(vals) < 5.0

    def test_geometric_clamps_bad_p(self):
        rng = RngStream(1)
        assert rng.geometric(5.0) == 1  # p clamped to 1
        assert rng.geometric(0.0) >= 1  # p clamped above 0

    def test_choice(self):
        rng = RngStream(1)
        seq = ["x", "y", "z"]
        assert all(rng.choice(seq) in seq for _ in range(20))

    def test_choice_index_weighted(self):
        rng = RngStream(1)
        # all weight on index 2
        assert all(rng.choice_index([0, 0, 5]) == 2 for _ in range(10))

    def test_choice_index_rejects_zero_weights(self):
        rng = RngStream(1)
        with pytest.raises(ValueError):
            rng.choice_index([0.0, 0.0])

    def test_shuffle_permutes(self):
        rng = RngStream(1)
        xs = list(range(30))
        ys = list(xs)
        rng.shuffle(ys)
        assert sorted(ys) == xs

    def test_uniform_floats_shape(self):
        rng = RngStream(1)
        arr = rng.uniform_floats(64)
        assert arr.shape == (64,)
        assert ((arr >= 0) & (arr < 1)).all()


class TestDrawEquivalence:
    """``RngStream`` draws equal a twin numpy ``Generator``'s, draw by draw.

    The twin is seeded the way ``RngStream`` seeds its own generator; a
    long random interleaving of ``random``, ``randint`` and ``geometric``
    — mixed with ``generator().integers`` calls, which share PCG64's
    buffered uint32 half with ``randint`` — must stay in lockstep.
    """

    #: integer spans: one value (no draw), small, Lemire's rejection-heavy
    #: 3·2**30 (threshold 2**30), the 32-bit edge 2**32 - 1 / 2**32, and
    #: 64-bit spans including the rejection-heavy 3·2**62 and the full 2**64
    SPANS = (1, 2, 3, 7, 1000, 4096, 1 << 24, 3 << 30, (1 << 32) - 1,
             1 << 32, (1 << 32) + 1, 1 << 40, 3 << 62, 1 << 64)
    #: geometric p: clamps (p <= 0, p > 1), inversion (p < 1/3) and
    #: search (p >= 1/3) on both sides of the switch
    PS = (0.0, -1.0, 1e-12, 1e-6, 0.01, 0.2, 1 / 3 - 1e-9, 1 / 3, 0.5,
          0.9, 1.0, 5.0, 1, 0)

    @staticmethod
    def _pair(seed, *labels):
        rng = RngStream(seed, *labels)
        return rng, np.random.default_rng(derive_seed(seed, *labels))

    @staticmethod
    def _low(span, choice):
        """A ``low`` that keeps ``[low, low + span)`` inside int64."""
        if span > 1 << 63:
            return -(1 << 63) + choice % (2 ** 64 - span + 1)
        return (-1, 0, 5, -(span // 2))[choice % 4]

    def _check_interleaving(self, seed, steps):
        import random as pyrandom

        rng, twin = self._pair(seed, "equiv")
        driver = pyrandom.Random(seed)
        for step in range(steps):
            kind = driver.randrange(4)
            if kind == 0:
                assert rng.random() == twin.random(), step
            elif kind == 1:
                span = driver.choice(self.SPANS)
                low = self._low(span, driver.randrange(1 << 20))
                want = int(twin.integers(low, low + span))
                got = rng.randint(low, low + span)
                assert type(got) is int
                assert got == want, (step, low, span)
            elif kind == 2:
                p = driver.choice(self.PS)
                want = int(twin.geometric(min(max(p, 1e-12), 1.0)))
                got = rng.geometric(p)
                assert type(got) is int
                assert got == want, (step, p)
            else:
                # the shared generator: numpy's own bounded draw on the
                # same state, consuming the buffered uint32 half
                hi = driver.choice((2, 100, 3 << 30, 1 << 40))
                assert rng.generator().integers(0, hi) == twin.integers(0, hi)
        assert rng.random() == twin.random()

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_long_interleaving_matches_twin(self, seed):
        self._check_interleaving(seed, 20_000)

    @pytest.mark.parametrize("span", SPANS)
    def test_each_span_matches_twin(self, span):
        rng, twin = self._pair(11, "span", span)
        low = self._low(span, 0)
        got = [rng.randint(low, low + span) for _ in range(400)]
        want = [int(twin.integers(low, low + span)) for _ in range(400)]
        assert got == want
        assert rng.random() == twin.random()  # same draws consumed

    def test_rejection_path_is_taken(self):
        """n = 3·2**30 rejects about a quarter of first draws; the
        stream stays identical across those redraws."""
        rng, twin = self._pair(5, "reject")
        n, draws = 3 << 30, 400
        got = [rng.randint(0, n) for _ in range(draws)]
        assert got == [int(twin.integers(0, n)) for _ in range(draws)]
        # count the uint32 words consumed: a [0, 2**32) draw takes one
        probe = np.random.default_rng(derive_seed(5, "reject"))
        state = rng.generator().bit_generator.state
        words = 0
        while probe.bit_generator.state != state and words < 2 * draws:
            probe.integers(0, 1 << 32)
            words += 1
        assert probe.bit_generator.state == state
        assert words > draws  # some first draws were rejected

    def test_one_value_span_draws_nothing(self):
        rng, twin = self._pair(9, "one")
        assert [rng.randint(4, 5) for _ in range(10)] == [4] * 10
        assert rng.random() == twin.random()

    @pytest.mark.parametrize("p", PS)
    def test_each_p_matches_twin(self, p):
        rng, twin = self._pair(13, "geo", repr(p))
        q = min(max(p, 1e-12), 1.0)
        got = [rng.geometric(p) for _ in range(300)]
        assert got == [int(twin.geometric(q)) for _ in range(300)]

    @pytest.mark.parametrize("p", [1e-12, 0.2, 0.5, 1.0, 0.0, 7.0])
    def test_bound_geometric_matches_method(self, p):
        a = RngStream(17, "bound")
        b = RngStream(17, "bound")
        draw = a.geometric_draw(p)
        assert [draw() for _ in range(300)] == [b.geometric(p) for _ in range(300)]

    def test_invalid_arguments_raise(self):
        rng = RngStream(1)
        with pytest.raises(ValueError):
            rng.randint(5, 5)
        with pytest.raises(ValueError):
            rng.randint(0, (1 << 63) + 1)
        with pytest.raises(ValueError):
            rng.geometric(float("nan"))


def test_bound_draws_outlive_their_stream():
    """A draw callable keeps the generator its raw pointer addresses."""
    import gc

    twin = np.random.default_rng(derive_seed(21, "orphan"))
    random = RngStream(21, "orphan").random
    geometric = RngStream(21, "orphan").geometric_draw(0.2)
    u32 = RngStream(21, "orphan").next_uint32
    gc.collect()
    np.random.default_rng(0).random(1 << 16)  # reuse freed memory, if any
    assert [random() for _ in range(50)] == [twin.random() for _ in range(50)]
    twin = np.random.default_rng(derive_seed(21, "orphan"))
    assert [geometric() for _ in range(50)] == [
        int(twin.geometric(0.2)) for _ in range(50)
    ]
    twin = np.random.default_rng(derive_seed(21, "orphan"))
    assert [u32() for _ in range(50)] == [
        int(twin.integers(0, 1 << 32)) for _ in range(50)
    ]
