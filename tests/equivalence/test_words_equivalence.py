"""Fast == reference for the word-substrate primitives.

Hypothesis drives arbitrary inputs through each bulk operation and its
word-at-a-time twin from :mod:`repro.reference`; deterministic cases pin
the sizes where a bulk implementation switches strategies mid-function
(``random_bytes`` at 128 bytes) and large buffers the size of world-swap
state files.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.reference import (
    bytes_to_words_reference,
    checksum_reference,
    merge_check_reference,
    random_bytes_reference,
    words_to_bytes_reference,
)
from repro.words import (
    WORD_MASK,
    bytes_to_words,
    checksum,
    random_bytes,
    words_to_bytes,
)
from repro.disk.drive import merge_check

#: The numpy_mode fixture just toggles a global flag -- identical for
#: every generated example -- so the function-scoped-fixture check is moot.
eq_settings = settings(suppress_health_check=[HealthCheck.function_scoped_fixture], deadline=None)

words_lists = st.lists(st.integers(min_value=0, max_value=WORD_MASK), max_size=600)

#: A large buffer: world-swap state files run to thousands of words.
LARGE = 2048

#: Sizes that bracket every strategy switch inside the bulk paths, plus
#: large buffers.
THRESHOLD_SIZES = [0, 1, 2, 3, 127, 128, 129,
                   LARGE - 1, LARGE, LARGE + 1, 2 * LARGE + 3]


class TestChecksum:
    @eq_settings
    @given(words_lists)
    def test_arbitrary(self, numpy_mode, data):
        assert checksum(data) == checksum_reference(data)

    def test_threshold_sizes(self, numpy_mode):
        rng = random.Random(7)
        for n in THRESHOLD_SIZES:
            data = [rng.randrange(WORD_MASK + 1) for _ in range(n)]
            assert checksum(data) == checksum_reference(data)

    def test_all_word_mask(self, numpy_mode):
        data = [WORD_MASK] * (LARGE + 5)
        assert checksum(data) == checksum_reference(data)


class TestBytesToWords:
    @eq_settings
    @given(st.binary(max_size=600), st.integers(min_value=0, max_value=255))
    def test_arbitrary(self, numpy_mode, data, pad):
        assert bytes_to_words(data, pad) == bytes_to_words_reference(data, pad)

    def test_threshold_sizes_odd_and_even(self, numpy_mode):
        rng = random.Random(11)
        for n in THRESHOLD_SIZES:
            for extra in (0, 1):  # even and odd byte counts
                data = bytes(rng.randrange(256) for _ in range(n + extra))
                assert bytes_to_words(data, 0xAB) == bytes_to_words_reference(data, 0xAB)

    def test_exotic_input_degrades_to_reference(self, numpy_mode):
        # A plain list of ints is not a buffer; both forms must agree anyway.
        data = [0x41, 0x42, 0x43]
        assert bytes_to_words(data) == bytes_to_words_reference(bytes(data))


class TestWordsToBytes:
    @eq_settings
    @given(words_lists, st.integers(min_value=-1, max_value=1300))
    def test_arbitrary(self, numpy_mode, data, nbytes):
        if nbytes > 2 * len(data):
            with pytest.raises(ValueError):
                words_to_bytes(data, nbytes)
            with pytest.raises(ValueError):
                words_to_bytes_reference(data, nbytes)
        else:
            assert words_to_bytes(data, nbytes) == words_to_bytes_reference(data, nbytes)

    def test_threshold_sizes(self, numpy_mode):
        rng = random.Random(13)
        for n in THRESHOLD_SIZES:
            data = [rng.randrange(WORD_MASK + 1) for _ in range(n)]
            assert words_to_bytes(data) == words_to_bytes_reference(data)
            if n:  # odd truncation exercises the nbytes path
                assert words_to_bytes(data, 2 * n - 1) == words_to_bytes_reference(data, 2 * n - 1)

    @eq_settings
    @given(st.lists(st.integers(min_value=-(2 ** 20), max_value=2 ** 20), min_size=1, max_size=50))
    def test_out_of_range_words_match_reference_masking(self, numpy_mode, data):
        # Out-of-range and negative words take the historical masking path
        # ((w >> 8) & 0xFF, w & 0xFF) in both implementations.
        assert words_to_bytes(data) == words_to_bytes_reference(data)

    @pytest.mark.parametrize("nbytes", [-2, -100])
    def test_negative_nbytes_rejected_before_work(self, numpy_mode, nbytes):
        with pytest.raises(ValueError, match="nbytes must be -1"):
            words_to_bytes([1, 2, 3], nbytes)
        with pytest.raises(ValueError, match="nbytes must be -1"):
            words_to_bytes_reference([1, 2, 3], nbytes)


class TestRandomBytes:
    """Stream-position equivalence: same draws, same leftover RNG state."""

    @pytest.mark.parametrize("count", [0, 1, 127, 128, 129, 1000, 5000])
    def test_same_bytes_and_same_stream_position(self, numpy_mode, count):
        a, b = random.Random(1979), random.Random(1979)
        assert random_bytes(a, count) == random_bytes_reference(b, count)
        # The next draw from each RNG must agree: the bulk form consumed
        # exactly as many Mersenne Twister outputs as the loop.
        assert a.getrandbits(64) == b.getrandbits(64)

    @eq_settings
    @given(st.integers(min_value=0, max_value=2 ** 31), st.integers(min_value=0, max_value=400))
    def test_arbitrary_seeds(self, numpy_mode, seed, count):
        a, b = random.Random(seed), random.Random(seed)
        assert random_bytes(a, count) == random_bytes_reference(b, count)
        assert a.random() == b.random()


class TestMergeCheck:
    words_256 = st.lists(st.integers(min_value=0, max_value=WORD_MASK), min_size=7, max_size=7)

    @eq_settings
    @given(words_256, words_256)
    def test_arbitrary(self, numpy_mode, expected, disk_words):
        assert merge_check(expected, disk_words) == merge_check_reference(expected, disk_words)

    @eq_settings
    @given(words_256, st.data())
    def test_wildcards_and_forced_match(self, numpy_mode, disk_words, data):
        # Build an expected buffer that matches except where wildcarded,
        # with an optional planted mismatch: all three regimes in one case.
        expected = list(disk_words)
        for i in data.draw(st.sets(st.integers(min_value=0, max_value=6))):
            expected[i] = 0  # wildcard
        mismatch_at = data.draw(st.none() | st.integers(min_value=0, max_value=6))
        if mismatch_at is not None and expected[mismatch_at] != 0:
            expected[mismatch_at] = (disk_words[mismatch_at] ^ 1) or 1
        assert merge_check(expected, disk_words) == merge_check_reference(expected, disk_words)

    def test_exact_equality_fast_path(self, numpy_mode):
        words = [1, 2, 3, 4, 5, 6, 7]
        assert merge_check(words, list(words)) == merge_check_reference(words, words)
