"""Tests for 1-bit minwise hashing sketches."""

from __future__ import annotations

import numpy as np
import pytest

from repro.hashing.minhash import MinHasher
from repro.hashing.sketch import (
    PACK_BLOCK_ROWS,
    OneBitMinHashSketches,
    build_sketches,
    pack_sketch_rows,
    popcount,
    popcount_rows,
    sample_sketch_hashers,
    sketch_similarity_threshold,
)
from repro.similarity.measures import jaccard_similarity


class TestPopcount:
    def test_known_values(self) -> None:
        assert popcount(np.array([0], dtype=np.uint64)) == 0
        assert popcount(np.array([1], dtype=np.uint64)) == 1
        assert popcount(np.array([0xFFFFFFFFFFFFFFFF], dtype=np.uint64)) == 64
        assert popcount(np.array([0b1011, 0b1], dtype=np.uint64)) == 4

    def test_popcount_rows(self) -> None:
        words = np.array([[0, 1], [0xFF, 0xF0]], dtype=np.uint64)
        assert popcount_rows(words).tolist() == [1, 12]

    def test_matches_python_bit_count(self) -> None:
        rng = np.random.default_rng(0)
        words = rng.integers(0, 2**64, size=20, dtype=np.uint64)
        expected = sum(bin(int(word)).count("1") for word in words)
        assert popcount(words) == expected


class TestSketchThreshold:
    def test_cutoff_below_threshold(self) -> None:
        cutoff = sketch_similarity_threshold(0.5, num_bits=512, false_negative_probability=0.05)
        assert cutoff < 0.5
        assert cutoff > 0.0

    def test_more_bits_tighter_cutoff(self) -> None:
        loose = sketch_similarity_threshold(0.5, num_bits=64, false_negative_probability=0.05)
        tight = sketch_similarity_threshold(0.5, num_bits=1024, false_negative_probability=0.05)
        assert tight > loose

    def test_smaller_delta_looser_cutoff(self) -> None:
        strict = sketch_similarity_threshold(0.5, num_bits=512, false_negative_probability=0.01)
        lax = sketch_similarity_threshold(0.5, num_bits=512, false_negative_probability=0.2)
        assert strict < lax

    def test_invalid_arguments(self) -> None:
        with pytest.raises(ValueError):
            sketch_similarity_threshold(0.0, 512, 0.05)
        with pytest.raises(ValueError):
            sketch_similarity_threshold(0.5, 0, 0.05)
        with pytest.raises(ValueError):
            sketch_similarity_threshold(0.5, 512, 1.5)

    def test_never_negative(self) -> None:
        assert sketch_similarity_threshold(0.1, num_bits=4, false_negative_probability=0.5) >= 0.0


class TestBuildSketches:
    def _signatures(self, records, t=128, seed=3):
        return MinHasher(num_functions=t, seed=seed).signatures(records).matrix

    def test_shape_and_dtype(self) -> None:
        matrix = self._signatures([[1, 2, 3], [4, 5, 6]])
        sketches = build_sketches(matrix, num_words=4, seed=0)
        assert sketches.words.shape == (2, 4)
        assert sketches.words.dtype == np.uint64
        assert sketches.num_bits == 256

    def test_invalid_num_words(self) -> None:
        matrix = self._signatures([[1, 2, 3]])
        with pytest.raises(ValueError):
            build_sketches(matrix, num_words=0)

    def test_identical_records_identical_sketches(self) -> None:
        matrix = self._signatures([[7, 8, 9], [9, 8, 7]])
        sketches = build_sketches(matrix, num_words=2, seed=1)
        assert sketches.hamming_distance(0, 1) == 0
        assert sketches.estimate_jaccard(0, 1) == 1.0

    def test_estimate_tracks_true_similarity(self) -> None:
        first = list(range(0, 120))
        second = list(range(40, 160))  # Jaccard 0.5
        third = list(range(1000, 1120))  # Jaccard 0 with both
        matrix = self._signatures([first, second, third], t=128, seed=5)
        sketches = build_sketches(matrix, num_words=8, seed=6)
        close = sketches.estimate_jaccard(0, 1)
        far = sketches.estimate_jaccard(0, 2)
        true_close = jaccard_similarity(first, second)
        assert abs(close - true_close) < 0.2
        assert far < close

    def test_estimate_jaccard_many_matches_single(self) -> None:
        matrix = self._signatures([[1, 2], [2, 3], [3, 4], [100, 200]])
        sketches = build_sketches(matrix, num_words=2, seed=2)
        many = sketches.estimate_jaccard_many(0, [1, 2, 3])
        singles = [sketches.estimate_jaccard(0, other) for other in (1, 2, 3)]
        assert np.allclose(many, singles)

    def test_average_estimate_excludes_self(self) -> None:
        matrix = self._signatures([[1, 2], [2, 3], [3, 4]])
        sketches = build_sketches(matrix, num_words=2, seed=2)
        average = sketches.average_estimate(0, [0, 1, 2])
        manual = np.mean([sketches.estimate_jaccard(0, 1), sketches.estimate_jaccard(0, 2)])
        assert average == pytest.approx(manual)

    def test_average_estimate_empty_group(self) -> None:
        matrix = self._signatures([[1, 2]])
        sketches = build_sketches(matrix, num_words=1, seed=2)
        assert sketches.average_estimate(0, [0]) == 0.0


def shift_or_reference(signature_matrix, coordinates, multipliers, num_words):
    """The unblocked bit derivation, OR-ing each of the 64 bit planes into place."""
    selected = signature_matrix[:, coordinates]
    with np.errstate(over="ignore"):
        bits = (selected * multipliers) >> np.uint64(63)
    bits = bits.reshape(signature_matrix.shape[0], num_words, 64)
    packed = np.zeros((signature_matrix.shape[0], num_words), dtype=np.uint64)
    for position in range(64):
        packed |= bits[:, :, position] << np.uint64(position)
    return packed


class TestPackSketchRows:
    @pytest.mark.parametrize("num_words", [1, 3, 8])
    @pytest.mark.parametrize(
        "num_records", [0, 1, PACK_BLOCK_ROWS - 1, PACK_BLOCK_ROWS + 1, 2 * PACK_BLOCK_ROWS + 37]
    )
    @pytest.mark.parametrize("num_functions", [7, 128])
    def test_equals_shift_or_formula(self, num_words, num_records, num_functions) -> None:
        rng = np.random.default_rng(num_records * 31 + num_words)
        matrix = rng.integers(0, 2**64, size=(num_records, num_functions), dtype=np.uint64)
        coordinates, multipliers = sample_sketch_hashers(num_functions, num_words, seed=4)
        packed = pack_sketch_rows(matrix, coordinates, multipliers, num_words)
        assert packed.dtype == np.uint64 and packed.shape == (num_records, num_words)
        expected = shift_or_reference(matrix, coordinates, multipliers, num_words)
        assert np.array_equal(packed, expected)

    def test_bit_j_of_word_w_is_sketch_bit_64w_plus_j(self) -> None:
        # Multiplier 1 keeps each value, so bit b is the top bit of the
        # coordinate feeding it: set exactly sketch bits 0, 70 and 127.
        coordinates = np.arange(128)
        multipliers = np.ones(128, dtype=np.uint64)
        row = np.zeros((1, 128), dtype=np.uint64)
        row[0, [0, 70, 127]] = np.uint64(1 << 63)
        packed = pack_sketch_rows(row, coordinates, multipliers, 2)
        assert packed.tolist() == [[1, (1 << 6) | (1 << 63)]]
