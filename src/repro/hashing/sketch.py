"""1-bit minwise hashing sketches (Li & König).

Section V-A.2 of the paper: each record ``x`` is summarized by ``64 * ell``
bits, where bit ``i`` is ``g_i(h_i(x))`` for an independent MinHash function
``h_i`` and an independent 1-bit hash ``g_i``.  For two records with Jaccard
similarity ``J`` each bit position agrees with probability ``(1 + J) / 2``, so
the Hamming distance of the sketches yields an unbiased estimator

    Ĵ(x, y) = 1 - 2 * hamming(x̂, ŷ) / (64 * ell).

The joins use the estimator as a cheap filter: a candidate pair is discarded
when ``Ĵ < λ̂`` where ``λ̂`` is chosen (``sketch_similarity_threshold``) so that
a true positive (``J ≥ λ``) is discarded with probability at most ``δ``.

Sketches are packed into numpy ``uint64`` words, bit ``j`` of word ``w``
holding sketch bit ``64 * w + j``.  :func:`pack_sketch_rows` derives and packs
them in bounded blocks of :data:`PACK_BLOCK_ROWS` records.  Hamming distances
use numpy's ``np.bitwise_count`` popcount ufunc, the counterpart of the
paper's ``_mm_popcnt_u64`` instruction; a byte-level lookup table stands in
on numpy releases older than 2.0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

__all__ = [
    "OneBitMinHashSketches",
    "build_sketches",
    "pack_sketch_rows",
    "sample_sketch_hashers",
    "sketch_similarity_threshold",
    "popcount",
    "popcount_rows",
    "popcount_words",
]

_WORD_BITS = 64

PACK_BLOCK_ROWS = 256
"""Records packed per block by :func:`pack_sketch_rows` (1 MiB of products at ℓ = 8)."""

# Lookup table with the popcount of every byte value; viewing a uint64 array as
# uint8 and summing table entries gives the total popcount.  Used as the
# fallback when numpy does not provide the hardware popcount ufunc
# (np.bitwise_count, added in numpy 2.0) — the closest Python analogue of the
# paper's _mm_popcnt_u64 instruction.
_POPCOUNT_TABLE = np.array([bin(value).count("1") for value in range(256)], dtype=np.uint8)
_HAS_BITWISE_COUNT = hasattr(np, "bitwise_count")


def popcount(words: np.ndarray) -> int:
    """Total number of set bits across an array of uint64 words."""
    if _HAS_BITWISE_COUNT:
        return int(np.bitwise_count(words).sum())
    return int(_POPCOUNT_TABLE[np.ascontiguousarray(words).view(np.uint8)].sum())


def popcount_rows(words: np.ndarray) -> np.ndarray:
    """Per-row popcount of a 2-D array of uint64 words."""
    if _HAS_BITWISE_COUNT:
        return np.bitwise_count(words).sum(axis=1, dtype=np.int64)
    words = np.ascontiguousarray(words)
    bytes_view = words.view(np.uint8).reshape(words.shape[0], -1)
    return _POPCOUNT_TABLE[bytes_view].sum(axis=1, dtype=np.int64)


def popcount_words(words: np.ndarray) -> np.ndarray:
    """Element-wise popcount of an array of uint64 words (same shape out)."""
    if _HAS_BITWISE_COUNT:
        return np.bitwise_count(words).astype(np.int64)
    words = np.ascontiguousarray(words)
    bytes_view = words.view(np.uint8).reshape(words.shape + (8,))
    return _POPCOUNT_TABLE[bytes_view].sum(axis=-1, dtype=np.int64)


def sketch_similarity_threshold(
    threshold: float, num_bits: int, false_negative_probability: float
) -> float:
    """Return the estimator cut-off ``λ̂`` for a desired false-negative rate.

    For a pair with true Jaccard similarity ``J ≥ threshold`` the per-bit
    agreement probability is at least ``(1 + threshold) / 2``.  The estimate is
    an average of ``num_bits`` independent indicator variables, so by
    Hoeffding's inequality the probability that the estimate falls below
    ``threshold - slack`` is at most ``exp(-2 * num_bits * (slack/2)^2)``
    (the factor 2 because the estimator maps agreement fraction ``a`` to
    similarity ``2a - 1``).  Solving for the slack that makes this equal to
    ``false_negative_probability`` gives the returned cut-off.
    """
    if not 0.0 < threshold <= 1.0:
        raise ValueError("threshold must be in (0, 1]")
    if num_bits < 1:
        raise ValueError("num_bits must be positive")
    if not 0.0 < false_negative_probability < 1.0:
        raise ValueError("false_negative_probability must be in (0, 1)")
    slack = 2.0 * math.sqrt(math.log(1.0 / false_negative_probability) / (2.0 * num_bits))
    return max(0.0, threshold - slack)


@dataclass(frozen=True)
class OneBitMinHashSketches:
    """Packed 1-bit minwise sketches for a collection of records.

    Attributes
    ----------
    words:
        ``uint64`` array of shape ``(num_records, num_words)``.
    """

    words: np.ndarray

    @property
    def num_records(self) -> int:
        return int(self.words.shape[0])

    @property
    def num_words(self) -> int:
        return int(self.words.shape[1])

    @property
    def num_bits(self) -> int:
        return self.num_words * _WORD_BITS

    def hamming_distance(self, first: int, second: int) -> int:
        """Hamming distance between the sketches of two records."""
        return popcount(self.words[first] ^ self.words[second])

    def estimate_jaccard(self, first: int, second: int) -> float:
        """Unbiased estimate of the Jaccard similarity of two records."""
        distance = self.hamming_distance(first, second)
        return 1.0 - 2.0 * distance / self.num_bits

    def estimate_jaccard_many(self, record: int, others: Sequence[int]) -> np.ndarray:
        """Estimate the similarity of ``record`` against many other records at once."""
        other_words = self.words[np.asarray(list(others), dtype=np.intp)]
        distances = popcount_rows(other_words ^ self.words[record])
        return 1.0 - 2.0 * distances / self.num_bits

    def average_estimate(self, record: int, others: Sequence[int]) -> float:
        """Average estimated similarity of ``record`` to a group of records.

        Used by the sketch-based variant of the BRUTEFORCE average-similarity
        check (Section V-A.4).
        """
        others = [other for other in others if other != record]
        if not others:
            return 0.0
        return float(self.estimate_jaccard_many(record, others).mean())


def sample_sketch_hashers(
    num_functions: int, num_words: int, seed: Optional[int] = None
) -> tuple:
    """Sample the bit derivation of a sketch family: ``(coordinates, multipliers)``.

    ``coordinates[b]`` is the signature coordinate feeding sketch bit ``b``
    (cycling through the available coordinates when ``64 * ell > t``);
    ``multipliers[b]`` is the odd random multiplier of the 1-bit
    multiply-shift hash ``bit = msb(a_b * value)``.  Shared by the bulk
    :func:`build_sketches` and the incremental sketcher of
    :class:`repro.index.SimilarityIndex`, so the two derive bit-for-bit
    identical sketches from the same seed.
    """
    if num_words < 1:
        raise ValueError("num_words must be positive")
    rng = np.random.default_rng(seed)
    num_bits = num_words * _WORD_BITS
    coordinates = np.arange(num_bits) % num_functions
    multipliers = rng.integers(0, 2**64, size=num_bits, dtype=np.uint64) | np.uint64(1)
    return coordinates, multipliers


def pack_sketch_rows(
    signature_matrix: np.ndarray,
    coordinates: np.ndarray,
    multipliers: np.ndarray,
    num_words: int,
) -> np.ndarray:
    """Derive and pack the sketch words of a ``(n, t)`` signature block.

    Bit ``b`` of a record's sketch is the top bit of
    ``multipliers[b] * signature[coordinates[b]]``; bit ``w*64 + j`` lands in
    bit ``j`` of word ``w``.  The records are processed
    :data:`PACK_BLOCK_ROWS` at a time, so the transient products stay small
    whatever the collection size.
    """
    signature_matrix = np.asarray(signature_matrix, dtype=np.uint64)
    num_records = signature_matrix.shape[0]
    packed = np.empty((num_records, num_words), dtype=np.uint64)
    for start in range(0, num_records, PACK_BLOCK_ROWS):
        stop = min(start + PACK_BLOCK_ROWS, num_records)
        products = signature_matrix[start:stop, coordinates]  # (rows, num_bits) copy
        with np.errstate(over="ignore"):
            np.multiply(products, multipliers, out=products)
        np.right_shift(products, np.uint64(63), out=products)  # top bit of each product
        # Rows are whole words, so packing the flat block keeps them apart.
        # Little-endian bit order within each byte and little-endian words:
        # bit j of word w is sketch bit 64w + j on any host.
        words = np.packbits(products, bitorder="little").view("<u8")
        packed[start:stop] = words.reshape(stop - start, num_words)
    return packed


def build_sketches(
    signature_matrix: np.ndarray,
    num_words: int,
    seed: Optional[int] = None,
) -> OneBitMinHashSketches:
    """Build 1-bit minwise sketches from a MinHash signature matrix.

    The paper samples ``64 * ell`` *fresh* MinHash functions for the sketches.
    To keep preprocessing cost modest we instead derive the sketch bits by
    1-bit hashing of ``64 * ell`` signature coordinates (cycling through the
    available coordinates when ``64 * ell > t``).  Each bit is still an
    independent 1-bit hash of a MinHash value, so the estimator's behaviour is
    the same up to the reuse of MinHash coordinates across words, which only
    matters for ``ell > t / 64`` and is the standard practical shortcut.

    Parameters
    ----------
    signature_matrix:
        ``uint64`` array of shape ``(num_records, t)`` of MinHash values.
    num_words:
        Sketch length ``ell`` in 64-bit words (the paper uses ``ell = 8``).
    seed:
        Seed for the 1-bit hash functions.
    """
    num_functions = signature_matrix.shape[1]
    coordinates, multipliers = sample_sketch_hashers(num_functions, num_words, seed)
    packed = pack_sketch_rows(signature_matrix, coordinates, multipliers, num_words)
    return OneBitMinHashSketches(words=packed)
