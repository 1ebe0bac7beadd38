"""Parity, golden, range and memory tests for the block MinHash kernel.

The oracle is the per-record construction of Section V-A.1 written out
directly: tabulate every token of one record with all ``t`` functions and
take the column minimum.  The kernel (distinct tokens hashed once, gathered
through the CSR inverse and reduced per block) must equal it bit for bit.
"""

from __future__ import annotations

import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.preprocess import preprocess_collection
from repro.datasets.profiles import generate_profile_dataset
from repro.hashing.minhash import GATHER_BLOCK_ELEMENTS, KEY_LIMIT, MinHasher
from repro.hashing.tabulation import TabulationHashFamily, tabulate_many_functions

SEED = 5


def reference_signatures(records, num_functions: int, seed: int) -> np.ndarray:
    """Per-record MinHash: one tabulation call and one minimum per record."""
    tables = TabulationHashFamily(seed).sample_tables(num_functions)
    matrix = np.empty((len(records), num_functions), dtype=np.uint64)
    for row, record in enumerate(records):
        keys = np.asarray(list(record), dtype=np.uint32)
        matrix[row] = tabulate_many_functions(tables, keys).min(axis=1)
    return matrix


@st.composite
def collections(draw):
    """Records over a small shared vocabulary that always holds 0 and 2**32 - 1.

    Optionally one record is larger than a whole gather block, so it forms
    a block of its own between ordinary records.
    """
    num_functions = draw(st.sampled_from([1, 7, 128]))
    vocabulary = [0, KEY_LIMIT - 1] + draw(
        st.lists(st.integers(0, KEY_LIMIT - 1), min_size=1, max_size=30)
    )
    records = draw(
        st.lists(
            st.lists(st.sampled_from(vocabulary), min_size=1, max_size=25),
            min_size=1,
            max_size=40,
        )
    )
    if draw(st.booleans()):
        size = GATHER_BLOCK_ELEMENTS // num_functions + draw(st.integers(1, 64))
        rng = np.random.default_rng(draw(st.integers(0, 2**16)))
        large = rng.integers(0, KEY_LIMIT, size=size, dtype=np.int64).tolist()
        large[: len(vocabulary)] = vocabulary
        records.insert(draw(st.integers(0, len(records))), large)
    return num_functions, records


@settings(max_examples=40, deadline=None)
@given(collections())
def test_kernel_equals_per_record_reference(case) -> None:
    num_functions, records = case
    hasher = MinHasher(num_functions=num_functions, seed=SEED)
    expected = reference_signatures(records, num_functions, SEED)
    assert np.array_equal(hasher.signatures(records).matrix, expected)
    assert np.array_equal(hasher.signature(records[0]), expected[0])


def test_many_blocks_equal_reference() -> None:
    # ~58k token occurrences at t = 128: dozens of gather blocks, with
    # records straddling every block budget.
    records = generate_profile_dataset("UNIFORM005", scale=0.5, seed=2).records
    hasher = MinHasher(num_functions=128, seed=SEED)
    expected = reference_signatures(records, 128, SEED)
    assert np.array_equal(hasher.signatures(records).matrix, expected)


def test_empty_collection_has_no_rows() -> None:
    assert MinHasher(num_functions=8, seed=1).signatures([]).matrix.shape == (0, 8)


def test_empty_record_in_collection_raises() -> None:
    with pytest.raises(ValueError, match="empty record"):
        MinHasher(num_functions=8, seed=1).signatures([[1, 2], []])


OUT_OF_RANGE = [-1, KEY_LIMIT, 2**40, 2**70]


@pytest.mark.parametrize("token", OUT_OF_RANGE)
class TestOutOfRangeTokens:
    """A token outside ``[0, 2**32)`` is refused by name, never wrapped."""

    def test_signature(self, token) -> None:
        with pytest.raises(ValueError, match=f"token {token} "):
            MinHasher(num_functions=8, seed=1).signature([3, token])

    def test_signatures(self, token) -> None:
        with pytest.raises(ValueError, match=f"token {token} "):
            MinHasher(num_functions=8, seed=1).signatures([[1, 2], [3, token]])

    def test_preprocess_collection(self, token) -> None:
        with pytest.raises(ValueError, match=f"token {token} "):
            preprocess_collection([[1, 2], [3, token]], seed=1)


# sha256 of the parent implementation's arrays (per-record MinHash loop and
# the 64-step shift-or packing) for this exact input.
GOLDEN_SIGNATURE_SHA256 = "0311243751977ca4628941662b6f1d976e88f7e893656f36eeb29181cd422229"
GOLDEN_SKETCH_SHA256 = "8d7043b4a52aefd0eb51d183a14043dd04e54b8baedd2ad7e9353dfc7f07edf8"


def test_golden_preprocessing_digests() -> None:
    records = generate_profile_dataset("UNIFORM005", scale=0.2, seed=3).records
    store = preprocess_collection(records, seed=42).store
    signature_digest = hashlib.sha256(np.ascontiguousarray(store.signature_matrix).tobytes())
    sketch_digest = hashlib.sha256(np.ascontiguousarray(store.sketch_words).tobytes())
    assert signature_digest.hexdigest() == GOLDEN_SIGNATURE_SHA256
    assert sketch_digest.hexdigest() == GOLDEN_SKETCH_SHA256


def test_preprocess_transient_memory_is_bounded() -> None:
    # The 10k-record UNIFORM005 collection of the join benchmark.  The
    # per-record loop and the unblocked sketch packing peaked 158 MiB above
    # the call's retained memory; the block kernels stay near 5 MiB.
    records = generate_profile_dataset("UNIFORM005", scale=4.0, seed=1).records
    tracemalloc.start()
    try:
        collection = preprocess_collection(records, seed=42)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert collection.num_records == len(records) > 10_000
    assert peak - retained <= 32 * 2**20
