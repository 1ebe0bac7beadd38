"""The sketch filter's false-negative rate stays within ``δ`` (Section V-A.4).

The 1-bit minwise estimator (Li & König, "b-Bit Minwise Hashing", WWW 2010)
with cut-off ``λ̂ = sketch_similarity_threshold(λ, 512, δ)`` may reject a
pair of true similarity ``λ`` with probability at most ``δ``.  Parity
between the backends cannot show this, so it is checked directly: thousands
of independent pairs at Jaccard exactly ``λ`` go through each backend's
``filter_pairs`` and the rejected share must stay at or below ``δ``.
Deterministic: the records and the hash seeds are fixed.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.backend import BACKEND_NAMES, make_backend
from repro.core.preprocess import preprocess_collection
from repro.hashing.sketch import sketch_similarity_threshold

LAMBDA = 0.5
DELTA = 0.05
NUM_PAIRS = 3000
CHUNK_PAIRS = 250  # pairs per preprocessing call, bounding the hash-table memory


def _pairs_at_lambda(size: int, num_pairs: int, first_token: int):
    """``num_pairs`` token-disjoint record pairs ``(x, y)`` with ``J(x, y) = 1/2``.

    ``|x| = size`` and ``|x ∩ y| = ⌈2·size/3⌉``; ``|y|`` is chosen so that
    ``|x ∪ y| = 2·|x ∩ y|``.
    """
    shared = -(-2 * size // 3)
    extra = 2 * shared - size  # tokens of y outside x
    records = []
    token = first_token
    for _ in range(num_pairs):
        x = tuple(range(token, token + size))
        y = x[:shared] + tuple(range(token + size, token + size + extra))
        records += [x, y]
        token += size + extra
    return records, token


@pytest.fixture(scope="module")
def chunks():
    """Per set size, the preprocessed chunks of the pair collection."""
    by_size = {}
    for size in (12, 30, 100):
        collections = []
        token = 0
        for _ in range(NUM_PAIRS // CHUNK_PAIRS):
            records, token = _pairs_at_lambda(size, CHUNK_PAIRS, token)
            collections.append(
                preprocess_collection(records, embedding_size=128, sketch_words=8, seed=size)
            )
        by_size[size] = collections
    return by_size


@pytest.mark.parametrize("backend", BACKEND_NAMES)
@pytest.mark.parametrize("size", (12, 30, 100))
def test_rejected_share_at_threshold_is_at_most_delta(chunks, size, backend) -> None:
    cutoff = sketch_similarity_threshold(LAMBDA, 512, DELTA)
    firsts = np.arange(0, 2 * CHUNK_PAIRS, 2, dtype=np.intp)
    seconds = firsts + 1
    kept = 0
    for collection in chunks[size]:
        kernel = make_backend(backend, collection, LAMBDA)
        assert kernel.measure_sizes[firsts].tolist() == [size] * CHUNK_PAIRS
        kept += kernel.filter_pairs(firsts, seconds, True, cutoff)[0].size
    rejected = 1.0 - kept / NUM_PAIRS
    assert rejected <= DELTA, f"sketch filter rejected {rejected:.3f} of pairs at J = λ"
