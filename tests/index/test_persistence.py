"""Tests for SimilarityIndex.save()/load(): settings plus records, rebuilt on load."""

from __future__ import annotations

import json
import math
import pickle
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.index import IndexPersistenceError, SimilarityIndex
from repro.index.similarity_index import _SAVE_MAGIC, SAVE_FORMAT_VERSION
from repro.similarity.measures import get_measure

RECORDS = [(1, 2, 3, 4), (2, 3, 4, 5), (10, 11, 12, 13), (1, 2, 3, 4, 5)]


def make_index(**options) -> SimilarityIndex:
    options.setdefault("backend", "numpy")
    options.setdefault("seed", 23)
    return SimilarityIndex.build(RECORDS, 0.5, **options)


def planted_records(seed: int, count: int = 120):
    rng = np.random.default_rng(seed)
    records = [
        tuple(sorted(rng.choice(300, size=int(rng.integers(5, 16)), replace=False).tolist()))
        for _ in range(count)
    ]
    for position in range(0, count, 6):
        base = list(records[position])
        base[0] = 299 if base[0] != 299 else 298
        records.append(tuple(sorted(set(base))))
    return records


def counters(index: SimilarityIndex):
    stats = index.stats
    return stats.pre_candidates, stats.candidates, stats.verified


class TestRoundtrip:
    def test_save_load_serves_identical_answers(self, tmp_path) -> None:
        index = make_index()
        path = index.save(tmp_path / "index.idx")
        loaded = SimilarityIndex.load(path)
        assert isinstance(loaded, SimilarityIndex)
        assert len(loaded) == len(index)
        assert loaded.query_batch(RECORDS) == index.query_batch(RECORDS)

    def test_saved_file_is_a_pickle_free_archive(self, tmp_path) -> None:
        path = make_index(candidates="lsh").save(tmp_path / "index.idx")
        assert path.name == "index.idx"  # numpy appended no ".npz"
        with np.load(path, allow_pickle=False) as archive:
            assert set(archive.files) == {"manifest", "token_values", "token_offsets"}
            manifest = json.loads(archive["manifest"].tobytes().decode("utf-8"))
            offsets = archive["token_offsets"]
            values = archive["token_values"]
        assert manifest["format_version"] == SAVE_FORMAT_VERSION == 3
        assert manifest["records"] == len(RECORDS)
        assert manifest["settings"]["seed"] == 23
        assert manifest["settings"]["candidates"] == "lsh"
        assert manifest["settings"]["measure"] == "jaccard"
        assert offsets.tolist() == [0, 4, 8, 12, 17]
        assert values.dtype == np.int64 and values[12:17].tolist() == [1, 2, 3, 4, 5]

    def test_save_is_atomic_and_leaves_no_staging_file(self, tmp_path) -> None:
        path = tmp_path / "index.idx"
        make_index().save(path)
        first = path.read_bytes()
        make_index().save(path)  # overwrite in place (the --insert rewrite shape)
        assert not list(tmp_path.glob("*.tmp"))
        assert path.read_bytes() == first
        SimilarityIndex.load(path)  # still a valid file after the overwrite

    def test_loaded_index_accepts_inserts(self, tmp_path) -> None:
        path = make_index().save(tmp_path / "index.idx")
        loaded = SimilarityIndex.load(path)
        record_id = loaded.insert((100, 101, 102))
        assert loaded.query((100, 101, 102))[0][0] == record_id

    def test_unseeded_index_resolves_and_saves_its_seed(self, tmp_path) -> None:
        index = make_index(seed=None, candidates="chosenpath")
        assert isinstance(index.seed, int) and 0 <= index.seed < 2**63
        loaded = SimilarityIndex.load(index.save(tmp_path / "index.idx"))
        assert loaded.seed == index.seed

    def test_empty_index_roundtrip(self, tmp_path) -> None:
        loaded = SimilarityIndex.load(SimilarityIndex(0.5, seed=1).save(tmp_path / "e.idx"))
        assert len(loaded) == 0
        assert loaded.query((1, 2)) == []

    @pytest.mark.parametrize("candidates", ["exact", "lsh", "chosenpath"])
    @pytest.mark.parametrize("measure", ["jaccard", "weighted-cosine"])
    @pytest.mark.parametrize("seed", [23, None])
    def test_answers_and_counters_survive(self, tmp_path, candidates, measure, seed) -> None:
        records = planted_records(5)
        if measure == "weighted-cosine":
            weights = {token: 1.0 + (token % 4) / 8.0 for token in range(0, 300, 3)}
            measure = get_measure("cosine", weights=weights)
        index = SimilarityIndex.build(
            records, 0.7, candidates=candidates, measure=measure, seed=seed
        )
        loaded = SimilarityIndex.load(index.save(tmp_path / "index.idx"))
        assert loaded.measure.name == index.measure.name
        assert loaded.measure.weights == index.measure.weights
        assert loaded.query_batch(records) == index.query_batch(records)
        assert counters(loaded) == counters(index)


class TestOldFormatsRefused:
    class _Marker:
        """A pickle payload whose unpickling would create a marker file."""

        def __init__(self, path) -> None:
            self.path = str(path)

        def __reduce__(self):
            return (open, (self.path, "w"))

    def test_versioned_pickle_refused_without_unpickling(self, tmp_path) -> None:
        marker = tmp_path / "marker"
        path = tmp_path / "old.idx"
        path.write_bytes(_SAVE_MAGIC + struct.pack(">I", 2) + pickle.dumps(self._Marker(marker)))
        with pytest.raises(IndexPersistenceError, match="repro-join index build"):
            SimilarityIndex.load(path)
        assert not marker.exists()

    def test_bare_pickle_refused_without_unpickling(self, tmp_path) -> None:
        marker = tmp_path / "marker"
        path = tmp_path / "legacy.pkl"
        path.write_bytes(pickle.dumps(self._Marker(marker)))
        with pytest.raises(IndexPersistenceError, match="repro-join index build"):
            SimilarityIndex.load(path)
        assert not marker.exists()

    @pytest.mark.parametrize("protocol", [0, 1])
    def test_headerless_pickle_protocols_refused(self, tmp_path, protocol) -> None:
        marker = tmp_path / "marker"
        path = tmp_path / "legacy.pkl"
        path.write_bytes(pickle.dumps(self._Marker(marker), protocol=protocol))
        with pytest.raises(IndexPersistenceError):
            SimilarityIndex.load(path)
        assert not marker.exists()

    def test_error_is_a_value_error_naming_the_path(self, tmp_path) -> None:
        # Callers catching ValueError (the repo's validation idiom) keep working.
        assert issubclass(IndexPersistenceError, ValueError)
        path = tmp_path / "noise.bin"
        path.write_bytes(b"definitely not an index file")
        with pytest.raises(IndexPersistenceError, match="noise.bin"):
            SimilarityIndex.load(path)


# ----------------------------------------------------------------------------- fuzzing
def _valid_members() -> dict:
    """A hand-written two-record archive in the layout save() writes."""
    manifest = {
        "format_version": SAVE_FORMAT_VERSION,
        "records": 2,
        "settings": {"threshold": 0.5, "seed": 3, "candidates": "exact"},
    }
    return {
        "manifest": _manifest(manifest),
        "token_values": np.array([1, 2, 3, 2, 3, 4], dtype=np.int64),
        "token_offsets": np.array([0, 3, 6], dtype=np.int64),
    }


def _write(path, members: dict) -> None:
    with open(path, "wb") as handle:
        np.savez(handle, **members)


def _manifest(value) -> np.ndarray:
    return np.frombuffer(json.dumps(value).encode("utf-8"), dtype=np.uint8)


def test_hand_written_members_load(tmp_path) -> None:
    path = tmp_path / "ok.idx"
    _write(path, _valid_members())
    index = SimilarityIndex.load(path)
    assert index.query((1, 2, 3)) == [(0, 1.0), (1, 0.5)]


_BAD_MEMBERS = {
    "missing member": lambda m: {k: v for k, v in m.items() if k != "token_offsets"},
    "extra member": lambda m: {**m, "extra": np.zeros(1, dtype=np.int64)},
    "half the weights": lambda m: {**m, "weight_tokens": np.array([1], dtype=np.int64)},
    "float tokens": lambda m: {**m, "token_values": m["token_values"].astype(np.float64)},
    "2-D offsets": lambda m: {**m, "token_offsets": m["token_offsets"].reshape(1, 3)},
    "manifest is a list": lambda m: {**m, "manifest": _manifest([3, 2])},
    "manifest not JSON": lambda m: {**m, "manifest": np.frombuffer(b"{nope", dtype=np.uint8)},
    "manifest not UTF-8": lambda m: {**m, "manifest": np.frombuffer(b"\xff\xfe", dtype=np.uint8)},
    "NaN threshold": lambda m: {
        **m,
        "manifest": _manifest(
            {"format_version": 3, "records": 2, "settings": {"threshold": math.nan}}
        ),
    },
    "string threshold": lambda m: {
        **m,
        "manifest": _manifest(
            {"format_version": 3, "records": 2, "settings": {"threshold": "0.5"}}
        ),
    },
    "unknown setting": lambda m: {
        **m,
        "manifest": _manifest(
            {"format_version": 3, "records": 2, "settings": {"threshold": 0.5, "evil": 1}}
        ),
    },
    "unknown manifest key": lambda m: {
        **m,
        "manifest": _manifest(
            {"format_version": 3, "records": 2, "settings": {"threshold": 0.5}, "x": 0}
        ),
    },
    "negative record count": lambda m: {
        **m,
        "manifest": _manifest({"format_version": 3, "records": -1, "settings": {}}),
    },
}


@pytest.mark.parametrize("case", sorted(_BAD_MEMBERS))
def test_malformed_archive_refused(tmp_path, case) -> None:
    path = tmp_path / "bad.idx"
    _write(path, _BAD_MEMBERS[case](_valid_members()))
    with pytest.raises(IndexPersistenceError, match="bad.idx"):
        SimilarityIndex.load(path)


@pytest.mark.parametrize(
    "offsets",
    [[1, 3, 6], [0, 0, 6], [0, 4, 3], [0, 7, 6], [0, 3, 7], [0, 6]],
    ids=["not-from-zero", "empty-record", "decreasing", "overshoot", "past-the-values", "count"],
)
def test_bad_offsets_refused(tmp_path, offsets) -> None:
    path = tmp_path / "offsets.idx"
    _write(path, {**_valid_members(), "token_offsets": np.array(offsets, dtype=np.int64)})
    with pytest.raises(IndexPersistenceError, match="not a valid CSR index"):
        SimilarityIndex.load(path)


def test_object_array_refused_without_unpickling(tmp_path) -> None:
    marker = tmp_path / "marker"
    members = _valid_members()
    members["token_values"] = np.array([TestOldFormatsRefused._Marker(marker)], dtype=object)
    path = tmp_path / "object.idx"
    _write(path, members)
    with pytest.raises(IndexPersistenceError):
        SimilarityIndex.load(path)
    assert not marker.exists()


_FUZZ = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


@_FUZZ
@given(version=st.one_of(st.integers(), st.text(max_size=3), st.none(), st.floats()))
def test_wrong_versions_refused(tmp_path, version) -> None:
    if version == SAVE_FORMAT_VERSION:
        return
    members = _valid_members()
    members["manifest"] = _manifest(
        {"format_version": version, "records": 2, "settings": {"threshold": 0.5}}
    )
    path = tmp_path / "version.idx"
    _write(path, members)
    with pytest.raises(IndexPersistenceError):
        SimilarityIndex.load(path)


@_FUZZ
@given(data=st.binary(max_size=400))
def test_random_bytes_refused(tmp_path, data) -> None:
    path = tmp_path / "random.idx"
    path.write_bytes(data)
    with pytest.raises(IndexPersistenceError):
        SimilarityIndex.load(path)


@_FUZZ
@given(cut=st.integers(min_value=0))
def test_truncated_archive_refused(tmp_path, cut) -> None:
    path = tmp_path / "whole.idx"
    make_index(candidates="chosenpath").save(path)
    whole = path.read_bytes()
    truncated = tmp_path / "truncated.idx"
    truncated.write_bytes(whole[: cut % len(whole)])
    with pytest.raises(IndexPersistenceError):
        SimilarityIndex.load(truncated)


@_FUZZ
@given(position=st.integers(min_value=0), flip=st.integers(min_value=1, max_value=255))
def test_flipped_byte_loads_or_raises_persistence_error(tmp_path, position, flip) -> None:
    # A corrupted archive either still passes every check (the byte hit
    # slack the zip reader ignores, or a token value) or is refused cleanly.
    path = tmp_path / "flip.idx"
    make_index().save(path)
    data = bytearray(path.read_bytes())
    data[position % len(data)] ^= flip
    path.write_bytes(bytes(data))
    try:
        SimilarityIndex.load(path)
    except IndexPersistenceError:
        pass
