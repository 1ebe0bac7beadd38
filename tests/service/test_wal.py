"""Tests for the WAL + snapshot persistence layer."""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.index import SimilarityIndex
from repro.service.wal import PersistentIndexStore, WalCorruptionError, WriteAheadLog

BASE_RECORDS = [(1, 2, 3, 4), (2, 3, 4, 5), (10, 11, 12, 13)]


_JSON = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(),
        st.integers(min_value=2**63 - 2, max_value=2**70),
        st.floats(allow_nan=True, allow_infinity=True),
        st.text(max_size=4),
    ),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(max_size=3), children, max_size=3),
    ),
    max_leaves=8,
)
"""Any JSON value Python's encoder writes, NaN and Infinity included."""


def make_index() -> SimilarityIndex:
    return SimilarityIndex.build(BASE_RECORDS, 0.5, backend="numpy", seed=5)


class TestWriteAheadLog:
    def test_append_replay_roundtrip(self, tmp_path) -> None:
        path = tmp_path / "wal.jsonl"
        with WriteAheadLog(path, sync=False) as wal:
            wal.append(0, (3, 1, 2))
            wal.append(1, (9,))
        assert WriteAheadLog.replay(path) == [(0, (3, 1, 2)), (1, (9,))]

    def test_replay_missing_file_is_empty(self, tmp_path) -> None:
        assert WriteAheadLog.replay(tmp_path / "absent.jsonl") == []

    def test_truncate_discards_entries(self, tmp_path) -> None:
        path = tmp_path / "wal.jsonl"
        with WriteAheadLog(path, sync=False) as wal:
            wal.append(0, (1, 2))
            wal.truncate()
            wal.append(1, (3, 4))
        assert WriteAheadLog.replay(path) == [(1, (3, 4))]

    def test_torn_final_line_dropped(self, tmp_path) -> None:
        path = tmp_path / "wal.jsonl"
        with WriteAheadLog(path, sync=False) as wal:
            wal.append(0, (1, 2))
        with open(path, "ab") as handle:
            handle.write(b'{"id": 1, "tok')  # the crash hit mid-append
        assert WriteAheadLog.replay(path) == [(0, (1, 2))]

    def test_store_recovers_through_repeated_torn_tail_crashes(self, tmp_path) -> None:
        # End-to-end regression for the glue bug: tear the WAL, recover,
        # insert (acknowledged), tear down again — both inserts must survive.
        store = PersistentIndexStore(tmp_path / "state", sync=False)
        index, _ = store.load(make_index)
        store.log_insert(index.insert((7, 8, 9)), (7, 8, 9))
        store.close()
        with open(store.wal_path, "ab") as handle:
            handle.write(b'{"id": 4, "tok')  # crash tears a second append

        recovered_store = PersistentIndexStore(tmp_path / "state", sync=False)
        recovered, replayed = recovered_store.load(make_index)
        assert replayed == 1
        recovered_store.log_insert(recovered.insert((20, 21)), (20, 21))
        recovered_store.close()  # second kill, still no snapshot

        final_store = PersistentIndexStore(tmp_path / "state", sync=False)
        final, replayed = final_store.load(make_index)
        assert replayed == 2
        assert len(final) == len(BASE_RECORDS) + 2
        assert final.query((20, 21))[0][1] == 1.0
        final_store.close()

    def test_appends_after_a_torn_tail_do_not_glue_onto_it(self, tmp_path) -> None:
        # Crash mid-append, restart, new acknowledged insert, crash again:
        # the new entry must survive the second replay instead of being
        # corrupted into the torn bytes (and silently dropped as "torn").
        path = tmp_path / "wal.jsonl"
        with WriteAheadLog(path, sync=False) as wal:
            wal.append(0, (1, 2))
        with open(path, "ab") as handle:
            handle.write(b'{"id": 1, "tok')  # first crash tears this append
        entries, valid_end = WriteAheadLog.scan(path)
        assert entries == [(0, (1, 2))]
        with WriteAheadLog(path, sync=False, truncate_at=valid_end) as wal:
            wal.append(1, (3, 4))  # acknowledged after the restart
        assert WriteAheadLog.replay(path) == [(0, (1, 2)), (1, (3, 4))]

    def test_unterminated_tail_is_torn_even_if_parseable(self, tmp_path) -> None:
        path = tmp_path / "wal.jsonl"
        with WriteAheadLog(path, sync=False) as wal:
            wal.append(0, (1, 2))
        with open(path, "ab") as handle:
            handle.write(b'{"id": 1, "tokens": [3]}')  # no newline: torn
        entries, valid_end = WriteAheadLog.scan(path)
        assert entries == [(0, (1, 2))]
        assert valid_end == len(b'{"id":0,"tokens":[1,2]}\n')

    def test_corruption_before_the_tail_is_refused(self, tmp_path) -> None:
        path = tmp_path / "wal.jsonl"
        with open(path, "wb") as handle:
            handle.write(b"garbage\n")
            handle.write(b'{"id": 0, "tokens": [1]}\n')
        with pytest.raises(WalCorruptionError):
            WriteAheadLog.replay(path)

    def test_terminated_undecodable_final_line_is_corruption_not_torn(self, tmp_path) -> None:
        # Appends write `line + \n` in one call, so a crash can only leave
        # an *unterminated* tail; a newline-terminated garbage line means an
        # acknowledged entry was corrupted externally — refuse, don't drop.
        path = tmp_path / "wal.jsonl"
        with WriteAheadLog(path, sync=False) as wal:
            wal.append(0, (1, 2))
        with open(path, "ab") as handle:
            handle.write(b"garbage\n")
        with pytest.raises(WalCorruptionError):
            WriteAheadLog.replay(path)


class TestUntrustedEntries:
    """A WAL entry replays only as exactly what ``append`` wrote."""

    @pytest.mark.parametrize(
        "line",
        [
            b'{"id": 0, "tokens": [1.5, true, "7"]}',
            b'{"id": 0, "tokens": [1.0]}',
            b'{"id": 0, "tokens": [true]}',
            b'{"id": 0, "tokens": ["7"]}',
            b'{"id": 0, "tokens": [9223372036854775808]}',
            b'{"id": 0, "tokens": "12"}',
            b'{"id": 0, "tokens": {"1": 2}}',
            b'{"id": 0, "tokens": [[1]]}',
            b'{"id": 0.0, "tokens": [1]}',
            b'{"id": true, "tokens": [1]}',
            b'{"id": "0", "tokens": [1]}',
            b'{"id": 0}',
            b'{"tokens": [1]}',
            b"[0, [1]]",
            b"null",
            b"[" * 50_000,
            b'{"id": ' + b"9" * 5_000 + b', "tokens": [1]}',
        ],
        ids=["mixed", "float", "bool", "string", "int64-overflow", "tokens-string",
             "tokens-object", "nested", "float-id", "bool-id", "string-id", "no-tokens",
             "no-id", "array", "null", "deep", "huge-id"],
    )
    def test_malformed_terminated_entry_is_corruption(self, tmp_path, line) -> None:
        path = tmp_path / "wal.jsonl"
        with WriteAheadLog(path, sync=False) as wal:
            wal.append(0, (1, 2))
        with open(path, "ab") as handle:
            handle.write(line + b"\n")
        with pytest.raises(WalCorruptionError, match="line 2"):
            WriteAheadLog.scan(path)

    @settings(
        max_examples=200,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        record_id=_JSON,
        tokens=_JSON,
        garbage=st.binary(max_size=60).map(lambda raw: raw.replace(b"\n", b"")),
        raw=st.booleans(),
    )
    def test_fuzzed_terminated_entry(self, tmp_path, record_id, tokens, garbage, raw) -> None:
        path = tmp_path / "fuzz.jsonl"
        line = garbage if raw else json.dumps({"id": record_id, "tokens": tokens}).encode()
        path.write_bytes(b'{"id":0,"tokens":[1,2]}\n' + line + b"\n")
        try:
            entries, valid_end = WriteAheadLog.scan(path)
        except WalCorruptionError:
            return
        # Accepted only if the line is what append() itself would write.
        assert entries[0] == (0, (1, 2)) and len(entries) == 2
        entry_id, entry_tokens = entries[1]
        assert type(entry_id) is int and all(type(token) is int for token in entry_tokens)
        assert json.loads(line) == {"id": entry_id, "tokens": list(entry_tokens)}
        assert valid_end == path.stat().st_size

    @settings(
        max_examples=200,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(tail=st.binary(max_size=80).map(lambda raw: raw.replace(b"\n", b"")))
    def test_fuzzed_torn_tail_is_tolerated(self, tmp_path, tail) -> None:
        path = tmp_path / "torn.jsonl"
        path.unlink(missing_ok=True)
        with WriteAheadLog(path, sync=False) as wal:
            wal.append(0, (1, 2))
            wal.append(1, (-3,))
        prefix = path.stat().st_size
        with open(path, "ab") as handle:
            handle.write(tail)
        assert WriteAheadLog.scan(path) == ([(0, (1, 2)), (1, (-3,))], prefix)


class TestPersistentIndexStore:
    def test_fresh_store_builds_from_factory(self, tmp_path) -> None:
        store = PersistentIndexStore(tmp_path / "state", sync=False)
        index, replayed = store.load(make_index)
        assert replayed == 0
        assert len(index) == len(BASE_RECORDS)
        store.close()

    def test_kill_without_snapshot_replays_wal(self, tmp_path) -> None:
        store = PersistentIndexStore(tmp_path / "state", sync=False)
        index, _ = store.load(make_index)
        store.log_insert(index.insert((7, 8, 9)), (7, 8, 9))
        store.log_insert(index.insert((1, 2, 3)), (1, 2, 3))
        expected = index.query_batch([(7, 8, 9), (1, 2, 3, 4)])
        store.close()  # process killed: no snapshot was ever written

        recovered_store = PersistentIndexStore(tmp_path / "state", sync=False)
        recovered, replayed = recovered_store.load(make_index)
        assert replayed == 2
        assert len(recovered) == len(BASE_RECORDS) + 2
        assert recovered.query_batch([(7, 8, 9), (1, 2, 3, 4)]) == expected
        recovered_store.close()

    def test_snapshot_truncates_wal(self, tmp_path) -> None:
        store = PersistentIndexStore(tmp_path / "state", sync=False)
        index, _ = store.load(make_index)
        store.log_insert(index.insert((7, 8, 9)), (7, 8, 9))
        store.snapshot(index)
        assert list(store.wal_entries()) == []
        store.close()

        recovered_store = PersistentIndexStore(tmp_path / "state", sync=False)
        recovered, replayed = recovered_store.load(make_index)
        assert replayed == 0  # everything came from the snapshot
        assert len(recovered) == len(BASE_RECORDS) + 1
        recovered_store.close()

    def test_replay_is_idempotent_after_crash_between_rename_and_truncate(self, tmp_path) -> None:
        # Simulate the one dangerous window: the snapshot rename landed but
        # the WAL truncate did not.  The stale entries must replay as no-ops.
        store = PersistentIndexStore(tmp_path / "state", sync=False)
        index, _ = store.load(make_index)
        record_id = index.insert((7, 8, 9))
        store.log_insert(record_id, (7, 8, 9))
        index.save(store.snapshot_path)  # snapshot rename "happened"
        store.close()  # ... and the crash hit before truncate

        recovered_store = PersistentIndexStore(tmp_path / "state", sync=False)
        recovered, replayed = recovered_store.load(make_index)
        assert replayed == 0  # the stale WAL entry was skipped, not re-inserted
        assert len(recovered) == len(BASE_RECORDS) + 1
        recovered_store.close()

    def test_wal_gap_is_refused(self, tmp_path) -> None:
        store = PersistentIndexStore(tmp_path / "state", sync=False)
        index, _ = store.load(make_index)
        store.log_insert(len(index) + 5, (7, 8, 9))  # id far beyond the index
        store.close()
        broken_store = PersistentIndexStore(tmp_path / "state", sync=False)
        with pytest.raises(WalCorruptionError, match="gap"):
            broken_store.load(make_index)
        broken_store.close()

    def test_wal_below_factory_base_without_snapshot_is_refused(self, tmp_path) -> None:
        # No snapshot exists, so nothing can legitimately cover a WAL entry:
        # if the factory's base collection grew under the log, skipping the
        # entry would silently drop an acknowledged insert.
        store = PersistentIndexStore(tmp_path / "state", sync=False)
        index, _ = store.load(make_index)
        store.log_insert(index.insert((7, 8, 9)), (7, 8, 9))
        store.close()

        def bigger_base() -> SimilarityIndex:
            return SimilarityIndex.build(
                BASE_RECORDS + [(50, 51, 52)], 0.5, backend="numpy", seed=5
            )

        grown_store = PersistentIndexStore(tmp_path / "state", sync=False)
        with pytest.raises(WalCorruptionError, match="base collection changed"):
            grown_store.load(bigger_base)
        grown_store.close()

    def test_second_store_on_same_directory_is_refused(self, tmp_path) -> None:
        first = PersistentIndexStore(tmp_path / "state", sync=False)
        with pytest.raises(RuntimeError, match="already in use"):
            PersistentIndexStore(tmp_path / "state", sync=False)
        first.close()
        # Releasing the lock makes the directory usable again.
        second = PersistentIndexStore(tmp_path / "state", sync=False)
        second.close()

    def test_log_insert_requires_load(self, tmp_path) -> None:
        store = PersistentIndexStore(tmp_path / "state", sync=False)
        with pytest.raises(RuntimeError, match="load"):
            store.log_insert(0, (1, 2))

    def test_recovered_index_is_bit_identical_to_survivor(self, tmp_path) -> None:
        # The acceptance property behind the CI smoke leg: recovery rebuilds
        # *exactly* the index the killed process held.
        store = PersistentIndexStore(tmp_path / "state", sync=False)
        index, _ = store.load(make_index)
        for record in [(5, 6, 7), (2, 3, 4), (100, 200)]:
            store.log_insert(index.insert(record), record)
        probes = [record for record in index] + [(2, 3), (5, 6, 7, 8)]
        expected = index.query_batch(probes)
        store.close()

        recovered_store = PersistentIndexStore(tmp_path / "state", sync=False)
        recovered, _ = recovered_store.load(make_index)
        assert recovered.query_batch(probes) == expected
        recovered_store.close()

    def test_chosenpath_restart_answers_like_an_offline_build(self, tmp_path) -> None:
        # Queries between the snapshot and later inserts must not change
        # what the recovered chosenpath index answers: recovery (snapshot
        # rebuild + WAL replay) and an offline one-shot build agree.
        rng = np.random.default_rng(11)
        records = [
            tuple(sorted(rng.choice(200, size=int(rng.integers(4, 12)), replace=False).tolist()))
            for _ in range(90)
        ]
        base, later = records[:60], records[60:]

        def factory() -> SimilarityIndex:
            return SimilarityIndex.build(base, 0.5, candidates="chosenpath", seed=5)

        store = PersistentIndexStore(tmp_path / "state", sync=False)
        index, _ = store.load(factory)
        store.snapshot(index)
        index.query_batch(later)  # queries of records the index does not hold yet
        for record in later:
            store.log_insert(index.insert(record), record)
            index.query(record)
        served = index.query_batch(records)
        store.close()

        recovered_store = PersistentIndexStore(tmp_path / "state", sync=False)
        recovered, replayed = recovered_store.load(factory)
        recovered_store.close()
        offline = SimilarityIndex.build(records, 0.5, candidates="chosenpath", seed=5)
        assert replayed == len(later)
        assert recovered.query_batch(records) == served == offline.query_batch(records)
