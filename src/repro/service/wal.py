"""Durability for the serving layer: append-only WAL plus index snapshots.

A serving index lives in memory and accepts live inserts, so a crash would
otherwise lose everything inserted since the process started.  The
persistence story here is the classic snapshot + write-ahead-log pair:

* every accepted insert is appended to a JSON-lines **WAL** (one
  ``{"id": record_id, "tokens": [...]}`` object per line, flushed — and by
  default fsynced — before the insert is acknowledged), and
* periodically the index is written as a **snapshot** of its settings and
  records (:meth:`repro.index.SimilarityIndex.save`: a pickle-free archive,
  through an atomic temp-file-then-rename), after which the WAL is
  truncated.

On restart :meth:`PersistentIndexStore.load` rebuilds the index from the
newest snapshot (or builds a fresh one when none exists) and replays the
WAL on top.  Replay
is idempotent by record id: entries whose id is already covered by the
snapshot are skipped, so a crash *between* snapshot rename and WAL truncate
cannot double-insert; an id gap, which can only mean a lost or reordered
entry, is refused loudly.  A torn final line (the crash hit mid-append) is
tolerated and dropped — it was never acknowledged.

Inserts are logged with their raw token payloads; the index normalizes them
(sorted, deduplicated) identically on the live path and on replay.  An index
is a pure function of its settings and its records in order — queries change
no structure, in every candidate mode — so a recovered index is bit-for-bit
the pre-crash one.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Callable, Iterable, List, Optional, Sequence, Tuple, Union

from repro.index.similarity_index import TOKEN_INT64_MAX, TOKEN_INT64_MIN, SimilarityIndex

__all__ = ["WalCorruptionError", "WriteAheadLog", "PersistentIndexStore"]

WalEntry = Tuple[int, Tuple[int, ...]]


class WalCorruptionError(ValueError):
    """The write-ahead log is inconsistent beyond a torn final line."""


def _is_int(value: object) -> bool:
    """A JSON integer within 64-bit storage (``bool`` is not an integer here)."""
    return (
        isinstance(value, int)
        and not isinstance(value, bool)
        and TOKEN_INT64_MIN <= value <= TOKEN_INT64_MAX
    )


class WriteAheadLog:
    """Append-only JSON-lines log of inserts since the last snapshot.

    ``sync=True`` (the default) fsyncs every append before returning, which
    is what makes an acknowledged insert durable across power loss;
    ``sync=False`` trades that for throughput (the data still survives a
    process kill, just not an OS crash).
    """

    def __init__(
        self, path: Union[str, Path], sync: bool = True, truncate_at: Optional[int] = None
    ) -> None:
        self.path = Path(path)
        self.sync = sync
        self._handle = open(self.path, "ab")
        if truncate_at is not None and self._handle.tell() > truncate_at:
            # Cut off a torn tail left by a crash mid-append *before* the
            # first new append, so new entries never glue onto torn bytes
            # (which would corrupt them into the next replay's final line).
            self._handle.truncate(truncate_at)

    def append(self, record_id: int, tokens: Sequence[int]) -> None:
        """Durably log one insert (must happen before it is acknowledged)."""
        line = json.dumps(
            {"id": int(record_id), "tokens": [int(token) for token in tokens]},
            separators=(",", ":"),
        )
        self._handle.write(line.encode("utf-8") + b"\n")
        self._handle.flush()
        if self.sync:
            os.fsync(self._handle.fileno())

    def truncate(self) -> None:
        """Discard all entries (called after a successful snapshot)."""
        self._handle.truncate(0)
        self._handle.seek(0)
        self._handle.flush()
        if self.sync:
            os.fsync(self._handle.fileno())

    def close(self) -> None:
        if not self._handle.closed:
            self._handle.close()

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    @staticmethod
    def scan(path: Union[str, Path]) -> Tuple[List[WalEntry], int]:
        """Logged inserts plus the byte length of the valid prefix.

        Tolerates a torn tail — an *unterminated* final segment, the only
        shape a crash mid-append can leave, since every append writes
        ``line + b"\\n"`` in one call and partial persistence keeps a
        prefix: the torn bytes are excluded from the returned valid length,
        so the appender can truncate them away before writing anything new.
        An undecodable ``\\n``-terminated line is *not* a crash signature —
        it means external corruption of an acknowledged entry — and raises
        :class:`WalCorruptionError` wherever it sits, rather than silently
        dropping a durable insert.
        """
        path = Path(path)
        if not path.exists():
            return [], 0
        segments = path.read_bytes().split(b"\n")
        terminated = segments[:-1]  # segments[-1] is b"" or the torn tail
        entries: List[WalEntry] = []
        valid_end = 0
        for position, raw in enumerate(terminated):
            try:
                record = json.loads(raw.decode("utf-8"))
            except (ValueError, RecursionError) as error:  # UnicodeDecodeError too
                raise WalCorruptionError(
                    f"{path}: undecodable WAL entry at line {position + 1}: {error}"
                ) from error
            # Exactly what append() writes: an integer id and a list of
            # integer tokens within 64-bit storage.  Anything else (a float,
            # a bool, a digit string) would replay as a different record.
            record_id = record.get("id") if isinstance(record, dict) else None
            tokens = record.get("tokens") if isinstance(record, dict) else None
            if not (
                _is_int(record_id)
                and isinstance(tokens, list)
                and all(_is_int(token) for token in tokens)
            ):
                raise WalCorruptionError(
                    f"{path}: malformed WAL entry at line {position + 1}: expected "
                    '{"id": <integer>, "tokens": [<64-bit integer>, ...]}'
                )
            entries.append((record_id, tuple(tokens)))
            valid_end += len(raw) + 1
        return entries, valid_end

    @staticmethod
    def replay(path: Union[str, Path]) -> List[WalEntry]:
        """Read back the logged inserts, tolerating a torn final line."""
        return WriteAheadLog.scan(path)[0]


class PersistentIndexStore:
    """Snapshot + WAL lifecycle for one index, rooted in one directory.

    The directory is guarded by an advisory lock (``lock`` file,
    ``flock``-based where available): two servers pointed at the same
    ``--data-dir`` would interleave WAL appends with conflicting record ids
    and clobber each other's snapshots, so the second open fails loudly
    instead.

    Layout::

        <directory>/
            snapshot.idx    # SimilarityIndex.save() output: settings + records
            snapshot.idx.tmp# staging file (atomically renamed over the above)
            wal.jsonl       # inserts since snapshot.idx was written
            lock            # advisory single-owner lock
    """

    SNAPSHOT_NAME = "snapshot.idx"
    WAL_NAME = "wal.jsonl"
    LOCK_NAME = "lock"

    def __init__(self, directory: Union[str, Path], sync: bool = True) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.sync = sync
        self.snapshot_path = self.directory / self.SNAPSHOT_NAME
        self.wal_path = self.directory / self.WAL_NAME
        self._wal: Optional[WriteAheadLog] = None
        self._lock_handle = None
        self._acquire_lock()

    def _acquire_lock(self) -> None:
        try:
            import fcntl
        except ImportError:  # pragma: no cover - platforms without flock
            return
        handle = open(self.directory / self.LOCK_NAME, "a+")
        try:
            fcntl.flock(handle.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)
        except OSError:
            handle.close()
            raise RuntimeError(
                f"{self.directory} is already in use by another server "
                "(its advisory lock is held); two servers on one data "
                "directory would corrupt the WAL"
            ) from None
        self._lock_handle = handle

    # ------------------------------------------------------------------ recovery
    def load(self, factory: Callable[[], SimilarityIndex]) -> Tuple[SimilarityIndex, int]:
        """Recover the index: snapshot (or ``factory()``) plus WAL replay.

        Returns the recovered index and the number of WAL entries replayed
        into it.  Also opens the WAL for appending, so the caller can start
        logging immediately.
        """
        from_snapshot = self.snapshot_path.exists()
        if from_snapshot:
            index = SimilarityIndex.load(self.snapshot_path)
        else:
            index = factory()
        replayed = 0
        entries, valid_end = WriteAheadLog.scan(self.wal_path)
        for record_id, tokens in entries:
            if record_id < len(index):
                if from_snapshot:
                    continue  # already captured by the snapshot
                # No snapshot exists, so nothing can legitimately "cover" a
                # WAL entry: the factory's base collection must have grown
                # (or changed) under the log.  Skipping here would silently
                # drop an acknowledged insert — refuse instead.
                raise WalCorruptionError(
                    f"{self.wal_path}: WAL entry id {record_id} is below the "
                    f"factory-built base of {len(index)} records and no snapshot "
                    "exists; the base collection changed under the log — "
                    "refusing to recover"
                )
            if record_id > len(index):
                raise WalCorruptionError(
                    f"{self.wal_path}: WAL entry id {record_id} leaves a gap "
                    f"(index holds {len(index)} records); refusing to recover"
                )
            index.insert(tokens)
            replayed += 1
        # truncate_at drops any torn tail the crash left, so the first new
        # append starts on a clean line boundary.
        self._wal = WriteAheadLog(self.wal_path, sync=self.sync, truncate_at=valid_end)
        return index, replayed

    # ------------------------------------------------------------------ logging
    def log_insert(self, record_id: int, tokens: Sequence[int]) -> None:
        """WAL-append one insert (open the store with :meth:`load` first)."""
        if self._wal is None:
            raise RuntimeError("PersistentIndexStore.load() must run before log_insert()")
        self._wal.append(record_id, tokens)

    def snapshot(self, index: SimilarityIndex) -> Path:
        """Write a new snapshot atomically, then truncate the WAL.

        The rename is the commit point: a crash before it leaves the old
        snapshot + full WAL (replay restores everything), a crash after it
        leaves the new snapshot + stale WAL whose entries replay as no-ops
        thanks to the record-id idempotence check.
        """
        # save() itself stages, fsyncs and renames atomically.
        index.save(self.snapshot_path)
        if self.sync:
            # The rename must be durable *before* the WAL is truncated: a
            # power loss with the truncate on disk but the rename not yet
            # would leave the old snapshot and an empty WAL — silently
            # dropping every insert since the previous snapshot.
            self._fsync_directory()
        if self._wal is not None:
            self._wal.truncate()
        return self.snapshot_path

    def _fsync_directory(self) -> None:
        """Flush the directory entry (the rename) to stable storage."""
        flags = os.O_RDONLY | getattr(os, "O_DIRECTORY", 0)
        try:
            directory_fd = os.open(self.directory, flags)
        except OSError:  # pragma: no cover - platforms without dir fds
            return
        try:
            os.fsync(directory_fd)
        except OSError:  # pragma: no cover - filesystems refusing dir fsync
            pass
        finally:
            os.close(directory_fd)

    def close(self) -> None:
        if self._wal is not None:
            self._wal.close()
            self._wal = None
        if self._lock_handle is not None:
            self._lock_handle.close()  # closing the fd releases the flock
            self._lock_handle = None

    def __enter__(self) -> "PersistentIndexStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def wal_entries(self) -> Iterable[WalEntry]:
        """The currently logged entries (mainly for tests and diagnostics)."""
        return WriteAheadLog.replay(self.wal_path)
