"""Online similarity-search service over :class:`repro.index.SimilarityIndex`.

The batch joins and the offline index cover the paper's workload; this
subpackage is the serving layer the ROADMAP's production north star asks
for — a long-lived process that keeps an index resident, answers point
lookups and live inserts over the wire, and survives being killed:

* :mod:`repro.service.protocol` — the stdlib-only JSON-lines wire protocol
  (``query`` / ``query_batch`` / ``insert`` / ``stats`` / ``health``).
* :mod:`repro.service.coalescer` — the request coalescer micro-batching
  concurrent point queries into single ``query_batch`` calls, so the
  vectorized kernels are amortized across users.
* :mod:`repro.service.admission` — the overload policy: bounded admission
  (in-flight slots + a bounded wait queue) shedding excess load with
  ``busy`` responses instead of letting queues and latency grow without
  bound.
* :mod:`repro.service.wal` — snapshot + write-ahead-log persistence with
  idempotent, torn-tail-tolerant replay.
* :mod:`repro.service.server` — the asyncio server tying it together: one
  engine thread serializes all index access, a writer queue orders inserts,
  WAL-then-acknowledge makes them durable.
* :mod:`repro.service.client` — the blocking client used by the tests, the
  CI smoke leg, the ``perfbench`` serve workloads and the examples.

Because coalescing only reschedules work, a server transcript is
bit-identical to offline ``SimilarityIndex.query_batch`` over the same
records — the property the test suite and the CI smoke leg assert.
"""

from repro.service.admission import AdmissionGate, ServerOverloadedError
from repro.service.client import ServerBusyError, ServiceClient, ServiceError, retry_busy
from repro.service.coalescer import QueryCoalescer
from repro.service.protocol import ProtocolError
from repro.service.server import ServerHandle, SimilarityServer, serve_in_thread
from repro.service.wal import PersistentIndexStore, WalCorruptionError, WriteAheadLog

__all__ = [
    "AdmissionGate",
    "ServerOverloadedError",
    "ServiceClient",
    "ServiceError",
    "ServerBusyError",
    "retry_busy",
    "QueryCoalescer",
    "ProtocolError",
    "SimilarityServer",
    "ServerHandle",
    "serve_in_thread",
    "PersistentIndexStore",
    "WalCorruptionError",
    "WriteAheadLog",
]
