"""Wire protocol of the similarity-search service: JSON lines over TCP.

The protocol is deliberately minimal and stdlib-only: every message is one
JSON object on one ``\\n``-terminated line (UTF-8).  Requests carry an
operation name and an optional client-chosen ``id`` that is echoed back on
the response, so a client may pipeline requests over one connection and
match responses by id (responses to coalesced queries can complete out of
order with respect to unrelated operations).

Request shapes (``id`` optional everywhere)::

    {"id": 7, "op": "query",       "record": [1, 2, 3]}
    {"id": 8, "op": "query_batch", "records": [[1, 2], [3, 4]]}
    {"id": 9, "op": "insert",      "record": [5, 6, 7]}
    {"id": 3, "op": "query_topk",  "record": [1, 2, 3], "k": 5, "floor": 0.8}
    {"op": "stats"}
    {"op": "health"}
    {"op": "metrics"}

``query_topk`` returns the first ``k`` matches of the corresponding
``query`` (which sorts by decreasing similarity, ties by id); the optional
numeric ``floor`` additionally cuts the list at the first match below it.
``k`` must be a positive integer.

Responses::

    {"id": 7, "ok": true,  "result": {"matches": [[12, 0.8], [3, 0.5]]}}
    {"id": 9, "ok": true,  "result": {"record_id": 1041}}
    {"id": 4, "ok": false, "error": "unknown operation 'qeury'"}
    {"id": 5, "ok": false, "error": "server at capacity: ...", "busy": true}

The ``busy`` flag marks an overload shed: the server refused the request at
admission time (bounded queues full) without doing any work, so — unlike
ordinary errors — the request is safe to retry with backoff.  Clients see
it as the typed :class:`repro.service.client.ServerBusyError`.

Match lists are ``[record_id, similarity]`` pairs in the exact order
:meth:`repro.index.SimilarityIndex.query_batch` returns them (decreasing
similarity, ties by id), so a client can compare a server transcript against
an offline run bit for bit.
"""

from __future__ import annotations

import json
import math
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.index.similarity_index import TOKEN_INT64_MAX, TOKEN_INT64_MIN

__all__ = [
    "OPERATIONS",
    "ProtocolError",
    "encode_message",
    "decode_message",
    "parse_request",
    "encode_matches",
    "decode_matches",
    "ok_response",
    "error_response",
    "busy_response",
]

Match = Tuple[int, float]

OPERATIONS = ("query", "query_batch", "query_topk", "insert", "stats", "health", "metrics")
"""Operations a server must answer."""

MAX_LINE_BYTES = 32 * 1024 * 1024
"""Upper bound on one encoded message (guards the server's readline buffer)."""


class ProtocolError(ValueError):
    """A message violated the wire protocol (not valid JSON, bad shape...)."""


def encode_message(message: Dict[str, Any]) -> bytes:
    """Serialize one message to its wire form (one JSON line, UTF-8)."""
    return (json.dumps(message, separators=(",", ":")) + "\n").encode("utf-8")


def decode_message(line: bytes) -> Dict[str, Any]:
    """Parse one wire line back into a message dict.

    Every line that does not decode to a JSON object raises
    :class:`ProtocolError`: besides invalid UTF-8 and invalid JSON, that
    covers nesting deeper than the parser's recursion limit and integers
    beyond Python's digit limit for string conversion.
    """
    if len(line) > MAX_LINE_BYTES:
        raise ProtocolError(f"message of {len(line)} bytes exceeds the {MAX_LINE_BYTES} limit")
    try:
        message = json.loads(line.decode("utf-8"))
    except (ValueError, RecursionError) as error:  # UnicodeDecodeError, JSONDecodeError too
        raise ProtocolError(f"malformed message: {error}") from error
    if not isinstance(message, dict):
        raise ProtocolError(f"message must be a JSON object, got {type(message).__name__}")
    return message


def _brief(value: Any) -> str:
    """A bounded description of a client value, for an error message."""
    if isinstance(value, (list, dict)):
        return f"a JSON {'array' if isinstance(value, list) else 'object'}"
    text = repr(value)
    return text if len(text) <= 40 else text[:37] + "..."


def _record_tokens(value: Any, what: str) -> List[int]:
    if not isinstance(value, (list, tuple)):
        raise ProtocolError(f"{what} must be a list of integer tokens")
    tokens: List[int] = []
    for token in value:
        if isinstance(token, bool) or not isinstance(token, int):
            raise ProtocolError(f"{what} must contain only integers, got {_brief(token)}")
        if token < TOKEN_INT64_MIN or token > TOKEN_INT64_MAX:
            # The index's storage bound, rejected at the wire so one bad
            # query can never poison the coalesced batch it would ride in.
            raise ProtocolError(f"{what} token {_brief(token)} does not fit 64-bit token storage")
        tokens.append(token)
    return tokens


def parse_request(message: Dict[str, Any]) -> Dict[str, Any]:
    """Validate a decoded request; returns ``{op, id, record(s)}``.

    Raises :class:`ProtocolError` (carrying a client-presentable message) on
    unknown operations and malformed payloads, so the server can answer with
    an error response instead of dropping the connection.
    """
    operation = message.get("op")
    if operation not in OPERATIONS:
        raise ProtocolError(f"unknown operation {_brief(operation)}; expected one of {OPERATIONS}")
    request_id = message.get("id")
    if request_id is not None and not isinstance(request_id, (int, str)):
        raise ProtocolError("request id must be an integer or a string")
    request: Dict[str, Any] = {"op": operation, "id": request_id}
    if operation in ("query", "insert", "query_topk"):
        if "record" not in message:
            raise ProtocolError(f"operation {operation!r} requires a 'record' field")
        request["record"] = _record_tokens(message["record"], "'record'")
        if operation == "query_topk":
            k = message.get("k")
            if isinstance(k, bool) or not isinstance(k, int) or k < 1:
                raise ProtocolError(
                    "operation 'query_topk' requires a positive integer 'k'"
                )
            request["k"] = k
            floor = message.get("floor")
            if floor is not None:
                # NaN would cut nothing and an infinite floor everything:
                # neither is a similarity.
                if isinstance(floor, bool) or not isinstance(floor, (int, float)):
                    raise ProtocolError("'floor' must be a number")
                try:
                    floor = float(floor)
                except OverflowError:  # an integer beyond the float range
                    floor = math.inf
                if not math.isfinite(floor):
                    raise ProtocolError(f"'floor' must be finite, got {floor!r}")
            request["floor"] = floor
    elif operation == "query_batch":
        records = message.get("records")
        if not isinstance(records, (list, tuple)):
            raise ProtocolError("operation 'query_batch' requires a 'records' list")
        request["records"] = [
            _record_tokens(record, f"'records[{position}]'")
            for position, record in enumerate(records)
        ]
    return request


def encode_matches(matches: Sequence[Match]) -> List[List[float]]:
    """Match tuples -> JSON-serializable ``[record_id, similarity]`` pairs."""
    return [[int(record_id), float(similarity)] for record_id, similarity in matches]


def decode_matches(payload: Sequence[Sequence[float]]) -> List[Match]:
    """The client-side inverse of :func:`encode_matches`."""
    return [(int(record_id), float(similarity)) for record_id, similarity in payload]


def ok_response(request_id: Optional[Any], result: Dict[str, Any]) -> Dict[str, Any]:
    """A success response echoing the request id."""
    return {"id": request_id, "ok": True, "result": result}


def error_response(request_id: Optional[Any], error: str) -> Dict[str, Any]:
    """An error response echoing the request id."""
    return {"id": request_id, "ok": False, "error": str(error)}


def busy_response(request_id: Optional[Any], error: str) -> Dict[str, Any]:
    """An overload shed: an error response flagged ``busy`` (safe to retry)."""
    return {"id": request_id, "ok": False, "error": str(error), "busy": True}
