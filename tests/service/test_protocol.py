"""Tests for the JSON-lines wire protocol."""

from __future__ import annotations

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.index.similarity_index import TOKEN_INT64_MAX, TOKEN_INT64_MIN
from repro.service.protocol import (
    OPERATIONS,
    ProtocolError,
    decode_matches,
    decode_message,
    encode_matches,
    encode_message,
    error_response,
    ok_response,
    parse_request,
)


class TestMessageFraming:
    def test_roundtrip(self) -> None:
        message = {"id": 3, "op": "query", "record": [1, 2, 3]}
        assert decode_message(encode_message(message)) == message

    def test_one_line_per_message(self) -> None:
        assert encode_message({"op": "health"}).endswith(b"\n")
        assert encode_message({"op": "health"}).count(b"\n") == 1

    def test_malformed_json_rejected(self) -> None:
        with pytest.raises(ProtocolError):
            decode_message(b"{not json}\n")

    def test_non_object_rejected(self) -> None:
        with pytest.raises(ProtocolError):
            decode_message(b"[1, 2, 3]\n")

    def test_non_utf8_rejected(self) -> None:
        with pytest.raises(ProtocolError):
            decode_message(b"\xff\xfe{}\n")


class TestParseRequest:
    def test_query_shape(self) -> None:
        request = parse_request({"id": 9, "op": "query", "record": [3, 1, 2]})
        assert request == {"op": "query", "id": 9, "record": [3, 1, 2]}

    def test_query_batch_shape(self) -> None:
        request = parse_request({"op": "query_batch", "records": [[1], [2, 3]]})
        assert request["records"] == [[1], [2, 3]]
        assert request["id"] is None

    @pytest.mark.parametrize("operation", OPERATIONS)
    def test_every_operation_parses(self, operation) -> None:
        message = {"op": operation}
        if operation in ("query", "insert"):
            message["record"] = [1]
        elif operation == "query_topk":
            message["record"] = [1]
            message["k"] = 3
        elif operation == "query_batch":
            message["records"] = [[1]]
        assert parse_request(message)["op"] == operation

    def test_unknown_operation_rejected(self) -> None:
        with pytest.raises(ProtocolError, match="unknown operation"):
            parse_request({"op": "qeury", "record": [1]})

    def test_missing_record_rejected(self) -> None:
        with pytest.raises(ProtocolError, match="requires a 'record'"):
            parse_request({"op": "insert"})

    def test_non_integer_tokens_rejected(self) -> None:
        with pytest.raises(ProtocolError, match="only integers"):
            parse_request({"op": "query", "record": [1, "two"]})
        with pytest.raises(ProtocolError, match="only integers"):
            parse_request({"op": "query", "record": [True]})

    def test_records_must_be_a_list(self) -> None:
        with pytest.raises(ProtocolError, match="'records' list"):
            parse_request({"op": "query_batch", "records": 7})

    def test_request_id_type_checked(self) -> None:
        with pytest.raises(ProtocolError, match="request id"):
            parse_request({"op": "health", "id": 1.5})


class TestMatchEncoding:
    def test_roundtrip_preserves_order_and_values(self) -> None:
        matches = [(12, 0.8), (3, 0.5), (7, 0.5)]
        assert decode_matches(encode_matches(matches)) == matches

    def test_responses_echo_ids(self) -> None:
        assert ok_response(4, {"matches": []}) == {"id": 4, "ok": True, "result": {"matches": []}}
        failed = error_response("abc", "boom")
        assert failed["id"] == "abc" and failed["ok"] is False and failed["error"] == "boom"


def _decode_and_parse(line: bytes):
    """The server's view of one line: a parsed request, or None on ProtocolError."""
    try:
        return parse_request(decode_message(line))
    except ProtocolError:
        return None


def _assert_well_formed(request) -> None:
    """What the server may rely on once a line parsed."""
    assert request["op"] in OPERATIONS
    assert request["id"] is None or isinstance(request["id"], (int, str))
    for record in [request.get("record", [])] + list(request.get("records", [])):
        for token in record:
            assert type(token) is int and TOKEN_INT64_MIN <= token <= TOKEN_INT64_MAX
    if request["op"] == "query_topk":
        assert type(request["k"]) is int and request["k"] >= 1
        assert request["floor"] is None or math.isfinite(request["floor"])


_JSON = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(),
        st.integers(min_value=2**63 - 2, max_value=2**70),
        st.floats(allow_nan=True, allow_infinity=True),
        st.text(max_size=6),
    ),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(max_size=4), children, max_size=3),
    ),
    max_leaves=10,
)
"""Any JSON value Python's encoder writes, NaN and Infinity included."""

_TOKENS = st.lists(st.integers(min_value=TOKEN_INT64_MIN, max_value=TOKEN_INT64_MAX), max_size=5)


class TestUntrustedLines:
    """Every line a client can send either parses or raises ProtocolError."""

    @pytest.mark.parametrize(
        "line",
        [
            b"[" * 50_000,
            b'{"op":"query","record":' + b"[" * 50_000,
            b'{"id":' + b"9" * 5_000 + b',"op":"health"}',
            b'{"op":"query","record":[' + b"1" * 5_000 + b"]}",
            b'{"op":"query_topk","record":[1],"k":' + b"1" * 5_000 + b"}",
            b'{"op":"query","record":[' + b"[" * 900 + b"]" * 900 + b"]}",
            b'{"op":' + b"[" * 900 + b"]" * 900 + b"}",
        ],
        ids=["deep-array", "deep-record", "huge-id", "huge-token", "huge-k", "nested-token",
             "nested-op"],
    )
    def test_hostile_lines_raise_protocol_error(self, line) -> None:
        with pytest.raises(ProtocolError) as raised:
            parse_request(decode_message(line))
        assert len(str(raised.value)) < 500  # error messages stay bounded

    @pytest.mark.parametrize(
        "floor", [b"NaN", b"Infinity", b"-Infinity", b"1e400", b"1" + b"0" * 400]
    )
    def test_non_finite_floor_refused(self, floor) -> None:
        line = b'{"op":"query_topk","record":[1],"k":2,"floor":' + floor + b"}"
        with pytest.raises(ProtocolError, match="'floor' must be finite"):
            parse_request(decode_message(line))

    def test_finite_floor_accepted_as_float(self) -> None:
        request = parse_request({"op": "query_topk", "record": [1], "k": 2, "floor": 1})
        assert request["floor"] == 1.0 and isinstance(request["floor"], float)

    @settings(max_examples=300, deadline=None)
    @given(data=st.binary(max_size=200))
    def test_random_bytes(self, data) -> None:
        request = _decode_and_parse(data)
        if request is not None:
            _assert_well_formed(request)

    @settings(max_examples=300, deadline=None)
    @given(text=st.text(alphabet='[]{}":,0123456789eE.-+ NaIfinityrueslop', max_size=80))
    def test_json_like_text(self, text) -> None:
        request = _decode_and_parse(text.encode("utf-8"))
        if request is not None:
            _assert_well_formed(request)

    @settings(max_examples=300, deadline=None)
    @given(
        position=st.integers(min_value=0),
        cut=st.integers(min_value=0, max_value=6),
        fragment=st.sampled_from(
            [b"[" * 50_000, b"{" * 50_000, b"9" * 5_000, b"NaN", b"-Infinity", b"1e400",
             b"true", b"null", b'"', b"\xff", b"{}", b"[[[]]]", b"\n"]
        ),
    )
    def test_hostile_fragment_spliced_into_a_request(self, position, cut, fragment) -> None:
        line = b'{"id":1,"op":"query_topk","record":[1,2,3],"k":2,"floor":0.5}'
        position %= len(line) + 1
        request = _decode_and_parse(line[:position] + fragment + line[position + cut :])
        if request is not None:
            _assert_well_formed(request)

    @settings(max_examples=400, deadline=None)
    @given(
        fields=st.fixed_dictionaries(
            {},
            optional={
                "id": st.one_of(st.integers(), st.text(max_size=4), _JSON),
                "record": st.one_of(_TOKENS, _JSON),
                "records": st.one_of(st.lists(_TOKENS, max_size=3), _JSON),
                "k": st.one_of(st.integers(min_value=1, max_value=9), _JSON),
                "floor": st.one_of(st.floats(), _JSON),
            },
        ),
        op=st.one_of(st.sampled_from(OPERATIONS), _JSON),
    )
    def test_wrong_field_types(self, fields, op) -> None:
        line = json.dumps({"op": op, **fields}).encode("utf-8")  # NaN/Infinity as Python writes them
        request = _decode_and_parse(line)
        if request is not None:
            _assert_well_formed(request)
