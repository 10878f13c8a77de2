"""Tests for the cluster wire protocol (repro.serve.cluster.wire).

Every byte a shard worker reads goes through this codec, so it gets the
heaviest scrutiny in the tier: property-based round-trips over the
typed value space (the replica-lockstep guarantees depend on values
surviving the wire *exactly* — tuple vs list, dict order, float bits),
plus frame-level header validation.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve.cluster.shm import SharedArraySpec, ShmArtifactHandle
from repro.serve.cluster.wire import (
    HEADER_SIZE,
    KIND_REQUEST,
    OPS,
    WIRE_MAGIC,
    WIRE_VERSION,
    WIRE_VERSION_MIN,
    Reply,
    Request,
    WireError,
    decode_frame,
    decode_value,
    encode_reply,
    encode_request,
    encode_value,
    frame_size,
    parse_header,
)


def wire_equal(a, b) -> bool:
    """Structural equality that distinguishes what the wire must:
    container types, dict order, NaN, and ndarray payloads."""
    if type(a) is not type(b):
        return False
    if isinstance(a, dict):
        return (list(a.keys()) == list(b.keys())
                and all(wire_equal(a[k], b[k]) for k in a))
    if isinstance(a, (list, tuple)):
        return (len(a) == len(b)
                and all(wire_equal(x, y) for x, y in zip(a, b)))
    if isinstance(a, np.ndarray):
        return (a.dtype == b.dtype and a.shape == b.shape
                and np.array_equal(a, b, equal_nan=(a.dtype.kind == "f")))
    if isinstance(a, float):
        return (math.isnan(a) and math.isnan(b)) or a == b
    return a == b


# Scalars whose round-trip must be exact (no ndarray here: hypothesis
# shrinking plus array equality gets its own strategy below).
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2 ** 80), max_value=2 ** 80),  # incl. bigint
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=64),
    st.binary(max_size=64),
)

values = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=8), children, max_size=4),
    ),
    max_leaves=20,
)


class TestValueCodec:
    @settings(max_examples=200, deadline=None)
    @given(values)
    def test_roundtrip_property(self, value):
        assert wire_equal(decode_value(encode_value(value)), value)

    def test_distinguishes_tuple_from_list(self):
        assert decode_value(encode_value((1, 2))) == (1, 2)
        assert isinstance(decode_value(encode_value((1, 2))), tuple)
        assert isinstance(decode_value(encode_value([1, 2])), list)

    def test_preserves_dict_insertion_order(self):
        d = {"z": 1, "a": 2, "m": 3}
        assert list(decode_value(encode_value(d)).keys()) == ["z", "a", "m"]

    @pytest.mark.parametrize("dtype", ["float64", "float32", "int64",
                                       "int32", "uint8", "bool"])
    def test_ndarray_roundtrip(self, dtype):
        rng = np.random.default_rng(7)
        arr = (rng.uniform(-5, 5, (3, 4)) * 10).astype(dtype)
        back = decode_value(encode_value(arr))
        assert isinstance(back, np.ndarray)
        assert back.dtype == arr.dtype and back.shape == arr.shape
        assert np.array_equal(back, arr)

    def test_zero_dim_and_empty_ndarray(self):
        for arr in (np.float64(3.5) * np.ones(()), np.empty((0, 4))):
            back = decode_value(encode_value(np.asarray(arr)))
            assert back.shape == np.asarray(arr).shape

    def test_numpy_scalars_normalize_to_python(self):
        assert decode_value(encode_value(np.int64(7))) == 7
        assert isinstance(decode_value(encode_value(np.int64(7))), int)
        assert decode_value(encode_value(np.bool_(True))) is True
        assert decode_value(encode_value(np.float32(0.5))) == 0.5

    def test_float_bits_survive(self):
        for x in (0.1 + 0.2, 1e-308, -0.0, float("inf")):
            back = decode_value(encode_value(x))
            assert math.copysign(1, back) == math.copysign(1, x)
            assert back == x or (math.isnan(back) and math.isnan(x))

    def test_shm_handle_roundtrip(self):
        handle = ShmArtifactHandle(
            shm_name="psm_test", name="m", kind="tree_classifier",
            n_features=5, n_outputs=1, content_hash="c" * 16,
            source=None, meta={"depth": 3},
            arrays=(SharedArraySpec("feature", "int32", (7,), 0),),
            total_bytes=28, transport_hash="t" * 16,
        )
        back = decode_value(encode_value(handle))
        assert back == handle

    def test_retired_tag_stays_unknown(self):
        # Tag 13 tagged a socket-only artifact shipment; it is retired,
        # not reused, so the pickle escape hatch keeps tag 14.
        with pytest.raises(WireError, match="unknown value tag 13"):
            decode_value(bytes([13]))
        assert encode_value(complex(1, 2))[0] == 14


class TestFrames:
    @pytest.mark.parametrize("op", OPS)
    def test_request_roundtrip_every_op(self, op):
        req = Request(msg_id=42, op=op, payload=("x", 1))
        back = decode_frame(encode_request(req))
        assert isinstance(back, Request)
        assert (back.msg_id, back.op, back.payload) == (42, op, ("x", 1))

    @pytest.mark.parametrize("ok", [True, False])
    def test_reply_roundtrip(self, ok):
        reply = Reply(msg_id=7, ok=ok, payload={"service_s": 0.25})
        back = decode_frame(encode_reply(reply))
        assert isinstance(back, Reply)
        assert (back.msg_id, back.ok, back.payload) == (
            7, ok, {"service_s": 0.25}
        )

    def test_header_carries_length_and_msg_id(self):
        frame = encode_request(Request(99, "ping", None))
        kind, body_len, msg_id = parse_header(frame[:HEADER_SIZE])
        assert kind == KIND_REQUEST
        assert msg_id == 99
        assert frame_size(frame[:HEADER_SIZE]) == len(frame)
        assert len(frame) == HEADER_SIZE + body_len

    def test_bad_magic_rejected(self):
        frame = bytearray(encode_request(Request(1, "ping", None)))
        frame[0:2] = b"XX"
        with pytest.raises(WireError):
            parse_header(bytes(frame[:HEADER_SIZE]))

    def test_bad_version_rejected(self):
        frame = bytearray(encode_request(Request(1, "ping", None)))
        frame[2] = WIRE_VERSION + 1
        with pytest.raises(WireError):
            parse_header(bytes(frame[:HEADER_SIZE]))

    def test_truncated_frame_rejected(self):
        frame = encode_request(Request(1, "describe", None))
        with pytest.raises(WireError):
            decode_frame(frame[:-1])

    def test_trailing_garbage_rejected(self):
        frame = encode_request(Request(1, "describe", None))
        with pytest.raises(WireError):
            decode_frame(frame + b"\x00")

    def test_unknown_op_rejected(self):
        with pytest.raises(WireError):
            encode_request(Request(1, "no_such_op", None))

    def test_magic_is_stable(self):
        # The constant is part of the protocol: changing it (or the
        # version) breaks mixed-version fleets and must be deliberate.
        # v2 added the optional trace field to request frames; v1
        # remains the floor every peer must still decode.
        assert WIRE_MAGIC == b"RW"
        assert WIRE_VERSION == 2
        assert WIRE_VERSION_MIN == 1

    def test_predict_batch_payload(self):
        x = np.arange(12, dtype=float).reshape(3, 4)
        frame = encode_request(Request(5, "predict", ("toy/prod", x)))
        back = decode_frame(frame)
        ref, got = back.payload
        assert ref == "toy/prod"
        assert np.array_equal(got, x) and got.dtype == x.dtype


class TestTraceField:
    """The v2 trace field and its backward-compatibility contract."""

    def test_untraced_request_is_v1_byte_identical(self):
        # A fleet with tracing off must emit the exact bytes a v1 peer
        # expects — the upgrade is invisible until a trace is attached.
        frame = encode_request(Request(7, "predict", ("m", [1.0, 2.0])))
        assert frame[2] == WIRE_VERSION_MIN
        back = decode_frame(frame)
        assert back.trace is None

    def test_reply_is_always_v1(self):
        # Replies never carry a trace (workers return durations in the
        # payload), so they stay decodable by the oldest parent.
        frame = encode_reply(Reply(7, True, {"service_s": 0.1}))
        assert frame[2] == WIRE_VERSION_MIN

    def test_traced_request_roundtrip(self):
        x = np.arange(8, dtype=float).reshape(2, 4)
        trace = {"trace_ids": [3, 11]}
        frame = encode_request(
            Request(9, "predict", ("m", x), trace=trace)
        )
        assert frame[2] == WIRE_VERSION
        back = decode_frame(frame)
        assert back.trace == trace
        ref, got = back.payload
        assert ref == "m" and np.array_equal(got, x)

    @settings(max_examples=50, deadline=None)
    @given(values)
    def test_trace_value_space_roundtrip(self, trace):
        # The trace slot takes any wire value; None means "no trace"
        # and collapses back to a v1 frame.
        frame = encode_request(Request(1, "ping", None, trace=trace))
        back = decode_frame(frame)
        if trace is None:
            assert frame[2] == WIRE_VERSION_MIN and back.trace is None
        else:
            assert frame[2] == WIRE_VERSION
            assert wire_equal(back.trace, trace)

    def test_v1_peer_rejects_traced_frame(self):
        # A v1 peer pins version == 1; the v2 byte must fail its header
        # check loudly instead of being misread as a v1 body.
        frame = encode_request(
            Request(2, "predict", ("m", [0.5]), trace={"trace_ids": [1]})
        )
        assert frame[2] != WIRE_VERSION_MIN  # v1 check would reject

    def test_metrics_snapshot_op_roundtrip(self):
        # The op added for worker metric pulls rides the normal codec.
        frame = encode_request(Request(3, "metrics_snapshot", None))
        back = decode_frame(frame)
        assert back.op == "metrics_snapshot" and back.payload is None
