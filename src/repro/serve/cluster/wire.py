"""Versioned binary wire protocol between the parent and its shards.

The protocol is explicit rather than left to ``multiprocessing``'s
pickling, so every byte a worker reads is one the codec defines:

* **frames** — every message is one self-delimiting frame: a fixed
  16-byte header (magic, protocol version, kind, body length, message
  id) followed by the body.  The version byte is checked on every
  decode, so a mixed-version fleet fails loudly instead of
  misinterpreting bytes;
* **typed messages** — :class:`Request` (op + payload) and
  :class:`Reply` (ok + payload) with a fixed op registry
  (:data:`OPS`: publish / alias / retire / split / predict / describe
  / stop and friends).  Unknown ops and unknown type tags raise
  :class:`WireError`;
* **a typed value codec** — payloads are encoded with explicit type
  tags (None, bools, ints, floats, str, bytes, tuple/list/dict,
  numpy arrays with dtype+shape, :class:`ShmArtifactHandle`), with
  pickle only as the escape hatch for exotic values (e.g. a teacher
  artifact's closure state).  The codec round-trips exactly — the
  elastic tier's byte-identical replica-state comparisons run over
  decoded values — and is property-tested in ``tests/test_wire.py``.
"""

from __future__ import annotations

import pickle
import struct
from dataclasses import dataclass
from typing import Any, Union

import numpy as np

from repro.serve.cluster.shm import SharedArraySpec, ShmArtifactHandle

#: First two bytes of every frame ("repro wire").
WIRE_MAGIC = b"RW"
#: Highest protocol version this side speaks, checked on every decode.
#: Version 2 adds an optional trace field to request frames (body =
#: op code + typed trace value + typed payload).  Encoding is
#: conservative: frames that carry no trace — and every reply — are
#: still emitted as version 1, byte-identical to the version-1 codec,
#: so a mixed-version fleet interoperates until tracing is actually
#: switched on.  Decoding accepts both versions.
WIRE_VERSION = 2
#: Oldest version still decoded (and the on-wire version of every
#: untraced frame).
WIRE_VERSION_MIN = 1

#: Frame kinds (header byte 3).
KIND_REQUEST = 0
KIND_REPLY_OK = 1
KIND_REPLY_ERR = 2

#: magic(2) | version(1) | kind(1) | body length(4) | message id(8).
_HEADER = struct.Struct("!2sBBIQ")
HEADER_SIZE = _HEADER.size

#: The complete op registry; requests carry the op as a 1-byte code.
OPS = (
    "publish", "publish_tombstone", "rollback_publish", "alias",
    "retire", "predict", "set_split", "clear_split", "metrics",
    "shadow_report", "describe", "ping", "stop", "backend_report",
    "metrics_snapshot", "events_since", "capture_drain", "kernel",
)
_OP_CODES = {op: index + 1 for index, op in enumerate(OPS)}
_CODE_OPS = {code: op for op, code in _OP_CODES.items()}


class WireError(ValueError):
    """Malformed frame: bad magic, version mismatch, truncated body,
    unknown op code, or an unknown value tag."""


@dataclass(frozen=True)
class Request:
    """One control/data-plane request (parent -> worker).

    ``trace`` is the optional observability context (version 2): a
    plain typed value — in practice a small dict with the trace id —
    forwarded verbatim so the worker can continue a sampled trace.
    ``None`` (the default) keeps the frame on the version-1 encoding.
    """

    msg_id: int
    op: str
    payload: Any = None
    trace: Any = None


@dataclass(frozen=True)
class Reply:
    """One response (worker -> parent); ``payload`` is the result when
    ``ok`` and the error text otherwise."""

    msg_id: int
    ok: bool
    payload: Any = None


# -- typed value codec ----------------------------------------------------
_T_NONE = 0
_T_TRUE = 1
_T_FALSE = 2
_T_INT = 3       # 8-byte signed big-endian
_T_BIGINT = 4    # decimal string (outside int64 range)
_T_FLOAT = 5     # IEEE-754 double
_T_STR = 6
_T_BYTES = 7
_T_TUPLE = 8
_T_LIST = 9
_T_DICT = 10
_T_NDARRAY = 11  # dtype + shape + C-contiguous raw bytes
_T_HANDLE = 12   # ShmArtifactHandle
# 13 is retired (it tagged a socket-only artifact shipment); decoding
# it is a WireError like any unknown tag.
_T_PICKLE = 14   # escape hatch for values outside the typed surface

_U32 = struct.Struct("!I")
_U64 = struct.Struct("!Q")
_I64 = struct.Struct("!q")
_F64 = struct.Struct("!d")
_INT64_MIN, _INT64_MAX = -(1 << 63), (1 << 63) - 1


def _encode_value(buf: bytearray, value: Any) -> None:
    if value is None:
        buf.append(_T_NONE)
    elif value is True:
        buf.append(_T_TRUE)
    elif value is False:
        buf.append(_T_FALSE)
    elif isinstance(value, (int, np.integer)) and not isinstance(
        value, np.bool_
    ):
        value = int(value)
        if _INT64_MIN <= value <= _INT64_MAX:
            buf.append(_T_INT)
            buf += _I64.pack(value)
        else:
            raw = str(value).encode("ascii")
            buf.append(_T_BIGINT)
            buf += _U32.pack(len(raw))
            buf += raw
    elif isinstance(value, (float, np.floating)):
        buf.append(_T_FLOAT)
        buf += _F64.pack(float(value))
    elif isinstance(value, np.bool_):
        buf.append(_T_TRUE if bool(value) else _T_FALSE)
    elif isinstance(value, str):
        raw = value.encode("utf-8")
        buf.append(_T_STR)
        buf += _U32.pack(len(raw))
        buf += raw
    elif isinstance(value, (bytes, bytearray, memoryview)):
        raw = bytes(value)
        buf.append(_T_BYTES)
        buf += _U64.pack(len(raw))
        buf += raw
    elif isinstance(value, tuple):
        buf.append(_T_TUPLE)
        buf += _U32.pack(len(value))
        for item in value:
            _encode_value(buf, item)
    elif isinstance(value, list):
        buf.append(_T_LIST)
        buf += _U32.pack(len(value))
        for item in value:
            _encode_value(buf, item)
    elif isinstance(value, dict):
        buf.append(_T_DICT)
        buf += _U32.pack(len(value))
        for key, item in value.items():
            _encode_value(buf, key)
            _encode_value(buf, item)
    elif isinstance(value, np.ndarray) and not value.dtype.hasobject:
        arr = np.ascontiguousarray(value)
        if arr.shape != value.shape:
            # ascontiguousarray promotes 0-d to 1-d; the wire must
            # return exactly the shape that was sent.
            arr = arr.reshape(value.shape)
        dtype = str(arr.dtype).encode("ascii")
        buf.append(_T_NDARRAY)
        buf += _U32.pack(len(dtype))
        buf += dtype
        buf.append(arr.ndim)
        for dim in arr.shape:
            buf += _U64.pack(dim)
        raw = arr.tobytes()
        buf += _U64.pack(len(raw))
        buf += raw
    elif isinstance(value, ShmArtifactHandle):
        buf.append(_T_HANDLE)
        _encode_value(buf, (
            value.shm_name, value.name, value.kind, value.n_features,
            value.n_outputs, value.content_hash, value.source,
            value.meta,
            tuple((spec.field, spec.dtype, spec.shape, spec.offset)
                  for spec in value.arrays),
            value.total_bytes, value.transport_hash,
        ))
    else:
        raw = pickle.dumps(value)
        buf.append(_T_PICKLE)
        buf += _U64.pack(len(raw))
        buf += raw


def _decode_value(view: memoryview, pos: int) -> tuple:
    try:
        tag = view[pos]
    except IndexError:
        raise WireError("truncated frame: missing value tag") from None
    pos += 1
    try:
        if tag == _T_NONE:
            return None, pos
        if tag == _T_TRUE:
            return True, pos
        if tag == _T_FALSE:
            return False, pos
        if tag == _T_INT:
            return _I64.unpack_from(view, pos)[0], pos + 8
        if tag == _T_BIGINT:
            size = _U32.unpack_from(view, pos)[0]
            pos += 4
            return int(bytes(view[pos:pos + size]).decode("ascii")), \
                pos + size
        if tag == _T_FLOAT:
            return _F64.unpack_from(view, pos)[0], pos + 8
        if tag == _T_STR:
            size = _U32.unpack_from(view, pos)[0]
            pos += 4
            return bytes(view[pos:pos + size]).decode("utf-8"), pos + size
        if tag == _T_BYTES:
            size = _U64.unpack_from(view, pos)[0]
            pos += 8
            if pos + size > len(view):
                raise WireError("truncated frame: bytes run past body")
            return bytes(view[pos:pos + size]), pos + size
        if tag in (_T_TUPLE, _T_LIST):
            count = _U32.unpack_from(view, pos)[0]
            pos += 4
            items = []
            for _ in range(count):
                item, pos = _decode_value(view, pos)
                items.append(item)
            return (tuple(items) if tag == _T_TUPLE else items), pos
        if tag == _T_DICT:
            count = _U32.unpack_from(view, pos)[0]
            pos += 4
            out = {}
            for _ in range(count):
                key, pos = _decode_value(view, pos)
                item, pos = _decode_value(view, pos)
                out[key] = item
            return out, pos
        if tag == _T_NDARRAY:
            size = _U32.unpack_from(view, pos)[0]
            pos += 4
            dtype = np.dtype(bytes(view[pos:pos + size]).decode("ascii"))
            pos += size
            ndim = view[pos]
            pos += 1
            shape = []
            for _ in range(ndim):
                shape.append(_U64.unpack_from(view, pos)[0])
                pos += 8
            nbytes = _U64.unpack_from(view, pos)[0]
            pos += 8
            if pos + nbytes > len(view):
                raise WireError("truncated frame: array runs past body")
            arr = np.frombuffer(
                bytes(view[pos:pos + nbytes]), dtype=dtype
            ).reshape(tuple(shape))
            return arr, pos + nbytes
        if tag == _T_HANDLE:
            fields, pos = _decode_value(view, pos)
            (shm_name, name, kind, n_features, n_outputs, content_hash,
             source, meta, specs, total_bytes, transport_hash) = fields
            return ShmArtifactHandle(
                shm_name=shm_name, name=name, kind=kind,
                n_features=n_features, n_outputs=n_outputs,
                content_hash=content_hash, source=source, meta=meta,
                arrays=tuple(
                    SharedArraySpec(field=field, dtype=dtype,
                                    shape=tuple(shape), offset=offset)
                    for field, dtype, shape, offset in specs
                ),
                total_bytes=total_bytes, transport_hash=transport_hash,
            ), pos
        if tag == _T_PICKLE:
            size = _U64.unpack_from(view, pos)[0]
            pos += 8
            if pos + size > len(view):
                raise WireError("truncated frame: pickle runs past body")
            return pickle.loads(bytes(view[pos:pos + size])), pos + size
    except struct.error as exc:
        raise WireError(f"truncated frame: {exc}") from exc
    raise WireError(f"unknown value tag {tag}")


def encode_value(value: Any) -> bytes:
    """Encode one payload value (exposed for tests and tooling)."""
    buf = bytearray()
    _encode_value(buf, value)
    return bytes(buf)


def decode_value(raw: bytes) -> Any:
    """Decode one payload value; trailing bytes are a :class:`WireError`."""
    value, pos = _decode_value(memoryview(raw), 0)
    if pos != len(raw):
        raise WireError(
            f"trailing garbage: {len(raw) - pos} bytes after value"
        )
    return value


# -- framing --------------------------------------------------------------
def _frame(kind: int, msg_id: int, body: bytes,
           version: int = WIRE_VERSION_MIN) -> bytes:
    if len(body) > 0xFFFFFFFF:
        raise WireError(
            f"frame body of {len(body)} bytes exceeds the u32 length "
            f"field"
        )
    return _HEADER.pack(WIRE_MAGIC, version, kind, len(body),
                        msg_id) + body


def encode_request(request: Request) -> bytes:
    """Frame one :class:`Request`.

    Untraced requests encode exactly as version 1 did (op code byte +
    payload); a request carrying a trace context encodes as version 2
    (op code byte + trace value + payload), which a version-1 peer
    rejects loudly rather than misreading.
    """
    code = _OP_CODES.get(request.op)
    if code is None:
        raise WireError(f"unknown op {request.op!r}")
    buf = bytearray([code])
    if request.trace is None:
        _encode_value(buf, request.payload)
        return _frame(KIND_REQUEST, request.msg_id, bytes(buf))
    _encode_value(buf, request.trace)
    _encode_value(buf, request.payload)
    return _frame(KIND_REQUEST, request.msg_id, bytes(buf),
                  version=WIRE_VERSION)


def encode_reply(reply: Reply) -> bytes:
    """Frame one :class:`Reply` (kind encodes ok/error).  Replies carry
    no trace field and always use the version-1 encoding."""
    kind = KIND_REPLY_OK if reply.ok else KIND_REPLY_ERR
    buf = bytearray()
    _encode_value(buf, reply.payload)
    return _frame(kind, reply.msg_id, bytes(buf))


def parse_header(header: bytes) -> tuple:
    """Validate a frame header; returns ``(kind, body_len, msg_id)``."""
    if len(header) < HEADER_SIZE:
        raise WireError(
            f"short header: {len(header)} bytes, need {HEADER_SIZE}"
        )
    magic, version, kind, body_len, msg_id = _HEADER.unpack_from(header)
    if magic != WIRE_MAGIC:
        raise WireError(f"bad magic {magic!r} (not a wire frame)")
    if not WIRE_VERSION_MIN <= version <= WIRE_VERSION:
        raise WireError(
            f"wire version {version} is not supported "
            f"(this side speaks {WIRE_VERSION_MIN}..{WIRE_VERSION})"
        )
    if kind not in (KIND_REQUEST, KIND_REPLY_OK, KIND_REPLY_ERR):
        raise WireError(f"unknown frame kind {kind}")
    return kind, body_len, msg_id


def frame_size(header: bytes) -> int:
    """Total frame size from its header (header plus body)."""
    _kind, body_len, _msg_id = parse_header(header)
    return HEADER_SIZE + body_len


def decode_frame(frame: bytes) -> Union[Request, Reply]:
    """Decode one complete frame into a :class:`Request` or
    :class:`Reply`.  Accepts every version in
    ``WIRE_VERSION_MIN..WIRE_VERSION``."""
    kind, body_len, msg_id = parse_header(frame)
    if len(frame) != HEADER_SIZE + body_len:
        raise WireError(
            f"frame length {len(frame)} does not match header "
            f"({HEADER_SIZE + body_len})"
        )
    version = frame[2]
    body = memoryview(frame)[HEADER_SIZE:]
    if kind == KIND_REQUEST:
        if body_len < 1:
            raise WireError("request frame without an op code")
        op = _CODE_OPS.get(body[0])
        if op is None:
            raise WireError(f"unknown op code {body[0]}")
        trace = None
        pos = 1
        if version >= 2:
            trace, pos = _decode_value(body, pos)
        payload, pos = _decode_value(body, pos)
        if pos != len(body):
            raise WireError("trailing garbage after request payload")
        return Request(msg_id=msg_id, op=op, payload=payload, trace=trace)
    payload, pos = _decode_value(body, 0)
    if pos != len(body):
        raise WireError("trailing garbage after reply payload")
    return Reply(msg_id=msg_id, ok=kind == KIND_REPLY_OK, payload=payload)
