"""Canonical byte serialization for signing and encryption.

Digital signatures and message digests must be computed over a *stable* byte
rendering of a message: two structurally equal messages must serialize to
identical bytes regardless of dict insertion order.  JSON with sorted keys
would almost suffice, but we also need raw ``bytes`` payloads (ciphertexts,
key material) and tuple/int round-tripping, so we use a small self-describing
binary format (a deterministic subset of a bencoding-like scheme).

Supported types: ``None``, ``bool``, ``int``, ``float``, ``str``, ``bytes``,
``list``/``tuple`` (decoded as list), and ``dict`` with ``str`` keys (encoded
in sorted key order).

A value that many consumers render — a signed payload, an authorization
token's wire form — is wrapped once in a :class:`FrozenMap`: a read-only
``dict`` that renders its canonical bytes at construction.  Every later
encode of it (on its own or nested in a larger value) splices those bytes
verbatim, so signing, signature verification, token-cache keys and wire
sizing share one rendering.
"""

from __future__ import annotations

import hashlib
import struct
from typing import Any

from repro.errors import SerializationDecodeError, SerializationTypeError

_TAG_NONE = b"N"
_TAG_TRUE = b"T"
_TAG_FALSE = b"F"
_TAG_INT = b"i"
_TAG_FLOAT = b"f"
_TAG_STR = b"s"
_TAG_BYTES = b"b"
_TAG_LIST = b"l"
_TAG_DICT = b"d"
_TAG_END = b"e"


def canonical_encode(value: Any) -> bytes:
    """Encode ``value`` to its unique canonical byte string."""
    out = bytearray()
    _encode_into(value, out)
    return bytes(out)


class FrozenMap(dict):
    """A read-only ``dict`` carrying its canonical encoding.

    The encoding is rendered once, at construction, through
    :func:`canonical_encode`; nested dicts are frozen first, so they splice
    their own bytes into it.  Because no mutator works, the stored bytes
    can never drift from the content, and ``_encode_into`` splices them
    verbatim — byte-identical to encoding the equal plain dict.  Equality,
    iteration and ``isinstance(value, dict)`` behave as for a plain dict;
    ``dict(frozen)`` is a mutable shallow copy.
    """

    __slots__ = ("_canonical", "_sha1")

    def __init__(self, value: dict, /) -> None:
        items = {key: freeze(item) for key, item in value.items()}
        canonical = canonical_encode(items)
        dict.__init__(self, items)
        self._canonical = canonical
        self._sha1: bytes | None = None

    def sha1(self) -> bytes:
        """SHA-1 of the stored canonical encoding, computed on first use."""
        if self._sha1 is None:
            self._sha1 = hashlib.sha1(self._canonical).digest()
        return self._sha1

    def __reduce__(self) -> tuple:
        return FrozenMap, (dict(self),)

    def _refuse(self, *args: Any, **kwargs: Any) -> Any:
        raise SerializationTypeError("FrozenMap is read-only; copy it with dict()")

    __setitem__ = __delitem__ = __ior__ = _refuse
    clear = pop = popitem = setdefault = update = _refuse


class FrozenList(list):
    """A read-only ``list``, so nothing inside a :class:`FrozenMap` can change."""

    __slots__ = ()

    def __reduce__(self) -> tuple:
        return FrozenList, (list(self),)

    def _refuse(self, *args: Any, **kwargs: Any) -> Any:
        raise SerializationTypeError("FrozenList is read-only; copy it with list()")

    __setitem__ = __delitem__ = __iadd__ = __imul__ = _refuse
    append = clear = extend = insert = pop = remove = reverse = sort = _refuse


def freeze(value: Any) -> Any:
    """``value`` made read-only at every depth.

    Dicts become :class:`FrozenMap` and lists :class:`FrozenList`; tuples
    are rebuilt around their frozen items.  Scalars, bytes and values that
    are already frozen are returned as they are.
    """
    kind = type(value)
    if kind is FrozenMap or kind is FrozenList:
        return value
    if isinstance(value, dict):
        return FrozenMap(value)
    if isinstance(value, list):
        return FrozenList(freeze(item) for item in value)
    if isinstance(value, tuple):
        return tuple(freeze(item) for item in value)
    return value


def canonical_bytes(value: Any) -> bytes:
    """The canonical encoding, reusing a :class:`FrozenMap`'s stored bytes."""
    if type(value) is FrozenMap:
        return value._canonical
    return canonical_encode(value)


def canonical_encode_into(value: Any, out: bytearray) -> int:
    """Append the canonical encoding of ``value`` to ``out``.

    The streaming variant of :func:`canonical_encode`: callers that size
    many payloads (``repro.wire``) reuse one pooled scratch buffer instead
    of allocating a fresh ``bytes`` per encode.  Returns the number of
    bytes appended.
    """
    before = len(out)
    _encode_into(value, out)
    return len(out) - before


def _encode_into(value: Any, out: bytearray) -> None:
    if value is None:
        out += _TAG_NONE
    elif value is True:
        out += _TAG_TRUE
    elif value is False:
        out += _TAG_FALSE
    elif isinstance(value, int):
        rendered = str(value).encode("ascii")
        out += _TAG_INT
        out += str(len(rendered)).encode("ascii")
        out += b":"
        out += rendered
    elif isinstance(value, float):
        # Fixed 8-byte IEEE-754 big-endian: bit-exact round trip.
        out += _TAG_FLOAT
        out += struct.pack(">d", value)
    elif isinstance(value, str):
        data = value.encode("utf-8")
        out += _TAG_STR
        out += str(len(data)).encode("ascii")
        out += b":"
        out += data
    elif isinstance(value, (bytes, bytearray, memoryview)):
        data = bytes(value)
        out += _TAG_BYTES
        out += str(len(data)).encode("ascii")
        out += b":"
        out += data
    elif isinstance(value, (list, tuple)):
        out += _TAG_LIST
        for item in value:
            _encode_into(item, out)
        out += _TAG_END
    elif isinstance(value, dict):
        if type(value) is FrozenMap:
            out += value._canonical
            return
        out += _TAG_DICT
        keys = list(value.keys())
        for key in keys:
            if not isinstance(key, str):
                raise SerializationTypeError(f"dict keys must be str, got {type(key).__name__}")
        for key in sorted(keys):
            _encode_into(key, out)
            _encode_into(value[key], out)
        out += _TAG_END
    else:
        raise SerializationTypeError(f"cannot canonically encode {type(value).__name__}")


def canonical_decode(data: bytes) -> Any:
    """Decode bytes produced by :func:`canonical_encode`.

    Raises ``ValueError`` on malformed or trailing data.
    """
    value, offset = _decode_from(data, 0)
    if offset != len(data):
        raise SerializationDecodeError(f"trailing bytes after canonical value at offset {offset}")
    return value


def _read_length(data: bytes, offset: int) -> tuple[int, int]:
    end = data.find(b":", offset)
    if end < 0:
        raise SerializationDecodeError("missing length delimiter")
    text = data[offset:end]
    if not text or not text.lstrip(b"-").isdigit():
        raise SerializationDecodeError(f"bad length field {text!r}")
    return int(text), end + 1


def _decode_from(data: bytes, offset: int) -> tuple[Any, int]:
    if offset >= len(data):
        raise SerializationDecodeError("unexpected end of canonical data")
    tag = data[offset : offset + 1]
    offset += 1
    if tag == _TAG_NONE:
        return None, offset
    if tag == _TAG_TRUE:
        return True, offset
    if tag == _TAG_FALSE:
        return False, offset
    if tag == _TAG_INT:
        length, offset = _read_length(data, offset)
        chunk = data[offset : offset + length]
        if len(chunk) != length:
            raise SerializationDecodeError("truncated int")
        return int(chunk), offset + length
    if tag == _TAG_FLOAT:
        chunk = data[offset : offset + 8]
        if len(chunk) != 8:
            raise SerializationDecodeError("truncated float")
        return struct.unpack(">d", chunk)[0], offset + 8
    if tag == _TAG_STR:
        length, offset = _read_length(data, offset)
        chunk = data[offset : offset + length]
        if len(chunk) != length:
            raise SerializationDecodeError("truncated str")
        return chunk.decode("utf-8"), offset + length
    if tag == _TAG_BYTES:
        length, offset = _read_length(data, offset)
        chunk = data[offset : offset + length]
        if len(chunk) != length:
            raise SerializationDecodeError("truncated bytes")
        return chunk, offset + length
    if tag == _TAG_LIST:
        items: list[Any] = []
        while True:
            if offset >= len(data):
                raise SerializationDecodeError("unterminated list")
            if data[offset : offset + 1] == _TAG_END:
                return items, offset + 1
            item, offset = _decode_from(data, offset)
            items.append(item)
    if tag == _TAG_DICT:
        result: dict[str, Any] = {}
        previous_key: str | None = None
        while True:
            if offset >= len(data):
                raise SerializationDecodeError("unterminated dict")
            if data[offset : offset + 1] == _TAG_END:
                return result, offset + 1
            key, offset = _decode_from(data, offset)
            if not isinstance(key, str):
                raise SerializationDecodeError("dict key must decode to str")
            if previous_key is not None and key <= previous_key:
                raise SerializationDecodeError("dict keys not in canonical order")
            previous_key = key
            value, offset = _decode_from(data, offset)
            result[key] = value
    raise SerializationDecodeError(f"unknown tag {tag!r} at offset {offset - 1}")
