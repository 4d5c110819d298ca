"""XDR (External Data Representation) encoding — the RFC 4506 subset NFS uses.

All quantities are big-endian and padded to 4-byte alignment.  The decoder
is a cursor over the message: it reads each scalar in place with
``Struct.unpack_from`` and slices only the byte strings it returns.
Fixed-shape records (an NFS ``fattr``, a file handle, the RPC headers) go
through :meth:`XDREncoder.pack_struct` and :meth:`XDRDecoder.unpack_struct`
with one precompiled :class:`struct.Struct` each, so a whole record costs
one call instead of one per word.

Strictness is the same on every path: out-of-range values, short buffers,
nonzero padding and bool words other than 0/1 raise
:class:`~repro.errors.XDRError` rather than silently misparsing.
"""

from __future__ import annotations

import struct
from typing import Any, Callable, TypeVar

from repro.errors import XDRError

_U32 = struct.Struct(">I")
_I32 = struct.Struct(">i")
_U64 = struct.Struct(">Q")
_I64 = struct.Struct(">q")
#: Zero padding after ``n`` bytes of opaque data, indexed by ``n % 4``.
_PAD = (b"", b"\x00\x00\x00", b"\x00\x00", b"\x00")

T = TypeVar("T")


class XDREncoder:
    """Append-only XDR writer."""

    def __init__(self) -> None:
        self._buf = bytearray()

    # -- integers ----------------------------------------------------------

    def pack_uint(self, value: int) -> "XDREncoder":
        return self._pack_scalar(_U32, "uint", value)

    def pack_int(self, value: int) -> "XDREncoder":
        return self._pack_scalar(_I32, "int", value)

    def pack_uhyper(self, value: int) -> "XDREncoder":
        return self._pack_scalar(_U64, "uhyper", value)

    def pack_hyper(self, value: int) -> "XDREncoder":
        return self._pack_scalar(_I64, "hyper", value)

    def _pack_scalar(self, shape: struct.Struct, kind: str, value: int) -> "XDREncoder":
        try:
            self._buf += shape.pack(value)
        except struct.error:
            raise XDRError(f"{kind} out of range: {value}") from None
        return self

    def pack_bool(self, value: bool) -> "XDREncoder":
        return self.pack_uint(1 if value else 0)

    def pack_enum(self, value: int) -> "XDREncoder":
        return self.pack_int(int(value))

    # -- byte strings -------------------------------------------------------

    def pack_fixed_opaque(self, data: bytes, size: int) -> "XDREncoder":
        if len(data) != size:
            raise XDRError(f"fixed opaque must be exactly {size} bytes")
        self._buf += data
        self._pad(size)
        return self

    def pack_opaque(self, data: bytes) -> "XDREncoder":
        self.pack_uint(len(data))
        self._buf += data
        self._pad(len(data))
        return self

    def pack_struct(self, shape: struct.Struct, *values: Any) -> "XDREncoder":
        """Append one fixed-shape record.  ``shape`` is a big-endian
        (``>``) format of XDR words: ``i``, ``I``, ``q``, ``Q``, and ``s``
        fields whose length is a multiple of 4."""
        try:
            self._buf += shape.pack(*values)
        except struct.error as exc:
            raise XDRError(f"record {shape.format!r} out of range: {exc}") from None
        return self

    def pack_string(self, text: str) -> "XDREncoder":
        return self.pack_opaque(text.encode("utf-8"))

    # -- composites -------------------------------------------------------

    def pack_array(self, items: list[T], pack_item: Callable[["XDREncoder", T], None]) -> "XDREncoder":
        self.pack_uint(len(items))
        for item in items:
            pack_item(self, item)
        return self

    def pack_optional(self, value: T | None, pack_item: Callable[["XDREncoder", T], None]) -> "XDREncoder":
        if value is None:
            return self.pack_bool(False)
        self.pack_bool(True)
        pack_item(self, value)
        return self

    def _pad(self, size: int) -> None:
        self._buf += _PAD[size & 3]

    def getvalue(self) -> bytes:
        return bytes(self._buf)

    def __len__(self) -> int:
        return len(self._buf)


class XDRDecoder:
    """Cursor-based XDR reader."""

    def __init__(self, data: bytes):
        self._data = data
        self._pos = 0

    def _underrun(self, n: int) -> XDRError:
        return XDRError(
            f"buffer underrun: need {n} bytes at offset {self._pos}, "
            f"have {len(self._data) - self._pos}"
        )

    def _take(self, n: int) -> bytes:
        pos = self._pos
        if pos + n > len(self._data):
            raise self._underrun(n)
        self._pos = pos + n
        return self._data[pos : pos + n]

    def unpack_struct(self, shape: struct.Struct) -> tuple[Any, ...]:
        """Read one fixed-shape record (see :meth:`XDREncoder.pack_struct`)."""
        try:
            values = shape.unpack_from(self._data, self._pos)
        except struct.error:
            raise self._underrun(shape.size) from None
        self._pos += shape.size
        return values

    # -- integers ----------------------------------------------------------

    def unpack_uint(self) -> int:
        return self.unpack_struct(_U32)[0]

    def unpack_int(self) -> int:
        return self.unpack_struct(_I32)[0]

    def unpack_uhyper(self) -> int:
        return self.unpack_struct(_U64)[0]

    def unpack_hyper(self) -> int:
        return self.unpack_struct(_I64)[0]

    def unpack_bool(self) -> bool:
        value = self.unpack_uint()
        if value not in (0, 1):
            raise XDRError(f"bool must be 0 or 1, got {value}")
        return bool(value)

    def unpack_enum(self) -> int:
        return self.unpack_int()

    # -- byte strings -------------------------------------------------------

    def unpack_fixed_opaque(self, size: int) -> bytes:
        data = self._take(size)
        self._skip_pad(size)
        return data

    def unpack_opaque(self, max_size: int | None = None) -> bytes:
        size = self.unpack_uint()
        if max_size is not None and size > max_size:
            raise XDRError(f"opaque of {size} bytes exceeds maximum {max_size}")
        data = self._take(size)
        self._skip_pad(size)
        return data

    def unpack_string(self, max_size: int | None = None) -> str:
        raw = self.unpack_opaque(max_size)
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise XDRError("string is not valid UTF-8") from exc

    # -- composites -------------------------------------------------------

    def unpack_array(self, unpack_item: Callable[["XDRDecoder"], T],
                     max_items: int | None = None) -> list[T]:
        count = self.unpack_uint()
        if max_items is not None and count > max_items:
            raise XDRError(f"array of {count} items exceeds maximum {max_items}")
        return [unpack_item(self) for _ in range(count)]

    def unpack_optional(self, unpack_item: Callable[["XDRDecoder"], T]) -> T | None:
        if self.unpack_bool():
            return unpack_item(self)
        return None

    def _skip_pad(self, size: int) -> None:
        pad = _PAD[size & 3]
        if pad and self._take(len(pad)) != pad:
            raise XDRError("nonzero padding bytes")

    def done(self) -> None:
        """Assert the whole buffer was consumed."""
        if self._pos != len(self._data):
            raise XDRError(
                f"{len(self._data) - self._pos} unconsumed bytes at end of message"
            )

    @property
    def remaining(self) -> int:
        return len(self._data) - self._pos
