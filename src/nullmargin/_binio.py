"""Little-endian binary packing helpers for the table and model containers."""

from __future__ import annotations

import io
import struct

import numpy as np

from .errors import DataFormatError


class Writer:
    """Collects little-endian parts; C-contiguous little-endian arrays are
    kept as buffers, not copied.

    ``parts`` are the written pieces in order and ``size`` their total
    length in bytes, so a caller can hash or nest them without joining.
    """

    def __init__(self):
        self.parts: list = []
        self.size = 0

    def raw(self, data) -> None:
        self.parts.append(data)
        self.size += memoryview(data).nbytes

    def block(self, inner: Writer) -> None:
        """Append another writer's parts, prefixed by their u64 length."""
        self.u64(inner.size)
        self.parts.extend(inner.parts)
        self.size += inner.size

    def u8(self, value: int) -> None:
        self.raw(struct.pack("<B", value))

    def u16(self, value: int) -> None:
        self.raw(struct.pack("<H", value))

    def u32(self, value: int) -> None:
        self.raw(struct.pack("<I", value))

    def u64(self, value: int) -> None:
        self.raw(struct.pack("<Q", value))

    def f64(self, value: float) -> None:
        self.raw(struct.pack("<d", value))

    def f64_array(self, arr: np.ndarray) -> None:
        self.raw(np.ascontiguousarray(arr, dtype="<f8").reshape(-1))

    def i64_array(self, arr: np.ndarray) -> None:
        self.raw(np.ascontiguousarray(arr, dtype="<i8").reshape(-1))

    def write_to(self, path) -> None:
        """Write the parts to a file in order, without joining them."""
        with open(path, "wb") as f:
            for part in self.parts:
                f.write(part)


class Reader:
    """Cursor over a seekable binary stream, or over its next ``end - tell()``
    bytes; raises DataFormatError on truncation.

    A size read from the data is checked against the bytes left before
    anything is allocated for it; readinto and the array readers fill
    arrays straight from the stream, without an intermediate copy.
    """

    def __init__(self, stream, context: str = "binary data", end: int | None = None):
        self._stream = stream
        self._pos = stream.tell()
        if end is None:
            end = stream.seek(0, io.SEEK_END)
            stream.seek(self._pos)
        self._end = end
        self._context = context

    @property
    def remaining(self) -> int:
        return self._end - self._pos

    def _check(self, size: int, have: int | None = None) -> None:
        have = self.remaining if have is None else have
        if size < 0 or have < size:
            raise DataFormatError(
                f"truncated {self._context}: needed {size} bytes at offset "
                f"{self._pos}, have {have}"
            )

    def raw(self, size: int) -> bytes:
        self._check(size)
        data = self._stream.read(size)
        self._check(size, len(data))
        self._pos += size
        return data

    def readinto(self, out: np.ndarray) -> None:
        """Fill a C-contiguous array with its size in bytes from the stream."""
        view = memoryview(out).cast("B")
        self._check(view.nbytes, self._stream.readinto(view))
        self._pos += view.nbytes

    def block(self, context: str) -> Reader:
        """A reader over the next u64-length-prefixed block, read in place.

        This reader moves past the whole block at once, and its next block()
        resumes there, so bytes the block reader leaves unread are skipped.
        """
        self._stream.seek(self._pos)
        size = self.u64()
        self._check(size)
        inner = Reader(self._stream, context=context, end=self._pos + size)
        self._pos += size
        return inner

    def _unpack(self, fmt: str):
        (value,) = struct.unpack(fmt, self.raw(struct.calcsize(fmt)))
        return value

    def u8(self) -> int:
        return self._unpack("<B")

    def u16(self) -> int:
        return self._unpack("<H")

    def u32(self) -> int:
        return self._unpack("<I")

    def u64(self) -> int:
        return self._unpack("<Q")

    def f64(self) -> float:
        return self._unpack("<d")

    def _array(self, dtype: str, count: int, shape) -> np.ndarray:
        self._check(count * 8)
        out = np.empty(count, dtype=dtype)
        self.readinto(out)
        return out.reshape(shape) if shape is not None else out

    def f64_array(self, count: int, shape: tuple[int, ...] | None = None) -> np.ndarray:
        return self._array("<f8", count, shape)

    def i64_array(self, count: int) -> np.ndarray:
        return self._array("<i8", count, None)
