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

    def getvalue(self) -> bytes:
        return b"".join(self.parts)

    def write_to(self, path) -> None:
        """Write the parts to a file in order, without joining them."""
        with open(path, "wb") as f:
            for part in self.parts:
                f.write(part)


class Reader:
    """Cursor over a seekable binary stream; raises DataFormatError on truncation.

    A size read from the data is checked against the bytes left in the
    stream before anything is allocated for it; readinto fills a caller's
    array without an intermediate copy.
    """

    def __init__(self, stream, context: str = "binary data"):
        self._stream = stream
        self._pos = stream.tell()
        self._end = stream.seek(0, io.SEEK_END)
        stream.seek(self._pos)
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

    def f64_array(self, count: int, shape: tuple[int, ...] | None = None) -> np.ndarray:
        arr = np.frombuffer(self.raw(count * 8), dtype="<f8").astype(np.float64)
        return arr.reshape(shape) if shape is not None else arr

    def i64_array(self, count: int) -> np.ndarray:
        return np.frombuffer(self.raw(count * 8), dtype="<i8").astype(np.int64)
