"""Binary I/O for the table and model containers, in one idiom.

Parts out: a container is formed as its parts in file order, struct-packed
little-endian headers and C-contiguous little-endian array buffers, and
write_parts writes and hashes them one by one, never joined.

Positioned reads in: a container is read from a file descriptor with
``os.pread`` (read) and ``os.preadv`` (readv), with no stream cursor. Every
size taken from the data is checked against the end of the file or of its
block before anything is allocated for it, so a hostile header allocates no
more than the bytes that are there; arrays are then read straight into
their own buffers. These positioned reads exist on Linux and most other Unix
systems, not on Windows.
"""

from __future__ import annotations

import hashlib
import os

from .errors import DataFormatError

# Buffers one preadv call may take.
_IOV_MAX = os.sysconf("SC_IOV_MAX")


def write_parts(parts, path) -> str:
    """Write parts to a file in order, unjoined; returns the file's hex SHA-256."""
    digest = hashlib.sha256()
    with open(path, "wb") as f:
        for part in parts:
            digest.update(part)
            f.write(part)
    return digest.hexdigest()


def truncated(context: str, count: int, offset: int, have: int) -> DataFormatError:
    """The error for a read of count bytes at offset that finds only have."""
    return DataFormatError(f"truncated {context}: needed {count} bytes at offset {offset}, have {have}")


def read(fd: int, end: int, offset: int, count: int, context: str) -> bytes:
    """count bytes at offset of a file or block that ends at end; nothing
    past end is requested, so a count taken from the data allocates no more
    than the file holds."""
    if offset + count > end:
        raise truncated(context, count, offset, end - offset)
    data = os.pread(fd, count, offset)
    if len(data) < count:       # the file shrank since it was sized
        raise truncated(context, count, offset, len(data))
    return data


def readv(fd: int, views, offset: int, context: str) -> None:
    """Fill writable C-contiguous arrays or memoryviews, in order, from the
    bytes at offset, with scatter reads of at most _IOV_MAX buffers each.
    A read that returns part of a request is resumed; one that returns
    nothing means the file shrank since it was sized, and raises."""
    views = [view for view in views if view.nbytes]
    end, k = offset + sum(view.nbytes for view in views), 0
    while k < len(views):
        got = os.preadv(fd, views[k:k + _IOV_MAX], offset)
        if not got:
            raise truncated(context, end - offset, offset, 0)
        offset += got
        while k < len(views) and got >= views[k].nbytes:
            got -= views[k].nbytes
            k += 1
        if got:
            views[k] = memoryview(views[k]).cast("B")[got:]
