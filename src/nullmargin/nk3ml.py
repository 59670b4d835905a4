"""Primary discriminative space: null-space collapse, then kernel max-margin.

Fitting first learns the null projecting directions of the labeled data (all
same-class samples collapse to one point in R^{c-1}), then fits the kernel
maximum margin criterion on those projections to push the c class points
apart. Embedding a sample is the composition of the two maps; ranking uses
Euclidean distance on embeddings. A model is saved as a versioned binary
container, written as parts and read by positioned reads (see _binio).
"""

from __future__ import annotations

import hashlib
import os
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._binio import read, readv, truncated, write_parts
from ._blas import all_finite
from .dataio import FeatureTable
from .errors import DataFormatError, DataValidationError, ModelFormatError, ModelVersionError
from .kmmc import KERNEL_KINDS, KernelDiscriminantModel, KernelSpec, fit_nkmmc, project_kernel
from .nfst import NullProjector, NullSpaceState, fit_nfst, project_null

MODEL_MAGIC = b"NK3M"
MODEL_VERSION = 1

# The container layout: magic and u16 version, then each block's u64 length;
# the null-space block opens with dim and n_dirs, the margin block with the
# kernel code, the resolved bandwidth, m, p and the discriminant count l.
_VERSION = struct.Struct("<H")
_U64 = struct.Struct("<Q")
_NULL_HEAD = struct.Struct("<QQ")
_MARGIN_HEAD = struct.Struct("<BdQQQ")


@dataclass
class Nk3mlModel:
    nullproj: NullProjector
    margin: KernelDiscriminantModel


def fit_nk3ml(
    labeled: FeatureTable,
    kernel: KernelSpec = KernelSpec(),
    state: NullSpaceState | None = None,
) -> Nk3mlModel:
    """Fit the primary space on every class of a state grown by a labeled table.

    The null-space stage goes through fit_nfst, which appends the table's
    classes to the given state (a fresh one when none is given): the table
    must hold only classes new to the state. All rows of a class coincide in
    the null space, so the margin stage trains on the state's c class points,
    read off the null-space factor (NullSpaceState.projector), each
    standing for its class's row count: the same fit as on all n projected
    rows, solved on c points. An 'auto' bandwidth is the mean over all
    n(n-1)/2 row pairs, zero within-class pairs included.
    """
    if state is None:
        state = NullSpaceState(labeled.dim)
    projector, points = fit_nfst(labeled, state)
    return Nk3mlModel(
        nullproj=projector, margin=fit_nkmmc(points, state.labels, kernel, state.counts)
    )


def embed(model: Nk3mlModel, x: np.ndarray) -> np.ndarray:
    """Full-pipeline embedding of rows, (m, d) -> (m, l)."""
    return project_kernel(model.margin, project_null(model.nullproj, x))


# ---------------------------------------------------------------------------
# Versioned binary container: magic, version, dims, then one length-prefixed
# block per stage. Unknown trailing bytes inside a block are skipped, so
# fields appended under a later version do not break older payload layouts;
# bytes after the last block are an error.
# ---------------------------------------------------------------------------

def _container_parts(dim: int, n_dirs: int, values, margin: KernelDiscriminantModel):
    """A model container's parts in file order, for a null projector given as
    its values in file order: its mean, then w_n whole or in row blocks.

    Every length is known from dim and n_dirs, so a part is yielded as soon
    as its values are formed; arrays are yielded as their own buffers.
    """
    yield MODEL_MAGIC + _VERSION.pack(MODEL_VERSION)
    yield _U64.pack(_NULL_HEAD.size + 8 * dim * (1 + n_dirs))
    yield _NULL_HEAD.pack(dim, n_dirs)
    for block in values:
        yield np.ascontiguousarray(block, dtype="<f8").reshape(-1)

    arrays = [np.ascontiguousarray(arr, dtype=dtype).reshape(-1) for arr, dtype in (
        (margin.train_points, "<f8"), (margin.coeffs, "<f8"), (margin.eigenvalues, "<f8"),
        (margin.class_index, "<i8"),
    )]
    yield _U64.pack(_MARGIN_HEAD.size + sum(a.nbytes for a in arrays))
    yield _MARGIN_HEAD.pack(KERNEL_KINDS.index(margin.kernel.kind), margin.resolved_bandwidth,
                            *margin.train_points.shape, margin.output_dim)
    yield from arrays


def _model_parts(model: Nk3mlModel):
    mean, w_n = model.nullproj.mean, model.nullproj.w_n
    return _container_parts(*w_n.shape, (mean, w_n), model.margin)


def _checksum(parts) -> str:
    """SHA-256 of a container given as its parts, hashed one by one."""
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part)
    return digest.hexdigest()


def load_model(path) -> Nk3mlModel:
    """Read a model file by positioned reads, each array straight into its
    own buffer."""
    path = Path(path)
    if not path.is_file():
        raise ModelFormatError(f"no such file: {path}")
    with path.open("rb", buffering=0) as f:
        try:
            return _parse_model(f.fileno(), str(path))
        except ModelFormatError:
            raise
        except (DataFormatError, DataValidationError) as err:
            raise ModelFormatError(str(err)) from err


def _block(fd: int, size: int, offset: int, context: str) -> tuple[int, int]:
    """The start and end of the u64-length-prefixed block at offset, checked
    to fit in the file's size bytes."""
    (length,) = _U64.unpack(read(fd, size, offset, _U64.size, context))
    start = offset + _U64.size
    if length > size - start:
        raise truncated(context, length, start, size - start)
    return start, start + length


def _check_payload(remaining: int, rows: int, values: int, context: str) -> None:
    """A stage has rows, and its declared values, 8 bytes each, fit in the
    remaining bytes of its block: checked before anything is allocated, it
    bounds every declared dimension by the bytes left."""
    if rows == 0 or 8 * values > remaining:
        raise ModelFormatError(
            f"{context}: block declares {values} values in {rows} rows, "
            f"which {remaining} remaining bytes cannot hold"
        )


def _parse_model(fd: int, context: str) -> Nk3mlModel:
    size = os.fstat(fd).st_size
    if read(fd, size, 0, len(MODEL_MAGIC), context) != MODEL_MAGIC:
        raise ModelFormatError(f"{context}: bad magic, not a model container")
    start = len(MODEL_MAGIC)
    (version,) = _VERSION.unpack(read(fd, size, start, _VERSION.size, context))
    if version != MODEL_VERSION:
        raise ModelVersionError(f"{context}: unsupported model version {version}")

    start, end = _block(fd, size, start + _VERSION.size, context)
    block = f"{context} null-space block"
    dim, n_dirs = _NULL_HEAD.unpack(read(fd, end, start, _NULL_HEAD.size, block))
    start += _NULL_HEAD.size
    _check_payload(end - start, dim, dim + dim * n_dirs, context)
    mean, w_n = np.empty(dim, dtype="<f8"), np.empty((dim, n_dirs), dtype="<f8")
    readv(fd, (mean, w_n), start, block)
    nullproj = NullProjector(w_n=w_n, mean=mean)

    start, end = _block(fd, size, end, context)
    block = f"{context} margin block"
    kind_code, bandwidth, m, p, n_disc = _MARGIN_HEAD.unpack(
        read(fd, end, start, _MARGIN_HEAD.size, block)
    )
    if kind_code >= len(KERNEL_KINDS):
        raise ModelFormatError(f"{context}: unknown kernel code {kind_code}")
    kind = KERNEL_KINDS[kind_code]
    start += _MARGIN_HEAD.size
    _check_payload(end - start, m, m * p + m * n_disc + n_disc + m, context)
    train_points, coeffs = np.empty((m, p), dtype="<f8"), np.empty((m, n_disc), dtype="<f8")
    eigenvalues, class_index = np.empty(n_disc, dtype="<f8"), np.empty(m, dtype="<i8")
    readv(fd, (train_points, coeffs, eigenvalues, class_index), start, block)
    if end < size:
        raise ModelFormatError(f"{context}: {size - end} bytes after the margin block")
    margin = KernelDiscriminantModel(
        train_points=train_points,
        kernel=KernelSpec(kind, bandwidth) if kind == "rbf" else KernelSpec(kind),
        coeffs=coeffs,
        eigenvalues=eigenvalues,
        class_index=class_index,
    )
    if n_dirs == 0 or n_disc == 0 or n_dirs != p:
        raise ModelFormatError(f"{context}: {n_dirs} null directions, margin input {p}, {n_disc} "
                               "discriminants: none may be 0, and inputs must equal directions")
    for name, values in (("mean", mean), ("w_n", w_n), ("train_points", train_points),
                         ("coeffs", coeffs), ("eigenvalues", eigenvalues)):
        if not all_finite(values):
            raise ModelFormatError(f"{context}: non-finite values in {name}")
    return Nk3mlModel(nullproj=nullproj, margin=margin)


def save_model(model: Nk3mlModel, path) -> None:
    write_parts(_model_parts(model), path)


def model_checksum(model: Nk3mlModel) -> str:
    """SHA-256 of the serialized container; stable across identical fits.

    The container's parts are hashed as they are formed, without joining
    them into one bytes object.
    """
    return _checksum(_model_parts(model))
