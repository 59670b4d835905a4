"""Primary discriminative space: null-space collapse, then kernel max-margin.

Fitting first learns the null projecting directions of the labeled data (all
same-class samples collapse to one point in R^{c-1}), then fits the kernel
maximum margin criterion on those projections to push the c class points
apart. Embedding a sample is the composition of the two maps; ranking uses
Euclidean distance on embeddings.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._binio import Reader, Writer, write_parts
from ._blas import all_finite
from .dataio import FeatureTable
from .errors import DataFormatError, DataValidationError, ModelFormatError, ModelVersionError
from .kmmc import KERNEL_KINDS, KernelDiscriminantModel, KernelSpec, fit_nkmmc, project_kernel
from .nfst import NullProjector, NullSpaceState, fit_nfst, project_null

MODEL_MAGIC = b"NK3M"
MODEL_VERSION = 1


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
    head = Writer()
    head.raw(MODEL_MAGIC)
    head.u16(MODEL_VERSION)
    head.u64(16 + 8 * dim * (1 + n_dirs))     # the null block: two u64s, mean, w_n
    head.u64(dim)
    head.u64(n_dirs)
    yield from head.parts
    for block in values:
        yield np.ascontiguousarray(block, dtype="<f8").reshape(-1)

    margin_block = Writer()
    margin_block.u8(KERNEL_KINDS.index(margin.kernel.kind))
    margin_block.f64(margin.resolved_bandwidth)
    m, p = margin.train_points.shape
    margin_block.u64(m)
    margin_block.u64(p)
    margin_block.u64(margin.output_dim)
    margin_block.f64_array(margin.train_points)
    margin_block.f64_array(margin.coeffs)
    margin_block.f64_array(margin.eigenvalues)
    margin_block.i64_array(margin.class_index)
    tail = Writer()
    tail.block(margin_block)
    yield from tail.parts


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
    """Read a model file in one pass, each array straight into its own
    buffer."""
    path = Path(path)
    if not path.is_file():
        raise ModelFormatError(f"no such file: {path}")
    with path.open("rb") as f:
        return _read_model(f, str(path))


def _read_model(stream, context: str) -> Nk3mlModel:
    try:
        return _parse_model(stream, context)
    except ModelFormatError:
        raise
    except (DataFormatError, DataValidationError) as err:
        raise ModelFormatError(str(err)) from err


def _check_payload(block: Reader, rows: int, values: int, context: str) -> None:
    """A stage has rows, and its declared values, 8 bytes each, fit in the
    block: checked before anything is allocated, it bounds every declared
    dimension by the bytes left."""
    if rows == 0 or 8 * values > block.remaining:
        raise ModelFormatError(
            f"{context}: block declares {values} values in {rows} rows, "
            f"which {block.remaining} remaining bytes cannot hold"
        )


def _parse_model(stream, context: str) -> Nk3mlModel:
    r = Reader(stream, context=context)
    if r.raw(4) != MODEL_MAGIC:
        raise ModelFormatError(f"{context}: bad magic, not a model container")
    version = r.u16()
    if version != MODEL_VERSION:
        raise ModelVersionError(f"{context}: unsupported model version {version}")

    block = r.block(f"{context} null-space block")
    dim = block.u64()
    n_dirs = block.u64()
    _check_payload(block, dim, dim + dim * n_dirs, context)
    mean = block.f64_array(dim)
    w_n = block.f64_array(dim * n_dirs, shape=(dim, n_dirs))
    nullproj = NullProjector(w_n=w_n, mean=mean)

    block = r.block(f"{context} margin block")
    kind_code = block.u8()
    if kind_code >= len(KERNEL_KINDS):
        raise ModelFormatError(f"{context}: unknown kernel code {kind_code}")
    kind = KERNEL_KINDS[kind_code]
    bandwidth = block.f64()
    m = block.u64()
    p = block.u64()
    n_disc = block.u64()
    _check_payload(block, m, m * p + m * n_disc + n_disc + m, context)
    train_points = block.f64_array(m * p, shape=(m, p))
    coeffs = block.f64_array(m * n_disc, shape=(m, n_disc))
    eigenvalues = block.f64_array(n_disc)
    class_index = block.i64_array(m)
    if r.remaining:
        raise ModelFormatError(f"{context}: {r.remaining} bytes after the margin block")
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
