"""Feature tables, protocol splits, and synthetic cross-view datasets.

A FeatureTable carries per-sample features together with the camera id, an
optional global identity, and a within-view id (samples sharing
(camera_id, within_view_id) are asserted to show the same person in that
camera). Missing identities are stored as None, never as a numeric sentinel.

Two on-disk layouts are supported:

* CSV: header ``sample_id,camera_id,identity,within_view_id,f0,...,f{d-1}``,
  UTF-8, ``.`` decimal separator, empty identity field = unlabeled.
* binary: magic ``SSML``, u16 version=1, u64 n, u64 d, then per sample
  u32 id-length + id bytes, u16 camera_id, u8 has_identity,
  u64 identity (if present), u64 within_view_id, d little-endian f64;
  nothing follows the n-th sample.

A binary table is written as parts and loaded by positioned reads, with
``_binio``'s routines. A scan reads each row's header with one read and
checks it against the file's size, so a truncated or overlong file is
rejected before the feature matrix is allocated. A fill then reads the rows'
features straight into that matrix with scatter reads, on min(usable cores,
feature bytes // _FILL_CHUNK) threads, each over a contiguous range of
rows, in blocks of about _FILL_BLOCK bytes. Each thread proves a block
finite (``_blas.all_finite``) right after reading it, while it is in cache,
so a loaded table takes no second pass over its features; every other table
is proven finite whole when it is built.
"""

from __future__ import annotations

import math
import numbers
import os
import re
import struct
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from fractions import Fraction
from pathlib import Path

import numpy as np

from ._binio import read, readv, truncated, write_parts
from ._blas import all_finite, usable_cores
from .errors import DataFormatError, DataValidationError

TABLE_MAGIC = b"SSML"
TABLE_VERSION = 1

_SAMPLE_ID_RE = re.compile(r"[A-Za-z0-9_]+")

# The binary file header and row layout of the module docstring; the writer
# shares the row layout.
_TABLE_HEADER = struct.Struct("<4sHQQ")
_ID_LENGTH = struct.Struct("<I")
_ROW_FIELDS = struct.Struct("<HBQ")
_U64 = struct.Struct("<Q")
# Bytes the scan reads at each row's start: the whole header of a row whose
# id is at most 233 bytes long. A longer id takes one or two more reads.
_ROW_HEAD_READ = 256
# Feature bytes per fill thread, at the least. A 10 MB table fills on the
# calling thread. On 2 vCPUs the 303 MB viper-shape table's load, its
# finiteness proof included, took about 140 ms on one thread, 90 on two.
_FILL_CHUNK = 1 << 23
# Feature bytes a fill thread reads, then proves finite, at a time (at least
# one row). Blocks of 1, 4 and 8 MiB loaded the viper-shape table equally fast.
_FILL_BLOCK = 1 << 22

# Rank of the per-camera random distortion in generate_synthetic. Kept low so
# generation stays O(n * dim * rank) and works at dim ~ 3e4.
_DISTORT_RANK = 16


def _id_column(values) -> np.ndarray:
    """values as a write-protected int64 array. Ids of a non-integer or bool
    dtype are rejected, not cast, and so are ids past int64."""
    arr = np.asarray(values)
    kind = arr.dtype.kind if arr.size else "i"     # np.asarray([]) is float64
    # numpy reads Python ints that fit neither int64 nor uint64 as float64 or object
    if kind not in "iu" and not (
        isinstance(values, (list, tuple)) and all(type(v) is int for v in values)
    ):
        raise DataValidationError(f"camera/within-view ids must be integers, not {arr.dtype}")
    if kind not in "iu" or kind == "u" and arr.max() >= 1 << 63:
        raise DataValidationError("camera/within-view ids must be nonnegative, in [0, 2**63)")
    out = np.ascontiguousarray(arr, dtype=np.int64)
    out.setflags(write=False)
    return out


def _integer(value, name: str, minimum: float = -math.inf) -> int:
    """value as a Python int of at least minimum; a float, a bool or any
    other non-integer raises DataValidationError."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise DataValidationError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise DataValidationError(f"{name} must be >= {minimum}")
    return int(value)


def _real(value, name: str) -> float:
    """value as a Python float; a bool, any other non-real and a value past
    the float range raise DataValidationError. Range checks are the caller's."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise DataValidationError(f"{name} must be a real number, got {value!r}")
    try:
        return float(value)
    except OverflowError as err:
        raise DataValidationError(f"{name} {value!r} is outside the float range") from err


@dataclass(frozen=True)
class FeatureTable:
    """Immutable n-sample feature table with camera/identity annotations."""

    sample_ids: tuple[str, ...]
    camera_ids: np.ndarray          # (n,) int64
    identities: tuple[int | None, ...]
    within_view_ids: np.ndarray     # (n,) int64
    features: np.ndarray            # (n, d) float64, write-protected

    def __post_init__(self, prove_finite: bool = True):
        object.__setattr__(self, "sample_ids", tuple(self.sample_ids))
        object.__setattr__(self, "identities", tuple(self.identities))
        object.__setattr__(self, "camera_ids", _id_column(self.camera_ids))
        object.__setattr__(self, "within_view_ids", _id_column(self.within_view_ids))
        feats = np.ascontiguousarray(np.atleast_2d(np.asarray(self.features, dtype=np.float64)))
        feats.setflags(write=False)
        object.__setattr__(self, "features", feats)
        self._validate(prove_finite)

    @classmethod
    def _of_finite(cls, **values) -> FeatureTable:
        """The table of these field values, whose features the caller has
        proven finite: built and checked as the constructor builds one, but
        for that proof."""
        table = object.__new__(cls)
        for name, value in values.items():
            object.__setattr__(table, name, value)
        table.__post_init__(prove_finite=False)
        return table

    def _validate(self, prove_finite: bool) -> None:
        n = len(self.sample_ids)
        if self.features.ndim != 2 or self.features.shape[0] != n:
            raise DataValidationError(
                f"features shape {self.features.shape} does not match {n} sample ids"
            )
        if n and self.features.shape[1] < 1:
            raise DataValidationError("feature dimension must be >= 1")
        if prove_finite and not all_finite(self.features):
            raise DataValidationError("features must be finite (no NaN or inf)")
        if self.camera_ids.shape != (n,) or self.within_view_ids.shape != (n,):
            raise DataValidationError("camera/within-view arrays must have one entry per sample")
        if len(self.identities) != n:
            raise DataValidationError("identities must have one entry per sample")
        seen: set[str] = set()
        for sid in self.sample_ids:
            if not isinstance(sid, str) or not _SAMPLE_ID_RE.fullmatch(sid):
                raise DataValidationError(f"sample_id {sid!r} is not an alphanumeric/underscore str")
            if sid in seen:
                raise DataValidationError(f"duplicate sample_id {sid!r}")
            seen.add(sid)
        if n:
            if self.camera_ids.min() < 0 or self.camera_ids.max() >= 1 << 16:
                raise DataValidationError("camera_id must fit an unsigned 16-bit integer")
            if self.within_view_ids.min() < 0:
                raise DataValidationError("within_view_id must be nonnegative")
        for ident in self.identities:
            if ident is not None and (type(ident) is not int or not 0 <= ident < 1 << 63):
                raise DataValidationError(
                    f"identity {ident!r} must be a nonnegative signed 64-bit integer or None"
                )

    @property
    def n(self) -> int:
        return len(self.sample_ids)

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    def label_values(self) -> np.ndarray:
        """Identity labels of the labeled rows, in row order."""
        return np.array([i for i in self.identities if i is not None], dtype=np.int64)

    def subset(self, indices) -> FeatureTable:
        idx = np.asarray(indices)
        if idx.dtype == bool:
            if idx.shape != (self.n,):
                raise DataValidationError(f"mask has shape {idx.shape}, expected ({self.n},)")
            idx = np.flatnonzero(idx)
        else:
            idx = idx.astype(np.int64)
            if idx.size and (idx.min() < 0 or idx.max() >= self.n):
                raise DataValidationError(f"row indices must lie in [0, {self.n})")
        return FeatureTable(
            sample_ids=tuple(self.sample_ids[i] for i in idx),
            camera_ids=self.camera_ids[idx],
            identities=tuple(self.identities[i] for i in idx),
            within_view_ids=self.within_view_ids[idx],
            features=self.features[idx],
        )


def group_rows(first: np.ndarray, second: np.ndarray) -> dict[tuple[int, int], np.ndarray]:
    """Row indices grouped by the key pair (first[i], second[i]), ascending
    keys and ascending rows within each group."""
    if len(first) == 0:
        return {}
    order = np.lexsort((second, first))
    firsts, seconds = first[order], second[order]
    change = (firsts[1:] != firsts[:-1]) | (seconds[1:] != seconds[:-1])
    starts = [0, *(np.flatnonzero(change) + 1).tolist()]
    # Slices of the order, not np.split, whose per-group cost dominates at
    # one row per key.
    keys = zip(firsts[starts].tolist(), seconds[starts].tolist())
    return {key: order[i:j] for key, i, j in zip(keys, starts, [*starts[1:], len(order)])}


def concat_tables(first: FeatureTable, *rest: FeatureTable) -> FeatureTable:
    tables = (first, *rest)
    dims = {t.dim for t in tables if t.n}
    if len(dims) > 1:
        raise DataValidationError(f"cannot concatenate tables of dimensions {sorted(dims)}")
    return FeatureTable(
        sample_ids=tuple(s for t in tables for s in t.sample_ids),
        camera_ids=np.concatenate([t.camera_ids for t in tables]),
        identities=tuple(i for t in tables for i in t.identities),
        within_view_ids=np.concatenate([t.within_view_ids for t in tables]),
        features=np.vstack([t.features for t in tables]),
    )


@dataclass(frozen=True)
class SplitSpec:
    """Protocol split parameters: half train / half test, a labeled fraction of train."""

    seed: int
    labeled_fraction: Fraction = Fraction(1, 3)
    trials: int = 10

    def __post_init__(self):
        object.__setattr__(self, "seed", _integer(self.seed, "seed"))
        object.__setattr__(self, "trials", _integer(self.trials, "trials", minimum=1))
        # Read from its text, a float keeps its exact decimal value (0.1 is
        # 1/10, not the nearest binary fraction).
        try:
            fraction = Fraction(str(self.labeled_fraction))
        except (ValueError, ZeroDivisionError) as err:
            raise DataValidationError(
                f"labeled_fraction {self.labeled_fraction!r} is not a fraction: {err}"
            ) from err
        object.__setattr__(self, "labeled_fraction", fraction)
        if not (0 < self.labeled_fraction <= 1):
            raise DataValidationError("labeled_fraction must be in (0, 1]")


@dataclass(frozen=True)
class ExperimentSplit:
    labeled: FeatureTable
    unlabeled: FeatureTable
    probe: FeatureTable
    gallery: FeatureTable


@dataclass(frozen=True)
class SyntheticSpec:
    identities: int
    cameras: int
    dim: int
    per_camera_transform_strength: float = 0.0
    noise_sigma: float = 0.0
    seed: int = 0

    def __post_init__(self):
        for name, low in (("identities", 2), ("cameras", -math.inf), ("dim", 2), ("seed", -math.inf)):
            object.__setattr__(self, name, _integer(getattr(self, name), name, low))
        for name in ("per_camera_transform_strength", "noise_sigma"):
            object.__setattr__(self, name, _real(getattr(self, name), name))
        if not 2 <= self.cameras <= 1 << 16:
            raise DataValidationError("cameras must be in [2, 65536] (camera ids are 16-bit)")
        # The largest arrays generated, the table and the camera factors, hold
        # identities * cameras and _DISTORT_RANK rows of dim float64s.
        if max(self.identities * self.cameras, _DISTORT_RANK) * self.dim > np.iinfo(np.intp).max // 8:
            raise DataValidationError("identities * cameras * dim is too large for an array")
        if not (0 <= self.per_camera_transform_strength < math.inf and 0 <= self.noise_sigma < math.inf):
            raise DataValidationError("transform strength and noise sigma must be finite and >= 0")


def _trial_rng(seed: int, trial: int) -> np.random.Generator:
    # Counter-based PRNG keyed by (seed, trial): trials are independent streams.
    key = np.array([seed % (1 << 64), trial % (1 << 64)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def generate_synthetic(spec: SyntheticSpec) -> FeatureTable:
    """Latent identity vectors observed through per-camera linear distortion + noise.

    Each identity draws a latent vector; camera c observes
    ``x = z + strength * U_c (V_c^T z) / sqrt(dim * rank) + sigma * noise``
    with fixed per-camera factors U_c, V_c, so the distortion displacement
    scales like ``strength * ||z||``. Deterministic given the seed. Raises
    DataValidationError when sigma or strength overflows the features.
    """
    rng = _trial_rng(spec.seed, 0)
    latents = rng.standard_normal((spec.identities, spec.dim))
    rank = min(spec.dim, _DISTORT_RANK)
    scale = spec.per_camera_transform_strength / math.sqrt(spec.dim * rank)
    per_camera = []
    # features that overflow are left to the FeatureTable check below
    with np.errstate(over="ignore", invalid="ignore"):
        for _cam in range(spec.cameras):
            u = rng.standard_normal((spec.dim, rank))
            v = rng.standard_normal((spec.dim, rank))
            feats = latents + scale * ((latents @ v) @ u.T)
            if spec.noise_sigma > 0:
                feats = feats + spec.noise_sigma * rng.standard_normal(feats.shape)
            per_camera.append(feats)

    width = len(str(spec.identities - 1))
    sample_ids, camera_ids, identities, wv_ids, rows = [], [], [], [], []
    for ident in range(spec.identities):
        for cam in range(spec.cameras):
            sample_ids.append(f"id{ident:0{width}d}_c{cam}")
            camera_ids.append(cam)
            identities.append(ident)
            wv_ids.append(ident)
            rows.append(per_camera[cam][ident])
    return FeatureTable(
        sample_ids=tuple(sample_ids),
        camera_ids=np.array(camera_ids),
        identities=tuple(identities),
        within_view_ids=np.array(wv_ids),
        features=np.vstack(rows),
    )


def _identity_cameras(table: FeatureTable) -> dict[int, set[int]]:
    out: dict[int, set[int]] = {}
    for ident, cam in zip(table.identities, table.camera_ids):
        if ident is not None:
            out.setdefault(ident, set()).add(int(cam))
    return out


def make_split(table: FeatureTable, spec: SplitSpec, trial: int) -> ExperimentSplit:
    """Half the cross-view identities train (a fraction labeled), half test.

    Test rows in the probe camera form the probe; all other test rows form the
    gallery. Identities seen in a single camera become gallery distractors.
    Deterministic given (spec.seed, trial); every input row lands in exactly
    one of the four parts.
    """
    trial = _integer(trial, "trial")
    if not (0 <= trial < spec.trials):
        raise DataValidationError(f"trial {trial} outside [0, {spec.trials})")
    ident_cams = _identity_cameras(table)
    cross_view = sorted(i for i, cams in ident_cams.items() if len(cams) >= 2)
    distractors = sorted(i for i, cams in ident_cams.items() if len(cams) == 1)
    if len(cross_view) < 4:
        raise DataValidationError(
            f"need at least 4 cross-view identities to split, found {len(cross_view)}"
        )

    # Probe camera: smallest camera that hosts no single-camera identity, so
    # distractors always land in the gallery and the split stays a partition.
    distractor_cams = {next(iter(ident_cams[i])) for i in distractors}
    probe_candidates = sorted(set(table.camera_ids.tolist()) - distractor_cams)
    if not probe_candidates:
        raise DataValidationError("every camera hosts gallery-only identities; no probe camera")
    probe_camera = probe_candidates[0]

    rng = _trial_rng(spec.seed, trial)
    order = rng.permutation(len(cross_view))
    shuffled = [cross_view[i] for i in order]
    n_train = len(cross_view) // 2
    train_ids = shuffled[:n_train]
    test_ids = set(shuffled[n_train:])

    n_labeled = math.floor(spec.labeled_fraction * n_train)
    if n_labeled == 0:
        raise DataValidationError(
            f"labeled_fraction {spec.labeled_fraction} of {n_train} train identities is zero"
        )
    labeled_ids = set(train_ids[:n_labeled])
    unlabeled_ids = set(train_ids[n_labeled:])

    labeled_rows, unlabeled_rows, probe_rows, gallery_rows = [], [], [], []
    for row, ident in enumerate(table.identities):
        if ident in labeled_ids:
            labeled_rows.append(row)
        elif ident in unlabeled_ids:
            unlabeled_rows.append(row)
        elif int(table.camera_ids[row]) == probe_camera:
            probe_rows.append(row)
        else:
            gallery_rows.append(row)

    return ExperimentSplit(
        labeled=table.subset(labeled_rows),
        unlabeled=replace(table.subset(unlabeled_rows), identities=(None,) * len(unlabeled_rows)),
        probe=table.subset(probe_rows),
        gallery=table.subset(gallery_rows),
    )


# ---------------------------------------------------------------------------
# CSV and binary persistence
# ---------------------------------------------------------------------------

def save_feature_table(table: FeatureTable, path, format: str) -> str:
    """Write a table; returns the file's hex SHA-256, hashed as it is written."""
    if format == "csv":
        parts = (_csv_text(table).encode("utf-8"),)
    elif format == "binary":
        parts = _table_parts(table)
    else:
        raise DataFormatError(f"unknown table format {format!r}")
    return write_parts(parts, path)


def load_feature_table(path, format: str) -> FeatureTable:
    path = Path(path)
    if not path.is_file():
        raise DataFormatError(f"no such file: {path}")
    if format == "csv":
        return _load_csv(path)
    if format == "binary":
        with path.open("rb", buffering=0) as f:
            return _from_binary(f.fileno(), context=str(path))
    raise DataFormatError(f"unknown table format {format!r}")


def table_format_for(path) -> str:
    return "csv" if Path(path).suffix.lower() == ".csv" else "binary"


def _csv_text(table: FeatureTable) -> str:
    header = "sample_id,camera_id,identity,within_view_id," + ",".join(
        f"f{j}" for j in range(table.dim)
    )
    lines = [header]
    for i in range(table.n):
        ident = table.identities[i]
        lines.append(
            ",".join(
                [
                    table.sample_ids[i],
                    str(int(table.camera_ids[i])),
                    "" if ident is None else str(ident),
                    str(int(table.within_view_ids[i])),
                ]
                + [repr(float(v)) for v in table.features[i]]
            )
        )
    return "\n".join(lines) + "\n"


def _load_csv(path: Path) -> FeatureTable:
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as err:
        raise DataFormatError(f"{path}: not UTF-8 text ({err})") from err
    # (physical line number, line) of the non-blank lines
    lines = [(no, ln) for no, ln in enumerate(text.splitlines(), start=1) if ln.strip()]
    if not lines:
        raise DataFormatError(f"{path}: empty file")
    header = lines[0][1].split(",")
    fixed = ["sample_id", "camera_id", "identity", "within_view_id"]
    if header[: len(fixed)] != fixed or len(header) == len(fixed):
        raise DataFormatError(f"{path}: malformed header {lines[0][1]!r}")
    dim = len(header) - len(fixed)
    for j, name in enumerate(header[len(fixed):]):
        if name != f"f{j}":
            raise DataFormatError(f"{path}: malformed header, expected f{j}, got {name!r}")

    sample_ids, camera_ids, identities, wv_ids, rows = [], [], [], [], []
    for lineno, line in lines[1:]:
        parts = line.split(",")
        if len(parts) != len(fixed) + dim:
            raise DataFormatError(
                f"{path}:{lineno}: row has {len(parts) - len(fixed)} features, header declares {dim}"
            )
        try:
            sample_ids.append(parts[0])
            camera_ids.append(int(parts[1]))
            identities.append(None if parts[2] == "" else int(parts[2]))
            wv_ids.append(int(parts[3]))
            rows.append([float(v) for v in parts[4:]])
        except ValueError as err:
            raise DataFormatError(f"{path}:{lineno}: {err}") from err
    try:
        return FeatureTable(
            sample_ids=tuple(sample_ids),
            camera_ids=camera_ids,
            identities=tuple(identities),
            within_view_ids=wv_ids,
            features=np.array(rows, dtype=np.float64).reshape(len(rows), dim),
        )
    except DataValidationError as err:
        raise DataFormatError(f"{path}: {err}") from err


def _table_parts(table: FeatureTable):
    """The binary table's parts in file order: the file header, then each
    row's header and its features, as the row's own buffer."""
    yield _TABLE_HEADER.pack(TABLE_MAGIC, TABLE_VERSION, table.n, table.dim)
    for i in range(table.n):
        sid, ident = table.sample_ids[i].encode("utf-8"), table.identities[i]
        camera, wv = int(table.camera_ids[i]), int(table.within_view_ids[i])
        if ident is None:
            fields = _ROW_FIELDS.pack(camera, 0, wv)
        else:
            fields = _ROW_FIELDS.pack(camera, 1, ident) + _U64.pack(wv)
        yield _ID_LENGTH.pack(len(sid)) + sid + fields
        yield np.ascontiguousarray(table.features[i], dtype="<f8")


def _from_binary(fd: int, context: str = "table") -> FeatureTable:
    """A table read from an open binary file: a header scan, then a fill of
    the preallocated feature matrix (see the module docstring)."""
    size = os.fstat(fd).st_size
    magic = read(fd, size, 0, len(TABLE_MAGIC), context)
    if magic != TABLE_MAGIC:
        raise DataFormatError(f"{context}: bad magic, not a feature-table file")
    _, version, n, dim = _TABLE_HEADER.unpack(read(fd, size, 0, _TABLE_HEADER.size, context))
    if version != TABLE_VERSION:
        raise DataFormatError(f"{context}: unsupported table version {version}")
    # Check the header before allocating: a row takes at least 16 + 8*dim
    # bytes (a nonempty id), and even an empty table's dim must be indexable.
    remaining = size - _TABLE_HEADER.size
    if n * (16 + 8 * dim) > remaining or dim > np.iinfo(np.intp).max:
        raise DataFormatError(
            f"{context}: header declares {n} rows of dimension {dim}, "
            f"which {remaining} remaining bytes cannot hold"
        )
    sample_ids, camera_ids, identities, wv_ids, offsets = _scan(fd, size, n, dim, context)
    feats = np.empty((n, dim), dtype="<f8")
    workers = max(1, min(usable_cores(), feats.nbytes // _FILL_CHUNK))
    bounds = [n * k // workers for k in range(workers + 1)]

    def fill(k: int) -> None:
        _fill(fd, feats, offsets, bounds[k], bounds[k + 1], context)

    if workers == 1:
        fill(0)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(fill, range(workers)))
    try:
        return FeatureTable._of_finite(
            sample_ids=sample_ids, camera_ids=camera_ids, identities=identities,
            within_view_ids=wv_ids, features=feats,
        )
    except DataValidationError as err:
        raise DataFormatError(f"{context}: {err}") from err


def _scan(fd: int, size: int, n: int, dim: int, context: str):
    """Each row's sample id, camera id, identity and within-view id, and the
    file offset of its features, from one positioned read per row header
    (more for a long id); every row is checked to fit the file, and the last
    to end where the file does."""
    sample_ids, camera_ids, identities, wv_ids, offsets = [], [], [], [], []
    pos = _TABLE_HEADER.size
    for i in range(n):
        head = read(fd, size, pos, min(_ROW_HEAD_READ, size - pos), context)
        if len(head) < _ID_LENGTH.size:
            head = read(fd, size, pos, _ID_LENGTH.size, context)
        (length,) = _ID_LENGTH.unpack_from(head)
        fixed = _ID_LENGTH.size + length + _ROW_FIELDS.size
        if len(head) < fixed:
            head = read(fd, size, pos, fixed, context)
        try:
            sample_ids.append(str(head[_ID_LENGTH.size:_ID_LENGTH.size + length], "utf-8"))
        except UnicodeDecodeError as err:
            raise DataFormatError(f"{context}: sample id of row {i} is not UTF-8") from err
        camera, labeled, first = _ROW_FIELDS.unpack_from(head, fixed - _ROW_FIELDS.size)
        camera_ids.append(camera)
        end = fixed
        if labeled:
            identities.append(first)
            end += _U64.size
            if len(head) < end:
                head = read(fd, size, pos, end, context)
            (first,) = _U64.unpack_from(head, fixed)
        else:
            identities.append(None)
        wv_ids.append(first)
        pos += end
        if pos + 8 * dim > size:
            raise truncated(context, 8 * dim, pos, size - pos)
        offsets.append(pos)
        pos += 8 * dim
    if pos < size:
        raise DataFormatError(f"{context}: {size - pos} bytes after the {n} rows the header declares")
    return sample_ids, camera_ids, identities, wv_ids, offsets


def _fill(fd: int, feats: np.ndarray, offsets: list[int], lo: int, hi: int, context: str) -> None:
    """Read rows lo..hi-1's features into feats in blocks of about _FILL_BLOCK
    bytes, each with scatter reads over its rows' bytes, the row headers
    between them going to a scratch buffer, and prove each block finite
    right after its read."""
    if not feats[lo:hi].size:       # no rows, or rows of no features
        return
    row_bytes = feats.shape[1] * feats.itemsize
    step = max(1, _FILL_BLOCK // row_bytes)
    rows = memoryview(feats).cast("B")
    headers = [offsets[i] - offsets[i - 1] - row_bytes for i in range(lo + 1, hi)]
    scratch = memoryview(bytearray(max(headers, default=0)))
    for start in range(lo, hi, step):
        stop = min(start + step, hi)
        views = [rows[start * row_bytes:(start + 1) * row_bytes]]
        for i in range(start + 1, stop):
            views += (scratch[:headers[i - lo - 1]], rows[i * row_bytes:(i + 1) * row_bytes])
        readv(fd, views, offsets[start], context)
        if not all_finite(feats[start:stop]):
            raise DataFormatError(f"{context}: features must be finite (no NaN or inf)")
