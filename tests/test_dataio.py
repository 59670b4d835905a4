import hashlib
import os
import struct
import subprocess
import sys
import warnings
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import nullmargin
from nullmargin import (
    FeatureTable,
    KernelSpec,
    LoopConfig,
    SplitSpec,
    SyntheticSpec,
    fit_nk3ml,
    generate_synthetic,
    load_feature_table,
    load_model,
    make_split,
    model_checksum,
    save_feature_table,
    save_model,
)
from nullmargin.cli import main
from nullmargin.dataio import _table_parts, table_format_for
from nullmargin.errors import DataFormatError, DataValidationError, ModelFormatError

from conftest import HOSTILE_TABLES, labeled_gaussians, load_binary, make_table, use_fill_workers


def test_csv_parse_with_unlabeled_row(tmp_path):
    path = tmp_path / "small.csv"
    path.write_text(
        "sample_id,camera_id,identity,within_view_id,f0,f1\n"
        "a,0,3,0,1.5,2.0\n"
        "b,1,,1,0.25,-1.0\n"
        "c,1,3,0,0.0,4.5\n"
    )
    table = load_feature_table(path, "csv")
    assert table.n == 3 and table.dim == 2
    assert table.identities == (3, None, 3)
    assert sum(1 for i in table.identities if i is None) == 1
    np.testing.assert_array_equal(table.features[1], [0.25, -1.0])


def test_csv_dimension_mismatch(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(
        "sample_id,camera_id,identity,within_view_id,f0,f1\n"
        "a,0,1,0,1.0,2.0\n"
        "b,0,2,1,1.0,2.0,3.0\n"
    )
    with pytest.raises(DataFormatError, match="features"):
        load_feature_table(path, "csv")


def test_csv_malformed_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("sample,camera_id,identity,within_view_id,f0\na,0,1,0,1.0\n")
    with pytest.raises(DataFormatError, match="header"):
        load_feature_table(path, "csv")


def test_csv_error_names_the_physical_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(
        "sample_id,camera_id,identity,within_view_id,f0,f1\n"
        "\n"
        "a,0,1,0,1.0,2.0\n"
        "   \n"
        "b,0,x,1,2.0\n"
    )
    with pytest.raises(DataFormatError, match=r"bad\.csv:5: row has 1 features"):
        load_feature_table(path, "csv")
    path.write_text(path.read_text().replace("b,0,x,1,2.0", "b,0,x,1,2.0,3.0"))
    with pytest.raises(DataFormatError, match=r"bad\.csv:5: invalid literal"):
        load_feature_table(path, "csv")


@pytest.mark.parametrize("rows", [
    np.array([True]),
    np.array([True, False, True, False]),
    np.ones((3, 1), dtype=bool),
    [-1],
    [0, 3],
], ids=["short mask", "long mask", "2-d mask", "negative index", "index past the end"])
def test_subset_rejects_bad_masks_and_indices(rows):
    table = make_table([[1.0], [2.0], [3.0]], cameras=[0, 1, 0], identities=[0, 0, 1])
    with pytest.raises(DataValidationError):
        table.subset(rows)
    assert table.subset(np.array([False, True, True])).sample_ids == ("s1", "s2")
    assert table.subset([2, 0]).sample_ids == ("s2", "s0")
    assert table.subset([]).n == 0


def test_duplicate_sample_id_rejected(tmp_path):
    path = tmp_path / "dup.csv"
    path.write_text(
        "sample_id,camera_id,identity,within_view_id,f0\n"
        "a,0,1,0,1.0\n"
        "a,1,1,0,2.0\n"
    )
    with pytest.raises(DataFormatError, match="duplicate"):
        load_feature_table(path, "csv")


@pytest.mark.parametrize("name", HOSTILE_TABLES)
def test_hostile_table_is_a_format_error(hostile_dir, name):
    path = hostile_dir / name
    with pytest.raises(DataFormatError):
        load_feature_table(path, table_format_for(path))


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_features_rejected(value):
    with pytest.raises(DataValidationError, match="finite"):
        make_table([[1.0, value], [0.0, 1.0]], cameras=[0, 1], identities=[0, 0])


def test_binary_within_view_id_beyond_int64_rejected(tmp_path):
    data = b"".join(
        _table_parts(make_table([[1.0], [2.0]], cameras=[0, 1], identities=[0, 0]))
    )
    # the last row's u64 within-view id precedes its one f64 feature
    data = data[:-16] + struct.pack("<Q", (1 << 64) - 1) + data[-8:]
    with warnings.catch_warnings():
        warnings.simplefilter("error")      # no lossy cast on the way
        with pytest.raises(DataFormatError, match=r"nonnegative, in \[0, 2\*\*63\)"):
            load_binary(tmp_path / "t.ssml", data)


@pytest.mark.parametrize("name", ["huge_within_view.ssml", "huge_within_view.csv", "huge_camera.csv"])
def test_ids_past_int64_are_rejected_naming_the_range(hostile_dir, name):
    # Ids of 2**63 and up: no cast may wrap them into negatives (the binary
    # u64) or pass them through float64 with a RuntimeWarning (CSV).
    path = hostile_dir / name
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DataFormatError, match=r"must be nonnegative, in \[0, 2\*\*63\)$"):
            load_feature_table(path, table_format_for(path))


@pytest.mark.parametrize(
    "cameras, within_view, match",
    [
        (np.array([0.5, 1.7]), [0, 1], "integers, not float64"),
        ([0.0, 1.0], [0, 1], "integers, not float64"),
        ([0, 1], np.array([True, False]), "integers, not bool"),
        ([0, 1], ["0", "1"], "integers, not <U1"),
        ([0, 1], np.array([1 << 63, 0], dtype=np.uint64), r"nonnegative, in \[0, 2\*\*63\)$"),
        (np.array([0, (1 << 64) - 1], dtype=np.uint64), [0, 1], r"nonnegative, in \[0, 2\*\*63\)$"),
        ([-1, 1 << 63], [0, 1], r"nonnegative, in \[0, 2\*\*63\)$"),
        ([0, 1], [0, 1 << 64], r"nonnegative, in \[0, 2\*\*63\)$"),
    ],
)
def test_id_columns_are_checked_not_cast(cameras, within_view, match):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DataValidationError, match=match):
            FeatureTable(("a", "b"), cameras, (None, None), within_view, [[1.0], [2.0]])


@pytest.mark.parametrize("dtype", [np.int8, np.int32, np.uint16, np.uint64])
def test_integer_id_columns_of_any_width_read_as_int64(dtype):
    table = make_table([[1.0], [2.0]], np.array([0, 1], dtype=dtype), [None, None],
                       np.array([7, (1 << 7) - 1], dtype=dtype))
    assert table.camera_ids.dtype == table.within_view_ids.dtype == np.int64
    assert table.within_view_ids.tolist() == [7, 127]


@pytest.mark.parametrize("identity", [True, False, 1.0, np.int64(1)])
def test_identity_must_be_a_python_int(identity):
    with pytest.raises(DataValidationError, match="must be a nonnegative signed 64-bit integer"):
        make_table([[1.0], [2.0]], [0, 1], [identity, 0], within_view=[0, 0])


@pytest.mark.parametrize("fmt", ["binary", "csv"])
def test_empty_table_loads(tmp_path, fmt):
    table = FeatureTable((), [], (), [], np.zeros((0, 3)))
    assert table.camera_ids.dtype == table.within_view_ids.dtype == np.int64
    save_feature_table(table, tmp_path / "empty", fmt)
    loaded = load_feature_table(tmp_path / "empty", fmt)
    assert (loaded.n, loaded.dim, loaded.camera_ids.dtype) == (0, 3, np.int64)


COUNT_SPECS = {
    "split.trials": lambda v: SplitSpec(seed=0, trials=v),
    "split.seed": lambda v: SplitSpec(seed=v),
    "synthetic.identities": lambda v: SyntheticSpec(identities=v, cameras=2, dim=4),
    "synthetic.cameras": lambda v: SyntheticSpec(identities=4, cameras=v, dim=4),
    "synthetic.dim": lambda v: SyntheticSpec(identities=4, cameras=2, dim=v),
    "synthetic.seed": lambda v: SyntheticSpec(identities=4, cameras=2, dim=4, seed=v),
}


@pytest.mark.parametrize("field", sorted(COUNT_SPECS))
@pytest.mark.parametrize("value", [2.5, 3.0, np.float64(3.0), True, np.True_, "3", None])
def test_spec_counts_must_be_integers(field, value):
    with pytest.raises(DataValidationError, match=f"{field.split('.')[1]} must be an integer"):
        COUNT_SPECS[field](value)


@pytest.mark.parametrize("field", sorted(COUNT_SPECS))
def test_spec_counts_take_numpy_integers_as_ints(field):
    spec = COUNT_SPECS[field](np.int64(3))
    assert type(getattr(spec, field.split(".")[1])) is int


# Real-valued settings, by field name; each builds its config from one value.
REAL_SETTINGS = {
    "quantile": lambda v: LoopConfig(quantile=v),
    "per_camera_transform_strength": lambda v: SyntheticSpec(
        identities=4, cameras=2, dim=4, per_camera_transform_strength=v
    ),
    "noise_sigma": lambda v: SyntheticSpec(identities=4, cameras=2, dim=4, noise_sigma=v),
    "bandwidth": lambda v: KernelSpec("rbf", v),
}


@pytest.mark.parametrize("name", sorted(REAL_SETTINGS))
@pytest.mark.parametrize("value", [True, np.True_, "0.5", None, 0.5j, [0.5]])
def test_real_settings_must_be_real_numbers(name, value):
    with pytest.raises(DataValidationError, match=f"{name} must be"):
        REAL_SETTINGS[name](value)


@pytest.mark.parametrize("name", sorted(REAL_SETTINGS))
@pytest.mark.parametrize("value", [1, np.float64(0.5), np.float32(0.5), Fraction(1, 2)])
def test_real_settings_take_any_real_as_a_float(name, value):
    got = getattr(REAL_SETTINGS[name](value), name)
    assert type(got) is float and got == value


@pytest.mark.parametrize("name", sorted(REAL_SETTINGS))
def test_real_settings_past_the_float_range_rejected(name):
    with pytest.raises(DataValidationError, match="outside the float range"):
        REAL_SETTINGS[name](10**400)


@pytest.mark.parametrize("ids", [(1, 2), (b"a", "b"), ("a", None), (np.int64(1), "b")])
def test_sample_ids_must_be_strings(ids):
    table = make_table([[1.0], [2.0]], cameras=[0, 1], identities=[0, None])
    with pytest.raises(DataValidationError, match="alphanumeric/underscore str"):
        replace(table, sample_ids=ids)


def test_finite_features_whose_sum_overflows_accepted():
    table = make_table([[1e308], [1e308]], cameras=[0, 1], identities=[0, 0])
    assert table.features.max() == 1e308


def test_sample_id_with_a_trailing_newline_rejected():
    table = make_table([[1.0], [2.0]], cameras=[0, 1], identities=[0, None])
    with pytest.raises(DataValidationError, match="alphanumeric"):
        replace(table, sample_ids=("a\n", "b"))


def test_binary_sample_id_with_a_trailing_newline_is_a_format_error(tmp_path):
    table = make_table([[1.0], [2.0]], cameras=[0, 1], identities=[0, None])
    table = replace(table, sample_ids=("a_", "b"))
    data = b"".join(_table_parts(table)).replace(b"a_", b"a\n")
    with pytest.raises(DataFormatError, match="alphanumeric"):
        load_binary(tmp_path / "t.ssml", data)


def assert_binary_round_trip_bit_exact(tmp_path, n, dim, unlabeled_every=0):
    rng = np.random.default_rng(42)
    identities = [int(i) for i in rng.integers(0, 40, size=n)]
    if unlabeled_every:
        identities[::unlabeled_every] = [None] * len(identities[::unlabeled_every])
    table = make_table(
        rng.standard_normal((n, dim)),
        cameras=rng.integers(0, 2, size=n),
        identities=identities,
        within_view=rng.integers(0, 40, size=n),
    )
    path = tmp_path / "t.ssml"
    digest = save_feature_table(table, path, "binary")
    assert digest == hashlib.sha256(path.read_bytes()).hexdigest()
    loaded = load_feature_table(path, "binary")
    assert loaded.features.tobytes() == table.features.tobytes()
    assert loaded.sample_ids == table.sample_ids
    assert loaded.identities == table.identities
    assert loaded.camera_ids.tobytes() == table.camera_ids.tobytes()
    assert loaded.within_view_ids.tobytes() == table.within_view_ids.tobytes()
    path2 = tmp_path / "t2.ssml"
    save_feature_table(loaded, path2, "binary")
    assert path.read_bytes() == path2.read_bytes()


def test_binary_round_trip_bit_exact(tmp_path):
    assert_binary_round_trip_bit_exact(tmp_path, 100, 50)


# 600 rows of 400 B, more buffers than one scatter read may take (IOV_MAX is
# 1024 on Linux), and 6 rows of 80 KB, each table with labeled and unlabeled
# rows, filled on one thread and on several; 8 threads leave some none.
@pytest.mark.parametrize("n, dim", [(600, 50), (6, 10000)], ids=["small rows", "large rows"])
def test_binary_round_trip_of_mixed_rows_bit_exact(tmp_path, monkeypatch, n, dim):
    for workers in (1, 3, 8):
        use_fill_workers(monkeypatch, workers)
        assert_binary_round_trip_bit_exact(tmp_path, n, dim, unlabeled_every=3)


def saved_table(path):
    """A binary table saved to path: its loader, the loaded value it must
    give and the error class of a bad file."""
    rng = np.random.default_rng(8)
    table = make_table(rng.standard_normal((9, 5)), cameras=[i % 2 for i in range(9)],
                       identities=[None if i % 4 == 0 else i for i in range(9)])
    save_feature_table(table, path, "binary")
    return (lambda: load_feature_table(path, "binary").features.tobytes(),
            table.features.tobytes(), DataFormatError)


def saved_model(path):
    """A model saved to path, as saved_table gives a table."""
    model = fit_nk3ml(labeled_gaussians(np.random.default_rng(8), 4, 3, 20))
    save_model(model, path)
    return lambda: model_checksum(load_model(path)), model_checksum(model), ModelFormatError


# Both binary readers fill their arrays through one scatter-read loop.
@pytest.mark.parametrize("saved", [saved_table, saved_model], ids=["table", "model"])
def test_short_reads_resume_and_a_read_past_the_end_is_a_format_error(tmp_path, monkeypatch, saved):
    load, expected, error = saved(tmp_path / "saved")
    use_fill_workers(monkeypatch, 3)
    real_preadv = os.preadv
    # Each read returns at most 5 bytes, ending mid-buffer, and must be resumed.
    monkeypatch.setattr(os, "preadv", lambda fd, buffers, offset:
                        real_preadv(fd, [memoryview(buffers[0]).cast("B")[:5]], offset))
    assert load() == expected
    # The file seems to end in its middle, as if it had shrunk after it was
    # sized: a read past the middle, such as the table's last fill thread's
    # read of rows 6 to 8, returns nothing.
    middle = (tmp_path / "saved").stat().st_size // 2
    monkeypatch.setattr(os, "preadv", lambda fd, buffers, offset:
                        0 if offset >= middle else real_preadv(fd, buffers, offset))
    with pytest.raises(error, match="truncated"):
        load()


def test_binary_table_truncated_anywhere_is_a_format_error(tmp_path, monkeypatch):
    table = replace(make_table([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]], cameras=[0, 1, 1],
                               identities=[7, None, 7], within_view=[7, 3, 7]),
                    sample_ids=("a", "row_1", "bc"))
    data = b"".join(_table_parts(table))
    path = tmp_path / "t.ssml"
    for workers in (1, 3):
        use_fill_workers(monkeypatch, workers)
        assert load_binary(path, data).identities == (7, None, 7)
        for end in range(len(data)):
            with pytest.raises(DataFormatError):
                load_binary(path, data[:end])


@pytest.mark.parametrize("workers, block_rows", [(1, 1), (3, 1), (3, 7), (8, 50)])
def test_binary_round_trip_in_blocks_bit_exact(tmp_path, monkeypatch, workers, block_rows):
    # 600 rows of 400 B, read and proven a few rows at a time; a block size
    # that is not a whole number of rows rounds down, to at least one row.
    use_fill_workers(monkeypatch, workers, block=block_rows * 400 + 399)
    assert_binary_round_trip_bit_exact(tmp_path, 600, 50, unlabeled_every=3)


def fill_layout(n: int, workers: int, block_rows: int):
    """The rows of a fill of n rows on `workers` threads, block_rows rows a
    block, that start or end a thread's range or a block."""
    bounds = [n * k // workers for k in range(workers + 1)]
    edges = set()
    for lo, hi in zip(bounds, bounds[1:]):
        starts = range(lo, hi, block_rows)
        edges |= {*starts, *(min(s + block_rows, hi) - 1 for s in starts)}
    return sorted(edges)


# 20 rows of 4 features: on 3 threads the ranges are rows 0-5, 6-12 and
# 13-19, read 4 rows a block.
FILL_ROWS, FILL_DIM, FILL_BLOCK_ROWS = 20, 4, 4


def test_fill_layout_names_every_range_and_block_edge():
    assert fill_layout(FILL_ROWS, 3, FILL_BLOCK_ROWS) == [0, 3, 4, 5, 6, 9, 10, 12, 13, 16, 17, 19]


@pytest.mark.parametrize("workers", [1, 3])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
def test_a_non_finite_value_at_any_range_or_block_edge_is_a_format_error(
    tmp_path, monkeypatch, workers, value,
):
    # Every feature is a distinct finite value, so each row's bytes in the
    # file can be found and one value replaced.
    features = np.arange(FILL_ROWS * FILL_DIM, dtype=float).reshape(FILL_ROWS, FILL_DIM) + 0.5
    table = make_table(features, cameras=[i % 2 for i in range(FILL_ROWS)],
                       identities=list(range(FILL_ROWS)))
    data = b"".join(_table_parts(table))
    use_fill_workers(monkeypatch, workers, block=FILL_BLOCK_ROWS * FILL_DIM * 8)
    path = tmp_path / "t.ssml"
    for row in fill_layout(FILL_ROWS, workers, FILL_BLOCK_ROWS):
        found = struct.pack("<d", features[row, row % FILL_DIM])
        assert data.count(found) == 1
        path.write_bytes(data.replace(found, struct.pack("<d", value)))
        with pytest.raises(DataFormatError, match="finite"):
            load_feature_table(path, "binary")
        out = tmp_path / f"out_{row}"
        assert main(["run", "--input", str(path), "-o", str(out), "--trials", "1"]) == 3


def test_binary_load_of_finite_rows_whose_sum_overflows(tmp_path, monkeypatch):
    table = make_table(np.full((6, 3), 1e308), cameras=[0, 1] * 3, identities=[0, 0, 1, 1, 2, 2])
    path = tmp_path / "t.ssml"
    save_feature_table(table, path, "binary")
    for workers in (1, 2):
        use_fill_workers(monkeypatch, workers, block=2 * 3 * 8)
        assert load_feature_table(path, "binary").features.tobytes() == table.features.tobytes()


def test_a_binary_load_proves_finite_blocks_never_the_whole_matrix(tmp_path, monkeypatch):
    rng = np.random.default_rng(4)
    table = make_table(rng.standard_normal((FILL_ROWS, FILL_DIM)), cameras=[0, 1] * (FILL_ROWS // 2),
                       identities=list(range(FILL_ROWS)))
    path = tmp_path / "t.ssml"
    save_feature_table(table, path, "binary")
    real_all_finite = nullmargin.dataio.all_finite
    proven = []

    def spy(values):
        proven.append(values.shape)
        return real_all_finite(values)

    monkeypatch.setattr(nullmargin.dataio, "all_finite", spy)
    for workers in (1, 3):
        proven.clear()
        use_fill_workers(monkeypatch, workers, block=FILL_BLOCK_ROWS * FILL_DIM * 8)
        load_feature_table(path, "binary")
        assert all(rows <= FILL_BLOCK_ROWS and dim == FILL_DIM for rows, dim in proven), proven
        assert sum(rows for rows, _ in proven) == FILL_ROWS


def test_binary_table_written_part_by_part_equals_joined_container(tmp_path):
    rng = np.random.default_rng(3)
    table = make_table(
        rng.standard_normal((12, 9)), cameras=[i % 3 for i in range(12)],
        identities=[None if i % 4 == 0 else i // 2 for i in range(12)],
    )
    path = tmp_path / "t.ssml"
    save_feature_table(table, path, "binary")
    assert path.read_bytes() == b"".join(_table_parts(table))


# The child reads its peak resident set from VmHWM, the high-water mark of
# its own address space, which starts afresh at exec. ru_maxrss would not:
# it carries the resident size of the process that spawned the child.
_LOAD_PEAK = """
import sys
from nullmargin import load_feature_table

def peak():
    with open("/proc/self/status") as status:
        return next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))

before = peak()
table = load_feature_table(sys.argv[1], "binary")
print((peak() - before) * 1024, table.features.nbytes)
"""


def assert_binary_load_holds_the_features_once(tmp_path, n, dim):
    # The reader fills the feature matrix straight from the file, on one
    # thread or several, so loading grows the peak resident set by about one
    # feature matrix, not by the file plus a copy of it.
    rng = np.random.default_rng(5)
    table = make_table(rng.standard_normal((n, dim)), cameras=[i % 2 for i in range(n)],
                       identities=[i // 2 for i in range(n)])
    path = tmp_path / "big.ssml"
    save_feature_table(table, path, "binary")
    del table
    src = Path(nullmargin.__file__).resolve().parent.parent
    path_var = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path_var)
    out = subprocess.run([sys.executable, "-c", _LOAD_PEAK, str(path)], env=env,
                         check=True, capture_output=True, text=True, timeout=120)
    grown, nbytes = map(int, out.stdout.split())
    assert nbytes == n * dim * 8
    assert grown < 1.25 * nbytes, f"load grew the peak RSS by {grown / nbytes:.2f} feature matrices"


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs /proc/self/status")
def test_binary_load_holds_the_features_once(tmp_path):
    # 256 KB rows, 51 MB of features: filled on every usable core
    assert_binary_load_holds_the_features_once(tmp_path, 200, 32000)


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs /proc/self/status")
def test_binary_load_of_small_rows_holds_the_features_once(tmp_path):
    # 8 KB rows: the same 51 MB of features in many small rows
    assert_binary_load_holds_the_features_once(tmp_path, 6400, 1000)


def test_csv_round_trip_value_preserving(tmp_path):
    rng = np.random.default_rng(1)
    table = make_table(
        rng.standard_normal((20, 7)) * 1e3,
        cameras=[i % 2 for i in range(20)],
        identities=[i // 2 for i in range(20)],
    )
    path = tmp_path / "t.csv"
    digest = save_feature_table(table, path, "csv")
    assert digest == hashlib.sha256(path.read_bytes()).hexdigest()
    loaded = load_feature_table(path, "csv")
    # repr() emits shortest round-trip decimals, so this is exact, within the
    # <=1 ulp contract.
    np.testing.assert_array_equal(loaded.features, table.features)


def test_split_counts_8_identities():
    table = generate_synthetic(SyntheticSpec(identities=8, cameras=2, dim=10, seed=0))
    split = make_split(table, SplitSpec(seed=1, trials=10), 0)
    labeled_ids = {i for i in split.labeled.identities}
    test_ids = {i for i in split.probe.identities} | {i for i in split.gallery.identities}
    assert len(labeled_ids) == 1
    assert all(i is None for i in split.unlabeled.identities)
    assert split.unlabeled.n == 6  # 3 identities x 2 cameras
    assert len(test_ids) == 4


def test_split_deterministic():
    table = generate_synthetic(SyntheticSpec(identities=10, cameras=2, dim=8, seed=2))
    a = make_split(table, SplitSpec(seed=9, trials=10), 3)
    b = make_split(table, SplitSpec(seed=9, trials=10), 3)
    assert a.labeled.sample_ids == b.labeled.sample_ids
    assert a.probe.sample_ids == b.probe.sample_ids
    assert a.gallery.sample_ids == b.gallery.sample_ids
    np.testing.assert_array_equal(a.labeled.features, b.labeled.features)


@pytest.mark.parametrize("trial", [1.5, True, np.float64(1.0)], ids=repr)
def test_split_trial_must_be_an_integer(trial):
    # A float or bool trial used to pass the range check and pick trial 1's split.
    table = generate_synthetic(SyntheticSpec(identities=12, cameras=2, dim=8, seed=3))
    with pytest.raises(DataValidationError, match="trial must be an integer"):
        make_split(table, SplitSpec(seed=4, trials=10), trial)


def test_split_trials_differ():
    table = generate_synthetic(SyntheticSpec(identities=12, cameras=2, dim=8, seed=3))
    spec = SplitSpec(seed=4, trials=10)
    labeled_sets = [
        frozenset(i for i in make_split(table, spec, t).labeled.identities)
        for t in range(10)
    ]
    assert len(set(labeled_sets)) > 1


def test_split_is_partition(noisefree_table):
    split = make_split(noisefree_table, SplitSpec(seed=5, trials=10), 1)
    parts = [split.labeled, split.unlabeled, split.probe, split.gallery]
    ids = [sid for part in parts for sid in part.sample_ids]
    assert sorted(ids) == sorted(noisefree_table.sample_ids)
    assert len(set(ids)) == noisefree_table.n


def test_split_probe_single_camera(noisefree_table):
    split = make_split(noisefree_table, SplitSpec(seed=5, trials=10), 2)
    assert len(set(split.probe.camera_ids.tolist())) == 1
    assert set(split.probe.camera_ids.tolist()).isdisjoint(set(split.gallery.camera_ids.tolist()))


def test_strip_preserves_features_and_within_view(noisefree_table):
    split = make_split(noisefree_table, SplitSpec(seed=6, trials=10), 0)
    by_id = {sid: row for row, sid in enumerate(noisefree_table.sample_ids)}
    for row, sid in enumerate(split.unlabeled.sample_ids):
        src = by_id[sid]
        np.testing.assert_array_equal(
            split.unlabeled.features[row], noisefree_table.features[src]
        )
        assert split.unlabeled.within_view_ids[row] == noisefree_table.within_view_ids[src]


def test_split_trial_out_of_range():
    table = generate_synthetic(SyntheticSpec(identities=8, cameras=2, dim=5, seed=0))
    with pytest.raises(DataValidationError, match="trial"):
        make_split(table, SplitSpec(seed=0, trials=3), 3)


def test_split_too_few_identities():
    table = generate_synthetic(SyntheticSpec(identities=3, cameras=2, dim=5, seed=0))
    with pytest.raises(DataValidationError, match="4"):
        make_split(table, SplitSpec(seed=0, trials=1), 0)


@pytest.mark.parametrize("value, expected", [
    (0.25, Fraction(1, 4)),
    ("1/4", Fraction(1, 4)),
    (Fraction(1, 4), Fraction(1, 4)),
    (1, Fraction(1)),
    (0.1, Fraction(1, 10)),     # its decimal text, not the nearest binary fraction
])
def test_split_spec_reads_the_labeled_fraction_exactly(value, expected):
    frac = SplitSpec(seed=0, labeled_fraction=value).labeled_fraction
    assert type(frac) is Fraction and frac == expected


@pytest.mark.parametrize("value", ["abc", "", "1/0"])
def test_split_spec_rejects_a_malformed_labeled_fraction(value):
    with pytest.raises(DataValidationError, match="labeled_fraction"):
        SplitSpec(seed=0, labeled_fraction=value)


def test_split_zero_labeled_fraction_errors():
    table = generate_synthetic(SyntheticSpec(identities=8, cameras=2, dim=5, seed=0))
    with pytest.raises(DataValidationError, match="zero"):
        make_split(table, SplitSpec(seed=0, trials=1, labeled_fraction="1/5"), 0)


def test_gallery_only_distractors_allowed():
    rng = np.random.default_rng(8)
    feats = rng.standard_normal((14, 6))
    cams = [0, 1] * 6 + [1, 1]          # two extra identities only in camera 1
    idents = [0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 7]
    table = make_table(feats, cams, idents)
    split = make_split(table, SplitSpec(seed=2, trials=10), 0)
    gallery_ids = {i for i in split.gallery.identities}
    assert {6, 7} <= gallery_ids
    probe_ids = {i for i in split.probe.identities}
    assert probe_ids <= gallery_ids


def test_synthetic_degenerate_generator():
    table = generate_synthetic(SyntheticSpec(identities=5, cameras=3, dim=12, seed=1))
    for ident in range(5):
        rows = [r for r in range(table.n) if table.identities[r] == ident]
        base = table.features[rows[0]]
        for r in rows[1:]:
            np.testing.assert_array_equal(table.features[r], base)


def test_synthetic_row_count():
    table = generate_synthetic(SyntheticSpec(identities=100, cameras=2, dim=200, seed=9))
    assert table.n == 200
    assert table.dim == 200


def test_synthetic_determinism():
    spec = SyntheticSpec(identities=10, cameras=2, dim=20, noise_sigma=0.3, seed=13)
    a = generate_synthetic(spec)
    b = generate_synthetic(spec)
    assert a.features.tobytes() == b.features.tobytes()


def test_synthetic_nearest_neighbor_rank1():
    spec = SyntheticSpec(
        identities=100,
        cameras=2,
        dim=200,
        per_camera_transform_strength=0.05,
        noise_sigma=0.01,
        seed=21,
    )
    table = generate_synthetic(spec)
    cam0 = [r for r in range(table.n) if table.camera_ids[r] == 0]
    cam1 = [r for r in range(table.n) if table.camera_ids[r] == 1]
    hits = 0
    for q in cam0:
        # brute-force nearest neighbor on raw features
        best, best_dist = None, np.inf
        for g in cam1:
            dist = float(np.linalg.norm(table.features[q] - table.features[g]))
            if dist < best_dist:
                best, best_dist = g, dist
        hits += table.identities[best] == table.identities[q]
    assert hits / len(cam0) >= 0.95
