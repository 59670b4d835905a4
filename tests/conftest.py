import os
import struct
import tempfile
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from nullmargin import (
    FeatureTable, SyntheticSpec, dataio, generate_synthetic, load_feature_table, save_feature_table,
)
from nullmargin.dataio import group_rows
from nullmargin.mining import find_anchor
from nullmargin.nk3ml import _model_parts, load_model


def make_table(features, cameras, identities, within_view=None, prefix="s"):
    """FeatureTable from plain arrays; within_view defaults to the identity."""
    features = np.atleast_2d(np.asarray(features, dtype=float))
    n = features.shape[0]
    if within_view is None:
        within_view = [i if i is not None else 0 for i in identities]
    return FeatureTable(
        sample_ids=tuple(f"{prefix}{i}" for i in range(n)),
        camera_ids=np.asarray(cameras),
        identities=tuple(identities),
        within_view_ids=np.asarray(within_view),
        features=features,
    )


def anchor_of(table):
    """find_anchor over every row of a table, as `nullmargin mine` calls it."""
    return find_anchor(table.features, group_rows(table.camera_ids, table.within_view_ids))


def model_bytes(model) -> bytes:
    """The container bytes save_model writes for a model."""
    return b"".join(_model_parts(model))


def read_model(data: bytes):
    """A model loaded from container bytes written to a temporary file, as
    load_model reads any model file."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.nk3m"
        path.write_bytes(data)
        return load_model(path)


def lifted_model(span, features):
    """The lifted model of a SpanModel: the file span.save writes, loaded
    back."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.nk3m"
        span.save(features, path)
        return load_model(path)


def load_binary(path, data: bytes) -> FeatureTable:
    """A binary table read from data written to path, as load_feature_table
    reads any table file."""
    path.write_bytes(data)
    return load_feature_table(path, "binary")


def use_cores(monkeypatch, count: int) -> None:
    """Make the process report `count` usable cores, so every pool sized from
    them (load fill, trials, lift) sizes itself as on such a host."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))


def record_pool_widths(monkeypatch, *modules) -> list:
    """The widths of the thread pools the modules make from now on, in order."""
    widths = []

    class RecordingPool(ThreadPoolExecutor):
        def __init__(self, max_workers):
            widths.append(max_workers)
            super().__init__(max_workers)

    for module in modules:
        monkeypatch.setattr(module, "ThreadPoolExecutor", RecordingPool)
    return widths


def use_fill_workers(monkeypatch, count: int, block: int | None = None) -> None:
    """Make every binary table load fill its features on `count` threads,
    however small the table, each reading and proving `block` feature bytes
    at a time when a block size is given."""
    monkeypatch.setattr(dataio, "_FILL_CHUNK", 1)
    monkeypatch.setattr(dataio, "usable_cores", lambda: count)
    if block is not None:
        monkeypatch.setattr(dataio, "_FILL_BLOCK", block)


# Table paths every loader must reject with DataFormatError (CLI exit 3).
HOSTILE_TABLES = (
    "empty.ssml",
    "huge_header.ssml",
    "overflow_header.ssml",
    "non_utf8_id.ssml",
    "inf_feature.ssml",
    "huge_identity.ssml",
    "huge_within_view.ssml",
    "trailing_bytes.ssml",
    "header_undercount.ssml",
    "non_utf8.csv",
    "nan_feature.csv",
    "huge_identity.csv",
    "huge_within_view.csv",
    "huge_camera.csv",
    "directory",
)


@pytest.fixture(scope="session")
def hostile_dir(tmp_path_factory):
    """Directory holding the HOSTILE_TABLES files."""
    out = tmp_path_factory.mktemp("hostile")
    table = generate_synthetic(SyntheticSpec(identities=12, cameras=2, dim=20, noise_sigma=0.1))
    features = np.array(table.features)
    features[:, 0] = 0.5    # a sentinel to overwrite; as finite data the table fits
    table = FeatureTable(
        table.sample_ids, table.camera_ids, table.identities, table.within_view_ids, features
    )
    save_feature_table(table, out / "ok.ssml", "binary")
    save_feature_table(table, out / "ok.csv", "csv")
    ssml, csv = (out / "ok.ssml").read_bytes(), (out / "ok.csv").read_bytes()
    # Each identity i is saved as 900 + i, then rewritten as 2**63 + i, past int64.
    marked = replace(table, identities=[900 + ident for ident in table.identities])
    save_feature_table(marked, out / "marked.ssml", "binary")
    save_feature_table(marked, out / "marked.csv", "csv")
    huge_ssml, huge_csv = (out / "marked.ssml").read_bytes(), (out / "marked.csv").read_bytes()
    for ident in set(table.identities):
        big = (1 << 63) + ident
        huge_ssml = huge_ssml.replace(struct.pack("<Q", 900 + ident), struct.pack("<Q", big))
        huge_csv = huge_csv.replace(b",%d," % (900 + ident), b",%d," % big)
    # the first row's within_view_id (its fourth field) set to 2**64, and its
    # camera_id (second field) to 2**63
    header, first, rest = csv.split(b"\n", 2)
    huge_wv, huge_cam = first.split(b","), first.split(b",")
    huge_wv[3], huge_cam[1] = b"%d" % (1 << 64), b"%d" % (1 << 63)
    # the first row's u64 within-view id, after the header, its id, u16 camera,
    # u8 flag and u64 identity
    wv_at = 22 + 4 + len(table.sample_ids[0]) + 2 + 1 + 8
    files = {
        "empty.ssml": b"",
        # 22-byte header claiming 2**20 rows of dimension 2**14 (a 128 GiB array)
        "huge_header.ssml": struct.pack("<4sHQQ", b"SSML", 1, 1 << 20, 1 << 14),
        "overflow_header.ssml": struct.pack("<4sHQQ", b"SSML", 1, 1 << 40, 1 << 40),
        # the first byte of the first sample id, after the header and its u32 length
        "non_utf8_id.ssml": ssml[:26] + b"\xff" + ssml[27:],
        "inf_feature.ssml": ssml.replace(struct.pack("<d", 0.5), struct.pack("<d", np.inf)),
        "huge_identity.ssml": huge_ssml,
        "huge_within_view.ssml": ssml[:wv_at] + struct.pack("<Q", 1 << 63) + ssml[wv_at + 8:],
        "trailing_bytes.ssml": ssml + b"\x00" * 7,
        # the header's row count (after magic and version) says 20 of the 24 rows
        "header_undercount.ssml": ssml[:6] + struct.pack("<Q", table.n - 4) + ssml[14:],
        "non_utf8.csv": csv.replace(b"id", b"\xff", 1),
        "nan_feature.csv": csv.replace(b",0.5,", b",nan,"),
        "huge_identity.csv": huge_csv,
        "huge_within_view.csv": b"\n".join([header, b",".join(huge_wv), rest]),
        "huge_camera.csv": b"\n".join([header, b",".join(huge_cam), rest]),
    }
    for name, data in files.items():
        (out / name).write_bytes(data)
    (out / "directory").mkdir()
    return out


def labeled_gaussians(rng, classes, per_class, dim, spread=0.05, cameras=2):
    """Well-separated class blobs split across cameras, fully labeled."""
    feats, cams, idents = [], [], []
    centers = rng.standard_normal((classes, dim)) * 10.0
    for c in range(classes):
        for j in range(per_class):
            feats.append(centers[c] + spread * rng.standard_normal(dim))
            cams.append(j % cameras)
            idents.append(c)
    return make_table(np.array(feats), cams, idents)


@pytest.fixture(scope="session")
def noisefree_table():
    spec = SyntheticSpec(identities=12, cameras=2, dim=30, seed=7)
    return generate_synthetic(spec)


@pytest.fixture(scope="session")
def easy_table():
    spec = SyntheticSpec(
        identities=20,
        cameras=2,
        dim=60,
        per_camera_transform_strength=0.2,
        noise_sigma=0.02,
        seed=11,
    )
    return generate_synthetic(spec)


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    """Fail a passing test whose captured output holds a LAPACK argument error
    (its xerbla prints " ** On entry to <routine> parameter number ...")."""
    outcome = yield
    report = outcome.get_result()
    # sections hold every phase so far; each is named "Captured <stream> <phase>"
    printed = (text for name, text in report.sections if name.endswith(f" {report.when}"))
    if report.passed and any("On entry to" in text for text in printed):
        report.outcome = "failed"
        report.longrepr = f"LAPACK printed an argument error during {report.when}"


@pytest.fixture(autouse=True)
def no_leaked_threads():
    """Fail a test that leaves behind a thread it started, such as a pool
    worker never joined."""
    before = set(threading.enumerate())
    yield
    leaked = [t.name for t in threading.enumerate() if t not in before]
    if leaked:
        pytest.fail(f"threads left running: {leaked}")
