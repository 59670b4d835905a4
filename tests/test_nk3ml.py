import hashlib
import struct
from dataclasses import replace

import numpy as np
import pytest
from scipy.spatial.distance import cdist, pdist

import nullmargin.evaluation
import nullmargin.kmmc
import nullmargin.nfst
import nullmargin.nk3ml
import scipy.spatial.distance
from nullmargin import (
    KernelSpec,
    LoopConfig,
    SplitSpec,
    embed,
    fit_nk3ml,
    load_model,
    make_split,
    model_checksum,
    run_protocol,
    save_model,
)
from nullmargin.errors import DataValidationError, ModelFormatError, ModelVersionError
from nullmargin.kmmc import fit_nkmmc, project_kernel
from nullmargin.nfst import NullSpaceState, fit_nfst, project_null
from nullmargin.nk3ml import MODEL_MAGIC, Nk3mlModel

from conftest import labeled_gaussians, make_table, model_bytes, read_model


@pytest.fixture(scope="module")
def easy_model(easy_table):
    split = make_split(easy_table, SplitSpec(seed=3, trials=10, labeled_fraction=1), 0)
    return fit_nk3ml(split.labeled), split


def test_minimal_two_class_pipeline():
    table = make_table(
        [[0.0, 0.0, 1.0], [0.1, 0.0, 1.0], [5.0, 5.0, 1.0], [5.1, 5.0, 1.0]],
        cameras=[0, 1, 0, 1],
        identities=[0, 0, 1, 1],
    )
    model = fit_nk3ml(table)
    assert model.nullproj.n_directions == 1
    assert model.margin.output_dim >= 1


def unequal_classes_table():
    """Labeled blobs with 1 to 4 rows per class, rows in class order."""
    rng = np.random.default_rng(21)
    counts = [1, 4, 2, 3, 1, 4, 2, 3]
    centers = rng.standard_normal((len(counts), 50)) * 10.0
    feats = np.vstack([centers[c] + rng.standard_normal((n, 50)) for c, n in enumerate(counts)])
    labels = np.repeat(np.arange(len(counts)) * 5 + 2, counts)
    return make_table(feats, np.arange(len(labels)) % 2, labels.tolist())


def test_margin_stage_fits_one_point_per_class():
    table = unequal_classes_table()
    model = fit_nk3ml(table)
    labels = table.label_values()
    np.testing.assert_array_equal(model.margin.class_index, np.unique(labels))
    # each margin point is the null-space point all rows of its class share
    projected = project_null(model.nullproj, table.features)
    for point, cls in zip(model.margin.train_points, model.margin.class_index):
        np.testing.assert_allclose(projected[labels == cls] - point, 0.0,
                                   rtol=0, atol=1e-9 * np.abs(projected).max())


def test_model_with_duplicated_margin_rows_still_loads():
    # A model written before the margin stage fitted on class points carries
    # all n projected rows (fit_nkmmc without multiplicities still fits them
    # exactly as it did then); it keeps loading and embeds like the c-point fit.
    # The two fits keep one span in different bases (eigh on the n rows, a
    # pivoted Cholesky basis on the c points), so their embeddings agree up
    # to a rotation: equal Gram matrices and pairwise distances.
    table = unequal_classes_table()
    projector, _ = fit_nfst(table)
    margin = fit_nkmmc(project_null(projector, table.features), table.label_values(), KernelSpec())
    loaded = read_model(model_bytes(Nk3mlModel(nullproj=projector, margin=margin)))
    assert loaded.margin.train_points.shape[0] == table.n
    x = np.vstack([table.features, np.random.default_rng(22).standard_normal((10, table.dim)) * 10.0])
    got, expected = embed(loaded, x), embed(fit_nk3ml(table), x)
    assert got.shape == expected.shape
    scale = np.abs(expected).max()
    np.testing.assert_allclose(got @ got.T, expected @ expected.T, rtol=0, atol=1e-9 * scale**2)
    distances = pdist(expected)
    np.testing.assert_allclose(pdist(got), distances, rtol=0, atol=1e-9 * distances.max())


def test_embed_is_stage_composition(easy_model):
    model, split = easy_model
    x = split.probe.features[:4]
    expected = project_kernel(model.margin, project_null(model.nullproj, x))
    np.testing.assert_array_equal(embed(model, x), expected)


def test_same_class_collapse_in_final_space(easy_model):
    model, split = easy_model
    vectors = embed(model, split.labeled.features)
    labels = split.labeled.label_values()
    dists = cdist(vectors, vectors)
    intra = max(
        dists[i, j]
        for i in range(len(labels))
        for j in range(i + 1, len(labels))
        if labels[i] == labels[j]
    )
    inter_mean = np.mean(
        [
            dists[i, j]
            for i in range(len(labels))
            for j in range(i + 1, len(labels))
            if labels[i] != labels[j]
        ]
    )
    assert intra <= 1e-6 * inter_mean


def test_fit_deterministic_bit_identical(rng_classes=5):
    rng = np.random.default_rng(0)
    table = labeled_gaussians(rng, classes=rng_classes, per_class=2, dim=40)
    a = model_bytes(fit_nk3ml(table))
    b = model_bytes(fit_nk3ml(table))
    assert a == b


def test_embed_deterministic(easy_model):
    model, split = easy_model
    x = split.gallery.features
    assert embed(model, x).tobytes() == embed(model, x).tobytes()


def test_embed_dimension_mismatch(easy_model):
    model, _ = easy_model
    with pytest.raises(DataValidationError):
        embed(model, np.ones((1, model.nullproj.dim + 1)))


def test_projections_take_rows_only(easy_model):
    model, split = easy_model
    x = split.gallery.features
    assert embed(model, x[:1]).shape == (1, model.margin.output_dim)
    for project, source in ((embed, model), (project_null, model.nullproj)):
        with pytest.raises(DataValidationError, match="rows"):
            project(source, x[0])
        with pytest.raises(DataValidationError, match="rows"):
            project(source, x[None])


def test_training_sample_maps_to_class_point(easy_model):
    model, split = easy_model
    labels = split.labeled.label_values()
    vectors = embed(model, split.labeled.features)
    cls = labels[0]
    rows = vectors[labels == cls]
    assert np.linalg.norm(rows - rows[0], axis=1).max() <= 1e-6 * (1 + np.linalg.norm(rows[0]))


def test_save_load_round_trip(tmp_path, easy_model):
    model, split = easy_model
    path = tmp_path / "m.nk3m"
    save_model(model, path)
    loaded = load_model(path)
    x = split.probe.features
    assert embed(loaded, x).tobytes() == embed(model, x).tobytes()
    assert model_checksum(loaded) == model_checksum(model)


def test_save_model_writes_the_joined_container(tmp_path, easy_model):
    # save_model writes the writer's parts one by one; the file must equal
    # the container joined in memory.
    model, _ = easy_model
    path = tmp_path / "m.nk3m"
    save_model(model, path)
    assert path.read_bytes() == model_bytes(model)


def test_checksum_streams_the_serialized_bytes(easy_table, monkeypatch):
    # One protocol trial gives both models: the loop's model in span
    # coordinates, whose checksum the run returns, and its lift.
    span_models = []
    real_loop = nullmargin.evaluation.run_self_training

    def recording_loop(*args):
        model, trace = real_loop(*args)
        span_models.append(model)
        return model, trace

    monkeypatch.setattr(nullmargin.evaluation, "run_self_training", recording_loop)
    result = run_protocol(easy_table, SplitSpec(seed=4, trials=1), LoopConfig(), "semi_supervised")
    (span_model,) = span_models
    lifted = result.final_span.lift(easy_table.features)
    assert lifted.nullproj.dim == easy_table.dim > span_model.nullproj.dim
    # a column-major w_n goes through the copying path of the writer
    fortran = replace(span_model, nullproj=replace(
        span_model.nullproj, w_n=np.asfortranarray(span_model.nullproj.w_n)
    ))
    for model in (lifted, span_model, fortran):
        expected = hashlib.sha256(model_bytes(model)).hexdigest()
        assert model_checksum(model) == expected
    assert model_checksum(fortran) == model_checksum(span_model)
    assert result.model_checksums == (model_checksum(span_model),)


def test_refit_round_forms_no_pairwise_distances_and_no_projections(monkeypatch):
    # A loop round's margin stage takes its class points from the null-space
    # solve and its auto bandwidth from the Gram's own distance matrix.
    table = unequal_classes_table()
    labels = table.label_values()
    state = NullSpaceState(table.dim)
    fit_nk3ml(table.subset(np.flatnonzero(labels < 20)), KernelSpec(), state)
    calls = []

    def counted(name, real):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        return wrapper

    for module in (nullmargin.nk3ml, nullmargin.nfst):
        monkeypatch.setattr(module, "project_null", counted("project_null", project_null))
    monkeypatch.setattr(
        scipy.spatial.distance, "pdist", counted("pdist", scipy.spatial.distance.pdist)
    )
    assert not hasattr(nullmargin.kmmc, "pdist")            # no name bound past the patch
    model = fit_nk3ml(table.subset(np.flatnonzero(labels >= 20)), KernelSpec(), state)
    assert len(model.margin.class_index) == len(np.unique(labels))
    assert calls == []


def test_load_model_reads_blocks_from_the_file(tmp_path, easy_model, monkeypatch):
    # The file is read block by block in place, never whole; unknown bytes at
    # the end of a block are skipped as in the in-memory reader.
    model, split = easy_model
    data = model_bytes(model)
    (block1_len,) = struct.unpack_from("<Q", data, 6)
    block1_end = 6 + 8 + block1_len
    patched = bytearray(data)
    patched[block1_end:block1_end] = b"\x07" * 12
    struct.pack_into("<Q", patched, 6, block1_len + 12)
    path = tmp_path / "m.nk3m"
    path.write_bytes(bytes(patched))

    def no_whole_reads(self):
        raise AssertionError("load_model read the whole file")

    monkeypatch.setattr(type(path), "read_bytes", no_whole_reads)
    loaded = load_model(path)
    x = split.probe.features[:3]
    assert embed(loaded, x).tobytes() == embed(model, x).tobytes()


@pytest.mark.parametrize(
    "block",
    [
        struct.pack("<QQQ", 16, 0, 2**64 - 1),                      # no rows, huge width
        struct.pack("<QQQ", 16, 2**61, 2),                          # values past the block
        struct.pack("<Q", 2**63),                                   # block past the file
    ],
)
def test_load_rejects_hostile_null_block_before_allocating(tmp_path, block):
    path = tmp_path / "hostile.nk3m"
    path.write_bytes(MODEL_MAGIC + struct.pack("<H", 1) + block + b"\x00" * 64)
    with pytest.raises(ModelFormatError):
        load_model(path)


def test_load_rejects_margin_block_without_rows(easy_model):
    model, _ = easy_model
    data = bytearray(model_bytes(model))
    (block1_len,) = struct.unpack_from("<Q", data, 6)
    margin = 6 + 8 + block1_len + 8                    # past the margin block's length
    struct.pack_into("<QQQ", data, margin + 1 + 8, 0, 2**64 - 1, 0)   # m, p, n_disc
    with pytest.raises(ModelFormatError, match="0 rows"):
        read_model(bytes(data))


def test_load_bad_magic(tmp_path):
    path = tmp_path / "bad.nk3m"
    path.write_bytes(b"XXXX" + b"\x00" * 64)
    with pytest.raises(ModelFormatError):
        load_model(path)


def test_load_unsupported_version(easy_model):
    model, _ = easy_model
    data = bytearray(model_bytes(model))
    struct.pack_into("<H", data, len(MODEL_MAGIC), 9)
    with pytest.raises(ModelVersionError):
        read_model(bytes(data))


def test_load_truncated(easy_model):
    model, _ = easy_model
    data = model_bytes(model)
    with pytest.raises(ModelFormatError):
        read_model(data[: len(data) // 2])


def test_load_rejects_bytes_after_the_last_block(easy_model):
    model, _ = easy_model
    with pytest.raises(ModelFormatError, match="3 bytes after the margin block"):
        read_model(model_bytes(model) + b"\x00" * 3)


@pytest.mark.parametrize("kind, code", [("linear", 0), ("rbf", 1)])
def test_kernel_codes_are_pinned(easy_model, kind, code):
    # Files written earlier keep their meaning: a reordered kind list would
    # still round-trip, so the code byte itself is pinned.
    _, split = easy_model
    data = model_bytes(fit_nk3ml(split.labeled, KernelSpec(kind)))
    (null_block_len,) = struct.unpack_from("<Q", data, 4 + 2)
    assert data[4 + 2 + 8 + null_block_len + 8] == code


def test_load_invalid_bandwidth(easy_model):
    model, _ = easy_model
    bandwidth = struct.pack("<d", model.margin.resolved_bandwidth)
    data = model_bytes(model)
    assert data.count(bandwidth) == 1
    with pytest.raises(ModelFormatError):
        read_model(data.replace(bandwidth, struct.pack("<d", -1.0)))


def with_arrays(model, **arrays):
    """The model with some stage arrays replaced: mean and w_n live in the
    null-space stage, the others in the margin stage."""
    null = {k: v for k, v in arrays.items() if k in ("mean", "w_n")}
    margin = {k: v for k, v in arrays.items() if k not in null}
    return Nk3mlModel(replace(model.nullproj, **null), replace(model.margin, **margin))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("name", ["mean", "w_n", "train_points", "coeffs", "eigenvalues"])
def test_load_rejects_non_finite_arrays(tmp_path, easy_model, name, bad):
    # No fit writes a non-finite value; embed would turn one into NaN rows.
    model, _ = easy_model
    stage = model.nullproj if name in ("mean", "w_n") else model.margin
    values = getattr(stage, name).copy()
    values.flat[values.size // 2] = bad
    path = tmp_path / "bad.nk3m"
    save_model(with_arrays(model, **{name: values}), path)
    with pytest.raises(ModelFormatError, match=f"non-finite values in {name}$"):
        load_model(path)


def test_load_rejects_zero_null_directions_or_discriminants(tmp_path, easy_model):
    # No fit keeps no null direction or no discriminant; eval would rank by
    # tie order.
    model, _ = easy_model
    no_directions = with_arrays(
        model, w_n=model.nullproj.w_n[:, :0], train_points=model.margin.train_points[:, :0]
    )
    no_discriminants = with_arrays(
        model, coeffs=model.margin.coeffs[:, :0], eigenvalues=model.margin.eigenvalues[:0]
    )
    for bad, counts in ((no_directions, "0 null directions, margin input 0,"),
                        (no_discriminants, f"input {model.nullproj.n_directions}, 0 discriminants")):
        path = tmp_path / "bad.nk3m"
        save_model(bad, path)
        with pytest.raises(ModelFormatError, match=counts):
            load_model(path)


def test_load_rejects_stages_of_different_widths(easy_model):
    model, _ = easy_model
    narrow = with_arrays(model, w_n=model.nullproj.w_n[:, :-1])
    with pytest.raises(ModelFormatError, match="inputs must equal directions"):
        read_model(model_bytes(narrow))


def test_v1_reader_skips_fields_added_later(easy_model):
    # Fields appended inside a block under a later version must not break the
    # v1 layout: the reader consumes declared lengths and ignores the rest.
    model, split = easy_model
    data = model_bytes(model)
    header_end = 4 + 2
    (block1_len,) = struct.unpack_from("<Q", data, header_end)
    block1_start = header_end + 8
    block1_end = block1_start + block1_len
    extra = b"\x07" * 12
    patched = bytearray(data)
    patched[block1_end:block1_end] = extra
    struct.pack_into("<Q", patched, header_end, block1_len + len(extra))
    loaded = read_model(bytes(patched))
    x = split.probe.features[:3]
    assert embed(loaded, x).tobytes() == embed(model, x).tobytes()


def test_rank_ordering_sanity(easy_table):
    split = make_split(easy_table, SplitSpec(seed=6, trials=10, labeled_fraction=1), 1)
    model = fit_nk3ml(split.labeled)
    probe_vecs = embed(model, split.probe.features)
    gallery_vecs = embed(model, split.gallery.features)
    dists = cdist(probe_vecs, gallery_vecs)
    good = 0
    for i, ident in enumerate(split.probe.identities):
        same = [j for j, g in enumerate(split.gallery.identities) if g == ident]
        impostors = [j for j, g in enumerate(split.gallery.identities) if g != ident]
        if dists[i, same].min() < np.median(dists[i, impostors]):
            good += 1
    assert good / split.probe.n >= 0.9


def test_embed_is_locally_smooth(easy_model):
    model, split = easy_model
    x = split.probe.features[:1]
    out = embed(model, x)
    delta = np.full_like(x, 1e-9 * np.linalg.norm(x) / np.sqrt(x.size))
    out2 = embed(model, x + delta)
    assert np.linalg.norm(out2 - out) <= 1e-6 * (1 + np.linalg.norm(out))
