"""Truncated and bit-flipped SSML tables and NK3M models: the readers may
accept a mutant or raise DataFormatError (ModelFormatError is one), nothing
else."""

import random
from dataclasses import replace

from nullmargin import SyntheticSpec, fit_nk3ml, generate_synthetic
from nullmargin.dataio import _table_writer
from nullmargin.errors import DataFormatError

from conftest import load_binary, model_bytes, read_model, use_fill_workers

MUTANTS = 3000


def mutants(data: bytes, seed: int):
    rng = random.Random(seed)
    for _ in range(MUTANTS):
        if rng.random() < 0.25:
            yield data[: rng.randrange(len(data))]
            continue
        buf = bytearray(data)
        for _ in range(rng.randint(1, 3)):
            bit = rng.randrange(len(buf) * 8)
            buf[bit // 8] ^= 1 << (bit % 8)
        yield bytes(buf)


def assert_only_format_errors(read, data: bytes, seed: int) -> None:
    for mutant in mutants(data, seed):
        try:
            read(mutant)
        except DataFormatError:
            pass


def test_table_reader_fuzz(tmp_path, monkeypatch):
    # Labeled and unlabeled rows, and ids of two lengths (s0..s9, s10..s11),
    # so every branch of the row reader sees truncations and bit flips, with
    # the features filled on one thread and on several.
    table = generate_synthetic(SyntheticSpec(identities=6, cameras=2, dim=3, noise_sigma=0.1))
    table = replace(table, sample_ids=[f"s{i}" for i in range(table.n)],
                    identities=[None if i % 3 == 0 else ident
                                for i, ident in enumerate(table.identities)])
    data = b"".join(_table_writer(table).parts)
    path = tmp_path / "t.ssml"
    for workers in (1, 3):
        use_fill_workers(monkeypatch, workers)
        assert_only_format_errors(lambda mutant: load_binary(path, mutant), data, seed=1)


def test_model_reader_fuzz():
    labeled = generate_synthetic(SyntheticSpec(identities=4, cameras=2, dim=12, noise_sigma=0.1))
    assert_only_format_errors(read_model, model_bytes(fit_nk3ml(labeled)), seed=2)
