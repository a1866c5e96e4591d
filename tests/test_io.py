"""Every persisted artifact goes through the atomic writer in ``_io``."""

import os

import pytest

from obsdecipher._io import atomic_write_text
from obsdecipher.classifier import build_prototypes, save_model
from obsdecipher.dataset import write_manifest
from obsdecipher.embedding import StubEmbeddingProvider
from obsdecipher.kg import build_graph, save_graph
from obsdecipher.pipeline import write_json

from conftest import build_fixture_corpus, fixture_explanations


def _model(labels):
    provider = StubEmbeddingProvider(dim=16)
    return build_prototypes(
        ((label, provider.embed_text(label)) for label in labels), provider_name=provider.name
    )


def _graph(n_characters):
    corpus = build_fixture_corpus(n_characters=n_characters, n_labels=5, seed=1)
    return build_graph(corpus, fixture_explanations(corpus))


WRITERS = {
    # name -> (write the first version, write a second version)
    "save_model": (
        lambda path: save_model(_model(["hand", "roof"]), path),
        lambda path: save_model(_model(["hand", "roof", "water"]), path),
    ),
    "save_graph": (
        lambda path: save_graph(_graph(4), path),
        lambda path: save_graph(_graph(6), path),
    ),
    # results, evidence and the run manifest, and the reports of the CLI
    "write_json": (
        lambda path: write_json(path, {"character_ref": "char0000", "interpretation": "first"}),
        lambda path: write_json(path, {"character_ref": "char0000", "interpretation": "second"}),
    ),
    "write_manifest": (
        lambda path: write_manifest(build_fixture_corpus(n_characters=3, n_labels=4), path),
        lambda path: write_manifest(build_fixture_corpus(n_characters=5, n_labels=4), path),
    ),
}


@pytest.mark.parametrize("writer", sorted(WRITERS))
def test_failed_rename_keeps_the_previous_file(tmp_path, monkeypatch, writer):
    write_first, write_second = WRITERS[writer]
    target = tmp_path / "artifact"
    write_first(target)
    before = target.read_bytes()

    def refuse(src, dst):
        raise OSError("rename refused")

    monkeypatch.setattr("obsdecipher._io.os.replace", refuse)
    with pytest.raises(OSError, match="rename refused"):
        write_second(target)
    assert target.read_bytes() == before
    assert list(tmp_path.glob(f".{target.name}.*")) == []


def test_missing_directory_is_reported_under_the_target_name(tmp_path):
    target = tmp_path / "nodir" / "a.ldjson"
    with pytest.raises(FileNotFoundError) as exc:
        save_model(_model(["hand"]), target)
    assert exc.value.filename == str(target)
    assert "/.a.ldjson." not in str(exc.value)


def test_artifact_mode_follows_the_umask(tmp_path):
    previous = os.umask(0o022)
    try:
        atomic_write_text(tmp_path / "artifact", "x")
    finally:
        os.umask(previous)
    assert (tmp_path / "artifact").stat().st_mode & 0o777 == 0o644
    assert [p.name for p in tmp_path.iterdir()] == ["artifact"]
