"""run_pipeline's per-character fault containment, its evidence file and
the model fingerprint."""

import hashlib
import json
import threading

import numpy as np
import pytest

from obsdecipher import records
from obsdecipher.backends import OfflineChatBackend
from obsdecipher.classifier import ClassifierModel, build_prototypes
from obsdecipher.embedding import StubEmbeddingProvider
from obsdecipher.kg import build_graph
from obsdecipher.pipeline import PipelineBackends, PipelineConfig, _model_fingerprint, run_pipeline
from obsdecipher.retrieval import EvidenceBundle

from conftest import fixture_explanations, make_run_fixture


class ThirdCallFails:
    """Raises ``fault`` on the third call made through it, from any thread."""

    def __init__(self, fault: Exception):
        self.fault = fault
        self.calls = 0
        self.lock = threading.Lock()

    def tick(self) -> None:
        with self.lock:
            self.calls += 1
            third = self.calls == 3
        if third:
            raise self.fault


class FaultyProvider(StubEmbeddingProvider):
    def __init__(self, faults: ThirdCallFails):
        super().__init__(dim=32)
        self.faults = faults

    def embed_image(self, image):
        self.faults.tick()
        return super().embed_image(image)


class FaultyBackend(OfflineChatBackend):
    def __init__(self, faults: ThirdCallFails):
        self.faults = faults

    def complete(self, request):
        self.faults.tick()
        return super().complete(request)


def model_and_graph(corpus, provider):
    model = build_prototypes(
        ((label, provider.embed_text(label)) for label in sorted(corpus.vocabulary)),
        provider_name=provider.name,
    )
    return model, build_graph(corpus, fixture_explanations(corpus))


@pytest.mark.parametrize("concurrency", [1, 2])
@pytest.mark.parametrize("fault", [RuntimeError("encoder crashed"), KeyError("usage")], ids=repr)
@pytest.mark.parametrize("where", ["provider.embed_image", "backend.complete"])
def test_a_fault_in_one_character_fails_only_that_character(tmp_path, where, fault, concurrency):
    corpus, _, _ = make_run_fixture(tmp_path, n_characters=5)
    faults = ThirdCallFails(fault)
    provider = StubEmbeddingProvider(dim=32)
    backends = PipelineBackends.offline()
    if where == "provider.embed_image":
        provider = FaultyProvider(faults)
    else:
        chat = FaultyBackend(faults)
        backends = PipelineBackends(chat=chat, retriever=chat, reasoner=chat)
    model, graph = model_and_graph(corpus, provider)
    out = tmp_path / "out"
    results, failures, manifest = run_pipeline(
        corpus, provider, model, graph, backends, PipelineConfig(concurrency=concurrency),
        image_root=tmp_path, out_dir=out,
    )
    assert len(results) + len(failures) == len(corpus.characters)
    assert [f.error for f in failures] == [f"{type(fault).__name__}: {fault}"]
    written = json.loads((out / "run_manifest.json").read_text(encoding="utf-8"))
    assert written == manifest
    assert written["failure_count"] == 1
    assert written["result_count"] == len(corpus.characters) - 1


@pytest.mark.parametrize("concurrency", [1, 2])
def test_the_evidence_file_has_one_line_per_result_in_corpus_order(tmp_path, concurrency):
    corpus, _, _ = make_run_fixture(tmp_path, n_characters=6)
    provider = FaultyProvider(ThirdCallFails(RuntimeError("encoder crashed")))
    model, graph = model_and_graph(corpus, provider)
    out = tmp_path / "out"
    results, failures, _ = run_pipeline(
        corpus, provider, model, graph, PipelineBackends.offline(),
        PipelineConfig(concurrency=concurrency), image_root=tmp_path, out_dir=out,
    )
    (failed,) = [f.character_id for f in failures]
    ok = [c.character_id for c in corpus.characters if c.character_id != failed]
    assert [r.character_ref for r in results] == ok
    lines = (out / "evidence.ldjson").read_text(encoding="utf-8").splitlines()
    bundles = [records.decode(EvidenceBundle, json.loads(line), "evidence") for line in lines]
    assert [b.character_ref for b in bundles] == ok
    assert [b.to_line() for b in bundles] == lines
    assert sorted(p.name for p in out.iterdir()) == sorted(
        [f"{cid}.json" for cid in ok] + ["evidence.ldjson", "run_manifest.json"]
    )


class Halt(BaseException):
    """Not an ``Exception``, as ``KeyboardInterrupt`` is not."""


def test_a_base_exception_still_ends_the_run(tmp_path):
    corpus, _, _ = make_run_fixture(tmp_path, n_characters=3)
    provider = FaultyProvider(ThirdCallFails(Halt()))
    model, graph = model_and_graph(corpus, provider)
    with pytest.raises(Halt):
        run_pipeline(
            corpus, provider, model, graph, PipelineBackends.offline(), PipelineConfig(),
            image_root=tmp_path, out_dir=tmp_path / "out",
        )
    assert not (tmp_path / "out" / "run_manifest.json").exists()


# non-ASCII labels, and labels that spell the JSON around the matrix field
LABELS = sorted(["人", "入", '水"引"', "matrix", 'x", "matrix": "', "é", "l0"])


@pytest.mark.parametrize("rows", [0, 1, len(LABELS)])
def test_model_fingerprint_hashes_the_same_bytes_as_one_json_document(rows):
    matrix = np.random.default_rng(rows).standard_normal((rows, 5))
    model = ClassifierModel(LABELS[:rows], matrix, [1] * rows, provider_name="編碼器/v1")
    # the one-string form the fingerprint was first defined by
    reference = hashlib.sha256(
        json.dumps(
            {
                "dim": model.dim,
                "provider": model.provider_name,
                "labels": model.labels,
                "matrix": model.matrix.tobytes().hex(),
            },
            sort_keys=True,
        ).encode("utf-8")
    ).hexdigest()
    assert _model_fingerprint(model) == reference
