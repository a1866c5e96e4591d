"""End-to-end orchestration: classify, retrieve, infer, interpret, persist.

Characters are processed independently, on the calling thread at
concurrency 1 and under a bounded worker pool above that; per-character
failures are recorded and never abort the run. The emitted run manifest
fingerprints every input (model, graph, templates, backends, config) so
reported numbers stay attributable and reruns are comparable by hash.

Above concurrency 1 the workers share one semantic cache, so parts of an
evidence file depend on thread timing: whether an item came from the graph
or the cache (its ``source``, Tool or Cache), which tool calls enter the
``trace``, and, as a graph item outranks a cached duplicate, which
``co_components`` list is kept for a character reached through two
components. Result files and the manifest hash do not; the tests compare
them across concurrency levels.
"""

from __future__ import annotations

import hashlib
import json
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Sequence

from ._io import atomic_write_text, temp_name
from .backends import ChatBackend, OfflineChatBackend, backend_from_env
from .classifier import ClassifierModel, classify_topk
from .dataset import CharacterRecord, Corpus
from .embedding import EmbeddingProvider, embed_image
from .errors import ConfigError, MalformedInputError, ObsError
from .inference import (
    InterpretationResult,
    generate_interpretation_multiagent,
    generate_interpretation_vlm,
    infer_relationship,
)
from .kg import KnowledgeGraph
from .retrieval import RetrievalConfig, SemanticCache, retrieve_evidence

_NAME_MAX = 255  # bytes in one file name on common Linux and macOS file systems


@dataclass(frozen=True)
class PipelineConfig:
    mode: str = "vlm"  # "vlm" | "multi_agent"
    language: str = "zh"
    top_k: int = 5
    concurrency: int = 1
    retrieval: RetrievalConfig = field(default_factory=RetrievalConfig)
    mock: bool = False

    def __post_init__(self):
        if self.mode not in ("vlm", "multi_agent"):
            raise ConfigError(f"mode must be vlm or multi_agent, got {self.mode!r}")
        if self.language not in ("zh", "en"):
            raise ConfigError(f"language must be zh or en, got {self.language!r}")
        if self.concurrency < 1:
            raise ConfigError("concurrency must be >= 1")
        if self.top_k < 1:
            raise ConfigError("top_k must be >= 1")


@dataclass(frozen=True)
class PipelineBackends:
    """Resolved chat backends for one run."""

    chat: ChatBackend
    retriever: ChatBackend
    reasoner: ChatBackend

    @classmethod
    def offline(cls) -> "PipelineBackends":
        mock = OfflineChatBackend()
        return cls(chat=mock, retriever=mock, reasoner=mock)

    @classmethod
    def from_env(cls) -> "PipelineBackends | None":
        chat = backend_from_env()
        if chat is None:
            return None
        retriever, reasoner = backend_from_env("retriever"), backend_from_env("reasoner")
        return cls(chat=chat, retriever=retriever, reasoner=reasoner)


@dataclass(frozen=True)
class RunFailure:
    character_id: str
    error: str

    def to_json(self) -> dict:
        return {"character_id": self.character_id, "error": self.error}


def interpret_character(
    char: CharacterRecord,
    image_root: Path | None,
    provider: EmbeddingProvider,
    model: ClassifierModel,
    graph: KnowledgeGraph,
    cache: SemanticCache,
    backends: PipelineBackends,
    config: PipelineConfig,
):
    """Run stages a-d for one character; returns (result, evidence bundle)."""
    image_path = Path(char.image_ref)
    if image_root is not None and not image_path.is_absolute():
        image_path = image_root / image_path
    image = image_path.read_bytes()

    query = embed_image(provider, image)
    predicted = classify_topk(model, query, config.top_k)

    if config.mode == "vlm":
        evidence = retrieve_evidence(
            graph, predicted, cache, config.retrieval, character_ref=char.character_id
        )
        typed = infer_relationship(
            backends.chat, image, predicted, evidence, lang=config.language
        )
        result = generate_interpretation_vlm(
            backends.chat, image, predicted, evidence, lang=config.language
        )
        type_backend = backends.chat.name
    else:
        result, evidence = generate_interpretation_multiagent(
            backends.retriever,
            backends.reasoner,
            graph,
            predicted,
            cache,
            config.retrieval,
            lang=config.language,
            character_ref=char.character_id,
        )
        typed = infer_relationship(
            backends.reasoner, None, predicted, evidence, lang=config.language
        )
        type_backend = backends.reasoner.name

    # the type-inference stage owns the inscription judgment and trace
    result = replace(
        result,
        inscription_type=typed.inscription_type,
        reasoning_trace=typed.reasoning or result.reasoning_trace,
        template_ids=result.template_ids + (typed.template_id,),
        usage_by_backend=result.usage_by_backend
        + ((f"{type_backend}:type", typed.token_usage),),
    )
    return result, evidence


def run_pipeline(
    corpus: Corpus,
    provider: EmbeddingProvider,
    model: ClassifierModel,
    graph: KnowledgeGraph,
    backends: PipelineBackends,
    config: PipelineConfig,
    image_root: str | Path | None = None,
    out_dir: str | Path | None = None,
) -> tuple[list[InterpretationResult], list[RunFailure], dict]:
    """Interpret every character in the corpus, isolating per-character failures.

    Returns results (corpus order), failures, and the run manifest whose
    ``manifest_hash`` is deterministic for fixed inputs and mock backends.
    Raises ``MalformedInputError`` before the first character when a
    character id cannot name its own result file under ``out_dir``.
    """
    _check_result_names(corpus.characters)
    cache = SemanticCache.from_config(provider, config.retrieval)
    root = Path(image_root) if image_root is not None else None

    def attempt(record: CharacterRecord):
        """(id, (result, bundle), None) on success, (id, None, error) on failure."""
        try:
            pair = interpret_character(
                record, root, provider, model, graph, cache, backends, config
            )
            return record.character_id, pair, None
        except (ObsError, OSError) as exc:
            return record.character_id, None, f"{type(exc).__name__}: {exc}"

    # concurrency 1 stays on the calling thread: sending it through a
    # 1-thread pool raised peak RSS by about 10% on a 1,000-label run
    if config.concurrency == 1:
        outcomes = list(map(attempt, corpus.characters))
    else:
        with ThreadPoolExecutor(max_workers=config.concurrency) as pool:
            outcomes = list(pool.map(attempt, corpus.characters))

    results = [pair[0] for _, pair, _ in outcomes if pair is not None]
    bundles = [pair[1] for _, pair, _ in outcomes if pair is not None]
    failures = [RunFailure(cid, err) for cid, _, err in outcomes if err is not None]

    manifest = _run_manifest(results, failures, model, graph, backends, config)
    if out_dir is not None:
        out = Path(out_dir)
        (out / "evidence").mkdir(parents=True, exist_ok=True)
        for result, bundle in zip(results, bundles):
            write_json(out / f"{result.character_ref}.json", result.to_json())
            write_json(out / "evidence" / f"{result.character_ref}.json", bundle.to_json())
        write_json(out / "run_manifest.json", manifest)
    return results, failures, manifest


def _check_result_names(characters: Sequence[CharacterRecord]) -> None:
    """Each id must be a distinct plain file name other than the manifest's,
    short enough that the writer's temp name for its result file fits in
    ``_NAME_MAX`` bytes."""
    seen: set[str] = set()
    for char in characters:
        cid = char.character_id
        plain = isinstance(cid, str) and cid not in ("", ".", "..", "run_manifest")
        if not plain or any(c in cid for c in "/\\\0") or not _fits_a_name(cid):
            raise MalformedInputError(f"character id {cid!r} cannot name a result file")
        if cid in seen:
            raise MalformedInputError(f"character id {cid!r} appears more than once")
        seen.add(cid)


def _fits_a_name(cid: str) -> bool:
    try:
        return len(os.fsencode(temp_name(f"{cid}.json"))) <= _NAME_MAX
    except UnicodeEncodeError:
        return False


def write_json(path: str | Path, doc: dict) -> None:
    """Atomically write ``doc`` as sorted, indented UTF-8 JSON."""
    atomic_write_text(path, json.dumps(doc, ensure_ascii=False, indent=2, sort_keys=True))


def _sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _run_manifest(
    results: Sequence[InterpretationResult],
    failures: Sequence[RunFailure],
    model: ClassifierModel,
    graph: KnowledgeGraph,
    backends: PipelineBackends,
    config: PipelineConfig,
) -> dict:
    result_hashes = [
        _sha256_text(json.dumps(r.to_json(), ensure_ascii=False, sort_keys=True))
        for r in results
    ]
    model_fingerprint = _sha256_text(
        json.dumps(
            {
                "dim": model.dim,
                "provider": model.provider_name,
                "labels": model.labels,
                "matrix": model.matrix.tobytes().hex(),
            },
            sort_keys=True,
        )
    )
    graph_fingerprint = _sha256_text(
        json.dumps(
            {
                "nodes": sorted(graph.nodes),
                "edges": sorted((e.src, e.dst, e.relation.value) for e in graph.edges),
                "source_split": graph.source_split,
            },
            sort_keys=True,
        )
    )
    body = {
        "schema_version": 1,
        "mode": config.mode,
        "language": config.language,
        "mock": config.mock,
        "retrieval": asdict(config.retrieval),
        "model_hash": model_fingerprint,
        "graph_hash": graph_fingerprint,
        "backend_names": sorted({backends.chat.name, backends.retriever.name, backends.reasoner.name}),
        "template_ids": sorted({tid for r in results for tid in r.template_ids}),
        "results": result_hashes,
        "failures": [f.to_json() for f in failures],
        "result_count": len(results),
        "failure_count": len(failures),
    }
    body["manifest_hash"] = _sha256_text(json.dumps(body, ensure_ascii=False, sort_keys=True))
    return body
