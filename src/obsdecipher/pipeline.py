"""End-to-end orchestration: classify, retrieve, infer, interpret, persist.

Characters are processed independently, on the calling thread at
concurrency 1 and under a bounded worker pool above that. Any ``Exception``
raised while interpreting one character, whether a typed pipeline error, a
file-system error or a fault in a provider or backend, is recorded as that
character's ``RunFailure`` and the run goes on; only a ``BaseException``
that is not an ``Exception`` (such as ``KeyboardInterrupt``) aborts it.
The emitted run manifest fingerprints every input (model, graph,
templates, backends, config) so reported numbers stay attributable and
reruns are comparable by hash.

The result files, the evidence file and the manifest hash are the same at
every concurrency level while the shared semantic cache serves no
similarity hit.
"""

from __future__ import annotations

import hashlib
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Sequence

from . import records
from ._io import atomic_write_text, temp_name
from .backends import ChatBackend, OfflineChatBackend, backend_from_env
from .classifier import ClassifierModel, classify_topk
from .dataset import CharacterRecord, Corpus
from .embedding import EmbeddingProvider, embed_image
from .errors import ConfigError, MalformedInputError
from .inference import (
    InterpretationResult,
    generate_interpretation_multiagent,
    generate_interpretation_vlm,
    infer_relationship,
)
from .kg import KnowledgeGraph
from .retrieval import MAX_ITEMS, MIN_EVIDENCE, TOP_M, SemanticCache, retrieve_evidence

_NAME_MAX = 255  # bytes in one file name on common Linux and macOS file systems
EVIDENCE_FILE = "evidence.ldjson"
TOP_K = 5  # predicted components per character


@dataclass(frozen=True)
class PipelineConfig:
    mode: str = "vlm"  # "vlm" | "multi_agent"
    language: str = "zh"
    concurrency: int = 1
    mock: bool = False

    def __post_init__(self):
        if self.mode not in ("vlm", "multi_agent"):
            raise ConfigError(f"mode must be vlm or multi_agent, got {self.mode!r}")
        if self.language not in ("zh", "en"):
            raise ConfigError(f"language must be zh or en, got {self.language!r}")
        if self.concurrency < 1:
            raise ConfigError("concurrency must be >= 1")


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
    predicted = classify_topk(model, query, TOP_K)

    if config.mode == "vlm":
        evidence = retrieve_evidence(graph, predicted, cache, character_ref=char.character_id)
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

    With ``out_dir`` set, once every character is done, it writes there,
    each file atomically and in this order:

    - ``<character id>.json`` per result, indented;
    - ``evidence.ldjson``: one line per result, in corpus order, holding
      the evidence bundle the result was generated from; a failed
      character has no line;
    - ``run_manifest.json``, indented.
    """
    _check_result_names(corpus.characters)
    cache = SemanticCache(provider)
    root = Path(image_root) if image_root is not None else None

    def attempt(record: CharacterRecord):
        """(result, evidence line) on success, a RunFailure on failure, as
        when the bundle holds a number JSON cannot."""
        try:
            result, bundle = interpret_character(record, root, provider, model, graph, cache,
                                                 backends, config)
            return result, bundle.to_line()
        except Exception as exc:
            return RunFailure(record.character_id, f"{type(exc).__name__}: {exc}")

    # concurrency 1 stays on the calling thread: sending it through a
    # 1-thread pool raised peak RSS by about 10% on a 1,000-label run
    if config.concurrency == 1:
        outcomes = list(map(attempt, corpus.characters))
    else:
        with ThreadPoolExecutor(max_workers=config.concurrency) as pool:
            outcomes = list(pool.map(attempt, corpus.characters))

    failures = [o for o in outcomes if isinstance(o, RunFailure)]
    pairs = [o for o in outcomes if not isinstance(o, RunFailure)]
    results = [result for result, _ in pairs]
    docs = [result.to_json() for result in results]

    manifest = _run_manifest(results, docs, failures, model, graph, cache, backends, config)
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        for result, doc in zip(results, docs):
            write_json(out / f"{result.character_ref}.json", doc)
        atomic_write_text(out / EVIDENCE_FILE, "".join(line + "\n" for _, line in pairs))
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
    atomic_write_text(path, records.dumps(doc, ascii=False, indent=2))


def _sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _model_fingerprint(model: ClassifierModel) -> str:
    """sha256 of the model as sorted-key ASCII JSON with the matrix bytes in
    hex, fed to the digest row by row rather than built as one string."""
    head, _, tail = records.dumps(
        {"dim": model.dim, "provider": model.provider_name, "labels": model.labels, "matrix": ""},
        ascii=True, indent=None,
    ).partition('"matrix": ""')
    digest = hashlib.sha256(f'{head}"matrix": "'.encode("ascii"))
    for row in model.matrix:
        digest.update(row.tobytes().hex().encode("ascii"))
    digest.update(f'"{tail}'.encode("ascii"))
    return digest.hexdigest()


def _run_manifest(
    results: Sequence[InterpretationResult],
    docs: Sequence[dict],
    failures: Sequence[RunFailure],
    model: ClassifierModel,
    graph: KnowledgeGraph,
    cache: SemanticCache,
    backends: PipelineBackends,
    config: PipelineConfig,
) -> dict:
    result_hashes = [
        _sha256_text(records.dumps(doc, ascii=False, indent=None)) for doc in docs
    ]
    graph_fingerprint = _sha256_text(
        records.dumps(
            {
                "nodes": sorted(graph.nodes),
                "edges": sorted((e.src, e.dst, e.relation.value) for e in graph.edges),
                "source_split": graph.source_split,
            },
            ascii=True, indent=None,
        )
    )
    body = {
        "schema_version": 1,
        "mode": config.mode,
        "language": config.language,
        "mock": config.mock,
        "retrieval": {
            "top_m": TOP_M,
            "min_evidence": MIN_EVIDENCE,
            "max_items": MAX_ITEMS,
            "cache_threshold": cache.threshold,
            "cache_capacity": cache.capacity,
        },
        "model_hash": _model_fingerprint(model),
        "graph_hash": graph_fingerprint,
        "backend_names": sorted({backends.chat.name, backends.retriever.name, backends.reasoner.name}),
        "template_ids": sorted({tid for r in results for tid in r.template_ids}),
        "results": result_hashes,
        "failures": [records.encode(f, {}) for f in failures],
        "result_count": len(results),
        "failure_count": len(failures),
    }
    body["manifest_hash"] = _sha256_text(records.dumps(body, ascii=False, indent=None))
    return body
