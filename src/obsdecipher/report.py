"""Per-run metric reports: align results with gold records and aggregate."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Annotated, Mapping, Sequence

from . import records
from .backends import ChatBackend
from .dataset import CharacterRecord
from .embedding import EmbeddingProvider, EmbeddingVector
from .errors import AlignmentError, ConfigError, ObsError
from .inference import InterpretationResult
from .metrics import embedding_f1, llm_judge, mover_score, rouge1_f1, tokenize

KNOWN_METRICS = ("rouge1", "embedding_f1", "mover", "judge", "type_acc")


@dataclass(frozen=True)
class EvalConfig:
    metrics: tuple[str, ...] = ("rouge1", "embedding_f1", "mover")
    lang: str = "zh"

    def __post_init__(self):
        unknown = set(self.metrics) - set(KNOWN_METRICS)
        if unknown:
            raise ConfigError(f"unknown metrics: {sorted(unknown)}")


@dataclass(frozen=True)
class MetricReport:
    """``per_item`` holds the scored items, which the aggregates cover;
    ``failures`` holds ``{"character_ref", "error"}`` for each item that
    could not be scored."""

    metadata: dict
    per_item: tuple[dict, ...]
    aggregate: dict
    failures: Annotated[tuple[dict, ...], records.OMIT_EMPTY]

    def to_json(self) -> dict:
        return records.encode(self, {"schema_version": 1})

    def to_table(self) -> str:
        """Small fixed-width summary for terminals."""
        names = sorted(self.aggregate)
        width = max((len(n) for n in names), default=6)
        lines = [f"{'metric'.ljust(width)}  aggregate"]
        for name in names:
            lines.append(f"{name.ljust(width)}  {self.aggregate[name]:.4f}")
        total = len(self.per_item) + len(self.failures)
        lines.append(f"{len(self.failures)} of {total} items failed")
        return "\n".join(lines)


class _TextMemo(EmbeddingProvider):
    """Forwards to ``inner``, embedding each distinct text at most once.

    One lives for one ``evaluate_run`` call: keyed by provider, a memo would
    outlive the run. It keeps the raw vectors, so the metrics normalize the
    same matrices as without it and every score stays bitwise the same.
    """

    def __init__(self, inner: EmbeddingProvider):
        self._inner = inner
        self._vectors: dict[str, EmbeddingVector] = {}
        self.name = inner.name
        self.dim = inner.dim

    def embed_image(self, image: bytes) -> EmbeddingVector:
        return self._inner.embed_image(image)

    def embed_text(self, text: str) -> EmbeddingVector:
        vec = self._vectors.get(text)
        if vec is None:
            vec = self._vectors[text] = self._inner.embed_text(text)
        return vec


def evaluate_run(
    results: Sequence[InterpretationResult],
    gold: Sequence[CharacterRecord],
    config: EvalConfig,
    provider: EmbeddingProvider | None = None,
    judge_backend: ChatBackend | None = None,
) -> MetricReport:
    """Score every result against its gold record and aggregate the means.

    An item whose scoring raises an ``ObsError`` (a missing gold record
    included) becomes a failure and the others are still scored; only when
    none scores is ``AlignmentError`` raised. Each distinct text is embedded
    at most once per call, through a memo that lives only for the call.
    """
    if not results:
        raise AlignmentError("no results to evaluate")
    gold_by_id: Mapping[str, CharacterRecord] = {c.character_id: c for c in gold}
    needs_provider = {"embedding_f1", "mover"} & set(config.metrics)
    if needs_provider and provider is None:
        raise ConfigError("embedding-based metrics require an embedding provider")
    if "judge" in config.metrics and judge_backend is None:
        raise ConfigError("judge metric requires a chat backend")

    memo = None if provider is None else _TextMemo(provider)

    def score(result: InterpretationResult) -> dict[str, float]:
        record = gold_by_id.get(result.character_ref)
        if record is None:
            raise AlignmentError(f"no gold record for character {result.character_ref!r}")
        candidate = tokenize(result.interpretation, config.lang)
        reference = tokenize(record.interpretation, config.lang)
        scores: dict[str, float] = {}
        if "rouge1" in config.metrics:
            scores["rouge1"] = rouge1_f1(candidate, reference)
        if "embedding_f1" in config.metrics:
            scores["embedding_f1"] = embedding_f1(candidate, reference, memo)
        if "mover" in config.metrics:
            scores["mover"] = mover_score(candidate, reference, memo)
        if "judge" in config.metrics:
            scores["judge"] = llm_judge(judge_backend, result.interpretation, record.interpretation)
        if "type_acc" in config.metrics and record.inscription_type and result.inscription_type:
            scores["type_match"] = float(
                result.inscription_type.value == record.inscription_type
            )
        return scores

    per_item: list[dict] = []
    failures: list[dict] = []
    for result in results:
        ref = result.character_ref
        try:
            per_item.append({"character_ref": ref, "scores": score(result)})
        except ObsError as exc:
            failures.append({"character_ref": ref, "error": f"{type(exc).__name__}: {exc}"})
    if not per_item:
        first = failures[0]
        raise AlignmentError(
            f"none of {len(results)} items could be scored; "
            f"{first['character_ref']!r} failed with {first['error']}"
        )

    aggregate: dict[str, float] = {}
    metric_names = sorted({name for item in per_item for name in item["scores"]})
    for name in metric_names:
        values = [item["scores"][name] for item in per_item if name in item["scores"]]
        aggregate[name] = sum(values) / len(values)
    if "type_match" in aggregate:
        # the share of exact type matches: the mean of the 0/1 type_match scores
        aggregate["type_acc"] = aggregate["type_match"]

    metadata = {
        "lang": config.lang,
        "metrics": list(config.metrics),
        "items": len(per_item),
        "backends": sorted({name for r in results for name in r.backend_names}),
        "template_ids": sorted({tid for r in results for tid in r.template_ids}),
        "modes": sorted({r.mode for r in results}),
    }
    if provider is not None:
        metadata["embedding_provider"] = provider.name
    if judge_backend is not None:
        metadata["judge_backend"] = judge_backend.name
    return MetricReport(
        metadata=metadata, per_item=tuple(per_item), aggregate=aggregate, failures=tuple(failures)
    )
