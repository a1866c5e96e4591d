"""Cascading evidence retrieval over the knowledge graph.

The cascade is deliberately fixed: component-centric tool calls first
(explanations, then containing characters, for the top-m predicted
components), then constrained internal synthesis (variant and modern-form
lookups) only when the tool stage left the evidence thin. Every external
tool query is routed through a semantic-similarity cache so repeated or
near-duplicate queries in a workload are served without touching the graph.
"""

from __future__ import annotations

import json
import threading
from collections import OrderedDict
from dataclasses import dataclass, replace
from enum import Enum
from typing import Mapping, Sequence

from .classifier import RankedPrediction
from .embedding import EmbeddingProvider, EmbeddingVector, cosine_similarity, embed_text
from .errors import ConfigError, GraphUnavailableError, NotFoundError
from .kg import KnowledgeGraph


class ToolName(str, Enum):
    COMPONENT_EXPLANATION = "component_explanation"
    CHARACTERS_BY_COMPONENT = "characters_by_component"


class EvidenceKind(str, Enum):
    COMPONENT_EXPLANATION = "ComponentExplanation"
    CONTAINING_CHARACTER = "ContainingCharacter"
    VARIANT = "Variant"
    MODERN_MAPPING = "ModernMapping"


class EvidenceSource(str, Enum):
    TOOL = "Tool"
    INTERNAL = "Internal"
    CACHE = "Cache"


_SOURCE_PRIORITY = {EvidenceSource.TOOL: 0, EvidenceSource.CACHE: 1, EvidenceSource.INTERNAL: 2}

_KIND_PRIORITY = {
    EvidenceKind.COMPONENT_EXPLANATION: 0,
    EvidenceKind.CONTAINING_CHARACTER: 1,
    EvidenceKind.VARIANT: 2,
    EvidenceKind.MODERN_MAPPING: 3,
}


@dataclass(frozen=True)
class ToolCall:
    """One external tool invocation; issued_at is a per-run logical clock."""

    tool: ToolName
    argument: str
    issued_at: int


@dataclass(frozen=True)
class EvidenceItem:
    kind: EvidenceKind
    subject: str
    content: str
    source: EvidenceSource
    rank: int = 0
    empty: bool = False  # explicit marker for legal empty explanations
    co_components: tuple[str, ...] = ()

    def to_json(self) -> dict:
        doc = {
            "kind": self.kind.value,
            "subject": self.subject,
            "content": self.content,
            "source": self.source.value,
            "rank": self.rank,
            "empty": self.empty,
        }
        if self.co_components:
            doc["co_components"] = list(self.co_components)
        return doc

    @classmethod
    def from_json(cls, doc: Mapping) -> "EvidenceItem":
        return cls(
            kind=EvidenceKind(doc["kind"]),
            subject=doc["subject"],
            content=doc["content"],
            source=EvidenceSource(doc["source"]),
            rank=int(doc.get("rank", 0)),
            empty=bool(doc.get("empty", False)),
            co_components=tuple(doc.get("co_components", ())),
        )


@dataclass(frozen=True)
class EvidenceBundle:
    """Ordered, character-centric evidence handed to the generation stage."""

    character_ref: str
    predicted_components: tuple[tuple[str, float], ...]
    items: tuple[EvidenceItem, ...]
    trace: tuple[ToolCall, ...]
    sufficient: bool
    min_evidence: int

    def to_json(self) -> dict:
        return {
            "schema_version": 1,
            "character_ref": self.character_ref,
            "predicted_components": [[label, dist] for label, dist in self.predicted_components],
            "items": [item.to_json() for item in self.items],
            "trace": [
                {"tool": c.tool.value, "argument": c.argument, "issued_at": c.issued_at}
                for c in self.trace
            ],
            "sufficient": self.sufficient,
            "min_evidence": self.min_evidence,
        }

    def serialize(self) -> str:
        return json.dumps(self.to_json(), ensure_ascii=False, sort_keys=True)

    @classmethod
    def from_json(cls, doc: Mapping) -> "EvidenceBundle":
        return cls(
            character_ref=doc["character_ref"],
            predicted_components=tuple(
                (label, float(dist)) for label, dist in doc.get("predicted_components", ())
            ),
            items=tuple(EvidenceItem.from_json(d) for d in doc.get("items", ())),
            trace=tuple(
                ToolCall(ToolName(c["tool"]), c["argument"], int(c["issued_at"]))
                for c in doc.get("trace", ())
            ),
            sufficient=bool(doc["sufficient"]),
            min_evidence=int(doc.get("min_evidence", 0)),
        )


@dataclass(frozen=True)
class RetrievalConfig:
    top_m: int = 3
    min_evidence: int = 3
    max_items: int = 12
    cache_threshold: float = 0.95
    cache_capacity: int = 1024

    def __post_init__(self):
        if self.top_m < 1:
            raise ConfigError("top_m must be >= 1")
        if self.min_evidence < 0 or self.max_items < 1:
            raise ConfigError("min_evidence must be >= 0 and max_items >= 1")
        if not (0.0 < self.cache_threshold <= 1.0):
            raise ConfigError("cache_threshold must be in (0, 1]")
        if self.cache_capacity < 0:
            raise ConfigError("cache_capacity must be >= 0")

    @classmethod
    def from_mapping(cls, doc: Mapping) -> "RetrievalConfig":
        known = {"top_m", "min_evidence", "max_items", "cache_threshold", "cache_capacity"}
        unknown = set(doc) - known
        if unknown:
            raise ConfigError(f"unknown retrieval config keys: {sorted(unknown)}")
        return cls(**{k: doc[k] for k in doc})


class SemanticCache:
    """LRU cache keyed by query-embedding similarity.

    A lookup embeds the query text and returns the stored result of the most
    similar entry when that similarity clears the threshold; the hit becomes
    most-recently-used. Inserts evict the least-recently-used entry once
    capacity is exceeded. Operations are serialized by a lock so concurrent
    retrievals never observe torn LRU state. Capacity 0 disables the cache.
    """

    def __init__(self, provider: EmbeddingProvider, threshold: float = 0.95, capacity: int = 1024):
        if not (0.0 < threshold <= 1.0):
            raise ConfigError("cache threshold must be in (0, 1]")
        if capacity < 0:
            raise ConfigError("cache capacity must be >= 0")
        self.provider = provider
        self.threshold = threshold
        self.capacity = capacity
        self._entries: "OrderedDict[str, tuple[EmbeddingVector, tuple[EvidenceItem, ...]]]" = OrderedDict()
        self._lock = threading.Lock()

    @classmethod
    def from_config(cls, provider: EmbeddingProvider, config: RetrievalConfig) -> "SemanticCache":
        """The cache a run configured by ``config`` shares across characters."""
        return cls(provider, threshold=config.cache_threshold, capacity=config.cache_capacity)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def lookup(self, query_text: str) -> tuple[EvidenceItem, ...] | None:
        if self.capacity == 0:
            return None
        query_vec = embed_text(self.provider, query_text)
        with self._lock:
            best_key: str | None = None
            best_sim = -2.0
            for key, (vec, _) in self._entries.items():
                sim = cosine_similarity(query_vec, vec)
                if sim > best_sim:
                    best_sim = sim
                    best_key = key
            if best_key is None or best_sim < self.threshold:
                return None
            self._entries.move_to_end(best_key)
            return self._entries[best_key][1]

    def insert(self, query_text: str, result: Sequence[EvidenceItem]) -> None:
        if self.capacity == 0:
            return
        vec = embed_text(self.provider, query_text)
        with self._lock:
            if query_text in self._entries:
                self._entries.move_to_end(query_text)
            self._entries[query_text] = (vec, tuple(result))
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)

    def keys(self) -> tuple[str, ...]:
        with self._lock:
            return tuple(self._entries)


def _explanation_items(graph: KnowledgeGraph, label: str) -> tuple[EvidenceItem, ...]:
    try:
        row = graph.component_explanation(label)
    except NotFoundError:
        return ()
    text = row["explanation"]
    return (
        EvidenceItem(
            kind=EvidenceKind.COMPONENT_EXPLANATION,
            subject=label,
            content=text,
            source=EvidenceSource.TOOL,
            empty=not text,
        ),
    )


def _containing_items(graph: KnowledgeGraph, label: str) -> tuple[EvidenceItem, ...]:
    try:
        rows = graph.characters_by_component(label)
    except NotFoundError:
        return ()
    return tuple(
        EvidenceItem(
            kind=EvidenceKind.CONTAINING_CHARACTER,
            subject=row["character_id"],
            content=row["interpretation"],
            source=EvidenceSource.TOOL,
            empty=not row["interpretation"],
            co_components=tuple(row["co_components"]),
        )
        for row in rows
    )


_TOOL_EXECUTORS = {
    ToolName.COMPONENT_EXPLANATION: _explanation_items,
    ToolName.CHARACTERS_BY_COMPONENT: _containing_items,
}


def execute_tool_calls(
    graph: KnowledgeGraph,
    calls: Sequence[tuple[ToolName, str]],
    cache: SemanticCache,
) -> tuple[list[EvidenceItem], list[ToolCall]]:
    """Run the external-tool stage, serving repeats from the cache.

    Only real graph invocations enter the trace; cache hits re-emit the
    stored payload with source=Cache and leave the trace untouched.
    """
    items: list[EvidenceItem] = []
    trace: list[ToolCall] = []
    for tool, argument in calls:
        key = f"{tool.value}:{argument}"
        cached = cache.lookup(key)
        if cached is not None:
            items.extend(replace(item, source=EvidenceSource.CACHE) for item in cached)
            continue
        fetched = _TOOL_EXECUTORS[tool](graph, argument)
        trace.append(ToolCall(tool=tool, argument=argument, issued_at=len(trace)))
        cache.insert(key, fetched)
        items.extend(fetched)
    return items, trace


def internal_synthesis(
    graph: KnowledgeGraph, candidate_characters: Sequence[str]
) -> list[EvidenceItem]:
    """Variant and modern-form lookups, performed without external tools."""
    items: list[EvidenceItem] = []
    for character_id in sorted(set(candidate_characters)):
        try:
            variants = graph.variant_lookup(character_id)
        except NotFoundError:
            variants = []
        for variant_id in variants:
            node = graph.nodes.get(f"character:{variant_id}")
            interp = node.explanation if node else ""
            content = f"variant form of {character_id}"
            if interp:
                content += f": {interp}"
            items.append(
                EvidenceItem(
                    kind=EvidenceKind.VARIANT,
                    subject=variant_id,
                    content=content,
                    source=EvidenceSource.INTERNAL,
                )
            )
        try:
            modern = graph.modern_mapping(character_id)
        except NotFoundError:
            modern = None
        if modern:
            items.append(
                EvidenceItem(
                    kind=EvidenceKind.MODERN_MAPPING,
                    subject=character_id,
                    content=modern,
                    source=EvidenceSource.INTERNAL,
                )
            )
    return items


def synthesize_bundle(
    stage1: Sequence[EvidenceItem],
    stage2: Sequence[EvidenceItem],
    predicted: RankedPrediction,
    config: RetrievalConfig,
) -> tuple[EvidenceItem, ...]:
    """Deduplicate, reorder and truncate the collected evidence.

    Fixed priority: explanations, then containing characters by descending
    co-component overlap with the predicted labels, then variants, then
    modern mappings. The output depends only on the set of inputs, never on
    their arrival order.
    """
    pool: dict[tuple[EvidenceKind, str], EvidenceItem] = {}
    for item in list(stage1) + list(stage2):
        key = (item.kind, item.subject)
        old = pool.get(key)
        if old is None or (
            (_SOURCE_PRIORITY[item.source], item.content)
            < (_SOURCE_PRIORITY[old.source], old.content)
        ):
            pool[key] = item

    predicted_labels = [label for label, _ in predicted.entries]
    label_rank = {label: i for i, label in enumerate(predicted_labels)}
    predicted_set = set(predicted_labels)

    def sort_key(item: EvidenceItem):
        kind_rank = _KIND_PRIORITY[item.kind]
        if item.kind is EvidenceKind.COMPONENT_EXPLANATION:
            return (kind_rank, label_rank.get(item.subject, len(label_rank)), item.subject)
        if item.kind is EvidenceKind.CONTAINING_CHARACTER:
            overlap = len(predicted_set.intersection(item.co_components))
            return (kind_rank, -overlap, item.subject)
        return (kind_rank, 0, item.subject)

    ordered = sorted(pool.values(), key=sort_key)[: config.max_items]
    return tuple(replace(item, rank=i) for i, item in enumerate(ordered))


def plan_cascade_calls(predicted: RankedPrediction, config: RetrievalConfig) -> list[tuple[ToolName, str]]:
    """The fixed component-centric stage-1 plan: both tools per top-m label."""
    calls: list[tuple[ToolName, str]] = []
    for label, _ in predicted.entries[: config.top_m]:
        calls.append((ToolName.COMPONENT_EXPLANATION, label))
        calls.append((ToolName.CHARACTERS_BY_COMPONENT, label))
    return calls


def retrieve_evidence(
    graph: KnowledgeGraph,
    predicted: RankedPrediction,
    cache: SemanticCache,
    config: RetrievalConfig,
    character_ref: str = "",
    planned_calls: Sequence[tuple[ToolName, str]] | None = None,
) -> EvidenceBundle:
    """Execute the two-stage cascade and assemble the evidence bundle.

    ``planned_calls`` lets an agent-produced plan replace the fixed stage-1
    schedule; stage 2 and the synthesis step are identical either way.
    """
    if graph is None:
        raise GraphUnavailableError("no knowledge graph loaded")
    if not predicted.entries:
        raise ValueError("predicted components must be non-empty")

    calls = list(planned_calls) if planned_calls is not None else plan_cascade_calls(predicted, config)
    stage1, trace = execute_tool_calls(graph, calls, cache)

    distinct_stage1 = {(item.kind, item.subject) for item in stage1}
    stage2: list[EvidenceItem] = []
    if len(distinct_stage1) < config.min_evidence:
        candidates = [
            item.subject for item in stage1 if item.kind is EvidenceKind.CONTAINING_CHARACTER
        ]
        stage2 = internal_synthesis(graph, candidates)

    items = synthesize_bundle(stage1, stage2, predicted, config)
    return EvidenceBundle(
        character_ref=character_ref,
        predicted_components=tuple(predicted.entries[: config.top_m]),
        items=items,
        trace=tuple(trace),
        sufficient=len(items) >= config.min_evidence,
        min_evidence=config.min_evidence,
    )
