"""Cascading evidence retrieval over the knowledge graph.

The cascade is deliberately fixed: component-centric tool calls first
(explanations, then containing characters, for the ``TOP_M`` predicted
components), then constrained internal synthesis (variant and modern-form
lookups) only when the tool stage found fewer than ``MIN_EVIDENCE`` distinct
items, and at most ``MAX_ITEMS`` items reach the generation prompt. The
three are constants, not settings: the paper's retrieval step is one fixed
chain (identify the components, query the graph for them, infer the
relationship), every run uses the same values, and the run manifest records
them. Every external tool query is routed through a semantic-similarity
cache so repeated or near-duplicate queries in a workload are served
without touching the graph.

A bundle records facts only: the predicted components, the executed plan
(``trace``, one ``ToolCall`` per stage-1 call, whether the
cache or the graph answered it), the ranked items and whether they reach
``MIN_EVIDENCE``. An item's origin follows from its kind: explanations and
containing characters come from the two tools, variants and modern
mappings from internal lookups. Nothing in it depends on thread timing.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, replace
from enum import Enum
from typing import Annotated, NamedTuple, Sequence

import numpy as np

from . import records
from .classifier import RankedPrediction
from .embedding import EmbeddingProvider, EmbeddingVector, embed_text
from .errors import ConfigError, NotFoundError, ZeroNormError
from .kg import KnowledgeGraph

TOP_M = 3  # predicted components queried by the fixed stage-1 plan
MIN_EVIDENCE = 3  # distinct stage-1 items below which stage 2 runs
MAX_ITEMS = 12  # evidence items kept for the generation prompt


class ToolName(str, Enum):
    COMPONENT_EXPLANATION = "component_explanation"
    CHARACTERS_BY_COMPONENT = "characters_by_component"


class EvidenceKind(str, Enum):
    COMPONENT_EXPLANATION = "ComponentExplanation"
    CONTAINING_CHARACTER = "ContainingCharacter"
    VARIANT = "Variant"
    MODERN_MAPPING = "ModernMapping"


_KIND_PRIORITY = {
    EvidenceKind.COMPONENT_EXPLANATION: 0,
    EvidenceKind.CONTAINING_CHARACTER: 1,
    EvidenceKind.VARIANT: 2,
    EvidenceKind.MODERN_MAPPING: 3,
}


@dataclass(frozen=True)
class EvidenceItem:
    kind: EvidenceKind
    subject: str
    content: str
    rank: int = 0
    co_components: Annotated[tuple[str, ...], records.OMIT_EMPTY] = ()


class ToolCall(NamedTuple):
    """One stage-1 graph query."""

    tool: ToolName
    argument: str


@dataclass(frozen=True)
class EvidenceBundle:
    """Ordered, character-centric evidence handed to the generation stage."""

    character_ref: str
    predicted_components: tuple[tuple[str, float], ...]
    items: tuple[EvidenceItem, ...]
    trace: tuple[ToolCall, ...]
    sufficient: bool

    def to_line(self) -> str:
        """The bundle as one line of a run's evidence file."""
        return records.line(self, {"schema_version": 2})


class SemanticCache:
    """LRU cache keyed by query-embedding similarity.

    A lookup returns the stored result of the entry whose key embedding is
    most similar to the query's, when that cosine (clamped to [-1, 1]) clears
    the threshold; on an exact tie the entry earliest in LRU order wins, and
    the hit becomes most-recently-used. Inserts evict the least-recently-used
    entry once capacity is exceeded. Capacity 0 disables the cache.

    A query equal to a stored key is served that key's own result without
    embedding anything, even when another key embeds to the same vector.
    Any other query is embedded once and scored against every key with one
    mat-vec over a matrix of unit-normalized key vectors, one row per
    entry. The matrix reserves up to 1,024 rows at the first insert and
    doubles when full, up to ``capacity``; its pages are committed as rows
    are written, and an evicted entry's row is reused. The miss's vector is
    kept per thread so that the following ``insert`` of the same text does
    not embed it again, which the provider contract (embeddings are
    deterministic per input) makes safe. A zero-norm query raises
    ``ZeroNormError`` when there is a key to compare it with; a zero-norm
    key raises it on insert and is not stored.

    Similarity hits are not restricted to the same tool or argument: if an
    encoder puts ``component_explanation:人`` and ``component_explanation:入``
    within the threshold, a lookup of one is served the other's evidence.
    Operations are serialized by a lock so concurrent retrievals never
    observe torn LRU state.
    """

    def __init__(self, provider: EmbeddingProvider, threshold: float = 0.95, capacity: int = 1024):
        if not (0.0 < threshold <= 1.0):
            raise ConfigError("cache threshold must be in (0, 1]")
        if capacity < 0:
            raise ConfigError("cache capacity must be >= 0")
        self.provider = provider
        self.threshold = threshold
        self.capacity = capacity
        # key -> (row in _matrix, payload), in LRU order; _keys maps rows back
        self._entries: "OrderedDict[str, tuple[int, tuple[EvidenceItem, ...]]]" = OrderedDict()
        self._matrix = np.empty((0, provider.dim))
        self._keys: list[str] = []
        self._last_miss = threading.local()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def lookup(self, query_text: str) -> tuple[EvidenceItem, ...] | None:
        if self.capacity == 0:
            return None
        with self._lock:
            if query_text in self._entries:
                return self._touch(query_text)
        vec = embed_text(self.provider, query_text)
        self._last_miss.entry = (query_text, vec)
        with self._lock:
            if not self._entries:
                return None
            sims = np.clip(self._matrix[: len(self._entries)] @ _unit(vec), -1.0, 1.0)
            best = int(np.argmax(sims))
            top = sims[best]
            if top < self.threshold:
                return None
            key = self._keys[best]
            if np.count_nonzero(sims == top) > 1:
                key = next(k for k, (row, _) in self._entries.items() if sims[row] == top)
            return self._touch(key)

    def _touch(self, key: str) -> tuple[EvidenceItem, ...]:
        self._entries.move_to_end(key)
        return self._entries[key][1]

    def insert(self, query_text: str, result: Sequence[EvidenceItem]) -> None:
        if self.capacity == 0:
            return
        missed_text, vec = getattr(self._last_miss, "entry", (None, None))
        if missed_text != query_text:
            vec = embed_text(self.provider, query_text)
        unit = _unit(vec)
        with self._lock:
            if query_text in self._entries:
                row = self._entries.pop(query_text)[0]
            elif len(self._entries) == self.capacity:
                row = self._entries.popitem(last=False)[1][0]
            else:
                row = len(self._entries)
                if row == len(self._matrix):
                    # pages are committed as rows are first written, so
                    # only caches past 1,024 keys copy the matrix to grow
                    grown = np.empty((min(self.capacity, max(1024, 2 * row)), unit.shape[0]))
                    grown[:row] = self._matrix
                    self._matrix = grown
                self._keys.append(query_text)
            self._matrix[row] = unit
            self._keys[row] = query_text
            self._entries[query_text] = (row, tuple(result))

    def keys(self) -> tuple[str, ...]:
        with self._lock:
            return tuple(self._entries)


def _unit(vec: EmbeddingVector) -> np.ndarray:
    norm = float(np.linalg.norm(vec.values))
    if norm == 0.0:
        raise ZeroNormError("cosine similarity undefined for zero-norm vector")
    return vec.values / norm


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
) -> list[EvidenceItem]:
    """Run the external-tool stage, serving repeats from the cache.

    A cache hit returns the stored items unchanged, so the items do not
    depend on whether the cache or the graph answered.
    """
    items: list[EvidenceItem] = []
    for tool, argument in calls:
        key = f"{tool.value}:{argument}"
        fetched = cache.lookup(key)
        if fetched is None:
            fetched = _TOOL_EXECUTORS[tool](graph, argument)
            cache.insert(key, fetched)
        items.extend(fetched)
    return items


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
                )
            )
    return items


def synthesize_bundle(
    stage1: Sequence[EvidenceItem],
    stage2: Sequence[EvidenceItem],
    predicted: RankedPrediction,
) -> tuple[EvidenceItem, ...]:
    """Deduplicate, reorder and truncate the collected evidence.

    Fixed priority: explanations, then containing characters by descending
    co-component overlap with the predicted labels, then variants, then
    modern mappings, cut to ``MAX_ITEMS``. Of the items sharing a kind and a
    subject, the one with the smallest ``(content, co_components)`` is kept,
    so the output depends only on the set of inputs, never on their arrival
    order.
    """
    pool: dict[tuple[EvidenceKind, str], EvidenceItem] = {}
    for item in list(stage1) + list(stage2):
        key = (item.kind, item.subject)
        old = pool.get(key)
        if old is None or (item.content, item.co_components) < (old.content, old.co_components):
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

    ordered = sorted(pool.values(), key=sort_key)[:MAX_ITEMS]
    return tuple(replace(item, rank=i) for i, item in enumerate(ordered))


def plan_cascade_calls(predicted: RankedPrediction) -> list[tuple[ToolName, str]]:
    """The fixed component-centric stage-1 plan: both tools per ``TOP_M`` label."""
    calls: list[tuple[ToolName, str]] = []
    for label, _ in predicted.entries[:TOP_M]:
        calls.append((ToolName.COMPONENT_EXPLANATION, label))
        calls.append((ToolName.CHARACTERS_BY_COMPONENT, label))
    return calls


def retrieve_evidence(
    graph: KnowledgeGraph,
    predicted: RankedPrediction,
    cache: SemanticCache,
    character_ref: str = "",
    planned_calls: Sequence[tuple[ToolName, str]] | None = None,
) -> EvidenceBundle:
    """Execute the two-stage cascade and assemble the evidence bundle.

    ``planned_calls`` lets an agent-produced plan replace the fixed stage-1
    schedule; stage 2 and the synthesis step are identical either way.
    """
    if not predicted.entries:
        raise ValueError("predicted components must be non-empty")

    calls = list(planned_calls) if planned_calls is not None else plan_cascade_calls(predicted)
    stage1 = execute_tool_calls(graph, calls, cache)

    distinct_stage1 = {(item.kind, item.subject) for item in stage1}
    stage2: list[EvidenceItem] = []
    if len(distinct_stage1) < MIN_EVIDENCE:
        candidates = [
            item.subject for item in stage1 if item.kind is EvidenceKind.CONTAINING_CHARACTER
        ]
        stage2 = internal_synthesis(graph, candidates)

    items = synthesize_bundle(stage1, stage2, predicted)
    return EvidenceBundle(
        character_ref=character_ref,
        predicted_components=tuple(predicted.entries[:TOP_M]),
        items=items,
        trace=tuple(ToolCall(*call) for call in calls),
        sufficient=len(items) >= MIN_EVIDENCE,
    )
