"""Which program functions the traced run wraps, and the per-layer metrics
computed from the spans they record.

Each function is wrapped at the module or class attribute its caller
resolves at call time (``obsdecipher.pipeline.classify_topk`` for
``interpret_character``, ``SemanticCache.lookup`` for the retrieval
cascade, and so on). The benchmark itself calls set-up and evaluation
functions through their module attributes, so those calls are traced too.
"""

from __future__ import annotations

import math
import statistics
import threading
from collections import Counter
from typing import Mapping, Sequence

import obsdecipher.classifier as classifier
import obsdecipher.dataset as dataset
import obsdecipher.embedding as embedding
import obsdecipher.inference as inference
import obsdecipher.kg as kg
import obsdecipher.metrics as metrics
import obsdecipher.pipeline as pipeline
import obsdecipher.report as report
import obsdecipher.retrieval as retrieval

from tracing import Patcher, Span, Tracer, root_names, self_times
from wrappers import LatencyChatBackend

SETUP, TOPK, MAIN = "phase.setup", "phase.topk", "phase.main"

# (owner, attribute, span name); every span name is <module>.<function>
WRAPPED = (
    (pipeline, "embed_image", "embedding.embed_image"),
    (embedding, "embed_image", "embedding.embed_image"),
    (retrieval, "embed_text", "embedding.embed_text"),
    (metrics, "embed_text", "embedding.embed_text"),
    (pipeline, "classify_topk", "classifier.classify_topk"),
    (classifier, "evaluate_topk", "classifier.evaluate_topk"),
    (classifier, "build_prototypes", "classifier.build_prototypes"),
    (classifier, "save_model", "classifier.save_model"),
    (classifier, "load_model", "classifier.load_model"),
    (retrieval.SemanticCache, "lookup", "retrieval.SemanticCache.lookup"),
    (pipeline, "retrieve_evidence", "retrieval.retrieve_evidence"),
    (inference, "retrieve_evidence", "retrieval.retrieve_evidence"),
    (retrieval, "synthesize_bundle", "retrieval.synthesize_bundle"),
    (retrieval, "internal_synthesis", "retrieval.internal_synthesis"),
    (kg.KnowledgeGraph, "component_explanation", "kg.component_explanation"),
    (kg.KnowledgeGraph, "characters_by_component", "kg.characters_by_component"),
    (kg.KnowledgeGraph, "variant_lookup", "kg.variant_lookup"),
    (kg.KnowledgeGraph, "modern_mapping", "kg.modern_mapping"),
    (kg, "build_graph", "kg.build_graph"),
    (kg, "save_graph", "kg.save_graph"),
    (kg, "load_graph", "kg.load_graph"),
    (pipeline, "infer_relationship", "inference.infer_relationship"),
    (pipeline, "generate_interpretation_vlm", "inference.generate_interpretation_vlm"),
    (pipeline, "generate_interpretation_multiagent", "inference.generate_interpretation_multiagent"),
    (LatencyChatBackend, "complete", "backends.complete"),
    (inference, "render_evidence", "templates.render_evidence"),
    (pipeline, "run_pipeline", "pipeline.run_pipeline"),
    (pipeline, "atomic_write_text", "io.atomic_write_text"),
    (report, "rouge1_f1", "metrics.rouge1_f1"),
    (report, "embedding_f1", "metrics.embedding_f1"),
    (report, "mover_score", "metrics.mover_score"),
    (report, "llm_judge", "metrics.llm_judge"),
    (report, "evaluate_run", "report.evaluate_run"),
    (dataset, "read_manifest", "dataset.read_manifest"),
)

KG_TOOLS = ("kg.component_explanation", "kg.characters_by_component")
KG_LOOKUPS = KG_TOOLS + ("kg.variant_lookup", "kg.modern_mapping")

# self time per character of the main phase
MAIN_MS = (
    "embedding.embed_image",
    "embedding.embed_text",
    "classifier.classify_topk",
    "retrieval.SemanticCache.lookup",
    "retrieval.SemanticCache.insert",
    "retrieval.retrieve_evidence",
    "retrieval.synthesize_bundle",
    "inference.infer_relationship",
    "inference.generate_interpretation_vlm",
    "inference.generate_interpretation_multiagent",
    "templates.render_evidence",
    "pipeline.run_pipeline",
    "io.atomic_write_text",
    "metrics.rouge1_f1",
    "metrics.embedding_f1",
    "metrics.mover_score",
    "metrics.llm_judge",
    "report.evaluate_run",
)
# calls per character of the main phase
MAIN_CALLS = (
    "embedding.embed_image",
    "embedding.embed_text",
    "retrieval.SemanticCache.lookup",
    "retrieval.SemanticCache.insert",
    "io.atomic_write_text",
)
# self time per set-up
SETUP_MS = (
    "classifier.build_prototypes",
    "classifier.save_model",
    "classifier.load_model",
    "kg.build_graph",
    "kg.save_graph",
    "kg.load_graph",
    "dataset.read_manifest",
)
ROLES = ("chat", "retriever", "reasoner", "judge")
TAIL_PERCENTILES = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0)


class CacheObserver:
    """Counts evictions around ``SemanticCache.insert`` calls.

    Only an insert changes a cache's size, so inserts are serialized here to
    make the size before and after each one exact under a worker pool.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self.evictions = 0

    def wrap_insert(self, tracer: Tracer, original):
        def insert(cache, query_text, result):
            with self._lock:
                before = len(cache)
                # the entries themselves: ``keys()`` would copy them all
                fresh = query_text not in cache._entries
                with tracer.span("retrieval.SemanticCache.insert"):
                    original(cache, query_text, result)
                self.evictions += before + fresh - len(cache)

        return insert


def instrument(tracer: Tracer, patcher: Patcher) -> CacheObserver:
    """Wrap every function in ``WRAPPED`` plus the cache insert and the pool."""
    for owner, attr, name in WRAPPED:
        patcher.replace(owner, attr, tracer.wrap(name, getattr(owner, attr)))
    patcher.replace(
        pipeline,
        "interpret_character",
        tracer.wrap("pipeline.interpret_character", pipeline.interpret_character, _character_id),
    )
    observer = CacheObserver()
    insert = retrieval.SemanticCache.insert
    patcher.replace(retrieval.SemanticCache, "insert", observer.wrap_insert(tracer, insert))
    patcher.replace(pipeline, "ThreadPoolExecutor", tracer.executor_class())
    return observer


def _character_id(char, *args, **kwargs) -> str:
    return char.character_id


def tail_percentile(n: int) -> float | None:
    """Highest listed percentile with at least ten of ``n`` samples beyond it."""
    for pct in TAIL_PERCENTILES:
        # rounded so that 100 * 0.1 counts as the ten samples it is
        if round(n * (100.0 - pct), 6) >= 1000.0:
            return pct
    return None


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = math.ceil(round(len(ordered) * pct / 100.0, 6))
    return ordered[max(rank, 1) - 1]


def layer_metrics(
    spans: Sequence[Span],
    chars: int,
    setups: int,
    queries: int,
    ledger: Mapping[str, int],
    evictions: int,
    main_calls: int,
    fallbacks: int,
) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from one traced process, as name -> (value, unit).

    ``chars`` is the number of characters (or evaluation items) the main
    phase attempted, ``setups`` the set-ups timed, ``queries`` the top-k
    queries, ``ledger`` the wrapper counters of the main phase,
    ``main_calls`` the number of ``run_pipeline``/``evaluate_run`` calls
    and ``fallbacks`` the results whose agent plan fell back to the cascade.
    A layer that a workload never enters reads 0.
    """
    selfs = self_times(spans)
    phase = root_names(spans)
    ms: dict[str, Counter] = {SETUP: Counter(), TOPK: Counter(), MAIN: Counter()}
    calls: dict[str, Counter] = {SETUP: Counter(), TOPK: Counter(), MAIN: Counter()}
    interpret: list[float] = []
    for s in spans:
        where = phase[s.span_id]
        if where not in ms:
            continue
        ms[where][s.name] += selfs[s.span_id] * 1000.0
        calls[where][s.name] += 1
        if s.name == "pipeline.interpret_character" and where == MAIN:
            interpret.append(s.duration * 1000.0)

    per_char = 1.0 / max(chars, 1)
    out: dict[str, tuple[float, str]] = {}
    for name in MAIN_MS:
        out[f"{name}.ms"] = (ms[MAIN][name] * per_char, "ms/char")
    for name in MAIN_CALLS:
        out[f"{name}.calls"] = (calls[MAIN][name] * per_char, "count/char")
    for name in SETUP_MS:
        out[f"{name}.ms"] = (ms[SETUP][name] / max(setups, 1), "ms/setup")
    out["classifier.evaluate_topk.ms"] = (ms[TOPK]["classifier.evaluate_topk"] / max(queries, 1), "ms/query")

    lookups = calls[MAIN]["retrieval.SemanticCache.lookup"]
    misses = calls[MAIN]["retrieval.SemanticCache.insert"]
    out["retrieval.cache.hit_ratio"] = ((lookups - misses) / lookups if lookups else 0.0, "ratio")
    out["retrieval.cache.evictions"] = (evictions / max(main_calls, 1), "count/run")
    out["retrieval.stage2_ratio"] = (calls[MAIN]["retrieval.internal_synthesis"] * per_char, "ratio")
    out["kg.tool_calls"] = (sum(calls[MAIN][n] for n in KG_TOOLS) * per_char, "count/char")
    out["kg.lookup.ms"] = (sum(ms[MAIN][n] for n in KG_LOOKUPS) * per_char, "ms/char")
    out["inference.plan_fallback_ratio"] = (fallbacks * per_char, "ratio")

    for role in ROLES:
        out[f"backends.complete.calls.{role}"] = (ledger.get(f"chat.{role}.calls", 0) * per_char, "count/char")
    # inclusive: the whole time a caller waits on the backend
    wait = sum(s.duration for s in spans if s.name == "backends.complete" and phase[s.span_id] == MAIN)
    out["backends.complete.wait_ms"] = (wait * 1000.0 * per_char, "ms/char")
    out["backends.prompt_tokens"] = (ledger.get("chat.prompt_tokens", 0) * per_char, "count/char")
    out["backends.completion_tokens"] = (ledger.get("chat.completion_tokens", 0) * per_char, "count/char")

    tail = tail_percentile(len(interpret))
    p50 = statistics.median(interpret) if interpret else 0.0
    out["pipeline.interpret_character.p50_ms"] = (p50, "ms")
    out["pipeline.interpret_character.tail_ms"] = (percentile(interpret, tail) if tail else 0.0, "ms")
    out["pipeline.interpret_character.tail_pct"] = (tail or 0.0, "%")

    token_embeds = _under(spans, phase, "embedding.embed_text", "report.evaluate_run")
    out["metrics.token_embeds_per_item"] = (token_embeds * per_char, "count/item")
    return out


def _under(spans: Sequence[Span], phase: Mapping[int, str], name: str, ancestor: str) -> int:
    """Main-phase spans called ``name`` with an ancestor called ``ancestor``."""
    by_id = {s.span_id: s for s in spans}
    count = 0
    for s in spans:
        if s.name != name or phase[s.span_id] != MAIN:
            continue
        parent = by_id.get(s.parent)
        while parent is not None and parent.name != ancestor:
            parent = by_id.get(parent.parent)
        count += parent is not None
    return count
