"""The benchmark's workloads and the seeded inputs each one is given."""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import obsdecipher.classifier as classifier
import obsdecipher.embedding as embedding
import obsdecipher.kg as kg
import obsdecipher.pipeline as pipeline
from obsdecipher.backends import OfflineChatBackend
from obsdecipher.inference import InterpretationResult
from obsdecipher.report import EvalConfig

from corpus import ComponentAwareEncoder, CorpusFiles, CorpusSpec, generate
from wrappers import CallLedger, LatencyChatBackend, LatencyEncoder

EVAL_CONFIG = EvalConfig(metrics=("rouge1", "embedding_f1", "mover", "judge", "type_acc"), lang="zh")


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "run" (obs run) | "evaluate" (obs evaluate)
    corpus: CorpusSpec
    mode: str = "vlm"
    concurrency: int = 1
    chat_latency_s: float = 0.0
    embed_latency_s: float = 0.0

    def config(self) -> pipeline.PipelineConfig:
        return pipeline.PipelineConfig(
            mode=self.mode, language="zh", concurrency=self.concurrency, mock=True
        )

    def encoder(self, ledger: CallLedger) -> LatencyEncoder:
        return LatencyEncoder(ComponentAwareEncoder(), ledger, self.embed_latency_s)

    def backends(self, ledger: CallLedger) -> pipeline.PipelineBackends:
        """One offline backend per role, each behind a latency wrapper."""
        chat, retriever, reasoner = (
            LatencyChatBackend(OfflineChatBackend(), ledger, role, self.chat_latency_s)
            for role in ("chat", "retriever", "reasoner")
        )
        return pipeline.PipelineBackends(chat=chat, retriever=retriever, reasoner=reasoner)

    def judge(self, ledger: CallLedger) -> LatencyChatBackend:
        return LatencyChatBackend(OfflineChatBackend(), ledger, "judge", self.chat_latency_s)


WORKLOADS = {
    w.name: w
    for w in (
        # CPU-bound: about 1,100 distinct cache keys pass the default capacity
        # of 1,024, so the cache scans, inserts and evicts; the classifier
        # ranks 1,000 prototypes
        Workload(
            name="run-vlm-wide",
            kind="run",
            corpus=CorpusSpec(n_labels=1000, n_characters=1000),
        ),
        # latency-bound: call counts, tokens and pool overlap dominate; 48
        # cache keys, so the cache mostly hits
        Workload(
            name="run-agents-hosted",
            kind="run",
            corpus=CorpusSpec(n_labels=24, n_characters=400),
            mode="multi_agent",
            concurrency=2,
            chat_latency_s=0.020,
            embed_latency_s=0.002,
        ),
        # only the metrics and report layers work
        Workload(
            name="evaluate-zh",
            kind="evaluate",
            corpus=CorpusSpec(n_labels=48, n_characters=500),
        ),
    )
}


def corpus_files(root: Path) -> CorpusFiles:
    """The generated corpus under a workload's input root."""
    return CorpusFiles(root / "corpus")


def results_dir(root: Path) -> Path:
    """Evaluate workloads: the mock-run result files under the input root."""
    return root / "results"


def prepare(workload: Workload, seed: int, root: Path) -> None:
    """Generate the corpus for ``seed`` under ``root``; for an evaluate
    workload also write the result files of an offline mock run over the
    test split."""
    gen = generate(workload.corpus, seed, corpus_files(root).root)
    if workload.kind == "evaluate":
        provider = ComponentAwareEncoder()
        pairs = [
            (c.label, embedding.embed_image(provider, (gen.root / c.image_ref).read_bytes()))
            for c in gen.train.components
        ]
        model = classifier.build_prototypes(pairs, provider_name=provider.name)
        explanations = json.loads(gen.explanations.read_text(encoding="utf-8"))
        graph = kg.build_graph(gen.train, explanations, source_split=gen.train_manifest.name)
        _, failures, _ = pipeline.run_pipeline(
            gen.test,
            provider,
            model,
            graph,
            pipeline.PipelineBackends.offline(),
            workload.config(),
            image_root=gen.root,
            out_dir=results_dir(root),
        )
        if failures:
            raise RuntimeError(f"mock run for {workload.name} failed: {failures[0]}")


def load_results(results_dir: Path) -> list[InterpretationResult]:
    """Result files of a run directory, as ``obs evaluate`` reads them."""
    return [
        InterpretationResult.from_json(json.loads(p.read_text(encoding="utf-8")))
        for p in sorted(results_dir.glob("*.json"))
        if p.name != "run_manifest.json"
    ]

