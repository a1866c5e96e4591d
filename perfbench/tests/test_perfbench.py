"""Tests of the benchmark's own parts: generator, spans, wrappers, patching.

Run with ``PYTHONPATH=src python -m pytest perfbench/tests -q`` from the
repository root.
"""

import json
import socket
import sys
import threading
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import obsdecipher.pipeline as pipeline  # noqa: E402
import obsdecipher.retrieval as retrieval  # noqa: E402
from obsdecipher.classifier import build_prototypes, classify_topk  # noqa: E402
from obsdecipher.embedding import embed_image  # noqa: E402
from obsdecipher.kg import build_graph  # noqa: E402

import layers  # noqa: E402
import run as bench_run  # noqa: E402
from corpus import ComponentAwareEncoder, CorpusSpec, generate  # noqa: E402
from tracing import Patcher, Span, Tracer, root_names, self_times  # noqa: E402
from worker import NetworkGuard  # noqa: E402
from workloads import WORKLOADS  # noqa: E402
from wrappers import CallLedger, LatencyEncoder  # noqa: E402

SMALL = CorpusSpec(n_labels=30, n_characters=60)


def _files(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def test_generator_is_a_function_of_the_seed(tmp_path):
    generate(SMALL, 7, tmp_path / "a")
    generate(SMALL, 7, tmp_path / "b")
    generate(SMALL, 8, tmp_path / "c")
    first, again, other = (_files(tmp_path / d) for d in "abc")
    assert first == again
    assert first != other
    assert len([f for f in first if f.startswith("images/")]) == SMALL.n_characters


def test_generated_labels_cover_the_vocabulary(tmp_path):
    gen = generate(SMALL, 3, tmp_path)
    assert len(gen.corpus.vocabulary) == SMALL.n_labels
    assert {lab for c in gen.corpus.characters for lab in c.component_labels} == gen.corpus.vocabulary
    assert len(gen.train.characters) + len(gen.test.characters) == SMALL.n_characters


def test_encoder_ranks_a_characters_own_components_first(tmp_path):
    gen = generate(SMALL, 5, tmp_path)
    encoder = ComponentAwareEncoder()
    model = build_prototypes(
        ((c.label, embed_image(encoder, (gen.root / c.image_ref).read_bytes())) for c in gen.corpus.components),
        provider_name=encoder.name,
    )
    for char in gen.corpus.characters[:20]:
        query = embed_image(encoder, (gen.root / char.image_ref).read_bytes())
        top = classify_topk(model, query, len(char.component_labels)).labels()
        assert set(top) == set(char.component_labels)


def test_self_time_subtracts_the_union_of_children_clipped_to_the_parent():
    spans = [
        Span(1, "root", 0.0, 10.0),
        Span(2, "a", 1.0, 4.0, parent=1),
        Span(3, "b", 3.0, 6.0, parent=1),  # overlaps a: union is [1, 6]
        Span(4, "c", 8.0, 12.0, parent=1),  # outlives root: counts up to 10
        Span(5, "a.child", 2.0, 3.0, parent=2),
        Span(6, "other", 20.0, 21.0),
    ]
    selfs = self_times(spans)
    assert selfs[1] == pytest.approx(10.0 - 5.0 - 2.0)
    assert selfs[2] == pytest.approx(3.0 - 1.0)
    assert selfs[3] == pytest.approx(3.0)
    assert selfs[4] == pytest.approx(4.0)
    assert selfs[5] == pytest.approx(1.0)
    assert selfs[6] == pytest.approx(1.0)
    assert root_names(spans) == {1: "root", 2: "root", 3: "root", 4: "root", 5: "root", 6: "other"}


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    assert layers.tail_percentile(300) == 95.0
    assert layers.tail_percentile(1000) == 99.0
    assert layers.tail_percentile(100) == 90.0
    assert layers.tail_percentile(10000) == 99.9
    assert layers.tail_percentile(15) is None
    assert layers.percentile(list(range(1, 101)), 95.0) == 95
    assert layers.percentile(list(range(1, 10001)), 99.9) == 9990


def _small_run(tmp_path, backends, provider, mode="vlm", concurrency=1):
    gen = generate(SMALL, 11, tmp_path / "corpus")
    model = build_prototypes(
        ((c.label, embed_image(provider, (gen.root / c.image_ref).read_bytes())) for c in gen.train.components),
        provider_name=provider.name,
    )
    explanations = json.loads(gen.explanations.read_text(encoding="utf-8"))
    graph = build_graph(gen.train, explanations, source_split="train.ldjson")
    config = pipeline.PipelineConfig(mode=mode, concurrency=concurrency, mock=True)
    results, failures, manifest = pipeline.run_pipeline(
        gen.test, provider, model, graph, backends, config, image_root=gen.root, out_dir=tmp_path / "out"
    )
    assert not failures and len(results) == len(gen.test.characters)
    return manifest["manifest_hash"]


@pytest.mark.parametrize("mode", ["vlm", "multi_agent"])
def test_wrappers_pass_output_through_unchanged(tmp_path, mode):
    plain = _small_run(tmp_path / "plain", pipeline.PipelineBackends.offline(), ComponentAwareEncoder(), mode)
    ledger = CallLedger()
    workload = WORKLOADS["run-agents-hosted"]
    wrapped = _small_run(
        tmp_path / "wrapped",
        workload.backends(ledger),
        LatencyEncoder(ComponentAwareEncoder(), ledger, latency_s=0.001),
        mode,
    )
    assert wrapped == plain
    counts = ledger.snapshot()
    assert counts["embed.image"] > 0 and counts["embed.text"] > 0
    assert counts["chat.prompt_tokens"] > 0 and counts["chat.completion_tokens"] > 0
    roles = {"chat"} if mode == "vlm" else {"retriever", "reasoner"}
    assert {k.split(".")[1] for k in counts if k.endswith(".calls")} == roles


def _patched_attributes():
    owners = [(o, a) for o, a, _ in layers.WRAPPED]
    owners += [
        (pipeline, "interpret_character"),
        (retrieval.SemanticCache, "insert"),
        (pipeline, "ThreadPoolExecutor"),
    ]
    return {(id(o), a): vars(o)[a] for o, a in owners}


def test_traced_run_restores_every_patched_function_and_keeps_the_hash(tmp_path):
    untraced = _small_run(tmp_path / "untraced", pipeline.PipelineBackends.offline(), ComponentAwareEncoder(),
                          "multi_agent", concurrency=2)
    before = _patched_attributes()
    tracer, patcher = Tracer(), Patcher()
    layers.instrument(tracer, patcher)
    try:
        assert _patched_attributes() != before
        ledger = CallLedger()
        backends = WORKLOADS["run-agents-hosted"].backends(ledger)
        with tracer.span(layers.MAIN):
            traced = _small_run(tmp_path / "traced", backends, ComponentAwareEncoder(), "multi_agent", concurrency=2)
    finally:
        assert patcher.restore()
    after = _patched_attributes()
    assert all(after[key] is before[key] for key in before)
    assert traced == untraced

    # pool threads nest under the run that submitted their work
    by_name = {}
    for s in tracer.spans:
        by_name.setdefault(s.name, []).append(s)
    (run_span,) = by_name["pipeline.run_pipeline"]
    assert all(s.parent == run_span.span_id for s in by_name["pipeline.interpret_character"])
    assert all(s.item for s in by_name["retrieval.retrieve_evidence"])
    metrics = layers.layer_metrics(
        tracer.spans, chars=len(by_name["pipeline.interpret_character"]), setups=1, queries=1,
        ledger=ledger.snapshot(), evictions=0, main_calls=1, fallbacks=0,
    )
    assert metrics["backends.complete.calls.reasoner"][0] >= 1.0
    assert metrics["retrieval.SemanticCache.lookup.calls"][0] > 0


def test_eviction_count_is_exact_when_two_threads_insert():
    def fresh_cache(capacity):
        return retrieval.SemanticCache(ComponentAwareEncoder(), capacity=capacity)

    tracer = Tracer()
    observer = layers.CacheObserver()
    insert = observer.wrap_insert(tracer, vars(retrieval.SemanticCache)["insert"])

    small = fresh_cache(3)
    for key in ("k0", "k1", "k2", "k3", "k4", "k4"):
        insert(small, key, ())
    assert observer.evictions == 2

    observer.evictions = 0
    shared = fresh_cache(20)
    keys = [f"key{i}" for i in range(10)]
    threads = [threading.Thread(target=lambda: [insert(shared, k, ()) for k in keys]) for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
        assert not t.is_alive()
    assert observer.evictions == 0
    assert len(tracer.spans) == 6 + 20


def test_time_median_weighs_samples_by_their_seconds():
    # six quick samples at 10/s and two long ones at 5/s: the plain median
    # of the rates is 10, but most of the time ran at 5/s
    samples = [(1.0, 0.1)] * 6 + [(2.5, 0.5)] * 2
    assert bench_run.time_median(samples) == pytest.approx(5.0 + 5.0 * 0.05 / 0.3)
    assert bench_run.time_median([(3.0, 1.0)]) == pytest.approx(3.0)
    assert bench_run.time_median([(2.0, 1.0), (4.0, 1.0)]) == pytest.approx(3.0)
    assert bench_run.time_median([(4.0, 1.0), (1.0, 1.0), (2.0, 1.0)]) == pytest.approx(2.0)


def test_network_guard_refuses_counts_and_restores():
    original = socket.create_connection
    patcher = Patcher()
    guard = NetworkGuard(patcher)
    try:
        with pytest.raises(OSError):
            socket.create_connection(("localhost", 9))
        with pytest.raises(OSError):
            socket.getaddrinfo("localhost", 9)
    finally:
        assert patcher.restore()
    assert guard.attempts == 2
    assert socket.create_connection is original
    assert "connect" not in vars(socket.socket)


def test_benchmark_json_declares_every_metric_the_command_prints():
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    e2e = {m["name"]: m["unit"] for m in declared["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in declared["per_layer"]}
    assert {w["name"] for w in declared["workloads"]} == set(WORKLOADS)

    call = {"seconds": 1.0, "attempted": 2, "ok": 2, "failed": 0, "hash": "h", "fallbacks": 0, "ledger": {}}
    doc = {"setup_s": [1.0], "topk": [{"queries": 1, "seconds": 1.0}], "calls": [call],
           "peak_rss_mb": 1.0, "over_transport_cap": 0,
           "layers": layers.layer_metrics([], 1, 1, 1, {}, 0, 1, 0)}
    printed_e2e = bench_run.end_to_end([doc])
    printed_layer = bench_run.per_layer(doc, doc)
    assert {k: u for k, (_, u) in printed_e2e.items()} == e2e
    assert {k: u for k, (_, u) in printed_layer.items()} == layer
