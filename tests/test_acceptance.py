"""Acceptance gate: one test per criterion, one PASS line per criterion.

Corpus-scale numbers need the real dataset and hosted encoders/backends,
so those checks are conditional; everything else is property- and
oracle-based and runs fully offline.
"""

import json
import math
import os
import random
import socket
import time
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from scipy.optimize import linear_sum_assignment

from obsdecipher.agreement import RatingMatrix, icc3, krippendorff_alpha
from obsdecipher.backends import HttpChatBackend
from obsdecipher.classifier import RankedPrediction, build_prototypes, classify_topk, evaluate_topk
from obsdecipher.cli import main
from obsdecipher.dataset import read_manifest, split_corpus
from obsdecipher.embedding import StubEmbeddingProvider, embed_text
from obsdecipher.errors import UnparseableResponseError
from obsdecipher.inference import parse_model_response
from obsdecipher.kg import build_graph, load_graph, save_graph
from obsdecipher.metrics import (
    TokenSequence,
    embedding_f1,
    llm_judge,
    mover_score,
    rouge1_f1,
    tokenize,
)
from obsdecipher.retrieval import retrieve_evidence
from obsdecipher.templates import load_template

from conftest import (
    build_fixture_corpus,
    canonical_json,
    fixture_explanations,
    make_run_fixture,
    serving,
    structurally_equal,
    train_and_build_kg,
)
from test_agreement import alpha_oracle, icc3_oracle
from test_retrieval import CountingGraph, fresh_cache


def ok(criterion: str, detail: str = ""):
    print(f"PASS {criterion}" + (f": {detail}" if detail else ""))


def test_criterion_1_classifier_oracle_equivalence():
    provider = StubEmbeddingProvider(dim=768)
    started = time.monotonic()
    pairs = [
        (f"class{c:03d}", embed_text(provider, f"s-{c}-{s}"))
        for c in range(50)
        for s in range(10)
    ]
    model = build_prototypes(pairs)
    protos = dict(zip(model.labels, model.matrix))

    agreements = 0
    for i in range(500):
        q = embed_text(provider, f"query-{i}")
        scored = sorted(
            (math.sqrt(float(((mean - q.values) ** 2).sum())), label)
            for label, mean in protos.items()
        )
        oracle_top = scored[0][1]
        if classify_topk(model, q, 1).labels()[0] == oracle_top:
            agreements += 1
    assert agreements == 500

    rng = random.Random(31)
    for trial in range(5):
        shuffled = pairs[:]
        rng.shuffle(shuffled)
        model_t = build_prototypes(shuffled[:350])
        accs = evaluate_topk(model_t, shuffled[350:], [1, 3, 5])
        assert accs[1] <= accs[3] <= accs[5]

    elapsed = time.monotonic() - started
    assert elapsed < 5.0
    ok("criterion 1", f"500/500 oracle agreement, monotone ACC@k, {elapsed:.2f}s")


def test_criterion_2_prototype_exactness():
    provider = StubEmbeddingProvider(dim=64)
    rng = random.Random(32)
    supports = []
    for i in range(1000):
        label = f"c{i % 100:03d}"
        supports.append((label, embed_text(provider, f"sup-{i}-{rng.random()}")))
    model = build_prototypes(supports)
    by_label = {}
    for label, v in supports:
        by_label.setdefault(label, []).append(v.values.tolist())
    worst = 0.0
    for label, vectors in by_label.items():
        naive = [sum(col) / len(vectors) for col in zip(*vectors)]
        got = model.matrix[model.labels.index(label)].tolist()
        for g, n in zip(got, naive):
            rel = abs(g - n) / max(1.0, abs(n))
            worst = max(worst, rel)
    assert worst <= 1e-12
    ok("criterion 2", f"1000 supports, worst relative error {worst:.2e}")


def test_criterion_3_kg_query_soundness(tmp_path):
    corpus = build_fixture_corpus(n_characters=160, n_labels=12, seed=33)
    graph = build_graph(corpus, fixture_explanations(corpus), source_split="acceptance")
    assert len(graph.nodes) >= 200, "fixture must reach 200 nodes"

    for label in sorted(corpus.vocabulary):
        want = sorted(c.character_id for c in corpus.characters if label in c.component_labels)
        assert [r["character_id"] for r in graph.characters_by_component(label)] == want
    groups = {}
    for c in corpus.characters:
        if c.variant_group:
            groups.setdefault(c.variant_group, set()).add(c.character_id)
    for char in corpus.characters:
        want = sorted(
            (groups.get(char.variant_group, set()) - {char.character_id})
            if char.variant_group
            else []
        )
        assert graph.variant_lookup(char.character_id) == want
        assert graph.modern_mapping(char.character_id) == char.modern_form
    for char in corpus.characters:
        for other in graph.variant_lookup(char.character_id):
            assert char.character_id in graph.variant_lookup(other)

    path = tmp_path / "kg.ldjson"
    save_graph(graph, path)
    assert structurally_equal(load_graph(path), graph)
    ok("criterion 3", f"{len(graph.nodes)} nodes, all lookups equal linear scans")


def test_criterion_4_cascade_determinism_and_cache():
    corpus = build_fixture_corpus(n_characters=30, n_labels=8, seed=34)
    plain_graph = build_graph(corpus, fixture_explanations(corpus))
    labels = sorted(corpus.vocabulary)[:3]
    predicted = RankedPrediction(tuple((l, 0.1 * (i + 1)) for i, l in enumerate(labels)))

    a = retrieve_evidence(plain_graph, predicted, fresh_cache(), character_ref="c")
    b = retrieve_evidence(plain_graph, predicted, fresh_cache(), character_ref="c")
    assert canonical_json(a) == canonical_json(b)

    graph = CountingGraph(plain_graph)
    cache = fresh_cache()
    bundle = retrieve_evidence(graph, predicted, cache)
    assert len(bundle.trace) == graph.external_calls == 6  # 2 tools x top-3

    # exact-repeat workload: 4 more retrievals, every tool query already cached,
    # so the hand-computed saving is 4 runs x 6 calls = 24; the bundles record
    # the same plan and items whoever answered
    for _ in range(4):
        repeat = retrieve_evidence(graph, predicted, cache)
        assert canonical_json(repeat) == canonical_json(bundle)
    assert graph.external_calls == 6

    cache2 = fresh_cache(capacity=2)
    cache2.insert("q1", (a.items[0],))
    cache2.insert("q2", (a.items[0],))
    assert cache2.lookup("q1") is not None  # touch entry 1
    cache2.insert("q3", (a.items[0],))
    assert set(cache2.keys()) == {"q1", "q3"}  # entry 2 evicted, per hand simulation
    ok("criterion 4", "byte-identical bundles, trace==calls, 24 calls saved, LRU exact")


ROUGE_CASES = [
    # (candidate, reference, clipped overlap) -> frozen f1 computed by hand
    (("a", "b", "c"), ("a", "b", "d"), 2),
    (("a",), ("a",), 1),
    (("a", "a", "b"), ("a", "b", "b"), 2),
    (("x", "y"), ("p", "q"), 0),
    (("a", "a", "a"), ("a",), 1),
    (("a",), ("a", "a", "a"), 1),
    (("手", "持", "戈"), ("手", "执", "戈"), 2),
    (("m", "n", "o", "p"), ("m", "n", "o", "p"), 4),
    (("m", "n", "o", "p"), ("p", "o", "n", "m"), 4),
    (("a", "b"), ("b",), 1),
    (("u", "u", "v", "w"), ("u", "v"), 2),
    (("k",), ("k", "l"), 1),
    (("k", "l", "l"), ("l", "l", "l"), 2),
    (("one", "two", "three"), ("two", "three", "four"), 2),
    (("z", "z", "z", "z"), ("z", "z"), 2),
    (("q", "r", "s"), ("s",), 1),
    (("日", "月"), ("月", "日"), 2),
    (("a", "b", "c", "d", "e"), ("a", "c", "e", "g"), 3),
    (("g", "g"), ("g", "g"), 2),
    (("t", "u", "v"), ("t", "u", "v", "w", "x", "y"), 3),
]


def test_criterion_5_metric_oracles():
    provider = StubEmbeddingProvider(dim=48)

    for cand, ref, overlap in ROUGE_CASES:
        p, r = overlap / len(cand), overlap / len(ref)
        want = 0.0 if p + r == 0 else 2 * p * r / (p + r)
        assert rouge1_f1(TokenSequence(cand), TokenSequence(ref)) == want

    rng = random.Random(35)
    worst_f1 = 0.0
    for trial in range(100):
        cand = tuple(f"c{trial}_{i}" for i in range(rng.randint(1, 6)))
        ref = tuple(f"r{trial}_{i}" for i in range(rng.randint(1, 6)))

        def cos(a, b):
            num = sum(x * y for x, y in zip(a, b))
            return num / (math.sqrt(sum(x * x for x in a)) * math.sqrt(sum(y * y for y in b)))

        A = [embed_text(provider, t).values.tolist() for t in cand]
        B = [embed_text(provider, t).values.tolist() for t in ref]
        p = sum(max(cos(a, b) for b in B) for a in A) / len(A)
        r = sum(max(cos(a, b) for a in A) for b in B) / len(B)
        want = 0.0 if p + r == 0 else 2 * p * r / (p + r)
        worst_f1 = max(worst_f1, abs(embedding_f1(TokenSequence(cand), TokenSequence(ref), provider) - want))
    assert worst_f1 <= 1e-12

    worst_mover = 0.0
    for trial in range(25):
        n = 6
        cand = tuple(f"tok{trial}_{i}" for i in range(n))
        ref = tuple(f"ref{trial}_{i}" for i in range(n))
        A = np.stack([embed_text(provider, t).values for t in cand])
        B = np.stack([embed_text(provider, t).values for t in ref])
        A = A / np.linalg.norm(A, axis=1, keepdims=True)
        B = B / np.linalg.norm(B, axis=1, keepdims=True)
        C = np.linalg.norm(A[:, None, :] - B[None, :, :], axis=2)
        rows, cols = linear_sum_assignment(C)
        want = 1.0 - C[rows, cols].sum() / n
        worst_mover = max(
            worst_mover, abs(mover_score(TokenSequence(cand), TokenSequence(ref), provider) - want)
        )
    assert worst_mover <= 1e-9

    for text, lang in (("从手从木会意", "zh"), ("a hand under the roof", "en")):
        s = tokenize(text, lang)
        assert rouge1_f1(s, s) == 1.0
        assert embedding_f1(s, s, provider) == pytest.approx(1.0, abs=1e-12)
        assert mover_score(s, s, provider) == 1.0
    ok(
        "criterion 5",
        f"20 rouge cases exact, emb-f1 err {worst_f1:.1e}, mover err {worst_mover:.1e}",
    )


def test_criterion_6_agreement_statistics():
    rng = random.Random(36)
    worst = 0.0
    for _ in range(10):
        n, k = rng.randint(4, 12), rng.randint(2, 6)
        rows = [[rng.randint(1, 5) for _ in range(k)] for _ in range(n)]
        worst = max(worst, abs(icc3(RatingMatrix.from_rows(rows)) - icc3_oracle(rows)))
    assert worst <= 1e-9

    perfect = [[3, 3, 3], [1, 1, 1], [5, 5, 5]]
    assert krippendorff_alpha(RatingMatrix.from_rows(perfect), "ordinal") == 1.0

    worked = [
        [1, 1, None, 1], [2, 2, 3, 2], [3, 3, 3, 3], [3, 3, 3, 3],
        [2, 2, 2, 2], [1, 2, 3, 4], [4, 4, 4, 4], [1, 1, 2, 1],
        [2, 2, 2, 2], [None, 5, 5, 5], [None, None, 1, 1], [None, 3, 3, None],
    ]
    for level in ("ordinal", "interval"):
        got = krippendorff_alpha(RatingMatrix.from_rows(worked), level)
        assert abs(got - alpha_oracle(worked, level)) <= 1e-6

    null_rows = [[rng.randint(1, 5) for _ in range(3)] for _ in range(500)]
    for level in ("ordinal", "interval"):
        assert abs(krippendorff_alpha(RatingMatrix.from_rows(null_rows), level)) < 0.15
    ok("criterion 6", f"ICC3 worst err {worst:.1e}, alpha oracle + null hold")


def test_criterion_7_judge_conformance():
    system = load_template("judge_system").body
    user = load_template("judge_user").body
    assert "You are a rigorous semantic assessment expert" in system
    assert "Score: [a number between 0.00 and 1.00]" in user

    assert parse_model_response("Score: 0.00", "judge_score")["score"] == 0.0
    assert parse_model_response("Score: 1.00", "judge_score")["score"] == 1.0
    assert parse_model_response("Score: 0.666", "judge_score")["score"] == 0.67
    for bad in ("Score: 1.01", "Score: -0.01", "Score: 12"):
        with pytest.raises(UnparseableResponseError):
            parse_model_response(bad, "judge_score")

    with serving() as judge:
        judge.reply({"content": "Score: 0.92"})
        hosted = HttpChatBackend(judge.url)
        assert llm_judge(hosted, "candidate text", "reference text") == 0.92
    ((_, _, sent),) = judge.posts
    assert sent["temperature"] == 0.0
    ok("criterion 7", "rubric verbatim, rounding + range checks, temperature 0")


def test_criterion_8_end_to_end_offline_run(tmp_path, monkeypatch):
    def no_network(*args, **kwargs):
        raise AssertionError("network access attempted during --mock run")

    # every client connects through one of these, whatever library it uses
    monkeypatch.setattr(socket.socket, "connect", no_network)
    monkeypatch.setattr(socket, "create_connection", no_network)
    for var in ("OBS_EMBED_URL", "OBS_CHAT_URL"):
        monkeypatch.delenv(var, raising=False)

    corpus, manifest, explanations = make_run_fixture(tmp_path, n_characters=10, seed=8)
    model, graph = train_and_build_kg(manifest, explanations)
    runner = CliRunner()
    started = time.monotonic()
    hashes = []
    for name in ("first", "second"):
        out_dir = tmp_path / name
        result = runner.invoke(
            main,
            ["run", "--manifest", str(manifest), "--out-dir", str(out_dir),
             "--model", str(model), "--graph", str(graph), "--mock",
             "--image-root", str(tmp_path)],
            catch_exceptions=False,
        )
        assert result.exit_code == 0
        doc = json.loads((out_dir / "run_manifest.json").read_text(encoding="utf-8"))
        assert doc["result_count"] == 10
        assert doc["failure_count"] == 0
        hashes.append(doc["manifest_hash"])

        result_files = sorted(p for p in out_dir.glob("char*.json"))
        assert len(result_files) == 10
        evidence_lines = (out_dir / "evidence.ldjson").read_text(encoding="utf-8").splitlines()
        for path, line in zip(result_files, evidence_lines, strict=True):
            item = json.loads(path.read_text(encoding="utf-8"))
            # all four stages left their marks: predictions fed retrieval (b),
            # type inference (c) and generation (d) populated the result
            assert item["inscription_type"] in (
                "ideographic", "pictographic", "phono-semantic",
            )
            assert item["interpretation"]
            assert item["token_usage"]["prompt"] > 0
            assert item["token_usage"]["completion"] > 0
            evidence = json.loads(line)
            assert evidence["character_ref"] == path.stem
            assert evidence["predicted_components"], "stage (a) output missing"
            assert isinstance(evidence["trace"], list)

    elapsed = time.monotonic() - started
    assert hashes[0] == hashes[1]
    assert elapsed < 30.0
    ok("criterion 8", f"10/10 results, identical manifest hash, {elapsed:.1f}s, no network")


@pytest.mark.skipif(
    not (os.environ.get("OBS_EMBED_URL") and os.environ.get("OBRADIX_MANIFEST")),
    reason="conditional: needs OB-Radix manifest and a hosted encoder "
    "(set OBRADIX_MANIFEST and OBS_EMBED_URL)",
)
def test_criterion_9_conditional_paper_scale_topk():
    from obsdecipher.embedding import provider_from_env

    provider = provider_from_env()
    corpus = read_manifest(os.environ["OBRADIX_MANIFEST"])
    train, test = split_corpus(corpus, 0.7, seed=0, unit="by_component_class")

    def pairs(sub):
        out = []
        for comp in sub.components:
            data = Path(comp.image_ref).read_bytes()
            out.append((comp.label, provider.embed_image(data)))
        return out

    model = build_prototypes(pairs(train), provider_name=provider.name)
    accs = evaluate_topk(model, pairs(test), [1, 3, 5])
    targets = {1: 0.7795, 3: 0.8855, 5: 0.9157}
    for k, target in targets.items():
        assert abs(accs[k] - target) <= 0.05
    ok("criterion 9", f"ACC@1/3/5 = {accs[1]:.4f}/{accs[3]:.4f}/{accs[5]:.4f}")


def test_criterion_10_split_integrity():
    corpus = build_fixture_corpus(n_characters=40, n_labels=10, seed=37)
    for seed in (0, 1, 7, 42, 1337):
        train, test = split_corpus(corpus, 0.7, seed=seed, unit="by_character")
        train_ids = {c.character_id for c in train.characters}
        test_ids = {c.character_id for c in test.characters}
        assert not train_ids & test_ids
        assert train_ids | test_ids == {c.character_id for c in corpus.characters}

        graph = build_graph(train, fixture_explanations(train), source_split=f"seed={seed}")
        graph_char_ids = {
            n.label for n in graph.nodes.values() if n.node_id.startswith("character:")
        }
        assert graph_char_ids == train_ids
        assert not graph_char_ids & test_ids, "a held-out character leaked into the graph"
    ok("criterion 10", "disjoint covering splits; graph holds train characters only")
