import random

import pytest

from obsdecipher.classifier import RankedPrediction
from obsdecipher.dataset import CharacterRecord, ComponentRecord, Corpus
from obsdecipher.embedding import StubEmbeddingProvider, embed_text
from obsdecipher import retrieval
from obsdecipher.errors import ConfigError
from obsdecipher.kg import build_graph
from obsdecipher.retrieval import (
    EvidenceBundle,
    EvidenceItem,
    EvidenceKind,
    SemanticCache,
    ToolName,
    retrieve_evidence,
    synthesize_bundle,
)

from conftest import TRIANGLE, canonical_json, cosine_similarity, fixture_explanations


def mini_graph():
    chars = (
        CharacterRecord("charA", "a.png", ("hand", "roof"), interpretation="手在屋下"),
        CharacterRecord("charB", "b.png", ("hand",), interpretation="只有手"),
    )
    comps = (
        ComponentRecord("charA:0", "hand", "charA", TRIANGLE, "x"),
        ComponentRecord("charA:1", "roof", "charA", TRIANGLE, "x"),
        ComponentRecord("charB:0", "hand", "charB", TRIANGLE, "x"),
    )
    corpus = Corpus(chars, comps, frozenset({"hand", "roof"}))
    return build_graph(corpus, {"hand": "象手之形", "roof": "象屋顶之形"})


class CountingGraph:
    """Delegating proxy that counts external tool invocations."""

    def __init__(self, inner):
        self._inner = inner
        self.external_calls = 0

    def component_explanation(self, label):
        self.external_calls += 1
        return self._inner.component_explanation(label)

    def characters_by_component(self, label):
        self.external_calls += 1
        return self._inner.characters_by_component(label)

    def __getattr__(self, name):
        return getattr(self._inner, name)


def fresh_cache(threshold=0.95, capacity=1024):
    return SemanticCache(StubEmbeddingProvider(dim=64), threshold=threshold, capacity=capacity)


def item(kind, subject, content="text", co=()):
    return EvidenceItem(kind=kind, subject=subject, content=content, co_components=tuple(co))


class TestCascade:
    def test_hand_walked_fixture(self):
        graph = CountingGraph(mini_graph())
        predicted = RankedPrediction((("hand", 0.1),))
        bundle = retrieve_evidence(graph, predicted, fresh_cache(), character_ref="q1")
        assert len(bundle.items) == 3  # explanation + 2 containing characters
        assert bundle.sufficient is True
        assert len(bundle.trace) == 2
        assert graph.external_calls == 2
        kinds = [i.kind for i in bundle.items]
        assert kinds[0] is EvidenceKind.COMPONENT_EXPLANATION

    def test_absent_component_triggers_stage2(self):
        graph = mini_graph()
        predicted = RankedPrediction((("ghost", 0.2),))
        bundle = retrieve_evidence(graph, predicted, fresh_cache())
        assert bundle.items == ()
        assert bundle.sufficient is False
        assert len(bundle.trace) == 2  # the calls were made, they found nothing

    def test_stage2_supplements_with_internal_lookups(self, monkeypatch):
        # four items in all: still short of five, so the bundle stays insufficient
        monkeypatch.setattr(retrieval, "MIN_EVIDENCE", 5)
        chars = (
            CharacterRecord("c0", "x", ("hand",), interpretation="甲", variant_group="g",
                            modern_form="休"),
            CharacterRecord("c1", "x", ("roof",), interpretation="乙", variant_group="g"),
        )
        comps = (
            ComponentRecord("c0:0", "hand", "c0", TRIANGLE, "x"),
            ComponentRecord("c1:0", "roof", "c1", TRIANGLE, "x"),
        )
        graph = build_graph(Corpus(chars, comps, frozenset({"hand", "roof"})))
        predicted = RankedPrediction((("hand", 0.3),))
        bundle = retrieve_evidence(graph, predicted, fresh_cache())
        assert bundle.sufficient is False
        kinds = {i.kind for i in bundle.items}
        assert EvidenceKind.VARIANT in kinds
        assert EvidenceKind.MODERN_MAPPING in kinds
        # internal lookups never appear in the trace
        assert bundle.trace == (
            (ToolName.COMPONENT_EXPLANATION, "hand"),
            (ToolName.CHARACTERS_BY_COMPONENT, "hand"),
        )

    def test_repeat_character_served_from_cache(self):
        graph = CountingGraph(mini_graph())
        predicted = RankedPrediction((("hand", 0.1),))
        cache = fresh_cache()
        first = retrieve_evidence(graph, predicted, cache)
        second = retrieve_evidence(graph, predicted, cache)
        assert graph.external_calls == 2  # not 4
        # the trace is the executed plan, whoever answered it: the bundles
        # do not show whether the cache or the graph served them
        assert second.trace == first.trace
        assert canonical_json(second) == canonical_json(first)

    def test_trace_length_equals_instrumented_calls(self, small_corpus):
        # with the cache off every planned call reaches the graph
        graph = CountingGraph(build_graph(small_corpus, fixture_explanations(small_corpus)))
        cache = fresh_cache(capacity=0)
        total_trace = 0
        for i in range(8):
            labels = sorted(small_corpus.vocabulary)[i % 4 : i % 4 + 3]
            predicted = RankedPrediction(tuple((l, 0.1 * (j + 1)) for j, l in enumerate(labels)))
            bundle = retrieve_evidence(graph, predicted, cache)
            total_trace += len(bundle.trace)
        assert total_trace == graph.external_calls

    def test_deterministic_bundles_with_empty_cache(self, small_corpus):
        graph = build_graph(small_corpus, fixture_explanations(small_corpus))
        labels = sorted(small_corpus.vocabulary)[:3]
        predicted = RankedPrediction(tuple((l, 0.2 * (j + 1)) for j, l in enumerate(labels)))
        a = retrieve_evidence(graph, predicted, fresh_cache(), character_ref="c")
        b = retrieve_evidence(graph, predicted, fresh_cache(), character_ref="c")
        assert canonical_json(a) == canonical_json(b)

    def test_items_bounded_by_max_items(self, small_corpus, monkeypatch):
        monkeypatch.setattr(retrieval, "MAX_ITEMS", 4)
        graph = build_graph(small_corpus, fixture_explanations(small_corpus))
        labels = sorted(small_corpus.vocabulary)[:3]
        predicted = RankedPrediction(tuple((l, 0.1) for l in labels))
        bundle = retrieve_evidence(graph, predicted, fresh_cache())
        assert len(bundle.items) <= 4
        assert [i.rank for i in bundle.items] == list(range(len(bundle.items)))


class TestSemanticCache:
    def test_exact_repeat_hits(self):
        cache = fresh_cache()
        stored = (item(EvidenceKind.COMPONENT_EXPLANATION, "hand", "象手之形"),)
        cache.insert("component_explanation:hand", stored)
        assert cache.lookup("component_explanation:hand") == stored

    def test_empty_cache_misses(self):
        assert fresh_cache().lookup("anything") is None

    def test_paraphrase_below_threshold_misses(self):
        provider = StubEmbeddingProvider(dim=64)
        cache = SemanticCache(provider, threshold=0.95)
        a, b = "component_explanation:hand", "component_explanation:hands"
        # derived: stub embeddings of distinct strings sit far below 0.95
        sim = cosine_similarity(embed_text(provider, a), embed_text(provider, b))
        assert sim < 0.95
        cache.insert(a, (item(EvidenceKind.COMPONENT_EXPLANATION, "hand"),))
        assert cache.lookup(b) is None

    def test_hits_are_sound(self):
        provider = StubEmbeddingProvider(dim=64)
        cache = SemanticCache(provider, threshold=0.95)
        queries = [f"characters_by_component:label{i}" for i in range(6)]
        for q in queries:
            cache.insert(q, (item(EvidenceKind.CONTAINING_CHARACTER, q),))
        for q in queries:
            hit = cache.lookup(q)
            assert hit is not None
            # soundness: some stored key clears the threshold for this query
            best = max(
                cosine_similarity(embed_text(provider, q), embed_text(provider, key))
                for key in cache.keys()
            )
            assert best >= cache.threshold

    def test_lru_eviction_matches_hand_simulation(self):
        cache = fresh_cache(capacity=2)
        e = [f"query-{i}" for i in (1, 2, 3)]
        cache.insert(e[0], (item(EvidenceKind.COMPONENT_EXPLANATION, "s1"),))
        cache.insert(e[1], (item(EvidenceKind.COMPONENT_EXPLANATION, "s2"),))
        assert cache.lookup(e[0]) is not None  # touch entry 1
        cache.insert(e[2], (item(EvidenceKind.COMPONENT_EXPLANATION, "s3"),))
        assert set(cache.keys()) == {e[0], e[2]}  # entry 2 evicted
        assert cache.lookup(e[1]) is None
        assert cache.lookup(e[0]) is not None
        assert cache.lookup(e[2]) is not None

    def test_capacity_zero_is_noop(self):
        cache = fresh_cache(capacity=0)
        cache.insert("q", (item(EvidenceKind.COMPONENT_EXPLANATION, "s"),))
        assert len(cache) == 0
        assert cache.lookup("q") is None

    def test_bad_threshold_rejected(self):
        with pytest.raises(ConfigError):
            fresh_cache(threshold=0.0)
        with pytest.raises(ConfigError):
            fresh_cache(threshold=1.5)


class TestSynthesize:
    def test_duplicate_with_the_smallest_content_is_kept(self):
        predicted = RankedPrediction((("hand", 0.1),))
        stage1 = [
            item(EvidenceKind.COMPONENT_EXPLANATION, "hand", "象手之形乙"),
            item(EvidenceKind.COMPONENT_EXPLANATION, "hand", "象手之形"),
        ]
        out = synthesize_bundle(stage1, [], predicted)
        assert [i.content for i in out] == ["象手之形"]

    def test_overlap_ordering(self):
        predicted = RankedPrediction((("hand", 0.1), ("roof", 0.2)))
        stage1 = [
            item(EvidenceKind.CONTAINING_CHARACTER, "cLow", co=("hand",)),
            item(EvidenceKind.CONTAINING_CHARACTER, "aHigh", co=("hand", "roof")),
        ]
        out = synthesize_bundle(stage1, [], predicted)
        assert [i.subject for i in out] == ["aHigh", "cLow"]

    def test_order_invariant_under_permutation(self):
        predicted = RankedPrediction((("hand", 0.1), ("roof", 0.2), ("sun", 0.3)))
        pool = [
            item(EvidenceKind.COMPONENT_EXPLANATION, "roof", "r"),
            item(EvidenceKind.COMPONENT_EXPLANATION, "hand", "h"),
            item(EvidenceKind.CONTAINING_CHARACTER, "c1", "x", co=("hand",)),
            item(EvidenceKind.CONTAINING_CHARACTER, "c2", "y", co=("hand", "roof")),
            item(EvidenceKind.VARIANT, "v1", "z"),
            item(EvidenceKind.MODERN_MAPPING, "c1", "今"),
        ]
        reference = synthesize_bundle(pool, [], predicted)
        rng = random.Random(17)
        for _ in range(100):
            shuffled = pool[:]
            rng.shuffle(shuffled)
            cut = rng.randint(0, len(shuffled))
            assert (
                synthesize_bundle(shuffled[:cut], shuffled[cut:], predicted)
                == reference
            )

    def test_duplicate_kept_does_not_depend_on_arrival_order(self):
        # one character reached through two components: equal content,
        # different co-components
        predicted = RankedPrediction((("hand", 0.1), ("roof", 0.2)))
        via_hand = item(EvidenceKind.CONTAINING_CHARACTER, "charA", "手在屋下", co=("roof",))
        via_roof = item(EvidenceKind.CONTAINING_CHARACTER, "charA", "手在屋下", co=("hand",))
        explanation = item(EvidenceKind.COMPONENT_EXPLANATION, "hand", "象手之形")
        bundles = [
            canonical_json(
                EvidenceBundle(
                    character_ref="q",
                    predicted_components=predicted.entries,
                    items=synthesize_bundle(stage1, [], predicted),
                    trace=(),
                    sufficient=True,
                )
            )
            for stage1 in ([explanation, via_hand, via_roof], [via_roof, explanation, via_hand])
        ]
        assert bundles[0] == bundles[1]
        assert '"co_components": ["hand"]' in bundles[0]

    def test_explanations_follow_predicted_order(self):
        predicted = RankedPrediction((("roof", 0.1), ("hand", 0.2)))
        stage1 = [
            item(EvidenceKind.COMPONENT_EXPLANATION, "hand", "h"),
            item(EvidenceKind.COMPONENT_EXPLANATION, "roof", "r"),
        ]
        out = synthesize_bundle(stage1, [], predicted)
        assert [i.subject for i in out] == ["roof", "hand"]

    def test_ranks_are_dense(self):
        predicted = RankedPrediction((("hand", 0.1),))
        stage1 = [
            item(EvidenceKind.COMPONENT_EXPLANATION, "hand", "h"),
            item(EvidenceKind.CONTAINING_CHARACTER, "c1", "x"),
        ]
        out = synthesize_bundle(stage1, [], predicted)
        assert [i.rank for i in out] == [0, 1]
