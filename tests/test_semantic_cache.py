"""The semantic cache against a linear-scan reference, and its embed counts."""

import sys
import threading
from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from obsdecipher.embedding import (
    EmbeddingProvider,
    EmbeddingVector,
    StubEmbeddingProvider,
    embed_text,
)
from obsdecipher.errors import ZeroNormError
from obsdecipher.retrieval import (
    EvidenceItem,
    EvidenceKind,
    SemanticCache,
    ToolName,
    execute_tool_calls,
)

from conftest import cosine_similarity
from test_retrieval import mini_graph


class LinearScanCache:
    """The cache without the key matrix: a stored key is served its own
    result; any other lookup embeds the query and scans the entries with
    ``cosine_similarity``, keeping the first (least recently used) of equal
    best similarities."""

    def __init__(self, provider, threshold=0.95, capacity=1024):
        self.provider = provider
        self.threshold = threshold
        self.capacity = capacity
        self._entries = OrderedDict()

    def lookup(self, query_text):
        if self.capacity == 0:
            return None
        if query_text in self._entries:
            self._entries.move_to_end(query_text)
            return self._entries[query_text][1]
        query_vec = embed_text(self.provider, query_text)
        best_key = None
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

    def insert(self, query_text, result):
        if self.capacity == 0:
            return
        vec = embed_text(self.provider, query_text)
        if query_text in self._entries:
            self._entries.move_to_end(query_text)
        self._entries[query_text] = (vec, tuple(result))
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)

    def keys(self):
        return tuple(self._entries)


def _axis(i, value=1.0):
    vec = np.zeros(DIM)
    vec[i] = value
    return vec


def _near(cos, residual_axis):
    """A unit vector at cosine ``cos`` to axis 0, leaning into ``residual_axis``."""
    return _axis(0, cos) + _axis(residual_axis, np.sqrt(1.0 - cos * cos))


DIM = 8
VECTORS = {
    "p": _axis(0),
    "p-twin": _axis(0),  # a second text with bitwise the same embedding
    "above": _near(0.951, 1),  # clears 0.95 against p only
    "below": _near(0.949, 2),  # misses p just below 0.95
    "tie-1": _near(0.97, 3),  # tie-1 and tie-2 score exactly alike against p
    "tie-2": _near(0.97, 4),  # and 0.97 ** 2 < 0.95 against each other
    "u": _axis(5),
    "u-near": _axis(5, 0.96) + _axis(7, 0.28),
    "v": _axis(6) + _axis(7),
}


class TableProvider(EmbeddingProvider):
    """Fixed vectors per text."""

    name = "table"
    dim = DIM

    def __init__(self, table):
        self.table = table

    def embed_image(self, image):
        raise NotImplementedError

    def embed_text(self, text):
        return EmbeddingVector(self.table[text])


class CountingProvider(EmbeddingProvider):
    """Delegates to ``inner`` and counts ``embed_text`` calls."""

    def __init__(self, inner):
        self.inner = inner
        self.name = inner.name
        self.dim = inner.dim
        self.text_calls = 0

    def embed_image(self, image):
        return self.inner.embed_image(image)

    def embed_text(self, text):
        self.text_calls += 1
        return self.inner.embed_text(text)


def payload(n):
    return (EvidenceItem(EvidenceKind.COMPONENT_EXPLANATION, f"s{n}", "text"),)


OPERATIONS = st.lists(
    st.tuples(st.sampled_from(["lookup", "insert"]), st.sampled_from(sorted(VECTORS))),
    max_size=40,
)


@settings(max_examples=500, deadline=None)
@given(capacity=st.sampled_from([0, 1, 2, 5]), operations=OPERATIONS)
def test_matches_the_linear_scan_reference(capacity, operations):
    cache = SemanticCache(TableProvider(VECTORS), threshold=0.95, capacity=capacity)
    reference = LinearScanCache(TableProvider(VECTORS), threshold=0.95, capacity=capacity)
    for step, (op, text) in enumerate(operations):
        if op == "lookup":
            assert cache.lookup(text) == reference.lookup(text)
        else:
            cache.insert(text, payload(step))
            reference.insert(text, payload(step))
        assert cache.keys() == reference.keys()
        assert len(cache) == len(reference.keys())


def test_exact_tie_goes_to_the_least_recently_used_entry():
    cache = SemanticCache(TableProvider(VECTORS), threshold=0.95, capacity=5)
    cache.insert("tie-2", payload(2))
    cache.insert("tie-1", payload(1))
    assert cache.lookup("p") == payload(2)
    assert cache.keys() == ("tie-1", "tie-2")
    assert cache.lookup("p") == payload(1)


def test_a_key_with_a_twin_is_served_its_own_result():
    # both embed to the same vector; each stored key still gets its own payload
    cache = SemanticCache(TableProvider(VECTORS), threshold=0.95, capacity=5)
    cache.insert("p", payload(0))
    cache.insert("p-twin", payload(1))
    assert cache.lookup("p-twin") == payload(1)
    assert cache.keys() == ("p", "p-twin")
    assert cache.lookup("p") == payload(0)
    assert cache.keys() == ("p-twin", "p")


def test_same_direction_scores_alike_whatever_the_norm():
    # Keys are stored as unit rows, so p and 3 * p tie exactly and the least
    # recently used wins; the per-pair formula of the reference rounds
    # 0.97 / |q| and 2.91 / (3 |q|) apart and may favour either.
    table = {"p": _axis(0), "p-scaled": _axis(0, 3.0), "tie-1": VECTORS["tie-1"]}
    for first, second in (("p", "p-scaled"), ("p-scaled", "p")):
        cache = SemanticCache(TableProvider(table), threshold=0.95, capacity=5)
        cache.insert(first, payload(1))
        cache.insert(second, payload(2))
        assert cache.lookup("tie-1") == payload(1)
        # the hit made ``first`` most recent; ``second`` is still served its own
        assert cache.lookup(second) == payload(2)
        assert cache.keys() == (first, second)


class TestEmbedCalls:
    def fresh(self):
        provider = CountingProvider(TableProvider(VECTORS))
        return provider, SemanticCache(provider, threshold=0.95, capacity=5)

    def test_exact_repeat_embeds_nothing(self):
        provider, cache = self.fresh()
        cache.insert("p", payload(0))
        provider.text_calls = 0
        assert cache.lookup("p") == payload(0)
        assert provider.text_calls == 0

    def test_miss_then_insert_embeds_once(self):
        provider, cache = self.fresh()
        cache.insert("u", payload(0))
        provider.text_calls = 0
        assert cache.lookup("p") is None
        cache.insert("p", payload(1))
        assert provider.text_calls == 1

    def test_insert_without_a_lookup_embeds(self):
        provider, cache = self.fresh()
        cache.insert("p", payload(0))
        assert provider.text_calls == 1
        assert cache.lookup("u") is None
        cache.insert("v", payload(1))  # the miss was for another text
        assert provider.text_calls == 3

    def test_another_threads_miss_is_not_reused(self):
        provider, cache = self.fresh()
        worker = threading.Thread(target=cache.lookup, args=("p",))
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()
        cache.insert("p", payload(0))
        assert provider.text_calls == 2

    def test_cascade_embeds_each_new_key_once(self):
        provider = CountingProvider(StubEmbeddingProvider(dim=64))
        cache = SemanticCache(provider, threshold=0.95)
        calls = [(ToolName.COMPONENT_EXPLANATION, "hand"), (ToolName.CHARACTERS_BY_COMPONENT, "hand")]
        execute_tool_calls(mini_graph(), calls, cache)
        assert provider.text_calls == 2
        provider.text_calls = 0
        execute_tool_calls(mini_graph(), calls, cache)
        assert provider.text_calls == 0


def test_near_duplicate_argument_is_served_the_other_payload():
    # A real encoder may put two look-alike components within the threshold;
    # the cache then answers one with the other's evidence (documented hazard).
    table = {
        "component_explanation:人": _axis(0),
        "component_explanation:入": _near(0.97, 1),
    }
    cache = SemanticCache(TableProvider(table), threshold=0.95)
    person = (EvidenceItem(EvidenceKind.COMPONENT_EXPLANATION, "人", "象人側立之形"),)
    cache.insert("component_explanation:人", person)
    vec_a = EmbeddingVector(table["component_explanation:人"])
    vec_b = EmbeddingVector(table["component_explanation:入"])
    assert cosine_similarity(vec_a, vec_b) >= cache.threshold
    assert cache.lookup("component_explanation:入") == person


class TestZeroNorm:
    TABLE = {"zero": np.zeros(DIM), "p": _axis(0)}

    def test_zero_query_against_a_key_raises(self):
        cache = SemanticCache(TableProvider(self.TABLE), threshold=0.95)
        cache.insert("p", payload(0))
        with pytest.raises(ZeroNormError):
            cache.lookup("zero")

    def test_zero_query_on_an_empty_cache_misses(self):
        cache = SemanticCache(TableProvider(self.TABLE), threshold=0.95)
        assert cache.lookup("zero") is None

    def test_zero_key_is_refused(self):
        cache = SemanticCache(TableProvider(self.TABLE), threshold=0.95)
        with pytest.raises(ZeroNormError):
            cache.insert("zero", payload(0))
        assert cache.keys() == ()
        cache.insert("p", payload(1))
        assert cache.lookup("p") == payload(1)


def test_exact_repeats_hit_at_threshold_one():
    # keys whose unit row dots with itself to just below 1.0: a mat-vec alone
    # would miss them at threshold 1.0, where the reference scan hits
    provider = StubEmbeddingProvider(dim=64)
    keys = []
    for i in range(2000):
        vec = embed_text(provider, f"component_explanation:label{i}").values
        unit = vec / np.linalg.norm(vec)
        if unit @ unit < 1.0:
            keys.append(f"component_explanation:label{i}")
    assert keys
    cache = SemanticCache(provider, threshold=1.0, capacity=len(keys))
    reference = LinearScanCache(provider, threshold=1.0, capacity=len(keys))
    for i, key in enumerate(keys):
        cache.insert(key, payload(i))
        reference.insert(key, payload(i))
    assert [cache.lookup(key) for key in keys] == [reference.lookup(key) for key in keys]
    assert [cache.lookup(key) for key in keys] == [payload(i) for i in range(len(keys))]


@pytest.mark.parametrize("capacity", [40, 3000])
def test_matrix_grows_to_capacity_and_reuses_evicted_rows(capacity):
    cache = SemanticCache(StubEmbeddingProvider(dim=8), capacity=capacity)
    keys = [f"key{i}" for i in range(capacity + 60)]
    for i, key in enumerate(keys):
        cache.insert(key, payload(i))
        if i < 1024:
            assert len(cache._matrix) == min(capacity, 1024)
    assert cache._matrix.shape == (capacity, 8)
    assert sorted(row for row, _ in cache._entries.values()) == list(range(capacity))
    assert cache.keys() == tuple(keys[60:])
    assert [cache.lookup(key) for key in keys[60:]] == [payload(i) for i in range(60, len(keys))]


def test_threads_sharing_a_cache_keep_every_key_on_its_own_row():
    provider = StubEmbeddingProvider(dim=32)
    cache = SemanticCache(provider, threshold=0.95, capacity=8)
    keys = [f"key{i}" for i in range(24)]

    def work(offset):
        for round_ in range(30):
            key = keys[(offset + 7 * round_) % len(keys)]
            if cache.lookup(key) is None:
                cache.insert(key, (key,))

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(n,)) for n in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(previous)
    stored = cache.keys()
    assert len(stored) == len(set(stored)) == len(cache) == 8
    for key in stored:
        assert cache.lookup(key) == (key,)
        row = cache._entries[key][0]
        assert cache._keys[row] == key
        expected = embed_text(provider, key).values
        assert np.allclose(cache._matrix[row], expected / np.linalg.norm(expected))
