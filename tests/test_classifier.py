import math
import random
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from obsdecipher import classifier
from obsdecipher.classifier import (
    ClassifierModel,
    build_prototypes,
    classify_topk,
    evaluate_topk,
    load_model,
    save_model,
)
from obsdecipher.embedding import EmbeddingVector, StubEmbeddingProvider, embed_text
from obsdecipher.errors import (
    CorruptFileError,
    DimensionMismatchError,
    EmptyInputError,
    ProviderMismatchError,
)

from conftest import full_scan_entries


def vec(*values):
    return EmbeddingVector(np.array(values, dtype=np.float64))


def bits(entries):
    """Entries with each distance spelled out bit for bit."""
    return [(label, dist.hex()) for label, dist in entries]


def nudged(value, steps):
    """``value`` moved by ``steps`` units in the last place."""
    for _ in range(abs(steps)):
        value = np.nextafter(value, np.inf if steps > 0 else -np.inf)
    return value


@st.composite
def screened_cases(draw):
    """A model and queries built to sit on the screen's margin: exact ties
    from grid points and midpoints, duplicated rows, rows and queries a few
    ulps apart (near-ties at every position, the k-th included), scales from
    1e-3 to 1e3, and query counts on both sides of a block boundary. Query
    labels include two with no prototype: one between two labels and one
    past every label."""
    n = draw(st.integers(1, 12))
    dim = draw(st.integers(1, 6))
    scale = 10.0 ** draw(st.floats(-3, 3))
    coordinate = st.one_of(st.integers(-3, 3).map(float), st.floats(-3, 3))
    rows = draw(st.lists(st.lists(coordinate, min_size=dim, max_size=dim), min_size=n, max_size=n))
    matrix = np.array(rows) * scale
    for i in range(1, n):
        if draw(st.booleans()):
            matrix[i] = matrix[draw(st.integers(0, i - 1))]
    for i in range(n):
        steps = draw(st.integers(-3, 3))
        if steps:
            c = draw(st.integers(0, dim - 1))
            matrix[i, c] = nudged(matrix[i, c], steps)
    model = ClassifierModel([f"c{i:02d}" for i in range(n)], matrix, [1] * n)
    block = classifier._BLOCK_ROWS
    n_queries = draw(st.sampled_from([1, 2, 5, block - 1, block, block + 1]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    query_labels = model.labels + ("c00x", "c99")
    queries = []
    for _ in range(n_queries):
        a, b = matrix[rng.integers(n)], matrix[rng.integers(n)]
        shape = rng.integers(5)
        if shape == 0:
            q = rng.integers(-3, 4, dim) * scale
        elif shape == 1:
            q = a.copy()
        elif shape == 2:
            q = (a + b) / 2
        elif shape == 3:
            q = a.copy()
            c = rng.integers(dim)
            q[c] = nudged(q[c], int(rng.integers(-3, 4)))
        else:
            q = rng.standard_normal(dim) * scale
        queries.append((query_labels[rng.integers(n + 2)], EmbeddingVector(q)))
    k = draw(st.integers(1, n + 2))
    return model, queries, k


def random_training_set(n_classes, n_shot, dim, seed=0, provider=None):
    provider = provider or StubEmbeddingProvider(dim=dim)
    pairs = []
    for c in range(n_classes):
        for s in range(n_shot):
            pairs.append((f"class{c:03d}", embed_text(provider, f"sample-{c}-{s}-{seed}")))
    return pairs


class TestBuildPrototypes:
    def test_singleton_mean_is_the_sample(self):
        v = vec(3.0, -1.0, 2.0)
        model = build_prototypes([("a", v)])
        assert np.array_equal(model.matrix[0], v.values)
        assert model.support_counts == (1,)

    def test_two_sample_mean(self):
        model = build_prototypes([("a", vec(0.0, 0.0)), ("a", vec(2.0, 2.0))])
        assert model.matrix[0].tolist() == [1.0, 1.0]

    def test_matches_naive_mean_oracle(self):
        pairs = random_training_set(50, 10, dim=32, seed=1)
        model = build_prototypes(pairs)
        by_label = {}
        for label, v in pairs:
            by_label.setdefault(label, []).append(v.values.tolist())
        for label, vectors in by_label.items():
            naive = [sum(col) / len(vectors) for col in zip(*vectors)]
            got = model.matrix[model.labels.index(label)]
            for g, n in zip(got.tolist(), naive):
                assert abs(g - n) <= 1e-12 * max(1.0, abs(n))

    def test_empty_training_set(self):
        with pytest.raises(EmptyInputError, match="no training samples"):
            build_prototypes([])

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            build_prototypes([("a", vec(1.0, 2.0)), ("b", vec(1.0, 2.0, 3.0))])

    def test_rebuild_is_bit_identical(self):
        pairs = random_training_set(10, 4, dim=16, seed=2)
        a = build_prototypes(pairs)
        b = build_prototypes(pairs)
        assert a.labels == b.labels
        assert a.matrix.tobytes() == b.matrix.tobytes()


class TestClassifyTopK:
    def test_query_at_prototype(self):
        model = build_prototypes([("a", vec(1.0, 0.0)), ("b", vec(0.0, 1.0))])
        pred = classify_topk(model, vec(1.0, 0.0), 1)
        assert pred.entries == (("a", 0.0),)

    def test_k_larger_than_class_count(self):
        model = build_prototypes([("a", vec(1.0, 0.0)), ("b", vec(0.0, 1.0))])
        pred = classify_topk(model, vec(0.0, 0.0), 10)
        assert len(pred.entries) == 2

    def test_tie_breaks_lexicographically(self):
        model = build_prototypes([("zz", vec(1.0, 0.0)), ("aa", vec(-1.0, 0.0))])
        pred = classify_topk(model, vec(0.0, 0.0), 2)
        assert pred.labels() == ("aa", "zz")

    def test_agrees_with_brute_force_scan(self):
        provider = StubEmbeddingProvider(dim=24)
        pairs = random_training_set(30, 5, dim=24, seed=3, provider=provider)
        model = build_prototypes(pairs)
        protos = dict(zip(model.labels, model.matrix.tolist()))
        rng = random.Random(4)
        for i in range(200):
            q = embed_text(provider, f"query-{i}-{rng.random()}")
            # independent oracle: naive python distances, full sort
            scored = sorted(
                (
                    (math.sqrt(sum((a - b) ** 2 for a, b in zip(mean, q.values.tolist()))), label)
                    for label, mean in protos.items()
                ),
            )
            oracle_labels = tuple(label for _, label in scored)
            assert classify_topk(model, q, len(protos)).labels() == oracle_labels

    @settings(max_examples=150, deadline=None)
    @given(case=screened_cases())
    def test_screen_and_rescore_match_the_full_scan_bitwise(self, case):
        model, test, k = case
        oracle = [full_scan_entries(model, vec, k) for _, vec in test]
        for (_, vec), expected in zip(test, oracle):
            assert bits(classify_topk(model, vec, k).entries) == bits(expected)
        # the batched path, in blocks, as evaluate_topk ranks
        ranked = classifier._rank(model, [vec for _, vec in test], k)
        assert [bits(e) for e in ranked] == [bits(e) for e in oracle]
        ks = sorted({1, k, len(model) + 2})
        with_max_k = [full_scan_entries(model, vec, max(ks)) for _, vec in test]
        expected_acc = {
            j: sum(label in [l for l, _ in e[:j]] for (label, _), e in zip(test, with_max_k))
            / len(test)
            for j in ks
        }
        assert evaluate_topk(model, test, ks) == expected_acc
        absent = [(label, vec) for label, vec in test if label not in model.labels]
        if absent:
            assert evaluate_topk(model, absent, ks) == {j: 0.0 for j in ks}

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
    def test_overflowing_distances_match_the_full_scan(self):
        # squared norms overflow to inf, so every row is rescored
        model = build_prototypes([("a", vec(1e200, 0.0)), ("b", vec(0.0, 1e200)), ("c", vec(1.0, 1.0))])
        for q in (vec(0.0, 0.0), vec(-1e200, 0.0), vec(1.0, 1.0)):
            assert bits(classify_topk(model, q, 2).entries) == bits(full_scan_entries(model, q, 2))
        # finite screens, but both rescored distances overflow to inf, so the
        # tie goes to "a" at every k
        model = ClassifierModel(["a", "b"], np.array([[-1.3e154], [-0.75e154]]), [1, 1])
        q = vec(0.68e154)
        for k in (1, 2):
            assert bits(classify_topk(model, q, k).entries) == bits(full_scan_entries(model, q, k))
        assert evaluate_topk(model, [("b", q)], [1]) == {1: 0.0}
        # equal rows whose screens are both -inf: the gap between them is NaN
        model = ClassifierModel(["a", "b"], np.array([[-1e154], [-1e154]]), [1, 1])
        assert evaluate_topk(model, [("b", vec(-1e154))], [1]) == {1: 0.0}

    def test_k_below_one(self):
        model = build_prototypes([("a", vec(1.0, 0.0))])
        with pytest.raises(ValueError, match="k must be >= 1"):
            classify_topk(model, vec(1.0, 0.0), 0)

    def test_translation_equivariance(self):
        provider = StubEmbeddingProvider(dim=12)
        pairs = random_training_set(8, 3, dim=12, seed=5, provider=provider)
        query = embed_text(provider, "the-query")
        shift = embed_text(provider, "the-shift").values * 7.5
        base = classify_topk(build_prototypes(pairs), query, 8).labels()
        shifted_pairs = [(l, EmbeddingVector(v.values + shift)) for l, v in pairs]
        shifted = classify_topk(
            build_prototypes(shifted_pairs), EmbeddingVector(query.values + shift), 8
        ).labels()
        assert base == shifted

    def test_empty_model(self):
        model = ClassifierModel([], np.empty((0, 4)), [])
        with pytest.raises(EmptyInputError, match="classifier has no prototypes"):
            classify_topk(model, vec(0.0, 0.0, 0.0, 0.0), 1)

    def test_query_dim_mismatch(self):
        model = build_prototypes([("a", vec(1.0, 0.0))])
        with pytest.raises(DimensionMismatchError):
            classify_topk(model, vec(1.0, 0.0, 0.0), 1)


class TestEvaluateTopK:
    def test_prototype_queries_are_perfect(self):
        model = build_prototypes([("a", vec(1.0, 0.0)), ("b", vec(0.0, 1.0))])
        test = [(label, EmbeddingVector(row)) for label, row in zip(model.labels, model.matrix)]
        assert evaluate_topk(model, test, [1]) == {1: 1.0}

    def test_one_mislabeled_in_ten(self):
        # 5 well-separated classes; 10 test items, one deliberately mislabeled
        protos = [(f"c{i}", vec(float(10 * i), 0.0)) for i in range(5)]
        model = build_prototypes(protos)
        test = []
        for i in range(10):
            cls = i % 5
            label = f"c{(cls + 1) % 5}" if i == 9 else f"c{cls}"
            test.append((label, vec(float(10 * cls), 0.0)))
        assert evaluate_topk(model, test, [1])[1] == pytest.approx(0.9)

    def test_monotone_in_k(self):
        provider = StubEmbeddingProvider(dim=16)
        pairs = random_training_set(20, 6, dim=16, seed=7, provider=provider)
        rng = random.Random(8)
        rng.shuffle(pairs)
        model = build_prototypes(pairs[:80])
        accs = evaluate_topk(model, pairs[80:], [1, 3, 5])
        assert accs[1] <= accs[3] <= accs[5]

    def test_every_query_is_checked(self):
        model = build_prototypes([("a", vec(1.0, 0.0))])
        test = [("a", vec(1.0, 0.0))] * (classifier._BLOCK_ROWS + 1) + [("a", vec(1.0,))]
        with pytest.raises(DimensionMismatchError):
            evaluate_topk(model, test, [1])

    @pytest.mark.parametrize("ks", [[], [0, 3], [-2, 1]])
    def test_every_k_must_be_at_least_one(self, ks):
        model = build_prototypes([("a", vec(1.0, 0.0)), ("b", vec(0.0, 1.0))])
        with pytest.raises(ValueError, match="ks must name at least one k, each >= 1"):
            evaluate_topk(model, [("a", vec(1.0, 0.0))], ks)

    def test_empty_test_set(self):
        model = build_prototypes([("a", vec(1.0,))])
        with pytest.raises(EmptyInputError, match="no test samples"):
            evaluate_topk(model, [], [1])

    def test_screens_on_one_blas_thread_and_restores_the_count(self, monkeypatch):
        set_threads = classifier._SET_BLAS_THREADS
        if set_threads is None:
            pytest.skip("numpy is not linked against OpenBLAS")
        inside = []
        screens = classifier._screens

        def recorded(*args):
            inside.append(set_threads(1))
            yield from screens(*args)

        monkeypatch.setattr(classifier, "_screens", recorded)
        before = set_threads(2)
        try:
            model = build_prototypes([("a", vec(1.0, 0.0)), ("b", vec(0.0, 1.0))])
            assert evaluate_topk(model, [("a", vec(1.0, 0.0))], [1]) == {1: 1.0}
            assert inside == [1]
            assert set_threads(before) == 2
        finally:
            set_threads(before)


class TestPersistence:
    def test_round_trip(self, tmp_path):
        pairs = random_training_set(12, 3, dim=20, seed=9)
        model = build_prototypes(pairs, provider_name="stub")
        path = tmp_path / "model.bin"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.dim == model.dim
        assert loaded.provider_name == "stub"
        assert loaded.labels == model.labels
        assert loaded.matrix.tobytes() == model.matrix.tobytes()
        assert loaded.support_counts == model.support_counts

    def test_provider_checked_at_load(self, tmp_path):
        model = build_prototypes([("a", vec(1.0, 2.0))], provider_name="stub")
        path = tmp_path / "model.bin"
        save_model(model, path)
        with pytest.raises(ProviderMismatchError):
            load_model(path, expected_provider="remote:dinov2")

    def test_truncated_file(self, tmp_path):
        model = build_prototypes([("a", vec(1.0, 2.0))], provider_name="stub")
        path = tmp_path / "model.bin"
        save_model(model, path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - 5])
        with pytest.raises(CorruptFileError):
            load_model(path)

    @pytest.mark.parametrize(
        "records",
        [
            [(b"a", 1, (float("nan"), 0.0))],
            [(b"a", 1, (1.0, 0.0)), (b"a", 2, (0.0, 1.0))],
            [(b"a", 0, (1.0, 0.0))],
            [(b"\xff\xfe", 1, (1.0, 0.0))],
            [(b"b", 1, (1.0, 0.0)), (b"a", 1, (0.0, 1.0))],
        ],
        ids=["nan_values", "duplicate_labels", "zero_support", "label_not_utf8", "labels_out_of_order"],
    )
    def test_invalid_records_are_corrupt(self, tmp_path, records):
        # the persisted layout, written record by record
        chunks = [b"OBSPROTO\x00\x01", struct.pack("<IH", 2, 4), b"stub", struct.pack("<I", len(records))]
        for label, support, values in records:
            chunks += [struct.pack("<H", len(label)), label, struct.pack("<I2d", support, *values)]
        path = tmp_path / "model.bin"
        path.write_bytes(b"".join(chunks))
        with pytest.raises(CorruptFileError, match="model file is invalid"):
            load_model(path)

    @pytest.mark.parametrize("dim, count", [(768, 2**31), (2**32 - 1, 2**16)])
    def test_header_larger_than_file_is_corrupt(self, tmp_path, dim, count):
        # checked before the matrix is allocated, so this is no MemoryError
        header = b"OBSPROTO\x00\x01" + struct.pack("<IH", dim, 4) + b"stub" + struct.pack("<I", count)
        path = tmp_path / "model.bin"
        path.write_bytes(header + struct.pack("<H", 1) + b"a" + struct.pack("<I2d", 1, 1.0, 0.0))
        with pytest.raises(CorruptFileError, match="truncated"):
            load_model(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "model.bin"
        path.write_bytes(b"NOTAMODEL" + b"\x00" * 40)
        with pytest.raises(CorruptFileError):
            load_model(path)
