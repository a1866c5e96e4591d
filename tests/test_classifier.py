import math
import random
import struct

import numpy as np
import pytest

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


def vec(*values):
    return EmbeddingVector(np.array(values, dtype=np.float64))


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

    def test_empty_test_set(self):
        model = build_prototypes([("a", vec(1.0,))])
        with pytest.raises(EmptyInputError, match="no test samples"):
            evaluate_topk(model, [], [1])


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
