import math
import random

import numpy as np
import pytest

from obsdecipher.embedding import (
    EmbeddingVector,
    RemoteEmbeddingProvider,
    StubEmbeddingProvider,
    embed_image,
    embed_text,
    provider_from_env,
)
from obsdecipher.errors import (
    DimensionMismatchError,
    EmptyInputError,
    ProviderUnavailableError,
    ZeroNormError,
)

from conftest import closed_port_url, cosine_similarity


def vec(*values):
    return EmbeddingVector(np.array(values, dtype=np.float64))


class TestEmbeddingVector:
    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            EmbeddingVector(np.array([1.0, float("nan")]))
        with pytest.raises(ValueError):
            EmbeddingVector(np.array([float("inf"), 0.0]))

    def test_rejects_empty_and_2d(self):
        with pytest.raises(DimensionMismatchError):
            EmbeddingVector(np.array([]))
        with pytest.raises(DimensionMismatchError):
            EmbeddingVector(np.zeros((2, 2)))

    def test_immutable_values(self):
        v = vec(1.0, 2.0)
        with pytest.raises(ValueError):
            v.values[0] = 5.0


class TestStubProvider:
    def test_deterministic_per_input(self, stub768):
        a = embed_image(stub768, b"some image bytes")
        b = embed_image(stub768, b"some image bytes")
        assert np.array_equal(a.values, b.values)
        assert a.dim == 768

    def test_no_collisions_over_1000_inputs(self, stub64):
        rng = random.Random(99)
        seen = set()
        for _ in range(1000):
            payload = rng.randbytes(16)
            v = embed_image(stub64, payload)
            seen.add(v.values.tobytes())
        assert len(seen) == 1000

    def test_text_and_image_namespaces_differ(self, stub64):
        t = embed_text(stub64, "abc")
        i = embed_image(stub64, b"abc")
        assert not np.array_equal(t.values, i.values)

    def test_unit_norm(self, stub768):
        v = embed_text(stub768, "normalized")
        assert math.isclose(float(np.linalg.norm(v.values)), 1.0, rel_tol=1e-12)

    def test_empty_inputs_rejected(self, stub64):
        with pytest.raises(EmptyInputError):
            embed_text(stub64, "")
        with pytest.raises(EmptyInputError):
            embed_image(stub64, b"")

    def test_nearby_strings_not_identical(self, stub768):
        a = embed_text(stub768, "abc")
        b = embed_text(stub768, "abd")
        assert cosine_similarity(a, b) < 1.0


class _WrongDimProvider(StubEmbeddingProvider):
    def embed_image(self, image):
        return EmbeddingVector(np.zeros(512) + 1.0)


def test_dimension_enforced_at_boundary():
    provider = _WrongDimProvider(dim=768)
    with pytest.raises(DimensionMismatchError):
        embed_image(provider, b"x")


class TestVectorOps:
    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            cosine_similarity(vec(1.0), vec(1.0, 2.0))

    def test_cosine_identity(self, stub64):
        v = embed_text(stub64, "anything")
        assert cosine_similarity(v, v) == pytest.approx(1.0, abs=1e-12)

    def test_cosine_orthogonal_and_opposite(self):
        assert cosine_similarity(vec(1.0, 0.0), vec(0.0, 1.0)) == 0.0
        assert cosine_similarity(vec(1.0, 1.0), vec(-1.0, -1.0)) == pytest.approx(-1.0)

    def test_cosine_zero_norm(self):
        with pytest.raises(ZeroNormError):
            cosine_similarity(vec(0.0, 0.0), vec(1.0, 0.0))

    def test_cosine_scale_invariance(self, stub64):
        rng = random.Random(6)
        for _ in range(100):
            a = embed_text(stub64, f"x{rng.random()}")
            b = embed_text(stub64, f"y{rng.random()}")
            alpha, beta = rng.uniform(0.01, 50), rng.uniform(0.01, 50)
            scaled = cosine_similarity(
                EmbeddingVector(alpha * a.values), EmbeddingVector(beta * b.values)
            )
            assert abs(scaled - cosine_similarity(a, b)) <= 1e-9


class TestRemoteProvider:
    def test_good_response(self, loopback):
        loopback.reply({"dim": 4, "values": [1.0, 0.0, 0.0, 0.0]})
        provider = RemoteEmbeddingProvider(loopback.url, dim=4)
        v = embed_text(provider, "hi")
        assert v.values.tolist() == [1.0, 0.0, 0.0, 0.0]
        ((path, headers, body),) = loopback.posts
        assert path == "/embed"
        assert body == {"kind": "text", "data": "hi"}
        assert headers["Content-Type"] == "application/json"
        assert "Authorization" not in headers

    def test_wrong_length_is_dimension_mismatch(self, loopback):
        loopback.reply({"dim": 512, "values": [0.0] * 512})
        provider = RemoteEmbeddingProvider(f"{loopback.url}/embed", dim=768)
        with pytest.raises(DimensionMismatchError):
            embed_image(provider, b"img")
        ((path, _, body),) = loopback.posts
        assert path == "/embed"
        assert body == {"kind": "image", "data": "aW1n"}

    def test_transport_error(self):
        provider = RemoteEmbeddingProvider(closed_port_url(), dim=8)
        with pytest.raises(ProviderUnavailableError, match="unreachable"):
            embed_text(provider, "hi")

    @pytest.mark.parametrize(
        "values",
        [
            [1.0, float("nan"), 0.0, 0.0],
            [1.0, float("inf"), 0.0, 0.0],
            [1.0, "x", 0.0, 0.0],
            [1.0, "1.5", 0.0, 0.0],
            [1.0, True, 0.0, 0.0],
            [1.0, 10**309, 0.0, 0.0],
            {"0": 1.0, "1": 0.0, "2": 0.0, "3": 0.0},
        ],
        ids=["nan", "infinite", "non_numeric", "string_value", "bool_value", "beyond_float",
             "not_a_list"],
    )
    def test_malformed_values_are_provider_errors(self, loopback, values):
        loopback.reply({"dim": 4, "values": values})
        provider = RemoteEmbeddingProvider(loopback.url, dim=4)
        with pytest.raises(ProviderUnavailableError, match="malformed embedding response"):
            embed_text(provider, "hi")

    @pytest.mark.parametrize("dim", ["4", 4.9, True], ids=["string", "float", "bool"])
    def test_dim_must_be_a_json_integer(self, loopback, dim):
        loopback.reply({"dim": dim, "values": [1.0, 0.0, 0.0, 0.0]})
        provider = RemoteEmbeddingProvider(loopback.url, dim=4)
        with pytest.raises(ProviderUnavailableError, match="malformed embedding response"):
            embed_text(provider, "hi")

    def test_http_error_status(self, loopback):
        loopback.reply({}, status=500)
        provider = RemoteEmbeddingProvider(loopback.url, dim=8)
        with pytest.raises(ProviderUnavailableError, match="returned HTTP 500"):
            embed_text(provider, "hi")


def test_provider_from_env(monkeypatch):
    monkeypatch.delenv("OBS_EMBED_URL", raising=False)
    assert isinstance(provider_from_env(), StubEmbeddingProvider)
    monkeypatch.setenv("OBS_EMBED_URL", "http://encoder:8000")
    assert isinstance(provider_from_env(), RemoteEmbeddingProvider)
