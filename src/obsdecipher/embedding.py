"""Embedding providers and the vector type they return.

The image encoder itself is an external backend: this module defines the
provider contract, a deterministic offline stub used throughout the test
suite, and a standard-library HTTP client for a hosted encoder.
"""

from __future__ import annotations

import base64
import hashlib
import os
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ._io import post_json
from .errors import DimensionMismatchError, EmptyInputError, ProviderUnavailableError

DEFAULT_DIM = 768

EMBED_URL_ENV = "OBS_EMBED_URL"

_TIMEOUT_S = 60.0  # per hosted encoder request


@dataclass(frozen=True, eq=False)
class EmbeddingVector:
    """Fixed-length vector of finite float64 values."""

    values: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=np.float64)
        if arr.ndim != 1 or arr.size == 0:
            raise DimensionMismatchError("embedding must be a non-empty 1-d vector")
        if not np.all(np.isfinite(arr)):
            raise ValueError("embedding contains NaN or infinite values")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    @property
    def dim(self) -> int:
        return int(self.values.shape[0])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EmbeddingVector):
            return NotImplemented
        return bool(np.array_equal(self.values, other.values))

    def __hash__(self):
        return hash(self.values.tobytes())


class EmbeddingProvider(ABC):
    """Contract every encoder backend satisfies.

    ``embed_image``/``embed_text`` must be deterministic for identical input
    bytes within a session and safe to call from multiple threads.
    """

    name: str
    dim: int

    @abstractmethod
    def embed_image(self, image: bytes) -> EmbeddingVector: ...

    @abstractmethod
    def embed_text(self, text: str) -> EmbeddingVector: ...


def embed_image(provider: EmbeddingProvider, image: bytes) -> EmbeddingVector:
    """Encode image bytes, enforcing the provider's declared dimension."""
    if not image:
        raise EmptyInputError("image bytes are empty")
    return _of_declared_dim(provider, provider.embed_image(image))


def embed_text(provider: EmbeddingProvider, text: str) -> EmbeddingVector:
    """Encode UTF-8 text, enforcing the provider's declared dimension."""
    if not text:
        raise EmptyInputError("text is empty")
    return _of_declared_dim(provider, provider.embed_text(text))


def _of_declared_dim(provider: EmbeddingProvider, vec: EmbeddingVector) -> EmbeddingVector:
    if vec.dim != provider.dim:
        raise DimensionMismatchError(
            f"provider {provider.name!r} returned {vec.dim} values, expected {provider.dim}"
        )
    return vec


class StubEmbeddingProvider(EmbeddingProvider):
    """Offline provider: embeddings are a pure function of the input bytes.

    The input is hashed to a 64-bit key that seeds a counter-based Philox
    stream; the vector is ``dim`` standard-normal draws, L2-normalized.
    Distinct inputs collide with negligible probability, which is enough to
    exercise every downstream component without model weights.
    """

    name = "stub"

    def __init__(self, dim: int = DEFAULT_DIM):
        if dim < 1:
            raise ValueError("dim must be positive")
        self.dim = dim

    def _vector(self, payload: bytes) -> EmbeddingVector:
        key = int.from_bytes(hashlib.blake2b(payload, digest_size=8).digest(), "little")
        rng = np.random.Generator(np.random.Philox(key=key))
        values = rng.standard_normal(self.dim)
        norm = float(np.linalg.norm(values))
        while norm == 0.0:  # unreachable in practice; keeps the contract total
            key = (key + 1) & 0xFFFFFFFFFFFFFFFF
            rng = np.random.Generator(np.random.Philox(key=key))
            values = rng.standard_normal(self.dim)
            norm = float(np.linalg.norm(values))
        return EmbeddingVector(values / norm)

    def embed_image(self, image: bytes) -> EmbeddingVector:
        if not image:
            raise EmptyInputError("image bytes are empty")
        return self._vector(b"image\x00" + image)

    def embed_text(self, text: str) -> EmbeddingVector:
        if not text:
            raise EmptyInputError("text is empty")
        return self._vector(b"text\x00" + text.encode("utf-8"))


class _EmbedReply(NamedTuple):
    dim: int
    values: tuple[float, ...]


class RemoteEmbeddingProvider(EmbeddingProvider):
    """HTTP client for a hosted encoder (e.g. a DINOv2 service).

    Protocol: POST ``<base>/embed`` with ``{"kind": "image"|"text", "data":
    <base64 or utf-8>}``; the service replies ``{"dim": n, "values": [...]}``,
    an ``_EmbedReply`` of finite numbers. Any other reply, a status other
    than 200 or an unreachable service raises ``ProviderUnavailableError``;
    a dimension other than the provider's, ``DimensionMismatchError``.
    The client sets no limit of its own on requests in flight: the caller's
    concurrency (``run_pipeline``'s pool) bounds them.
    """

    def __init__(self, url: str, dim: int = DEFAULT_DIM):
        base = url.rstrip("/")
        self._endpoint = base if base.endswith("/embed") else base + "/embed"
        self.dim = dim
        self.name = f"remote:{self._endpoint}"

    def _post(self, kind: str, data: str) -> EmbeddingVector:
        reply = post_json(self._endpoint, {"kind": kind, "data": data}, _EmbedReply,
                          ProviderUnavailableError, "embedding", _TIMEOUT_S, {})
        if reply.dim != self.dim or len(reply.values) != self.dim:
            raise DimensionMismatchError(f"endpoint returned {len(reply.values)} values"
                                         f" (dim={reply.dim}), expected {self.dim}")
        try:
            return EmbeddingVector(np.array(reply.values, dtype=np.float64))
        except ValueError as exc:  # a NaN or infinite value
            raise ProviderUnavailableError(f"malformed embedding response: {exc}") from exc

    def embed_image(self, image: bytes) -> EmbeddingVector:
        if not image:
            raise EmptyInputError("image bytes are empty")
        return self._post("image", base64.b64encode(image).decode("ascii"))

    def embed_text(self, text: str) -> EmbeddingVector:
        if not text:
            raise EmptyInputError("text is empty")
        return self._post("text", text)


def provider_from_env() -> EmbeddingProvider:
    """Remote provider when OBS_EMBED_URL is set, stub otherwise."""
    url = os.environ.get(EMBED_URL_ENV, "").strip()
    if url:
        return RemoteEmbeddingProvider(url)
    return StubEmbeddingProvider()
