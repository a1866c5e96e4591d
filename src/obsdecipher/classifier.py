"""Nearest-prototype component classifier.

Each class is represented by the arithmetic mean of its support embeddings;
queries are ranked by Euclidean distance over an exact full scan of the
prototypes (OB-Radix has 478 component classes; a scan over a thousand
prototype rows is one vectorized pass, so no index structure is needed).
Ties at equal distance break lexicographically by label for reproducibility.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from ._io import atomic_write_bytes
from .embedding import EmbeddingVector
from .errors import (
    CorruptFileError,
    DimensionMismatchError,
    EmptyInputError,
    ProviderMismatchError,
)

_MAGIC = b"OBSPROTO\x00\x01"  # versioned model-file magic


@dataclass(frozen=True)
class Prototype:
    label: str
    mean: EmbeddingVector
    support_count: int


@dataclass(frozen=True)
class RankedPrediction:
    """Labels with ascending distances; entries[0] is the predicted class."""

    entries: tuple[tuple[str, float], ...]

    def labels(self) -> tuple[str, ...]:
        return tuple(label for label, _ in self.entries)


class ClassifierModel:
    """Immutable label -> prototype map with a dense matrix for scoring."""

    def __init__(
        self,
        prototypes: Iterable[Prototype],
        dim: int,
        provider_name: str = "",
    ):
        protos = sorted(prototypes, key=lambda p: p.label)
        if len({p.label for p in protos}) != len(protos):
            raise ValueError("duplicate prototype labels")
        for p in protos:
            if p.mean.dim != dim:
                raise DimensionMismatchError(
                    f"prototype {p.label!r} has dim {p.mean.dim}, model dim {dim}"
                )
            if p.support_count < 1:
                raise ValueError(f"prototype {p.label!r} has support_count < 1")
        self.prototypes: dict[str, Prototype] = {p.label: p for p in protos}
        self.dim = dim
        self.provider_name = provider_name
        self._labels = [p.label for p in protos]
        self._matrix = (
            np.stack([p.mean.values for p in protos])
            if protos
            else np.empty((0, dim), dtype=np.float64)
        )

    def __len__(self) -> int:
        return len(self._labels)


def build_prototypes(
    train: Iterable[tuple[str, EmbeddingVector]],
    provider_name: str = "",
) -> ClassifierModel:
    """Average each class's support embeddings into its prototype."""
    groups: dict[str, list[np.ndarray]] = {}
    dim: int | None = None
    for label, vec in train:
        if dim is None:
            dim = vec.dim
        elif vec.dim != dim:
            raise DimensionMismatchError(
                f"embedding for {label!r} has dim {vec.dim}, expected {dim}"
            )
        groups.setdefault(label, []).append(vec.values)
    if not groups:
        raise EmptyInputError("no training samples")
    assert dim is not None
    protos = [
        Prototype(
            label=label,
            mean=EmbeddingVector(np.mean(np.stack(vectors), axis=0)),
            support_count=len(vectors),
        )
        for label, vectors in groups.items()
    ]
    return ClassifierModel(protos, dim=dim, provider_name=provider_name)


def classify_topk(model: ClassifierModel, query: EmbeddingVector, k: int) -> RankedPrediction:
    """Top-``k`` classes by ascending Euclidean distance to the prototypes."""
    if len(model) == 0:
        raise EmptyInputError("classifier has no prototypes")
    if query.dim != model.dim:
        raise DimensionMismatchError(f"query dim {query.dim}, model dim {model.dim}")
    if k < 1:
        raise ValueError("k must be >= 1")
    dists = np.linalg.norm(model._matrix - query.values, axis=1)
    ranked = sorted(zip(model._labels, dists.tolist()), key=lambda e: (e[1], e[0]))
    return RankedPrediction(entries=tuple(ranked[: min(k, len(ranked))]))


def evaluate_topk(
    model: ClassifierModel,
    test: Sequence[tuple[str, EmbeddingVector]],
    ks: Sequence[int],
) -> dict[int, float]:
    """ACC@k: fraction of test items whose label is among the k nearest."""
    if not test:
        raise EmptyInputError("no test samples")
    max_k = max(ks)
    hits = {k: 0 for k in ks}
    for label, vec in test:
        top = classify_topk(model, vec, max_k).labels()
        for k in ks:
            if label in top[:k]:
                hits[k] += 1
    return {k: hits[k] / len(test) for k in ks}


# --- persistence ------------------------------------------------------------
#
# Little-endian layout:
#   magic (10 bytes) | u32 dim | u16 name_len + name | u32 class_count
#   then per class: u16 label_len + label | u32 support_count | dim * f64


def save_model(model: ClassifierModel, path: str | Path) -> None:
    chunks = [_MAGIC, struct.pack("<I", model.dim)]
    name = model.provider_name.encode("utf-8")
    chunks.append(struct.pack("<H", len(name)))
    chunks.append(name)
    chunks.append(struct.pack("<I", len(model)))
    for label in model._labels:
        proto = model.prototypes[label]
        raw = label.encode("utf-8")
        chunks.append(struct.pack("<H", len(raw)))
        chunks.append(raw)
        chunks.append(struct.pack("<I", proto.support_count))
        chunks.append(proto.mean.values.astype("<f8").tobytes())
    atomic_write_bytes(path, b"".join(chunks))


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise CorruptFileError("model file truncated")
        chunk = self.data[self.pos : self.pos + n]
        self.pos += n
        return chunk

    def u16(self) -> int:
        return struct.unpack("<H", self.take(2))[0]

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]


def load_model(path: str | Path, expected_provider: str | None = None) -> ClassifierModel:
    """Load a persisted model, refusing embeddings from a different provider."""
    data = Path(path).read_bytes()
    r = _Reader(data)
    if r.take(len(_MAGIC)) != _MAGIC:
        raise CorruptFileError("not a classifier model file (bad magic)")
    try:
        dim = r.u32()
        provider_name = r.take(r.u16()).decode("utf-8")
        count = r.u32()
        protos = []
        for _ in range(count):
            label = r.take(r.u16()).decode("utf-8")
            support = r.u32()
            values = np.frombuffer(r.take(8 * dim), dtype="<f8").astype(np.float64)
            protos.append(Prototype(label=label, mean=EmbeddingVector(values), support_count=support))
        if r.pos != len(data):
            raise CorruptFileError("trailing bytes after model records")
        if expected_provider is not None and provider_name != expected_provider:
            raise ProviderMismatchError(
                f"model was built with provider {provider_name!r}, queried with {expected_provider!r}"
            )
        return ClassifierModel(protos, dim=dim, provider_name=provider_name)
    except ValueError as exc:
        # text that is not UTF-8, NaN values, duplicate labels, a support count of 0
        raise CorruptFileError(f"model file is invalid: {exc}") from exc
