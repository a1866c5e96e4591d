"""Nearest-prototype component classifier.

Each class is represented by the arithmetic mean of its support embeddings,
held once, as one row of the model's matrix. Queries are ranked by Euclidean
distance over an exact full scan of the rows (OB-Radix has 478 component
classes; a scan over a thousand rows is one vectorized pass, so no index
structure is needed). Ties at equal distance break lexicographically by
label for reproducibility.
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
class RankedPrediction:
    """Labels with ascending distances; entries[0] is the predicted class."""

    entries: tuple[tuple[str, float], ...]

    def labels(self) -> tuple[str, ...]:
        return tuple(label for label, _ in self.entries)


class ClassifierModel:
    """Immutable prototype table: strictly increasing ``labels``, a read-only
    float64 ``matrix`` whose row ``i`` is the prototype of ``labels[i]``, and
    ``support_counts``. Raises ``ValueError`` on labels out of order or
    repeated, a support count below 1 or a non-finite value.
    """

    def __init__(
        self,
        labels: Sequence[str],
        matrix: np.ndarray,
        support_counts: Sequence[int],
        provider_name: str = "",
    ):
        if any(a >= b for a, b in zip(labels, labels[1:])):
            raise ValueError("prototype labels are duplicated or out of order")
        for label, count in zip(labels, support_counts):
            if count < 1:
                raise ValueError(f"prototype {label!r} has support_count < 1")
        if not np.isfinite(matrix).all():
            raise ValueError("prototype matrix contains NaN or infinite values")
        matrix.setflags(write=False)
        self.labels: tuple[str, ...] = tuple(labels)
        self.matrix = matrix
        self.support_counts: tuple[int, ...] = tuple(support_counts)
        self.dim = matrix.shape[1]
        self.provider_name = provider_name

    def __len__(self) -> int:
        return len(self.labels)


def build_prototypes(
    train: Iterable[tuple[str, EmbeddingVector]],
    provider_name: str = "",
) -> ClassifierModel:
    """Average each class's support embeddings into its prototype row."""
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
    labels = sorted(groups)
    matrix = np.empty((len(labels), dim))
    for row, label in zip(matrix, labels):
        row[:] = np.mean(np.stack(groups[label]), axis=0)
    support_counts = [len(groups[label]) for label in labels]
    return ClassifierModel(labels, matrix, support_counts, provider_name=provider_name)


def classify_topk(model: ClassifierModel, query: EmbeddingVector, k: int) -> RankedPrediction:
    """Top-``k`` classes by ascending Euclidean distance to the prototypes."""
    if len(model) == 0:
        raise EmptyInputError("classifier has no prototypes")
    if query.dim != model.dim:
        raise DimensionMismatchError(f"query dim {query.dim}, model dim {model.dim}")
    if k < 1:
        raise ValueError("k must be >= 1")
    dists = np.linalg.norm(model.matrix - query.values, axis=1)
    ranked = sorted(zip(model.labels, dists.tolist()), key=lambda e: (e[1], e[0]))
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
    for label, support_count, row in zip(model.labels, model.support_counts, model.matrix):
        raw = label.encode("utf-8")
        chunks.append(struct.pack("<H", len(raw)))
        chunks.append(raw)
        chunks.append(struct.pack("<I", support_count))
        chunks.append(row.astype("<f8").tobytes())
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
        # every record holds at least a label length, a support count and a row
        if count * (6 + 8 * dim) > len(data) - r.pos:
            raise CorruptFileError("model file truncated")
        labels, support_counts = [], []
        matrix = np.empty((count, dim))
        for row in matrix:
            labels.append(r.take(r.u16()).decode("utf-8"))
            support_counts.append(r.u32())
            row[:] = np.frombuffer(r.take(8 * dim), dtype="<f8")
        if r.pos != len(data):
            raise CorruptFileError("trailing bytes after model records")
        if expected_provider is not None and provider_name != expected_provider:
            raise ProviderMismatchError(
                f"model was built with provider {provider_name!r}, queried with {expected_provider!r}"
            )
        return ClassifierModel(labels, matrix, support_counts, provider_name=provider_name)
    except ValueError as exc:
        # text that is not UTF-8, NaN values, labels repeated or out of order,
        # a support count of 0
        raise CorruptFileError(f"model file is invalid: {exc}") from exc
