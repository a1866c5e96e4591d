"""Nearest-prototype component classifier.

Each class is represented by the arithmetic mean of its support embeddings,
held once, as one row of the model's matrix. Queries are ranked by Euclidean
distance in two steps, as flat L2 indexes do (FAISS ``IndexFlatL2``):

* a screen, ``‖p‖² − 2·p·q`` for every row ``p``, from one matrix product per
  block of queries (``‖q‖²`` is common to a query's rows, so it is left out),
  with a margin that bounds the float error of both the screen and the
  rescored norm;
* an exact rescore, ``np.linalg.norm(p − q)``, of only those rows whose order
  the screen cannot settle.

The one screen has two readers. ``classify_topk`` builds top-k lists: it
rescores every row at most the margin above the k-th smallest screen value.
``evaluate_topk`` (ACC@k) needs only each query's rank of its gold label: a
row more than the margin below the gold row's screen value is closer, one more
than the margin above it is farther, and only the rows in between are
rescored. A gap that is NaN is never taken as settled. Either way the result
is bitwise that of a full scan with ``np.linalg.norm``. Ties at equal distance
break lexicographically by label for reproducibility.

``evaluate_topk`` screens every test item, its label known or not, so its
cost per item does not depend on the labels, and it holds OpenBLAS to the
calling thread. ``classify_topk``, one query on the pipeline's path, keeps
the BLAS's own threading.
"""

from __future__ import annotations

import contextlib
import ctypes
import struct
import threading
from bisect import bisect_left
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np
from numpy.linalg import lapack_lite

from ._io import atomic_write_bytes
from .embedding import EmbeddingVector
from .errors import (
    CorruptFileError,
    DimensionMismatchError,
    EmptyInputError,
    ProviderMismatchError,
)

_MAGIC = b"OBSPROTO\x00\x01"  # versioned model-file magic
_BLOCK_ROWS = 128  # queries screened by one matrix product
_UNIT_ROUNDOFF = np.finfo(np.float64).eps / 2
_TINY = np.finfo(np.float64).tiny  # bounds the absolute error of an underflow
try:
    # numpy's OpenBLAS, reached through a module linked against it; the
    # setter returns the previous thread count
    _SET_BLAS_THREADS = ctypes.CDLL(lapack_lite.__file__).openblas_set_num_threads_local
except (AttributeError, OSError):
    _SET_BLAS_THREADS = None
_BLAS_THREADS_LOCK = threading.Lock()


@dataclass(frozen=True)
class RankedPrediction:
    """Labels with ascending distances; entries[0] is the predicted class."""

    entries: tuple[tuple[str, float], ...]

    def labels(self) -> tuple[str, ...]:
        return tuple(label for label, _ in self.entries)


class ClassifierModel:
    """Immutable prototype table: strictly increasing ``labels``, a read-only
    float64 ``matrix`` whose row ``i`` is the prototype of ``labels[i]``, and
    ``support_counts``, plus ``sq_norms``, the squared norm of each row.
    Raises ``ValueError`` on labels out of order or repeated, a support count
    below 1 or a non-finite value.
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
        self.sq_norms = np.einsum("ij,ij->i", matrix, matrix)
        self.sq_norms.setflags(write=False)
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
    return RankedPrediction(entries=_rank(model, [query], k)[0])


def evaluate_topk(
    model: ClassifierModel,
    test: Sequence[tuple[str, EmbeddingVector]],
    ks: Sequence[int],
) -> dict[int, float]:
    """ACC@k: fraction of test items whose label is among the k nearest.

    An item counts at ``k`` exactly when its label is in ``_rank``'s top-``k``
    list for its query, but no list is built: the item's 0-based rank is the
    number of rows the screen shows to be closer than its label's row, plus
    the rows within the margin whose rescored ``(distance, row)`` is smaller.
    An item whose label has no prototype never counts.
    """
    if not test:
        raise EmptyInputError("no test samples")
    if not ks or min(ks) < 1:
        raise ValueError(f"ks must name at least one k, each >= 1, got {list(ks)}")
    queries = [vec for _, vec in test]
    _check_queries(model, queries)
    labels, n = model.labels, len(model)
    gold = [bisect_left(labels, label) for label, _ in test]
    known = np.array([col < n and labels[col] == label for col, (label, _) in zip(gold, test)])
    gold = np.where(known, gold, 0)
    ranks = np.empty(len(test), dtype=int)
    with _blas_on_calling_thread():
        for start, block, screen, margins in _screens(model, queries):
            cols = gold[start : start + len(block)]
            delta = screen - screen[np.arange(len(block)), cols][:, None]
            below = delta < -margins[:, None]
            # "not above and not below", so a NaN gap is rescored
            unsure = ~(below | (delta > margins[:, None]))
            block_ranks = np.count_nonzero(below, axis=1)
            # the gold row is always unsure; any other needs the exact norm
            for i in np.flatnonzero(np.count_nonzero(unsure, axis=1) > 1):
                rows = np.flatnonzero(unsure[i])
                dists = np.linalg.norm(model.matrix[rows] - block[i], axis=1)
                mine = dists[rows == cols[i]][0]
                block_ranks[i] += np.count_nonzero((dists < mine) | ((dists == mine) & (rows < cols[i])))
            ranks[start : start + len(block)] = block_ranks
    return {k: int(np.count_nonzero(known & (ranks < k))) / len(test) for k in ks}


@contextlib.contextmanager
def _blas_on_calling_thread():
    """Run the BLAS calls inside on the calling thread only.

    OpenBLAS splits a product over every core, and its helper threads spin
    after each call, so a batch of products runs at the pace of the busiest
    core. Held to one thread, ``evaluate_topk``'s pace depends on its own core
    alone. Another BLAS has no ``openblas_set_num_threads_local`` and keeps
    its own threading. The count is process-wide, so the lock keeps two
    callers from restoring each other's value.
    """
    if _SET_BLAS_THREADS is None:
        yield
        return
    with _BLAS_THREADS_LOCK:
        before = _SET_BLAS_THREADS(1)
        try:
            yield
        finally:
            _SET_BLAS_THREADS(before)


def _check_queries(model: ClassifierModel, queries: Sequence[EmbeddingVector]) -> None:
    """Refuse an empty model and any query whose dim is not the model's."""
    if len(model) == 0:
        raise EmptyInputError("classifier has no prototypes")
    for query in queries:
        if query.dim != model.dim:
            raise DimensionMismatchError(f"query dim {query.dim}, model dim {model.dim}")


def _screens(
    model: ClassifierModel, queries: Sequence[EmbeddingVector]
) -> Iterator[tuple[int, np.ndarray, np.ndarray, np.ndarray]]:
    """Yield ``(start, block, screen, margins)`` for each block of queries.

    Rounding moves a screen value by at most ``γ·(‖p‖ + ‖q‖)²`` and a
    rescored squared distance by at most ``γ·d²`` with ``γ ≈ (dim + 4)·u``, so
    of two rows whose screen values differ by more than the query's margin
    ``4·(dim + 4)·u·(max‖p‖ + ‖q‖)²``, the one with the larger value is
    strictly farther after rounding. While ``2·(max‖p‖ + ‖q‖)²`` is finite no
    screen value or squared distance overflows; otherwise the margin is
    infinite and every row of that query is rescored.
    """
    max_norm = np.sqrt(model.sq_norms.max())
    scale = 4 * (model.dim + 4)
    for start in range(0, len(queries), _BLOCK_ROWS):
        block = np.stack([query.values for query in queries[start : start + _BLOCK_ROWS]])
        screen = model.sq_norms - 2.0 * (block @ model.matrix.T)
        reach = max_norm + np.sqrt(np.einsum("ij,ij->i", block, block))
        square = reach * reach
        margins = np.where(np.isfinite(2 * square), scale * (_UNIT_ROUNDOFF * square + _TINY), np.inf)
        yield start, block, screen, margins


def _rank(
    model: ClassifierModel, queries: Sequence[EmbeddingVector], k: int
) -> list[tuple[tuple[str, float], ...]]:
    """The top-``k`` ``(label, distance)`` entries of each query, nearest first.

    Every row at most the margin above the k-th smallest screen value is
    rescored (every row when that bound is not finite), so a row left out is
    strictly farther, after rounding, than the ``k`` rows at or below it.
    """
    _check_queries(model, queries)
    if k < 1:
        raise ValueError("k must be >= 1")
    k = min(k, len(model))
    ranked = []
    for _, block, screen, margins in _screens(model, queries):
        kth = np.partition(screen, k - 1, axis=1)[:, k - 1]
        for query, row, cutoff in zip(block, screen, kth + margins):
            if np.isfinite(cutoff):
                rows = np.flatnonzero(row <= cutoff)
            else:
                rows = np.arange(len(model))
            dists = np.linalg.norm(model.matrix[rows] - query, axis=1)
            # rows ascend with the labels, so a stable sort breaks ties by label
            order = np.argsort(dists, kind="stable")[:k]
            ranked.append(
                tuple(
                    (model.labels[i], d)
                    for i, d in zip(rows[order].tolist(), dists[order].tolist())
                )
            )
    return ranked


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
