"""Latency-injecting, counting wrappers for chat backends and encoders.

A hosted model's latency is simulated by sleeping a fixed time before each
call is forwarded to an offline inner backend or encoder. The sleep releases
the interpreter lock, so a worker pool overlaps it the way it would overlap
network waits. Every wrapper reports its inner ``name``, so a run's
``manifest_hash`` is the same with and without wrappers.
"""

from __future__ import annotations

import threading
import time
from collections import Counter
from typing import Iterable

from obsdecipher.backends import ChatBackend, ChatRequest, ChatResponse
from obsdecipher.embedding import EmbeddingProvider, EmbeddingVector


class CallLedger:
    """Thread-safe counters shared by the wrappers of one run."""

    def __init__(self):
        self._lock = threading.Lock()
        self._counts: Counter[str] = Counter()

    def add(self, key: str, n: int = 1) -> None:
        with self._lock:
            self._counts[key] += n

    def snapshot(self) -> dict[str, int]:
        with self._lock:
            return dict(self._counts)


def ledger_total(calls: Iterable[dict]) -> Counter[str]:
    """Wrapper counts summed over main-phase calls, each holding a ``ledger``."""
    total: Counter[str] = Counter()
    for call in calls:
        total.update(call["ledger"])
    return total


class LatencyChatBackend(ChatBackend):
    """Sleeps ``latency_s`` per call, then forwards to ``inner``.

    Counts ``chat.<role>.calls`` and the prompt and completion tokens the
    inner backend reports.
    """

    def __init__(self, inner: ChatBackend, ledger: CallLedger, role: str, latency_s: float = 0.0):
        self.inner = inner
        self.ledger = ledger
        self.role = role
        self.latency_s = latency_s
        self.name = inner.name
        self.supports_images = inner.supports_images

    def complete(self, request: ChatRequest) -> ChatResponse:
        if self.latency_s:
            time.sleep(self.latency_s)
        resp = self.inner.complete(request)
        self.ledger.add(f"chat.{self.role}.calls")
        self.ledger.add("chat.prompt_tokens", resp.usage.prompt)
        self.ledger.add("chat.completion_tokens", resp.usage.completion)
        return resp


class LatencyEncoder(EmbeddingProvider):
    """Sleeps ``latency_s`` per call, then forwards to ``inner``.

    Counts ``embed.image`` and ``embed.text`` calls.
    """

    def __init__(self, inner: EmbeddingProvider, ledger: CallLedger, latency_s: float = 0.0):
        self.inner = inner
        self.ledger = ledger
        self.latency_s = latency_s
        self.name = inner.name
        self.dim = inner.dim

    def embed_image(self, image: bytes) -> EmbeddingVector:
        if self.latency_s:
            time.sleep(self.latency_s)
        self.ledger.add("embed.image")
        return self.inner.embed_image(image)

    def embed_text(self, text: str) -> EmbeddingVector:
        if self.latency_s:
            time.sleep(self.latency_s)
        self.ledger.add("embed.text")
        return self.inner.embed_text(text)
