"""Chat/vision backends: HTTP client and offline deterministic mock.

The hosted models are interchangeable; everything model-specific stays
behind the ChatBackend contract. The HTTP client posts through the stdlib
``_io.post_json``; the offline backend answers any pipeline prompt
deterministically so the full system runs with zero network access.
"""

from __future__ import annotations

import hashlib
import os
import re
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Annotated, NamedTuple

from . import records
from ._io import post_json
from .dataset import INSCRIPTION_TYPES
from .errors import BackendUnavailableError

CHAT_URL_ENV = "OBS_CHAT_URL"
CHAT_KEY_ENV = "OBS_CHAT_KEY"
CHAT_MODEL_ENV = "OBS_CHAT_MODEL"
RETRIEVER_URL_ENV = "OBS_RETRIEVER_URL"
REASONER_URL_ENV = "OBS_REASONER_URL"

_TIMEOUT_S = 120.0  # per hosted chat request


@dataclass(frozen=True)
class ChatMessage:
    role: str
    content: Annotated[str, records.OMIT_EMPTY] = ""
    image_b64: Annotated[str | None, records.OMIT_EMPTY] = None


@dataclass(frozen=True)
class TokenUsage:
    prompt: int = 0
    completion: int = 0

    def __add__(self, other: "TokenUsage") -> "TokenUsage":
        return TokenUsage(self.prompt + other.prompt, self.completion + other.completion)


@dataclass(frozen=True)
class ChatRequest:
    messages: tuple[ChatMessage, ...]

    @property
    def text(self) -> str:
        return "\n".join(m.content for m in self.messages if m.content)


@dataclass(frozen=True)
class ChatResponse:
    content: str
    usage: TokenUsage = field(default_factory=TokenUsage)


class ChatBackend(ABC):
    """Abstract chat-completion backend."""

    name: str
    supports_images: bool

    @abstractmethod
    def complete(self, request: ChatRequest) -> ChatResponse: ...


def _approx_tokens(text: str) -> int:
    # deterministic stand-in for a tokenizer; only stability matters
    return max(1, (len(text) + 3) // 4)


def _request_tokens(request: ChatRequest) -> int:
    n = 0
    for m in request.messages:
        n += _approx_tokens(m.content) if m.content else 0
        if m.image_b64:
            n += 85
    return n


class _WireUsage(NamedTuple):
    prompt_tokens: Annotated[int, records.Absent(0)]
    completion_tokens: Annotated[int, records.Absent(0)]


class _ChatReply(NamedTuple):
    content: str
    usage: Annotated[_WireUsage, records.Absent(_WireUsage(0, 0))]


class HttpChatBackend(ChatBackend):
    """Client for the chat wire protocol.

    POST ``{model, temperature, messages:[{role, content|image_b64}]}``,
    with the backend's own ``model`` (left out when it has none) and
    temperature 0 so that replies are as repeatable as the service allows;
    the service replies ``{content, usage:{prompt_tokens, completion_tokens}}``,
    a ``_ChatReply`` whose missing counts read as 0. Any other reply, a status
    other than 200 or an unreachable service raises ``BackendUnavailableError``.
    Only the caller's concurrency (``run_pipeline``'s pool) bounds requests in flight.
    """

    def __init__(self, url: str, api_key: str | None = None, model: str | None = None):
        self._url = url
        self._api_key = api_key
        self.model = model
        # the model is part of the name, so a run's manifest records it
        self.name = f"http:{url}#{model}" if model else f"http:{url}"
        self.supports_images = True

    def complete(self, request: ChatRequest) -> ChatResponse:
        messages = [records.encode(m, {}) for m in request.messages]
        body: dict = {"temperature": 0.0, "messages": messages}
        if self.model:
            body["model"] = self.model
        headers = {"Authorization": f"Bearer {self._api_key}"} if self._api_key else {}
        reply = post_json(
            self._url, body, _ChatReply, BackendUnavailableError, "chat", _TIMEOUT_S, headers)
        return ChatResponse(reply.content, TokenUsage(*reply.usage))


_PREDICTION_LINE_RE = re.compile(r"(?m)^- (.+?) \(distance=")


class OfflineChatBackend(ChatBackend):
    """Deterministic structured replies for any pipeline prompt.

    Inspects the prompt for the instructed response grammar (tool-call plan,
    interpretation, type judgment, or judge score) and answers in that
    grammar as a pure function of the prompt bytes. Lets every stage of the
    pipeline run offline and reproducibly.
    """

    name = "offline-mock"
    supports_images = True

    def _hash(self, text: str) -> int:
        digest = hashlib.blake2b(text.encode("utf-8"), digest_size=8).digest()
        return int.from_bytes(digest, "little")

    def complete(self, request: ChatRequest) -> ChatResponse:
        prompt = request.text
        h = self._hash(prompt)
        labels = _PREDICTION_LINE_RE.findall(prompt)
        if "CALL" in prompt and "component_explanation" in prompt:
            lines = []
            for label in labels[:3]:
                lines.append(f"CALL component_explanation {label}")
                lines.append(f"CALL characters_by_component {label}")
            content = "\n".join(lines) if lines else "CALL component_explanation unknown"
        elif "INTERPRETATION:" in prompt:
            t = INSCRIPTION_TYPES[h % 3]
            parts = ", ".join(labels) if labels else "its strokes"
            content = (
                f"TYPE: {t}\n"
                f"REASON: The character joins {parts} into one scene (trace {h % 9973}).\n"
                f"INTERPRETATION: A character built from {parts}; "
                f"reading variant {h % 997} of the combined senses."
            )
        elif "TYPE:" in prompt:
            t = INSCRIPTION_TYPES[h % 3]
            parts = ", ".join(labels) if labels else "its strokes"
            content = f"TYPE: {t}\nREASON: Component cues {parts} point to this formation (trace {h % 9973})."
        elif "Score:" in prompt:
            content = f"Score: {(h % 101) / 100:.2f}"
        else:
            content = f"ACK {h % 100000}"
        return ChatResponse(
            content=content,
            usage=TokenUsage(prompt=_request_tokens(request), completion=_approx_tokens(content)),
        )


def backend_from_env(role: str | None = None) -> ChatBackend | None:
    """Build an HTTP backend from the environment, or None if unconfigured.

    ``role`` may be ``retriever`` or ``reasoner`` to honour the per-agent
    URL overrides; both fall back to the shared chat endpoint. Every role
    sends the model named by ``OBS_CHAT_MODEL``, if set.
    """
    own = {"retriever": RETRIEVER_URL_ENV, "reasoner": REASONER_URL_ENV}.get(role, CHAT_URL_ENV)
    url = os.environ.get(own, "").strip() or os.environ.get(CHAT_URL_ENV, "").strip()
    if not url:
        return None
    return HttpChatBackend(
        url,
        api_key=os.environ.get(CHAT_KEY_ENV) or None,
        model=os.environ.get(CHAT_MODEL_ENV, "").strip() or None,
    )
