"""The hosted clients: chat wire protocol, reply validation, and in-flight limits."""

import base64
import threading

import pytest

import obsdecipher.backends as backends_mod
import obsdecipher.embedding as emb
from obsdecipher.backends import (
    ChatMessage,
    ChatRequest,
    HttpChatBackend,
    OfflineChatBackend,
    TokenUsage,
)
from obsdecipher.classifier import build_prototypes
from obsdecipher.embedding import RemoteEmbeddingProvider, StubEmbeddingProvider
from obsdecipher.errors import BackendUnavailableError
from obsdecipher.kg import build_graph
from obsdecipher.pipeline import PipelineBackends, PipelineConfig, run_pipeline

from conftest import fixture_explanations, make_run_fixture


class _FakeResponse:
    def __init__(self, status_code=200, body=None):
        self.status_code = status_code
        self._body = body

    def json(self):
        return self._body


def _request(*messages):
    return ChatRequest(messages=tuple(messages))


def _reply(content="ok", usage=None):
    return {"content": content, "usage": usage or {}}


class TestHttpChatBackend:
    def _capture(self, monkeypatch, reply=None):
        calls = []

        def fake_post(url, json=None, headers=None, timeout=None):
            calls.append({"url": url, "json": json, "headers": headers})
            return _FakeResponse(body=reply or _reply())

        monkeypatch.setattr(backends_mod.requests, "post", fake_post)
        return calls

    def test_request_body(self, monkeypatch):
        # without OBS_CHAT_MODEL the body names no model rather than a null one
        calls = self._capture(monkeypatch)
        monkeypatch.setenv(backends_mod.CHAT_URL_ENV, "http://chat:8000/v1")
        monkeypatch.delenv(backends_mod.CHAT_MODEL_ENV, raising=False)
        backend = backends_mod.backend_from_env()
        backend.complete(
            _request(
                ChatMessage(role="system", content="be brief"),
                ChatMessage(role="user", content="what is it", image_b64="aW1n"),
            )
        )
        (call,) = calls
        assert call["url"] == "http://chat:8000/v1"
        assert call["json"] == {
            "temperature": 0.0,
            "messages": [
                {"role": "system", "content": "be brief"},
                {"role": "user", "content": "what is it", "image_b64": "aW1n"},
            ],
        }

    @pytest.mark.parametrize("role", [None, "retriever", "reasoner"])
    def test_every_role_sends_the_model_named_in_the_environment(self, monkeypatch, role):
        calls = self._capture(monkeypatch)
        monkeypatch.setenv(backends_mod.CHAT_URL_ENV, "http://chat:8000/v1")
        monkeypatch.setenv(backends_mod.REASONER_URL_ENV, "http://reasoner:8000/v1")
        monkeypatch.setenv(backends_mod.CHAT_MODEL_ENV, "glm-4v")
        backends_mod.backend_from_env(role).complete(_request(ChatMessage(role="user", content="hi")))
        assert calls[0]["json"]["model"] == "glm-4v"

    def test_the_model_is_part_of_the_name(self, monkeypatch):
        # the name reaches backend_names and so the run's manifest_hash
        monkeypatch.setenv(backends_mod.CHAT_URL_ENV, "http://x/v1")
        names = []
        for model in ("a", "b"):
            monkeypatch.setenv(backends_mod.CHAT_MODEL_ENV, model)
            names.append(backends_mod.backend_from_env().name)
        monkeypatch.delenv(backends_mod.CHAT_MODEL_ENV)
        assert names == ["http:http://x/v1#a", "http:http://x/v1#b"]
        assert backends_mod.backend_from_env().name == "http:http://x/v1"

    def test_model_defaults_to_the_backend_model(self, monkeypatch):
        calls = self._capture(monkeypatch)
        backend = HttpChatBackend("http://chat:8000", model="m-default")
        backend.complete(ChatRequest(messages=(ChatMessage(role="user", content="hi"),)))
        assert calls[0]["json"]["model"] == "m-default"
        assert calls[0]["json"]["temperature"] == 0.0

    def test_authorization_header_only_with_a_key(self, monkeypatch):
        calls = self._capture(monkeypatch)
        request = _request(ChatMessage(role="user", content="hi"))
        HttpChatBackend("http://chat:8000").complete(request)
        HttpChatBackend("http://chat:8000", api_key="sk-1").complete(request)
        assert calls[0]["headers"] == {}
        assert calls[1]["headers"] == {"Authorization": "Bearer sk-1"}

    def test_usage_is_mapped(self, monkeypatch):
        self._capture(
            monkeypatch, _reply("TYPE: pictographic", {"prompt_tokens": 12, "completion_tokens": 5})
        )
        resp = HttpChatBackend("http://chat:8000").complete(
            _request(ChatMessage(role="user", content="hi"))
        )
        assert resp.content == "TYPE: pictographic"
        assert resp.usage == TokenUsage(prompt=12, completion=5)

    def test_missing_usage_counts_zero(self, monkeypatch):
        self._capture(monkeypatch, {"content": "ok"})
        resp = HttpChatBackend("http://chat:8000").complete(
            _request(ChatMessage(role="user", content="hi"))
        )
        assert resp.usage == TokenUsage()

    def test_http_error_status(self, monkeypatch):
        monkeypatch.setattr(
            backends_mod.requests, "post", lambda *a, **k: _FakeResponse(status_code=503)
        )
        with pytest.raises(BackendUnavailableError, match="HTTP 503"):
            HttpChatBackend("http://chat:8000").complete(
                _request(ChatMessage(role="user", content="hi"))
            )

    def test_transport_error(self, monkeypatch):
        def boom(*a, **k):
            raise backends_mod.requests.ConnectionError("refused")

        monkeypatch.setattr(backends_mod.requests, "post", boom)
        with pytest.raises(BackendUnavailableError, match="unreachable"):
            HttpChatBackend("http://chat:8000").complete(
                _request(ChatMessage(role="user", content="hi"))
            )

    @pytest.mark.parametrize(
        "body",
        [
            {"usage": {}},
            {"content": 123},
            ["ok"],
            {"content": "ok", "usage": [1]},
            {"content": "ok", "usage": {"prompt_tokens": "many"}},
        ],
        ids=["no_content", "content_not_a_string", "list_root", "usage_not_an_object",
             "count_not_an_integer"],
    )
    def test_malformed_reply_is_backend_error(self, monkeypatch, body):
        monkeypatch.setattr(backends_mod.requests, "post", lambda *a, **k: _FakeResponse(body=body))
        with pytest.raises(BackendUnavailableError, match="malformed chat response"):
            HttpChatBackend("http://chat:8000").complete(
                _request(ChatMessage(role="user", content="hi"))
            )


def test_concurrency_is_the_only_limit_on_hosted_calls(tmp_path, monkeypatch):
    """At concurrency 8, eight chat and eight encoder requests are in flight at once.

    The first eight requests of each kind wait for one another on a barrier;
    a client that held requests back would break it at the timeout.
    """
    workers, dim = 8, 32
    corpus, _, _ = make_run_fixture(tmp_path, n_characters=10)
    stub, offline = StubEmbeddingProvider(dim=dim), OfflineChatBackend()
    lock = threading.Lock()
    barriers = {kind: threading.Barrier(workers, timeout=10) for kind in ("chat", "embed")}
    calls = {"chat": 0, "embed": 0}
    in_flight = {"chat": 0, "embed": 0}
    peak = {"chat": 0, "embed": 0}

    def answer(url, body):
        if url.endswith("/embed"):
            if body["kind"] == "image":
                vec = stub.embed_image(base64.b64decode(body["data"]))
            else:
                vec = stub.embed_text(body["data"])
            return {"dim": dim, "values": vec.values.tolist()}
        request = ChatRequest(
            messages=tuple(
                ChatMessage(m["role"], m.get("content", ""), m.get("image_b64"))
                for m in body["messages"]
            )
        )
        resp = offline.complete(request)
        usage = {"prompt_tokens": resp.usage.prompt, "completion_tokens": resp.usage.completion}
        return {"content": resp.content, "usage": usage}

    def fake_post(url, json=None, headers=None, timeout=None):
        kind = "embed" if url.endswith("/embed") else "chat"
        with lock:
            calls[kind] += 1
            first = calls[kind] <= workers
            in_flight[kind] += 1
            peak[kind] = max(peak[kind], in_flight[kind])
        try:
            if first:
                barriers[kind].wait()
            return _FakeResponse(body=answer(url, json))
        finally:
            with lock:
                in_flight[kind] -= 1

    monkeypatch.setattr(emb.requests, "post", fake_post)  # the one module both clients call
    chat = HttpChatBackend("http://chat:8000")
    backends = PipelineBackends(chat=chat, retriever=chat, reasoner=chat)
    provider = RemoteEmbeddingProvider("http://encoder:9000", dim=dim)
    model = build_prototypes(
        ((label, stub.embed_text(label)) for label in sorted(corpus.vocabulary)),
        provider_name=provider.name,
    )
    graph = build_graph(corpus, fixture_explanations(corpus))
    results, failures, _ = run_pipeline(
        corpus, provider, model, graph, backends, PipelineConfig(concurrency=workers),
        image_root=tmp_path,
    )
    assert failures == []
    assert len(results) == len(corpus.characters)
    assert peak == {"chat": workers, "embed": workers}
