"""The hosted clients: chat wire protocol, reply validation, and in-flight limits."""

import base64
import json
import threading

import pytest

import obsdecipher.backends as backends_mod
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

from conftest import closed_port_url, fixture_explanations, make_run_fixture


def _request(*messages):
    return ChatRequest(messages=tuple(messages))


def _reply(content="ok", usage=None):
    return {"content": content, "usage": usage or {}}


def _hi():
    return _request(ChatMessage(role="user", content="hi"))


class TestHttpChatBackend:
    def test_request_body(self, loopback, monkeypatch):
        # without OBS_CHAT_MODEL the body names no model rather than a null one
        loopback.reply(_reply())
        monkeypatch.setenv(backends_mod.CHAT_URL_ENV, f"{loopback.url}/v1")
        monkeypatch.delenv(backends_mod.CHAT_MODEL_ENV, raising=False)
        backend = backends_mod.backend_from_env()
        backend.complete(
            _request(
                ChatMessage(role="system", content="be brief"),
                ChatMessage(role="user", content="what is it", image_b64="aW1n"),
            )
        )
        ((path, headers, body),) = loopback.posts
        assert path == "/v1"
        assert headers["Content-Type"] == "application/json"
        assert body == {
            "temperature": 0.0,
            "messages": [
                {"role": "system", "content": "be brief"},
                {"role": "user", "content": "what is it", "image_b64": "aW1n"},
            ],
        }

    @pytest.mark.parametrize("role", [None, "retriever", "reasoner"])
    def test_every_role_sends_the_model_named_in_the_environment(self, loopback, monkeypatch, role):
        loopback.reply(_reply())
        monkeypatch.setenv(backends_mod.CHAT_URL_ENV, f"{loopback.url}/v1")
        monkeypatch.setenv(backends_mod.REASONER_URL_ENV, f"{loopback.url}/reasoner/v1")
        monkeypatch.setenv(backends_mod.CHAT_MODEL_ENV, "glm-4v")
        backends_mod.backend_from_env(role).complete(_hi())
        ((path, _, body),) = loopback.posts
        assert path == ("/reasoner/v1" if role == "reasoner" else "/v1")
        assert body["model"] == "glm-4v"

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

    def test_model_defaults_to_the_backend_model(self, loopback):
        loopback.reply(_reply())
        HttpChatBackend(loopback.url, model="m-default").complete(_hi())
        ((_, _, body),) = loopback.posts
        assert body["model"] == "m-default"
        assert body["temperature"] == 0.0

    def test_authorization_header_only_with_a_key(self, loopback):
        loopback.reply(_reply())
        HttpChatBackend(loopback.url).complete(_hi())
        HttpChatBackend(loopback.url, api_key="sk-1").complete(_hi())
        (_, without, _), (_, with_key, _) = loopback.posts
        assert "Authorization" not in without
        assert with_key["Authorization"] == "Bearer sk-1"
        assert without["Content-Type"] == with_key["Content-Type"] == "application/json"

    def test_a_zh_body_is_sent_as_utf8(self, loopback):
        # escaped, each of these characters would take six bytes, not three
        prompt = "从手从屋会意，象手持戈守于门下之形。" * 20
        loopback.reply(_reply())
        HttpChatBackend(loopback.url).complete(_request(ChatMessage(role="user", content=prompt)))
        ((_, headers, body),) = loopback.posts
        assert body["messages"][0]["content"] == prompt
        length = int(headers["Content-Length"])
        assert length == len(json.dumps(body, ensure_ascii=False).encode("utf-8"))
        assert length < len(json.dumps(body).encode("utf-8")) * 0.6

    def test_usage_is_mapped(self, loopback):
        loopback.reply(_reply("TYPE: pictographic", {"prompt_tokens": 12, "completion_tokens": 5}))
        resp = HttpChatBackend(loopback.url).complete(_hi())
        assert resp.content == "TYPE: pictographic"
        assert resp.usage == TokenUsage(prompt=12, completion=5)

    def test_missing_usage_counts_zero(self, loopback):
        loopback.reply({"content": "ok"})
        resp = HttpChatBackend(loopback.url).complete(_hi())
        assert resp.usage == TokenUsage()

    def test_http_error_status(self, loopback):
        loopback.reply(_reply(), status=503)
        with pytest.raises(BackendUnavailableError, match="HTTP 503"):
            HttpChatBackend(loopback.url).complete(_hi())

    @pytest.mark.parametrize("status", [201, 204, 404])
    def test_any_status_but_200_is_an_error(self, loopback, status):
        loopback.reply(b"" if status == 204 else _reply(), status=status)
        with pytest.raises(BackendUnavailableError, match=f"returned HTTP {status}"):
            HttpChatBackend(loopback.url).complete(_hi())

    def test_transport_error(self):
        with pytest.raises(BackendUnavailableError, match="unreachable"):
            HttpChatBackend(closed_port_url()).complete(_hi())

    @pytest.mark.parametrize("url", ["chat:8000/v1", "http://", "http://127.0.0.1:99999/v1"],
                             ids=["no_scheme", "no_host", "bad_port"])
    def test_a_bad_url_is_unreachable(self, url):
        with pytest.raises(BackendUnavailableError, match="unreachable"):
            HttpChatBackend(url).complete(_hi())

    @pytest.mark.parametrize(
        "body",
        [
            {"usage": {}},
            {"content": 123},
            ["ok"],
            {"content": "ok", "usage": [1]},
            {"content": "ok", "usage": {"prompt_tokens": "many"}},
            b"not json",
        ],
        ids=["no_content", "content_not_a_string", "list_root", "usage_not_an_object",
             "count_not_an_integer", "not_json"],
    )
    def test_malformed_reply_is_backend_error(self, loopback, body):
        loopback.reply(body)
        with pytest.raises(BackendUnavailableError, match="malformed chat response"):
            HttpChatBackend(loopback.url).complete(_hi())


def test_concurrency_is_the_only_limit_on_hosted_calls(tmp_path, loopback):
    """At concurrency 8, eight chat and eight encoder requests are in flight at once.

    The first eight requests of each kind wait for one another on a barrier
    in the loopback server; a client that held requests back would break it
    at the timeout.
    """
    workers, dim = 8, 32
    corpus, _, _ = make_run_fixture(tmp_path, n_characters=10)
    stub, offline = StubEmbeddingProvider(dim=dim), OfflineChatBackend()
    lock = threading.Lock()
    barriers = {kind: threading.Barrier(workers, timeout=10) for kind in ("chat", "embed")}
    calls = {"chat": 0, "embed": 0}
    in_flight = {"chat": 0, "embed": 0}
    peak = {"chat": 0, "embed": 0}

    def reply(path, body):
        if path == "/embed":
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

    def answer(path, body):
        kind = "embed" if path == "/embed" else "chat"
        with lock:
            calls[kind] += 1
            first = calls[kind] <= workers
            in_flight[kind] += 1
            peak[kind] = max(peak[kind], in_flight[kind])
        try:
            if first:
                barriers[kind].wait()
            return 200, reply(path, body)
        finally:
            with lock:
                in_flight[kind] -= 1

    loopback.answer = answer
    chat = HttpChatBackend(f"{loopback.url}/chat")
    backends = PipelineBackends(chat=chat, retriever=chat, reasoner=chat)
    provider = RemoteEmbeddingProvider(loopback.url, dim=dim)
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
