from pathlib import Path

import pytest

from obsdecipher.backends import (
    ChatMessage,
    ChatRequest,
    OfflineChatBackend,
    TokenUsage,
)
from obsdecipher.classifier import RankedPrediction
from obsdecipher.errors import (
    BackendUnavailableError,
    ImageRequiredButUnsupportedError,
    UnparseableResponseError,
)
from obsdecipher.inference import (
    InscriptionType,
    InterpretationResult,
    generate_interpretation_multiagent,
    generate_interpretation_vlm,
    infer_relationship,
    parse_model_response,
    parse_tool_plan,
)
from obsdecipher import retrieval
from obsdecipher.retrieval import (
    EvidenceBundle,
    EvidenceItem,
    EvidenceKind,
    SemanticCache,
    ToolName,
)
from obsdecipher.embedding import StubEmbeddingProvider
from obsdecipher.templates import load_template, render_evidence, render_predictions

from conftest import ScriptedChatBackend
from test_retrieval import mini_graph

GOLDENS = Path(__file__).parent / "goldens"

PREDICTED = RankedPrediction((("hand", 0.1234), ("roof", 0.5678)))

ITEMS = (
    EvidenceItem(EvidenceKind.COMPONENT_EXPLANATION, "hand", "象手之形，表持握义。", rank=0),
    EvidenceItem(EvidenceKind.CONTAINING_CHARACTER, "char0001", "手在屋下，会休息之意。",
                 rank=1, co_components=("roof",)),
)

BUNDLE = EvidenceBundle("char0099", PREDICTED.entries, ITEMS, (), True)

EMPTY_BUNDLE = EvidenceBundle("char0098", PREDICTED.entries, (), (), False)


class TestParseModelResponse:
    def test_typed_classification(self):
        fields = parse_model_response("TYPE: ideographic\nREASON: 会意字", "typed_classification")
        assert fields["type"] is InscriptionType.IDEOGRAPHIC
        assert fields["reason"] == "会意字"

    def test_phono_semantic_variants(self):
        for spelled in ("phono-semantic", "phono_semantic", "Phono-Semantic"):
            fields = parse_model_response(f"TYPE: {spelled}\nREASON: x", "typed_classification")
            assert fields["type"] is InscriptionType.PHONO_SEMANTIC

    def test_tolerates_surrounding_prose(self):
        raw = "Let me think.\n\nTYPE: pictographic\nREASON: looks like a sun\nThanks!"
        fields = parse_model_response(raw, "typed_classification")
        assert fields["type"] is InscriptionType.PICTOGRAPHIC

    def test_invalid_type_value_reports_offset(self):
        raw = "TYPE: pictograph\nREASON: x"
        with pytest.raises(UnparseableResponseError) as exc:
            parse_model_response(raw, "typed_classification")
        assert exc.value.offset == len("TYPE: ".encode("utf-8"))

    def test_missing_type_marker(self):
        with pytest.raises(UnparseableResponseError) as exc:
            parse_model_response("no structure at all", "typed_classification")
        assert exc.value.offset == 0

    def test_missing_reason(self):
        with pytest.raises(UnparseableResponseError):
            parse_model_response("TYPE: ideographic", "typed_classification")

    def test_interpretation_required(self):
        fields = parse_model_response(
            "TYPE: ideographic\nREASON: r\nINTERPRETATION: 此字像双手奉酉。",
            "interpretation",
        )
        assert fields["interpretation"] == "此字像双手奉酉。"
        assert fields["type"] is InscriptionType.IDEOGRAPHIC
        with pytest.raises(UnparseableResponseError):
            parse_model_response("REASON: only", "interpretation")

    def test_interpretation_bad_optional_type_tolerated(self):
        fields = parse_model_response("TYPE: junk\nINTERPRETATION: x", "interpretation")
        assert fields["type"] is None
        assert fields["interpretation"] == "x"

    def test_judge_score(self):
        assert parse_model_response("Score: 0.66", "judge_score")["score"] == 0.66

    def test_judge_score_rounding(self):
        assert parse_model_response("Score: 0.923", "judge_score")["score"] == 0.92

    def test_judge_score_out_of_range(self):
        for raw in ("Score: 1.5", "Score: -0.1"):
            with pytest.raises(UnparseableResponseError):
                parse_model_response(raw, "judge_score")

    def test_judge_score_missing(self):
        with pytest.raises(UnparseableResponseError):
            parse_model_response("I rate it highly", "judge_score")

    def test_empty_response(self):
        with pytest.raises(UnparseableResponseError):
            parse_model_response("", "typed_classification")

    def test_byte_offset_counts_multibyte_prefix(self):
        raw = "前言。TYPE: bogus\nREASON: x"
        with pytest.raises(UnparseableResponseError) as exc:
            parse_model_response(raw, "typed_classification")
        assert exc.value.offset == len("前言。TYPE: ".encode("utf-8"))


class TestPromptRendering:
    @pytest.mark.parametrize(
        "name", ["type_inference.zh", "type_inference.en", "interpret_vlm.zh", "reasoner.en"]
    )
    def test_golden_snapshot(self, name):
        lang = name.rsplit(".", 1)[1]
        prompt = load_template(name).render(
            predictions=render_predictions(PREDICTED.entries),
            evidence=render_evidence(BUNDLE.items, lang),
        )
        golden = (GOLDENS / f"{name}.prompt.txt").read_text(encoding="utf-8")
        assert prompt.encode("utf-8") == golden.encode("utf-8")

    def test_empty_evidence_marker(self):
        assert render_evidence((), "en") == "(no retrieved evidence)"
        assert render_evidence((), "zh") == "（无检索证据）"


class TestInferRelationship:
    def test_canned_parse(self):
        backend = ScriptedChatBackend(["TYPE: ideographic\nREASON: 双手会意"])
        typed = infer_relationship(backend, b"img", PREDICTED, BUNDLE, lang="zh")
        assert typed.inscription_type is InscriptionType.IDEOGRAPHIC
        assert typed.reasoning == "双手会意"
        assert typed.retried is False
        assert len(backend.requests) == 1
        assert backend.requests[0].messages[0].image_b64 is not None

    def test_retry_corrects_malformed_reply(self):
        backend = ScriptedChatBackend(
            ["TYPE: pictograph\nREASON: wrong enum", "TYPE: pictographic\nREASON: fixed"]
        )
        typed = infer_relationship(backend, None, PREDICTED, BUNDLE, lang="en")
        assert typed.inscription_type is InscriptionType.PICTOGRAPHIC
        assert typed.retried is True
        assert len(backend.requests) == 2
        # corrective follow-up keeps the conversation and instructs the format
        followup = backend.requests[1]
        assert followup.messages[-2].role == "assistant"
        assert "TYPE:" in followup.messages[-1].content

    def test_retry_exhausted_raises(self):
        backend = ScriptedChatBackend(["garbage", "still garbage"])
        with pytest.raises(UnparseableResponseError):
            infer_relationship(backend, None, PREDICTED, BUNDLE, lang="en")

    def test_usage_sums_across_retry(self):
        backend = ScriptedChatBackend(["nope", "TYPE: ideographic\nREASON: ok"])
        typed = infer_relationship(backend, None, PREDICTED, BUNDLE, lang="en")
        assert typed.token_usage.prompt > 0
        assert typed.token_usage.completion > 0

    def test_image_with_text_only_backend(self):
        backend = ScriptedChatBackend(["x"], supports_images=False)
        with pytest.raises(ImageRequiredButUnsupportedError):
            infer_relationship(backend, b"img", PREDICTED, BUNDLE)


class TestGenerateVlm:
    def test_fields_populated(self):
        backend = ScriptedChatBackend(
            ["TYPE: ideographic\nREASON: 结构\nINTERPRETATION: 手持工具之形。"]
        )
        result = generate_interpretation_vlm(backend, b"img", PREDICTED, BUNDLE, lang="zh")
        assert result.mode == "vlm"
        assert result.interpretation == "手持工具之形。"
        assert result.inscription_type is InscriptionType.IDEOGRAPHIC
        assert result.character_ref == "char0099"
        assert result.evidence_used == (0, 1)
        assert result.backend_names == (backend.name,)
        assert len(backend.requests) == 1  # exactly one call in vlm mode

    def test_prompt_contains_exactly_the_bundle_items(self):
        backend = ScriptedChatBackend(["INTERPRETATION: ok"])
        generate_interpretation_vlm(backend, b"img", PREDICTED, BUNDLE, lang="zh")
        prompt = backend.requests[0].messages[0].content
        for item in BUNDLE.items:
            assert item.subject in prompt
            assert item.content in prompt
        assert prompt.count("[0]") == 1 and prompt.count("[1]") == 1

    def test_empty_evidence_never_crashes(self):
        backend = ScriptedChatBackend(["INTERPRETATION: 臆测之解。"])
        result = generate_interpretation_vlm(backend, b"img", PREDICTED, EMPTY_BUNDLE, lang="zh")
        assert result.evidence_used == ()
        assert "（无检索证据）" in backend.requests[0].messages[0].content

    def test_requires_image_backend(self):
        backend = ScriptedChatBackend(["x"], supports_images=False)
        with pytest.raises(ImageRequiredButUnsupportedError):
            generate_interpretation_vlm(backend, b"img", PREDICTED, BUNDLE)

    def test_result_json_round_trip(self):
        backend = ScriptedChatBackend(["TYPE: pictographic\nREASON: r\nINTERPRETATION: i"])
        result = generate_interpretation_vlm(backend, b"img", PREDICTED, BUNDLE, lang="en")
        clone = InterpretationResult.from_json(result.to_json())
        assert clone == result


class TestParseToolPlan:
    def test_valid_plan(self):
        raw = "CALL component_explanation hand\nCALL characters_by_component roof"
        assert parse_tool_plan(raw) == [
            (ToolName.COMPONENT_EXPLANATION, "hand"),
            (ToolName.CHARACTERS_BY_COMPONENT, "roof"),
        ]

    def test_invalid_tool_name(self):
        assert parse_tool_plan("CALL delete_everything now") is None

    def test_no_call_lines(self):
        assert parse_tool_plan("I would just guess.") is None

    def test_prose_around_calls_tolerated(self):
        raw = "Plan:\nCALL component_explanation hand\nthat is all"
        assert parse_tool_plan(raw) == [(ToolName.COMPONENT_EXPLANATION, "hand")]


class TestMultiAgent:
    def setup_method(self):
        self.graph = mini_graph()
        self.cache = SemanticCache(StubEmbeddingProvider(dim=64))
        self.predicted = RankedPrediction((("hand", 0.1),))

    def test_planned_calls_shape_the_trace(self):
        retriever = ScriptedChatBackend(
            ["CALL component_explanation hand\nCALL characters_by_component hand"],
            name="planner",
        )
        reasoner = ScriptedChatBackend(
            ["TYPE: ideographic\nREASON: r\nINTERPRETATION: 综合释读。"], name="composer"
        )
        result, bundle = generate_interpretation_multiagent(
            retriever, reasoner, self.graph, self.predicted, self.cache,
            lang="zh", character_ref="charA",
        )
        assert result.mode == "multi_agent"
        assert result.retrieval_fallback is False
        assert bundle.trace == (
            (ToolName.COMPONENT_EXPLANATION, "hand"),
            (ToolName.CHARACTERS_BY_COMPONENT, "hand"),
        )
        assert result.backend_names == ("planner", "composer")

    def test_invalid_plan_falls_back_to_cascade(self):
        retriever = ScriptedChatBackend(["CALL rm_rf everything"], name="planner")
        reasoner = ScriptedChatBackend(["INTERPRETATION: ok"], name="composer")
        result, bundle = generate_interpretation_multiagent(
            retriever, reasoner, self.graph, self.predicted, self.cache,
            lang="en", character_ref="charA",
        )
        assert result.retrieval_fallback is True
        assert len(bundle.trace) == 2  # deterministic cascade ran instead

    def test_token_usage_attributed_and_summed(self, monkeypatch):
        monkeypatch.setattr(retrieval, "MIN_EVIDENCE", 1)  # the one planned item suffices
        retriever = ScriptedChatBackend(["CALL component_explanation hand"], name="planner")
        reasoner = ScriptedChatBackend(["INTERPRETATION: done"], name="composer")
        result, _ = generate_interpretation_multiagent(
            retriever, reasoner, self.graph, self.predicted, self.cache,
            lang="en",
        )
        parts = dict(result.usage_by_backend)
        total = TokenUsage()
        for usage in parts.values():
            total = total + usage
        assert total == result.token_usage
        assert set(parts) == {"planner", "composer"}
        assert len(result.backend_names) == 2

    def test_failure_attributed_to_agent(self):
        retriever = ScriptedChatBackend([], name="planner")  # exhausted
        reasoner = ScriptedChatBackend(["INTERPRETATION: x"], name="composer")
        with pytest.raises(BackendUnavailableError) as exc:
            generate_interpretation_multiagent(
                retriever, reasoner, self.graph, self.predicted, self.cache
            )
        assert exc.value.agent == "retriever"

    def test_reasoner_may_be_text_only(self, monkeypatch):
        monkeypatch.setattr(retrieval, "MIN_EVIDENCE", 1)  # the one planned item suffices
        retriever = ScriptedChatBackend(["CALL component_explanation hand"], name="planner")
        reasoner = ScriptedChatBackend(["INTERPRETATION: text only"], name="composer",
                                       supports_images=False)
        result, _ = generate_interpretation_multiagent(
            retriever, reasoner, self.graph, self.predicted, self.cache,
            lang="en",
        )
        assert result.interpretation == "text only"

    def test_more_tokens_than_vlm_on_same_fixture(self):
        # two-agent mode costs strictly more tokens than one-call vlm mode;
        # the exact multiple is reported, not asserted
        vlm_backend = OfflineChatBackend()
        vlm = generate_interpretation_vlm(vlm_backend, b"img", PREDICTED, BUNDLE, lang="zh")
        multi, _ = generate_interpretation_multiagent(
            OfflineChatBackend(), OfflineChatBackend(), self.graph, PREDICTED, self.cache,
            lang="zh",
        )
        def total(usage):
            return usage.prompt + usage.completion

        assert total(multi.token_usage) / total(vlm.token_usage) > 1.0


class _CountingOfflineBackend(OfflineChatBackend):
    def __init__(self):
        super().__init__()
        self.calls = 0

    def complete(self, request):
        self.calls += 1
        return super().complete(request)


class TestLanguageParametricity:
    @pytest.mark.parametrize("lang", ["zh", "en"])
    def test_both_languages_same_control_flow(self, lang):
        backend = _CountingOfflineBackend()
        typed = infer_relationship(backend, b"img", PREDICTED, BUNDLE, lang=lang)
        result = generate_interpretation_vlm(backend, b"img", PREDICTED, BUNDLE, lang=lang)
        assert typed.inscription_type in InscriptionType
        assert result.language == lang
        assert backend.calls == 2  # one per stage in both languages


class TestOfflineBackend:
    def test_deterministic_replies(self):
        a, b = OfflineChatBackend(), OfflineChatBackend()
        request = ChatRequest(
            messages=(ChatMessage(role="user", content="TYPE:\n- hand (distance=0.1000)"),)
        )
        assert a.complete(request).content == b.complete(request).content

    def test_plan_prompts_get_valid_plans(self):
        backend = OfflineChatBackend()
        prompt = load_template("retriever_plan.en").render(
            predictions=render_predictions(PREDICTED.entries)
        )
        reply = backend.complete(
            ChatRequest(messages=(ChatMessage(role="user", content=prompt),))
        )
        plan = parse_tool_plan(reply.content)
        assert plan is not None
        assert (ToolName.COMPONENT_EXPLANATION, "hand") in plan
