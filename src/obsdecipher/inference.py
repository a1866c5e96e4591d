"""Inscription-type inference and interpretation generation.

Two generation modes share the response grammar: single-call VLM inference
(image + component predictions + rendered evidence) and a two-agent mode
where a retrieval agent plans graph queries and a reasoning agent composes
the final interpretation from the serialized bundle. All replies must carry
``TYPE:`` / ``REASON:`` / ``INTERPRETATION:`` / ``Score:`` markers; parsing
is tolerant of surrounding prose but strict about the markers.
"""

from __future__ import annotations

import base64
import re
from dataclasses import dataclass
from enum import Enum
from typing import Annotated

from . import records
from .backends import ChatBackend, ChatMessage, ChatRequest, TokenUsage
from .classifier import RankedPrediction
from .errors import (
    BackendUnavailableError,
    EmptyInputError,
    ImageRequiredButUnsupportedError,
    UnparseableResponseError,
)
from .kg import KnowledgeGraph
from .retrieval import (
    EvidenceBundle,
    SemanticCache,
    ToolName,
    retrieve_evidence,
)
from .templates import load_template, render_evidence, render_predictions


class InscriptionType(Enum):
    IDEOGRAPHIC = "ideographic"
    PICTOGRAPHIC = "pictographic"
    PHONO_SEMANTIC = "phono-semantic"

    @classmethod
    def parse(cls, text: str) -> "InscriptionType":
        norm = text.strip().strip(".。").lower().replace("_", "-")
        for member in cls:
            if norm == member.value:
                return member
        raise ValueError(f"not an inscription type: {text!r}")


FORMAT_HINT_TYPED = "TYPE: <ideographic|pictographic|phono-semantic>\nREASON: <...>"
FORMAT_HINT_INTERPRETATION = (
    "TYPE: <ideographic|pictographic|phono-semantic>\nREASON: <...>\nINTERPRETATION: <...>"
)

_TYPE_RE = re.compile(r"TYPE:[ \t]*([^\n]+)")
_REASON_RE = re.compile(r"REASON:[ \t]*(.*?)(?=\n\s*(?:TYPE|INTERPRETATION|Score):|\Z)", re.S)
_INTERP_RE = re.compile(r"INTERPRETATION:[ \t]*(.*?)(?=\n\s*(?:TYPE|REASON|Score):|\Z)", re.S)
_SCORE_RE = re.compile(r"Score:[ \t]*([-+]?\d+(?:\.\d+)?)")


def _byte_offset(raw: str, char_index: int) -> int:
    return len(raw[:char_index].encode("utf-8"))


def parse_model_response(raw: str, expected: str) -> dict:
    """Extract structured fields from a backend reply.

    ``expected`` is one of ``typed_classification``, ``interpretation`` or
    ``judge_score``. Raises UnparseableResponseError carrying the byte
    offset of the first violation; never aborts on any input.
    """
    if not raw:
        raise UnparseableResponseError("empty response", offset=0)
    if expected == "typed_classification":
        m = _TYPE_RE.search(raw)
        if m is None:
            raise UnparseableResponseError("missing TYPE marker", offset=0)
        try:
            itype = InscriptionType.parse(m.group(1))
        except ValueError as exc:
            raise UnparseableResponseError(str(exc), offset=_byte_offset(raw, m.start(1))) from exc
        r = _REASON_RE.search(raw)
        if r is None:
            raise UnparseableResponseError(
                "missing REASON marker", offset=_byte_offset(raw, m.end())
            )
        return {"type": itype, "reason": r.group(1).strip()}
    if expected == "interpretation":
        i = _INTERP_RE.search(raw)
        if i is None:
            raise UnparseableResponseError("missing INTERPRETATION marker", offset=0)
        interpretation = i.group(1).strip()
        if not interpretation:
            raise UnparseableResponseError(
                "empty interpretation", offset=_byte_offset(raw, i.start(1))
            )
        result: dict = {"interpretation": interpretation, "type": None, "reason": ""}
        t = _TYPE_RE.search(raw)
        if t is not None:
            try:
                result["type"] = InscriptionType.parse(t.group(1))
            except ValueError:
                result["type"] = None  # optional field: tolerate junk
        r = _REASON_RE.search(raw)
        if r is not None:
            result["reason"] = r.group(1).strip()
        return result
    if expected == "judge_score":
        m = _SCORE_RE.search(raw)
        if m is None:
            raise UnparseableResponseError("missing Score marker", offset=0)
        value = float(m.group(1))
        if not (0.0 <= value <= 1.0):
            raise UnparseableResponseError(
                f"score {value} out of range [0, 1]", offset=_byte_offset(raw, m.start(1))
            )
        return {"score": round(value, 2)}
    raise ValueError(f"unknown expected grammar {expected!r}")


@dataclass(frozen=True)
class TypeInference:
    """Outcome of the inscription-type stage."""

    inscription_type: InscriptionType
    reasoning: str
    token_usage: TokenUsage
    retried: bool
    template_id: str


@dataclass(frozen=True)
class InterpretationResult:
    character_ref: str
    inscription_type: InscriptionType | None
    reasoning_trace: Annotated[str, records.Absent("")]
    interpretation: str
    evidence_used: tuple[int, ...]
    mode: str  # "vlm" | "multi_agent"
    backend_names: tuple[str, ...]
    language: Annotated[str, records.Absent("zh")]
    template_ids: tuple[str, ...] = ()
    usage_by_backend: tuple[tuple[str, TokenUsage], ...] = ()
    retrieval_fallback: bool = False

    @property
    def token_usage(self) -> TokenUsage:
        """Tokens over every backend call, the sum of ``usage_by_backend``."""
        return sum((usage for _, usage in self.usage_by_backend), TokenUsage())

    def to_json(self) -> dict:
        token_usage = records.encode(self.token_usage, {})
        return records.encode(self, {"schema_version": 1, "token_usage": token_usage})

    @classmethod
    def from_json(cls, doc: object) -> "InterpretationResult":
        """Read a result file's document; a field of the wrong JSON type
        raises MalformedInputError."""
        return records.decode(cls, doc, "interpretation result")


def _user_message(prompt: str, image: bytes | None) -> ChatMessage:
    image_b64 = base64.b64encode(image).decode("ascii") if image else None
    return ChatMessage(role="user", content=prompt, image_b64=image_b64)


def _complete_with_retry(
    backend: ChatBackend,
    messages: list[ChatMessage],
    expected: str,
    format_hint: str,
    lang: str,
) -> tuple[dict, TokenUsage, bool]:
    """One call plus at most one corrective retry on a malformed reply."""
    request = ChatRequest(messages=tuple(messages))
    resp = backend.complete(request)
    usage = resp.usage
    try:
        return parse_model_response(resp.content, expected), usage, False
    except UnparseableResponseError:
        retry_prompt = load_template(f"parse_retry.{lang}").render(format_hint=format_hint)
        followup = messages + [
            ChatMessage(role="assistant", content=resp.content),
            ChatMessage(role="user", content=retry_prompt),
        ]
        second = backend.complete(ChatRequest(messages=tuple(followup)))
        usage = usage + second.usage
        return parse_model_response(second.content, expected), usage, True


def infer_relationship(
    backend: ChatBackend,
    image: bytes | None,
    predicted: RankedPrediction,
    evidence: EvidenceBundle,
    lang: str = "zh",
) -> TypeInference:
    """Classify the character's formation type with a reasoning trace."""
    if image is not None and not backend.supports_images:
        raise ImageRequiredButUnsupportedError(
            f"backend {backend.name!r} cannot accept the supplied image"
        )
    template = load_template(f"type_inference.{lang}")
    prompt = template.render(
        predictions=render_predictions(predicted.entries),
        evidence=render_evidence(evidence.items, lang),
    )
    fields, usage, retried = _complete_with_retry(
        backend, [_user_message(prompt, image)], "typed_classification", FORMAT_HINT_TYPED, lang
    )
    return TypeInference(
        inscription_type=fields["type"],
        reasoning=fields["reason"],
        token_usage=usage,
        retried=retried,
        template_id=template.template_id,
    )


def generate_interpretation_vlm(
    backend: ChatBackend,
    image: bytes,
    predicted: RankedPrediction,
    evidence: EvidenceBundle,
    lang: str = "zh",
) -> InterpretationResult:
    """Single-call VLM mode: image + predictions + evidence in one prompt.

    Exactly one backend call is made; a malformed reply raises rather than
    triggering a retry, preserving the one-call contract of this mode.
    """
    if not backend.supports_images:
        raise ImageRequiredButUnsupportedError(
            f"backend {backend.name!r} does not accept images; vlm mode requires one"
        )
    if not image:
        raise EmptyInputError("vlm mode requires the character image bytes")
    template = load_template(f"interpret_vlm.{lang}")
    prompt = template.render(
        predictions=render_predictions(predicted.entries),
        evidence=render_evidence(evidence.items, lang),
    )
    resp = backend.complete(ChatRequest(messages=(_user_message(prompt, image),)))
    fields = parse_model_response(resp.content, "interpretation")
    return InterpretationResult(
        character_ref=evidence.character_ref,
        inscription_type=fields["type"],
        reasoning_trace=fields["reason"],
        interpretation=fields["interpretation"],
        evidence_used=tuple(item.rank for item in evidence.items),
        mode="vlm",
        backend_names=(backend.name,),
        language=lang,
        template_ids=(template.template_id,),
        usage_by_backend=((backend.name, resp.usage),),
    )


_PLAN_LINE_RE = re.compile(r"(?m)^\s*CALL\s+(\S+)\s+(.+?)\s*$")

_VALID_TOOLS = {t.value for t in ToolName}


def parse_tool_plan(raw: str) -> list[tuple[ToolName, str]] | None:
    """Parse agent-planned CALL lines; None signals a malformed plan.

    A plan is valid when it contains at least one CALL line and every CALL
    line names one of the two external tools.
    """
    matches = _PLAN_LINE_RE.findall(raw)
    if not matches:
        return None
    calls: list[tuple[ToolName, str]] = []
    for tool, argument in matches:
        if tool not in _VALID_TOOLS:
            return None
        calls.append((ToolName(tool), argument))
    return calls


def generate_interpretation_multiagent(
    retriever: ChatBackend,
    reasoner: ChatBackend,
    graph: KnowledgeGraph,
    predicted: RankedPrediction,
    cache: SemanticCache,
    lang: str = "zh",
    character_ref: str = "",
) -> tuple[InterpretationResult, EvidenceBundle]:
    """Two-agent mode: plan-and-retrieve, then synthesize.

    The retrieval agent proposes tool calls constrained to the two external
    tools; a malformed plan falls back to the deterministic cascade and the
    result is flagged. Both agents are text-only. Token usage is attributed
    per agent and summed into the total.
    """
    plan_template = load_template(f"retriever_plan.{lang}")
    plan_prompt = plan_template.render(predictions=render_predictions(predicted.entries))
    try:
        plan_resp = retriever.complete(
            ChatRequest(messages=(ChatMessage(role="user", content=plan_prompt),))
        )
    except BackendUnavailableError as exc:
        exc.agent = "retriever"
        raise
    retriever_usage = plan_resp.usage
    calls = parse_tool_plan(plan_resp.content)
    fallback = calls is None

    bundle = retrieve_evidence(
        graph,
        predicted,
        cache,
        character_ref=character_ref,
        planned_calls=calls,
    )

    reasoner_template = load_template(f"reasoner.{lang}")
    reasoner_prompt = reasoner_template.render(
        predictions=render_predictions(predicted.entries),
        evidence=render_evidence(bundle.items, lang),
    )
    try:
        fields, reasoner_usage, _ = _complete_with_retry(
            reasoner,
            [ChatMessage(role="user", content=reasoner_prompt)],
            "interpretation",
            FORMAT_HINT_INTERPRETATION,
            lang,
        )
    except BackendUnavailableError as exc:
        exc.agent = "reasoner"
        raise
    except UnparseableResponseError as exc:
        raise UnparseableResponseError(
            f"reasoner reply unparseable: {exc}", offset=exc.offset
        ) from exc

    result = InterpretationResult(
        character_ref=character_ref or bundle.character_ref,
        inscription_type=fields["type"],
        reasoning_trace=fields["reason"],
        interpretation=fields["interpretation"],
        evidence_used=tuple(item.rank for item in bundle.items),
        mode="multi_agent",
        backend_names=(retriever.name, reasoner.name),
        language=lang,
        template_ids=(plan_template.template_id, reasoner_template.template_id),
        usage_by_backend=((retriever.name, retriever_usage), (reasoner.name, reasoner_usage)),
        retrieval_fallback=fallback,
    )
    return result, bundle
