import random
from collections import Counter

import numpy as np
import pytest

from obsdecipher.backends import TokenUsage
from obsdecipher.dataset import CharacterRecord
from obsdecipher.embedding import EmbeddingVector, StubEmbeddingProvider
from obsdecipher.errors import AlignmentError, ConfigError
from obsdecipher.inference import InscriptionType, InterpretationResult
from obsdecipher.metrics import embedding_f1, mover_score, rouge1_f1, tokenize
from obsdecipher.report import EvalConfig, evaluate_run

from conftest import ScriptedChatBackend


def result(ref, interpretation, itype=InscriptionType.IDEOGRAPHIC):
    return InterpretationResult(
        character_ref=ref,
        inscription_type=itype,
        reasoning_trace="trace",
        interpretation=interpretation,
        evidence_used=(0,),
        mode="vlm",
        backend_names=("mock",),
        language="zh",
        usage_by_backend=(("mock", TokenUsage(10, 5)),),
    )


def gold(ref, interpretation, itype="ideographic"):
    return CharacterRecord(
        character_id=ref,
        image_ref=f"{ref}.png",
        component_labels=("hand",),
        interpretation=interpretation,
        inscription_type=itype,
    )


@pytest.fixture(scope="module")
def provider():
    return StubEmbeddingProvider(dim=32)


def test_empty_results_rejected(provider):
    with pytest.raises(AlignmentError):
        evaluate_run([], [gold("a", "x")], EvalConfig(), provider=provider)


def test_missing_gold_rejected(provider):
    with pytest.raises(AlignmentError):
        evaluate_run([result("a", "x")], [gold("b", "y")], EvalConfig(), provider=provider)


def test_single_item_aggregate_equals_item(provider):
    results = [result("a", "手持戈")]
    report = evaluate_run(results, [gold("a", "手持戈守")], EvalConfig(), provider=provider)
    assert report.aggregate == report.per_item[0]["scores"]
    assert report.metadata["items"] == 1
    # a fully scored report has no failures key, so its bytes are the old ones
    assert report.failures == ()
    assert "failures" not in report.to_json()


def test_scores_match_direct_metric_calls(provider):
    pairs = [("a", "从手从木", "从又持木"), ("b", "双手奉酉", "两手捧酉尊")]
    results = [result(ref, cand) for ref, cand, _ in pairs]
    records = [gold(ref, refr) for ref, _, refr in pairs]
    report = evaluate_run(results, records, EvalConfig(), provider=provider)
    for (ref, cand, refr), item in zip(pairs, report.per_item):
        c, g = tokenize(cand, "zh"), tokenize(refr, "zh")
        assert item["scores"]["rouge1"] == rouge1_f1(c, g)
        assert item["scores"]["embedding_f1"] == embedding_f1(c, g, provider)
        assert item["scores"]["mover"] == mover_score(c, g, provider)
    for name in ("rouge1", "embedding_f1", "mover"):
        mean = sum(i["scores"][name] for i in report.per_item) / len(report.per_item)
        assert report.aggregate[name] == pytest.approx(mean)


def test_judge_metric_uses_backend(provider):
    backend = ScriptedChatBackend(["Score: 0.75"])
    report = evaluate_run(
        [result("a", "x")],
        [gold("a", "y")],
        EvalConfig(metrics=("judge",)),
        judge_backend=backend,
    )
    assert report.aggregate["judge"] == 0.75
    assert report.metadata["judge_backend"] == backend.name


def test_type_accuracy(provider):
    results = [
        result("a", "x", InscriptionType.IDEOGRAPHIC),
        result("b", "y", InscriptionType.PICTOGRAPHIC),
    ]
    records = [gold("a", "x", "ideographic"), gold("b", "y", "phono-semantic")]
    report = evaluate_run(results, records, EvalConfig(metrics=("type_acc",)), provider=provider)
    assert report.aggregate["type_acc"] == pytest.approx(0.5)


I, P, S = InscriptionType.IDEOGRAPHIC, InscriptionType.PICTOGRAPHIC, InscriptionType.PHONO_SEMANTIC


def test_type_accuracy_three_of_five(provider):
    predicted = [I, P, S, I, P]
    expected = ["ideographic", "pictographic", "phono-semantic", "pictographic", "ideographic"]
    refs = [f"c{i}" for i in range(5)]
    report = evaluate_run(
        [result(ref, "x", itype) for ref, itype in zip(refs, predicted)],
        [gold(ref, "x", itype) for ref, itype in zip(refs, expected)],
        EvalConfig(metrics=("type_acc",)),
    )
    assert report.aggregate["type_acc"] == pytest.approx(0.6)


def test_type_accuracy_skips_items_without_a_type(provider):
    results = [result("a", "x", I), result("b", "x", None), result("c", "x", P)]
    records = [gold("a", "x", "ideographic"), gold("b", "x", "ideographic"), gold("c", "x", None)]
    report = evaluate_run(results, records, EvalConfig(metrics=("type_acc",)))
    assert [item["scores"] for item in report.per_item] == [{"type_match": 1.0}, {}, {}]
    assert report.aggregate == {"type_match": 1.0, "type_acc": 1.0}


def test_type_accuracy_is_the_mean_of_the_type_matches(provider):
    kinds = [I, P, S]
    rng = random.Random(5)
    refs = [f"c{i}" for i in range(7)]
    report = evaluate_run(
        [result(ref, "x", rng.choice(kinds)) for ref in refs],
        [gold(ref, "x", rng.choice(kinds).value) for ref in refs],
        EvalConfig(metrics=("type_acc",)),
    )
    matches = [item["scores"]["type_match"] for item in report.per_item]
    assert report.aggregate["type_acc"] == report.aggregate["type_match"]
    assert report.aggregate["type_acc"] == int(sum(matches)) / len(matches)


def test_unknown_metric_rejected():
    with pytest.raises(ConfigError):
        EvalConfig(metrics=("bleu",))


def test_embedding_metric_requires_provider():
    with pytest.raises(ConfigError):
        evaluate_run([result("a", "x")], [gold("a", "y")], EvalConfig(metrics=("embedding_f1",)))


def test_report_table_lists_all_aggregates(provider):
    report = evaluate_run([result("a", "甲")], [gold("a", "甲")], EvalConfig(), provider=provider)
    table = report.to_table()
    for name in report.aggregate:
        assert name in table


class CountingProvider(StubEmbeddingProvider):
    """The stub, counting embed_text calls per text; ``zero`` embeds to 0."""

    def __init__(self, dim=32, salt="", zero=None):
        super().__init__(dim)
        self.salt = salt
        self.zero = zero
        self.calls = Counter()

    def embed_text(self, text):
        self.calls[text] += 1
        if text == self.zero:
            return EmbeddingVector(np.zeros(self.dim))
        return super().embed_text(self.salt + text)


def test_each_distinct_token_is_embedded_once_per_run():
    pairs = [("a", "从手从木手", "从又持木"), ("b", "手持木", "两手捧酉尊"), ("c", "从从从", "从又")]
    counting = CountingProvider()
    evaluate_run(
        [result(ref, cand) for ref, cand, _ in pairs],
        [gold(ref, refr) for ref, _, refr in pairs],
        EvalConfig(),
        provider=counting,
    )
    tokens = {tok for _, cand, refr in pairs for tok in cand + refr}
    assert counting.calls == Counter({tok: 1 for tok in tokens})


def test_the_memo_does_not_outlive_a_run():
    # same provider name, other vectors: a memo kept across runs would score both alike
    reports = [
        evaluate_run(
            [result("a", "从手从木")], [gold("a", "从又持木")],
            EvalConfig(metrics=("embedding_f1",)), provider=CountingProvider(salt=salt),
        )
        for salt in ("", "salted:")
    ]
    assert len({r.metadata["embedding_provider"] for r in reports}) == 1
    assert reports[0].aggregate["embedding_f1"] != reports[1].aggregate["embedding_f1"]


def test_a_failing_item_is_reported_and_the_rest_scored():
    results = [result("a", "手持戈"), result("ghost", "手"), result("z", "零落")]
    records = [gold("a", "手持戈守"), gold("z", "落叶")]
    report = evaluate_run(results, records, EvalConfig(), provider=CountingProvider(zero="零"))
    assert [item["character_ref"] for item in report.per_item] == ["a"]
    assert report.aggregate == report.per_item[0]["scores"]
    assert report.metadata["items"] == 1
    assert report.failures == (
        {"character_ref": "ghost", "error": "AlignmentError: no gold record for character 'ghost'"},
        {"character_ref": "z", "error": "ZeroNormError: token embedding with zero norm"},
    )
    assert report.to_json()["failures"] == list(report.failures)
    assert "2 of 3 items failed" in report.to_table()
