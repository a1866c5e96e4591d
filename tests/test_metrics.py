import math
import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment, linprog

import obsdecipher.metrics as metrics_mod
from obsdecipher.embedding import (
    EmbeddingProvider,
    EmbeddingVector,
    StubEmbeddingProvider,
    embed_text,
)
from obsdecipher.errors import (
    EmptyInputError,
    ProblemTooLargeError,
    UnparseableResponseError,
)
from obsdecipher.metrics import (
    TokenSequence,
    _entering_cell,
    _exact_transport_cost,
    embedding_f1,
    llm_judge,
    mover_score,
    rouge1_f1,
    tokenize,
)
from obsdecipher.templates import load_template

from conftest import ScriptedChatBackend, cosine_similarity


def toks(*tokens):
    return TokenSequence(tuple(tokens))


@pytest.fixture(scope="module")
def provider():
    return StubEmbeddingProvider(dim=48)


class TestTokenize:
    def test_chinese_character_level(self):
        assert tokenize("甲骨 文字", "zh").tokens == ("甲", "骨", "文", "字")

    def test_english_lowercase_whitespace(self):
        assert tokenize("The Hand  HOLDS", "en").tokens == ("the", "hand", "holds")


class TestRouge1:
    def test_identity(self):
        s = toks("a", "b", "c")
        assert rouge1_f1(s, s) == 1.0

    def test_disjoint(self):
        assert rouge1_f1(toks("a", "b"), toks("x", "y")) == 0.0

    def test_manual_clipped_computation(self):
        # (a,b,c) vs (a,b,d): overlap 2, P=R=2/3, F1=2/3
        assert rouge1_f1(toks("a", "b", "c"), toks("a", "b", "d")) == pytest.approx(2 / 3)

    def test_empty_candidate_scores_zero(self):
        assert rouge1_f1(toks(), toks("a")) == 0.0

    def test_empty_reference_rejected(self):
        with pytest.raises(EmptyInputError, match="reference token sequence is empty"):
            rouge1_f1(toks("a"), toks())

    def test_repetition_is_clipped(self):
        # candidate repeats "a" 5 times; reference has it twice: overlap clips at 2
        score = rouge1_f1(toks(*["a"] * 5), toks("a", "a", "b"))
        p, r = 2 / 5, 2 / 3
        assert score == pytest.approx(2 * p * r / (p + r))

    @given(
        cand=st.lists(st.sampled_from("abcde"), min_size=1, max_size=12),
        ref=st.lists(st.sampled_from("abcde"), min_size=1, max_size=12),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_clipped_count_oracle(self, cand, ref):
        c, r = Counter(cand), Counter(ref)
        overlap = sum(min(n, r[t]) for t, n in c.items())
        p, rec = overlap / len(cand), overlap / len(ref)
        want = 0.0 if p + rec == 0 else 2 * p * rec / (p + rec)
        assert rouge1_f1(toks(*cand), toks(*ref)) == pytest.approx(want)


class TestEmbeddingF1:
    def test_identity(self, provider):
        s = tokenize("甲骨文字考释", "zh")
        assert embedding_f1(s, s, provider) == pytest.approx(1.0, abs=1e-12)

    def test_single_token_reduces_to_cosine(self, provider):
        a, b = toks("手"), toks("持")
        want = cosine_similarity(embed_text(provider, "手"), embed_text(provider, "持"))
        got = embedding_f1(a, b, provider)
        # F1 of equal P=R=cos collapses to cos
        assert got == pytest.approx(want, abs=1e-12)

    def test_matches_nested_loop_oracle(self, provider):
        rng = random.Random(11)
        for trial in range(100):
            cand = tuple(f"c{trial}_{i}" for i in range(rng.randint(1, 5)))
            ref = tuple(f"r{trial}_{i}" for i in range(rng.randint(1, 7)))

            def cos(a, b):
                num = sum(x * y for x, y in zip(a, b))
                return num / (math.sqrt(sum(x * x for x in a)) * math.sqrt(sum(y * y for y in b)))

            A = [embed_text(provider, t).values.tolist() for t in cand]
            B = [embed_text(provider, t).values.tolist() for t in ref]
            p = sum(max(cos(a, b) for b in B) for a in A) / len(A)
            r = sum(max(cos(a, b) for a in A) for b in B) / len(B)
            want = 0.0 if p + r == 0 else 2 * p * r / (p + r)
            got = embedding_f1(TokenSequence(cand), TokenSequence(ref), provider)
            assert abs(got - want) <= 1e-12

    def test_empty_rejected(self, provider):
        with pytest.raises(EmptyInputError):
            embedding_f1(toks(), toks("a"), provider)


class TestMoverScore:
    def test_identity(self, provider):
        s = tokenize("从手从屋会意", "zh")
        assert mover_score(s, s, provider) == 1.0

    def test_permutation_of_tokens_still_one(self, provider):
        assert mover_score(toks("a", "b", "c"), toks("c", "a", "b"), provider) == 1.0

    def test_matches_assignment_oracle_on_equal_length(self, provider):
        rng = random.Random(12)
        for trial in range(25):
            n = 6
            cand = tuple(f"tok{trial}_{i}" for i in range(n))
            ref = tuple(f"ref{trial}_{i}" for i in range(n))
            A = np.stack([embed_text(provider, t).values for t in cand])
            B = np.stack([embed_text(provider, t).values for t in ref])
            A = A / np.linalg.norm(A, axis=1, keepdims=True)
            B = B / np.linalg.norm(B, axis=1, keepdims=True)
            C = np.linalg.norm(A[:, None, :] - B[None, :, :], axis=2)
            rows, cols = linear_sum_assignment(C)
            want = 1.0 - C[rows, cols].sum() / n
            got = mover_score(TokenSequence(cand), TokenSequence(ref), provider)
            assert abs(got - want) <= 1e-9

    def test_symmetric(self, provider):
        a, b = toks("x", "y", "z"), toks("p", "q")
        assert mover_score(a, b, provider) == pytest.approx(mover_score(b, a, provider), abs=1e-9)

    def test_too_many_distinct_tokens(self, provider):
        big = TokenSequence(tuple(f"t{i}" for i in range(65)))
        with pytest.raises(ProblemTooLargeError):
            mover_score(big, toks("a"), provider)

    def test_empty_rejected(self, provider):
        with pytest.raises(EmptyInputError):
            mover_score(toks("a"), toks(), provider)


def linprog_transport_cost(cost, supply, demand):
    """The transport cost as HiGHS finds it through ``scipy.optimize.linprog``,
    on the probability masses the solver's integer masses stand for.

    HiGHS's default feasibility tolerances (1e-7) let it stop at a vertex up to
    about 1e-9 above the optimum of a 64×64 assignment, so they are set to their
    floor of 1e-10, at which it meets ``linear_sum_assignment`` within 1e-15."""
    n, m = cost.shape
    a_eq = np.zeros((n + m - 1, n * m))  # the last column's constraint is implied
    for i in range(n):
        a_eq[i, i * m : (i + 1) * m] = 1.0
    for j in range(m - 1):
        a_eq[n + j, j::m] = 1.0
    b_eq = np.array([*supply, *demand[:-1]], dtype=np.float64) / sum(supply)
    result = linprog(
        cost.reshape(-1), A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs",
        options={"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10},
    )
    assert result.success, result.message
    return result.fun


@st.composite
def transport_problems(draw):
    """Costs between unit vectors and integer masses as ``mover_score`` builds
    them: one row per candidate token, one column per reference token."""
    size = st.integers(2, 12)
    n, m = draw(st.one_of(
        st.tuples(st.just(1), size), st.tuples(size, st.just(1)), st.just((64, 64)),
        st.tuples(size, size),
    ))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # few dimensions make near and exact cost ties likely
    rows = rng.standard_normal((n, draw(st.integers(2, 8))))
    cols = rng.standard_normal((m, rows.shape[1]))
    shared = draw(st.integers(0, min(n, m)))  # tokens on both sides: cost 0
    cols[:shared] = rows[rng.permutation(n)[:shared]]
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    cols /= np.linalg.norm(cols, axis=1, keepdims=True)
    cost = np.linalg.norm(rows[:, None, :] - cols[None, :, :], axis=2)
    ties = draw(st.sampled_from(["none", "rounded", "all equal"]))
    if ties == "rounded":
        cost = np.round(cost, 1)
    elif ties == "all equal":
        cost = np.full((n, m), np.sqrt(2.0))
    if draw(st.booleans()):  # every token once: equal masses on each side
        cand, ref = [1] * n, [1] * m
    else:
        cand = draw(st.lists(st.integers(1, 4), min_size=n, max_size=n))
        ref = draw(st.lists(st.integers(1, 4), min_size=m, max_size=m))
    return cost, [c * sum(ref) for c in cand], [r * sum(cand) for r in ref]


class TestExactTransport:
    @given(problem=transport_problems())
    @settings(max_examples=150, deadline=None)
    def test_matches_linprog(self, problem):
        cost, supply, demand = problem
        got = _exact_transport_cost(cost, supply, demand)
        assert abs(got - linprog_transport_cost(cost, supply, demand)) <= 1e-12

    @given(
        cand=st.lists(st.sampled_from("甲乙丙丁戊己"), min_size=1, max_size=20),
        ref=st.lists(st.sampled_from("甲乙丙丁戊己庚辛"), min_size=1, max_size=20),
    )
    @settings(max_examples=100, deadline=None)
    def test_mover_score_matches_linprog_on_shared_tokens(self, provider, cand, ref):
        got = mover_score(toks(*cand), toks(*ref), provider)
        cand_vocab, ref_vocab = sorted(set(cand)), sorted(set(ref))
        a = np.stack([embed_text(provider, t).values for t in cand_vocab])
        b = np.stack([embed_text(provider, t).values for t in ref_vocab])
        a = a / np.linalg.norm(a, axis=1, keepdims=True)
        b = b / np.linalg.norm(b, axis=1, keepdims=True)
        cost = np.linalg.norm(a[:, None, :] - b[None, :, :], axis=2)
        supply = [cand.count(t) * len(ref) for t in cand_vocab]
        demand = [ref.count(t) * len(cand) for t in ref_vocab]
        assert abs(got - (1.0 - linprog_transport_cost(cost, supply, demand))) <= 1e-12

    def test_a_64_by_64_assignment_ends_at_the_optimum(self):
        # on this grid HiGHS at its default tolerances stops 8.7e-10 above the optimum
        rng = np.random.default_rng(21)
        rows, cols = rng.standard_normal((64, 2)), rng.standard_normal((64, 2))
        rows /= np.linalg.norm(rows, axis=1, keepdims=True)
        cols /= np.linalg.norm(cols, axis=1, keepdims=True)
        cost = np.linalg.norm(rows[:, None, :] - cols[None, :, :], axis=2)
        r, c = linear_sum_assignment(cost)
        got = _exact_transport_cost(cost, [64] * 64, [64] * 64)
        assert abs(got - cost[r, c].sum() / 64) <= 1e-12

    def test_one_cell(self):
        assert _exact_transport_cost(np.array([[0.25]]), [3], [3]) == 0.25

    def test_a_degenerate_assignment_ends_at_the_optimum(self):
        # every mass is 1, so the greedy start holds 4 zero flows; 6 of the
        # 7 pivots move no flow, the last 5 in a row
        cost = np.array([
            [3, 3, 1, 0, 3],
            [1, 2, 3, 0, 2],
            [3, 0, 0, 0, 1],
            [1, 1, 3, 1, 3],
            [3, 0, 3, 0, 3],
        ], dtype=np.float64)
        rows, cols = linear_sum_assignment(cost)
        assert _exact_transport_cost(cost, [1] * 5, [1] * 5) == cost[rows, cols].sum() / 5

    def test_entering_rules(self):
        reduced = np.array([[0.0, -1.0], [-3.0, -2e-12]])
        assert _entering_cell(reduced, bland=False) == 2  # the least reduced cost
        assert _entering_cell(reduced, bland=True) == 1  # the lowest index below -_TOL
        for bland in (False, True):
            assert _entering_cell(np.array([[0.0, -1e-13], [2.0, 0.0]]), bland) is None

    @given(problem=transport_problems())
    @settings(max_examples=50, deadline=None)
    def test_blands_rule_alone_ends_at_the_optimum(self, problem):
        # no instance is known on which Dantzig's pivots here repeat a basis,
        # so the branch that switches to Bland's rule is forced from the start
        cost, supply, demand = problem
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(metrics_mod, "_entering_cell",
                          lambda reduced, bland: _entering_cell(reduced, True))
            got = _exact_transport_cost(cost, supply, demand)
        assert abs(got - linprog_transport_cost(cost, supply, demand)) <= 1e-12


class TableProvider(EmbeddingProvider):
    """Embeds each token as the vector its table gives it."""

    name = "table"

    def __init__(self, table):
        self.table = {tok: np.asarray(v, dtype=np.float64) for tok, v in table.items()}
        self.dim = len(next(iter(self.table.values())))

    def embed_image(self, image):
        raise NotImplementedError

    def embed_text(self, text):
        return EmbeddingVector(self.table[text])


class TestMoverScoreRange:
    """Unit-vector Euclidean costs lie in [0, 2], so the score lies in [-1, 1]."""

    def test_identical_distributions_score_one(self):
        provider = TableProvider({"a": [1.0, 0.0], "b": [0.0, 1.0]})
        assert mover_score(toks("a", "b", "a"), toks("b", "a", "a"), provider) == 1.0

    def test_antipodal_tokens_score_minus_one(self):
        provider = TableProvider({"up": [0.0, 3.0], "down": [0.0, -0.5]})
        assert mover_score(toks("up"), toks("down"), provider) == pytest.approx(-1.0, abs=1e-12)

    def test_random_token_sets_stay_in_range(self):
        rng = np.random.default_rng(16)
        vectors = rng.standard_normal((6, 3))
        # each token's antipode is in the table too, so costs reach 2
        table = {f"t{i}": v for i, v in enumerate(vectors)}
        table.update({f"-t{i}": -v for i, v in enumerate(vectors)})
        provider = TableProvider(table)
        names = sorted(table)
        scores = []
        for _ in range(60):
            cand = toks(*rng.choice(names, size=rng.integers(1, 6)))
            ref = toks(*rng.choice(names, size=rng.integers(1, 6)))
            scores.append(mover_score(cand, ref, provider))
        # the LP solution may overshoot the exact optimum by rounding only
        assert all(-1.0 - 1e-9 <= s <= 1.0 + 1e-9 for s in scores)
        assert min(scores) < 0.0


class TestLlmJudge:
    def test_parses_score(self):
        backend = ScriptedChatBackend(["Score: 0.92"])
        assert llm_judge(backend, "候选释读", "参考释读") == 0.92

    def test_rounding_to_rubric_precision(self):
        backend = ScriptedChatBackend(["Score: 0.923"])
        assert llm_judge(backend, "c", "r") == 0.92

    def test_out_of_range_rejected(self):
        backend = ScriptedChatBackend(["Score: 1.5"])
        with pytest.raises(UnparseableResponseError):
            llm_judge(backend, "c", "r")

    def test_request_shape(self):
        backend = ScriptedChatBackend(["Score: 0.50"])
        llm_judge(backend, "the candidate", "the reference")
        request = backend.requests[0]
        assert request.messages[0].role == "system"
        assert "You are a rigorous semantic assessment expert" in request.messages[0].content
        user = request.messages[1].content
        assert "Reference sentence: the reference" in user
        assert "Sentence to be scored: the candidate" in user
        assert "Score: [a number between 0.00 and 1.00]" in user

    def test_shipped_rubric_carries_verbatim_strings(self):
        system = load_template("judge_system").body
        user = load_template("judge_user").body
        assert (
            "You are a rigorous semantic assessment expert. You are responsible for "
            "scoring the semantic consistency of the sentence to be scored based on "
            "the reference sentence." in system
        )
        assert "rounded to the nearest 0.01 (e.g., 0.66, 0.92)" in system
        assert "0.80-1.00 (Perfect)" in system
        assert "0.00-0.19 (Failure)" in system
        assert "Please answer in this format:\nScore: [a number between 0.00 and 1.00]" in user


class TestBounds:
    def test_similarity_metrics_peak_at_identity(self, provider):
        zh = tokenize("手持戈守于门", "zh")
        en = tokenize("a hand guarding the gate", "en")
        for s in (zh, en):
            assert rouge1_f1(s, s) == 1.0
            assert embedding_f1(s, s, provider) == pytest.approx(1.0, abs=1e-12)
            assert mover_score(s, s, provider) == 1.0

    def test_rouge_bounded(self):
        rng = random.Random(14)
        for _ in range(50):
            cand = toks(*rng.choices("abcdef", k=rng.randint(1, 8)))
            ref = toks(*rng.choices("abcdef", k=rng.randint(1, 8)))
            assert 0.0 <= rouge1_f1(cand, ref) <= 1.0

    def test_mover_bounded_above(self, provider):
        rng = random.Random(15)
        for i in range(20):
            cand = toks(*{f"c{i}_{j}" for j in range(rng.randint(1, 5))})
            ref = toks(*{f"r{i}_{j}" for j in range(rng.randint(1, 5))})
            assert mover_score(cand, ref, provider) <= 1.0
