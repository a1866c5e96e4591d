"""Text-similarity metrics.

Tokenization is character-level for Chinese and lowercased whitespace
splitting for English. The embedding-based scores use per-token embeddings
from the provider: embedding_f1 is the greedy-matching F1 and mover_score
is one minus the exact optimal-transport cost between uniform-mass unigram
distributions (so both can be checked against brute-force oracles).
They embed every token they are given; ``report.evaluate_run`` passes a
provider that embeds each distinct text once per evaluation.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .backends import ChatBackend, ChatMessage, ChatRequest
from .embedding import EmbeddingProvider, embed_text
from .errors import EmptyInputError, ProblemTooLargeError, ZeroNormError
from .inference import parse_model_response
from .templates import load_template

MAX_TRANSPORT_TOKENS = 64


@dataclass(frozen=True)
class TokenSequence:
    tokens: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.tokens)


def tokenize(text: str, lang: str = "zh") -> TokenSequence:
    """Character-level for zh, lowercase whitespace split for en."""
    if lang == "zh":
        return TokenSequence(tuple(ch for ch in text if not ch.isspace()))
    return TokenSequence(tuple(text.lower().split()))


def rouge1_f1(candidate: TokenSequence, reference: TokenSequence) -> float:
    """Unigram F1 with candidate counts clipped by the reference multiset."""
    if len(reference) == 0:
        raise EmptyInputError("reference token sequence is empty")
    if len(candidate) == 0:
        return 0.0
    cand = Counter(candidate.tokens)
    ref = Counter(reference.tokens)
    overlap = sum(min(n, ref[tok]) for tok, n in cand.items())
    precision = overlap / len(candidate)
    recall = overlap / len(reference)
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def _token_matrix(tokens: tuple[str, ...], provider: EmbeddingProvider) -> np.ndarray:
    return np.stack([embed_text(provider, tok).values for tok in tokens])


def _normalize_rows(matrix: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(matrix, axis=1)
    if np.any(norms == 0.0):
        raise ZeroNormError("token embedding with zero norm")
    return matrix / norms[:, None]


def embedding_f1(
    candidate: TokenSequence, reference: TokenSequence, provider: EmbeddingProvider
) -> float:
    """Greedy-matching token F1 over cosine similarities.

    Precision is the mean over candidate tokens of the best cosine to any
    reference token; recall is symmetric; F1 the harmonic mean.
    """
    if len(candidate) == 0 or len(reference) == 0:
        raise EmptyInputError("embedding_f1 requires non-empty token sequences")
    a = _normalize_rows(_token_matrix(candidate.tokens, provider))
    b = _normalize_rows(_token_matrix(reference.tokens, provider))
    sims = a @ b.T
    precision = float(np.mean(np.max(sims, axis=1)))
    recall = float(np.mean(np.max(sims, axis=0)))
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def _unigram_distribution(tokens: tuple[str, ...]) -> tuple[list[str], np.ndarray]:
    counts = Counter(tokens)
    vocab = sorted(counts)
    weights = np.array([counts[t] for t in vocab], dtype=np.float64)
    return vocab, weights / weights.sum()


def mover_score(
    candidate: TokenSequence, reference: TokenSequence, provider: EmbeddingProvider
) -> float:
    """1 minus the exact word-mover cost between unigram distributions.

    Token mass is uniform over occurrences; the ground cost is the Euclidean
    distance between L2-normalized token embeddings, which lies in [0, 2],
    so the score lies in [-1, 1]: 1 for identical distributions, -1 when all
    mass moves between antipodal embeddings. It goes negative once the mean
    cost passes 1, as it does on the stub encoder, whose unrelated tokens
    are nearly orthogonal (cost near sqrt 2). The transport problem is
    solved exactly as a linear program, limited to a 64x64 distinct-token
    grid per side. Reference: MoverScore (Zhao et al., EMNLP 2019).
    """
    if len(candidate) == 0 or len(reference) == 0:
        raise EmptyInputError("mover_score requires non-empty token sequences")
    if Counter(candidate.tokens) == Counter(reference.tokens):
        return 1.0  # identical distributions move nothing
    cand_vocab, p = _unigram_distribution(candidate.tokens)
    ref_vocab, q = _unigram_distribution(reference.tokens)
    n, m = len(cand_vocab), len(ref_vocab)
    if n > MAX_TRANSPORT_TOKENS or m > MAX_TRANSPORT_TOKENS:
        raise ProblemTooLargeError(
            f"transport grid {n}x{m} exceeds {MAX_TRANSPORT_TOKENS}x{MAX_TRANSPORT_TOKENS}"
        )
    a = _normalize_rows(_token_matrix(tuple(cand_vocab), provider))
    b = _normalize_rows(_token_matrix(tuple(ref_vocab), provider))
    cost = np.linalg.norm(a[:, None, :] - b[None, :, :], axis=2)
    return 1.0 - _exact_transport_cost(cost, p, q)


def _exact_transport_cost(cost: np.ndarray, p: np.ndarray, q: np.ndarray) -> float:
    """Minimum-cost transportation plan via linear programming."""
    # imported here: scipy.optimize doubles the import time of every command
    from scipy import optimize

    n, m = cost.shape
    c = cost.reshape(-1)
    # row-sum constraints then column-sum constraints, one redundant row dropped
    a_eq = np.zeros((n + m - 1, n * m))
    b_eq = np.zeros(n + m - 1)
    for i in range(n):
        a_eq[i, i * m : (i + 1) * m] = 1.0
        b_eq[i] = p[i]
    for j in range(m - 1):
        a_eq[n + j, j::m] = 1.0
        b_eq[n + j] = q[j]
    result = optimize.linprog(c, A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    if not result.success:
        raise RuntimeError(f"transport solver failed: {result.message}")
    return float(result.fun)


def llm_judge(backend: ChatBackend, candidate: str, reference: str) -> float:
    """Rubric-prompted semantic consistency score in [0, 1].

    The system rubric and the answer-format instruction are shipped verbatim
    as frozen template files; the hosted backend sends every request at
    temperature 0, and the reply is parsed as ``Score: <x>`` with
    two-decimal rounding.
    """
    system = load_template("judge_system")
    user = load_template("judge_user")
    request = ChatRequest(
        messages=(
            ChatMessage(role="system", content=system.body),
            ChatMessage(role="user", content=user.render(reference=reference, candidate=candidate)),
        ),
    )
    resp = backend.complete(request)
    return parse_model_response(resp.content, "judge_score")["score"]
