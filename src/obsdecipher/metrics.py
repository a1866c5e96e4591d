"""Text-similarity metrics.

Tokenization is character-level for Chinese and lowercased whitespace
splitting for English. The embedding-based scores use per-token embeddings
from the provider: embedding_f1 is the greedy-matching F1 and mover_score
is one minus the exact optimal-transport cost between uniform-mass unigram
distributions (so both can be checked against brute-force oracles).
They embed every token they are given; ``report.evaluate_run`` passes a
provider that embeds each distinct text once per evaluation.

The transport is solved in integers, without an LP library: a candidate
occurrence weighs ``len(reference)`` and a reference occurrence
``len(candidate)``, so supplies and demands balance exactly. A
transportation simplex starts from a least-cost greedy spanning tree,
pivots by Dantzig's rule and switches to Bland's rule once a basis repeats
during a run of degenerate pivots. It stops when no reduced cost is below
``-_TOL``, so the cost it returns is within ``_TOL`` of the optimum.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .backends import ChatBackend, ChatMessage, ChatRequest
from .embedding import EmbeddingProvider, embed_text
from .errors import EmptyInputError, ProblemTooLargeError, ZeroNormError
from .inference import parse_model_response
from .templates import load_template

MAX_TRANSPORT_TOKENS = 64
# a reduced cost below -_TOL enters the basis; far above the float error of
# potentials summed along a tree path of at most 127 costs in [0, 2]
_TOL = 1e-12


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


def mover_score(
    candidate: TokenSequence, reference: TokenSequence, provider: EmbeddingProvider
) -> float:
    """1 minus the exact word-mover cost between unigram distributions.

    Token mass is uniform over occurrences; the ground cost is the Euclidean
    distance between L2-normalized token embeddings, which lies in [0, 2],
    so the score lies in [-1, 1]: 1 for identical distributions, -1 when all
    mass moves between antipodal embeddings. It goes negative once the mean
    cost passes 1, as it does on the stub encoder, whose unrelated tokens
    are nearly orthogonal (cost near sqrt 2).

    The masses are integers: each candidate occurrence weighs
    ``len(reference)`` and each reference occurrence ``len(candidate)``, so
    both sides hold ``len(candidate) * len(reference)`` exactly and the score
    is 1 minus the optimal ``sum(C * x)`` over that product. A transportation
    simplex solves it (least-cost greedy start, Dantzig's pivots, Bland's
    once a basis repeats) to within ``_TOL`` of the optimum, limited to a
    64x64 distinct-token grid per side. Reference: MoverScore (Zhao et al.,
    EMNLP 2019).
    """
    if len(candidate) == 0 or len(reference) == 0:
        raise EmptyInputError("mover_score requires non-empty token sequences")
    cand_counts, ref_counts = Counter(candidate.tokens), Counter(reference.tokens)
    if cand_counts == ref_counts:
        return 1.0  # identical distributions move nothing
    cand_vocab, ref_vocab = sorted(cand_counts), sorted(ref_counts)
    n, m = len(cand_vocab), len(ref_vocab)
    if n > MAX_TRANSPORT_TOKENS or m > MAX_TRANSPORT_TOKENS:
        raise ProblemTooLargeError(
            f"transport grid {n}x{m} exceeds {MAX_TRANSPORT_TOKENS}x{MAX_TRANSPORT_TOKENS}"
        )
    a = _normalize_rows(_token_matrix(tuple(cand_vocab), provider))
    b = _normalize_rows(_token_matrix(tuple(ref_vocab), provider))
    cost = np.linalg.norm(a[:, None, :] - b[None, :, :], axis=2)
    supply = [cand_counts[t] * len(reference) for t in cand_vocab]
    demand = [ref_counts[t] * len(candidate) for t in ref_vocab]
    return 1.0 - _exact_transport_cost(cost, supply, demand)


def _exact_transport_cost(cost: np.ndarray, supply: list[int], demand: list[int]) -> float:
    """The minimum of ``sum(cost * x) / sum(supply)`` over integer plans ``x``
    whose rows sum to ``supply`` and columns to ``demand`` (equal totals).

    A transportation simplex (Dantzig's MODI method). The basis is a spanning
    tree of ``n + m - 1`` cells over the rows and columns, zero flows
    included, and starts as ``_greedy_start`` builds it. Each pivot sets
    potentials ``u[i] + v[j] = cost[i, j]`` over the tree, enters the cell
    ``_entering_cell`` picks from the reduced costs ``cost - u - v``, and
    sends ``theta`` round the cycle it closes; the cell of least flow among
    those that lose it leaves, the lowest cell index among ties. Flows stay
    integers, so ``theta`` is exact. A pivot with ``theta == 0`` moves no
    flow; once a basis repeats during a run of them, the rest of the solve
    enters by Bland's rule, which cannot cycle.
    """
    n, m = cost.shape
    costs = cost.tolist()
    flow, tree = _greedy_start(cost, supply, demand)
    # the tree hangs from row 0, whose potential is 0
    potential, parent, depth = [0.0] * (n + m), [-1] * (n + m), [0] * (n + m)

    def hang(top: int) -> None:
        """Set parent, depth and potential below ``top`` from those of ``top``."""
        stack = [top]
        while stack:
            node = stack.pop()
            up, base, below = parent[node], potential[node], depth[node] + 1
            for other, c in tree[node].items():
                if other != up:
                    parent[other], depth[other], potential[other] = node, below, c - base
                    stack.append(other)

    hang(0)
    bland, seen = False, set()
    while True:
        potentials = np.array(potential)
        entering = _entering_cell(cost - potentials[:n, None] - potentials[None, n:], bland)
        if entering is None:
            break
        i0, j0 = divmod(entering, m)
        # the tree path from column j0 to row i0 closes the cycle; its cells
        # alternately lose and gain theta, starting with a loss
        col_side, row_side, a, b = [], [], n + j0, i0
        while a != b:
            if depth[a] >= depth[b]:
                col_side.append(a)
                a = parent[a]
            else:
                row_side.append(b)
                b = parent[b]
        nodes = col_side + [a] + row_side[::-1]
        cycle = [(x, y - n) if x < n else (y, x - n) for x, y in zip(nodes, nodes[1:])]
        losing = cycle[0::2]
        theta = min(flow[c] for c in losing)
        leaving = min(c for c in losing if flow[c] == theta)
        for c in losing:
            flow[c] -= theta
        for c in cycle[1::2]:
            flow[c] += theta
        if theta:
            seen.clear()
        else:
            seen.add(frozenset(flow))
        del flow[leaving]
        del tree[leaving[0]][n + leaving[1]], tree[n + leaving[1]][leaving[0]]
        flow[i0, j0] = theta
        tree[i0][n + j0] = tree[n + j0][i0] = costs[i0][j0]
        # the leaving cell cut off the subtree below it, which holds the end of
        # the entering cell on the same side of the cycle; it now hangs from
        # the other end, and only its nodes change potential
        top, hook = (n + j0, i0) if cycle.index(leaving) < len(col_side) else (i0, n + j0)
        parent[top], depth[top] = hook, depth[hook] + 1
        potential[top] = costs[i0][j0] - potential[hook]
        hang(top)
        if not theta and frozenset(flow) in seen:
            bland = True
    return math.fsum(costs[i][j] * x for (i, j), x in flow.items()) / sum(supply)


def _greedy_start(
    cost: np.ndarray, supply: list[int], demand: list[int]
) -> tuple[dict[tuple[int, int], int], list[dict[int, float]]]:
    """A basic feasible plan: the flow of each basic cell, and the basis as a
    tree whose node ``k < n`` is row ``k`` and node ``n + j`` column ``j``,
    each node mapping its neighbours to the cost of the cell between them.

    Cells are filled in ascending cost (the least-cost method), each with as
    much as its row and column have left. Each filled cell closes exactly one
    row or column, its row while another row is open, and the last closes
    both, so the ``n + m - 1`` cells form a spanning tree, zero flows included.
    """
    n, m = cost.shape
    costs = cost.tolist()
    flow: dict[tuple[int, int], int] = {}
    tree: list[dict[int, float]] = [{} for _ in range(n + m)]
    left, open_rows, open_cols = [*supply, *demand], n, m
    for cell in np.argsort(cost, axis=None, kind="stable").tolist():
        i, j = divmod(cell, m)
        if left[i] < 0 or left[n + j] < 0:
            continue  # row or column closed
        x = min(left[i], left[n + j])
        flow[i, j] = x
        tree[i][n + j] = tree[n + j][i] = costs[i][j]
        if open_rows == open_cols == 1:
            break
        left[i] -= x
        left[n + j] -= x
        if left[i] == 0 and open_rows > 1:
            left[i], open_rows = -1, open_rows - 1
        else:
            left[n + j], open_cols = -1, open_cols - 1
    return flow, tree


def _entering_cell(reduced: np.ndarray, bland: bool) -> int | None:
    """The flat index of the cell that enters the basis, or None when no
    reduced cost is below ``-_TOL``, which leaves the cost within ``_TOL`` of
    the optimum. Dantzig's rule takes the least reduced cost; Bland's the
    lowest index below ``-_TOL``."""
    if bland:
        below = np.flatnonzero(reduced < -_TOL)
        return int(below[0]) if below.size else None
    cell = int(np.argmin(reduced))
    return cell if reduced.flat[cell] < -_TOL else None


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
