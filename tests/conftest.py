import json
import random
from pathlib import Path

import numpy as np
import pytest

from obsdecipher.backends import (
    ChatBackend,
    ChatResponse,
    TokenUsage,
    _approx_tokens,
    _request_tokens,
)
from obsdecipher.dataset import (
    CharacterRecord,
    ComponentRecord,
    Corpus,
    INSCRIPTION_TYPES,
)
from obsdecipher.embedding import StubEmbeddingProvider
from obsdecipher.errors import BackendUnavailableError, DimensionMismatchError, ZeroNormError

LABELS = ("hand", "roof", "water", "sun", "moon", "tree", "mouth", "foot",
          "fire", "bird", "horse", "field")

TRIANGLE = ((0.0, 0.0), (4.0, 0.0), (2.0, 3.0))


@pytest.fixture(scope="session")
def stub64():
    return StubEmbeddingProvider(dim=64)


@pytest.fixture(scope="session")
def stub768():
    return StubEmbeddingProvider(dim=768)


class ScriptedChatBackend(ChatBackend):
    """Replies from a fixed queue; records every request."""

    def __init__(self, replies=(), name="scripted", supports_images=True):
        self._replies = list(replies)
        self.name = name
        self.supports_images = supports_images
        self.requests = []

    def complete(self, request):
        self.requests.append(request)
        if not self._replies:
            raise BackendUnavailableError(f"scripted backend {self.name!r} ran out of replies")
        content = self._replies.pop(0)
        return ChatResponse(
            content=content,
            usage=TokenUsage(prompt=_request_tokens(request), completion=_approx_tokens(content)),
        )


def cosine_similarity(a, b):
    """Cosine of the angle between two nonzero vectors, clamped to [-1, 1]."""
    if a.dim != b.dim:
        raise DimensionMismatchError(f"dimension mismatch: {a.dim} vs {b.dim}")
    na = float(np.linalg.norm(a.values))
    nb = float(np.linalg.norm(b.values))
    if na == 0.0 or nb == 0.0:
        raise ZeroNormError("cosine similarity undefined for zero-norm vector")
    value = float(np.dot(a.values, b.values) / (na * nb))
    return max(-1.0, min(1.0, value))


def structurally_equal(a, b):
    """Same nodes, same edge set and same provenance: graph equality up to
    edge order."""
    return a.nodes == b.nodes and set(a.edges) == set(b.edges) and a.source_split == b.source_split


def full_scan_entries(model, query, k):
    """The classifier's top-k entries from the full scan it replaced: every
    prototype's ``np.linalg.norm`` distance, then a full sort by (distance,
    label)."""
    dists = np.linalg.norm(model.matrix - query.values, axis=1)
    ranked = sorted(zip(model.labels, dists.tolist()), key=lambda e: (e[1], e[0]))
    return tuple(ranked[:k])


def canonical_json(bundle):
    """An evidence bundle as sorted, unescaped JSON, for byte comparisons."""
    return json.dumps(bundle.to_json(), ensure_ascii=False, sort_keys=True)


def build_fixture_corpus(n_characters=20, n_labels=12, seed=0, with_metadata=True):
    """Synthetic corpus: heterogeneous labels, interpretations, variant pairs
    and modern forms, deterministic for a seed."""
    labels = LABELS[:n_labels]
    rng = random.Random(seed)
    characters = []
    components = []
    for i in range(n_characters):
        cid = f"char{i:04d}"
        count = rng.randint(1, min(3, len(labels)))
        labs = rng.sample(labels, count)
        meta = {}
        if with_metadata:
            meta = {
                "interpretation": f"字{i}：从{'、'.join(labs)}，合体成义，卜辞用作祭名。",
                "inscription_type": INSCRIPTION_TYPES[i % 3],
            }
            if i % 3 == 0:
                meta["modern_form"] = f"今{i}"
            if i % 4 in (0, 1) and i + 1 < n_characters and i % 8 < 2:
                meta["variant_group"] = f"grp{(i // 2) * 2:04d}"
        characters.append(
            CharacterRecord(
                character_id=cid,
                image_ref=f"images/{cid}.png",
                component_labels=tuple(labs),
                interpretation=meta.get("interpretation", ""),
                inscription_type=meta.get("inscription_type"),
                modern_form=meta.get("modern_form"),
                variant_group=meta.get("variant_group"),
            )
        )
        for j, lab in enumerate(labs):
            components.append(
                ComponentRecord(
                    component_id=f"{cid}:{j}",
                    label=lab,
                    source_character_id=cid,
                    polygon=TRIANGLE,
                    image_ref=f"images/{cid}.png#{j}",
                )
            )
    return Corpus(tuple(characters), tuple(components), frozenset(labels))


def fixture_explanations(corpus):
    return {label: f"部件{label}：象{label}之形，表{label}义。" for label in sorted(corpus.vocabulary)}


@pytest.fixture
def small_corpus():
    return build_fixture_corpus(n_characters=20, n_labels=12, seed=0)


def write_annotation(path: Path, image_path="glyph.png", width=100, height=80, shapes=None):
    if shapes is None:
        shapes = [{"label": "hand", "points": [[1, 1], [20, 1], [20, 30], [1, 30]]}]
    doc = {
        "imagePath": image_path,
        "imageWidth": width,
        "imageHeight": height,
        "shapes": shapes,
        "version": "5.0.1",  # extra fields must be ignored
    }
    path.write_text(json.dumps(doc, ensure_ascii=False), encoding="utf-8")
    return doc


def make_run_fixture(tmp_path: Path, n_characters=10, seed=3):
    """Manifest + on-disk character images for end-to-end CLI runs."""
    corpus = build_fixture_corpus(n_characters=n_characters, n_labels=7, seed=seed)
    image_dir = tmp_path / "images"
    image_dir.mkdir(exist_ok=True)
    for char in corpus.characters:
        # tiny deterministic fake image bytes; content only needs to be stable
        (tmp_path / char.image_ref).parent.mkdir(exist_ok=True, parents=True)
        (tmp_path / char.image_ref).write_bytes(
            b"PNGFAKE" + char.character_id.encode("ascii") * 4
        )
    from obsdecipher.dataset import write_manifest

    manifest = tmp_path / "corpus.ldjson"
    write_manifest(corpus, manifest)
    explanations = tmp_path / "explanations.json"
    explanations.write_text(
        json.dumps(fixture_explanations(corpus), ensure_ascii=False), encoding="utf-8"
    )
    return corpus, manifest, explanations
