"""Seeded synthetic corpora and a component-aware synthetic encoder.

The generator scales past the 12-label test fixture to hundreds of
component labels. It writes character images, component crops, a corpus
manifest, a train/test split and component explanations to a directory, all
as a pure function of the seed and the size parameters.

Synthetic "images" are small byte strings that name the components they
show. The encoder embeds one near the sum of its components' directions
plus seeded noise, so a character's nearest prototypes are its own
components and the retrieval working set grows with the vocabulary, as it
would with a real image encoder. Text goes to the stub encoder.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from obsdecipher.dataset import (
    INSCRIPTION_TYPES,
    CharacterRecord,
    ComponentRecord,
    Corpus,
    split_corpus,
    write_manifest,
)
from obsdecipher.embedding import (
    DEFAULT_DIM,
    EmbeddingProvider,
    EmbeddingVector,
    StubEmbeddingProvider,
)

IMAGE_MAGIC = b"OBSSYN1\n"

TRIANGLE = ((0.0, 0.0), (4.0, 0.0), (2.0, 3.0))

NOISE = 0.3  # norm of an image vector's noise, before normalizing
LOOKALIKE_WEIGHT = (0.25, 0.45)  # range of a look-alike direction's weight
MAX_COMPONENTS = 3  # components per character
SPLIT_RATIO = 0.7  # share of the characters in the train split

# CJK unified ideographs: component labels are single Han characters
_LABEL_BASE = 0x4E00
_LABEL_SPAN = 0x9FA5 - 0x4E00

_SENSES = (
    "卜辞用作祭名",
    "卜辞用作地名",
    "卜辞用作人名",
    "象其形",
    "会合体之意",
    "表动作之义",
    "用为方国名",
    "义为田猎",
)


def image_bytes(ident: str, labels: tuple[str, ...], lookalikes: tuple[str, ...] = ()) -> bytes:
    """Synthetic image payload: its identity, the components it shows, and
    the components it faintly resembles."""
    doc = {"id": ident, "labels": list(labels), "lookalikes": list(lookalikes)}
    return IMAGE_MAGIC + json.dumps(doc, ensure_ascii=False, sort_keys=True).encode("utf-8")


class ComponentAwareEncoder(EmbeddingProvider):
    """Synthetic encoder whose image vectors follow the depicted components.

    An image embeds to the normalized sum of its components' unit
    directions, plus each look-alike component's direction at a weight in
    ``LOOKALIKE_WEIGHT``, plus isotropic noise of norm about ``NOISE``. A
    label's direction is the stub's text vector of the label. Weights and
    noise are seeded by the image bytes, so the encoder is a pure function
    of its input. Look-alikes are what a classifier confuses a character
    with: they fill the top-k after its own components, spread over the
    whole vocabulary. Bytes without the synthetic header, and all text, go
    to the stub encoder.
    """

    dim = DEFAULT_DIM
    name = f"synthetic-components-{DEFAULT_DIM}"

    def __init__(self):
        self._stub = StubEmbeddingProvider(dim=self.dim)
        self._directions: dict[str, np.ndarray] = {}

    def _direction(self, label: str) -> np.ndarray:
        vec = self._directions.get(label)
        if vec is None:
            vec = self._stub.embed_text(f"component-direction:{label}").values
            self._directions[label] = vec
        return vec

    def embed_image(self, image: bytes) -> EmbeddingVector:
        if not image.startswith(IMAGE_MAGIC):
            return self._stub.embed_image(image)
        doc = json.loads(image[len(IMAGE_MAGIC):].decode("utf-8"))
        key = int.from_bytes(hashlib.blake2b(image, digest_size=8).digest(), "little")
        rng = np.random.Generator(np.random.Philox(key=key))
        values = rng.standard_normal(self.dim) * (NOISE / np.sqrt(self.dim))
        for label in doc["labels"]:
            values = values + self._direction(label)
        for label in doc.get("lookalikes", ()):
            values = values + rng.uniform(*LOOKALIKE_WEIGHT) * self._direction(label)
        return EmbeddingVector(values / np.linalg.norm(values))

    def embed_text(self, text: str) -> EmbeddingVector:
        return self._stub.embed_text(text)


@dataclass(frozen=True)
class CorpusSpec:
    """Size of one generated corpus."""

    n_labels: int
    n_characters: int


@dataclass(frozen=True)
class CorpusFiles:
    """The fixed files of a generated corpus under its root."""

    root: Path

    @property
    def manifest(self) -> Path:
        return self.root / "corpus.ldjson"

    @property
    def train_manifest(self) -> Path:
        return self.root / "train.ldjson"

    @property
    def test_manifest(self) -> Path:
        return self.root / "test.ldjson"

    @property
    def explanations(self) -> Path:
        return self.root / "explanations.json"


@dataclass(frozen=True)
class GeneratedCorpus(CorpusFiles):
    """The files one generation wrote and the records they hold."""

    corpus: Corpus
    train: Corpus
    test: Corpus


def _labels(rng: random.Random, n: int) -> list[str]:
    if n > _LABEL_SPAN:
        raise ValueError(f"at most {_LABEL_SPAN} labels, got {n}")
    return [chr(_LABEL_BASE + k) for k in sorted(rng.sample(range(_LABEL_SPAN), n))]


def build_corpus(spec: CorpusSpec, seed: int) -> tuple[Corpus, dict[str, str], dict[str, bytes]]:
    """Corpus records, component explanations and image bytes for one seed.

    Character ``i`` always shows label ``i mod n_labels`` first, so every
    label occurs; its other components and its two look-alikes are drawn
    uniformly. About a third of the characters carry a modern form and
    about a quarter share a variant group with a neighbour. Images are
    keyed by their ``image_ref``.
    """
    rng = random.Random(seed)
    labels = _labels(rng, spec.n_labels)
    characters: list[CharacterRecord] = []
    components: list[ComponentRecord] = []
    images: dict[str, bytes] = {}
    for i in range(spec.n_characters):
        cid = f"char{i:05d}"
        first = labels[i % len(labels)]
        extra = rng.randint(0, min(MAX_COMPONENTS, len(labels)) - 1)
        others = [lab for lab in rng.sample(labels, extra + 1) if lab != first][:extra]
        labs = (first, *others)
        lookalikes = tuple([lab for lab in rng.sample(labels, 5) if lab not in labs][:2])
        sense = rng.choice(_SENSES)
        modern = chr(_LABEL_BASE + rng.randrange(_LABEL_SPAN)) if rng.random() < 0.34 else None
        group = f"grp{i // 2:05d}" if rng.random() < 0.25 else None
        char = CharacterRecord(
            character_id=cid,
            image_ref=f"images/{cid}.img",
            component_labels=labs,
            interpretation=f"从{'、'.join(labs)}，{sense}。",
            inscription_type=rng.choice(INSCRIPTION_TYPES),
            modern_form=modern,
            variant_group=group,
        )
        characters.append(char)
        images[char.image_ref] = image_bytes(cid, labs, lookalikes)
        for j, lab in enumerate(labs):
            comp = ComponentRecord(
                component_id=f"{cid}:{j}",
                label=lab,
                source_character_id=cid,
                polygon=TRIANGLE,
                image_ref=f"crops/{cid}_{j}.img",
            )
            components.append(comp)
            images[comp.image_ref] = image_bytes(comp.component_id, (lab,))
    explanations = {
        label: ("" if rng.random() < 0.05 else f"部件{label}：象{label}之形，表{label}义。")
        for label in labels
    }
    corpus = Corpus(tuple(characters), tuple(components), frozenset(labels))
    return corpus, explanations, images


def generate(spec: CorpusSpec, seed: int, root: str | Path) -> GeneratedCorpus:
    """Write images, crops, manifests and explanations for one seed under ``root``.

    The train/test split is ``obs split --unit by_character`` at
    ``SPLIT_RATIO`` with the same seed.
    """
    root = Path(root)
    corpus, explanations, images = build_corpus(spec, seed)
    (root / "images").mkdir(parents=True, exist_ok=True)
    (root / "crops").mkdir(parents=True, exist_ok=True)
    for ref, data in images.items():
        (root / ref).write_bytes(data)
    train, test = split_corpus(corpus, SPLIT_RATIO, seed, "by_character")
    gen = GeneratedCorpus(root=root, corpus=corpus, train=train, test=test)
    write_manifest(corpus, gen.manifest)
    write_manifest(train, gen.train_manifest)
    write_manifest(test, gen.test_manifest)
    gen.explanations.write_text(
        json.dumps(explanations, ensure_ascii=False, sort_keys=True), encoding="utf-8"
    )
    return gen
