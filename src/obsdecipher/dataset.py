"""Annotation ingest, corpus records, statistics, and train/test splits.

Annotation files follow a minimal LabelMe-compatible subset: ``imagePath``,
``imageWidth``, ``imageHeight`` and ``shapes`` with a label and a polygon per
shape. Unknown extra fields are ignored for forward compatibility.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping

from ._io import atomic_write_text
from .errors import (
    InvalidRatioError,
    MalformedInputError,
    SchemaViolationError,
    UnknownLabelError,
)

INSCRIPTION_TYPES = ("ideographic", "pictographic", "phono-semantic")

SPLIT_UNITS = ("by_component_class", "by_character")


@dataclass(frozen=True)
class Shape:
    """One polygon-delimited component region on a character image."""

    label: str
    points: tuple[tuple[float, float], ...]


@dataclass(frozen=True)
class AnnotationFile:
    image_path: str
    image_width: int
    image_height: int
    shapes: tuple[Shape, ...]


@dataclass(frozen=True)
class ComponentRecord:
    """A segmented pictographic component cropped out of a character image."""

    component_id: str
    label: str
    source_character_id: str
    polygon: tuple[tuple[float, float], ...]
    image_ref: str
    explanation: str = ""


@dataclass(frozen=True)
class CharacterRecord:
    """A full character image plus whatever expert metadata is known.

    ``interpretation`` stays empty for undeciphered characters. Duplicate
    forms of the same canonical character share a ``variant_group``.
    """

    character_id: str
    image_ref: str
    component_labels: tuple[str, ...] = ()
    interpretation: str = ""
    inscription_type: str | None = None
    modern_form: str | None = None
    variant_group: str | None = None

    def __post_init__(self):
        if self.inscription_type is not None and self.inscription_type not in INSCRIPTION_TYPES:
            raise SchemaViolationError(
                f"inscription_type must be one of {INSCRIPTION_TYPES}, got {self.inscription_type!r}"
            )

    @property
    def identity(self) -> str:
        """Canonical character identity: the variant group when known."""
        return self.variant_group if self.variant_group else self.character_id


@dataclass(frozen=True)
class Corpus:
    characters: tuple[CharacterRecord, ...]
    components: tuple[ComponentRecord, ...]
    vocabulary: frozenset[str] = field(default_factory=frozenset)


def parse_json_object(raw: bytes, what: str) -> dict:
    """Decode UTF-8 JSON whose root is an object, else MalformedInputError."""
    try:
        doc = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise MalformedInputError(f"{what} is not UTF-8 JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise MalformedInputError(f"{what} root must be a JSON object")
    return doc


def parse_annotation(raw: bytes) -> AnnotationFile:
    """Parse one LabelMe-style JSON annotation into a validated AnnotationFile.

    Raises MalformedInputError when the bytes are not UTF-8 JSON,
    SchemaViolationError when a required field is missing or a shape is
    invalid (fewer than 3 points, point out of image bounds).
    """
    doc = parse_json_object(raw, "annotation")
    for key in ("imagePath", "imageWidth", "imageHeight", "shapes"):
        if key not in doc:
            raise SchemaViolationError(f"missing required field {key!r}")
    image_path = doc["imagePath"]
    if not isinstance(image_path, str) or not image_path:
        raise SchemaViolationError("imagePath must be a non-empty string")
    width, height = doc["imageWidth"], doc["imageHeight"]
    if not isinstance(width, int) or isinstance(width, bool) or width <= 0:
        raise SchemaViolationError("imageWidth must be a positive integer")
    if not isinstance(height, int) or isinstance(height, bool) or height <= 0:
        raise SchemaViolationError("imageHeight must be a positive integer")
    raw_shapes = doc["shapes"]
    if not isinstance(raw_shapes, list) or not raw_shapes:
        raise SchemaViolationError("shapes must be a non-empty list")

    shapes: list[Shape] = []
    for i, entry in enumerate(raw_shapes):
        if not isinstance(entry, dict):
            raise SchemaViolationError(f"shape {i} is not an object", shape_index=i)
        label = entry.get("label")
        if not isinstance(label, str) or not label:
            raise SchemaViolationError(f"shape {i} has no label", shape_index=i)
        points = entry.get("points")
        if not isinstance(points, list) or len(points) < 3:
            raise SchemaViolationError(
                f"shape {i} polygon must have at least 3 points", shape_index=i
            )
        parsed: list[tuple[float, float]] = []
        for p in points:
            if (
                not isinstance(p, (list, tuple))
                or len(p) != 2
                or not all(isinstance(c, (int, float)) and not isinstance(c, bool) for c in p)
            ):
                raise SchemaViolationError(
                    f"shape {i} has a malformed point {p!r}", shape_index=i
                )
            x, y = float(p[0]), float(p[1])
            # boundary-touching points are legal: masks often hug the image edge
            if not (0.0 <= x <= width and 0.0 <= y <= height):
                raise SchemaViolationError(
                    f"shape {i} point ({x}, {y}) outside image bounds "
                    f"{width}x{height}",
                    shape_index=i,
                )
            parsed.append((x, y))
        shapes.append(Shape(label=label, points=tuple(parsed)))
    return AnnotationFile(
        image_path=image_path,
        image_width=width,
        image_height=height,
        shapes=tuple(shapes),
    )


def extract_components(
    file: AnnotationFile,
    vocabulary: frozenset[str] | set[str],
    character_id: str,
) -> tuple[ComponentRecord, ...]:
    """One record per shape; ids are ``<character_id>:<shape index>``."""
    records = []
    for i, shape in enumerate(file.shapes):
        if shape.label not in vocabulary:
            raise UnknownLabelError(shape.label, shape_index=i)
        records.append(
            ComponentRecord(
                component_id=f"{character_id}:{i}",
                label=shape.label,
                source_character_id=character_id,
                polygon=shape.points,
                image_ref=f"{file.image_path}#{i}",
            )
        )
    return tuple(records)


def character_from_annotation(
    file: AnnotationFile,
    character_id: str,
    metadata: Mapping[str, object] | None = None,
) -> CharacterRecord:
    """Build the character record for an annotation, applying optional expert
    metadata (interpretation, inscription_type, modern_form, variant_group)."""
    if metadata is not None and not isinstance(metadata, Mapping):
        raise MalformedInputError(f"metadata for {character_id!r} must be a JSON object")
    meta = dict(metadata or {})
    return CharacterRecord(
        character_id=character_id,
        image_ref=file.image_path,
        component_labels=tuple(s.label for s in file.shapes),
        interpretation=str(meta.get("interpretation", "") or ""),
        inscription_type=meta.get("inscription_type") or None,
        modern_form=meta.get("modern_form") or None,
        variant_group=meta.get("variant_group") or None,
    )


def corpus_stats(corpus: Corpus) -> dict[str, int]:
    """Exact enumeration of the four corpus counts."""
    return {
        "character_images": len(corpus.characters),
        "unique_characters": len({c.identity for c in corpus.characters}),
        "component_images": len(corpus.components),
        "distinct_components": len({c.label for c in corpus.components}),
    }


def _derived_rng(seed: int, salt: str) -> random.Random:
    # str hashes are salted per-process, so derive a stable int seed instead
    digest = hashlib.sha256(f"{seed}:{salt}".encode("utf-8")).digest()
    return random.Random(int.from_bytes(digest[:8], "little"))


def split_corpus(
    corpus: Corpus,
    ratio: float,
    seed: int,
    unit: str = "by_component_class",
) -> tuple[Corpus, Corpus]:
    """Deterministic train/test partition of the corpus.

    ``by_component_class`` stratifies component images per label with
    ``ceil(ratio * n)`` going to train (so every class keeps at least one
    training sample); characters follow the side holding the majority of
    their components. ``by_character`` splits whole characters and lets
    their components follow, which is the right unit for leakage-free
    knowledge-graph construction.
    """
    if not (0.0 < ratio < 1.0):
        raise InvalidRatioError(f"ratio must be in (0, 1), got {ratio}")
    if unit not in SPLIT_UNITS:
        raise InvalidRatioError(f"unit must be one of {SPLIT_UNITS}, got {unit!r}")

    if unit == "by_character":
        ids = sorted(c.character_id for c in corpus.characters)
        rng = _derived_rng(seed, "characters")
        rng.shuffle(ids)
        n_train = math.ceil(ratio * len(ids))
        train_ids = set(ids[:n_train])
        train_chars = tuple(c for c in corpus.characters if c.character_id in train_ids)
        test_chars = tuple(c for c in corpus.characters if c.character_id not in train_ids)
        train_comps = tuple(
            c for c in corpus.components if c.source_character_id in train_ids
        )
        test_comps = tuple(
            c for c in corpus.components if c.source_character_id not in train_ids
        )
        return (
            Corpus(train_chars, train_comps, corpus.vocabulary),
            Corpus(test_chars, test_comps, corpus.vocabulary),
        )

    # by_component_class
    by_label: dict[str, list[str]] = {}
    for comp in corpus.components:
        by_label.setdefault(comp.label, []).append(comp.component_id)
    train_comp_ids: set[str] = set()
    for label in sorted(by_label):
        ids = sorted(by_label[label])
        rng = _derived_rng(seed, f"class:{label}")
        rng.shuffle(ids)
        n_train = math.ceil(ratio * len(ids))
        train_comp_ids.update(ids[:n_train])

    train_comps = tuple(c for c in corpus.components if c.component_id in train_comp_ids)
    test_comps = tuple(c for c in corpus.components if c.component_id not in train_comp_ids)

    # characters go with the majority of their components; ties favour train
    side_votes: dict[str, list[int]] = {}
    for comp in corpus.components:
        votes = side_votes.setdefault(comp.source_character_id, [0, 0])
        votes[0 if comp.component_id in train_comp_ids else 1] += 1
    train_chars: list[CharacterRecord] = []
    test_chars: list[CharacterRecord] = []
    for char in corpus.characters:
        votes = side_votes.get(char.character_id)
        if votes is None:
            # characters without component images: stable pseudo-random draw
            draw = _derived_rng(seed, f"char:{char.character_id}").random()
            (train_chars if draw < ratio else test_chars).append(char)
        elif votes[0] >= votes[1]:
            train_chars.append(char)
        else:
            test_chars.append(char)
    return (
        Corpus(tuple(train_chars), train_comps, corpus.vocabulary),
        Corpus(tuple(test_chars), test_comps, corpus.vocabulary),
    )


# --- manifest and vocabulary files -----------------------------------------

def load_vocabulary(path: str | Path) -> frozenset[str]:
    """One label per line, UTF-8, blank lines ignored."""
    labels = set()
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        label = line.strip()
        if label:
            labels.add(label)
    return frozenset(labels)


def _character_to_json(c: CharacterRecord) -> dict:
    return {
        "kind": "character",
        "character_id": c.character_id,
        "image_ref": c.image_ref,
        "component_labels": list(c.component_labels),
        "interpretation": c.interpretation,
        "inscription_type": c.inscription_type,
        "modern_form": c.modern_form,
        "variant_group": c.variant_group,
    }


def _component_to_json(c: ComponentRecord) -> dict:
    return {
        "kind": "component",
        "component_id": c.component_id,
        "label": c.label,
        "source_character_id": c.source_character_id,
        "polygon": [list(p) for p in c.polygon],
        "image_ref": c.image_ref,
        "explanation": c.explanation,
    }


def write_manifest(corpus: Corpus, path: str | Path) -> None:
    """Line-delimited JSON, one record per character and per component."""
    lines = []
    for char in corpus.characters:
        lines.append(json.dumps(_character_to_json(char), ensure_ascii=False, sort_keys=True))
    for comp in corpus.components:
        lines.append(json.dumps(_component_to_json(comp), ensure_ascii=False, sort_keys=True))
    atomic_write_text(path, "\n".join(lines) + ("\n" if lines else ""))


def read_manifest(path: str | Path) -> Corpus:
    """Load a manifest written by :func:`write_manifest`.

    The vocabulary is recovered as the union of labels seen in the manifest.
    """
    characters: list[CharacterRecord] = []
    components: list[ComponentRecord] = []
    for lineno, line in enumerate(Path(path).read_bytes().splitlines(), 1):
        if not line.strip():
            continue
        where = f"{path}:{lineno}"
        rec = parse_json_object(line, where)
        kind = rec.get("kind")
        try:
            if kind == "character":
                labels = rec.get("component_labels", [])
                if not isinstance(labels, list) or not all(
                    isinstance(label, str) for label in labels
                ):
                    raise MalformedInputError(
                        f"{where}: component_labels must be a list of strings, got {labels!r}"
                    )
                characters.append(
                    CharacterRecord(
                        character_id=rec["character_id"],
                        image_ref=rec.get("image_ref", ""),
                        component_labels=tuple(labels),
                        interpretation=rec.get("interpretation", "") or "",
                        inscription_type=rec.get("inscription_type"),
                        modern_form=rec.get("modern_form"),
                        variant_group=rec.get("variant_group"),
                    )
                )
            elif kind == "component":
                components.append(
                    ComponentRecord(
                        component_id=rec["component_id"],
                        label=rec["label"],
                        source_character_id=rec["source_character_id"],
                        polygon=tuple((float(x), float(y)) for x, y in rec.get("polygon", ())),
                        image_ref=rec.get("image_ref", ""),
                        explanation=rec.get("explanation", "") or "",
                    )
                )
            else:
                raise MalformedInputError(f"{where}: unknown record kind {kind!r}")
        except (KeyError, TypeError, ValueError) as exc:
            raise MalformedInputError(f"{where}: malformed {kind} record: {exc!r}") from exc
    vocabulary = frozenset(c.label for c in components) | frozenset(
        label for char in characters for label in char.component_labels
    )
    return Corpus(tuple(characters), tuple(components), vocabulary)


def ingest_directory(
    annotations_dir: str | Path,
    vocabulary: frozenset[str],
    metadata: Mapping[str, Mapping[str, object]] | None = None,
) -> Corpus:
    """Parse every ``*.json`` annotation in a directory into a corpus.

    The character id is the annotation filename stem. ``metadata`` optionally
    supplies per-character expert fields keyed by character id.
    """
    metadata = metadata or {}
    characters: list[CharacterRecord] = []
    components: list[ComponentRecord] = []
    for file_path in sorted(Path(annotations_dir).glob("*.json")):
        character_id = file_path.stem
        ann = parse_annotation(file_path.read_bytes())
        characters.append(character_from_annotation(ann, character_id, metadata.get(character_id)))
        components.extend(extract_components(ann, vocabulary, character_id))
    return Corpus(tuple(characters), tuple(components), vocabulary)
