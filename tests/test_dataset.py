import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from obsdecipher.dataset import (
    CharacterRecord,
    ComponentRecord,
    Corpus,
    corpus_stats,
    extract_components,
    ingest_directory,
    load_vocabulary,
    parse_annotation,
    read_manifest,
    split_corpus,
    write_manifest,
)
from obsdecipher.errors import (
    InvalidRatioError,
    MalformedInputError,
    SchemaViolationError,
    UnknownLabelError,
)

from conftest import TRIANGLE, build_fixture_corpus, write_annotation

VOCAB = frozenset({"hand", "roof"})


def ann_bytes(**kwargs):
    doc = {
        "imagePath": "glyph.png",
        "imageWidth": 100,
        "imageHeight": 80,
        "shapes": [{"label": "hand", "points": [[1, 1], [20, 1], [20, 30], [1, 30]]}],
    }
    doc.update(kwargs)
    return json.dumps(doc).encode("utf-8")


class TestParseAnnotation:
    def test_minimal_valid_file(self):
        parsed = parse_annotation(ann_bytes())
        assert len(parsed.shapes) == 1
        assert parsed.shapes[0].label == "hand"
        assert len(parsed.shapes[0].points) == 4

    def test_two_point_shape_names_index(self):
        raw = ann_bytes(shapes=[{"label": "hand", "points": [[1, 1], [2, 2]]}])
        with pytest.raises(SchemaViolationError) as exc:
            parse_annotation(raw)
        assert exc.value.shape_index == 0

    def test_not_utf8(self):
        with pytest.raises(MalformedInputError):
            parse_annotation(b"\xff\xfe\x00bad")

    def test_not_json(self):
        with pytest.raises(MalformedInputError):
            parse_annotation(b"{nope")

    def test_root_not_object(self):
        with pytest.raises(MalformedInputError):
            parse_annotation(b"[1, 2]")

    @pytest.mark.parametrize("missing", ["imagePath", "imageWidth", "imageHeight", "shapes"])
    def test_missing_field(self, missing):
        doc = json.loads(ann_bytes())
        del doc[missing]
        with pytest.raises(SchemaViolationError):
            parse_annotation(json.dumps(doc).encode())

    def test_point_out_of_bounds_names_shape(self):
        raw = ann_bytes(
            shapes=[
                {"label": "hand", "points": [[1, 1], [2, 1], [2, 2]]},
                {"label": "roof", "points": [[0, 0], [101, 0], [5, 5]]},
            ]
        )
        with pytest.raises(SchemaViolationError) as exc:
            parse_annotation(raw)
        assert exc.value.shape_index == 1

    def test_boundary_points_accepted(self):
        raw = ann_bytes(shapes=[{"label": "hand", "points": [[0, 0], [100, 0], [100, 80]]}])
        parsed = parse_annotation(raw)
        assert parsed.shapes[0].points[-1] == (100.0, 80.0)

    def test_empty_shapes_rejected(self):
        with pytest.raises(SchemaViolationError):
            parse_annotation(ann_bytes(shapes=[]))

    def test_unknown_fields_ignored(self):
        raw = ann_bytes(version="5.2", flags={"x": 1}, imageData=None)
        assert len(parse_annotation(raw).shapes) == 1

    def test_nonpositive_dimensions(self):
        with pytest.raises(SchemaViolationError):
            parse_annotation(ann_bytes(imageWidth=0))

    @given(st.binary(max_size=300))
    @settings(max_examples=200, deadline=None)
    def test_parsing_is_total(self, raw):
        # every input either parses or raises one of the two typed errors
        try:
            parse_annotation(raw)
        except (MalformedInputError, SchemaViolationError):
            pass


class TestExtractComponents:
    def test_two_known_labels(self):
        parsed = parse_annotation(
            ann_bytes(
                shapes=[
                    {"label": "hand", "points": [[1, 1], [2, 1], [2, 2]]},
                    {"label": "roof", "points": [[3, 3], [4, 3], [4, 4]]},
                ]
            )
        )
        records = extract_components(parsed, VOCAB, "c1")
        assert [r.label for r in records] == ["hand", "roof"]
        assert [r.component_id for r in records] == ["c1:0", "c1:1"]

    def test_typo_rejected(self):
        parsed = parse_annotation(ann_bytes(shapes=[{"label": "rooof", "points": [[1, 1], [2, 1], [2, 2]]}]))
        with pytest.raises(UnknownLabelError) as exc:
            extract_components(parsed, VOCAB, "c1")
        assert exc.value.label == "rooof"
        assert exc.value.shape_index == 0

    def test_deterministic_ids(self):
        parsed = parse_annotation(ann_bytes())
        first = extract_components(parsed, VOCAB, "c7")
        second = extract_components(parsed, VOCAB, "c7")
        assert [r.component_id for r in first] == [r.component_id for r in second]

    def test_injective_over_corpus(self, small_corpus):
        ids = [c.component_id for c in small_corpus.components]
        assert len(ids) == len(set(ids))


def test_shape_count_matches_independent_tally(tmp_path):
    vocab_labels = ["hand", "roof", "water"]
    (tmp_path / "vocab.txt").write_text("\n".join(vocab_labels), encoding="utf-8")
    ann_dir = tmp_path / "ann"
    ann_dir.mkdir()
    shape_counts = [1, 3, 2, 4]
    for i, count in enumerate(shape_counts):
        shapes = [
            {"label": vocab_labels[j % 3], "points": [[j, 0], [j + 1, 0], [j + 1, 1]]}
            for j in range(count)
        ]
        write_annotation(ann_dir / f"char{i}.json", shapes=shapes)

    # independent oracle: raw JSON scan of the fixture directory
    expected = sum(
        len(json.loads(p.read_text(encoding="utf-8"))["shapes"]) for p in ann_dir.glob("*.json")
    )
    corpus = ingest_directory(ann_dir, load_vocabulary(tmp_path / "vocab.txt"))
    assert len(corpus.components) == expected == sum(shape_counts)
    assert len(corpus.characters) == len(shape_counts)


class TestCorpusStats:
    def test_empty(self):
        stats = corpus_stats(Corpus((), (), frozenset()))
        assert stats == {
            "character_images": 0,
            "unique_characters": 0,
            "component_images": 0,
            "distinct_components": 0,
        }

    def test_hand_built_fixture(self):
        # 10 character images; 3 of them duplicate forms of another three
        # (shared variant groups), so 7 unique characters; 25 components
        # spread over 7 labels.
        labels = ["l0", "l1", "l2", "l3", "l4", "l5", "l6"]
        characters = []
        components = []
        counter = 0
        for i in range(10):
            group = f"g{i % 3}" if i < 6 else None  # chars 0..5 pair into 3 groups
            characters.append(
                CharacterRecord(
                    character_id=f"c{i}",
                    image_ref=f"c{i}.png",
                    component_labels=("l0",),
                    variant_group=group,
                )
            )
        for i in range(25):
            components.append(
                ComponentRecord(
                    component_id=f"k{i}",
                    label=labels[i % 7],
                    source_character_id=f"c{i % 10}",
                    polygon=TRIANGLE,
                    image_ref="x",
                )
            )
        corpus = Corpus(tuple(characters), tuple(components), frozenset(labels))
        assert corpus_stats(corpus) == {
            "character_images": 10,
            "unique_characters": 7,
            "component_images": 25,
            "distinct_components": 7,
        }

    def test_invariant_under_reordering(self, small_corpus):
        shuffled = Corpus(
            tuple(reversed(small_corpus.characters)),
            tuple(reversed(small_corpus.components)),
            small_corpus.vocabulary,
        )
        assert corpus_stats(shuffled) == corpus_stats(small_corpus)


class TestSplitCorpus:
    def test_exact_class_split(self):
        components = tuple(
            ComponentRecord(f"c0:{i}", "hand", "c0", TRIANGLE, "x") for i in range(10)
        )
        chars = (CharacterRecord("c0", "c0.png", ("hand",)),)
        corpus = Corpus(chars, components, frozenset({"hand"}))
        train, test = split_corpus(corpus, 0.7, seed=1, unit="by_component_class")
        assert len(train.components) == 7
        assert len(test.components) == 3

    def test_singleton_class_goes_to_train(self):
        components = (ComponentRecord("c0:0", "hand", "c0", TRIANGLE, "x"),)
        chars = (CharacterRecord("c0", "c0.png", ("hand",)),)
        corpus = Corpus(chars, components, frozenset({"hand"}))
        train, test = split_corpus(corpus, 0.7, seed=9, unit="by_component_class")
        assert len(train.components) == 1
        assert len(test.components) == 0

    def test_same_seed_same_partition(self, small_corpus):
        a = split_corpus(small_corpus, 0.7, seed=5, unit="by_component_class")
        b = split_corpus(small_corpus, 0.7, seed=5, unit="by_component_class")
        assert a == b

    def test_invalid_ratio(self, small_corpus):
        for ratio in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(InvalidRatioError):
                split_corpus(small_corpus, ratio, seed=0)

    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        ratio=st.floats(min_value=0.05, max_value=0.95),
        unit=st.sampled_from(["by_component_class", "by_character"]),
    )
    @settings(max_examples=40, deadline=None)
    def test_partition_property(self, seed, ratio, unit):
        corpus = build_fixture_corpus(n_characters=15, n_labels=6, seed=2)
        train, test = split_corpus(corpus, ratio, seed=seed, unit=unit)
        assert len(train.components) + len(test.components) == len(corpus.components)
        assert len(train.characters) + len(test.characters) == len(corpus.characters)
        train_ids = {c.component_id for c in train.components}
        test_ids = {c.component_id for c in test.components}
        assert not train_ids & test_ids
        train_cids = {c.character_id for c in train.characters}
        test_cids = {c.character_id for c in test.characters}
        assert not train_cids & test_cids

    def test_by_character_components_follow(self, small_corpus):
        train, test = split_corpus(small_corpus, 0.7, seed=11, unit="by_character")
        train_cids = {c.character_id for c in train.characters}
        assert all(c.source_character_id in train_cids for c in train.components)
        assert all(c.source_character_id not in train_cids for c in test.components)

    def test_every_class_survives_in_train(self, small_corpus):
        train, _ = split_corpus(small_corpus, 0.7, seed=4, unit="by_component_class")
        assert {c.label for c in train.components} == {
            c.label for c in small_corpus.components
        }


def test_manifest_round_trip(tmp_path, small_corpus):
    path = tmp_path / "manifest.ldjson"
    write_manifest(small_corpus, path)
    loaded = read_manifest(path)
    assert loaded.characters == small_corpus.characters
    assert loaded.components == small_corpus.components
    assert loaded.vocabulary == small_corpus.vocabulary


def test_manifest_round_trip_keeps_unicode_line_separators(tmp_path):
    # JSON leaves U+0085, U+2028 and U+2029 unescaped; only \n ends a record
    char = CharacterRecord(character_id="c0", image_ref="c0.png",
                           interpretation="first\u2028second\u2029third\x85end")
    path = tmp_path / "manifest.ldjson"
    write_manifest(Corpus((char,), (), frozenset()), path)
    assert read_manifest(path).characters == (char,)


@pytest.mark.parametrize("labels", ["hand", ["hand", 5], {"hand": 1}, None])
def test_component_labels_must_be_a_list_of_strings(tmp_path, labels):
    path = tmp_path / "manifest.ldjson"
    good = {"kind": "character", "character_id": "c0", "component_labels": ["roof"]}
    bad = {"kind": "character", "character_id": "c1", "component_labels": labels}
    path.write_text("\n".join(json.dumps(r) for r in (good, bad)) + "\n", encoding="utf-8")
    with pytest.raises(MalformedInputError,
                       match=re.escape(f"{path}:2: malformed character record: 'component_labels'")):
        read_manifest(path)


def test_vocabulary_loader(tmp_path):
    path = tmp_path / "vocab.txt"
    path.write_text("hand\n\nroof\n  water  \n", encoding="utf-8")
    assert load_vocabulary(path) == frozenset({"hand", "roof", "water"})
