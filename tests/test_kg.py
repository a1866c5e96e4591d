import hashlib
import json
import re
from pathlib import Path

import pytest

from obsdecipher.dataset import CharacterRecord, ComponentRecord, Corpus
from obsdecipher.errors import CorruptFileError, InconsistentCorpusError, NotFoundError
from obsdecipher.kg import (
    Edge,
    KnowledgeGraph,
    Node,
    NodeKind,
    Relation,
    build_graph,
    character_node_id,
    component_node_id,
    load_graph,
    save_graph,
)

from conftest import TRIANGLE, build_fixture_corpus, fixture_explanations, structurally_equal

GOLDENS = Path(__file__).parent / "goldens"


def one_char_corpus():
    char = CharacterRecord(
        character_id="c0",
        image_ref="c0.png",
        component_labels=("hand", "roof"),
        interpretation="以手覆屋，会收藏之意。",
        modern_form="休",
    )
    comps = (
        ComponentRecord("c0:0", "hand", "c0", TRIANGLE, "x"),
        ComponentRecord("c0:1", "roof", "c0", TRIANGLE, "x"),
    )
    return Corpus((char,), comps, frozenset({"hand", "roof"}))


def assert_same_lookups(graph, reference, corpus):
    """``graph`` answers all four lookups for every label and character of
    ``corpus`` exactly as ``reference`` does."""
    for label in sorted(corpus.vocabulary):
        assert graph.component_explanation(label) == reference.component_explanation(label)
        assert graph.characters_by_component(label) == reference.characters_by_component(label)
    for char in corpus.characters:
        cid = char.character_id
        assert graph.variant_lookup(cid) == reference.variant_lookup(cid)
        assert graph.modern_mapping(cid) == reference.modern_mapping(cid)


@pytest.fixture
def fixture_graph(small_corpus):
    return build_graph(small_corpus, fixture_explanations(small_corpus), source_split="fixture")


class TestBuildGraph:
    def test_one_character_two_components(self):
        graph = build_graph(one_char_corpus())
        primary = [n for n in graph.nodes.values() if n.kind is not NodeKind.MODERN]
        assert len(primary) == 3
        contains = [e for e in graph.edges if e.relation is Relation.CONTAINS]
        assert len(contains) == 2

    def test_variant_group_symmetric_closure(self):
        chars = tuple(
            CharacterRecord(f"c{i}", f"c{i}.png", ("hand",), variant_group="g0")
            for i in range(2)
        )
        corpus = Corpus(chars, (), frozenset({"hand"}))
        graph = build_graph(corpus)
        assert graph.variant_lookup("c0") == ["c1"]
        assert graph.variant_lookup("c1") == ["c0"]

    def test_counts_match_independent_tally(self, small_corpus, fixture_graph):
        # independent tally straight off the corpus records
        want_components = len(small_corpus.vocabulary)
        want_characters = len(small_corpus.characters)
        want_modern = len({c.modern_form for c in small_corpus.characters if c.modern_form})
        kinds = [n.kind for n in fixture_graph.nodes.values()]
        assert kinds.count(NodeKind.COMPONENT) == want_components
        assert kinds.count(NodeKind.CHARACTER) == want_characters
        assert kinds.count(NodeKind.MODERN) == want_modern

        want_contains = sum(
            len(set(c.component_labels)) for c in small_corpus.characters
        )
        got_contains = sum(1 for e in fixture_graph.edges if e.relation is Relation.CONTAINS)
        assert got_contains == want_contains

        groups = {}
        for c in small_corpus.characters:
            if c.variant_group:
                groups.setdefault(c.variant_group, []).append(c.character_id)
        want_variant = sum(len(m) * (len(m) - 1) for m in groups.values())
        got_variant = sum(1 for e in fixture_graph.edges if e.relation is Relation.VARIANT_OF)
        assert got_variant == want_variant

    def test_label_outside_vocabulary_rejected(self):
        chars = (CharacterRecord("c0", "c0.png", ("ghost",)),)
        corpus = Corpus(chars, (), frozenset({"hand"}))
        with pytest.raises(InconsistentCorpusError):
            build_graph(corpus)


class TestQueries:
    def test_explanation_verbatim(self, small_corpus, fixture_graph):
        expl = fixture_explanations(small_corpus)
        for label in sorted(small_corpus.vocabulary):
            row = fixture_graph.component_explanation(label)
            assert row["explanation"] == expl[label]
            assert row["node_id"] == component_node_id(label)

    def test_unknown_label(self, fixture_graph):
        with pytest.raises(NotFoundError):
            fixture_graph.component_explanation("no-such-label")

    def test_empty_explanation_is_legal(self):
        graph = build_graph(one_char_corpus())  # no explanations provided
        assert graph.component_explanation("hand")["explanation"] == ""

    def test_zero_incidence_distinct_from_missing(self):
        corpus = one_char_corpus()
        wider = Corpus(corpus.characters, corpus.components, corpus.vocabulary | {"unused"})
        graph = build_graph(wider)
        assert graph.characters_by_component("unused") == []
        with pytest.raises(NotFoundError):
            graph.characters_by_component("never-a-label")

    def test_characters_by_component_matches_linear_scan(self, small_corpus, fixture_graph):
        for label in sorted(small_corpus.vocabulary):
            want = sorted(
                c.character_id for c in small_corpus.characters if label in c.component_labels
            )
            rows = fixture_graph.characters_by_component(label)
            assert [r["character_id"] for r in rows] == want
            for row in rows:
                record = next(
                    c for c in small_corpus.characters if c.character_id == row["character_id"]
                )
                assert row["interpretation"] == record.interpretation
                assert row["co_components"] == sorted(
                    set(record.component_labels) - {label}
                )

    def test_variant_lookup_matches_pairing_table(self, small_corpus, fixture_graph):
        groups = {}
        for c in small_corpus.characters:
            if c.variant_group:
                groups.setdefault(c.variant_group, set()).add(c.character_id)
        for char in small_corpus.characters:
            want = sorted(
                (groups.get(char.variant_group, set()) - {char.character_id})
                if char.variant_group
                else []
            )
            assert fixture_graph.variant_lookup(char.character_id) == want

    def test_variant_symmetry_graph_wide(self, small_corpus, fixture_graph):
        for char in small_corpus.characters:
            for other in fixture_graph.variant_lookup(char.character_id):
                assert char.character_id in fixture_graph.variant_lookup(other)

    def test_modern_mapping_round_trip(self, small_corpus, fixture_graph):
        for char in small_corpus.characters:
            assert fixture_graph.modern_mapping(char.character_id) == char.modern_form

    def test_modern_mapping_stored_value(self):
        graph = build_graph(one_char_corpus())
        assert graph.modern_mapping("c0") == "休"

    def test_missing_character(self, fixture_graph):
        with pytest.raises(NotFoundError):
            fixture_graph.variant_lookup("nope")
        with pytest.raises(NotFoundError):
            fixture_graph.modern_mapping("nope")

    def test_referential_integrity_full_scan(self, fixture_graph):
        for edge in fixture_graph.edges:
            assert edge.src in fixture_graph.nodes
            assert edge.dst in fixture_graph.nodes


class TestPersistence:
    def test_empty_graph_round_trip(self, tmp_path):
        graph = KnowledgeGraph([], [], source_split="empty")
        path = tmp_path / "g.ldjson"
        save_graph(graph, path)
        assert structurally_equal(load_graph(path), graph)

    def test_fixture_round_trip(self, tmp_path, fixture_graph):
        path = tmp_path / "g.ldjson"
        save_graph(fixture_graph, path)
        loaded = load_graph(path)
        assert structurally_equal(loaded, fixture_graph)
        # explanations preserved exactly
        for node_id, node in fixture_graph.nodes.items():
            assert loaded.nodes[node_id].explanation == node.explanation

    def test_large_random_graph_round_trip(self, tmp_path):
        corpus = build_fixture_corpus(n_characters=400, n_labels=12, seed=13)
        graph = build_graph(corpus, fixture_explanations(corpus))
        assert len(graph.nodes) >= 400
        path = tmp_path / "big.ldjson"
        save_graph(graph, path)
        assert structurally_equal(load_graph(path), graph)

    def test_loaded_graph_answers_every_lookup_as_the_built_one(self, tmp_path, small_corpus):
        # edges load in file order, not build order; every lookup must still agree
        built = build_graph(small_corpus, fixture_explanations(small_corpus))
        path = tmp_path / "g.ldjson"
        save_graph(built, path)
        assert_same_lookups(load_graph(path), built, small_corpus)

    def test_graph_file_with_node_attributes_still_loads(self):
        # written by a version that also stored each character's labels, image
        # and type as node attributes; the attributes are ignored on load
        corpus = build_fixture_corpus(n_characters=8, n_labels=5, seed=2)
        old = load_graph(GOLDENS / "graph_with_attributes.ldjson")
        built = build_graph(corpus, fixture_explanations(corpus), source_split="train.ldjson")
        assert structurally_equal(old, built)
        assert_same_lookups(old, built, corpus)

    def test_meta_line_keeps_its_ascii_escape(self, tmp_path):
        # the checksum covers the file's bytes, so escaping the meta line
        # differently would change every graph file over a non-ASCII split
        corpus = one_char_corpus()
        graph = build_graph(corpus, fixture_explanations(corpus), source_split="训练.ldjson")
        path = tmp_path / "g.ldjson"
        save_graph(graph, path)
        raw = path.read_bytes()
        assert raw.splitlines()[0] == rb'{"source_split": "\u8bad\u7ec3.ldjson", "t": "meta"}'
        assert hashlib.sha256(raw).hexdigest() == (
            "baef5a034ab3a332a1dfb288b389087ad36ede4bcc264d5112e70b67d7a19da5"
        )

    def test_truncated_file(self, tmp_path, fixture_graph):
        path = tmp_path / "g.ldjson"
        save_graph(fixture_graph, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n", encoding="utf-8")  # drop checksum
        with pytest.raises(CorruptFileError):
            load_graph(path)

    def test_tampered_content(self, tmp_path, fixture_graph):
        path = tmp_path / "g.ldjson"
        save_graph(fixture_graph, path)
        text = path.read_text(encoding="utf-8").replace("char0001", "charXXXX", 1)
        path.write_text(text, encoding="utf-8")
        with pytest.raises(CorruptFileError):
            load_graph(path)

    def test_line_separators_in_an_explanation_round_trip(self, tmp_path):
        # JSON leaves U+2028 and U+0085 unescaped; str.splitlines breaks at them
        explanation = "象手之形\u2028表持握义\x85又"
        graph = KnowledgeGraph([Node(component_node_id("hand"), NodeKind.COMPONENT, "hand", explanation)], [])
        path = tmp_path / "g.ldjson"
        save_graph(graph, path)
        assert load_graph(path).component_explanation("hand")["explanation"] == explanation

    @pytest.mark.parametrize(
        "node",
        [
            b'{"kind": "Component", "label": "hand", "t": "node"}',
            b'{"id": "component:hand", "kind": "Radical", "label": "hand", "t": "node"}',
            b'["node", "component:hand"]',
            b'{"id": "component:\xff", "kind": "Component", "label": "\xff", "t": "node"}',
            b'{"id": "character:c0", "kind": "Character", "label": ["x"], "t": "node"}',
            b'{"explanation": 7, "id": "component:hand", "kind": "Component", "label": "hand", "t": "node"}',
            b'{"id": 3, "kind": "Component", "label": "hand", "t": "node"}',
            b'{"from": ["character:c0"], "relation": "CONTAINS", "t": "edge", "to": "component:hand"}',
        ],
        ids=[
            "node_without_id", "unknown_kind", "record_is_a_list", "not_utf8", "label_is_a_list",
            "explanation_is_a_number", "id_is_a_number", "edge_end_is_a_list",
        ],
    )
    def test_checksummed_but_malformed_line_is_corrupt(self, tmp_path, node):
        body = [b'{"source_split": "", "t": "meta"}', node]
        checksum = {"t": "checksum", "sha256": hashlib.sha256(b"\n".join(body)).hexdigest()}
        path = tmp_path / "g.ldjson"
        path.write_bytes(b"\n".join(body + [json.dumps(checksum).encode("utf-8")]) + b"\n")
        # the checksum matches, so only the line itself can be at fault
        with pytest.raises(CorruptFileError, match=re.escape(f"graph file is malformed: {path}:2")):
            load_graph(path)

    def test_checksum_line_must_be_an_object(self, tmp_path):
        path = tmp_path / "g.ldjson"
        path.write_bytes(b'{"source_split": "", "t": "meta"}\n[1]\n')
        with pytest.raises(CorruptFileError, match="no trailing checksum line"):
            load_graph(path)

    def test_edge_kind_validation(self):
        nodes = [
            Node(component_node_id("hand"), NodeKind.COMPONENT, "hand"),
            Node(character_node_id("c0"), NodeKind.CHARACTER, "c0"),
        ]
        bad = Edge(src=component_node_id("hand"), dst=character_node_id("c0"), relation=Relation.CONTAINS)
        with pytest.raises(InconsistentCorpusError):
            KnowledgeGraph(nodes, [bad])
