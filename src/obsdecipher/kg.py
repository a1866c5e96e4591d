"""Component-character knowledge graph.

Typed nodes (Component, Character, ModernCharacter) with CONTAINS,
VARIANT_OF and MAPS_TO edges, held in an in-memory adjacency index. A
character's component labels live only in its CONTAINS edges: a node holds
its id, kind, label and explanation. The graph is immutable once built,
which makes concurrent reads trivially safe. Persistence is line-delimited
JSON with a trailing sha256 checksum line; nodes and edges follow the wire
rule of :mod:`.records`.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Annotated, Iterable, Mapping, NamedTuple

from . import records
from ._io import atomic_write_text
from .dataset import Corpus
from .errors import CorruptFileError, InconsistentCorpusError, MalformedInputError, NotFoundError


class NodeKind(str, Enum):
    COMPONENT = "Component"
    CHARACTER = "Character"
    MODERN = "ModernCharacter"


class Relation(str, Enum):
    CONTAINS = "CONTAINS"
    VARIANT_OF = "VARIANT_OF"
    MAPS_TO = "MAPS_TO"


_EDGE_ENDPOINT_KINDS = {
    Relation.CONTAINS: (NodeKind.CHARACTER, NodeKind.COMPONENT),
    Relation.VARIANT_OF: (NodeKind.CHARACTER, NodeKind.CHARACTER),
    Relation.MAPS_TO: (NodeKind.CHARACTER, NodeKind.MODERN),
}


@dataclass(frozen=True)
class Node:
    node_id: Annotated[str, "id"]
    kind: NodeKind
    label: str
    explanation: str = ""


@dataclass(frozen=True)
class Edge:
    src: Annotated[str, "from"]
    dst: Annotated[str, "to"]
    relation: Relation


def component_node_id(label: str) -> str:
    return f"component:{label}"


def character_node_id(character_id: str) -> str:
    return f"character:{character_id}"


def modern_node_id(text: str) -> str:
    return f"modern:{text}"


class KnowledgeGraph:
    """Immutable node/edge store with the four lookups the agent needs."""

    def __init__(self, nodes: Iterable[Node], edges: Iterable[Edge], source_split: str = ""):
        self.nodes: dict[str, Node] = {}
        for node in nodes:
            if node.node_id in self.nodes:
                raise InconsistentCorpusError(f"duplicate node id {node.node_id!r}")
            self.nodes[node.node_id] = node
        edge_set: set[Edge] = set()
        ordered_edges: list[Edge] = []
        for edge in edges:
            if edge in edge_set:
                continue
            self._check_edge(edge)
            edge_set.add(edge)
            ordered_edges.append(edge)
        self.edges: tuple[Edge, ...] = tuple(ordered_edges)
        self.source_split = source_split

        # adjacency indexes for O(1) lookups, both directions of CONTAINS
        self._chars_by_label: dict[str, list[str]] = {}
        self._labels_of: dict[str, list[str]] = {}
        self._variants: dict[str, list[str]] = {}
        self._modern: dict[str, str] = {}
        for edge in self.edges:
            if edge.relation is Relation.CONTAINS:
                character, label = self.nodes[edge.src].label, self.nodes[edge.dst].label
                self._chars_by_label.setdefault(label, []).append(character)
                self._labels_of.setdefault(character, []).append(label)
            elif edge.relation is Relation.VARIANT_OF:
                self._variants.setdefault(self.nodes[edge.src].label, []).append(
                    self.nodes[edge.dst].label
                )
            elif edge.relation is Relation.MAPS_TO:
                self._modern[self.nodes[edge.src].label] = self.nodes[edge.dst].label
        # sorted, so a built graph and a loaded one (edges in file order) agree
        for index in (self._chars_by_label, self._labels_of, self._variants):
            for bucket in index.values():
                bucket.sort()

    def _check_edge(self, edge: Edge) -> None:
        want_src, want_dst = _EDGE_ENDPOINT_KINDS[edge.relation]
        for endpoint, want in ((edge.src, want_src), (edge.dst, want_dst)):
            node = self.nodes.get(endpoint)
            if node is None:
                raise InconsistentCorpusError(
                    f"edge {edge.relation.value} references missing node {endpoint!r}"
                )
            if node.kind is not want:
                raise InconsistentCorpusError(
                    f"edge {edge.relation.value} endpoint {endpoint!r} has kind "
                    f"{node.kind.value}, expected {want.value}"
                )

    # --- agent tools -------------------------------------------------------

    def component_explanation(self, label: str) -> dict:
        """Exact-label explanation lookup (first external tool)."""
        node = self.nodes.get(component_node_id(label))
        if node is None:
            raise NotFoundError("component", label)
        return {"explanation": node.explanation, "node_id": node.node_id}

    def characters_by_component(self, label: str) -> list[dict]:
        """All characters containing the labeled component (second tool).

        An unknown label raises NotFoundError; a known label with zero
        incidences returns an empty list.
        """
        if component_node_id(label) not in self.nodes:
            raise NotFoundError("component", label)
        rows = []
        for character_id in self._chars_by_label.get(label, ()):
            node = self.nodes[character_node_id(character_id)]
            co = [l for l in self._labels_of[character_id] if l != label]
            rows.append(
                {
                    "character_id": character_id,
                    "interpretation": node.explanation,
                    "co_components": co,
                }
            )
        return rows

    def variant_lookup(self, character_id: str) -> list[str]:
        """All VARIANT_OF neighbours of an existing character, sorted."""
        if character_node_id(character_id) not in self.nodes:
            raise NotFoundError("character", character_id)
        return list(self._variants.get(character_id, ()))

    def modern_mapping(self, character_id: str) -> str | None:
        """Modern-form target of an existing character, or None."""
        if character_node_id(character_id) not in self.nodes:
            raise NotFoundError("character", character_id)
        return self._modern.get(character_id)


def build_graph(
    train_corpus: Corpus,
    explanations: Mapping[str, str] | None = None,
    source_split: str = "",
) -> KnowledgeGraph:
    """Assemble the graph from the training split of the corpus.

    One Component node per vocabulary label, one Character node per record,
    CONTAINS edges from the annotated component labels, symmetric VARIANT_OF
    edges within each variant group, and MAPS_TO edges to modern forms.
    Component explanations come from the ``explanations`` mapping, falling
    back to any explanation carried by the component records.
    """
    explanations = dict(explanations or {})
    fallback: dict[str, str] = {}
    for comp in train_corpus.components:
        if comp.explanation and comp.label not in fallback:
            fallback[comp.label] = comp.explanation

    nodes: list[Node] = []
    for label in sorted(train_corpus.vocabulary):
        nodes.append(
            Node(
                node_id=component_node_id(label),
                kind=NodeKind.COMPONENT,
                label=label,
                explanation=explanations.get(label, fallback.get(label, "")),
            )
        )

    edges: list[Edge] = []
    groups: dict[str, list[str]] = {}
    modern_forms: set[str] = set()
    for char in sorted(train_corpus.characters, key=lambda c: c.character_id):
        nodes.append(
            Node(
                node_id=character_node_id(char.character_id),
                kind=NodeKind.CHARACTER,
                label=char.character_id,
                explanation=char.interpretation,
            )
        )
        for label in dict.fromkeys(char.component_labels):
            if label not in train_corpus.vocabulary:
                raise InconsistentCorpusError(
                    f"character {char.character_id!r} references label {label!r} "
                    "absent from the vocabulary"
                )
            edges.append(
                Edge(
                    src=character_node_id(char.character_id),
                    dst=component_node_id(label),
                    relation=Relation.CONTAINS,
                )
            )
        if char.variant_group:
            groups.setdefault(char.variant_group, []).append(char.character_id)
        if char.modern_form:
            modern_forms.add(char.modern_form)
            edges.append(
                Edge(
                    src=character_node_id(char.character_id),
                    dst=modern_node_id(char.modern_form),
                    relation=Relation.MAPS_TO,
                )
            )

    for form in sorted(modern_forms):
        nodes.append(
            Node(node_id=modern_node_id(form), kind=NodeKind.MODERN, label=form)
        )

    # VARIANT_OF is stored symmetrically: both directions for every pair
    for group in sorted(groups):
        members = sorted(groups[group])
        for a in members:
            for b in members:
                if a != b:
                    edges.append(
                        Edge(
                            src=character_node_id(a),
                            dst=character_node_id(b),
                            relation=Relation.VARIANT_OF,
                        )
                    )
    return KnowledgeGraph(nodes, edges, source_split=source_split)


# --- persistence -------------------------------------------------------------


class _Meta(NamedTuple):
    """The first line of a graph file."""

    source_split: Annotated[str, records.Absent("")]


def save_graph(graph: KnowledgeGraph, path: str | Path) -> None:
    """LDJSON dump: meta line, nodes, edges, then a sha256 checksum line."""
    # the meta line alone keeps json's ASCII escaping: see records
    lines = [json.dumps(records.encode(_Meta(graph.source_split), {"t": "meta"}), sort_keys=True)]
    lines.extend(records.line(graph.nodes[nid], {"t": "node"}) for nid in sorted(graph.nodes))
    lines.extend(
        records.line(e, {"t": "edge"})
        for e in sorted(graph.edges, key=lambda e: (e.relation.value, e.src, e.dst))
    )
    digest = hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()
    lines.append(json.dumps({"t": "checksum", "sha256": digest}, sort_keys=True))
    atomic_write_text(path, "\n".join(lines) + "\n")


def load_graph(path: str | Path) -> KnowledgeGraph:
    """Load and verify a graph file; a checksum mismatch or a line that is
    not a graph record raises CorruptFileError."""
    # split the bytes: str.splitlines also breaks at U+2028 and U+0085,
    # which JSON leaves unescaped inside an explanation
    lines = [line for line in Path(path).read_bytes().splitlines() if line.strip()]
    if not lines:
        raise CorruptFileError("graph file is empty")
    try:
        last = json.loads(lines[-1])
    except ValueError as exc:
        raise CorruptFileError(f"graph file checksum line unreadable: {exc}") from exc
    if not isinstance(last, dict) or last.get("t") != "checksum":
        raise CorruptFileError("graph file has no trailing checksum line")
    body = lines[:-1]
    if hashlib.sha256(b"\n".join(body)).hexdigest() != last.get("sha256"):
        raise CorruptFileError("graph file checksum mismatch")

    # an "attributes" key, written by older versions of node lines, is ignored
    try:
        found = records.read_lines(body, path, "t", {"meta": _Meta, "node": Node, "edge": Edge})
    except MalformedInputError as exc:
        raise CorruptFileError(f"graph file is malformed: {exc}") from exc
    source_split = found["meta"][-1].source_split if found["meta"] else ""
    return KnowledgeGraph(found["node"], found["edge"], source_split=source_split)
