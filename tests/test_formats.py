"""The files ``obs`` reads and writes, held at the byte level.

The referee feeds each command a valid input file with one thing broken in
it and requires a typed exit, and each hosted client a broken reply and
requires a typed error; the digest golden pins every byte the
commands write for a fixed fixture.
"""

import hashlib
import json
import shutil
import tempfile
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from obsdecipher.backends import ChatMessage, ChatRequest, HttpChatBackend
from obsdecipher.cli import main
from obsdecipher.embedding import RemoteEmbeddingProvider
from obsdecipher.errors import ObsError

from conftest import make_run_fixture, serving, train_and_build_kg, write_annotation

GOLDENS = Path(__file__).parent / "goldens"


@pytest.fixture(scope="module", autouse=True)
def offline_env():
    with pytest.MonkeyPatch.context() as patch:
        for var in ("OBS_EMBED_URL", "OBS_CHAT_URL", "OBS_CHAT_KEY",
                    "OBS_RETRIEVER_URL", "OBS_REASONER_URL"):
            patch.delenv(var, raising=False)
        yield


def _invoke(*args):
    result = CliRunner().invoke(main, [str(a) for a in args])
    assert result.exit_code == 0, result.output
    return result


# --- the referee -------------------------------------------------------------

@pytest.fixture(scope="module")
def valid(tmp_path_factory):
    """One valid file of each format a command reads, and the other inputs
    those commands need."""
    root = tmp_path_factory.mktemp("valid")
    _, manifest, explanations = make_run_fixture(root, n_characters=4)
    model, graph = train_and_build_kg(manifest, explanations)
    _invoke("run", "--manifest", manifest, "--out-dir", root / "results", "--model", model,
            "--graph", graph, "--mock", "--image-root", root)
    (root / "results" / "run_manifest.json").unlink()
    annotations = root / "ann"
    annotations.mkdir()
    write_annotation(annotations / "char0.json", image_path="char0.png", shapes=[
        {"label": "hand", "points": [[1, 1], [20, 1], [20, 30], [1.5, 30]]},
        {"label": "roof", "points": [[2, 2], [9, 2], [9, 9]]},
    ])
    (root / "vocab.txt").write_text("hand\nroof\n", encoding="utf-8")
    (root / "metadata.json").write_text(json.dumps({"char0": {
        "interpretation": "手在屋下", "inscription_type": "ideographic",
        "modern_form": "休", "variant_group": None,
    }}, ensure_ascii=False), encoding="utf-8")
    return root


def _command(format_name, command, root, bad):
    """``command``'s arguments, reading the damaged file ``bad`` in place of
    the valid file of ``format_name``; ``bad`` sits in a directory of its own."""
    if format_name == "annotation":
        return ["ingest", "--annotations", bad.parent, "--vocab", root / "vocab.txt",
                "--metadata", root / "metadata.json", "--out", bad.parent / "out.ldjson"]
    if format_name == "metadata":
        return ["ingest", "--annotations", root / "ann", "--vocab", root / "vocab.txt",
                "--metadata", bad, "--out", bad.parent / "out.ldjson"]
    if format_name == "explanations":
        return ["build-kg", "--manifest", root / "corpus.ldjson", "--explanations", bad,
                "--out", bad.parent / "g.ldjson"]
    if format_name == "graph":
        return ["query", "--graph", bad, "--tool", "characters_by_component", "--arg", "hand"]
    if format_name == "model":
        return ["classify", "--model", bad, "--image", root / "images" / "char0000.png"]
    if format_name == "result":
        return ["evaluate", "--results", bad.parent, "--gold", root / "corpus.ldjson",
                "--metrics", "rouge1,type_acc"]
    return {  # the corpus manifest
        "train": ["train", "--manifest", bad, "--out", bad.parent / "m.bin",
                  "--image-root", root],
        "build-kg": ["build-kg", "--manifest", bad, "--explanations", root / "explanations.json",
                     "--out", bad.parent / "g.ldjson"],
        "evaluate": ["evaluate", "--results", root / "results", "--gold", bad,
                     "--metrics", "rouge1,type_acc"],
    }[command]


def _source(format_name, root):
    return {
        "annotation": root / "ann" / "char0.json",
        "metadata": root / "metadata.json",
        "manifest": root / "corpus.ldjson",
        "explanations": root / "explanations.json",
        "graph": root / "graph.ldjson",
        "model": root / "model.bin",
        "result": root / "results" / "char0001.json",
    }[format_name]


OTHER_TYPES = [None, True, 0, 7, -1, 2.5, "", "7", "false", [], [1.5, "a", None], ["x"], {}, {"k": 1}]


def _paths(value, prefix=()):
    """The path of every value nested in a JSON document, the root's excepted."""
    children = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, list) else ())
    for key, child in children:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


@st.composite
def json_mutation(draw, doc):
    """``doc`` with one value replaced by another JSON type, or one key deleted."""
    paths = list(_paths(doc))
    if not paths:
        return draw(st.sampled_from(OTHER_TYPES))
    path = draw(st.sampled_from(paths))
    doc = json.loads(json.dumps(doc))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if draw(st.booleans()):
        del parent[path[-1]]
    else:
        old = parent[path[-1]]
        parent[path[-1]] = draw(st.sampled_from([v for v in OTHER_TYPES if type(v) is not type(old)]))
    return doc


@st.composite
def damaged(draw, raw, layout):
    """``raw`` truncated or with one byte flipped; a ``"json"`` file, or one
    line of an ``"ldjson"`` file, may instead get one field mutated."""
    how = draw(st.sampled_from(["truncate", "flip"] + ["field"] * (layout != "binary")))
    if how == "truncate":
        return raw[: draw(st.integers(0, len(raw) - 1))]
    if how == "flip":
        at = draw(st.integers(0, len(raw) - 1))
        return raw[:at] + bytes([raw[at] ^ draw(st.integers(1, 255))]) + raw[at + 1:]
    if layout == "json":
        return json.dumps(draw(json_mutation(json.loads(raw)))).encode("utf-8")
    rows = raw.splitlines()
    i = draw(st.integers(0, len(rows) - 1))
    rows[i] = json.dumps(draw(json_mutation(json.loads(rows[i]))), ensure_ascii=False).encode()
    return b"\n".join(rows) + b"\n"


def _rechecksum(raw):
    """A graph file's bytes with its checksum line made to match its body."""
    body = [line for line in raw.splitlines() if line.strip()][:-1]
    digest = hashlib.sha256(b"\n".join(body)).hexdigest()
    return b"\n".join(body + [json.dumps({"sha256": digest, "t": "checksum"}).encode()]) + b"\n"


REFEREE_CASES = [
    ("annotation", "ingest"), ("metadata", "ingest"), ("manifest", "train"),
    ("manifest", "build-kg"), ("manifest", "evaluate"), ("explanations", "build-kg"),
    ("graph", "query"), ("model", "classify"), ("result", "evaluate"),
]


@pytest.mark.parametrize("format_name,command", REFEREE_CASES,
                         ids=[f"{f}-{c}" for f, c in REFEREE_CASES])
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_a_damaged_file_ends_in_a_typed_exit(valid, format_name, command, data):
    source = _source(format_name, valid)
    raw = source.read_bytes()
    layout = {"model": "binary", "manifest": "ldjson", "graph": "ldjson"}.get(format_name, "json")
    bad_bytes = data.draw(damaged(raw, layout), label="file")
    if format_name == "graph" and data.draw(st.booleans(), label="rechecksum"):
        # a matching checksum lets the damage reach the line decoder
        bad_bytes = _rechecksum(bad_bytes) if bad_bytes.strip() else bad_bytes
    with tempfile.TemporaryDirectory() as scratch:
        bad = Path(scratch) / source.name
        if format_name == "result":
            for sibling in source.parent.glob("*.json"):
                shutil.copy(sibling, Path(scratch) / sibling.name)
        bad.write_bytes(bad_bytes)
        result = CliRunner().invoke(main, [str(a) for a in _command(format_name, command, valid, bad)])
    assert result.exit_code in (0, 1, 2), result.output
    assert result.exception is None or isinstance(result.exception, SystemExit), repr(
        result.exception)


@pytest.fixture(scope="module")
def hosted():
    with serving() as server:
        yield server


HOSTED_REPLIES = {
    "chat": {"content": "TYPE: pictographic", "usage": {"prompt_tokens": 12, "completion_tokens": 5}},
    "encoder": {"dim": 4, "values": [0.5, -0.25, 1.0, 0.0]},
}


@pytest.mark.parametrize("client", sorted(HOSTED_REPLIES))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_a_damaged_hosted_reply_ends_in_a_typed_error(hosted, client, data):
    """Each hosted client returns or raises an ``ObsError``, whatever the reply."""
    raw = json.dumps(HOSTED_REPLIES[client]).encode("utf-8")
    hosted.reply(data.draw(damaged(raw, "json"), label="reply"))
    try:
        if client == "chat":
            HttpChatBackend(hosted.url).complete(ChatRequest((ChatMessage("user", "hi"),)))
        else:
            RemoteEmbeddingProvider(hosted.url, dim=4).embed_text("hi")
    except ObsError:
        pass


# --- the bytes every command writes -------------------------------------------

def _written_files(root):
    """Run split, train, build-kg, a mock run in both modes and a mock
    evaluate in ``root`` with relative paths, and digest what they wrote."""
    make_run_fixture(root, n_characters=10, seed=3)
    given_files = set(root.rglob("*"))
    _invoke("split", "--manifest", "corpus.ldjson", "--unit", "by_character", "--ratio", "0.5",
            "--seed", "1", "--out-train", "train.ldjson", "--out-test", "test.ldjson")
    _invoke("train", "--manifest", "train.ldjson", "--out", "model.bin", "--image-root", ".")
    _invoke("build-kg", "--manifest", "train.ldjson", "--explanations", "explanations.json",
            "--out", "graph.ldjson")
    for mode in ("vlm", "multi_agent"):
        _invoke("run", "--manifest", "test.ldjson", "--out-dir", mode, "--model", "model.bin",
                "--graph", "graph.ldjson", "--mock", "--image-root", ".", "--mode", mode)
    _invoke("evaluate", "--results", "vlm", "--gold", "test.ldjson", "--mock", "--out",
            "report.json", "--metrics", "rouge1,embedding_f1,judge,type_acc")
    return {
        path.relative_to(root).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(set(root.rglob("*")) - given_files)
        if path.is_file()
    }


def test_every_written_file_matches_its_golden_digest(tmp_path, monkeypatch):
    """Manifests, model, graph, results, evidence, run manifests and the
    report, byte for byte. No written file depends on the temporary
    directory: every path the commands get is relative to it."""
    monkeypatch.chdir(tmp_path)
    golden = json.loads((GOLDENS / "file_digests.json").read_text(encoding="utf-8"))
    assert _written_files(tmp_path) == golden


# --- no silent coercion --------------------------------------------------------

# (file, field, value): values the readers once coerced into a record
COERCIONS = [
    ("result", "retrieval_fallback", "false"),
    ("result", "evidence_used", "12"),
    ("result", "evidence_used", [1.5, "a", None]),
    ("result", "inscription_type", 0),
    ("result", "inscription_type", []),
    ("result", "usage_by_backend", [["offline-mock", {"prompt": "7", "completion": 1}]]),
    ("result", "usage_by_backend", [["offline-mock", {"prompt": 2.9, "completion": 1}]]),
    ("result", "usage_by_backend", [["offline-mock", {"prompt": True, "completion": 1}]]),
    ("manifest", "polygon", [["1", "2"], [3, 4], [5, 6]]),
    ("manifest", "polygon", [[True, 0], [3, 4], [5, 6]]),
]


@pytest.mark.parametrize("file,field,value", COERCIONS,
                         ids=[f"{f}-{k}-{json.dumps(v)}" for f, k, v in COERCIONS])
def test_a_value_of_the_wrong_json_type_is_refused(valid, tmp_path, file, field, value):
    if file == "result":
        results = tmp_path / "results"
        shutil.copytree(valid / "results", results)
        path = results / "char0001.json"
        path.write_text(json.dumps({**json.loads(path.read_text(encoding="utf-8")), field: value}),
                        encoding="utf-8")
        args = ["evaluate", "--results", results, "--gold", valid / "corpus.ldjson",
                "--metrics", "rouge1"]
    else:
        lines = (valid / "corpus.ldjson").read_text(encoding="utf-8").splitlines()
        at = next(i for i, line in enumerate(lines) if json.loads(line)["kind"] == "component")
        lines[at] = json.dumps({**json.loads(lines[at]), field: value}, ensure_ascii=False)
        path = tmp_path / "corpus.ldjson"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        args = ["train", "--manifest", path, "--out", tmp_path / "model.bin",
                "--image-root", valid]
    result = CliRunner().invoke(main, [str(a) for a in args])
    assert result.exit_code == 1, result.output
    assert f"MalformedInputError: {path}" in result.output
    assert f"'{field}" in result.output
    assert isinstance(result.exception, SystemExit)


def test_an_integer_beyond_the_range_of_a_float_is_refused(valid, tmp_path):
    # float() raises OverflowError on it, which no reader caught
    test_a_value_of_the_wrong_json_type_is_refused(
        valid, tmp_path, "manifest", "polygon", [[10**309, 0], [3, 4], [5, 6]])
