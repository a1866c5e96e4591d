import json
import os
import subprocess
import sys
import threading
from dataclasses import replace
from pathlib import Path

import pytest
from click.testing import CliRunner

import obsdecipher.cli as cli_mod
from obsdecipher.backends import OfflineChatBackend
from obsdecipher.cli import main
from obsdecipher.dataset import read_manifest, write_manifest
from obsdecipher.embedding import StubEmbeddingProvider

from conftest import make_run_fixture, train_and_build_kg, write_annotation


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture(autouse=True)
def offline_env(monkeypatch):
    for var in ("OBS_EMBED_URL", "OBS_CHAT_URL", "OBS_CHAT_KEY",
                "OBS_RETRIEVER_URL", "OBS_REASONER_URL"):
        monkeypatch.delenv(var, raising=False)


def invoke(runner, *args):
    result = runner.invoke(main, list(args), catch_exceptions=False)
    return result


def last_json(output: str) -> dict:
    # commands may print a table to stderr; stdout is one JSON document
    return json.loads(output)


class TestIngestStatsSplit:
    def setup_fixture(self, tmp_path):
        ann_dir = tmp_path / "ann"
        ann_dir.mkdir()
        shape_sets = {
            "char0": [
                {"label": "hand", "points": [[1, 1], [5, 1], [5, 5]]},
                {"label": "roof", "points": [[6, 6], [9, 6], [9, 9]]},
            ],
            "char1": [{"label": "hand", "points": [[1, 1], [4, 1], [4, 4]]}],
            "char2": [
                {"label": "roof", "points": [[1, 1], [4, 1], [4, 4]]},
                {"label": "water", "points": [[5, 5], [8, 5], [8, 8]]},
                {"label": "hand", "points": [[2, 6], [3, 6], [3, 7]]},
            ],
        }
        for name, shapes in shape_sets.items():
            write_annotation(ann_dir / f"{name}.json", image_path=f"{name}.png", shapes=shapes)
        vocab = tmp_path / "vocab.txt"
        vocab.write_text("hand\nroof\nwater\n", encoding="utf-8")
        meta = tmp_path / "meta.json"
        meta.write_text(
            json.dumps({
                "char0": {"interpretation": "手在屋下", "inscription_type": "ideographic"},
                "char1": {"modern_form": "手", "variant_group": "g1", "interpretation": None},
            }),
            encoding="utf-8",
        )
        return ann_dir, vocab, meta, shape_sets

    def test_ingest_then_stats(self, runner, tmp_path):
        ann_dir, vocab, meta, shape_sets = self.setup_fixture(tmp_path)
        manifest = tmp_path / "corpus.ldjson"
        result = invoke(
            runner, "ingest", "--annotations", str(ann_dir), "--vocab", str(vocab),
            "--out", str(manifest), "--metadata", str(meta),
        )
        assert result.exit_code == 0
        stats = invoke(runner, "stats", "--manifest", str(manifest))
        doc = last_json(stats.output)
        expected_components = sum(len(s) for s in shape_sets.values())
        assert doc["character_images"] == 3
        assert doc["component_images"] == expected_components
        assert doc["distinct_components"] == 3
        # metadata landed on the record
        corpus = read_manifest(manifest)
        char0, char1, _ = corpus.characters
        assert char0.interpretation == "手在屋下"
        assert (char1.interpretation, char1.modern_form, char1.variant_group) == ("", "手", "g1")

    @pytest.mark.parametrize(
        "field,value",
        [("variant_group", 7), ("modern_form", ["x"]), ("interpretation", 5),
         ("inscription_type", {"t": "ideographic"})],
    )
    def test_ingest_refuses_metadata_of_the_wrong_type(self, runner, tmp_path, field, value):
        # a manifest holding such a value could not be read back by obs stats
        ann_dir, vocab, meta, _ = self.setup_fixture(tmp_path)
        meta.write_text(json.dumps({"char1": {field: value}}), encoding="utf-8")
        out = tmp_path / "corpus.ldjson"
        result = runner.invoke(main, [
            "ingest", "--annotations", str(ann_dir), "--vocab", str(vocab),
            "--out", str(out), "--metadata", str(meta),
        ])
        assert result.exit_code == 1
        assert (f"MalformedInputError: metadata for 'char1': {field!r} is "
                f"{type(value).__name__}, not str") in result.output
        assert not out.exists()

    def test_ingest_refuses_an_unknown_inscription_type(self, runner, tmp_path):
        ann_dir, vocab, meta, _ = self.setup_fixture(tmp_path)
        meta.write_text(json.dumps({"char1": {"inscription_type": "bogus"}}), encoding="utf-8")
        out = tmp_path / "corpus.ldjson"
        result = runner.invoke(main, [
            "ingest", "--annotations", str(ann_dir), "--vocab", str(vocab),
            "--out", str(out), "--metadata", str(meta),
        ])
        assert result.exit_code == 1
        assert "SchemaViolationError: metadata for 'char1': inscription_type must be" in result.output
        assert "'bogus'" in result.output
        assert not out.exists()

    def test_ingest_unknown_label_is_domain_error(self, runner, tmp_path):
        ann_dir = tmp_path / "ann"
        ann_dir.mkdir()
        write_annotation(
            ann_dir / "bad.json",
            shapes=[{"label": "rooof", "points": [[1, 1], [2, 1], [2, 2]]}],
        )
        vocab = tmp_path / "vocab.txt"
        vocab.write_text("hand\n", encoding="utf-8")
        result = runner.invoke(
            main,
            ["ingest", "--annotations", str(ann_dir), "--vocab", str(vocab),
             "--out", str(tmp_path / "out.ldjson")],
        )
        assert result.exit_code == 1
        assert "UnknownLabel" in result.output

    def test_vocabulary_that_is_not_utf8_is_domain_error(self, runner, tmp_path):
        ann_dir = tmp_path / "ann"
        ann_dir.mkdir()
        write_annotation(ann_dir / "char0.json", image_path="char0.png")
        vocab = tmp_path / "vocab.txt"
        vocab.write_bytes(b"hand\n\xff\xfe\n")
        result = runner.invoke(
            main,
            ["ingest", "--annotations", str(ann_dir), "--vocab", str(vocab),
             "--out", str(tmp_path / "out.ldjson")],
        )
        assert result.exit_code == 1
        assert f"MalformedInputError: {vocab} is not UTF-8 text" in result.output
        assert isinstance(result.exception, SystemExit)

    def test_split_partition(self, runner, tmp_path):
        _, manifest, _ = make_run_fixture(tmp_path, n_characters=12)
        out_train = tmp_path / "train.ldjson"
        out_test = tmp_path / "test.ldjson"
        result = invoke(
            runner, "split", "--manifest", str(manifest), "--ratio", "0.7", "--seed", "3",
            "--unit", "by_component_class", "--out-train", str(out_train),
            "--out-test", str(out_test),
        )
        assert result.exit_code == 0
        full = read_manifest(manifest)
        train, test = read_manifest(out_train), read_manifest(out_test)
        assert len(train.components) + len(test.components) == len(full.components)
        assert not {c.component_id for c in train.components} & {
            c.component_id for c in test.components
        }


class TestUsageErrors:
    def test_unknown_flag_exits_2(self, runner):
        result = runner.invoke(main, ["stats", "--bogus-flag", "x"])
        assert result.exit_code == 2

    def test_unknown_command_exits_2(self, runner):
        result = runner.invoke(main, ["decipher-everything"])
        assert result.exit_code == 2


MALFORMED_JSON = {
    "truncated": b'{"hand": "a hand",',
    "not_an_object": b'["hand", "roof"]',
    "not_utf8": b'{"hand": "\xff\xfe"}',
}


def _json_input_command(command, tmp_path, bad_file):
    """Arguments for each command that reads a JSON object file."""
    if command == "stats":
        return ["stats", "--manifest", str(bad_file)]
    if command == "ingest":
        ann_dir = tmp_path / "ann"
        ann_dir.mkdir()
        write_annotation(ann_dir / "char0.json", image_path="char0.png")
        vocab = tmp_path / "vocab.txt"
        vocab.write_text("hand\n", encoding="utf-8")
        return ["ingest", "--annotations", str(ann_dir), "--vocab", str(vocab),
                "--out", str(tmp_path / "out.ldjson"), "--metadata", str(bad_file)]
    _, manifest, explanations = make_run_fixture(tmp_path, n_characters=2)
    if command == "build-kg":
        return ["build-kg", "--manifest", str(manifest), "--explanations", str(bad_file),
                "--out", str(tmp_path / "graph.ldjson")]
    if command == "evaluate":
        results = tmp_path / "results"
        results.mkdir()
        bad_file.rename(results / "char0000.json")
        return ["evaluate", "--results", str(results), "--gold", str(manifest)]
    model, graph = train_and_build_kg(manifest, explanations)
    return ["run", "--manifest", str(bad_file), "--out-dir", str(tmp_path / "out"),
            "--model", str(model), "--graph", str(graph), "--mock", "--image-root", str(tmp_path)]


# valid as build-kg's label -> text file, malformed as metadata
MALFORMED_METADATA = {"value_not_an_object": b'{"char0": "ideographic"}'}

# well-formed JSON objects that lack a field the record requires
MISSING_FIELD = {
    "character_without_id": b'{"kind": "character"}',
    "result_without_interpretation": b'{"character_ref": "char0000", "mode": "vlm"}',
}

MALFORMED_CASES = [
    (command, kind)
    for command in ("ingest", "build-kg", "run", "stats", "evaluate")
    for kind in sorted(MALFORMED_JSON)
] + [
    ("ingest", "value_not_an_object"),
    ("stats", "character_without_id"),
    ("evaluate", "result_without_interpretation"),
]


@pytest.mark.parametrize(
    "command,kind", MALFORMED_CASES, ids=[f"{command}-{kind}" for command, kind in MALFORMED_CASES]
)
def test_malformed_json_input_is_domain_error(runner, tmp_path, command, kind):
    bad_file = tmp_path / "input.json"
    bad_file.write_bytes({**MALFORMED_JSON, **MALFORMED_METADATA, **MISSING_FIELD}[kind])
    result = runner.invoke(main, _json_input_command(command, tmp_path, bad_file))
    assert result.exit_code == 1
    assert "MalformedInputError" in result.output
    assert isinstance(result.exception, SystemExit)


def _missing_dir_command(runner, command, tmp_path, missing):
    """Arguments for each command that writes its output into ``missing``."""
    _, manifest, explanations = make_run_fixture(tmp_path, n_characters=4)
    if command == "split":
        return ["split", "--manifest", str(manifest), "--out-train", str(missing / "train.ldjson"),
                "--out-test", str(tmp_path / "test.ldjson")]
    if command == "eval-topk":
        model = tmp_path / "model.bin"
        invoke(runner, "train", "--manifest", str(manifest), "--out", str(model),
               "--image-root", str(tmp_path))
        return ["eval-topk", "--model", str(model), "--manifest", str(manifest),
                "--image-root", str(tmp_path), "--out", str(missing / "topk.json")]
    results = tmp_path / "results"
    model, graph = train_and_build_kg(manifest, explanations)
    invoke(runner, "run", "--manifest", str(manifest), "--out-dir", str(results),
           "--model", str(model), "--graph", str(graph), "--mock", "--image-root", str(tmp_path))
    return ["evaluate", "--results", str(results), "--gold", str(manifest),
            "--metrics", "rouge1", "--out", str(missing / "report.json")]


def test_importing_the_cli_loads_no_scipy():
    # scipy.optimize alone about doubles the start-up time of every command,
    # and an HTTP client adds a tenth to a third; the hosted clients import
    # the stdlib one when they post
    code = (
        "import sys, obsdecipher.cli; print(sorted(m for m in sys.modules if m.startswith("
        "('scipy', 'requests', 'urllib3', 'http.client', 'urllib.request'))))"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(cli_mod.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


@pytest.mark.parametrize("command", ["split", "eval-topk", "evaluate"])
def test_output_in_missing_directory_is_domain_error(runner, tmp_path, command):
    missing = tmp_path / "nodir"
    result = runner.invoke(main, _missing_dir_command(runner, command, tmp_path, missing))
    assert result.exit_code == 1
    assert "FileNotFoundError" in result.output
    # the target the user gave, not the writer's hidden temp file beside it
    assert f"{missing}{os.sep}" in result.output
    assert f"{missing}{os.sep}." not in result.output
    assert isinstance(result.exception, SystemExit)
    assert not missing.exists()


# (field, record kind, command that reads it): the manifest field holds the number 5
NON_STRING_FIELDS = [
    ("character_id", "character", "split"),
    ("character_id", "character", "run"),
    ("image_ref", "component", "train"),
    ("label", "component", "train"),
    ("label", "component", "build-kg"),
    ("interpretation", "character", "stats"),
    ("variant_group", "character", "stats"),
]


@pytest.mark.parametrize(
    "field,kind,command", NON_STRING_FIELDS,
    ids=[f"{command}-{kind}_{field}" for field, kind, command in NON_STRING_FIELDS],
)
def test_manifest_field_that_is_not_a_string_is_domain_error(runner, tmp_path, field, kind, command):
    _, good_manifest, explanations = make_run_fixture(tmp_path, n_characters=3)
    lines = good_manifest.read_text(encoding="utf-8").splitlines()
    lineno = next(i for i, line in enumerate(lines, 1) if json.loads(line)["kind"] == kind)
    lines[lineno - 1] = json.dumps({**json.loads(lines[lineno - 1]), field: 5})
    manifest = tmp_path / "bad.ldjson"
    manifest.write_text("\n".join(lines) + "\n", encoding="utf-8")
    if command == "run":
        model, graph = train_and_build_kg(good_manifest, explanations)
        args = ["--out-dir", str(tmp_path / "out"), "--model", str(model), "--graph", str(graph),
                "--mock", "--image-root", str(tmp_path)]
    else:
        args = {
            "split": ["--unit", "by_character", "--out-train", str(tmp_path / "train.ldjson"),
                      "--out-test", str(tmp_path / "test.ldjson")],
            "train": ["--out", str(tmp_path / "m.bin"), "--image-root", str(tmp_path)],
            "build-kg": ["--out", str(tmp_path / "g.ldjson")],
            "stats": [],
        }[command]
    result = runner.invoke(main, [command, "--manifest", str(manifest), *args])
    assert result.exit_code == 1
    assert f"MalformedInputError: {manifest}:{lineno}: malformed {kind} record" in result.output
    assert f"'{field}' is int, not str" in result.output
    assert isinstance(result.exception, SystemExit)


class TestModelCommands:
    def test_train_classify_eval(self, runner, tmp_path):
        corpus, manifest, _ = make_run_fixture(tmp_path, n_characters=12)
        # trained on fewer characters, so some test crops have no prototype
        (tmp_path / "few").mkdir()
        few, few_manifest, _ = make_run_fixture(tmp_path / "few", n_characters=3)
        model = tmp_path / "model.bin"
        result = invoke(runner, "train", "--manifest", str(few_manifest), "--out", str(model),
                        "--image-root", str(tmp_path / "few"))
        assert result.exit_code == 0
        doc = last_json(result.output)
        assert doc["classes"] >= 1 and doc["dim"] == 768

        image = tmp_path / "images" / "char0000.png"
        classified = invoke(runner, "classify", "--model", str(model), "--image", str(image), "--k", "3")
        preds = last_json(classified.output)["predictions"]
        assert 1 <= len(preds) <= 3
        assert all(set(p) == {"label", "distance"} for p in preds)

        report = tmp_path / "topk.json"
        evaluated = invoke(
            runner, "eval-topk", "--model", str(model), "--manifest", str(manifest),
            "--image-root", str(tmp_path), "--ks", "1,3,5", "--out", str(report),
        )
        doc = last_json(evaluated.output)
        accs = [doc["acc"][k] for k in ("1", "3", "5")]
        assert accs[0] <= accs[1] <= accs[2]
        trained = {comp.label for comp in few.components}
        unseen = sum(comp.label not in trained for comp in corpus.components)
        assert 0 < unseen < doc["test_items"] == len(corpus.components)
        assert doc["unseen_labels"] == unseen
        assert accs[2] <= 1 - unseen / doc["test_items"]
        assert json.loads(report.read_text(encoding="utf-8")) == doc

    @pytest.mark.parametrize(
        "command, value, message",
        [
            ("classify", "0", "--k must be >= 1, got 0"),
            ("eval-topk", "0", "every k in --ks must be >= 1, got '0'"),
            ("eval-topk", "0,3", "every k in --ks must be >= 1, got '0,3'"),
            ("eval-topk", ",", "--ks names no k, got ','"),
            ("eval-topk", "x", "--ks must be comma-separated integers, got 'x'"),
        ],
        ids=["k_0", "ks_0", "ks_0_3", "ks_comma", "ks_x"],
    )
    def test_bad_k_is_a_config_error_before_any_work(
        self, runner, tmp_path, monkeypatch, command, value, message
    ):
        _, manifest, _ = make_run_fixture(tmp_path, n_characters=3)
        model = tmp_path / "model.bin"
        invoke(runner, "train", "--manifest", str(manifest), "--out", str(model),
               "--image-root", str(tmp_path))
        embedded = []
        monkeypatch.setattr(StubEmbeddingProvider, "embed_image", lambda self, data: embedded.append(data))
        if command == "classify":
            args = ["--image", str(tmp_path / "images" / "char0000.png"), "--k", value]
        else:
            args = ["--manifest", str(manifest), "--image-root", str(tmp_path), "--ks", value]
        result = runner.invoke(main, [command, "--model", str(model), *args])
        assert result.exit_code == 1
        assert f"ConfigError: {message}" in result.output
        assert embedded == []


    @pytest.mark.parametrize("command", ["train", "eval-topk"])
    def test_missing_crop_is_an_error_naming_its_path(self, runner, tmp_path, command):
        corpus, manifest, _ = make_run_fixture(tmp_path, n_characters=3)
        model = tmp_path / "model.bin"
        if command == "eval-topk":
            invoke(runner, "train", "--manifest", str(manifest), "--out", str(model),
                   "--image-root", str(tmp_path))
        comp = corpus.components[1]
        crop = tmp_path / comp.image_ref
        crop.unlink()
        args = {"train": ["--out", str(model)], "eval-topk": ["--model", str(model)]}[command]
        result = runner.invoke(main, [
            command, "--manifest", str(manifest), "--image-root", str(tmp_path), *args,
        ])
        assert result.exit_code == 1
        assert (f"MalformedInputError: component {comp.component_id!r}: "
                f"cannot read crop {str(crop)!r}") in result.output
        assert model.exists() is (command == "eval-topk")


class TestGraphCommands:
    def test_build_and_query(self, runner, tmp_path):
        corpus, manifest, explanations = make_run_fixture(tmp_path, n_characters=10)
        graph_path = tmp_path / "graph.ldjson"
        built = invoke(
            runner, "build-kg", "--manifest", str(manifest),
            "--explanations", str(explanations), "--out", str(graph_path),
        )
        assert built.exit_code == 0

        # the manifest carries only labels in use; query one of those
        label = sorted({c.label for c in corpus.components})[0]
        queried = invoke(
            runner, "query", "--graph", str(graph_path),
            "--tool", "component_explanation", "--arg", label,
        )
        doc = last_json(queried.output)
        assert doc["result"]["explanation"].startswith(f"部件{label}")

        contained = invoke(
            runner, "query", "--graph", str(graph_path),
            "--tool", "characters_by_component", "--arg", label,
        )
        rows = last_json(contained.output)["result"]
        want = sorted(c.character_id for c in corpus.characters if label in c.component_labels)
        assert [r["character_id"] for r in rows] == want

    def test_query_missing_label_exits_1(self, runner, tmp_path):
        _, manifest, explanations = make_run_fixture(tmp_path, n_characters=4)
        graph_path = tmp_path / "graph.ldjson"
        invoke(runner, "build-kg", "--manifest", str(manifest),
               "--explanations", str(explanations), "--out", str(graph_path))
        result = runner.invoke(
            main, ["query", "--graph", str(graph_path),
                   "--tool", "component_explanation", "--arg", "no-such"],
        )
        assert result.exit_code == 1
        assert "NotFound" in result.output

    @pytest.mark.parametrize("value", [5, None, ["text"], {"zh": "text"}], ids=repr)
    def test_an_explanation_that_is_not_a_string_is_refused(self, runner, tmp_path, value):
        corpus, manifest, explanations = make_run_fixture(tmp_path, n_characters=3)
        label = sorted({c.label for c in corpus.components})[0]
        doc = json.loads(explanations.read_text(encoding="utf-8"))
        explanations.write_text(json.dumps({**doc, label: value}), encoding="utf-8")
        graph_path = tmp_path / "graph.ldjson"
        result = runner.invoke(
            main, ["build-kg", "--manifest", str(manifest), "--explanations", str(explanations),
                   "--out", str(graph_path)],
        )
        assert result.exit_code == 1
        assert "MalformedInputError" in result.output
        assert f"explanation of {label!r}" in result.output
        assert not graph_path.exists()


class TestInterpretCommand:
    def build_artifacts(self, tmp_path):
        corpus, manifest, explanations = make_run_fixture(tmp_path, n_characters=8)
        return (corpus, *train_and_build_kg(manifest, explanations))

    def test_requires_backend_or_mock(self, runner, tmp_path):
        corpus, model, graph = self.build_artifacts(tmp_path)
        image = tmp_path / corpus.characters[0].image_ref
        result = runner.invoke(
            main, ["interpret", "--graph", str(graph), "--model", str(model),
                   "--image", str(image)],
        )
        assert result.exit_code == 1
        assert "backend not configured" in result.output

    @pytest.mark.parametrize("mode", ["vlm", "multi_agent"])
    def test_mock_interpret(self, runner, tmp_path, mode):
        corpus, model, graph = self.build_artifacts(tmp_path)
        image = tmp_path / corpus.characters[0].image_ref
        out = tmp_path / "result.json"
        result = invoke(
            runner, "interpret", "--graph", str(graph), "--model", str(model),
            "--image", str(image), "--mode", mode, "--mock",
            "--out", str(out), "--dump-evidence",
            "--character-ref", corpus.characters[0].character_id,
        )
        assert result.exit_code == 0
        doc = json.loads(out.read_text(encoding="utf-8"))
        assert doc["mode"] == mode
        assert doc["inscription_type"] in ("ideographic", "pictographic", "phono-semantic")
        assert doc["interpretation"]
        assert doc["token_usage"]["prompt"] > 0
        assert "evidence" in doc
        assert doc["evidence"]["character_ref"] == corpus.characters[0].character_id

    @pytest.mark.parametrize("mode", ["vlm", "multi_agent"])
    def test_interpret_prints_what_a_one_character_run_writes(self, runner, tmp_path, mode):
        corpus, model, graph = self.build_artifacts(tmp_path)
        char = corpus.characters[3]
        manifest = tmp_path / "one.ldjson"
        write_manifest(replace(corpus, characters=(char,), components=()), manifest)
        out_dir = tmp_path / "run"
        invoke(runner, "run", "--manifest", str(manifest), "--out-dir", str(out_dir),
               "--model", str(model), "--graph", str(graph), "--mode", mode, "--mock",
               "--image-root", str(tmp_path))
        result = invoke(
            runner, "interpret", "--graph", str(graph), "--model", str(model),
            "--image", str(tmp_path / char.image_ref), "--mode", mode, "--mock",
            "--dump-evidence", "--character-ref", char.character_id,
        )
        assert result.exit_code == 0
        written = json.loads((out_dir / f"{char.character_id}.json").read_text(encoding="utf-8"))
        (line,) = (out_dir / "evidence.ldjson").read_text(encoding="utf-8").splitlines()
        assert last_json(result.output) == {**written, "evidence": json.loads(line)}

    @pytest.mark.parametrize(
        "image_bytes,ref,message",
        [
            (b"", "char0000", "EmptyInputError: image bytes are empty"),
            # interpret refuses the ids that obs run refuses
            (b"PNGFAKE", "a/b", "MalformedInputError: character id 'a/b' cannot name a result file"),
        ],
        ids=["empty_image", "id_with_a_slash"],
    )
    def test_bad_input_is_domain_error(self, runner, tmp_path, image_bytes, ref, message):
        _, model, graph = self.build_artifacts(tmp_path)
        image = tmp_path / "query.png"
        image.write_bytes(image_bytes)
        result = runner.invoke(main, [
            "interpret", "--graph", str(graph), "--model", str(model), "--image", str(image),
            "--mock", "--character-ref", ref,
        ])
        assert result.exit_code == 1
        assert f"Error: {message}\n" in result.output
        assert isinstance(result.exception, SystemExit)

    def test_backend_fault_is_an_error_not_a_traceback(self, runner, tmp_path, monkeypatch):
        corpus, model, graph = self.build_artifacts(tmp_path)

        def crash(self, request):
            raise RuntimeError("backend crashed")

        monkeypatch.setattr(OfflineChatBackend, "complete", crash)
        result = runner.invoke(main, [
            "interpret", "--graph", str(graph), "--model", str(model),
            "--image", str(tmp_path / corpus.characters[0].image_ref), "--mock",
        ])
        assert result.exit_code == 1
        assert "Error: RuntimeError: backend crashed\n" in result.output
        assert isinstance(result.exception, SystemExit)


class TestEvaluateCommand:
    def test_offline_evaluation(self, runner, tmp_path):
        corpus, manifest, explanations = make_run_fixture(tmp_path, n_characters=6)
        model, graph = train_and_build_kg(manifest, explanations)
        out_dir = tmp_path / "results"
        invoke(
            runner, "run", "--manifest", str(manifest), "--out-dir", str(out_dir),
            "--model", str(model), "--graph", str(graph), "--mock", "--image-root", str(tmp_path),
        )
        report_path = tmp_path / "report.json"
        result = invoke(
            runner, "evaluate", "--results", str(out_dir), "--gold", str(manifest),
            "--metrics", "rouge1,embedding_f1,mover,judge", "--mock",
            "--out", str(report_path),
        )
        assert result.exit_code == 0
        doc = json.loads(report_path.read_text(encoding="utf-8"))
        assert doc["metadata"]["items"] == 6
        for name in ("rouge1", "embedding_f1", "mover", "judge"):
            assert name in doc["aggregate"]
        assert len(doc["per_item"]) == 6

    def test_an_item_without_gold_is_reported_not_fatal(self, runner, tmp_path):
        _, manifest, _ = make_run_fixture(tmp_path, n_characters=2)
        results = tmp_path / "results"
        results.mkdir()
        for ref in ("char0000", "char0001", "ghost"):
            doc = {"character_ref": ref, "interpretation": "字", "mode": "vlm"}
            (results / f"{ref}.json").write_text(json.dumps(doc), encoding="utf-8")
        report_path = tmp_path / "report.json"
        result = invoke(runner, "evaluate", "--results", str(results), "--gold", str(manifest),
                        "--metrics", "rouge1", "--out", str(report_path))
        assert result.exit_code == 0
        assert "warning: ghost not scored: AlignmentError: no gold record" in result.stderr
        assert "1 of 3 items failed" in result.stderr
        doc = json.loads(report_path.read_text(encoding="utf-8"))
        assert [item["character_ref"] for item in doc["per_item"]] == ["char0000", "char0001"]
        assert doc["failures"] == [{
            "character_ref": "ghost",
            "error": "AlignmentError: no gold record for character 'ghost'",
        }]

    @pytest.mark.parametrize("spelling", ["results/report.json", "other/../results/report.json"])
    def test_a_report_in_the_results_directory_is_refused(self, runner, tmp_path, spelling):
        # the next evaluate of the directory would read the report as a result
        _, manifest, _ = make_run_fixture(tmp_path, n_characters=2)
        results = tmp_path / "results"
        results.mkdir()
        (tmp_path / "other").mkdir()
        for ref in ("char0000", "char0001"):
            doc = {"character_ref": ref, "interpretation": "字", "mode": "vlm"}
            (results / f"{ref}.json").write_text(json.dumps(doc), encoding="utf-8")
        before = sorted(results.iterdir())
        args = ["evaluate", "--results", str(results), "--gold", str(manifest), "--metrics", "rouge1"]
        refused = runner.invoke(main, [*args, "--out", f"{tmp_path}{os.sep}{spelling}"])
        assert refused.exit_code == 1
        assert "ConfigError: --out" in refused.output
        assert isinstance(refused.exception, SystemExit)
        assert sorted(results.iterdir()) == before
        assert runner.invoke(main, args).exit_code == 0

    @pytest.mark.parametrize(
        "field,value",
        [("interpretation", 5), ("usage_by_backend", [["offline", 5]]), ("character_ref", ["x"]),
         ("backend_names", "offline")],
        ids=["interpretation_int", "usage_not_an_object", "character_ref_list",
             "backend_names_a_string"],
    )
    def test_result_field_of_the_wrong_type_is_domain_error(self, runner, tmp_path, field, value):
        _, manifest, _ = make_run_fixture(tmp_path, n_characters=2)
        results = tmp_path / "results"
        results.mkdir()
        path = results / "char0000.json"
        doc = {"character_ref": "char0000", "interpretation": "字", "mode": "vlm", field: value}
        path.write_text(json.dumps(doc), encoding="utf-8")
        result = runner.invoke(main, ["evaluate", "--results", str(results), "--gold", str(manifest),
                                      "--metrics", "rouge1"])
        assert result.exit_code == 1
        assert f"MalformedInputError: {path}: not an interpretation result" in result.output
        assert isinstance(result.exception, SystemExit)


class TestAgreementCommand:
    def test_icc3(self, runner, tmp_path):
        path = tmp_path / "ratings.csv"
        path.write_text("1,1\n3,3\n5,5\n2,2\n", encoding="utf-8")
        result = invoke(runner, "agreement", "--ratings", str(path), "--stat", "icc3")
        assert last_json(result.output)["value"] == pytest.approx(1.0)

    def test_alpha_with_missing_cells(self, runner, tmp_path):
        path = tmp_path / "ratings.csv"
        path.write_text("1,1,\n2,2,2\n4,4,4\n,5,5\n", encoding="utf-8")
        result = invoke(runner, "agreement", "--ratings", str(path), "--stat", "alpha",
                        "--level", "ordinal")
        doc = last_json(result.output)
        assert doc["stat"] == "alpha"
        assert doc["value"] == pytest.approx(1.0)

    @pytest.mark.parametrize(
        "content",
        [b"1,2\n3,abc\n", b"1,2\n3,\xff\n", b"1," + b"2" * 200_000 + b"\n"],
        ids=["non_numeric_cell", "not_utf8", "field_over_the_csv_limit"],
    )
    def test_malformed_csv_is_domain_error(self, runner, tmp_path, content):
        path = tmp_path / "ratings.csv"
        path.write_bytes(content)
        result = runner.invoke(main, ["agreement", "--ratings", str(path), "--stat", "icc3"])
        assert result.exit_code == 1
        assert f"MalformedInputError: {path} is not a numeric UTF-8 CSV" in result.output
        assert isinstance(result.exception, SystemExit)


class TestRunCommand:
    def test_mock_run_is_deterministic(self, runner, tmp_path):
        _, manifest, explanations = make_run_fixture(tmp_path, n_characters=5)
        model, graph = train_and_build_kg(manifest, explanations)
        hashes = []
        for name in ("run1", "run2"):
            out_dir = tmp_path / name
            result = invoke(
                runner, "run", "--manifest", str(manifest), "--out-dir", str(out_dir),
                "--model", str(model), "--graph", str(graph), "--mock",
                "--image-root", str(tmp_path),
            )
            assert result.exit_code == 0
            doc = json.loads((out_dir / "run_manifest.json").read_text(encoding="utf-8"))
            assert doc["result_count"] == 5
            hashes.append(doc["manifest_hash"])
        assert hashes[0] == hashes[1]

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_missing_image_is_isolated(self, runner, tmp_path, workers):
        corpus, manifest, explanations = make_run_fixture(tmp_path, n_characters=5)
        model, graph = train_and_build_kg(manifest, explanations)
        missing = tmp_path / corpus.characters[2].image_ref
        missing.unlink()
        out_dir = tmp_path / "out"
        result = invoke(
            runner, "run", "--manifest", str(manifest), "--out-dir", str(out_dir),
            "--model", str(model), "--graph", str(graph), "--mock", "--image-root", str(tmp_path),
            "--concurrency", workers,
        )
        assert result.exit_code == 0
        assert "warning" in result.output
        doc = json.loads((out_dir / "run_manifest.json").read_text(encoding="utf-8"))
        assert doc["result_count"] == 4
        assert doc["failure_count"] == 1
        # the serial and the pooled run report the same failure, word for word
        assert doc["failures"] == [{
            "character_id": corpus.characters[2].character_id,
            "error": f"FileNotFoundError: [Errno 2] No such file or directory: {str(missing)!r}",
        }]

    @pytest.mark.parametrize(
        "bad_id",
        [
            "", ".", "..", "../escaped", "sub/char0000", "a\\b", "run_manifest", "duplicate",
            # the temp name ".{id}.json.{32 hex}" is 255 bytes at 72 Han characters
            pytest.param("漢" * 73, id="han_73"),
            pytest.param("x" * 300, id="ascii_300"),
        ],
    )
    def test_id_that_cannot_name_a_result_file_is_rejected_up_front(
        self, runner, tmp_path, monkeypatch, bad_id
    ):
        # the graph comes from the intact manifest, which has no repeated id
        corpus, good_manifest, explanations = make_run_fixture(tmp_path, n_characters=3)
        model, graph = train_and_build_kg(good_manifest, explanations)
        if bad_id == "duplicate":
            bad_id = corpus.characters[0].character_id
        chars = (*corpus.characters[:2], replace(corpus.characters[2], character_id=bad_id))
        manifest = tmp_path / "bad.ldjson"
        write_manifest(replace(corpus, characters=chars), manifest)
        chat_calls = []
        monkeypatch.setattr(OfflineChatBackend, "complete", lambda self, req: chat_calls.append(req))
        out_dir = tmp_path / "run" / "out"
        result = runner.invoke(main, [
            "run", "--manifest", str(manifest), "--out-dir", str(out_dir),
            "--model", str(model), "--graph", str(graph), "--mock", "--image-root", str(tmp_path),
        ])
        assert result.exit_code == 1
        assert f"MalformedInputError: character id {bad_id!r}" in result.output
        assert not (tmp_path / "run").exists()
        assert chat_calls == []

    def test_longest_id_that_names_a_result_file_runs(self, runner, tmp_path):
        corpus, good_manifest, explanations = make_run_fixture(tmp_path, n_characters=2)
        model, graph = train_and_build_kg(good_manifest, explanations)
        longest = "漢" * 72  # 216 bytes, so the writer's temp name is 255 bytes
        chars = (replace(corpus.characters[0], character_id=longest), corpus.characters[1])
        manifest = tmp_path / "long.ldjson"
        write_manifest(replace(corpus, characters=chars), manifest)
        out_dir = tmp_path / "out"
        result = invoke(
            runner, "run", "--manifest", str(manifest), "--out-dir", str(out_dir),
            "--model", str(model), "--graph", str(graph), "--mock", "--image-root", str(tmp_path),
        )
        assert result.exit_code == 0
        assert (out_dir / f"{longest}.json").is_file()
        lines = (out_dir / "evidence.ldjson").read_text(encoding="utf-8").splitlines()
        assert [json.loads(line)["character_ref"] for line in lines] == [
            longest, corpus.characters[1].character_id
        ]

    def test_run_requires_backend_or_mock(self, runner, tmp_path):
        _, manifest, explanations = make_run_fixture(tmp_path, n_characters=2)
        model, graph = train_and_build_kg(manifest, explanations)
        result = runner.invoke(
            main, ["run", "--manifest", str(manifest), "--out-dir", str(tmp_path / "o"),
                   "--model", str(model), "--graph", str(graph)],
        )
        assert result.exit_code == 1
        assert "backend not configured" in result.output

    @pytest.mark.parametrize(
        "options,message",
        [
            (("--graph",), "Missing option '--model'"),
            (("--model",), "Missing option '--graph'"),
            (("--model", "--graph", "--explanations"), "No such option '--explanations'"),
        ],
        ids=["without_model", "without_graph", "with_explanations"],
    )
    def test_run_reads_exactly_a_model_and_a_graph_file(
        self, runner, tmp_path, monkeypatch, options, message
    ):
        _, manifest, explanations = make_run_fixture(tmp_path, n_characters=2)
        model, graph = train_and_build_kg(manifest, explanations)
        paths = {"--model": model, "--graph": graph, "--explanations": explanations}
        chat_calls = []
        monkeypatch.setattr(OfflineChatBackend, "complete", lambda self, req: chat_calls.append(req))
        out_dir = tmp_path / "out"
        result = runner.invoke(main, [
            "run", "--manifest", str(manifest), "--out-dir", str(out_dir),
            *(arg for name in options for arg in (name, str(paths[name]))),
            "--mock", "--image-root", str(tmp_path),
        ])
        assert result.exit_code == 2
        assert message in result.output
        assert not out_dir.exists()
        assert chat_calls == []

    def test_model_trained_with_another_provider_is_refused(self, runner, tmp_path, monkeypatch):
        class OtherProvider(StubEmbeddingProvider):
            name = "other-encoder"

        _, manifest, explanations = make_run_fixture(tmp_path, n_characters=2)
        with monkeypatch.context() as patched:
            patched.setattr(cli_mod, "provider_from_env", lambda **_: OtherProvider())
            model, graph = train_and_build_kg(manifest, explanations)
        chat_calls = []
        monkeypatch.setattr(OfflineChatBackend, "complete", lambda self, req: chat_calls.append(req))
        out_dir = tmp_path / "out"
        result = runner.invoke(main, [
            "run", "--manifest", str(manifest), "--out-dir", str(out_dir),
            "--model", str(model), "--graph", str(graph), "--mock", "--image-root", str(tmp_path),
        ])
        assert result.exit_code == 1
        assert ("ProviderMismatchError: model was built with provider 'other-encoder',"
                " queried with 'stub'") in result.output
        assert isinstance(result.exception, SystemExit)
        assert not out_dir.exists()
        assert chat_calls == []

    def test_multi_agent_mode_runs(self, runner, tmp_path):
        _, manifest, explanations = make_run_fixture(tmp_path, n_characters=3)
        model, graph = train_and_build_kg(manifest, explanations)
        out_dir = tmp_path / "ma"
        result = invoke(
            runner, "run", "--manifest", str(manifest), "--out-dir", str(out_dir),
            "--model", str(model), "--graph", str(graph), "--mock", "--mode", "multi_agent",
            "--image-root", str(tmp_path),
        )
        assert result.exit_code == 0
        results = sorted(out_dir.glob("char*.json"))
        assert len(results) == 3
        doc = json.loads(results[0].read_text(encoding="utf-8"))
        assert doc["mode"] == "multi_agent"
        assert len(doc["backend_names"]) == 2

    def test_concurrency_matches_serial(self, runner, tmp_path):
        _, manifest, explanations = make_run_fixture(tmp_path, n_characters=6)
        model, graph = train_and_build_kg(manifest, explanations)
        hashes = []
        for name, workers in (("serial", "1"), ("parallel", "4")):
            out_dir = tmp_path / name
            invoke(
                runner, "run", "--manifest", str(manifest), "--out-dir", str(out_dir),
                "--model", str(model), "--graph", str(graph), "--mock",
                "--image-root", str(tmp_path), "--concurrency", workers,
            )
            doc = json.loads((out_dir / "run_manifest.json").read_text(encoding="utf-8"))
            hashes.append(doc["manifest_hash"])
        assert hashes[0] == hashes[1]

    @pytest.mark.parametrize("mode", ["vlm", "multi_agent"])
    def test_evidence_files_do_not_depend_on_concurrency(self, runner, tmp_path, mode):
        # the pooled runs share one cache, so which worker reaches the graph
        # first varies from run to run; the evidence file must not
        _, manifest, explanations = make_run_fixture(tmp_path, n_characters=40)
        model, graph = train_and_build_kg(manifest, explanations)
        files = []
        for name, workers in (("serial", "1"), ("pooled1", "4"), ("pooled2", "4")):
            out_dir = tmp_path / name
            invoke(
                runner, "run", "--manifest", str(manifest), "--out-dir", str(out_dir),
                "--model", str(model), "--graph", str(graph), "--mock", "--mode", mode,
                "--image-root", str(tmp_path), "--concurrency", workers,
            )
            files.append((out_dir / "evidence.ldjson").read_bytes())
        assert len(files[0].splitlines()) == 40
        assert files[1] == files[0]
        assert files[2] == files[0]

    @pytest.mark.parametrize("mode", ["vlm", "multi_agent"])
    def test_mock_run_matches_golden_manifest_hash(self, runner, tmp_path, monkeypatch, mode):
        # relative paths: the graph's source_split is the manifest path as given
        make_run_fixture(tmp_path, n_characters=10, seed=8)
        monkeypatch.chdir(tmp_path)
        model, graph = train_and_build_kg(Path("corpus.ldjson"), Path("explanations.json"))
        invoke(
            runner, "run", "--manifest", "corpus.ldjson", "--out-dir", "out",
            "--model", str(model), "--graph", str(graph), "--mock", "--image-root", ".",
            "--mode", mode,
        )
        doc = json.loads((tmp_path / "out" / "run_manifest.json").read_text(encoding="utf-8"))
        golden = json.loads(
            (Path(__file__).parent / "goldens" / "manifest_hashes.json").read_text(encoding="utf-8")
        )
        assert doc["manifest_hash"] == golden[mode]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_serial_run_stays_on_the_calling_thread(self, runner, tmp_path, monkeypatch, workers):
        threads: set[int] = set()

        class RecordingProvider(StubEmbeddingProvider):
            def embed_image(self, image):
                threads.add(threading.get_ident())
                return super().embed_image(image)

            def embed_text(self, text):
                threads.add(threading.get_ident())
                return super().embed_text(text)

        _, manifest, explanations = make_run_fixture(tmp_path, n_characters=5)
        model, graph = train_and_build_kg(manifest, explanations)
        monkeypatch.setattr(cli_mod, "provider_from_env", lambda **_: RecordingProvider())
        invoke(
            runner, "run", "--manifest", str(manifest), "--out-dir", str(tmp_path / "out"),
            "--model", str(model), "--graph", str(graph), "--mock", "--image-root", str(tmp_path),
            "--concurrency", str(workers),
        )
        assert (threads == {threading.get_ident()}) == (workers == 1)
