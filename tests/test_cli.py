import json
import os
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

from conftest import make_run_fixture, write_annotation


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
            json.dumps({"char0": {"interpretation": "手在屋下", "inscription_type": "ideographic"}}),
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
        char0 = next(c for c in corpus.characters if c.character_id == "char0")
        assert char0.interpretation == "手在屋下"

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
    _, manifest, _ = make_run_fixture(tmp_path, n_characters=2)
    if command == "build-kg":
        return ["build-kg", "--manifest", str(manifest), "--explanations", str(bad_file),
                "--out", str(tmp_path / "graph.ldjson")]
    if command == "evaluate":
        results = tmp_path / "results"
        results.mkdir()
        bad_file.rename(results / "char0000.json")
        return ["evaluate", "--results", str(results), "--gold", str(manifest)]
    return ["run", "--manifest", str(manifest), "--out-dir", str(tmp_path / "out"),
            "--explanations", str(bad_file), "--mock", "--image-root", str(tmp_path)]


# valid for the label -> text files of build-kg and run, malformed as metadata
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
        invoke(runner, "train", "--manifest", str(manifest), "--out", str(model))
        return ["eval-topk", "--model", str(model), "--manifest", str(manifest),
                "--out", str(missing / "topk.json")]
    results = tmp_path / "results"
    invoke(runner, "run", "--manifest", str(manifest), "--out-dir", str(results),
           "--explanations", str(explanations), "--mock", "--image-root", str(tmp_path))
    return ["evaluate", "--results", str(results), "--gold", str(manifest),
            "--metrics", "rouge1", "--out", str(missing / "report.json")]


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


class TestModelCommands:
    def test_train_classify_eval(self, runner, tmp_path):
        _, manifest, _ = make_run_fixture(tmp_path, n_characters=12)
        model = tmp_path / "model.bin"
        result = invoke(runner, "train", "--manifest", str(manifest), "--out", str(model))
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
            "--ks", "1,3,5", "--out", str(report),
        )
        doc = last_json(evaluated.output)
        accs = [doc["acc"][k] for k in ("1", "3", "5")]
        assert accs[0] <= accs[1] <= accs[2]
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
        invoke(runner, "train", "--manifest", str(manifest), "--out", str(model))
        embedded = []
        monkeypatch.setattr(StubEmbeddingProvider, "embed_image", lambda self, data: embedded.append(data))
        if command == "classify":
            args = ["--image", str(tmp_path / "images" / "char0000.png"), "--k", value]
        else:
            args = ["--manifest", str(manifest), "--ks", value]
        result = runner.invoke(main, [command, "--model", str(model), *args])
        assert result.exit_code == 1
        assert f"ConfigError: {message}" in result.output
        assert embedded == []


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


class TestInterpretCommand:
    def build_artifacts(self, runner, tmp_path):
        corpus, manifest, explanations = make_run_fixture(tmp_path, n_characters=8)
        model = tmp_path / "model.bin"
        graph = tmp_path / "graph.ldjson"
        invoke(runner, "train", "--manifest", str(manifest), "--out", str(model))
        invoke(runner, "build-kg", "--manifest", str(manifest),
               "--explanations", str(explanations), "--out", str(graph))
        return corpus, model, graph

    def test_requires_backend_or_mock(self, runner, tmp_path):
        corpus, model, graph = self.build_artifacts(runner, tmp_path)
        image = tmp_path / corpus.characters[0].image_ref
        result = runner.invoke(
            main, ["interpret", "--graph", str(graph), "--model", str(model),
                   "--image", str(image)],
        )
        assert result.exit_code == 1
        assert "backend not configured" in result.output

    @pytest.mark.parametrize("mode", ["vlm", "multi_agent"])
    def test_mock_interpret(self, runner, tmp_path, mode):
        corpus, model, graph = self.build_artifacts(runner, tmp_path)
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


class TestEvaluateCommand:
    def test_offline_evaluation(self, runner, tmp_path):
        corpus, manifest, explanations = make_run_fixture(tmp_path, n_characters=6)
        out_dir = tmp_path / "results"
        invoke(
            runner, "run", "--manifest", str(manifest), "--out-dir", str(out_dir),
            "--explanations", str(explanations), "--mock", "--image-root", str(tmp_path),
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


class TestRunCommand:
    def test_mock_run_is_deterministic(self, runner, tmp_path):
        _, manifest, explanations = make_run_fixture(tmp_path, n_characters=5)
        hashes = []
        for name in ("run1", "run2"):
            out_dir = tmp_path / name
            result = invoke(
                runner, "run", "--manifest", str(manifest), "--out-dir", str(out_dir),
                "--explanations", str(explanations), "--mock",
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
        missing = tmp_path / corpus.characters[2].image_ref
        missing.unlink()
        out_dir = tmp_path / "out"
        result = invoke(
            runner, "run", "--manifest", str(manifest), "--out-dir", str(out_dir),
            "--explanations", str(explanations), "--mock", "--image-root", str(tmp_path),
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
        graph = tmp_path / "graph.ldjson"
        invoke(runner, "build-kg", "--manifest", str(good_manifest),
               "--explanations", str(explanations), "--out", str(graph))
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
            "--graph", str(graph), "--mock", "--image-root", str(tmp_path),
        ])
        assert result.exit_code == 1
        assert f"MalformedInputError: character id {bad_id!r}" in result.output
        assert not (tmp_path / "run").exists()
        assert chat_calls == []

    def test_longest_id_that_names_a_result_file_runs(self, runner, tmp_path):
        corpus, _, explanations = make_run_fixture(tmp_path, n_characters=2)
        longest = "漢" * 72  # 216 bytes, so the writer's temp name is 255 bytes
        chars = (replace(corpus.characters[0], character_id=longest), corpus.characters[1])
        manifest = tmp_path / "long.ldjson"
        write_manifest(replace(corpus, characters=chars), manifest)
        out_dir = tmp_path / "out"
        result = invoke(
            runner, "run", "--manifest", str(manifest), "--out-dir", str(out_dir),
            "--explanations", str(explanations), "--mock", "--image-root", str(tmp_path),
        )
        assert result.exit_code == 0
        assert (out_dir / f"{longest}.json").is_file()
        assert (out_dir / "evidence" / f"{longest}.json").is_file()

    def test_run_requires_backend_or_mock(self, runner, tmp_path):
        _, manifest, _ = make_run_fixture(tmp_path, n_characters=2)
        result = runner.invoke(
            main, ["run", "--manifest", str(manifest), "--out-dir", str(tmp_path / "o")],
        )
        assert result.exit_code == 1
        assert "backend not configured" in result.output

    def test_multi_agent_mode_runs(self, runner, tmp_path):
        _, manifest, explanations = make_run_fixture(tmp_path, n_characters=3)
        out_dir = tmp_path / "ma"
        result = invoke(
            runner, "run", "--manifest", str(manifest), "--out-dir", str(out_dir),
            "--explanations", str(explanations), "--mock", "--mode", "multi_agent",
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
        hashes = []
        for name, workers in (("serial", "1"), ("parallel", "4")):
            out_dir = tmp_path / name
            invoke(
                runner, "run", "--manifest", str(manifest), "--out-dir", str(out_dir),
                "--explanations", str(explanations), "--mock",
                "--image-root", str(tmp_path), "--concurrency", workers,
            )
            doc = json.loads((out_dir / "run_manifest.json").read_text(encoding="utf-8"))
            hashes.append(doc["manifest_hash"])
        assert hashes[0] == hashes[1]

    @pytest.mark.parametrize("mode", ["vlm", "multi_agent"])
    def test_mock_run_matches_golden_manifest_hash(self, runner, tmp_path, monkeypatch, mode):
        # relative paths: the graph's source_split is the manifest path as given
        make_run_fixture(tmp_path, n_characters=10, seed=8)
        monkeypatch.chdir(tmp_path)
        invoke(
            runner, "run", "--manifest", "corpus.ldjson", "--out-dir", "out",
            "--explanations", "explanations.json", "--mock", "--image-root", ".",
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

        monkeypatch.setattr(cli_mod, "provider_from_env", lambda **_: RecordingProvider())
        _, manifest, explanations = make_run_fixture(tmp_path, n_characters=5)
        invoke(
            runner, "run", "--manifest", str(manifest), "--out-dir", str(tmp_path / "out"),
            "--explanations", str(explanations), "--mock", "--image-root", str(tmp_path),
            "--concurrency", str(workers),
        )
        caller = threading.get_ident()
        assert caller in threads  # prototypes are built before the run starts
        assert (threads == {caller}) == (workers == 1)
