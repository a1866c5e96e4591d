"""Single entry point for the whole pipeline.

Exit codes: 0 success, 1 domain error (typed message on stderr), 2 usage
error. All JSON outputs carry a schema_version and file outputs are written
atomically.
"""

from __future__ import annotations

import functools
import json
import tempfile
from pathlib import Path

import click

from . import agreement as agreement_mod
from . import dataset, kg, records
from .backends import OfflineChatBackend, backend_from_env
from .classifier import (
    build_prototypes,
    classify_topk,
    evaluate_topk,
    load_model,
    save_model,
)
from .dataset import ComponentRecord, Corpus, read_manifest, write_manifest
from .embedding import EmbeddingProvider, provider_from_env
from .errors import DOMAIN_ERRORS, ConfigError, MalformedInputError
from .inference import InterpretationResult
from .pipeline import EVIDENCE_FILE, PipelineBackends, PipelineConfig, run_pipeline, write_json
from .report import EvalConfig, evaluate_run


def _emit(doc: dict) -> None:
    click.echo(json.dumps(doc, ensure_ascii=False, indent=2, sort_keys=True))


def _read_json_object(path: str | Path) -> dict:
    """Parse a UTF-8 JSON file whose root must be an object."""
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise MalformedInputError(f"cannot read {path}: {exc}") from exc
    return records.parse(raw, str(path))


def _configured(backend):
    """``backend`` itself, or exit code 1 when no backend is configured."""
    if backend is None:
        raise click.ClickException(
            "backend not configured: set OBS_CHAT_URL or pass --mock"
        )
    return backend


def domain_errors(fn):
    """Translate typed pipeline errors and file-system errors into exit code 1.

    An output path in a missing directory ends here as ``FileNotFoundError``.
    """

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except DOMAIN_ERRORS as exc:
            raise click.ClickException(f"{type(exc).__name__}: {exc}") from exc

    return wrapper


def _component_bytes(comp: ComponentRecord, image_root: Path | None) -> bytes:
    """The bytes of one component's crop file, handed to the embedding
    provider; a crop that cannot be read raises MalformedInputError naming
    its path, since no surrogate stands in for it."""
    path = Path(comp.image_ref)
    if image_root is not None and not path.is_absolute():
        path = image_root / path
    try:
        return path.read_bytes()
    except OSError as exc:
        raise MalformedInputError(
            f"component {comp.component_id!r}: cannot read crop {str(path)!r}"
            f" ({type(exc).__name__})"
        ) from exc


def _component_pairs(corpus: Corpus, provider: EmbeddingProvider, image_root: Path | None):
    for comp in corpus.components:
        yield comp.label, provider.embed_image(_component_bytes(comp, image_root))


@click.group()
def main():
    """Oracle bone script decipherment pipeline."""


@main.command()
@click.option("--annotations", required=True, type=click.Path(exists=True, file_okay=False))
@click.option("--vocab", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--out", required=True, type=click.Path(dir_okay=False))
@click.option("--metadata", type=click.Path(exists=True, dir_okay=False), default=None,
              help="Optional JSON mapping character id to expert fields.")
@domain_errors
def ingest(annotations, vocab, out, metadata):
    """Parse polygon annotations into a corpus manifest."""
    vocabulary = dataset.load_vocabulary(vocab)
    meta = _read_json_object(metadata) if metadata else None
    corpus = dataset.ingest_directory(annotations, vocabulary, meta)
    write_manifest(corpus, out)
    _emit({"schema_version": 1, "manifest": str(out), **dataset.corpus_stats(corpus)})


@main.command()
@click.option("--manifest", required=True, type=click.Path(exists=True, dir_okay=False))
@domain_errors
def stats(manifest):
    """Corpus counts: images, unique characters, components, labels."""
    corpus = read_manifest(manifest)
    _emit({"schema_version": 1, **dataset.corpus_stats(corpus)})


@main.command()
@click.option("--manifest", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--ratio", type=float, default=0.7, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--unit", type=click.Choice(dataset.SPLIT_UNITS), default="by_component_class",
              show_default=True)
@click.option("--out-train", required=True, type=click.Path(dir_okay=False))
@click.option("--out-test", required=True, type=click.Path(dir_okay=False))
@domain_errors
def split(manifest, ratio, seed, unit, out_train, out_test):
    """Deterministic train/test split of a corpus manifest."""
    corpus = read_manifest(manifest)
    train, test = dataset.split_corpus(corpus, ratio, seed, unit)
    write_manifest(train, out_train)
    write_manifest(test, out_test)
    _emit(
        {
            "schema_version": 1,
            "train": dataset.corpus_stats(train),
            "test": dataset.corpus_stats(test),
            "seed": seed,
            "ratio": ratio,
            "unit": unit,
        }
    )


@main.command()
@click.option("--manifest", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--out", required=True, type=click.Path(dir_okay=False))
@click.option("--image-root", type=click.Path(file_okay=False), default=None)
@domain_errors
def train(manifest, out, image_root):
    """Build per-class prototypes from the training manifest."""
    provider = provider_from_env()
    corpus = read_manifest(manifest)
    root = Path(image_root) if image_root else None
    model = build_prototypes(_component_pairs(corpus, provider, root), provider_name=provider.name)
    save_model(model, out)
    _emit(
        {
            "schema_version": 1,
            "model": str(out),
            "classes": len(model),
            "dim": model.dim,
            "provider": provider.name,
        }
    )


@main.command()
@click.option("--model", "model_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--image", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--k", type=int, default=5, show_default=True)
@domain_errors
def classify(model_path, image, k):
    """Rank component classes for one image."""
    if k < 1:
        raise ConfigError(f"--k must be >= 1, got {k}")
    provider = provider_from_env()
    model = load_model(model_path, expected_provider=provider.name)
    vec = provider.embed_image(Path(image).read_bytes())
    ranked = classify_topk(model, vec, k)
    _emit(
        {
            "schema_version": 1,
            "image": str(image),
            "predictions": [{"label": label, "distance": dist} for label, dist in ranked.entries],
        }
    )


@main.command(name="eval-topk")
@click.option("--model", "model_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--manifest", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--ks", default="1,3,5", show_default=True)
@click.option("--out", type=click.Path(dir_okay=False), default=None)
@click.option("--image-root", type=click.Path(file_okay=False), default=None)
@domain_errors
def eval_topk_cmd(model_path, manifest, ks, out, image_root):
    """ACC@k of the classifier over a test manifest."""
    k_values = _parse_ks(ks)
    provider = provider_from_env()
    model = load_model(model_path, expected_provider=provider.name)
    corpus = read_manifest(manifest)
    root = Path(image_root) if image_root else None
    pairs = list(_component_pairs(corpus, provider, root))
    accuracy = evaluate_topk(model, pairs, k_values)
    known = set(model.labels)
    doc = {
        "schema_version": 1,
        "provider": provider.name,
        "test_items": len(pairs),
        # crops whose label has no prototype: no k can count them
        "unseen_labels": sum(label not in known for label, _ in pairs),
        "acc": {str(k): accuracy[k] for k in k_values},
    }
    if out:
        write_json(out, doc)
    _emit(doc)


def _parse_ks(text: str) -> list[int]:
    """The comma-separated k values of ``--ks``: at least one, each >= 1."""
    try:
        k_values = [int(x) for x in text.split(",") if x.strip()]
    except ValueError:
        raise ConfigError(f"--ks must be comma-separated integers, got {text!r}") from None
    if not k_values:
        raise ConfigError(f"--ks names no k, got {text!r}")
    if min(k_values) < 1:
        raise ConfigError(f"every k in --ks must be >= 1, got {text!r}")
    return k_values


@main.command(name="build-kg")
@click.option("--manifest", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--explanations", type=click.Path(exists=True, dir_okay=False), default=None)
@click.option("--out", required=True, type=click.Path(dir_okay=False))
@click.option("--source-split", default="", help="Provenance note for the build input.")
@domain_errors
def build_kg(manifest, explanations, out, source_split):
    """Build the knowledge graph from a (train) corpus manifest."""
    corpus = read_manifest(manifest)
    expl = _read_explanations(explanations) if explanations else {}
    graph = kg.build_graph(corpus, expl, source_split=source_split or str(manifest))
    kg.save_graph(graph, out)
    _emit(
        {
            "schema_version": 1,
            "graph": str(out),
            "nodes": len(graph.nodes),
            "edges": len(graph.edges),
        }
    )


def _read_explanations(path: str | Path) -> dict[str, str]:
    """The explanations file: a JSON object from component label to text."""
    doc = _read_json_object(path)
    for label, text in doc.items():
        if type(text) is not str:
            raise MalformedInputError(
                f"{path}: explanation of {label!r} is {type(text).__name__}, not str"
            )
    return doc


@main.command()
@click.option("--graph", "graph_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option(
    "--tool",
    required=True,
    type=click.Choice(
        ["component_explanation", "characters_by_component", "variant_lookup", "modern_mapping"]
    ),
)
@click.option("--arg", "argument", required=True)
@domain_errors
def query(graph_path, tool, argument):
    """Run one graph lookup and print the JSON result."""
    graph = kg.load_graph(graph_path)
    result = getattr(graph, tool)(argument)
    _emit({"schema_version": 1, "tool": tool, "arg": argument, "result": result})


@main.command()
@click.option("--graph", "graph_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--model", "model_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--image", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--mode", type=click.Choice(["vlm", "multi_agent"]), default="vlm", show_default=True)
@click.option("--lang", type=click.Choice(["zh", "en"]), default="zh", show_default=True)
@click.option("--out", type=click.Path(dir_okay=False), default=None)
@click.option("--dump-evidence", is_flag=True)
@click.option("--mock", is_flag=True, help="Use the offline deterministic backend.")
@click.option("--character-ref", default=None)
@domain_errors
def interpret(graph_path, model_path, image, mode, lang, out, dump_evidence, mock, character_ref):
    """Interpret a single character image end to end.

    This is a one-record ``obs run``: it refuses the character ids that
    ``obs run`` refuses, prints the result file that run writes for the
    character from a temporary run directory (under --dump-evidence with the
    one line of its evidence.ldjson as ``evidence``), and leaves no file
    behind but --out.
    """
    backends = _configured(PipelineBackends.offline() if mock else PipelineBackends.from_env())
    provider = provider_from_env()
    model = load_model(model_path, expected_provider=provider.name)
    graph = kg.load_graph(graph_path)
    config = PipelineConfig(mode=mode, language=lang, mock=mock)
    cid = character_ref or Path(image).stem
    record = dataset.CharacterRecord(character_id=cid, image_ref=str(image))
    with tempfile.TemporaryDirectory() as run_dir:
        results, failures, _ = run_pipeline(
            Corpus((record,), ()), provider, model, graph, backends, config, out_dir=run_dir
        )
        if failures:
            raise click.ClickException(failures[0].error)
        doc = results[0].to_json()
        if dump_evidence:
            # a one-result run: the evidence file is that result's one line
            doc["evidence"] = _read_json_object(Path(run_dir) / EVIDENCE_FILE)
    if out:
        write_json(out, doc)
    _emit(doc)


@main.command()
@click.option("--results", "results_dir", required=True, type=click.Path(exists=True, file_okay=False))
@click.option("--gold", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--metrics", default="rouge1,embedding_f1,mover", show_default=True)
@click.option("--lang", type=click.Choice(["zh", "en"]), default="zh", show_default=True)
@click.option("--out", type=click.Path(dir_okay=False), default=None)
@click.option("--mock", is_flag=True, help="Judge with the offline deterministic backend.")
@domain_errors
def evaluate(results_dir, gold, metrics, lang, out, mock):
    """Score interpretation results against gold interpretations."""
    if out and Path(out).resolve().parent == Path(results_dir).resolve():
        raise ConfigError(f"--out {out} is in --results {results_dir}: it would be read as a result")
    metric_list = tuple(m.strip() for m in metrics.split(",") if m.strip())
    results = []
    for path in sorted(Path(results_dir).glob("*.json")):
        if path.name == "run_manifest.json":
            continue
        doc = _read_json_object(path)
        results.append(
            records.decode(InterpretationResult, doc, f"{path}: not an interpretation result")
        )
    corpus = read_manifest(gold)
    judge_backend = None
    if "judge" in metric_list:
        judge_backend = _configured(OfflineChatBackend() if mock else backend_from_env())
    provider = provider_from_env()
    report = evaluate_run(
        results,
        corpus.characters,
        EvalConfig(metrics=metric_list, lang=lang),
        provider=provider,
        judge_backend=judge_backend,
    )
    if out:
        write_json(out, report.to_json())
    for failure in report.failures:
        click.echo(f"warning: {failure['character_ref']} not scored: {failure['error']}", err=True)
    click.echo(report.to_table(), err=True)
    _emit(report.to_json())


@main.command()
@click.option("--ratings", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--stat", required=True, type=click.Choice(["icc3", "alpha"]))
@click.option("--level", type=click.Choice(["ordinal", "interval"]), default="ordinal",
              show_default=True, help="Distance function for alpha.")
@domain_errors
def agreement(ratings, stat, level):
    """Inter-rater agreement over an items x raters CSV."""
    matrix = agreement_mod.RatingMatrix.from_csv(ratings)
    if stat == "icc3":
        value = agreement_mod.icc3(matrix)
    else:
        value = agreement_mod.krippendorff_alpha(matrix, level=level)
    _emit({"schema_version": 1, "stat": stat, "value": value,
           "items": matrix.items, "raters": matrix.raters})


@main.command()
@click.option("--manifest", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--out-dir", required=True, type=click.Path(file_okay=False))
@click.option("--graph", "graph_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--model", "model_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--mode", type=click.Choice(["vlm", "multi_agent"]), default="vlm", show_default=True)
@click.option("--lang", type=click.Choice(["zh", "en"]), default="zh", show_default=True)
@click.option("--image-root", type=click.Path(file_okay=False), default=None)
@click.option("--concurrency", type=int, default=1, show_default=True)
@click.option("--mock", is_flag=True, help="Run fully offline with deterministic backends.")
@domain_errors
def run(manifest, out_dir, graph_path, model_path, mode, lang, image_root, concurrency, mock):
    """Run the full pipeline over every character in a manifest.

    The model and the graph are the files ``obs train`` and ``obs build-kg``
    write, built from annotated training data; the manifest names the
    characters to interpret.
    """
    backends = _configured(PipelineBackends.offline() if mock else PipelineBackends.from_env())
    provider = provider_from_env()
    corpus = read_manifest(manifest)
    model = load_model(model_path, expected_provider=provider.name)
    graph = kg.load_graph(graph_path)
    config = PipelineConfig(mode=mode, language=lang, concurrency=concurrency, mock=mock)
    results, failures, run_manifest = run_pipeline(
        corpus, provider, model, graph, backends, config,
        image_root=Path(image_root) if image_root else None, out_dir=out_dir,
    )
    for failure in failures:
        click.echo(f"warning: {failure.character_id}: {failure.error}", err=True)
    _emit(run_manifest)


if __name__ == "__main__":
    main()
