"""One measured process of the benchmark: set up, then time the phases.

Run by ``run.py``, one fresh process per repeat, so that each repeat pays
its own set-up and reports its own peak memory. Usage, with ``src`` and
``perfbench`` on ``PYTHONPATH``::

    python3 perfbench/worker.py --workload NAME --root INPUTS \
        --budget SECONDS --trace 0|1 --out REPORT.json [--spans SPANS.json]

``INPUTS`` is the directory ``workloads.prepare`` wrote the workload's
inputs to. Phases, each timed on its own:

* set-up (``obs train`` then ``obs build-kg``): read the train split, embed
  its crops, build, save and reload the prototypes; build, save and reload
  the graph (run workloads); read the test split. ``SETUPS`` times before
  the main phase and once after each main call;
* main, repeated for about ``--budget`` seconds (at least once):
  ``run_pipeline`` over the test split (``obs run``), or loading the mock
  results and ``evaluate_run`` over them (``obs evaluate``);
* top-k (``obs eval-topk``), before the main phase and after each main
  call: ``evaluate_topk`` over the first held-out crops, embedded once
  beforehand, repeated for ``TOPK_WINDOW_S`` (at least once).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import resource
import shutil
import socket
import sys
import time
from pathlib import Path

import obsdecipher.classifier as classifier
import obsdecipher.dataset as dataset
import obsdecipher.embedding as embedding
import obsdecipher.kg as kg
import obsdecipher.pipeline as pipeline
import obsdecipher.report as report
from obsdecipher.metrics import MAX_TRANSPORT_TOKENS, tokenize

from layers import MAIN, SETUP, TOPK, instrument, layer_metrics
from tracing import Patcher, Tracer
from workloads import EVAL_CONFIG, WORKLOADS, Workload, corpus_files, load_results, results_dir
from wrappers import CallLedger, ledger_total

SETUPS = 3  # timed set-ups before the main phase
TOPK_QUERIES = 200  # held-out crops per top-k pass
TOPK_WINDOW_S = 0.3  # top-k passes repeat for this long per window


class NetworkGuard:
    """Counts and refuses every attempt to resolve a host or open a socket."""

    def __init__(self, patcher: Patcher):
        self.attempts = 0

        def refuse(*args, **kwargs):
            self.attempts += 1
            raise OSError("network access attempted during a benchmark run")

        patcher.replace(socket, "getaddrinfo", refuse)
        patcher.replace(socket, "create_connection", refuse)
        patcher.replace(socket.socket, "connect", refuse)
        patcher.replace(socket.socket, "connect_ex", refuse)


class Worker:
    """State of one measured process."""

    def __init__(self, workload: Workload, root: Path, tracer: Tracer | None):
        self.workload = workload
        self.files = corpus_files(root)
        self.results_dir = results_dir(root)
        self.tracer = tracer
        self.ledger = CallLedger()
        self.problems: list[str] = []

    def phase(self, name: str):
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.span(name)

    def set_up(self, out: Path):
        """One timed ``obs train`` + ``obs build-kg`` + run-input read."""
        wl, files = self.workload, self.files
        encoder = wl.encoder(self.ledger)
        started = time.perf_counter()
        with self.phase(SETUP):
            train = dataset.read_manifest(files.train_manifest)
            pairs = [
                (c.label, embedding.embed_image(encoder, (files.root / c.image_ref).read_bytes()))
                for c in train.components
            ]
            model = classifier.build_prototypes(pairs, provider_name=encoder.name)
            classifier.save_model(model, out / "model.bin")
            model = classifier.load_model(out / "model.bin", expected_provider=encoder.name)
            graph = test = None
            if wl.kind == "run":
                explanations = json.loads(files.explanations.read_text(encoding="utf-8"))
                graph = kg.build_graph(train, explanations, source_split=files.train_manifest.name)
                kg.save_graph(graph, out / "graph.ldjson")
                graph = kg.load_graph(out / "graph.ldjson")
                test = dataset.read_manifest(files.test_manifest)
        return time.perf_counter() - started, encoder, model, graph, test

    def topk_queries(self, encoder) -> list:
        """The first held-out crops with their embeddings, as ``obs eval-topk``
        reads them."""
        held_out = dataset.read_manifest(self.files.test_manifest)
        return [
            (c.label, embedding.embed_image(encoder, (self.files.root / c.image_ref).read_bytes()))
            for c in held_out.components[:TOPK_QUERIES]
        ]

    def topk(self, model, queries: list) -> list[dict]:
        """One window of timed ``evaluate_topk`` calls over ``queries``,
        repeated for ``TOPK_WINDOW_S`` (at least once)."""
        passes: list[dict] = []
        started = time.perf_counter()
        with self.phase(TOPK):
            while not passes or time.perf_counter() - started < TOPK_WINDOW_S:
                begin = time.perf_counter()
                accuracy = classifier.evaluate_topk(model, queries, [1, 3, 5])
                passes.append({"queries": len(queries), "seconds": time.perf_counter() - begin})
        if not 0.0 <= accuracy[1] <= accuracy[3] <= accuracy[5] <= 1.0:
            self.problems.append(f"ACC@k is not monotone in k: {accuracy}")
        return passes

    def run_once(self, encoder, model, graph, test, out: Path) -> dict:
        """One ``obs run`` over the test split."""
        wl = self.workload
        started = time.perf_counter()
        results, failures, manifest = pipeline.run_pipeline(
            test, encoder, model, graph, wl.backends(self.ledger), wl.config(),
            image_root=self.files.root, out_dir=out,
        )
        elapsed = time.perf_counter() - started
        attempted = len(test.characters)
        if len(results) + len(failures) != attempted:
            self.problems.append(
                f"{len(results)} results + {len(failures)} failures != {attempted} attempted"
            )
        for r in results:
            if not r.interpretation or r.inscription_type is None:
                self.problems.append(f"result {r.character_ref} lacks an interpretation or type")
        return {
            "seconds": elapsed,
            "attempted": attempted,
            "ok": len(results),
            "failed": len(failures),
            "hash": manifest["manifest_hash"],
            "fallbacks": sum(r.retrieval_fallback for r in results),
        }

    def evaluate_once(self, encoder) -> dict:
        """One ``obs evaluate`` over the mock-run results."""
        results = load_results(self.results_dir)
        gold = dataset.read_manifest(self.files.test_manifest)
        if self.tracer is not None:
            results = self.tracer.items(results, lambda r: r.character_ref)
        started = time.perf_counter()
        rep = report.evaluate_run(
            results, gold.characters, EVAL_CONFIG,
            provider=encoder, judge_backend=self.workload.judge(self.ledger),
        )
        elapsed = time.perf_counter() - started
        if not all(math.isfinite(v) for v in rep.aggregate.values()):
            self.problems.append(f"non-finite evaluation aggregate: {rep.aggregate}")
        if len(rep.per_item) != len(results):
            self.problems.append(f"{len(rep.per_item)} items scored of {len(results)}")
        body = json.dumps(rep.to_json(), ensure_ascii=False, sort_keys=True)
        return {
            "seconds": elapsed,
            "attempted": len(results),
            "ok": len(rep.per_item),
            "failed": len(results) - len(rep.per_item),
            "hash": hashlib.sha256(body.encode("utf-8")).hexdigest(),
            "fallbacks": 0,
        }

    def main_call(self, encoder, model, graph, test, out: Path) -> dict:
        """One timed main-phase call, with the wrapper counts it caused."""
        before = self.ledger.snapshot()
        with self.phase(MAIN):
            if self.workload.kind == "run":
                call = self.run_once(encoder, model, graph, test, out)
            else:
                call = self.evaluate_once(encoder)
        after = self.ledger.snapshot()
        shutil.rmtree(out, ignore_errors=True)
        call["ledger"] = {k: after[k] - before.get(k, 0) for k in after}
        return call


def over_transport_cap(root: Path) -> int:
    """Evaluation items whose candidate or reference has more distinct zh
    tokens than ``mover_score`` accepts."""
    gold = {c.character_id: c for c in dataset.read_manifest(corpus_files(root).test_manifest).characters}
    count = 0
    for r in load_results(results_dir(root)):
        texts = (r.interpretation, gold[r.character_ref].interpretation)
        count += any(len(set(tokenize(t, "zh").tokens)) > MAX_TRANSPORT_TOKENS for t in texts)
    return count


def measure(workload: Workload, root: Path, budget: float, tracer: Tracer | None, out: Path) -> dict:
    proc = Worker(workload, root, tracer)
    setup_s: list[float] = []

    def set_up():
        seconds, *state = proc.set_up(out)
        setup_s.append(seconds)
        return state

    for _ in range(SETUPS):
        encoder, model, graph, test = set_up()
    # counted before evaluating, since evaluate_run raises on such an item
    over_cap = over_transport_cap(root) if workload.kind == "evaluate" else 0
    queries = proc.topk_queries(encoder)
    # a top-k window before the main phase, and a set-up and a top-k window
    # after each of its calls, so that all three kinds of samples span the
    # same stretch of time
    topk = proc.topk(model, queries)
    calls: list[dict] = []
    deadline = time.perf_counter() + budget
    # another call starts while at least half of one is left
    while not calls or time.perf_counter() + calls[-1]["seconds"] / 2 < deadline:
        calls.append(proc.main_call(encoder, model, graph, test, out / f"run{len(calls)}"))
        encoder, model, graph, test = set_up()
        topk += proc.topk(model, queries)
    return {
        "setup_s": setup_s,
        "topk": topk,
        "calls": calls,
        "over_transport_cap": over_cap,
        "problems": proc.problems,
    }


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--root", required=True, type=Path)
    parser.add_argument("--budget", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--spans", type=Path, default=None)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    scratch = args.out.parent / f"{args.out.stem}-files"
    scratch.mkdir(parents=True, exist_ok=True)

    guard_patches = Patcher()
    guard = NetworkGuard(guard_patches)
    tracer = Tracer() if args.trace else None
    trace_patches = Patcher()
    try:
        if tracer is not None:
            observer = instrument(tracer, trace_patches)
        doc = measure(workload, args.root, args.budget, tracer, scratch)
    finally:
        restored = trace_patches.restore()
        guard_patches.restore()
        shutil.rmtree(scratch, ignore_errors=True)

    doc["network_attempts"] = guard.attempts
    doc["patches_restored"] = restored
    doc["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        attempted = sum(c["attempted"] for c in doc["calls"])
        doc["layers"] = layer_metrics(
            tracer.spans,
            chars=attempted,
            setups=len(doc["setup_s"]),
            queries=sum(p["queries"] for p in doc["topk"]),
            ledger=ledger_total(doc["calls"]),
            evictions=observer.evictions,
            main_calls=len(doc["calls"]),
            fallbacks=sum(c["fallbacks"] for c in doc["calls"]),
        )
        if args.spans is not None:
            tracer.write(args.spans)
    args.out.write_text(json.dumps(doc, sort_keys=True), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
