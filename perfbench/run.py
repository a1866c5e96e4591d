"""The obsdecipher benchmark command.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. It generates the workload's inputs from the
seed, starts fresh worker processes one after another (``worker.py``), checks
their outputs and prints one JSON object as its last line of output:
``{"correct", "attempted", "failed", "metrics"}``. With ``--trace 0`` the
metrics are the end-to-end ones, measured untraced; with ``--trace 1`` they
are the per-layer ones from a traced process, plus the tracing overhead
against an untraced process of the same run. The exit code is 1 when an
output check fails, 2 when the checkout has no ``src/obsdecipher``.

Scratch files go under ``.bench_build/perfbench`` and are removed at the end,
except the span file of the last traced run of each workload.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Iterable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"

REPEATS = 2  # untraced worker processes per run
DEADLINE_S = 170.0  # every worker must have ended by then


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="Run one obsdecipher benchmark workload.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return parser.parse_args(argv)


def obs_urls() -> list[str]:
    """Endpoint variables that would send a run to a hosted service."""
    return sorted(
        k for k, v in os.environ.items() if k.startswith("OBS_") and k.endswith("_URL") and v.strip()
    )


def spawn(workload: str, root: Path, budget: float, trace: int, out: Path,
          spans: Path | None, deadline: float) -> dict:
    """Run one worker process to completion and return its report."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), str(HERE), env.get("PYTHONPATH", "")) if p
    )
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", workload,
        "--root", str(root),
        "--budget", repr(budget),
        "--trace", str(trace),
        "--out", str(out),
    ]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    proc = subprocess.run(
        cmd, env=env, capture_output=True, text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker for {workload} exited with {proc.returncode}")
    return json.loads(out.read_text(encoding="utf-8"))


def time_median(samples: Iterable[tuple[float, float]]) -> float:
    """Median rate over time.

    Samples are ``(amount, seconds)``. Sorted by rate, each sample covers its
    seconds of the measured time; the result is the rate at the middle of
    that time, interpolated between the centres of the two samples around
    it. Weighing by seconds keeps a fast stretch of the machine, which
    completes more samples in the same time, from outvoting a slow one.
    """
    rated = sorted((amount / seconds, seconds) for amount, seconds in samples)
    half = sum(seconds for _, seconds in rated) / 2.0
    centres, covered = [], 0.0
    for _, seconds in rated:
        centres.append(covered + seconds / 2.0)
        covered += seconds
    if half <= centres[0]:
        return rated[0][0]
    for i in range(1, len(rated)):
        if half <= centres[i]:
            share = (half - centres[i - 1]) / (centres[i] - centres[i - 1])
            return rated[i - 1][0] + share * (rated[i][0] - rated[i - 1][0])
    return rated[-1][0]


def call_rate(calls: list[dict]) -> float:
    return time_median((c["ok"], c["seconds"]) for c in calls)


def end_to_end(docs: list[dict]) -> dict[str, tuple[float, str]]:
    """The user-visible metrics over untraced worker reports."""
    from wrappers import ledger_total

    calls = [c for d in docs for c in d["calls"]]
    attempted = sum(c["attempted"] for c in calls)
    ledger = ledger_total(calls)
    chat_calls = sum(n for key, n in ledger.items() if key.startswith("chat.") and key.endswith(".calls"))
    tokens = ledger["chat.prompt_tokens"] + ledger["chat.completion_tokens"]
    return {
        "setup_s": (statistics.median(s for d in docs for s in d["setup_s"]), "s"),
        "chars_per_s": (call_rate(calls), "1/s"),
        "topk_queries_per_s": (
            time_median((p["queries"], p["seconds"]) for d in docs for p in d["topk"]), "1/s"
        ),
        "chat_calls_per_char": (chat_calls / attempted, "count"),
        "embed_calls_per_char": ((ledger["embed.image"] + ledger["embed.text"]) / attempted, "count"),
        "tokens_per_char": (tokens / attempted, "count"),
        "ok_ratio": (sum(c["ok"] for c in calls) / attempted, "ratio"),
        "peak_rss_mb": (statistics.median(d["peak_rss_mb"] for d in docs), "MiB"),
    }


def per_layer(untraced: dict, traced: dict) -> dict[str, tuple[float, str]]:
    """The traced process's layer metrics plus the tracing overhead."""
    metrics = {name: (value, unit) for name, (value, unit) in traced["layers"].items()}
    plain = call_rate(untraced["calls"])
    slow = call_rate(traced["calls"])
    metrics["tracing.chars_per_s.untraced"] = (plain, "1/s")
    metrics["tracing.chars_per_s.traced"] = (slow, "1/s")
    metrics["tracing.overhead_ratio"] = (plain / slow - 1.0, "ratio")
    metrics["metrics.items_over_transport_cap"] = (float(traced["over_transport_cap"]), "count")
    return metrics


def check(docs: list[dict]) -> list[str]:
    """Output checks over every worker report of one run."""
    problems = [f"{name} is set; the benchmark runs offline only" for name in obs_urls()]
    for d in docs:
        problems += d["problems"]
        if d["network_attempts"]:
            problems.append(f"{d['network_attempts']} network access attempts")
        if not d["patches_restored"]:
            problems.append("a traced function was not restored")
        if d["over_transport_cap"]:
            problems.append(f"{d['over_transport_cap']} items exceed the transport token cap")
    hashes = {c["hash"] for d in docs for c in d["calls"]}
    if len(hashes) != 1:
        problems.append(f"{len(hashes)} different output hashes across repeats and tracing")
    return problems


def run(args: argparse.Namespace) -> dict:
    from workloads import WORKLOADS, prepare

    if args.workload not in WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    deadline = time.monotonic() + DEADLINE_S
    WORK.mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=WORK))
    try:
        inputs = tmp / "inputs"
        prepare(WORKLOADS[args.workload], args.seed, inputs)
        plan = [0] * REPEATS if args.trace == 0 else [0, 1]
        budget = args.seconds / len(plan)
        docs = []
        for i, trace in enumerate(plan):
            spans = WORK / f"spans-{args.workload}.json" if trace else None
            docs.append(
                spawn(args.workload, inputs, budget, trace, tmp / f"worker{i}.json", spans, deadline)
            )
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    problems = check(docs)
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    metrics = end_to_end(docs) if args.trace == 0 else per_layer(docs[0], docs[1])
    calls = [c for d in docs for c in d["calls"]]
    return {
        "correct": not problems,
        "attempted": sum(c["attempted"] for c in calls),
        "failed": sum(c["failed"] for c in calls),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "obsdecipher" / "__init__.py").is_file():
        print(f"perfbench: no obsdecipher sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    result = run(args)
    for name, metric in result["metrics"].items():
        print(f"{name:48s} {metric['value']:14.4f} {metric['unit']}", file=sys.stderr)
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
