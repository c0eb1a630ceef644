"""Benchmark of the tablefocus pipeline, end to end and layer by layer.

Usage, from the repository root (Python 3.10+, no network, nothing to install):

    python3 perfbench/run.py --workload replay-small --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20   # every workload in turn

Workloads (why each exists is in BENCHMARK.json; sizes are in datagen.py):

    replay-wide   4 tables of 500 to 5,000 rows, textual questions, cassette replay
    replay-small  100 WikiTQ-size tables, half symbolic, every fallback path, replay
    live-sim      30 small tables, record mode against a stand-in model that
                  sleeps 50 ms per call, a fresh cassette for every pass

Every workload is a closed loop with one client: ``evaluate(..., parallelism=1)``
sends the next instance only after the previous one returns. The seed makes
the tables, questions, expected answers and model replies (datagen.py); the
program receives only the dataset file and, for replay, a cassette that is
recorded once per invocation, before any timing.

Each invocation:

1. generates the inputs and records the cassette and the reference trace of
   every instance with the zero-latency stand-in model;
2. starts five fresh interpreters that only set up (import tablefocus, load the
   templates, build the Cassette and Gateway, load the dataset); ``setup_s`` is
   the median of their set-up times and the measured process's own;
3. starts the measured process (worker.py), which runs whole blocks of
   instances until ``--seconds`` have passed. With ``--trace 1`` it runs half
   the time untraced, then half with every layer wrapped (spans.py).

Reading the output: the lines before the last are for people. They give every
metric with its unit, the tail percentile with its sample count, and
``failed_ratio`` (failed / attempted). The last line is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics``, which holds the
end-to-end metrics with ``--trace 0`` and the per-layer metrics with
``--trace 1``. Per-layer metrics are means per instance, except
``evaluation.load.ms`` (one load) and the ``_ratio`` metrics (per call).
``tracing.overhead_ips`` is the traced throughput minus the untraced one.
``lm_calls_per_instance`` and ``critical_path_rounds`` come from the start and
end of every round trip: to the stand-in model on live-sim, to the cassette on
the replay workloads. ``critical_path_rounds`` is the longest chain of round
trips that each start after the previous one ended, so it equals the call
count while every call is sequential.
Spans of the traced run are written to ``.perfbench/spans-<workload>.jsonl``.

An instance fails when ``run_instance`` raises, when its answer differs from
the generator's, or when its trace JSON is not byte-identical to the trace
recorded for it. Any failure makes ``correct`` false and the exit code 1.
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

import datagen

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_PROBES = 5
DEADLINE_S = 170.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "throughput_ips": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "lm_calls_per_instance": "count",
    "critical_path_rounds": "count",
}
LAYER_UNITS = {".ms": "ms", ".kbytes": "kB", "_ratio": "ratio", "_ips": "1/s"}


class BenchmarkError(Exception):
    pass


def record_references(spec, cases, instances, work: Path) -> dict[str, str]:
    """Run every instance once against the zero-latency stand-in model.

    Returns each instance's trace JSON. For replay workloads this run also
    records the cassette that the timed runs replay.
    """
    from tablefocus import evaluation, gateway, pipeline
    from standin import CallLog, StandInModel
    from worker import pipeline_config

    model = StandInModel(CallLog())
    model.scripts = {c.id: c.replies for c in cases}
    target = work / ("reference-cassette" if spec.live else "cassette")
    lm = gateway.Gateway(gateway.Cassette(target, "record", inner=model), templates=gateway.load_templates())
    config = pipeline_config(spec.live, work / "cassette")
    references = {}
    for instance in instances:
        model.begin(instance.id)
        answer, trace = pipeline.run_instance(instance.table, instance.question, lm, config, task_kind=instance.task_kind)
        if answer.abstained or not evaluation.exact_match(answer, instance.gold_answers):
            raise BenchmarkError(
                f"recording {instance.id}: answered {answer.value!r}, expected {instance.gold_answers[0]!r}"
            )
        references[instance.id] = trace.to_json()
    return references


def run_worker(cfg: dict, work: Path, name: str, deadline: float) -> tuple[float, dict]:
    """Start a fresh worker interpreter; return its set-up time and its result."""
    cfg_path = work / f"{name}.config.json"
    result_path = work / f"{name}.result.json"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), str(cfg_path), str(result_path)],
        cwd=ROOT,
        env={**os.environ, "TMPDIR": tempfile.gettempdir()},
        capture_output=True,
        text=True,
        timeout=max(1.0, deadline - start),
    )
    if proc.returncode != 0:
        raise BenchmarkError(f"worker {name} exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    result = json.loads(result_path.read_text(encoding="utf-8"))
    return result["ready"] - start, result


def layer_unit(name: str) -> str:
    for suffix, unit in LAYER_UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


def run(args, work: Path) -> int:
    from tablefocus import evaluation

    deadline = time.monotonic() + DEADLINE_S
    spec = datagen.WORKLOADS[args.workload]
    cases = datagen.generate(args.workload, args.seed)
    dataset, scripts = datagen.write_inputs(cases, work)
    instances, _ = evaluation.load_dataset(dataset)
    references = record_references(spec, cases, instances, work)
    (work / "references.json").write_text(json.dumps(references), encoding="utf-8")

    cfg = {
        "live": spec.live,
        "lm_latency_s": spec.lm_latency_s,
        "cassette": str(work / "cassette"),
        "dataset": str(dataset),
        "scripts": str(scripts),
        "references": str(work / "references.json"),
        "block_size": len(spec.paths),
        "tail_percentile": spec.tail_percentile,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "spans_out": str(OUT / f"spans-{args.workload}.jsonl"),
        "setup_only": True,
    }
    setups = [run_worker(cfg, work, f"setup-{i}", deadline)[0] for i in range(SETUP_PROBES)]
    setup_s, result = run_worker({**cfg, "setup_only": False}, work, "measure", deadline)
    setups.append(setup_s)

    regions = result["regions"]
    attempted = sum(r["attempted"] for r in [result["warm_up"], *regions])
    failed = sum(r["failed"] for r in [result["warm_up"], *regions])
    timed = regions[0]
    print(
        f"workload {args.workload}  seed {args.seed}  closed loop, 1 client  "
        f"{'traced' if args.trace else 'untraced'}  {attempted} instances"
    )
    for error in result["errors"]:
        print(f"  FAILED {error}")
    print(f"  {'failed_ratio':24s} {failed / attempted:.4f}   ({failed} of {attempted})")
    e2e = {
        "setup_s": statistics.median(setups),
        "throughput_ips": timed["throughput_ips"],
        "latency_p50_ms": timed["latency_p50_ms"],
        "latency_tail_ms": timed["latency_tail_ms"],
        "peak_rss_mb": result["peak_rss_mb"],
        "lm_calls_per_instance": timed["lm_calls_per_instance"],
        "critical_path_rounds": timed["critical_path_rounds"],
    }
    notes = {
        "setup_s": f"median of {len(setups)} fresh interpreters",
        "latency_tail_ms": (
            f"p{timed['tail_percentile']:g} of {timed['attempted']} samples, {timed['tail_beyond']} beyond it"
        ),
    }
    if args.trace:
        notes = {"throughput_ips": "untraced half of the run; per-layer metrics come from the traced half"}
    for name, value in e2e.items():
        print(f"  {name:24s} {value:.4f} {END_TO_END_UNITS[name]}   {notes.get(name, '')}".rstrip())

    metrics = {name: {"value": value, "unit": END_TO_END_UNITS[name]} for name, value in e2e.items()}
    if args.trace:
        metrics = {name: {"value": value, "unit": layer_unit(name)} for name, value in result["layers"].items()}
        for name, entry in metrics.items():
            print(f"  {name:28s} {entry['value']:.4f} {entry['unit']}")
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*datagen.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "tablefocus" / "__init__.py").is_file():
        print(f"error: no tablefocus sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    status = 0
    for workload in datagen.WORKLOADS if args.workload == "all" else [args.workload]:
        work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT))
        # The executor's scratch directories go inside the checkout too.
        tempfile.tempdir = str(work)
        try:
            status = max(status, run(argparse.Namespace(**{**vars(args), "workload": workload}), work))
        except (BenchmarkError, subprocess.TimeoutExpired) as exc:
            print(f"error: {exc}", file=sys.stderr)
            status = 1
        finally:
            tempfile.tempdir = None
            shutil.rmtree(work, ignore_errors=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
