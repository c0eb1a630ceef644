"""The measured process: one fresh interpreter that runs one workload.

``run.py`` starts it as ``python3 perfbench/worker.py <config.json> <result.json>``.
Everything before ``ready`` is set-up as a user pays it: importing tablefocus,
loading the templates, building the Cassette and Gateway, and loading the
dataset. With ``setup_only`` it stops there; otherwise it runs the closed loop
(one client, ``evaluate(..., parallelism=1)``) and writes its measurements.
"""

from __future__ import annotations

import json
import resource
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from tablefocus import evaluation, gateway, pipeline  # noqa: E402
from tablefocus.reasoning import ExecutorProfile  # noqa: E402

import spans  # noqa: E402
from standin import CallLog, LoggedBackend, StandInModel, sequential_rounds  # noqa: E402


def pipeline_config(live: bool, cassette: Path) -> pipeline.PipelineConfig:
    """The configuration every run of a workload uses, recording and timed runs alike.

    Replay traces echo ``backend_mode``, so the recording run uses the replay
    configuration too and its traces are the byte-exact references.
    """
    return pipeline.PipelineConfig(
        backend_mode="record" if live else "replay",
        cassette_path=str(cassette),
        executor=ExecutorProfile(command=(sys.executable,)),
    )


def peak_rss_mb() -> float:
    """High-water resident set of this process since exec.

    ``getrusage`` would also count the parent's resident set at fork, which
    Linux carries across exec; ``VmHWM`` belongs to this program image only.
    """
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def percentile(sorted_values: list[float], p: float) -> float:
    """Linear interpolation between closest ranks; p=100 is the maximum."""
    pos = (len(sorted_values) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


class Runner:
    """Closed loop over the dataset's blocks; checks every answer and trace."""

    def __init__(
        self,
        cfg: dict,
        instances: list[evaluation.EvalInstance],
        references: dict[str, str],
        lm: gateway.Gateway,
        log: CallLog,
        model: StandInModel | None,
    ):
        self.cfg = cfg
        self.config = pipeline_config(cfg["live"], Path(cfg["cassette"]))
        size = cfg["block_size"]
        self.blocks = [instances[i : i + size] for i in range(0, len(instances), size)]
        self.lm = lm
        self.log = log
        self.model = model
        self.templates = lm.templates
        self.references = references
        self.tracer: spans.Tracer | None = None
        self.next_block = 0
        self.latencies: list[float] = []
        self.failed = 0
        self.errors: list[str] = []

    def _fresh_cassette(self) -> None:
        directory = Path(self.cfg["cassette"]) / f"pass-{self.next_block // len(self.blocks)}"
        self.lm = gateway.Gateway(gateway.Cassette(directory, "record", inner=self.model), templates=self.templates)

    def run_one(self, instance: evaluation.EvalInstance):
        self.log.begin()
        if self.model is not None:
            self.model.begin(instance.id)
        if self.tracer is not None:
            self.tracer.instance = instance.id
        start = time.perf_counter()
        try:
            answer, trace = pipeline.run_instance(
                instance.table, instance.question, self.lm, self.config, task_kind=instance.task_kind
            )
            text = trace.to_json()
            result = trace.to_dict()
        except Exception as exc:  # evaluate() records it as an error trace; report why
            self.errors.append(f"{instance.id}: {type(exc).__name__}: {exc}")
            raise
        self.latencies.append(time.perf_counter() - start)
        if answer.abstained or not evaluation.exact_match(answer, instance.gold_answers):
            self.failed += 1
            self.errors.append(f"{instance.id}: answered {answer.value!r}, expected {instance.gold_answers[0]!r}")
        elif text != self.references[instance.id]:
            self.failed += 1
            self.errors.append(f"{instance.id}: trace differs from the one recorded for it")
        return answer, result

    def warm_up(self) -> dict:
        """Run the smallest instance once, untimed, so lazy imports and caches are filled."""
        smallest = min((i for block in self.blocks for i in block), key=lambda i: i.table.row_count)
        failed_before = self.failed
        completed_before = len(self.latencies)
        timed_lm = self.lm
        if self.cfg["live"]:  # keep the timed passes' cassettes empty
            self.lm = gateway.Gateway(
                gateway.Cassette(Path(self.cfg["cassette"]) / "warm-up", "record", inner=self.model),
                templates=self.templates,
            )
        try:
            evaluation.evaluate([smallest], self.run_one, parallelism=1)
        finally:
            self.lm = timed_lm
        swallowed = 1 - (len(self.latencies) - completed_before)
        return {"attempted": 1, "failed": self.failed - failed_before + swallowed}

    def region(self, seconds: float, tracer: spans.Tracer | None = None) -> dict:
        """Run whole blocks until ``seconds`` have passed; return the region's measurements."""
        self.tracer = tracer
        first_run = self.log.run + 1
        first_latency = len(self.latencies)
        failed_before = self.failed
        attempted = 0
        start = time.perf_counter()
        while True:
            if self.cfg["live"] and self.next_block and self.next_block % len(self.blocks) == 0:
                self._fresh_cassette()  # so every pass waits on the model instead of hitting the cassette
            block = self.blocks[self.next_block % len(self.blocks)]
            self.next_block += 1
            evaluation.evaluate(block, self.run_one, parallelism=1)
            attempted += len(block)
            if time.perf_counter() - start >= seconds:
                break
        elapsed = time.perf_counter() - start
        self.tracer = None
        latencies = sorted(self.latencies[first_latency:])
        swallowed = attempted - len(latencies)  # exceptions evaluate() turned into error traces
        runs = range(first_run, self.log.run + 1)
        calls = self.log.by_run(runs)
        tail_p = self.cfg["tail_percentile"]
        tail = percentile(latencies, tail_p) if latencies else 0.0
        return {
            "attempted": attempted,
            "failed": self.failed - failed_before + swallowed,
            "elapsed_s": elapsed,
            "throughput_ips": attempted / elapsed,
            "latency_p50_ms": 1000.0 * statistics.median(latencies) if latencies else 0.0,
            "latency_tail_ms": 1000.0 * tail,
            "tail_percentile": tail_p,
            "tail_beyond": sum(1 for v in latencies if v > tail),
            "lm_calls": sum(len(c) for c in calls.values()),
            "lm_wait_s": sum(end - start for c in calls.values() for start, end in c),
            "lm_calls_per_instance": sum(len(c) for c in calls.values()) / attempted,
            "critical_path_rounds": sum(sequential_rounds(c) for c in calls.values()) / attempted,
        }


def main(argv: list[str]) -> int:
    cfg = json.loads(Path(argv[1]).read_text(encoding="utf-8"))
    log = CallLog()
    templates = gateway.load_templates()
    model = None
    if cfg["live"]:
        model = StandInModel(log, cfg["lm_latency_s"])
        backend: gateway.Backend = gateway.Cassette(Path(cfg["cassette"]) / "pass-0", "record", inner=model)
    else:
        backend = LoggedBackend(gateway.Cassette(cfg["cassette"], "replay"), log)
    lm = gateway.Gateway(backend, templates=templates)
    instances, _ = evaluation.load_dataset(cfg["dataset"])
    ready = time.monotonic()
    result: dict = {"ready": ready}
    if not cfg["setup_only"]:
        references = json.loads(Path(cfg["references"]).read_text(encoding="utf-8"))
        runner = Runner(cfg, instances, references, lm, log, model)
        if model is not None:
            model.scripts = json.loads(Path(cfg["scripts"]).read_text(encoding="utf-8"))
        warm = runner.warm_up()
        seconds = cfg["seconds"]
        if cfg["trace"]:
            untraced = runner.region(seconds / 2)
            tracer = spans.Tracer()
            spans.install(tracer)
            try:
                evaluation.load_dataset(cfg["dataset"])
                traced = runner.region(seconds / 2, tracer)
            finally:
                tracer.restore()
            tracer.write(Path(cfg["spans_out"]))
            # Only the stand-in model is a model; in replay the round trips end at the cassette.
            lm_calls, lm_wait_s = (traced["lm_calls"], traced["lm_wait_s"]) if model is not None else (0, 0.0)
            layers = spans.layer_metrics(tracer.spans, traced["attempted"], lm_calls, lm_wait_s)
            layers["tracing.overhead_ips"] = traced["throughput_ips"] - untraced["throughput_ips"]
            result.update(regions=[untraced, traced], layers=layers)
        else:
            result["regions"] = [runner.region(seconds)]
        result["warm_up"] = warm
        result["errors"] = runner.errors[:20]
        result["peak_rss_mb"] = peak_rss_mb()
    Path(argv[2]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
