"""Tests of the benchmark itself: generator, stand-in model, tracing and metrics."""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import datagen
import spans
from standin import CallLog, StandInModel, format_reply, sequential_rounds
from tablefocus import evaluation, gateway, pipeline
from tablefocus.core import Table
from worker import pipeline_config

BENCH = Path(__file__).resolve().parent.parent


def _records(workload: str, seed: int) -> list[dict]:
    return [c.dataset_record() for c in datagen.generate(workload, seed)]


@pytest.mark.parametrize("workload", sorted(datagen.WORKLOADS))
def test_generator_repeats_for_a_seed_and_differs_across_seeds(workload):
    first = datagen.generate(workload, 7)
    assert first == datagen.generate(workload, 7)
    assert _records(workload, 7) != _records(workload, 8)


@pytest.mark.parametrize("workload", sorted(datagen.WORKLOADS))
def test_every_block_has_the_same_mix(workload):
    spec = datagen.WORKLOADS[workload]
    cases = datagen.generate(workload, 3)
    assert len(cases) == spec.blocks * len(spec.paths)
    for start in range(0, len(cases), len(spec.paths)):
        block = cases[start : start + len(spec.paths)]
        assert sorted(c.path for c in block) == sorted(spec.paths)
        sizes = sorted(len(c.rows) for c in block)
        for size, (lo, hi) in zip(sizes, sorted(spec.rows)):
            assert lo <= size <= hi


def _run_cases(cases, tmp_path: Path, latency_s: float = 0.0):
    """Record each case through the pipeline; yield (case, answer, trace, round trips)."""
    log = CallLog()
    model = StandInModel(log, latency_s)
    model.scripts = {c.id: c.replies for c in cases}
    lm = gateway.Gateway(gateway.Cassette(tmp_path / "cassette", "record", inner=model))
    config = pipeline_config(True, tmp_path / "cassette")
    for case in cases:
        log.begin()
        model.begin(case.id)
        table = Table.make(case.headers, case.rows)
        answer, trace = pipeline.run_instance(table, case.question, lm, config, task_kind="qa")
        yield case, answer, trace, log.by_run(range(log.run, log.run + 1))[log.run]


def test_stand_in_replies_give_the_expected_answer_on_every_path(tmp_path):
    block = datagen.generate("replay-small", 5)[: len(datagen.WORKLOADS["replay-small"].paths)]
    seen = set()
    for case, answer, trace, _ in _run_cases(block, tmp_path):
        assert not answer.abstained
        assert evaluation.exact_match(answer, [case.answer]), (case.path, answer.value, case.answer)
        seen.add(case.path)
        if case.path == "exec_failure":
            assert trace.fallbacks == ["textual (executor nonzero exit)"]
        elif case.path == "abstain_retry":
            assert trace.fallbacks == ["full_table_retry"]
        elif case.path == "invalid_sql":
            assert any("row lookup SQL failed" in w for w in trace.warnings)
        elif case.path == "aggregate_sql":
            assert any("aggregate-only" in w for w in trace.warnings)
        elif case.path == "reconstruction":
            assert trace.cost_parameters["e"] == 1.0
        elif case.path == "symbolic":
            assert trace.strategy == "symbolic" and trace.steps[-2]["kind"] == "exec"
            assert trace.steps[-2]["exit_status"] == 0
    assert seen == set(datagen.WORKLOADS["replay-small"].paths)


def test_format_reply_reads_only_the_reasoning_section():
    templates = gateway.load_templates()
    lm = gateway.Gateway(gateway.ScriptedBackend({}), templates=templates)
    build = lambda reasoning: lm.build_request("answer_formatting", {"question": "Q?", "reasoning": reasoning})
    assert format_reply(build("Some steps. Answer: 42").rendered) == "42"
    assert format_reply(build("12345.67\n").rendered) == "12345.67"
    assert format_reply(build("Not here, so I cannot answer.").rendered) == "cannot answer"


def test_critical_path_equals_model_calls_on_sequential_pipeline(tmp_path):
    cases = datagen.generate("live-sim", 2)[: len(datagen.WORKLOADS["live-sim"].paths)]
    for case, answer, _, calls in _run_cases(cases, tmp_path, latency_s=0.002):
        assert evaluation.exact_match(answer, [case.answer])
        assert sequential_rounds(calls) == len(calls)
        assert len(calls) == (10 if case.path == "symbolic" else 9)


def test_sequential_rounds_counts_overlapping_calls_once():
    assert sequential_rounds([]) == 0
    assert sequential_rounds([(0, 1), (1, 2), (2, 3)]) == 3
    assert sequential_rounds([(0, 1), (0, 1), (1, 2)]) == 2
    assert sequential_rounds([(0, 2), (1, 3), (3, 4)]) == 2


def test_covered_merges_overlaps():
    assert spans.covered([]) == 0.0
    assert spans.covered([(0, 1), (2, 3)]) == 2.0
    assert spans.covered([(0, 2), (1, 3), (3, 4)]) == 4.0
    assert spans.covered([(0, 5), (1, 2)]) == 5.0


def test_self_time_subtracts_the_union_of_children():
    tree = [
        spans.Span(0, "root", None, "i", 0.0, 10.0),
        spans.Span(1, "a", 0, "i", 1.0, 4.0),
        spans.Span(2, "b", 0, "i", 3.0, 6.0),  # overlaps a: the union is 5, not 6
        spans.Span(3, "a.child", 1, "i", 2.0, 3.0),
    ]
    assert spans.self_times(tree) == {0: 5.0, 1: 2.0, 2: 3.0, 3: 1.0}


def test_tracer_links_nested_calls_and_records_errors():
    ticks = iter(range(100))
    tracer = spans.Tracer(clock=lambda: float(next(ticks)))

    def inner(x):
        if x < 0:
            raise ValueError("negative")
        return x

    traced_inner = tracer.wrap(inner, "inner", lambda a, k, r: {"value": r})
    outer = tracer.wrap(lambda x: traced_inner(x) + traced_inner(x), "outer")
    tracer.instance = "case-7"
    assert outer(2) == 4
    with pytest.raises(ValueError):
        traced_inner(-1)
    root, first, second, failed = tracer.spans
    assert (root.parent, first.parent, second.parent, failed.parent) == (None, 0, 0, None)
    assert first.attrs == {"value": 2} and failed.attrs == {"error": 1}
    assert {s.instance for s in tracer.spans} == {"case-7"}
    # One tick per clock read: outer runs 0..5, its children 1..2 and 3..4.
    assert spans.self_times(tracer.spans)[0] == 3.0


def _bindings() -> dict[tuple[str, str], object]:
    from tablefocus import gateway as gw, trace

    owners = {name: mod for name, mod in sys.modules.items() if name == "tablefocus" or name.startswith("tablefocus.")}
    owners.update({"Gateway": gw.Gateway, "Cassette": gw.Cassette, "ReasoningTrace": trace.ReasoningTrace})
    return {(name, attr): value for name, owner in owners.items() for attr, value in vars(owner).items()}


def test_install_rebinds_lookups_and_restore_puts_every_name_back():
    before = _bindings()
    tracer = spans.Tracer()
    spans.install(tracer)
    try:
        during = _bindings()
        changed = {key for key, value in before.items() if during[key] is not value}
        assert ("tablefocus.pipeline", "normalize") in changed
        assert ("tablefocus.structure", "render_markdown") in changed
        assert ("tablefocus.core", "render_markdown") in changed
        assert ("Gateway", "complete") in changed
    finally:
        tracer.restore()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())


def test_layer_metrics_are_means_per_run():
    tree = [
        spans.Span(0, "run_instance", None, "a", 0.0, 0.010),
        spans.Span(1, "normalize", 0, "a", 0.001, 0.007, {"cells": 20}),
        spans.Span(2, "run_instance", None, "b", 0.020, 0.024),
        spans.Span(3, "normalize", 2, "b", 0.021, 0.023, {"cells": 20}),
    ]
    layers = spans.layer_metrics(tree, runs=2, lm_calls=18, lm_wait_s=0.9)
    assert layers["normalize.ms"] == pytest.approx(4.0)
    assert layers["normalize.calls"] == 1.0 and layers["normalize.cells"] == 20.0
    assert layers["pipeline.self.ms"] == pytest.approx(3.0)
    assert layers["lm.calls"] == 9.0 and layers["lm.wait.ms"] == pytest.approx(450.0)
    assert layers["reasoning.exec.ms"] == 0.0


def test_benchmark_fails_without_the_program_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "replay-small", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
