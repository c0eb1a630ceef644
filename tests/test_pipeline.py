"""End-to-end pipeline orchestration with scripted backends."""

from __future__ import annotations

import pytest

from tablefocus import gateway as gw
from tablefocus.evaluation import predicted_cost
from tablefocus.pipeline import PipelineConfig, build_backend, run_instance
from tablefocus.trace import ReasoningTrace

from conftest import GOLDEN_CASES, GoldenCase, make_gateway

SCRIPTED_CONFIG = PipelineConfig(backend_mode="passthrough")


def _run_scripted(case: GoldenCase):
    lm = make_gateway(case.replies)
    return run_instance(case.table, case.question, lm, SCRIPTED_CONFIG, task_kind=case.task_kind)


class TestConfigValidation:
    def test_replay_requires_cassette(self):
        for path in (None, ""):
            with pytest.raises(ValueError, match="requires a cassette path"):
                build_backend(PipelineConfig(backend_mode="replay", cassette_path=path))

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            PipelineConfig(backend_mode="stream")

    def test_bounds(self):
        with pytest.raises(ValueError):
            PipelineConfig(backend_mode="passthrough", peek_size=0)
        with pytest.raises(ValueError):
            PipelineConfig(backend_mode="passthrough", b_max=0)
        with pytest.raises(ValueError):
            PipelineConfig(backend_mode="passthrough", reasoning_table="sideways")


class TestBuildBackend:
    def test_passthrough_requires_inner(self):
        with pytest.raises(ValueError):
            build_backend(PipelineConfig(backend_mode="passthrough"))

    def test_record_requires_cassette_path(self):
        with pytest.raises(ValueError):
            build_backend(PipelineConfig(backend_mode="record"), inner=gw.ScriptedBackend({}))

    def test_passthrough_never_stores(self, tmp_path):
        inner = gw.ScriptedBackend({"column_lookup": ["a", "b"]})
        config = PipelineConfig(backend_mode="passthrough", cassette_path=str(tmp_path / "c"))
        lm = gw.Gateway(build_backend(config, inner=inner))
        bindings = {"table": "t", "headers": "h", "question": "q"}
        replies = [lm.complete("column_lookup", bindings, ReasoningTrace()) for _ in range(2)]
        assert replies == ["a", "b"]  # both calls reached the inner backend
        assert not (tmp_path / "c").exists()

    def test_replay_returns_cassette(self, tmp_path):
        backend = build_backend(PipelineConfig(backend_mode="replay", cassette_path=str(tmp_path)))
        assert isinstance(backend, gw.Cassette)
        assert backend.mode == "replay"


class TestScriptedFlows:
    @pytest.mark.parametrize("case", GOLDEN_CASES, ids=[c.id for c in GOLDEN_CASES])
    def test_expected_answer(self, case):
        answer, trace = _run_scripted(case)
        assert answer.abstained == case.expect_abstained
        assert answer.value == case.expected
        assert trace.answer["value"] == case.expected

    def test_cost_accounting_matches_formula(self):
        case = GOLDEN_CASES[0]  # riders-symbolic
        _, trace = _run_scripted(case)
        p = trace.cost_parameters
        assert p["k"] == 6.0 and p["n"] == 3.0
        assert p["a"] == 3.0 and p["b"] == 3.0 and p["e"] == 0.0
        assert trace.cost_total == pytest.approx(
            predicted_cost(p["k"], p["n"], p["e"], p["a"], p["b"])
        )
        assert set(trace.cost_components) == {
            "structure_extraction",
            "row_lookup",
            "column_lookup",
            "reconstruction",
            "verbalization",
            "strategy_assessment",
            "reasoning",
        }

    def test_condensation_ratio_recorded(self):
        _, trace = _run_scripted(GOLDEN_CASES[0])
        assert trace.condensation_ratio == pytest.approx(0.5)  # 3x3 focus of a 6x3 table

    def test_trace_has_no_timings_or_paths(self):
        _, trace = _run_scripted(GOLDEN_CASES[0])
        text = trace.to_json()
        assert "duration" not in text
        assert "tf-exec-" not in text

    def test_strategy_recorded(self):
        _, trace = _run_scripted(GOLDEN_CASES[0])
        assert trace.strategy == "symbolic"
        assert trace.guidance
        assert trace.program
        assert [s["exit_status"] for s in trace.steps if s["kind"] == "exec"] == [0]

    def test_cassette_miss_degrades_to_abstention(self, tmp_path):
        case = GOLDEN_CASES[0]
        config = PipelineConfig(backend_mode="replay", cassette_path=str(tmp_path / "empty"))
        lm = gw.Gateway(gw.Cassette(tmp_path / "empty", "replay"))
        answer, trace = run_instance(case.table, case.question, lm, config, task_kind=case.task_kind)
        assert answer.abstained
        assert any("CassetteMiss" in w for w in trace.warnings)
        assert trace.cost_parameters["a"] == 0.0
        assert trace.cost_total == pytest.approx(predicted_cost(6, 3, 0, 0, 0))

    def test_terminal_failure_yields_abstained_answer(self):
        case = GOLDEN_CASES[0]
        stages = ("structure_extraction", "column_ranking", "column_lookup", "row_lookup_sql",
                  "information_estimation", "verbalization")
        lm = make_gateway({t: case.replies[t] for t in stages})  # no strategy_assessment reply
        answer, trace = run_instance(case.table, case.question, lm, SCRIPTED_CONFIG)
        assert answer.abstained
        assert any(w.startswith("pipeline degraded: TransportError") for w in trace.warnings)
        assert trace.answer == {"value": "", "task_kind": "qa", "abstained": True}

    def test_backend_bug_is_not_swallowed(self):
        case = GOLDEN_CASES[0]
        scripted = gw.ScriptedBackend(case.replies)

        class Broken:
            def send(self, request):
                if request.template_id == "strategy_assessment":
                    raise KeyError("bug")
                return scripted.send(request)

        with pytest.raises(KeyError):
            run_instance(case.table, case.question, gw.Gateway(Broken()), SCRIPTED_CONFIG)

    def test_binding_mismatch_is_raised_not_degraded(self):
        # A stage that sends the wrong bindings is a bug, so it must not abstain.
        case = GOLDEN_CASES[0]
        templates = gw.load_templates()
        verbalization = templates["verbalization"]
        templates["verbalization"] = gw.PromptTemplate(verbalization.id, verbalization.body + "{{extra}}")
        lm = gw.Gateway(gw.ScriptedBackend(case.replies), templates=templates)
        with pytest.raises(gw.MissingBinding, match="extra"):
            run_instance(case.table, case.question, lm, SCRIPTED_CONFIG)

    def test_normalization_toggle_is_equivalent_on_clean_table(self):
        case = GOLDEN_CASES[1]  # tenure-textual
        on, _ = _run_scripted(case)
        lm = make_gateway(case.replies)
        off, _ = run_instance(
            case.table,
            case.question,
            lm,
            PipelineConfig(backend_mode="passthrough", normalization=False),
            task_kind=case.task_kind,
        )
        assert on == off

    def test_peek_size_limits_k(self):
        case = GOLDEN_CASES[1]
        lm = make_gateway(case.replies)
        _, trace = run_instance(
            case.table,
            case.question,
            lm,
            PipelineConfig(backend_mode="passthrough", peek_size=2),
            task_kind=case.task_kind,
        )
        assert trace.cost_parameters["k"] == 2.0

    def test_config_snapshot_in_trace(self):
        _, trace = _run_scripted(GOLDEN_CASES[0])
        assert trace.config["peek_size"] == 25
        assert trace.config["task_kind"] == "qa"
