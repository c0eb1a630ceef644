"""Acceptance gate: oracle conformance, deterministic replay goldens,
fault-injection degradation ladder, structural invariants, and cost accounting.
"""

from __future__ import annotations

import os
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tablefocus import gateway as gw
from tablefocus.core import Table, peek, transpose
from tablefocus.evaluation import evaluate, exact_match, load_dataset, predicted_cost
from tablefocus.normalize import normalize, skip_normalization
from tablefocus.pipeline import PipelineConfig, run_instance
from tablefocus.reasoning import Answer, ExecutorProfile
from tablefocus.sqlrows import execute_row_lookup
from tablefocus.content import reconstruct_focus
from tablefocus.sqlrows import RowSet
from tablefocus.trace import ReasoningTrace

from conftest import GOLDEN_CASES, make_gateway, record_run, replay_run
from sql_oracle import oracle_rows, random_predicate, random_table

SCRIPTED_CONFIG = PipelineConfig(backend_mode="passthrough")


# --------------------------------------------------------------------------
# Criterion 1: focus re-construction loop matches a direct transliteration of
# the reference pseudocode on 1,000 randomized cases in under 5 seconds.
# --------------------------------------------------------------------------

def _reference_loop(ranked, initial, verdicts):
    """Transliterated reference: pop ranked candidates until sufficiency."""
    candidates = [c for c in ranked if c not in initial]
    chosen = list(initial)
    used = 0
    while True:
        sufficient = verdicts[used]
        used += 1
        if sufficient or not candidates:
            break
        chosen.append(candidates.pop(0))
    return chosen, len(chosen) - len(initial), used


class TestReconstructionConformance:
    def test_thousand_randomized_cases(self):
        rng = random.Random(20260823)
        start = time.monotonic()
        for _ in range(1000):
            n_headers = rng.randint(1, 6)
            headers = [f"h{j}" for j in range(n_headers)]
            table = skip_normalization(
                Table.make(headers, [[str(rng.randint(0, 9)) for _ in headers] for _ in range(2)])
            )
            ranked = headers[:]
            rng.shuffle(ranked)
            n_initial = rng.randint(1, n_headers)
            initial = tuple(rng.sample(headers, n_initial))
            # Worst case consumes |H| - |C0| + 1 verdicts.
            verdicts = [rng.random() < 0.5 for _ in range(n_headers - n_initial + 1)]

            expected_cols, expected_e, expected_used = _reference_loop(ranked, initial, verdicts)

            lm = make_gateway(
                {"information_estimation": ["Yes" if v else "No" for v in verdicts]}
            )
            trace = ReasoningTrace()
            rows = RowSet(indices=(0, 1))
            focus = reconstruct_focus(
                table, "q", rows, initial, tuple(ranked), lm, trace=trace
            )

            assert set(focus.table.headers) == set(expected_cols)
            assert focus.reconstruction_count == expected_e
            used = sum(1 for s in trace.steps if s["template_id"] == "information_estimation")
            assert used == expected_used
        assert time.monotonic() - start < 5.0


# --------------------------------------------------------------------------
# Criterion 2: the cost model agrees exactly with an independent evaluation on
# 10,000 random parameter tuples, plus the worked value 71.
# --------------------------------------------------------------------------

class TestCostModel:
    def test_worked_value(self):
        assert predicted_cost(k=5, n=4, e=2, a=3, b=2) == 71.0

    def test_ten_thousand_random_tuples(self):
        rng = random.Random(42)
        extra_e = [0.5, 1.5, 2.5]
        for _ in range(10_000):
            k = rng.randint(0, 200)
            n = rng.randint(0, 200)
            a = rng.randint(0, 200)
            b = rng.randint(0, 200)
            e = rng.choice([float(rng.randint(0, 20)), rng.choice(extra_e)])
            # Independent evaluation of the closed form, term by term.
            independent = (k * n) + (k * n) + n + (e * a * b) + (2.5 * a * b)
            assert predicted_cost(k, n, e, a, b) == independent


# --------------------------------------------------------------------------
# Criterion 3: SQL engine equals brute-force predicate filtering on 600
# generated (table, predicate) pairs in under 30 seconds.
# --------------------------------------------------------------------------

class TestSqlOracleEquivalence:
    def test_six_hundred_pairs(self):
        rng = random.Random(7)
        start = time.monotonic()
        mismatches = []
        for i in range(600):
            table = random_table(rng)
            predicate = random_predicate(rng)
            sql = f"SELECT * FROM t WHERE {predicate.sql()}"
            got = execute_row_lookup(table, sql)
            expected = oracle_rows(table, predicate)
            if got.indices != expected:
                mismatches.append((sql, got.indices, expected))
        assert mismatches == []
        assert time.monotonic() - start < 30.0


# --------------------------------------------------------------------------
# Criterion 4: ten curated golden instances replay deterministically, with
# byte-identical answers and traces across two consecutive replay runs.
# --------------------------------------------------------------------------

class TestDeterministicGoldens:
    def test_at_least_ten_cases(self):
        assert len(GOLDEN_CASES) >= 10
        ids = {c.id for c in GOLDEN_CASES}
        assert "riders-symbolic" in ids  # wins-by-country aggregation -> "7"
        assert "tenure-textual" in ids  # years-in-office count -> "4"

    @pytest.mark.parametrize("case", GOLDEN_CASES, ids=[c.id for c in GOLDEN_CASES])
    def test_replay_is_byte_identical(self, case, tmp_path):
        cassette = tmp_path / "cassette"
        recorded_answer, _ = record_run(case, cassette)
        assert recorded_answer.value == case.expected
        assert recorded_answer.abstained == case.expect_abstained

        first_answer, first_trace = replay_run(case, cassette)
        second_answer, second_trace = replay_run(case, cassette)
        assert first_answer == second_answer == recorded_answer
        assert first_trace.to_json() == second_trace.to_json()
        assert first_trace.answer["value"] == case.expected

    def test_riders_case_is_symbolic_and_tenure_is_textual(self, tmp_path):
        by_id = {c.id: c for c in GOLDEN_CASES}
        _, riders_trace = record_run(by_id["riders-symbolic"], tmp_path / "r")
        assert riders_trace.strategy == "symbolic"
        assert [s["exit_status"] for s in riders_trace.steps if s["kind"] == "exec"] == [0]
        _, tenure_trace = record_run(by_id["tenure-textual"], tmp_path / "t")
        assert tenure_trace.strategy == "textual"
        assert tenure_trace.program is None


# --------------------------------------------------------------------------
# Criterion 5: fault injection exercises every fallback rung; each run still
# terminates with an Answer and a complete trace.
# --------------------------------------------------------------------------

def _base_replies(**overrides):
    replies = {
        "structure_extraction": ["key column: Rider"],
        "column_ranking": ["Country, Wins, Rider"],
        "column_lookup": ["Country, Wins"],
        "row_lookup_sql": ["```sql\nSELECT * FROM t WHERE country = 'Belgium'\n```"],
        "information_estimation": ["Yes"],
        "verbalization": ["Focus description."],
        "strategy_assessment": ["textual"],
        "textual_reasoning": ["Answer: 7"],
        "answer_formatting": ["7"],
    }
    replies.update(overrides)
    return replies


def _inject(replies, config=SCRIPTED_CONFIG):
    case = GOLDEN_CASES[0]
    lm = make_gateway(replies)
    answer, trace = run_instance(case.table, case.question, lm, config, task_kind="qa")
    assert isinstance(answer, Answer)
    assert trace.answer is not None
    assert trace.cost_parameters  # cost accounting always present
    return answer, trace


class TestDegradationLadder:
    def test_invalid_sql_falls_back_to_all_rows(self):
        answer, trace = _inject(_base_replies(row_lookup_sql=["SELEC garbage FORM t"]))
        assert answer.value == "7"
        assert any("selected all rows" in w for w in trace.warnings)
        assert trace.cost_parameters["a"] == 6.0  # all six rows kept

    def test_executor_timeout_falls_back_to_textual(self):
        replies = _base_replies(
            strategy_assessment=["symbolic"],
            textual_guidance=["g"],
            symbolic_reasoning=["```python\nwhile True: pass\n```"],
        )
        config = PipelineConfig(
            backend_mode="passthrough", executor=ExecutorProfile(timeout_s=0.5)
        )
        answer, trace = _inject(replies, config)
        assert answer.value == "7"
        assert any("timeout" in f for f in trace.fallbacks)
        assert [s["timed_out"] for s in trace.steps if s["kind"] == "exec"] == [True]

    def test_executor_crash_falls_back_to_textual(self):
        replies = _base_replies(
            strategy_assessment=["symbolic"],
            textual_guidance=["g"],
            symbolic_reasoning=["```python\nraise SystemExit(9)\n```"],
        )
        answer, trace = _inject(replies)
        assert answer.value == "7"
        assert any("nonzero exit" in f for f in trace.fallbacks)

    def test_missing_interpreter_falls_back_to_textual(self):
        replies = _base_replies(
            strategy_assessment=["symbolic"],
            textual_guidance=["g"],
            symbolic_reasoning=["```python\nprint(7)\n```"],
        )
        config = PipelineConfig(
            backend_mode="passthrough", executor=ExecutorProfile(command=("/nonexistent/python3",))
        )
        answer, trace = _inject(replies, config)
        assert answer.value == "7"
        assert any("nonzero exit" in f for f in trace.fallbacks)
        assert [s["exit_status"] for s in trace.steps if s["kind"] == "exec"] == [127]

    def test_unparseable_strategy_defaults_to_textual(self):
        answer, trace = _inject(_base_replies(strategy_assessment=["hmm, not sure"]))
        assert answer.value == "7"
        assert trace.strategy == "textual"
        assert any("defaulted to textual" in w for w in trace.warnings)

    def test_abstention_triggers_full_table_retry(self):
        replies = _base_replies(
            textual_reasoning=["I cannot answer.", "Answer: 7"],
            answer_formatting=["cannot answer", "7"],
        )
        answer, trace = _inject(replies)
        assert answer.value == "7"
        assert "full_table_retry" in trace.fallbacks

    def test_corrupt_cassette_entry_degrades(self, tmp_path):
        case = {c.id: c for c in GOLDEN_CASES}["tenure-textual"]
        record_run(case, tmp_path / "c")
        first = sorted((tmp_path / "c").glob("*.json"))[0]
        first.write_bytes(first.read_bytes()[:40])
        answer, trace = replay_run(case, tmp_path / "c")
        assert answer.abstained
        assert trace.answer["abstained"] is True
        assert any(w.startswith("pipeline degraded: CorruptEntry") for w in trace.warnings)

    def test_persistent_abstention_still_terminates(self):
        replies = _base_replies(
            textual_reasoning=["I cannot answer.", "Still cannot answer."],
            answer_formatting=["cannot answer", "no answer"],
        )
        answer, trace = _inject(replies)
        assert answer.abstained
        assert trace.answer["abstained"] is True


# --------------------------------------------------------------------------
# Criterion 6: structural invariants hold under property-based generation,
# at least 1,000 cases each.
# --------------------------------------------------------------------------

_cell = st.sampled_from(
    ["12", "-4", "3.5", "1,234", "$9", "1999-03-05", "abc", "x y", "", "n/a", "Alice"]
)


@st.composite
def _tables(draw, min_rows=0, min_cols=1):
    n = draw(st.integers(min_cols, 4))
    m = draw(st.integers(min_rows, 4))
    headers = [f"h{j}" for j in range(n)]
    return Table.make(headers, [[draw(_cell) for _ in range(n)] for _ in range(m)])


class TestStructuralInvariants:
    @settings(max_examples=1000, deadline=None)
    @given(_tables(min_rows=1, min_cols=2))
    def test_transpose_involution(self, t):
        # Needs >= 2 columns: transposing a single-column table yields a
        # zero-row table, which has no inverse.
        assert transpose(transpose(t)) == t

    @settings(max_examples=1000, deadline=None)
    @given(_tables(), st.integers(0, 8))
    def test_peek_identity_and_idempotence(self, t, k):
        p = peek(t, k)
        assert peek(p, k) == p
        if k >= t.row_count:
            assert p == t

    @settings(max_examples=1000, deadline=None)
    @given(_tables())
    def test_normalize_idempotence(self, t):
        once = normalize(t)
        twice = normalize(once.table)
        assert twice.table == once.table
        assert not twice.transposed

    @settings(max_examples=1000, deadline=None)
    @given(
        st.one_of(st.integers(-999999, 999999).map(str), st.sampled_from(["paris", "blue", "a b c"])),
        st.sampled_from(["none", "quote", "period", "upper", "spaces"]),
    )
    def test_exact_match_normalization(self, value, decoration):
        decorated = {
            "none": value,
            "quote": f'"{value}"',
            "period": f"{value}.",
            "upper": value.upper(),
            "spaces": f"  {value}  ",
        }[decoration]
        assert exact_match(decorated, [value])


# --------------------------------------------------------------------------
# Criterion 7: for every golden trace, the tallied cost equals the model's
# prediction for the observed parameters, and condensation_ratio is <= 1.
# --------------------------------------------------------------------------

class TestTraceCostAccounting:
    @pytest.mark.parametrize("case", GOLDEN_CASES, ids=[c.id for c in GOLDEN_CASES])
    def test_tally_matches_prediction(self, case):
        lm = make_gateway(case.replies)
        _, trace = run_instance(case.table, case.question, lm, SCRIPTED_CONFIG, task_kind=case.task_kind)
        p = trace.cost_parameters
        expected = predicted_cost(p["k"], p["n"], p["e"], p["a"], p["b"])
        assert abs(trace.cost_total - expected) <= 0.5
        assert trace.condensation_ratio is not None
        assert trace.condensation_ratio <= 1.0


# --------------------------------------------------------------------------
# Criterion 8 (optional, live): passthrough smoke test over a 25-instance
# slice; asserts wiring, not model quality.
# --------------------------------------------------------------------------

_LIVE_VARS = ("TF_LIVE_BASE_URL", "TF_LIVE_MODEL", "TF_LIVE_DATASET")


@pytest.mark.skipif(
    not all(os.environ.get(v) for v in _LIVE_VARS),
    reason="live smoke test requires TF_LIVE_BASE_URL, TF_LIVE_MODEL, TF_LIVE_DATASET",
)
class TestLiveSmoke:
    def test_live_slice(self):
        backend = gw.HttpBackend(
            base_url=os.environ["TF_LIVE_BASE_URL"],
            model=os.environ["TF_LIVE_MODEL"],
            api_key_env=os.environ.get("TF_LIVE_API_KEY_ENV", "TF_API_KEY"),
        )
        lm = gw.Gateway(backend)
        config = PipelineConfig(backend_mode="passthrough")
        fmt = os.environ.get("TF_LIVE_DATASET_FORMAT", "wikitq-tsv")
        instances, _ = load_dataset(os.environ["TF_LIVE_DATASET"], format=fmt)
        instances = instances[:25]

        def run_one(instance):
            answer, trace = run_instance(
                instance.table, instance.question, lm, config, task_kind=instance.task_kind
            )
            return answer, trace.to_dict()

        report = evaluate(instances, run_one, parallelism=4)
        assert report.total == len(instances)
        assert report.accuracy >= 0.40
