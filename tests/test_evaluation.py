"""Dataset loading, answer normalization, exact match, buckets, cost model,
and batch evaluation."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tablefocus import evaluation
from tablefocus.core import Table
from tablefocus.evaluation import (
    DatasetFormatError,
    EvalInstance,
    TooFewValues,
    bucketize,
    evaluate,
    exact_match,
    load_dataset,
    normalize_answer,
    predicted_cost,
)
from tablefocus.reasoning import Answer


def _jsonl_record(idx, question="q", answers=("7",), rows=1):
    return json.dumps(
        {
            "id": f"i{idx}",
            "question": question,
            "answers": list(answers),
            "table": {"header": ["a", "b"], "rows": [["1", "2"]] * rows},
        }
    )


class TestNormalizeAnswer:
    @pytest.mark.parametrize(
        "raw,expected",
        [
            ("  Foo  Bar ", "foo bar"),
            ('"42"', "42"),
            ("'Paris'", "paris"),
            ("Done.", "done"),
            ("1,234", "1234"),
            ("3.50", "3.5"),
            ("3.0", "3"),
            ("0.0", "0"),
            ("7", "7"),
            ("", ""),
        ],
    )
    def test_examples(self, raw, expected):
        assert normalize_answer(raw) == expected

    def test_idempotent(self):
        for raw in ["  Foo ", "3.50", '"x"', "1,234.00"]:
            once = normalize_answer(raw)
            assert normalize_answer(once) == once


class TestExactMatch:
    def test_case_and_punctuation_insensitive(self):
        assert exact_match("Paris.", ["paris"])

    def test_numeric_tolerance(self):
        assert exact_match("0.30000000001", ["0.3"])
        assert not exact_match("0.31", ["0.3"])

    def test_numeric_formats(self):
        assert exact_match("1,234.0", ["1234"])

    def test_multiset_parts(self):
        assert exact_match("a|b", ["b|a"])
        assert not exact_match("a|b", ["a|c"])
        assert not exact_match("a|b", ["a"])

    def test_alternative_gold_set(self):
        assert exact_match("UK", ["United Kingdom", "UK"])

    def test_answer_object_accepted(self):
        assert exact_match(Answer(value="7", task_kind="qa"), ["7"])

    @settings(max_examples=200, deadline=None)
    @given(st.text(max_size=30))
    def test_reflexive(self, text):
        assert exact_match(text, [text])


class TestBucketize:
    def test_quartiles(self):
        values = [1, 2, 3, 4, 5, 6, 7, 8]
        assert bucketize(values) == [
            "small", "small", "medium", "medium", "large", "large", "xl", "xl",
        ]

    def test_ties_go_to_lower_bucket(self):
        assert bucketize([1, 1, 1, 5]) == ["small", "small", "small", "xl"]

    def test_too_few_values(self):
        with pytest.raises(TooFewValues):
            bucketize([1, 2, 3])

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(0, 100), min_size=4, max_size=40))
    def test_total_and_monotone(self, values):
        labels = bucketize(values)
        assert len(labels) == len(values)
        rank = {"small": 0, "medium": 1, "large": 2, "xl": 3}
        pairs = sorted(zip(values, (rank[l] for l in labels)))
        for (v1, r1), (v2, r2) in zip(pairs, pairs[1:]):
            if v1 == v2:
                assert r1 == r2  # equal values always share a bucket
            else:
                assert r1 <= r2


class TestPredictedCost:
    def test_worked_example(self):
        assert predicted_cost(k=5, n=4, e=2, a=3, b=2) == 71.0

    def test_zero_focus(self):
        assert predicted_cost(k=3, n=2) == 14.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            predicted_cost(k=-1, n=1)


class TestLoadDataset:
    def test_jsonl_skips_malformed(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text(_jsonl_record(0) + "\n{broken\n" + _jsonl_record(1) + "\n")
        instances, skipped = load_dataset(path, format="jsonl")
        assert len(instances) == 2
        assert skipped == 1
        assert instances[0].table.headers == ("a", "b")

    def test_zero_instances_is_an_error(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text("{bad}\n")
        with pytest.raises(DatasetFormatError):
            load_dataset(path, format="jsonl")

    def test_missing_file(self, tmp_path):
        with pytest.raises(DatasetFormatError):
            load_dataset(tmp_path / "nope.jsonl")

    def test_unknown_format(self, tmp_path):
        with pytest.raises(DatasetFormatError):
            load_dataset(tmp_path / "d", format="parquet")

    def test_wikitq_tsv(self, tmp_path):
        (tmp_path / "csv").mkdir()
        (tmp_path / "csv" / "0.csv").write_text("a,b\n1,2\n")
        tsv = "id\tutterance\tcontext\ttargetValue\nq1\twhat is a?\tcsv/0.csv\t1|one\n"
        (tmp_path / "data.tsv").write_text(tsv)
        instances, skipped = load_dataset(tmp_path / "data.tsv", format="wikitq-tsv")
        assert skipped == 0
        assert instances[0].gold_answers == ("1", "one")
        assert instances[0].table.rows == (("1", "2"),)

    def test_tabfact_json(self, tmp_path):
        (tmp_path / "tables").mkdir()
        (tmp_path / "tables" / "t1.csv").write_text("a#b\n1#2\n")
        data = {"t1.csv": [["claim one", "claim two"], [1, 0], "caption"]}
        (tmp_path / "collected.json").write_text(json.dumps(data))
        instances, skipped = load_dataset(tmp_path / "collected.json", format="tabfact-json")
        assert skipped == 0
        assert [i.task_kind for i in instances] == ["fact_verification"] * 2
        assert instances[0].gold_answers == ("True",)
        assert instances[1].gold_answers == ("False",)
        assert instances[0].table.headers == ("a", "b")

    def test_jsonl_skips_unknown_task_kind(self, tmp_path):
        record = json.loads(_jsonl_record(1))
        record["task_kind"] = "factverification"
        path = tmp_path / "d.jsonl"
        path.write_text(_jsonl_record(0) + "\n" + json.dumps(record) + "\n")
        instances, skipped = load_dataset(path, format="jsonl")
        assert [i.id for i in instances] == ["i0"]
        assert skipped == 1

    def test_instance_validation(self):
        with pytest.raises(ValueError):
            EvalInstance(id="x", table=Table.make(["a"], []), question="q", gold_answers=())
        with pytest.raises(ValueError):
            EvalInstance(
                id="x",
                table=Table.make(["a"], []),
                question="q",
                gold_answers=("maybe",),
                task_kind="fact_verification",
            )


def _instances(n=4):
    out = []
    for i in range(n):
        out.append(
            EvalInstance(
                id=f"i{i}",
                table=Table.make(["a"], [["1"]] * (i + 1)),
                question=f"q{i}",
                gold_answers=("7",),
            )
        )
    return out


def _runner(answers_by_id):
    def run(instance):
        value = answers_by_id[instance.id]
        answer = Answer(value=value, task_kind="qa", abstained=not value)
        trace = {
            "strategy": "textual",
            "condensation_ratio": 0.5,
            "cost": {"components": {}, "total": 71.0, "parameters": {"k": 5, "n": 4, "e": 2, "a": 3, "b": 2}},
        }
        return answer, trace

    return run


class TestEvaluate:
    def test_accuracy_buckets_and_cost(self):
        instances = _instances(4)
        report = evaluate(instances, _runner({"i0": "7", "i1": "7", "i2": "0", "i3": ""}))
        assert report.total == 4
        assert report.correct == 2
        assert report.accuracy == 0.5
        assert set(report.bucket_accuracy) == {"rows", "columns", "area", "tokens"}
        assert report.strategy_counts == {"textual": 4}
        assert report.mean_condensation_ratio == 0.5
        assert report.mean_reconstructions == 2.0
        assert report.predicted_cost_total == pytest.approx(4 * 71.0)
        assert report.tallied_cost_total == pytest.approx(4 * 71.0)

    def test_instance_failure_counts_as_incorrect(self, capsys):
        instances = _instances(4)

        def run(instance):
            if instance.id == "i0":
                raise RuntimeError("boom")
            return Answer(value="7", task_kind="qa"), {}

        report = evaluate(instances, run)
        assert report.correct == 3
        assert report.error_records == 1
        assert capsys.readouterr() == ("", "")

    def test_parallelism_matches_serial(self):
        instances = _instances(6)
        answers = {f"i{i}": "7" if i % 2 == 0 else "0" for i in range(6)}
        serial = evaluate(instances, _runner(answers), parallelism=1)
        parallel = evaluate(instances, _runner(answers), parallelism=3)
        assert serial.to_dict() == parallel.to_dict()

    def test_trace_dir_written(self, tmp_path):
        instances = _instances(4)
        evaluate(instances, _runner({f"i{i}": "7" for i in range(4)}), trace_dir=tmp_path / "traces")
        files = sorted(p.name for p in (tmp_path / "traces").glob("*.json"))
        assert files == ["i0.json", "i1.json", "i2.json", "i3.json"]

    def test_colliding_trace_names_kept_apart(self, tmp_path):
        instances = [
            EvalInstance(id=id_, table=Table.make(["a"], [["1"]]), question=f"q{i}", gold_answers=("7",))
            for i, id_ in enumerate(["a/b", "a_b", "a_b", "c"])
        ]

        def run(instance):
            return Answer(value="7", task_kind="qa"), {"question": instance.question}

        evaluate(instances, run, trace_dir=tmp_path)
        traces = {p.name: json.loads(p.read_text())["question"] for p in tmp_path.glob("*.json")}
        assert traces == {"a_b.json": "q0", "a_b~1.json": "q1", "a_b~2.json": "q2", "c.json": "q3"}

    def test_small_batch_skips_buckets(self):
        instances = _instances(3)
        report = evaluate(instances, _runner({f"i{i}": "7" for i in range(3)}))
        assert report.bucket_accuracy == {}
        assert report.accuracy == 1.0

    def test_small_batch_measures_no_table(self, monkeypatch):
        def fail(table):
            raise AssertionError("measured a table although no buckets are reported")

        monkeypatch.setattr(evaluation, "measure", fail)
        report = evaluate(_instances(3), _runner({f"i{i}": "7" for i in range(3)}))
        assert report.bucket_accuracy == {}
        assert report.total == 3
