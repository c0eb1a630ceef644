"""Command-line surface: run, eval, normalize, cassette."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from tablefocus import cli
from tablefocus import gateway as gw
from tablefocus.cli import _setup, build_parser, load_config_file, main
from tablefocus.core import render_markdown
from tablefocus.pipeline import PipelineConfig
from tablefocus.reasoning import ExecutorProfile
from tablefocus.structure import DEFAULT_B_MAX, DEFAULT_PEEK_SIZE

from conftest import GOLDEN_CASES, edited_templates, record_run


@pytest.fixture(scope="module")
def riders_setup(tmp_path_factory):
    """Recorded cassette plus table file for the riders-symbolic golden case."""
    base = tmp_path_factory.mktemp("cli")
    case = GOLDEN_CASES[0]
    cassette = base / "cassette"
    answer, _ = record_run(case, cassette)
    assert answer.value == case.expected
    table_path = base / "riders.md"
    table_path.write_text(render_markdown(case.table) + "\n", encoding="utf-8")
    return case, cassette, table_path


class TestConfigFile:
    def test_parses_types(self, tmp_path):
        path = tmp_path / "cfg"
        path.write_text("# comment\npeek_size = 10\nnormalization = false\nmodel = m\nfull_table_fallback = ON\n")
        values = load_config_file(str(path))
        assert values == {"peek_size": 10, "normalization": False, "model": "m", "full_table_fallback": True}

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "cfg"
        path.write_text("mystery = 1\n")
        with pytest.raises(ValueError):
            load_config_file(str(path))

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "cfg"
        path.write_text("no separator here\n")
        with pytest.raises(ValueError):
            load_config_file(str(path))

    def test_unknown_boolean_word_rejected(self, tmp_path):
        path = tmp_path / "cfg"
        path.write_text("# typo below\nfull_table_fallback = ture\n")
        with pytest.raises(ValueError, match=r"cfg:2: full_table_fallback: .*'ture'"):
            load_config_file(str(path))


class TestRunCommand:
    def test_replay_prints_answer(self, riders_setup, capsys):
        case, cassette, table_path = riders_setup
        code = main([
            "run",
            "--table", str(table_path),
            "--question", case.question,
            "--mode", "replay",
            "--cassette", str(cassette),
        ])
        assert code == 0
        assert capsys.readouterr().out.strip() == case.expected

    def test_empty_cassette_abstains_with_exit_zero(self, riders_setup, tmp_path, capsys):
        case, _, table_path = riders_setup
        code = main([
            "run",
            "--table", str(table_path),
            "--question", case.question,
            "--mode", "replay",
            "--cassette", str(tmp_path / "empty"),
        ])
        assert code == 0
        assert capsys.readouterr().out.strip() == "(abstained)"

    def test_trace_out_written(self, riders_setup, tmp_path, capsys):
        case, cassette, table_path = riders_setup
        trace_path = tmp_path / "trace.json"
        code = main([
            "run",
            "--table", str(table_path),
            "--question", case.question,
            "--mode", "replay",
            "--cassette", str(cassette),
            "--trace-out", str(trace_path),
        ])
        assert code == 0
        trace = json.loads(trace_path.read_text())
        assert trace["answer"]["value"] == case.expected
        assert trace["strategy"] == "symbolic"

    def test_missing_table_file_is_error_exit(self, tmp_path, capsys):
        code = main([
            "run",
            "--table", str(tmp_path / "nope.md"),
            "--question", "q",
            "--mode", "replay",
            "--cassette", str(tmp_path),
        ])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_record_mode_requires_provider(self, riders_setup, capsys):
        case, cassette, table_path = riders_setup
        code = main([
            "run",
            "--table", str(table_path),
            "--question", case.question,
            "--mode", "record",
            "--cassette", str(cassette),
        ])
        assert code == 1
        assert "base-url" in capsys.readouterr().err

    def test_mistyped_template_directory_is_error_exit(self, riders_setup, tmp_path, capsys):
        case, cassette, table_path = riders_setup
        code = main([
            "run",
            "--table", str(table_path),
            "--question", case.question,
            "--mode", "replay",
            "--cassette", str(cassette),
            "--templates", str(edited_templates(tmp_path, "verbalization", "{{table}}", "{{tabel}}")),
        ])
        assert code == 1
        assert "verbalization.txt" in capsys.readouterr().err

    def test_nonpositive_executor_timeout_is_error_exit(self, riders_setup, capsys):
        case, cassette, table_path = riders_setup
        code = main([
            "run",
            "--table", str(table_path),
            "--question", case.question,
            "--mode", "replay",
            "--cassette", str(cassette),
            "--executor-timeout-s", "0",
        ])
        assert code == 1
        assert "executor timeout" in capsys.readouterr().err

    def test_config_file_supplies_defaults(self, riders_setup, tmp_path, capsys):
        case, cassette, table_path = riders_setup
        cfg = tmp_path / "cfg"
        cfg.write_text(f"backend_mode = replay\ncassette_path = {cassette}\n")
        code = main([
            "run",
            "--table", str(table_path),
            "--question", case.question,
            "--config", str(cfg),
        ])
        assert code == 0
        assert capsys.readouterr().out.strip() == case.expected


class TestBuildPipelineConfig:
    def _config(self, argv, file_values=None):
        args = build_parser().parse_args(["run", "--table", "t", "--question", "q"] + argv)
        return _setup(args, file_values or {})[0]

    def test_unset_options_take_the_dataclass_defaults(self):
        assert self._config(["--cassette", "c"]) == PipelineConfig(cassette_path="c")

    def test_flag_beats_file_beats_default(self):
        file_values = {"cassette_path": "c", "peek_size": 10, "b_max": 3, "normalization": True,
                       "executor_timeout_s": 2.0}
        config = self._config(["--peek-size", "5", "--no-normalize"], file_values)
        assert (config.peek_size, config.b_max, config.normalization) == (5, 3, False)
        assert config.executor == ExecutorProfile(timeout_s=2.0)
        assert config.full_table_fallback is True


def _http(gateway):
    backend = gateway.backend
    return backend.inner if isinstance(backend, gw.Cassette) else backend


# Each option's config-file value, a different flag value (None for a --no-*
# switch), its default, and where the built config and gateway hold it. A
# default of ValueError marks an option that passthrough mode requires.
OPTION_CASES = {
    "peek_size": ("7", "9", DEFAULT_PEEK_SIZE, lambda c, g: c.peek_size),
    "b_max": ("2", "4", DEFAULT_B_MAX, lambda c, g: c.b_max),
    "backend_mode": ("record", "passthrough", "replay", lambda c, g: c.backend_mode),
    "cassette_path": ("{tmp}/a", "{tmp}/b", None, lambda c, g: c.cassette_path),
    "normalization": ("off", None, True, lambda c, g: c.normalization),
    "full_table_fallback": ("off", None, True, lambda c, g: c.full_table_fallback),
    "reasoning_table": ("full", "focus", "focus", lambda c, g: c.reasoning_table),
    "templates": ("{tmp}/ta", "{tmp}/tb", gw.load_templates()["verbalization"].body,
                  lambda c, g: g.templates["verbalization"].body),
    "base_url": ("http://a", "http://b", ValueError, lambda c, g: _http(g).base_url),
    "model": ("ma", "mb", ValueError, lambda c, g: _http(g).model),
    "api_key_env": ("A_KEY", "B_KEY", "TF_API_KEY", lambda c, g: _http(g).api_key_env),
    "executor_timeout_s": ("3", "4", ExecutorProfile().timeout_s, lambda c, g: c.executor.timeout_s),
}
# Config-file lines every case starts from, less the option under test.
BASE_OPTIONS = {"backend_mode": "passthrough", "cassette_path": "{tmp}/c", "base_url": "http://x", "model": "m"}


class TestOptionTable:
    def test_cases_cover_every_option(self):
        assert set(OPTION_CASES) == set(cli.OPTIONS)

    def _read(self, tmp_path, key, file_value=None, argv=()):
        lines = {k: v for k, v in BASE_OPTIONS.items() if k != key}
        if file_value is not None:
            lines[key] = file_value
        cfg = tmp_path / "cfg"
        cfg.write_text("".join(f"{k} = {v.format(tmp=tmp_path)}\n" for k, v in lines.items()))
        args = build_parser().parse_args(["run", "--table", "t", "--question", "q", "--config", str(cfg), *argv])
        return OPTION_CASES[key][3](*_setup(args, load_config_file(args.config)))

    def _expected(self, tmp_path, key, text):
        text = text.format(tmp=tmp_path)
        if key == "templates":
            return (Path(text) / "verbalization.txt").read_text(encoding="utf-8")
        return cli.OPTIONS[key].type(text)

    @pytest.mark.parametrize("key", list(cli.OPTIONS))
    def test_flag_beats_file_beats_default(self, tmp_path, key):
        file_value, flag_value, default, _ = OPTION_CASES[key]
        flag = cli.OPTIONS[key].flag
        for name in ("ta", "tb"):
            (tmp_path / name).mkdir()
            edited_templates(tmp_path / name, "verbalization", "Table:", f"Table {name}:")
        if default is ValueError:
            with pytest.raises(ValueError, match="requires --base-url and --model"):
                self._read(tmp_path, key)
        else:
            assert self._read(tmp_path, key) == default
        assert self._read(tmp_path, key, file_value) == self._expected(tmp_path, key, file_value)
        if flag_value is None:
            assert flag.startswith("--no-")
            assert self._read(tmp_path, key, "on", [flag]) is False
        else:
            got = self._read(tmp_path, key, file_value, [flag, flag_value.format(tmp=tmp_path)])
            assert got == self._expected(tmp_path, key, flag_value)


def _write_dataset(case, path, count):
    """A jsonl dataset of ``count`` copies of one golden case."""
    records = []
    for i in range(count):
        records.append(json.dumps({
            "id": f"r{i}",
            "question": case.question,
            "answers": [case.expected],
            "table": {"header": list(case.table.headers),
                      "rows": [list(r) for r in case.table.rows]},
        }))
    path.write_text("\n".join(records) + "\n")
    return path


class TestEvalCommand:
    def test_eval_replay(self, riders_setup, tmp_path, capsys):
        case, cassette, _ = riders_setup
        dataset = _write_dataset(case, tmp_path / "d.jsonl", 4)
        report_path = tmp_path / "report.json"
        code = main([
            "eval",
            "--dataset", str(dataset),
            "--mode", "replay",
            "--cassette", str(cassette),
            "--buckets",
            "--cost",
            "--report-out", str(report_path),
            "--trace-dir", str(tmp_path / "traces"),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "accuracy: 1.0000" in out
        report = json.loads(report_path.read_text())
        assert report["correct"] == 4
        assert report["strategy_counts"] == {"symbolic": 4}
        assert len(list((tmp_path / "traces").glob("*.json"))) == 4

    def test_report_counts_skipped_records(self, riders_setup, tmp_path, capsys):
        case, cassette, _ = riders_setup
        dataset = _write_dataset(case, tmp_path / "d.jsonl", 2)
        dataset.write_text(dataset.read_text() + '{"id": "broken", "question": \n')
        report_path = tmp_path / "report.json"
        code = main([
            "eval",
            "--dataset", str(dataset),
            "--mode", "replay",
            "--cassette", str(cassette),
            "--report-out", str(report_path),
        ])
        assert code == 0
        assert "skipped 1 malformed records" in capsys.readouterr().err
        assert json.loads(report_path.read_text())["skipped_records"] == 1

    def test_crashed_instances_are_counted_and_named(self, riders_setup, tmp_path, capsys, monkeypatch):
        case, cassette, _ = riders_setup
        dataset = _write_dataset(case, tmp_path / "d.jsonl", 4)
        templates = gw.load_templates()
        verbalization = templates["verbalization"]
        templates["verbalization"] = gw.PromptTemplate(verbalization.id, verbalization.body + "{{extra}}")
        monkeypatch.setattr(cli, "_setup", lambda *_: (
            PipelineConfig(cassette_path=str(cassette)),
            gw.Gateway(gw.Cassette(cassette, "replay"), templates=templates),
        ))
        report_path = tmp_path / "report.json"
        code = main([
            "eval",
            "--dataset", str(dataset),
            "--mode", "replay",
            "--cassette", str(cassette),
            "--report-out", str(report_path),
        ])
        assert code == 0
        assert json.loads(report_path.read_text())["error_records"] == 4
        err = capsys.readouterr().err.splitlines()
        assert [line.split(": ")[:3] for line in err] == [["error", f"r{i}", "MissingBinding"] for i in range(4)]
        assert all("extra" in line for line in err)

    def test_eval_limit(self, riders_setup, tmp_path, capsys):
        case, cassette, _ = riders_setup
        dataset = _write_dataset(case, tmp_path / "d.jsonl", 3)
        code = main([
            "eval",
            "--dataset", str(dataset),
            "--mode", "replay",
            "--cassette", str(cassette),
            "--limit", "1",
        ])
        assert code == 0
        assert "total: 1 " in capsys.readouterr().out

    def test_eval_limit_must_be_positive(self, riders_setup, tmp_path, capsys):
        case, cassette, _ = riders_setup
        dataset = _write_dataset(case, tmp_path / "d.jsonl", 2)
        code = main([
            "eval",
            "--dataset", str(dataset),
            "--mode", "replay",
            "--cassette", str(cassette),
            "--limit", "0",
        ])
        assert code == 1
        assert "--limit" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["0", "-2"])
    def test_eval_parallelism_must_be_positive(self, riders_setup, tmp_path, capsys, value):
        case, cassette, _ = riders_setup
        dataset = _write_dataset(case, tmp_path / "d.jsonl", 2)
        code = main([
            "eval",
            "--dataset", str(dataset),
            "--mode", "replay",
            "--cassette", str(cassette),
            "--parallelism", value,
        ])
        assert code == 1
        assert "--parallelism must be >= 1" in capsys.readouterr().err

    def test_eval_missing_dataset(self, riders_setup, tmp_path, capsys):
        _, cassette, _ = riders_setup
        code = main([
            "eval",
            "--dataset", str(tmp_path / "missing.jsonl"),
            "--mode", "replay",
            "--cassette", str(cassette),
        ])
        assert code == 1


class TestNormalizeCommand:
    def test_normalize_prints_markdown(self, tmp_path, capsys):
        table = tmp_path / "t.csv"
        table.write_text("Name,Total\nA,\"1,234\"\nB,$56\n")
        code = main(["normalize", "--table", str(table), "--format", "csv"])
        assert code == 0
        captured = capsys.readouterr()
        assert "| 1234 |" in captured.out
        assert "kind=integer" in captured.err

    @pytest.mark.parametrize("text", ['{"header": ["a", "b"], "rows": 5}', '{"header": "ab", "rows": [["1", "2"]]}'])
    def test_table_object_of_the_wrong_shape_is_error_exit(self, tmp_path, capsys, text):
        table = tmp_path / "t.jsonl"
        table.write_text(text + "\n")
        code = main(["normalize", "--table", str(table), "--format", "jsonl-table"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")


class TestCassetteCommand:
    def test_inspect_and_prune(self, riders_setup, capsys):
        case, cassette, _ = riders_setup
        code = main(["cassette", "inspect", str(cassette)])
        assert code == 0
        out = capsys.readouterr().out
        assert "row_lookup_sql" in out

        code = main(["cassette", "prune", str(cassette), "--template-id", "no_such_template"])
        assert code == 0
        assert "removed 0 entries" in capsys.readouterr().err

    def test_unreadable_entry_is_listed_and_pruned(self, riders_setup, capsys):
        _, cassette, _ = riders_setup
        count = len(list(cassette.glob("*.json")))
        (cassette / "truncated.json").write_text('{"request": {"template_id": "col', encoding="utf-8")

        assert main(["cassette", "inspect", str(cassette)]) == 0
        captured = capsys.readouterr()
        assert "truncated  ?" in captured.out.splitlines()
        assert f"{count + 1} entries" in captured.err

        assert main(["cassette", "prune", str(cassette), "--template-id", "row_lookup_sql"]) == 0
        assert "removed 1 entries" in capsys.readouterr().err
        assert (cassette / "truncated.json").exists()
        assert main(["cassette", "prune", str(cassette)]) == 0
        assert f"removed {count} entries" in capsys.readouterr().err
        assert not list(cassette.iterdir())

    def test_missing_directory(self, tmp_path, capsys):
        code = main(["cassette", "inspect", str(tmp_path / "nope")])
        assert code == 1
