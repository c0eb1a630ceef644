"""Command-line surface: run one instance, evaluate a dataset, normalize a
table, or inspect/prune a cassette directory.

Exit code 0 means the command ran to completion (even with abstentions);
exit code 1 is reserved for configuration or input errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Callable, NamedTuple

from . import gateway as gw
from .core import TABLE_FORMATS, ParseError, parse_table, render_markdown
from .evaluation import DATASET_FORMATS, DatasetFormatError, evaluate, load_dataset
from .normalize import normalize
from .pipeline import BACKEND_MODES, REASONING_TABLES, PipelineConfig, build_backend, run_instance
from .reasoning import TASK_KINDS, ExecutorProfile

_BOOLS = {"1": True, "true": True, "yes": True, "on": True, "0": False, "false": False, "no": False, "off": False}


def _bool(value: str) -> bool:
    if value.lower() not in _BOOLS:
        raise ValueError(f"expected one of {', '.join(_BOOLS)}, got {value!r}")
    return _BOOLS[value.lower()]


class Option(NamedTuple):
    flag: str
    type: Callable[[str], Any] = str
    choices: tuple[str, ...] | None = None
    help: str | None = None


# Every pipeline option, keyed by its config-file key, which is also its
# argparse dest. A ``_bool`` option's flag is a ``--no-*`` switch storing False.
OPTIONS = {
    "peek_size": Option("--peek-size", int),
    "b_max": Option("--b-max", int),
    "backend_mode": Option("--mode", choices=BACKEND_MODES),
    "cassette_path": Option("--cassette"),
    "normalization": Option("--no-normalize", _bool),
    "full_table_fallback": Option("--no-full-table-fallback", _bool),
    "reasoning_table": Option("--reasoning-table", choices=REASONING_TABLES),
    "templates": Option("--templates", help="directory of prompt template files"),
    "base_url": Option("--base-url"),
    "model": Option("--model"),
    "api_key_env": Option("--api-key-env"),
    "executor_timeout_s": Option("--executor-timeout-s", float),
}


def load_config_file(path: str | None) -> dict:
    """Flat key=value configuration file typed by ``OPTIONS``; unknown keys are
    an error, and no path reads as an empty file."""
    values: dict = {}
    if not path:
        return values
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in OPTIONS:
            raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
        try:
            values[key] = OPTIONS[key].type(value.strip())
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {key}: {exc}") from None
    return values


def _read_table_text(source: str) -> str:
    if source == "-":
        return sys.stdin.read()
    return Path(source).read_text(encoding="utf-8")


def _setup(args, file_values: dict) -> tuple[PipelineConfig, gw.Gateway]:
    """Lay flag values over config-file values, then build the pipeline config
    and gateway. Options set by neither are left out, so the constructors they
    go to apply their own defaults."""
    values = dict(file_values)
    values.update((key, getattr(args, key)) for key in OPTIONS if getattr(args, key) is not None)
    executor = {"timeout_s": values.pop("executor_timeout_s")} if "executor_timeout_s" in values else {}
    templates_dir = values.pop("templates", None)
    provider = {key: values.pop(key) for key in ("base_url", "model", "api_key_env") if key in values}
    config = PipelineConfig(executor=ExecutorProfile(**executor), **values)
    templates = gw.load_templates(templates_dir)
    inner = None
    if config.backend_mode in ("record", "passthrough"):
        if not provider.get("base_url") or not provider.get("model"):
            raise ValueError(f"{config.backend_mode} mode requires --base-url and --model")
        inner = gw.HttpBackend(**provider)
    return config, gw.Gateway(build_backend(config, inner=inner), templates=templates)


def cmd_run(args) -> int:
    config, gateway = _setup(args, load_config_file(args.config))
    table = parse_table(_read_table_text(args.table), format=args.format)
    answer, trace = run_instance(table, args.question, gateway, config, task_kind=args.task)
    if args.trace_out:
        trace.write(args.trace_out)
    if answer.abstained:
        print("(abstained)")
    else:
        print(answer.value)
    return 0


def cmd_eval(args) -> int:
    config, gateway = _setup(args, load_config_file(args.config))
    instances, skipped = load_dataset(args.dataset, format=args.dataset_format)
    if skipped:
        print(f"skipped {skipped} malformed records", file=sys.stderr)
    if args.limit is not None:
        if args.limit < 1:
            raise ValueError("--limit must be >= 1")
        instances = instances[: args.limit]
    if args.parallelism < 1:
        raise ValueError("--parallelism must be >= 1")

    def run_one(instance):
        try:
            answer, trace = run_instance(
                instance.table, instance.question, gateway, config, task_kind=instance.task_kind
            )
        except Exception as exc:  # evaluate scores and counts it; name it here
            print(f"error: {instance.id}: {type(exc).__name__}: {exc}", file=sys.stderr)
            raise
        return answer, trace.to_dict()

    report = evaluate(instances, run_one, parallelism=args.parallelism, trace_dir=args.trace_dir)
    report.skipped_records = skipped
    report_dict = report.to_dict()
    print(f"total: {report.total}  correct: {report.correct}  accuracy: {report.accuracy:.4f}")
    if args.buckets and report.bucket_accuracy:
        for metric, buckets in report.bucket_accuracy.items():
            row = "  ".join(
                f"{label}={bucket['accuracy']:.3f} (n={int(bucket['count'])})" for label, bucket in buckets.items()
            )
            print(f"{metric:>8}: {row}")
    if args.cost:
        print(
            f"predicted cost: {report.predicted_cost_total:.1f}  "
            f"tallied cost: {report.tallied_cost_total:.1f}"
        )
    if args.report_out:
        Path(args.report_out).write_text(
            json.dumps(report_dict, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
    return 0


def cmd_normalize(args) -> int:
    table = parse_table(_read_table_text(args.table), format=args.format, strict=args.strict)
    normalized = normalize(table)
    print(render_markdown(normalized.table))
    summary = [f"transposed: {normalized.transposed}"]
    for header, kind, notes in zip(
        normalized.table.headers, normalized.column_kinds, normalized.provenance
    ):
        summary.append(f"column {header!r}: kind={kind.kind} parse_ratio={kind.parse_ratio:.2f}")
        summary.extend(f"  {note}" for note in notes)
    print("\n".join(summary), file=sys.stderr)
    return 0


def cmd_cassette(args) -> int:
    path = Path(args.path)
    if not path.is_dir():
        raise ValueError(f"cassette directory not found: {path}")
    cassette = gw.Cassette(path, "replay")
    entries = cassette.entries()
    if args.action == "inspect":
        for key, template_id in entries:
            print(f"{key}  {'?' if template_id is None else template_id}")
        print(f"{len(entries)} entries", file=sys.stderr)
        return 0
    removed = 0
    for key, template_id in entries:
        if args.template_id is None or template_id == args.template_id:
            cassette.remove(key)
            removed += 1
    print(f"removed {removed} entries", file=sys.stderr)
    return 0


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="flat key=value config file")
    for key, option in OPTIONS.items():
        if option.type is _bool:
            parser.add_argument(option.flag, dest=key, action="store_false", default=None, help=option.help)
        else:
            parser.add_argument(option.flag, dest=key, type=option.type, choices=option.choices, help=option.help)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="tablefocus", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="answer one question about one table")
    run.add_argument("--table", required=True, help="table file path, or - for stdin")
    run.add_argument("--format", default="markdown", choices=TABLE_FORMATS)
    run.add_argument("--question", required=True)
    run.add_argument("--task", default="qa", choices=TASK_KINDS)
    run.add_argument("--trace-out", dest="trace_out")
    _add_common(run)
    run.set_defaults(func=cmd_run)

    ev = sub.add_parser("eval", help="evaluate a dataset")
    ev.add_argument("--dataset", required=True)
    ev.add_argument("--dataset-format", dest="dataset_format", default="jsonl", choices=DATASET_FORMATS)
    ev.add_argument("--limit", type=int, help="evaluate only the first N instances")
    ev.add_argument("--parallelism", type=int, default=1)
    ev.add_argument("--buckets", action="store_true", help="print per-quartile accuracy")
    ev.add_argument("--cost", action="store_true", help="print predicted vs tallied cost")
    ev.add_argument("--report-out", dest="report_out")
    ev.add_argument("--trace-dir", dest="trace_dir")
    _add_common(ev)
    ev.set_defaults(func=cmd_eval)

    norm = sub.add_parser("normalize", help="normalize a table and print markdown")
    norm.add_argument("--table", required=True, help="table file path, or - for stdin")
    norm.add_argument("--format", default="csv", choices=TABLE_FORMATS)
    norm.add_argument("--strict", action="store_true")
    norm.set_defaults(func=cmd_normalize)

    cas = sub.add_parser("cassette", help="inspect or prune a cassette directory")
    cas.add_argument("action", choices=("inspect", "prune"))
    cas.add_argument("path")
    cas.add_argument("--template-id", dest="template_id")
    cas.set_defaults(func=cmd_cassette)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, DatasetFormatError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
