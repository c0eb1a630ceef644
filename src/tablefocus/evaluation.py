"""Benchmark harness: dataset ingestion, denotation exact-match scoring,
quartile size-bucket analysis, the Appendix-style cost model, and batch reports."""

from __future__ import annotations

import csv
import json
import re
from bisect import bisect_left
from collections import Counter
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Sequence

from .core import Table, measure, parse_table, read_table_object
from .reasoning import TASK_KINDS, VERDICTS, Answer
from .trace import write_json

BUCKET_LABELS = ("small", "medium", "large", "xl")
# Each size bucket's name and the ``SizeMetrics`` field it reads.
SIZE_METRICS = {"rows": "row_count", "columns": "column_count", "area": "area", "tokens": "token_estimate"}
DEFAULT_RECONSTRUCTIONS = 1.5
NUMERIC_REL_TOL = 1e-6


class DatasetFormatError(ValueError):
    pass


class TooFewValues(ValueError):
    pass


@dataclass(frozen=True)
class EvalInstance:
    id: str
    table: Table
    question: str
    gold_answers: tuple[str, ...]
    task_kind: str = "qa"

    def __post_init__(self) -> None:
        if not self.gold_answers:
            raise ValueError("gold answers must be non-empty")
        if self.task_kind not in TASK_KINDS:
            raise ValueError(f"unknown task kind: {self.task_kind!r}")
        if self.task_kind == "fact_verification":
            for gold in self.gold_answers:
                if gold not in VERDICTS:
                    raise ValueError("fact verification golds must be 'True' or 'False'")


@dataclass
class EvalReport:
    total: int
    correct: int
    accuracy: float
    bucket_accuracy: dict[str, dict[str, dict[str, float]]]
    mean_condensation_ratio: float | None
    mean_reconstructions: float | None
    strategy_counts: dict[str, int]
    predicted_cost_total: float
    tallied_cost_total: float
    error_records: int  # instances whose run raised
    skipped_records: int = 0

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)


# A dataset format is a reader that lists a file's records and a builder that
# makes the instances of one record, given the dataset's directory. A builder
# returns a whole list or raises, so a record loads completely or not at all.
def _jsonl_records(path: Path) -> list[str]:
    return [line for line in path.read_text(encoding="utf-8").splitlines() if line.strip()]


def _jsonl_instances(line: str, base: Path) -> list[EvalInstance]:
    record = json.loads(line)
    return [
        EvalInstance(
            id=str(record["id"]),
            table=Table(*read_table_object(record["table"])),
            question=str(record["question"]),
            gold_answers=tuple(str(a) for a in record["answers"]),
            task_kind=record.get("task_kind", "qa"),
        )
    ]


def _tsv_records(path: Path) -> Iterator[dict[str, str]]:
    with path.open(encoding="utf-8") as fh:
        yield from csv.DictReader(fh, delimiter="\t")


def _wikitq_instances(record: dict[str, str], base: Path) -> list[EvalInstance]:
    """WikiTQ-style TSV row: id, utterance, context (relative CSV path), targetValue.
    A "|" in targetValue separates the values of one list answer, so the target
    is a single multi-part gold that matches only the whole list."""
    if None in record.values():
        raise ValueError("row has fewer fields than the header")
    table = parse_table((base / record["context"]).read_text(encoding="utf-8"), format="csv", strict=True)
    gold = "|".join(part.strip() for part in record["targetValue"].split("|") if part.strip())
    golds = (gold,) if gold else ()
    return [EvalInstance(id=record["id"], table=table, question=record["utterance"], gold_answers=golds)]


def _tabfact_records(path: Path) -> Iterable[tuple[str, Any]]:
    """TabFact collected JSON: {table_file: [[statements], [labels], caption]}."""
    data = json.loads(path.read_text(encoding="utf-8"))
    if not isinstance(data, dict):
        raise DatasetFormatError("tabfact-json must be an object keyed by table file name")
    return data.items()


def _tabfact_instances(record: tuple[str, Any], base: Path) -> list[EvalInstance]:
    """Each statement of one table is an instance; table files live in a sibling
    "tables" directory, '#'-delimited when their header line holds more '#'
    than ',' and CSV otherwise, so a '#' in a CSV cell does not decide it."""
    table_file, entry = record
    statements, labels = entry[0], entry[1]
    if len(statements) != len(labels):
        raise ValueError(f"{len(statements)} statements but {len(labels)} labels")
    text = (base / "tables" / table_file).read_text(encoding="utf-8")
    header = next((line for line in text.splitlines() if line.strip()), "")
    hash_delimited = header.count("#") > header.count(",")
    table = _parse_hash_table(text) if hash_delimited else parse_table(text, format="csv", strict=True)
    return [
        EvalInstance(
            id=f"{table_file}:{i}",
            table=table,
            question=str(statement),
            gold_answers=("True",) if label else ("False",),
            task_kind="fact_verification",
        )
        for i, (statement, label) in enumerate(zip(statements, labels))
    ]


def _parse_hash_table(text: str) -> Table:
    rows = [line.split("#") for line in text.splitlines() if line.strip()]
    return Table.make(rows[0], rows[1:])


_FORMATS = {
    "jsonl": (_jsonl_records, _jsonl_instances),
    "wikitq-tsv": (_tsv_records, _wikitq_instances),
    "tabfact-json": (_tabfact_records, _tabfact_instances),
}
DATASET_FORMATS = tuple(_FORMATS)


def load_dataset(path: str | Path, format: str = "jsonl") -> tuple[list[EvalInstance], int]:
    """Load instances; malformed records are skipped and counted, zero loads is an error."""
    if format not in _FORMATS:
        raise DatasetFormatError(f"unknown dataset format: {format!r}")
    path = Path(path)
    if not path.is_file():
        raise DatasetFormatError(f"dataset file not found: {path}")
    read_records, build_instances = _FORMATS[format]
    instances: list[EvalInstance] = []
    skipped = 0
    for record in read_records(path):
        try:
            instances.extend(build_instances(record, path.parent))
        except (KeyError, IndexError, ValueError, TypeError, OSError):
            skipped += 1
    if not instances:
        raise DatasetFormatError(f"no instances loaded from {path} ({skipped} malformed records)")
    return instances, skipped


_NUM_RE = re.compile(r"^[+-]?(\d{1,3}(,\d{3})*|\d+)(\.\d+)?$")


def normalize_answer(text: str) -> str:
    """Canonical form used on both sides of the exact-match comparison."""
    out = " ".join(str(text).split()).strip().lower()
    if len(out) >= 2 and out[0] == out[-1] and out[0] in "\"'":
        out = out[1:-1].strip()
    out = out.rstrip(".").strip()
    if _NUM_RE.match(out):
        out = out.replace(",", "")
        if "." in out:
            out = out.rstrip("0").rstrip(".")
    return out


def _as_number(text: str) -> float | None:
    try:
        return float(text)
    except ValueError:
        return None


def _parts_match(prediction: str, gold: str) -> bool:
    if prediction == gold:
        return True
    p, g = _as_number(prediction), _as_number(gold)
    if p is not None and g is not None:
        return abs(p - g) <= NUMERIC_REL_TOL * max(abs(p), abs(g), 1e-12)
    return False


def exact_match(prediction: Answer | str, golds: Sequence[str]) -> bool:
    """Denotation exact match under normalization.

    Multi-part answers split on "|" and compare as multisets; numeric parts
    additionally match within a relative tolerance.
    """
    value = prediction.value if isinstance(prediction, Answer) else prediction
    pred_parts = sorted(normalize_answer(p) for p in str(value).split("|"))
    for gold in golds:
        gold_parts = sorted(normalize_answer(g) for g in str(gold).split("|"))
        if len(pred_parts) != len(gold_parts):
            continue
        if all(_parts_match(p, g) for p, g in zip(pred_parts, gold_parts)):
            return True
    # A gold list with several single-part entries is an alternative set.
    if len(pred_parts) == 1:
        return any(_parts_match(pred_parts[0], normalize_answer(g)) for g in golds)
    return False


def bucketize(values: Sequence[float]) -> list[str]:
    """Assign each value to an empirical quartile bucket; ties go to the lower bucket."""
    if len(values) < 4:
        raise TooFewValues(f"need at least 4 values, got {len(values)}")
    ordered = sorted(values)
    n = len(ordered)
    boundaries = [ordered[(n * q) // 4 - 1] for q in (1, 2, 3)]
    return [BUCKET_LABELS[bisect_left(boundaries, v)] for v in values]


def predicted_cost(k: float, n: float, e: float = DEFAULT_RECONSTRUCTIONS, a: float = 0.0, b: float = 0.0) -> float:
    """Area-unit cost model: (2k + 1) * n + (e + 2.5) * (a * b)."""
    if min(k, n, e, a, b) < 0:
        raise ValueError("cost parameters must be non-negative")
    return (2.0 * k + 1.0) * n + (e + 2.5) * (a * b)


def evaluate(
    instances: Sequence[EvalInstance],
    run_instance: Callable[[EvalInstance], tuple[Answer, dict[str, Any]]],
    parallelism: int = 1,
    trace_dir: str | Path | None = None,
) -> EvalReport:
    """Run the pipeline over all instances and aggregate accuracy, buckets, and cost.

    ``run_instance`` maps an instance to (answer, trace dict). An instance
    whose ``run_instance`` raises scores as incorrect with a failure trace,
    and counts in ``error_records``, rather than aborting the run.
    """

    def outcome(instance: EvalInstance) -> tuple[Answer | None, dict[str, Any]]:
        try:
            answer, trace = run_instance(instance)
        except Exception as exc:
            return None, {"error": f"{type(exc).__name__}: {exc}"}
        return answer, trace

    if parallelism > 1:
        from concurrent.futures import ThreadPoolExecutor  # imported here: it costs the serial path 0.8 MB

        with ThreadPoolExecutor(max_workers=parallelism) as pool:
            outcomes = list(pool.map(outcome, instances))
    else:
        outcomes = list(map(outcome, instances))

    if trace_dir is not None:
        trace_path = Path(trace_dir)
        trace_path.mkdir(parents=True, exist_ok=True)
        names: set[str] = set()
        for i, (instance, (_, trace)) in enumerate(zip(instances, outcomes)):
            name = re.sub(r"[^A-Za-z0-9._-]", "_", instance.id)
            if name in names:  # "~" is never in a cleaned id, so the suffixed name is free
                name = f"{name}~{i}"
            names.add(name)
            write_json(trace_path / f"{name}.json", trace)

    flags: list[bool] = []
    ratios: list[float] = []
    recon: list[float] = []
    strategies: Counter[str] = Counter()
    predicted_total = tallied_total = 0.0
    errors = 0
    for instance, (answer, trace) in zip(instances, outcomes):
        flags.append(answer is not None and not answer.abstained and exact_match(answer, instance.gold_answers))
        errors += answer is None
        if trace.get("condensation_ratio") is not None:
            ratios.append(trace["condensation_ratio"])
        if trace.get("strategy"):
            strategies[trace["strategy"]] += 1
        cost = trace.get("cost")
        if isinstance(cost, dict):
            p = cost.get("parameters", {})
            if "e" in p:
                recon.append(p["e"])
            if p:
                predicted_total += predicted_cost(p["k"], p["n"], p["e"], p["a"], p["b"])
                tallied_total += cost.get("total", 0.0)
    total = len(instances)
    correct = sum(flags)

    bucket_accuracy: dict[str, dict[str, dict[str, float]]] = {}
    if total >= 4:
        sizes = [measure(instance.table) for instance in instances]
        for metric, attr in SIZE_METRICS.items():
            labels = bucketize([getattr(size, attr) for size in sizes])
            per_bucket: dict[str, dict[str, float]] = {}
            for label in BUCKET_LABELS:
                hits = [flag for flag, lab in zip(flags, labels) if lab == label]
                per_bucket[label] = {"count": len(hits), "accuracy": sum(hits) / len(hits) if hits else 0.0}
            bucket_accuracy[metric] = per_bucket

    return EvalReport(
        total=total,
        correct=correct,
        accuracy=correct / total if total else 0.0,
        bucket_accuracy=bucket_accuracy,
        mean_condensation_ratio=sum(ratios) / len(ratios) if ratios else None,
        mean_reconstructions=sum(recon) / len(recon) if recon else None,
        strategy_counts=dict(strategies),
        predicted_cost_total=predicted_total,
        tallied_cost_total=tallied_total,
        error_records=errors,
    )
