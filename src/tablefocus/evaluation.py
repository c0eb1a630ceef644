"""Benchmark harness: dataset ingestion, denotation exact-match scoring,
quartile size-bucket analysis, the Appendix-style cost model, and batch reports."""

from __future__ import annotations

import csv
import json
import re
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Callable, Sequence

from .core import Table, measure, parse_table
from .reasoning import TASK_KINDS, Answer

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
                if gold not in ("True", "False"):
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


def _instance_from_json(record: dict[str, Any]) -> EvalInstance:
    table = record["table"]
    parsed = Table.make([str(h) for h in table["header"]], [[str(c) for c in r] for r in table["rows"]])
    golds = [str(a) for a in record["answers"]]
    return EvalInstance(
        id=str(record["id"]),
        table=parsed,
        question=str(record["question"]),
        gold_answers=tuple(golds),
        task_kind=record.get("task_kind", "qa"),
    )


def _load_jsonl(path: Path) -> tuple[list[EvalInstance], int]:
    instances: list[EvalInstance] = []
    skipped = 0
    for line in path.read_text(encoding="utf-8").splitlines():
        if not line.strip():
            continue
        try:
            instances.append(_instance_from_json(json.loads(line)))
        except (KeyError, ValueError, TypeError):
            skipped += 1
    return instances, skipped


def _load_wikitq_tsv(path: Path) -> tuple[list[EvalInstance], int]:
    """WikiTQ-style TSV: id, utterance, context (relative CSV path), targetValue."""
    instances: list[EvalInstance] = []
    skipped = 0
    base = path.parent
    with path.open(encoding="utf-8") as fh:
        reader = csv.DictReader(fh, delimiter="\t")
        for record in reader:
            try:
                table_path = base / record["context"]
                table = parse_table(table_path.read_text(encoding="utf-8"), format="csv", strict=True)
                golds = tuple(g.strip() for g in record["targetValue"].split("|") if g.strip())
                instances.append(
                    EvalInstance(
                        id=record["id"],
                        table=table,
                        question=record["utterance"],
                        gold_answers=golds,
                    )
                )
            except (KeyError, ValueError, TypeError, OSError):
                skipped += 1
    return instances, skipped


def _load_tabfact_json(path: Path) -> tuple[list[EvalInstance], int]:
    """TabFact collected JSON: {table_file: [[statements], [labels], caption]};
    '#'-delimited table files live in a sibling "tables" directory."""
    data = json.loads(path.read_text(encoding="utf-8"))
    if not isinstance(data, dict):
        raise DatasetFormatError("tabfact-json must be an object keyed by table file name")
    instances: list[EvalInstance] = []
    skipped = 0
    tables_dir = path.parent / "tables"
    for table_file, entry in data.items():
        try:
            statements, labels = entry[0], entry[1]
            text = (tables_dir / table_file).read_text(encoding="utf-8")
            table = _parse_hash_table(text) if "#" in text else parse_table(text, format="csv", strict=True)
            for i, (statement, label) in enumerate(zip(statements, labels)):
                instances.append(
                    EvalInstance(
                        id=f"{table_file}:{i}",
                        table=table,
                        question=str(statement),
                        gold_answers=("True",) if label else ("False",),
                        task_kind="fact_verification",
                    )
                )
        except (KeyError, ValueError, TypeError, OSError, IndexError):
            skipped += 1
    return instances, skipped


def _parse_hash_table(text: str) -> Table:
    rows = [line.split("#") for line in text.splitlines() if line.strip()]
    if not rows:
        raise DatasetFormatError("empty table file")
    return Table.make(rows[0], rows[1:])


_LOADERS = {"jsonl": _load_jsonl, "wikitq-tsv": _load_wikitq_tsv, "tabfact-json": _load_tabfact_json}


def load_dataset(path: str | Path, format: str = "jsonl") -> tuple[list[EvalInstance], int]:
    """Load instances; malformed records are skipped and counted, zero loads is an error."""
    if format not in _LOADERS:
        raise DatasetFormatError(f"unknown dataset format: {format!r}")
    path = Path(path)
    if not path.is_file():
        raise DatasetFormatError(f"dataset file not found: {path}")
    instances, skipped = _LOADERS[format](path)
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
        if out in ("", "-", "+"):
            out = "0"
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
    labels = []
    for v in values:
        if v <= boundaries[0]:
            labels.append("small")
        elif v <= boundaries[1]:
            labels.append("medium")
        elif v <= boundaries[2]:
            labels.append("large")
        else:
            labels.append("xl")
    return labels


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
    results: list[tuple[EvalInstance, Answer | None, dict[str, Any]]] = [None] * len(instances)  # type: ignore

    def work(idx: int) -> None:
        instance = instances[idx]
        try:
            answer, trace = run_instance(instance)
        except Exception as exc:
            answer, trace = None, {"error": f"{type(exc).__name__}: {exc}"}
        results[idx] = (instance, answer, trace)

    if parallelism > 1:
        with ThreadPoolExecutor(max_workers=parallelism) as pool:
            list(pool.map(work, range(len(instances))))
    else:
        for i in range(len(instances)):
            work(i)

    if trace_dir is not None:
        trace_path = Path(trace_dir)
        trace_path.mkdir(parents=True, exist_ok=True)
        names: set[str] = set()
        for i, (instance, _, trace) in enumerate(results):
            name = re.sub(r"[^A-Za-z0-9._-]", "_", instance.id)
            if name in names:  # "~" is never in a cleaned id, so the suffixed name is free
                name = f"{name}~{i}"
            names.add(name)
            (trace_path / f"{name}.json").write_text(
                json.dumps(trace, indent=2, ensure_ascii=False, sort_keys=True) + "\n", encoding="utf-8"
            )

    flags = []
    for instance, answer, _ in results:
        flags.append(answer is not None and not answer.abstained and exact_match(answer, instance.gold_answers))
    correct = sum(flags)
    total = len(instances)

    bucket_accuracy: dict[str, dict[str, dict[str, float]]] = {}
    if total >= 4:
        sizes = [measure(instance.table) for instance in instances]
        for metric, attr in SIZE_METRICS.items():
            labels = bucketize([getattr(size, attr) for size in sizes])
            per_bucket: dict[str, dict[str, float]] = {}
            for label in BUCKET_LABELS:
                idx = [i for i, lab in enumerate(labels) if lab == label]
                per_bucket[label] = {
                    "count": len(idx),
                    "accuracy": (sum(flags[i] for i in idx) / len(idx)) if idx else 0.0,
                }
            bucket_accuracy[metric] = per_bucket

    ratios = [t["condensation_ratio"] for _, _, t in results if t.get("condensation_ratio") is not None]
    recon = [
        t["cost"]["parameters"]["e"]
        for _, _, t in results
        if isinstance(t.get("cost"), dict) and "e" in t["cost"].get("parameters", {})
    ]
    strategies = Counter(t.get("strategy") for _, _, t in results if t.get("strategy"))
    predicted_total = 0.0
    tallied_total = 0.0
    for _, _, t in results:
        cost = t.get("cost")
        if isinstance(cost, dict) and cost.get("parameters"):
            p = cost["parameters"]
            predicted_total += predicted_cost(p["k"], p["n"], p["e"], p["a"], p["b"])
            tallied_total += cost.get("total", 0.0)

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
        error_records=sum(1 for _, answer, _ in results if answer is None),
    )
