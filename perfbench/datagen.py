"""Seeded generator for the benchmark workloads.

Every workload is a list of cases: a store table, one question about it, the
answer the generator computes from the raw cells, and the scripted model
replies that steer the pipeline down one path (plain textual, symbolic, or one
of the fallbacks). The same workload name and seed always give the same cases.

Cases come in blocks of identical composition (the same paths and the same
row-count strata), and the benchmark stops only at block boundaries, so every
run measures the same mix whatever its length or seed; the seed changes only
the cell values, the questions and the order.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

HEADERS = ("Store", "Units", "Revenue", "Opened")
MONTHS = ("Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug", "Sep", "Oct", "Nov", "Dec")
WORDS = (
    "Harbor", "Maple", "Cedar", "Summit", "Prairie", "Granite", "Willow", "Beacon",
    "Falcon", "Juniper", "Orchard", "Quarry", "Lantern", "Meadow", "Ridge", "Copper",
)

TEXTUAL_KINDS = ("revenue", "opened", "count")
SYMBOLIC_KINDS = ("units_total", "revenue_total", "opened_before")
# Paths that start on the symbolic strategy; all others are textual.
SYMBOLIC_PATHS = ("symbolic", "exec_failure")


@dataclass(frozen=True)
class Workload:
    live: bool  # record mode against the stand-in model instead of cassette replay
    blocks: int
    paths: tuple[str, ...]  # the path of each case in a block
    rows: tuple[tuple[int, int], ...]  # inclusive row-count range of each case in a block
    chains: int | None  # fixed chain count, or None for about five stores per chain
    tail_percentile: float
    lm_latency_s: float = 0.0


def _strata(lo: int, hi: int, count: int) -> tuple[tuple[int, int], ...]:
    """Split [lo, hi] into ``count`` consecutive ranges of near-equal width."""
    width = (hi - lo + 1) / count
    return tuple((lo + round(i * width), lo + round((i + 1) * width) - 1) for i in range(count))


_SMALL_PATHS = ("symbolic",) * 4 + (
    "exec_failure",
    "textual",
    "invalid_sql",
    "aggregate_sql",
    "reconstruction",
    "abstain_retry",
)
_LIVE_PATHS = ("textual",) * 3 + ("symbolic",) * 2

WORKLOADS = {
    "replay-wide": Workload(
        live=False,
        blocks=1,
        paths=("textual",) * 4,
        rows=((500, 500), (1000, 1000), (2000, 2000), (5000, 5000)),
        chains=16,  # a chain holds 1/16 of the rows, so row SQL keeps under 10%
        # Too few instances for ten samples beyond any percentile: report the slowest.
        tail_percentile=100.0,
    ),
    "replay-small": Workload(
        live=False,
        blocks=10,
        paths=_SMALL_PATHS,
        rows=_strata(5, 40, len(_SMALL_PATHS)),
        chains=None,
        tail_percentile=90.0,
    ),
    "live-sim": Workload(
        live=True,
        blocks=6,
        paths=_LIVE_PATHS,
        rows=_strata(5, 40, len(_LIVE_PATHS)),
        chains=None,
        tail_percentile=75.0,
        lm_latency_s=0.05,
    ),
}


@dataclass(frozen=True)
class Case:
    id: str
    path: str
    headers: tuple[str, ...]
    rows: tuple[tuple[str, ...], ...]
    question: str
    answer: str
    # Replies per template id, consumed in order; answer_formatting is derived
    # from the request instead (see standin.format_reply).
    replies: dict[str, list[str]]

    def dataset_record(self) -> dict:
        return {
            "id": self.id,
            "table": {"header": list(self.headers), "rows": [list(r) for r in self.rows]},
            "question": self.question,
            "answers": [self.answer],
            "task_kind": "qa",
        }


@dataclass(frozen=True)
class _Store:
    chain: str
    number: int
    units: int
    cents: int
    opened: tuple[int, int, int]  # year, month, day

    @property
    def name(self) -> str:
        return f"{self.chain} {self.number}"

    @property
    def revenue(self) -> str:
        return f"{self.cents // 100}.{self.cents % 100:02d}"

    @property
    def opened_iso(self) -> str:
        year, month, day = self.opened
        return f"{year:04d}-{month:02d}-{day:02d}"

    def cells(self, rng: random.Random) -> tuple[str, ...]:
        units = f"{self.units:,}" if rng.random() < 0.5 else str(self.units)
        year, month, day = self.opened
        return (
            self.name,
            units,
            f"${self.cents // 100:,}.{self.cents % 100:02d}",
            f"{MONTHS[month - 1]} {day}, {year}",
        )


def _stores(rng: random.Random, count: int, chains: int) -> list[_Store]:
    """``count`` stores spread evenly over ``chains`` chains; names are unique."""
    numbers = rng.sample(range(100, 100 + 20 * count), count)
    names = rng.sample(WORDS, chains)
    members = [names[i % chains] for i in range(count)]
    rng.shuffle(members)
    return [
        _Store(
            chain=chain,
            number=number,
            units=rng.randint(1, 99_999),
            cents=rng.randint(100, 9_999_999),
            opened=(rng.randint(1950, 2020), rng.randint(1, 12), rng.randint(1, 28)),
        )
        for number, chain in zip(numbers, members)
    ]


_PROGRAM_HEAD = """\
import csv
import os
{extra}
with open(os.environ["TM_TABLE_PATH"], newline="") as fh:
    rows = list(csv.DictReader(fh))
"""


def _question(kind: str, rng: random.Random, stores: list[_Store]) -> tuple[str, str, str, str, str]:
    """(question, answer, where clause, needed column, program) for one question kind."""
    target = rng.choice(stores)
    chain = [s for s in stores if s.chain == target.chain]
    by_store = f"store = '{target.name}'"
    by_chain = f"store LIKE '{target.chain} %'"
    if kind == "revenue":
        return f"What is the revenue of store {target.name}?", target.revenue, by_store, "Revenue", ""
    if kind == "opened":
        return f"When did store {target.name} open?", target.opened_iso, by_store, "Opened", ""
    if kind == "count":
        units = sorted(s.units for s in chain)
        floor = units[len(units) // 2] // 100 * 100
        count = sum(1 for s in chain if s.units > floor)
        question = f"How many {target.chain} stores have more than {floor} units?"
        return question, str(count), f"{by_chain} AND units > {floor}", "Units", ""
    if kind == "units_total":
        program = _PROGRAM_HEAD.format(extra="") + 'print(sum(int(r["Units"]) for r in rows))\n'
        question = f"What is the total number of units across {target.chain} stores?"
        return question, str(sum(s.units for s in chain)), by_chain, "Units", program
    if kind == "revenue_total":
        program = _PROGRAM_HEAD.format(extra="from decimal import Decimal\n") + (
            'print(sum((Decimal(r["Revenue"]) for r in rows), Decimal("0.00")))\n'
        )
        cents = sum(s.cents for s in chain)
        question = f"What is the combined revenue of {target.chain} stores?"
        return question, f"{cents // 100}.{cents % 100:02d}", by_chain, "Revenue", program
    if kind == "opened_before":
        year = rng.choice(chain).opened[0]
        program = _PROGRAM_HEAD.format(extra="") + f'print(sum(1 for r in rows if r["Opened"] < "{year}-01-01"))\n'
        count = sum(1 for s in chain if s.opened[0] < year)
        question = f"How many {target.chain} stores opened before {year}?"
        return question, str(count), by_chain, "Opened", program
    raise ValueError(f"unknown question kind: {kind!r}")


def _case(case_id: str, path: str, rows: int, chains: int | None, rng: random.Random) -> Case:
    stores = _stores(rng, rows, chains or max(1, rows // 5))
    table_rows = tuple(s.cells(rng) for s in stores)
    if path in SYMBOLIC_PATHS:
        kind = rng.choice(SYMBOLIC_KINDS)
    elif path in ("reconstruction", "abstain_retry"):
        kind = rng.choice(("revenue", "opened"))  # single-store lookups
    else:
        kind = rng.choice(TEXTUAL_KINDS)
    question, answer, where, needed, program = _question(kind, rng, stores)
    others = [h for h in HEADERS if h not in ("Store", needed)]
    rng.shuffle(others)

    replies: dict[str, list[str]] = {
        "structure_extraction": ["key column: Store"],
        "column_ranking": [", ".join([needed, "Store", *others])],
        "column_lookup": [f"Store, {needed}"],
        "row_lookup_sql": [f"```sql\nSELECT * FROM t WHERE {where}\n```"],
        "information_estimation": ["Yes, the table is sufficient."],
        "verbalization": [
            f"The table lists {len(stores)} stores with their units sold, revenue and opening date."
        ],
        "strategy_assessment": ["textual"],
        "textual_reasoning": [f"Reading the relevant rows gives {answer}. Answer: {answer}"],
    }
    if path in SYMBOLIC_PATHS:
        replies["strategy_assessment"] = ["symbolic"]
        replies["textual_guidance"] = [f"1) Keep the rows needed for the question. 2) Use the {needed} column."]
        if path == "exec_failure":
            program = "import sys\nsys.exit(3)\n"
        replies["symbolic_reasoning"] = [f"```python\n{program}```"]
    elif path == "invalid_sql":
        replies["row_lookup_sql"] = [f"SELEC * FORM t WHERE {where}"]
    elif path == "aggregate_sql":
        replies["row_lookup_sql"] = ["```sql\nSELECT COUNT(*) FROM t\n```"]
    elif path == "reconstruction":
        replies["column_lookup"] = ["Store"]
        replies["information_estimation"] = [f"No, the {needed} column is missing.", "Yes, sufficient now."]
    elif path == "abstain_retry":
        other = next(s for s in stores if s.name not in question)
        replies["row_lookup_sql"] = [f"```sql\nSELECT * FROM t WHERE store = '{other.name}'\n```"]
        replies["textual_reasoning"] = [
            "The store in the question does not appear in this table, so I cannot answer.",
            replies["textual_reasoning"][0],
        ]
    elif path != "textual":
        raise ValueError(f"unknown path: {path!r}")
    return Case(case_id, path, HEADERS, table_rows, question, answer, replies)


def generate(workload: str, seed: int) -> list[Case]:
    """All cases of one workload, block by block; each block is shuffled."""
    spec = WORKLOADS[workload]
    rng = random.Random(f"{workload}:{seed}")
    cases: list[Case] = []
    for block in range(spec.blocks):
        slots = list(zip(spec.paths, spec.rows))
        rng.shuffle(slots)
        for slot, (path, (lo, hi)) in enumerate(slots):
            case_id = f"{workload}-{seed}-{block:02d}-{slot:02d}"
            cases.append(_case(case_id, path, rng.randint(lo, hi), spec.chains, rng))
    return cases


def write_inputs(cases: list[Case], directory: Path) -> tuple[Path, Path]:
    """Write the dataset (the program's only input) and the stand-in model's scripts."""
    dataset = directory / "dataset.jsonl"
    dataset.write_text("".join(json.dumps(c.dataset_record()) + "\n" for c in cases), encoding="utf-8")
    scripts = directory / "scripts.json"
    scripts.write_text(json.dumps({c.id: c.replies for c in cases}), encoding="utf-8")
    return dataset, scripts
