"""Shared fixtures: canned tables, scripted gateways, and curated golden flows."""

from __future__ import annotations

from dataclasses import dataclass, field

import pytest

from tablefocus import gateway as gw_module
from tablefocus.core import Table
from tablefocus.gateway import Gateway, ScriptedBackend

RIDERS_TABLE = Table.make(
    ["Rider", "Country", "Wins"],
    [
        ["Jacky Martin", "Belgium", "3"],
        ["Paolo Conti", "Italy", "5"],
        ["Bram Peeters", "Belgium", "2"],
        ["Hans Weber", "Germany", "1"],
        ["Luc Van Damme", "Belgium", "2"],
        ["Pierre Dubois", "France", "4"],
    ],
)

TENURE_TABLE = Table.make(
    ["Representative", "Years in office", "Party"],
    [
        ["A. Whitfield", "5", "Federalist"],
        ["J. Parker", "2", "Democratic-Republican"],
        ["E. Morris", "4", "Federalist"],
        ["T. Blake", "1", "Democratic-Republican"],
        ["S. Hull", "3", "Federalist"],
        ["R. Adams", "6", "Whig"],
    ],
)

SUM_BELGIAN_WINS_PROGRAM = """\
import csv
import os

with open(os.environ["TM_TABLE_PATH"]) as fh:
    rows = list(csv.DictReader(fh))
print(sum(int(r["Wins"]) for r in rows if r["Country"] == "Belgium"))
"""


def process_ended(pid: int) -> bool:
    """Gone, or a zombie waiting to be reaped."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            stat = fh.read()
    except FileNotFoundError:
        return True
    return stat.rsplit(")", 1)[1].split()[0] == "Z"


def make_gateway(replies: dict[str, list[str]]) -> Gateway:
    return Gateway(ScriptedBackend(replies))


@dataclass(frozen=True)
class GoldenCase:
    id: str
    table: Table
    question: str
    expected: str
    replies: dict[str, list[str]]
    task_kind: str = "qa"
    expect_abstained: bool = False


def _std_replies(**overrides: list[str]) -> dict[str, list[str]]:
    base: dict[str, list[str]] = {
        "structure_extraction": ["key column: Rider"],
        "column_ranking": ["Country, Wins, Rider"],
        "column_lookup": ["Country, Wins"],
        "row_lookup_sql": ["```sql\nSELECT * FROM t WHERE country = 'Belgium'\n```"],
        "information_estimation": ["Yes, sufficient."],
        "verbalization": [
            "The table lists cycling race winners. The Belgian riders are Jacky Martin "
            "with 3 wins, Bram Peeters with 2 wins, and Luc Van Damme with 2 wins."
        ],
        "strategy_assessment": ["textual"],
        "textual_reasoning": ["Adding the wins: 3 + 2 + 2 = 7. Answer: 7"],
        "answer_formatting": ["7"],
    }
    base.update(overrides)
    return base


GOLDEN_CASES: list[GoldenCase] = [
    GoldenCase(
        id="riders-symbolic",
        table=RIDERS_TABLE,
        question="Total wins by Belgian riders?",
        expected="7",
        replies=_std_replies(
            strategy_assessment=["Use symbolic reasoning with a program."],
            textual_guidance=["1) Keep only rows where Country is Belgium. 2) Sum the Wins column."],
            symbolic_reasoning=[f"```python\n{SUM_BELGIAN_WINS_PROGRAM}```"],
            answer_formatting=["7"],
        ),
    ),
    GoldenCase(
        id="tenure-textual",
        table=TENURE_TABLE,
        question="How many people stayed at least 3 years in office?",
        expected="4",
        replies={
            "structure_extraction": ["key column: Representative"],
            "column_ranking": ["Years in office, Representative, Party"],
            "column_lookup": ["Representative, Years in office"],
            "row_lookup_sql": ["```sql\nSELECT * FROM t WHERE years_in_office >= 3\n```"],
            "information_estimation": ["Yes."],
            "verbalization": [
                "Four representatives served at least three years: A. Whitfield (5), "
                "E. Morris (4), S. Hull (3), and R. Adams (6)."
            ],
            "strategy_assessment": ["direct information retrieval"],
            "textual_reasoning": [
                "Whitfield, Morris, Hull, and Adams each served 3 or more years. Answer: 4"
            ],
            "answer_formatting": ["4"],
        },
    ),
    GoldenCase(
        id="fact-true",
        table=RIDERS_TABLE,
        question="Paolo Conti has the most wins.",
        expected="True",
        task_kind="fact_verification",
        replies=_std_replies(
            column_ranking=["Wins, Rider, Country"],
            column_lookup=["Rider, Wins"],
            row_lookup_sql=["```sql\nSELECT * FROM t\n```"],
            textual_reasoning=["Paolo Conti has 5 wins, the maximum. The claim holds. Answer: True"],
            answer_formatting=["True"],
        ),
    ),
    GoldenCase(
        id="fact-false",
        table=RIDERS_TABLE,
        question="Hans Weber won more races than Pierre Dubois.",
        expected="False",
        task_kind="fact_verification",
        replies=_std_replies(
            column_lookup=["Rider, Wins"],
            row_lookup_sql=["```sql\nSELECT * FROM t WHERE rider IN ('Hans Weber', 'Pierre Dubois')\n```"],
            textual_reasoning=["Weber has 1 win and Dubois has 4, so the claim is false. Answer: False"],
            answer_formatting=["False"],
        ),
    ),
    GoldenCase(
        id="reconstruction-growth",
        table=RIDERS_TABLE,
        question="Which Belgian rider has the most wins?",
        expected="Jacky Martin",
        replies=_std_replies(
            column_lookup=["Country"],
            information_estimation=["No, the wins are missing.", "Yes, sufficient now."],
            textual_reasoning=["Among Belgians, Jacky Martin has 3 wins, the most. Answer: Jacky Martin"],
            answer_formatting=["Jacky Martin"],
        ),
    ),
    GoldenCase(
        id="executor-failure-fallback",
        table=RIDERS_TABLE,
        question="Total wins by Belgian riders?",
        expected="7",
        replies=_std_replies(
            strategy_assessment=["symbolic"],
            textual_guidance=["Sum the Wins column for Belgium."],
            symbolic_reasoning=["```python\nimport sys\nsys.exit(3)\n```"],
            textual_reasoning=["3 + 2 + 2 = 7. Answer: 7"],
            answer_formatting=["7"],
        ),
    ),
    GoldenCase(
        id="invalid-sql-all-rows",
        table=RIDERS_TABLE,
        question="How many riders are from Italy?",
        expected="1",
        replies=_std_replies(
            row_lookup_sql=["SELEC * FORM t"],
            textual_reasoning=["Only Paolo Conti is Italian. Answer: 1"],
            answer_formatting=["1"],
        ),
    ),
    GoldenCase(
        id="abstain-full-table-retry",
        table=RIDERS_TABLE,
        question="How many wins does Hans Weber have?",
        expected="1",
        replies=_std_replies(
            row_lookup_sql=["```sql\nSELECT * FROM t WHERE country = 'Belgium'\n```"],
            textual_reasoning=[
                "Hans Weber does not appear in this table. I cannot answer.",
                "In the full table Hans Weber has 1 win. Answer: 1",
            ],
            answer_formatting=["cannot answer", "1"],
        ),
    ),
    GoldenCase(
        id="aggregate-sql-all-rows",
        table=RIDERS_TABLE,
        question="How many riders are listed?",
        expected="6",
        replies=_std_replies(
            row_lookup_sql=["```sql\nSELECT COUNT(*) FROM t\n```"],
            textual_reasoning=["There are six rows. Answer: 6"],
            answer_formatting=["6"],
        ),
    ),
    GoldenCase(
        id="multi-part-answer",
        table=RIDERS_TABLE,
        question="Which countries have exactly one listed rider each?",
        expected="Italy|Germany|France",
        replies=_std_replies(
            row_lookup_sql=["```sql\nSELECT * FROM t\n```"],
            textual_reasoning=["Italy, Germany, and France each appear once. Answer: Italy|Germany|France"],
            answer_formatting=["Italy|Germany|France"],
        ),
    ),
]


def record_run(case: GoldenCase, cassette_dir):
    """Run a golden case once with scripted replies, recording every LM call."""
    from tablefocus.pipeline import PipelineConfig, run_instance

    config = PipelineConfig(backend_mode="record", cassette_path=str(cassette_dir))
    backend = gw_module.Cassette(cassette_dir, "record", inner=ScriptedBackend(case.replies))
    lm = Gateway(backend)
    return run_instance(case.table, case.question, lm, config, task_kind=case.task_kind)


def edited_templates(directory, template_id: str, old: str, new: str):
    """A copy of the bundled templates in ``directory`` with ``old`` replaced by
    ``new`` in one file; returns the directory."""
    for tid in gw_module.TEMPLATE_IDS:
        body = (gw_module.BUNDLED_TEMPLATES / f"{tid}.txt").read_text(encoding="utf-8")
        (directory / f"{tid}.txt").write_text(body.replace(old, new) if tid == template_id else body, encoding="utf-8")
    return directory


def replay_run(case: GoldenCase, cassette_dir):
    """Re-run a golden case purely from the cassette; no scripted backend."""
    from tablefocus.pipeline import PipelineConfig, run_instance

    config = PipelineConfig(backend_mode="replay", cassette_path=str(cassette_dir))
    lm = Gateway(gw_module.Cassette(cassette_dir, "replay"))
    return run_instance(case.table, case.question, lm, config, task_kind=case.task_kind)


@pytest.fixture
def riders_table() -> Table:
    return RIDERS_TABLE


@pytest.fixture
def tenure_table() -> Table:
    return TENURE_TABLE
