"""Normalizer stability: ``normalize`` must return exactly the tables, column
kinds, orientation and provenance it returned when its digests were pinned.

The corpus is built here from seeded ``random.Random`` generators: every date
format (mixed-case month names, two-digit years, impossible days, odd
separators), number cells (currency, commas, signs, leading dots, Unicode
digits and whitespace, ``n/a``), column-major tables, repeated headers and
sizes from 1 to 5,000 rows. The test compares the sha256 of
``repr(normalize(table))`` for each table with ``golden_normalize_digests.json``,
and ``repr(detect_orientation(table))`` with ``golden_orientation_pins.json``.
Re-pin both after an intended change with
``PYTHONPATH=src python tests/test_golden_normalize.py``.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
from pathlib import Path

import pytest

from tablefocus.core import Table
from tablefocus.normalize import detect_orientation, normalize

PINS_PATH = Path(__file__).parent / "golden_normalize_digests.json"
ORIENTATION_PINS_PATH = Path(__file__).parent / "golden_orientation_pins.json"

DATE_FORMATS = (
    "%Y-%m-%d",
    "%Y/%m/%d",
    "%m/%d/%Y",
    "%m/%d/%y",
    "%m-%d-%Y",
    "%b %d, %Y",
    "%B %d, %Y",
    "%b %d %Y",
    "%B %d %Y",
    "%d %b %Y",
    "%d %B %Y",
)
# English names written out, so the corpus does not depend on the locale.
MONTH_ABBR = ("Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug", "Sep", "Oct", "Nov", "Dec")
MONTH_NAME = (
    "January", "February", "March", "April", "May", "June",
    "July", "August", "September", "October", "November", "December",
)
WORDS = ("Harbor", "Maple", "Cedar", "Summit", "Sept", "Marc", "Mayday", "n/a", "N/A", "-", "")
WHITESPACE = (" ", "  ", "\t", "\u00a0", "\u2003", "\u3000")
UNICODE_DIGITS = "٠١٢٣٤٥٦٧٨٩"  # Arabic-Indic 0-9


def _mixed_case(rng: random.Random, word: str) -> str:
    return "".join(ch.swapcase() if rng.random() < 0.4 else ch for ch in word)


def _date_cell(rng: random.Random, fmt: str, odd: bool = True) -> str:
    """A cell written in ``fmt`` with a real date, a mixed-case month name and
    a padded day now and then. ``odd`` also allows impossible dates, words in
    place of month names, Unicode separators, digits and padding."""
    if odd:
        year = rng.choice([rng.randint(1950, 2020), rng.randint(1, 9999), 0, 1900, 2000])
        month = rng.choice([rng.randint(1, 12)] * 9 + [0, 13])
        day = rng.choice([rng.randint(1, 28)] * 6 + [29, 30, 31, 0, 32])
    else:
        year = rng.choice([rng.randint(1950, 2020), rng.randint(1, 9999)])
        month, day = rng.randint(1, 12), rng.randint(1, 28)
    word = odd and rng.random() < 0.1
    pieces = {
        "%Y": str(year) if odd and rng.random() < 0.1 else f"{year:04d}",
        "%y": f"{year % 100:02d}",
        "%m": rng.choice([str(month), f"{month:02d}"]),
        "%d": rng.choice([str(day), f"{day:02d}", f" {day}" if odd or day < 10 else str(day)]),
        "%b": rng.choice(WORDS[:6]) if word else _mixed_case(rng, MONTH_ABBR[(month - 1) % 12]),
        "%B": rng.choice(WORDS[:6]) if word else _mixed_case(rng, MONTH_NAME[(month - 1) % 12]),
    }
    spaces = WHITESPACE if odd else WHITESPACE[:3]
    cell = "".join(
        pieces[piece] if piece.startswith("%")
        else "".join(ch if ch != " " or rng.random() < 0.85 else rng.choice(spaces) for ch in piece)
        for piece in re.split(r"(%.)", fmt)
    )
    if rng.random() < 0.1:
        cell = rng.choice(spaces) + cell + rng.choice(["", " ", ","] if odd else ["", " "])
    if odd and rng.random() < 0.03:
        cell = cell.translate({ord(c): UNICODE_DIGITS[int(c)] for c in "0123456789"})
    return cell


def _number_cell(rng: random.Random) -> str:
    """An integer or decimal cell with currency, commas, signs, leading dots,
    padding, Unicode digits or whitespace; now and then a non-number."""
    value = rng.choice([rng.randint(0, 999), rng.randint(0, 9_999_999)])
    body = f"{value:,}" if rng.random() < 0.5 else str(value)
    roll = rng.random()
    if roll < 0.3:
        body += f".{rng.randint(0, 99):02d}"
    elif roll < 0.35:
        body = f".{rng.randint(0, 999)}"
    elif roll < 0.38:
        body = body.replace(",", ",,", 1) if "," in body else body + ","
    if rng.random() < 0.2:
        body = rng.choice("+-") + body
    if rng.random() < 0.25:
        body = rng.choice("$€£¥") + rng.choice(["", " ", "\u00a0"]) + body
    if rng.random() < 0.05:
        body = body.translate({ord(c): UNICODE_DIGITS[int(c)] for c in "0123456789"})
    if rng.random() < 0.15:
        body = rng.choice(WHITESPACE) + body + rng.choice(WHITESPACE)
    if rng.random() < 0.06:
        body = rng.choice(["n/a", "N/A", "", "-", "\u2014", "12%", "1 2", "4-5", "1.2.3"])
    return body


def _text_cell(rng: random.Random) -> str:
    return f"{rng.choice(WORDS[:4])} {rng.randint(100, 99_999)}"


def _store_table(rng: random.Random, rows: int) -> Table:
    """Shaped like the benchmark's store tables: name, units, revenue, opening date."""
    body = []
    for _ in range(rows):
        cents = rng.randint(100, 9_999_999)
        units = rng.randint(1, 99_999)
        body.append([
            _text_cell(rng),
            f"{units:,}" if rng.random() < 0.5 else str(units),
            f"${cents // 100:,}.{cents % 100:02d}",
            f"{rng.choice(MONTH_ABBR)} {rng.randint(1, 28)}, {rng.randint(1950, 2020)}",
        ])
    return Table.make(["Store", "Units", "Revenue", "Opened"], body)


def _date_table(rng: random.Random, fmt: str, rows: int, odd: bool) -> Table:
    return Table.make(
        ["Event", "When", "Also"],
        [[_text_cell(rng), _date_cell(rng, fmt, odd), _date_cell(rng, rng.choice(DATE_FORMATS), odd)]
         for _ in range(rows)],
    )


def _mixed_table(rng: random.Random, rows: int, columns: int) -> Table:
    makers = [
        lambda: _number_cell(rng),
        lambda: _date_cell(rng, rng.choice(DATE_FORMATS)),
        lambda: _text_cell(rng),
        lambda: rng.choice(WORDS),
    ]
    column_makers = [rng.choice(makers) for _ in range(columns)]
    body = [
        [maker() if rng.random() < 0.85 else rng.choice(makers)() for maker in column_makers]
        for _ in range(rows)
    ]
    return Table.make([f"c{j}" for j in range(columns)], body)


def _column_major_table(rng: random.Random, entities: int) -> Table:
    """One attribute per row, one entity per column."""
    attributes = [
        ("Units", lambda: _number_cell(rng)),
        ("Opened", lambda: _date_cell(rng, rng.choice(DATE_FORMATS))),
        ("City", lambda: rng.choice(["Paris", "Rome", "Oslo", "Lima"])),
        ("Price", lambda: f"${rng.randint(1, 999)}.{rng.randint(0, 99):02d}"),
    ]
    rng.shuffle(attributes)
    rows = [[name] + [make() for _ in range(entities)] for name, make in attributes]
    return Table.make(["Field"] + [f"Store {i}" for i in range(entities)], rows)


def _repeated_header_table(rng: random.Random, rows: int) -> Table:
    headers = rng.choice([
        ["Year", "Year", "Team", "year"],
        ["a", "A", "a (2)", "b"],
        ["Opened", "Units", "Opened", "Opened"],
    ])
    return Table.make(headers, [[_number_cell(rng), _date_cell(rng, "%Y-%m-%d"), _text_cell(rng), _number_cell(rng)]
                                for _ in range(rows)])


def corpus() -> dict[str, Table]:
    """Every table of the pinned corpus, by a stable name."""
    tables: dict[str, Table] = {}
    for i, fmt in enumerate(DATE_FORMATS):
        for rows, odd in ((1, False), (200, False), (40, True)):
            name = f"date-{i}-{rows}" + ("-odd" if odd else "")
            tables[name] = _date_table(random.Random(name), fmt, rows, odd)
    for rows in (1, 2, 10, 100, 1000, 5000):
        tables[f"store-{rows}"] = _store_table(random.Random(f"store-{rows}"), rows)
    for seed in range(12):
        rng = random.Random(f"mixed-{seed}")
        tables[f"mixed-{seed}"] = _mixed_table(rng, rng.choice([1, 3, 8, 60, 300]), rng.randint(1, 6))
    for seed in range(6):
        rng = random.Random(f"column-major-{seed}")
        tables[f"column-major-{seed}"] = _column_major_table(rng, rng.choice([1, 2, 5, 30]))
    for seed in range(3):
        rng = random.Random(f"repeated-{seed}")
        tables[f"repeated-{seed}"] = _repeated_header_table(rng, rng.choice([1, 5, 50]))
    return tables


def digest(table: Table) -> str:
    return hashlib.sha256(repr(normalize(table)).encode("utf-8")).hexdigest()


CORPUS = corpus()


def orientation(table: Table) -> str:
    return repr(detect_orientation(table))


def test_every_corpus_table_is_pinned():
    for path in (PINS_PATH, ORIENTATION_PINS_PATH):
        pinned = json.loads(path.read_text(encoding="utf-8"))
        assert sorted(pinned) == sorted(CORPUS), path.name


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_normalize_matches_pin(name):
    pinned = json.loads(PINS_PATH.read_text(encoding="utf-8"))
    assert digest(CORPUS[name]) == pinned[name]


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_detect_orientation_matches_pin(name):
    pinned = json.loads(ORIENTATION_PINS_PATH.read_text(encoding="utf-8"))
    assert orientation(CORPUS[name]) == pinned[name]


if __name__ == "__main__":
    for path, pin in ((PINS_PATH, digest), (ORIENTATION_PINS_PATH, orientation)):
        pins = {name: pin(table) for name, table in sorted(CORPUS.items())}
        path.write_text(json.dumps(pins, indent=2, sort_keys=True) + "\n", encoding="utf-8")
