"""The README documents the scenario schema and the curve columns as the code has them."""

import re
from pathlib import Path

from irslink.curves import COLUMNS
from irslink.scenario import _SCHEMA_KEYS

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _section(title):
    return README.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def test_schema_table_lists_the_schema_keys():
    rows = [l for l in _section("Scenario JSON schema").splitlines() if l.startswith("| `")]
    keys = [k for row in rows for k in re.findall(r"`(\w+)`", row.split("|")[1])]
    assert sorted(keys) == sorted(_SCHEMA_KEYS)
    assert len(keys) == len(set(keys))


def test_csv_column_line_is_the_columns():
    lines = re.findall(r"`(\w+(?:,\w+)+)`", _section("CSV artifacts"))
    assert lines == [",".join(COLUMNS)]
