"""The README documents the scenario schema and the curve columns as the code has them."""

import pkgutil
import re
from pathlib import Path

import irslink
from irslink.curves import _CURVE_HEADER, COLUMNS
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


def test_curve_header_example_has_the_curve_header_keys():
    blocks = re.findall(r"```\n(# irslink outage curve\n.*?)```", _section("CSV artifacts"), re.DOTALL)
    assert len(blocks) == 1
    keys = [re.findall(r"(\w+)=", line) for line in blocks[0].splitlines()[1:]]
    assert keys == [[key for key, _ in line] for line in _CURVE_HEADER]


def test_layout_table_lists_every_module():
    rows = re.findall(r"^\| `(irslink\.\w+)`", _section("Layout"), re.MULTILINE)
    modules = [f"irslink.{m.name}" for m in pkgutil.iter_modules(irslink.__path__)]
    assert sorted(rows) == sorted(modules)


def test_library_example_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", _section("Library example"), re.DOTALL)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md (Library example)", "exec"), {})
    assert capsys.readouterr().out.strip()
