"""Seeded boundary fuzz: mutated fig2c scenarios through the command line and through dataclasses.replace.

Each case sets one or two of the fig2c preset's keys to a value from POOL,
or drops the key.  The command-line route writes the mutated file and runs
``curve`` or ``compare`` in-process with 0 or 3 trials; the replace route
applies the same mutation to the loaded preset and runs ``run_curve``.
Every case must end in a result or an input error: exit code 0 or 2, or
an IrsLinkError, never another exception or a RuntimeWarning (warnings are
errors here).  An exit 2 writes no file, and every probability written is in
[0, 1] or NaN.  A value that finds a new boundary defect joins POOL.
"""

import json
import random
from dataclasses import fields, replace

import numpy as np
import pytest

from irslink import cli
from irslink.errors import IrsLinkError
from irslink.curves import run_curve
from irslink.scenario import Scenario, load_scenario

SEED = 22
CASES = 150  # per route

DROP = object()  # the key is left out of the file
POOL = [
    0, 1, -1, 1e308, -1e308, 5e-324, 10**400, 2**64 + 1, 3000.0, -3000.0,
    float("nan"), float("inf"), float("-inf"), True, False, None, "sinc", "x", [0.5], {"a": 1}, DROP,
]
BASE = load_scenario("fig2c")
RAW = BASE.to_schema_dict()
FIELDS = {f.name for f in fields(Scenario)}


def mutations(route):
    """CASES seeded mutations, each a dict of one or two keys to their new values."""
    gen = random.Random(f"{SEED}-{route}")
    keys = sorted(RAW) if route == "cli" else sorted(FIELDS & set(RAW))
    return [{key: gen.choice(POOL) for key in gen.sample(keys, gen.choice((1, 2)))} for _ in range(CASES)]


def assert_probabilities(columns):
    for p in columns:
        assert ((0.0 <= p) & (p <= 1.0) | np.isnan(p)).all()


@pytest.mark.filterwarnings("error")
def test_cli_cases_exit_0_or_2(tmp_path, capsys):
    gen = random.Random(SEED)
    for i, mutation in enumerate(mutations("cli")):
        raw = {key: value for key, value in {**RAW, **mutation}.items() if value is not DROP}
        path = tmp_path / f"case{i}.json"
        path.write_text(json.dumps(raw))
        command, trials = gen.choice(("curve", "compare")), gen.choice(("0", "3"))
        out = tmp_path / f"case{i}.csv"
        code = cli.main([command, "--scenario", str(path), "--trials", trials, "--out", str(out)])
        capsys.readouterr()
        assert code in (0, 2), mutation
        if code == 2:
            assert not out.exists(), mutation
            continue
        lines = [line for line in out.read_text().splitlines() if not line.startswith("#")]
        header, data = lines[0].split(","), np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        assert_probabilities(data[:, j] for j, name in enumerate(header) if name.startswith("p_"))


@pytest.mark.filterwarnings("error")
def test_replace_cases_raise_only_input_errors():
    gen = random.Random(SEED)
    for mutation in mutations("replace"):
        changes = {key: None if value is DROP else value for key, value in mutation.items()}
        try:
            curve = run_curve(replace(BASE, **changes), gen.choice((0, 3)), 1)
        except IrsLinkError:
            continue
        assert_probabilities((curve.p_closed_form, curve.p_mc))
