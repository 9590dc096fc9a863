"""The release gate: every acceptance criterion at its stated tolerance.

Each test runs one criterion from irslink.validation (the same code the
``irslink validate`` subcommand executes) and prints its pass/fail line.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import irslink
from irslink import validation
from irslink.errors import DomainError


def _run(number):
    result = validation.CRITERIA[number]()
    print(result.line())
    assert result.passed, result.line()


def test_criterion_01_moment_identities():
    _run(1)


def test_criterion_02_reduction_equivalences():
    _run(2)


def test_criterion_03_phase_expectation_oracle():
    _run(3)


def test_criterion_04_closed_form_vs_monte_carlo():
    _run(4)


def test_criterion_05_design_ordering_blocked():
    _run(5)


def test_criterion_06_correlation_model_ordering():
    _run(6)


def test_criterion_07_scale_derivative():
    _run(7)


def test_criterion_08_equal_phase_asymptotics():
    _run(8)


def test_criterion_09_special_functions():
    _run(9)


def test_criterion_10_outage_surface():
    _run(10)


def test_criteria_registry_is_complete():
    assert sorted(validation.CRITERIA) == list(range(1, 11))
    for number, criterion in validation.CRITERIA.items():
        assert criterion.__name__ == f"criterion_{number}"
        assert criterion.__module__ == "irslink.validation"
        assert criterion is getattr(validation, f"criterion_{number}")


def test_criterion_fails_on_its_runtime_limit(monkeypatch):
    clock = iter(range(0, 10**6, 1000))
    cpu_clock = iter(range(0, 10**6, 3))
    monkeypatch.setattr(validation.time, "perf_counter", lambda: float(next(clock)))
    monkeypatch.setattr(validation.time, "process_time", lambda: float(next(cpu_clock)))
    result = validation.criterion_10()
    assert result.passed is False
    assert result.runtime == 1000.0
    assert result.cpu == 3.0  # reported, but the limit holds wall time only
    assert result.detail.endswith("exceeded 5s")
    assert result.line().endswith("[1000.0s/5s, cpu 3.0s]")


def test_criterion_cpu_time_is_not_held_to_the_limit(monkeypatch):
    cpu_clock = iter(range(0, 10**6, 1000))
    monkeypatch.setattr(validation.time, "process_time", lambda: float(next(cpu_clock)))
    result = validation.criterion_10()
    assert result.passed is True
    assert result.cpu == 1000.0 and result.runtime < result.limit


def test_criterion_cpu_time_counts_the_workers_task_cpu(monkeypatch):
    """The CPU that the engine's workers report for a criterion's ranges counts toward its cpu."""
    cpu_clock = iter(range(0, 10**6, 2))
    workers_cpu = iter([11.0, 15.5])
    monkeypatch.setattr(validation.time, "process_time", lambda: float(next(cpu_clock)))
    monkeypatch.setattr(validation, "_worker_cpu", lambda: next(workers_cpu))
    assert validation.criterion_10().cpu == 2.0 + 4.5


def _no_clock():
    raise AssertionError("a criterion's clock started before its overrides were checked")


def _call(route, **overrides):
    """run_criteria over criteria 3-5, or criterion ``route`` called directly."""
    if route == "run_criteria":
        return validation.run_criteria([3, 4, 5], **overrides)
    return validation.CRITERIA[route](**overrides)


# With no trials, criterion 4 would compare the closed form against NaN and
# pass; with one, criterion 3 would take a sample deviation of one draw.
BAD_OVERRIDES = [({"trials": t}, "trial count") for t in (0, 1, -1, 2.5, True)] + [
    ({"seed": s}, "^seed must") for s in (-1, 2**64, 2.5)
]


@pytest.mark.parametrize("route", ["run_criteria", 3, 4, 5])
@pytest.mark.parametrize(
    "overrides, message", BAD_OVERRIDES, ids=[f"{k}={v}" for (o, _) in BAD_OVERRIDES for k, v in o.items()]
)
def test_bad_override_fails_before_any_criterion(overrides, message, route, monkeypatch):
    monkeypatch.setattr(validation.time, "perf_counter", _no_clock)
    with pytest.raises(DomainError, match=message):
        _call(route, **overrides)


@pytest.mark.parametrize(
    "numbers, message", [([], "^the selection names no criterion; valid numbers are 1,"), ([1, 99], "^no criterion 99; valid numbers are 1,")]
)
def test_a_bad_selection_fails_before_any_criterion(monkeypatch, numbers, message):
    def must_not_run(trials=None, seed=None):
        raise AssertionError("a criterion ran before the selection was checked")

    monkeypatch.setitem(validation.CRITERIA, 1, must_not_run)
    with pytest.raises(DomainError, match=message):
        validation.run_criteria(numbers)


def test_criterion_3_refuses_a_trial_count_it_cannot_allocate():
    # 10^14 draws' traces would take 728 TiB each; the allocation fails at once
    with pytest.raises(DomainError, match="^trial count 100000000000000 is too large"):
        validation.run_criteria([3], trials=10**14)


def test_the_package_does_not_load_or_export_the_gate():
    """``import irslink`` runs no gate code, and no public name is one the gate module defines."""
    src = str(Path(irslink.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    code = "import sys, irslink; print('irslink.validation' in sys.modules)"
    child = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env={**os.environ, "PYTHONPATH": path}
    )
    assert child.stdout.strip() == "False"
    tree = ast.parse(Path(validation.__file__).read_text())
    defined = {node.name for node in tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    defined |= {t.id for node in tree.body if isinstance(node, ast.Assign) for t in node.targets if isinstance(t, ast.Name)}
    moved = {"uniform_phase_trace_moments_by_sums", "outage_scale_sensitivity", "equal_phase_trace_bound", "TRACE_BOUND_SLACK"}
    assert moved <= defined
    assert defined.isdisjoint(irslink.__all__)


def test_the_submodule_import_graph_is_acyclic():
    """No irslink submodule imports, directly or through others, one that imports it back."""
    package = Path(irslink.__file__).resolve().parent
    modules = {path.stem for path in package.glob("*.py")} - {"__init__"}
    graph = {}
    for name in modules:
        tree = ast.parse((package / f"{name}.py").read_text())
        graph[name] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                # from .x import ... imports x; from . import x, y imports the submodules named
                targets = [node.module] if node.module else [alias.name for alias in node.names]
                graph[name] |= {t for t in targets if t in modules}
    assert graph["closedform"] and graph["phaseshift"]  # the parse sees the imports
    done, stack = set(), []

    def visit(name):
        assert name not in stack, f"import cycle: {' -> '.join(stack[stack.index(name):] + [name])}"
        if name in done:
            return
        stack.append(name)
        for target in sorted(graph[name]):
            visit(target)
        stack.pop()
        done.add(name)

    for name in sorted(modules):
        visit(name)
