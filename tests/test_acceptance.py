"""The release gate: every acceptance criterion at its stated tolerance.

Each test runs one criterion from irslink.validation (the same code the
``irslink validate`` subcommand executes) and prints its pass/fail line.
"""

from irslink import validation


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
    monkeypatch.setattr(validation.time, "perf_counter", lambda: float(next(clock)))
    result = validation.criterion_10()
    assert result.passed is False
    assert result.runtime == 1000.0
    assert result.detail.endswith("exceeded 5s")
