"""Records must not depend on how the running Python rounds a float sum.
Builtin ``sum`` adds floats left to right before Python 3.12 and with
Neumaier's compensation since; these tests check the digest pins with the
compensated sum on whichever Python runs them."""

import builtins
import math

import pytest

import test_coverage
import test_effects

_builtin_sum = builtins.sum


def compensated_sum(iterable, /, start=0):
    """``sum`` as Python 3.12 and later compute it for floats: Neumaier's
    compensated summation.  A sum without a float goes to the builtin."""
    items = list(iterable)
    if type(start) not in (int, float) or not any(type(v) is float for v in items) \
            or not all(type(v) in (int, float) for v in items):
        return _builtin_sum(items, start)
    total, compensation = float(start), 0.0
    for v in map(float, items):
        t = total + v
        compensation += (total - t) + v if abs(total) >= abs(v) else (v - t) + total
        total = t
    return total + compensation if compensation and math.isfinite(compensation) else total


@pytest.fixture
def python312_sum(monkeypatch):
    monkeypatch.setattr(builtins, "sum", compensated_sum)


def test_compensated_sum_rounds_as_python_312():
    # the examples of the Python 3.12 changelog and of Neumaier's paper
    assert compensated_sum([0.1] * 10) == 1.0
    assert compensated_sum([1.0, 1e100, 1.0, -1e100]) == 2.0
    assert compensated_sum([1, 2, 3]) == 6 and compensated_sum([], 5) == 5


@pytest.mark.parametrize("config", list(test_coverage.COVERAGE_SHA256),
                         ids=lambda c: "-".join(map(str, c[:3])))
def test_coverage_pins_hold_with_the_python_312_sum(python312_sum, config):
    test_coverage.test_coverage_reports_byte_identical(config)


def test_effects_pins_hold_with_the_python_312_sum(python312_sum):
    test_effects.test_constructions_byte_identical()
    test_effects.test_prediction_set_byte_identical()
