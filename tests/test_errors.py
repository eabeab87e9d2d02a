import math
import warnings

import numpy as np
import pytest

from tomokit.errors import NumericalError, ResolutionError, check


def _never():
    raise AssertionError("a passing check called its message")


@pytest.mark.parametrize("value, limit", [
    (0.5, 1.0), (1.0, 1.0), (-math.inf, 0.0), (math.inf, math.inf),
    (np.float64(1e-6), 1e-6), (np.array([0.0, 1e-6, -1.0]), 1e-6),
    (np.array([]), 1e-6),
])
def test_value_at_or_below_its_limit_passes_without_a_message(value, limit):
    check(value, limit, ResolutionError, _never)


@pytest.mark.parametrize("value", [math.nan, math.inf, np.float64(math.nan),
                                   math.nextafter(1.0, 2.0), 2.0])
def test_nan_inf_and_values_above_fail(value):
    with pytest.raises(ResolutionError) as exc:
        check(value, 1.0, ResolutionError, lambda: "too far")
    assert str(exc.value) == "too far (limit 1.0)"


def test_failure_raises_the_given_class_with_the_limit():
    with pytest.raises(NumericalError) as exc:
        check(0.25, 1e-8, NumericalError, lambda: "off by 0.25")
    assert type(exc.value) is NumericalError
    assert str(exc.value) == "off by 0.25 (limit 1e-08)"


def test_array_failure_names_its_first_failing_element():
    seen = []

    def message(i):
        seen.append(i)
        return f"element {i}"
    values = np.array([0.0, 1.0, 3.0, np.nan, 5.0])
    with pytest.raises(ResolutionError, match=r"^element 2 \(limit 2.0\)$"):
        check(values, 2.0, ResolutionError, message)
    assert seen == [2]
    with pytest.raises(ResolutionError, match=r"^element 1 "):
        check(np.array([0.0, np.nan, 5.0]), 2.0, ResolutionError, message)


class _Leak(UserWarning):
    pass


def _site(value):
    check(value, 1.0, _Leak, lambda: "leaks")


def _public(value):
    _site(value)


def test_warning_class_warns_at_the_public_callers_line():
    with pytest.warns(_Leak, match=r"^leaks \(limit 1.0\)$") as record:
        _public(2.0)
    [w] = record
    assert w.filename == __file__
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _public(1.0)
