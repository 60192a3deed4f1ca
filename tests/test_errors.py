import math

import numpy as np
import pytest

from handdepth.errors import ConfigError, DomainError, check_keys, number


@pytest.mark.parametrize("value, kwargs", [
    (True, {}),
    (False, {"integer": True}),
    (math.nan, {}),
    (math.inf, {}),
    (-math.inf, {}),
    (10**400, {}),
    (-(10**400), {"integer": True}),
    ("1", {}),
    (None, {}),
    ([1.0], {}),
    (2.0, {"integer": True}),
    (np.float64(3.0), {"integer": True}),
    (0.999, {"low": 1}),
    (5.001, {"high": 5}),
    (-1, {"integer": True, "low": 0, "high": 5}),
    (6, {"integer": True, "low": 0, "high": 5}),
])
def test_number_rejects_with_the_field_name(value, kwargs):
    with pytest.raises(DomainError, match="the_field"):
        number(value, "the_field", DomainError, **kwargs)


@pytest.mark.parametrize("value, kwargs", [
    (0, {}),
    (-2.5, {}),
    (np.int64(7), {"integer": True}),
    (np.float64(0.25), {}),
    (2**70, {"integer": True}),  # an int a float can hold
    (1, {"low": 1, "high": 5}),  # both ends of the range are inside it
    (5.0, {"low": 1, "high": 5}),
    (0, {"integer": True, "low": 0, "high": 5}),
    (5, {"integer": True, "low": 0, "high": 5}),
])
def test_number_returns_accepted_values_unchanged(value, kwargs):
    assert number(value, "the_field", ConfigError, **kwargs) is value


def test_check_keys():
    data = {"a": 1}
    assert check_keys(data, {"a", "b"}, "thing") is data
    with pytest.raises(ConfigError, match=r"unknown thing keys: \['c'\]"):
        check_keys({"a": 1, "c": 2}, {"a"}, "thing")
    for junk in ([], "a", 5, None):
        with pytest.raises(ConfigError, match="thing must be an object"):
            check_keys(junk, {"a"}, "thing")
