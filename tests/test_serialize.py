import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from gpcn.serialize import check_value

VALUES = st.one_of(
    st.integers(),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.floats(),
    st.floats().map(np.float64),
    st.booleans(),
    st.integers().map(str),
    st.floats().map(str),
    st.text(),
)


def _accepts(kind, value) -> bool:
    try:
        return check_value(kind, value, "x") is value
    except ValueError:
        return False


@given(VALUES)
def test_int_and_float_kinds_take_numbers_without_coercion(value):
    """"int" takes ints and rejects floats, bools and numeric strings; "float"
    also takes finite floats and rejects bools, strings and nan or inf."""
    is_int = isinstance(value, (int, np.integer)) and not isinstance(value, bool)
    is_finite_float = isinstance(value, float) and math.isfinite(value)
    assert _accepts("int", value) == is_int
    assert _accepts("float", value) == (is_int or is_finite_float)


def test_message_names_the_value():
    with pytest.raises(ValueError, match=r"^sim ramp_steps must be an integer, got 200\.5$"):
        check_value("int", 200.5, "sim ramp_steps")
