import json
import math
import struct

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra import numpy as hnp

from gpcn.serialize import check_value, load_arrays, save_arrays

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


def _entry(**changes):
    entry = {"name": "x", "dtype": "float64", "shape": [2, 3], "offset": 0, "nbytes": 48}
    entry.update(changes)
    return {k: v for k, v in entry.items() if v is not None}


def _write_container(path, header, payload=bytes(48)):
    text = json.dumps(header).encode("utf-8")
    path.write_bytes(b"GPCNBIN1" + struct.pack("<Q", len(text)) + text + payload)


def test_round_trip(tmp_path):
    path = tmp_path / "a.bin"
    x, k = np.arange(6.0).reshape(2, 3), np.array([[-1, 2]], dtype=np.int64)
    save_arrays(path, {"x": x, "k": k, "e": np.zeros((0, 4))}, {"note": 1})
    arrays, meta = load_arrays(path)
    assert meta == {"note": 1} and sorted(arrays) == ["e", "k", "x"]
    assert np.array_equal(arrays["x"], x) and arrays["k"].dtype == np.int64
    assert np.array_equal(arrays["k"], k) and arrays["e"].shape == (0, 4)
    _write_container(path, {"meta": {}, "arrays": [_entry()]})
    assert np.array_equal(load_arrays(path)[0]["x"], np.zeros((2, 3)))


def test_zero_d_round_trip(tmp_path):
    path = tmp_path / "s.bin"
    save_arrays(path, {"s": np.float64(2.5), "k": np.array(-3, dtype=np.int64)})
    arrays, _ = load_arrays(path)
    assert arrays["s"].shape == () and arrays["s"].dtype == np.float64 and arrays["s"] == 2.5
    assert arrays["k"].shape == () and arrays["k"].dtype == np.int64 and arrays["k"] == -3


# float64 and int64 are stored as they are; every other dtype as float64
ARRAYS = hnp.arrays(
    dtype=st.sampled_from([np.float64, np.int64, np.float32, np.int32, np.uint8, np.bool_]),
    shape=hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4),
)


@given(st.lists(ARRAYS, max_size=4))
def test_round_trip_keeps_dtype_shape_and_bytes(tmp_path_factory, arrays):
    path = tmp_path_factory.mktemp("round_trip") / "a.bin"
    save_arrays(path, {f"a{i}": a for i, a in enumerate(arrays)})
    loaded, _ = load_arrays(path)
    assert sorted(loaded) == sorted(f"a{i}" for i in range(len(arrays)))
    for i, a in enumerate(arrays):
        want = a if a.dtype in (np.float64, np.int64) else a.astype(np.float64)
        got = loaded[f"a{i}"]
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


BAD_HEADERS = {
    "not-an-object": [],
    "no-arrays": {"meta": {}},
    "arrays-not-a-list": {"meta": {}, "arrays": {"x": _entry()}},
    "no-meta": {"arrays": [_entry()]},
    "meta-not-an-object": {"meta": [], "arrays": [_entry()]},
    "entry-not-an-object": {"meta": {}, "arrays": ["x"]},
    "name-missing": {"meta": {}, "arrays": [_entry(name=None)]},
    "name-not-a-string": {"meta": {}, "arrays": [_entry(name=3)]},
    "dtype-unknown": {"meta": {}, "arrays": [_entry(dtype="foo")]},
    "dtype-float32": {"meta": {}, "arrays": [_entry(dtype="float32", nbytes=24)]},
    "dtype-a-list": {"meta": {}, "arrays": [_entry(dtype=["float64"])]},
    "shape-a-string": {"meta": {}, "arrays": [_entry(shape="23")]},
    "shape-negative": {"meta": {}, "arrays": [_entry(shape=[-2, -3])]},
    "shape-float": {"meta": {}, "arrays": [_entry(shape=[2.0, 3])]},
    "offset-missing": {"meta": {}, "arrays": [_entry(offset=None)]},
    "offset-negative": {"meta": {}, "arrays": [_entry(offset=-8)]},
    "offset-bool": {"meta": {}, "arrays": [_entry(offset=False)]},
    "nbytes-missing": {"meta": {}, "arrays": [_entry(nbytes=None)]},
    "nbytes-not-shape-size": {"meta": {}, "arrays": [_entry(nbytes=40)]},
}


@pytest.mark.parametrize("case", sorted(BAD_HEADERS))
def test_malformed_header_raises_one_value_error(tmp_path, case):
    path = tmp_path / "bad.bin"
    _write_container(path, BAD_HEADERS[case])
    with pytest.raises(ValueError, match=r"bad\.bin: malformed gpcn binary container header$"):
        load_arrays(path)


@pytest.mark.parametrize("byte", range(8, 16))
def test_damaged_header_length_raises_value_error(tmp_path, byte):
    """Bytes 8-15 hold the header length. A flipped high byte claims
    terabytes, or more than an index can hold, and must read as a damaged
    file rather than as an attempt to read that much."""
    path = tmp_path / "a.bin"
    save_arrays(path, {"x": np.arange(6.0).reshape(2, 3)}, {"note": 1})
    raw = bytearray(path.read_bytes())
    raw[byte] ^= 0xFF
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError):
        load_arrays(path)
