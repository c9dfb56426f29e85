"""The textfmt kernels print every value byte for byte as % does, with numpy's SIMD kernels on or off."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bistable_qubit import textfmt

from test_cli import SIMD_OFF, boundary_floats


def _texts(fields) -> list[str]:
    """The text of each row of a kernel's NUL-padded fields."""
    return [row.tobytes().replace(b"\0", b"").decode("ascii") for row in fields]


def _power(j: int) -> float:
    return float(f"1e{j}")


FLOATS = st.one_of(
    st.floats(),  # every float64: nan, +-inf, +-0 and subnormals included
    st.builds(lambda k, j: (k + 0.5) * 10.0**j, st.integers(10**11, 10**12 - 1), st.integers(-30, 40)),  # 12-digit ties
    st.integers(-30, 40).map(lambda j: 999999999999.5 * 10.0**j),  # ties that carry into the next decade
    st.integers(-323, 308).map(_power),  # powers of ten
    st.builds(lambda j, to: math.nextafter(_power(j), to), st.integers(-323, 308), st.sampled_from([0.0, math.inf])),
    st.builds(lambda m, e: m * 10.0**e, st.floats(1, 10, exclude_max=True), st.sampled_from([-5, -4, 11, 12])),
).flatmap(lambda x: st.sampled_from([x, -x]))


@settings(max_examples=400, derandomize=True, deadline=None)
@given(values=st.lists(FLOATS, min_size=1, max_size=40))
@example(values=[0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, 1.7976931348623157e308])
@example(values=[123456789012.5, 999999999999.5, 9.999999999995e-5, 9.9999999999995e-6, 99999999999.95])
def test_float_kernel_prints_as_percent_g(values):
    assert _texts(textfmt.float_fields(np.array(values))) == ["%.12g" % v for v in values]


@settings(max_examples=200, derandomize=True, deadline=None)
@given(values=st.lists(st.floats(width=32), min_size=1, max_size=40))
def test_float32_widens_exactly(values):
    column = np.array(values, dtype=np.float32)
    assert _texts(textfmt.float_fields(column)) == ["%.12g" % v for v in column.tolist()]


INT64 = st.integers(-(2**63), 2**63 - 1)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(values=st.one_of(
    st.lists(INT64, min_size=1, max_size=40).map(lambda v: np.array(v, dtype=np.int64)),
    st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=40).map(lambda v: np.array(v, dtype=np.uint64)),
    st.lists(st.booleans(), min_size=1, max_size=40).map(np.array),
    st.lists(st.integers(-128, 127), min_size=1, max_size=40).map(lambda v: np.array(v, dtype=np.int8)),
    st.lists(st.integers(-3, 3), min_size=8, max_size=40).map(lambda v: np.array(v, dtype=np.int16)),  # few distinct values
))
@example(values=np.array([-(2**63), 2**63 - 1, 0, -1, 99, 100, -100], dtype=np.int64))
@example(values=np.array([2**64 - 1, 0, 10**19, 9], dtype=np.uint64))
@example(values=np.array([2**63 - 1, 2**63 - 2] * 4, dtype=np.int64))  # the ends of the ranges
@example(values=np.array([-(2**63), -(2**63) + 1] * 4, dtype=np.int64))
@example(values=np.array([2**64 - 1, 2**64 - 2] * 4, dtype=np.uint64))
@example(values=np.array([True, False] * 4))
@example(values=np.array(list(range(-128, 128)) * 3, dtype=np.int8))  # every int8
def test_int_kernel_prints_as_percent_d(values):
    assert _texts(textfmt.int_fields(values)) == ["%d" % v for v in values.tolist()]


def float_mismatches() -> list[str]:
    """The boundary floats, random bit patterns and random values near the certified exponents
    that the float kernel prints otherwise than %, each with the two texts."""
    rng = np.random.default_rng(0)
    bits = rng.integers(0, 2**64, 100_000, dtype=np.uint64).view(np.float64)
    near = rng.uniform(-10.0, 10.0, 100_000) * 10.0 ** rng.integers(-13, 37, 100_000)
    values = np.concatenate([boundary_floats(), bits, near])
    return [f"{v!r}: {got} != {'%.12g' % v}" for v, got in zip(values.tolist(), _texts(textfmt.float_fields(values)))
            if got != "%.12g" % v]


def test_float_kernel_at_its_boundaries():
    assert float_mismatches() == []


def test_float_kernel_does_not_depend_on_the_simd_kernels():
    tests = Path(__file__).resolve().parent
    path = os.pathsep.join([str(tests.parent / "src"), str(tests), os.environ.get("PYTHONPATH", "")])
    child = "import json, test_textfmt; print(json.dumps(test_textfmt.float_mismatches()))"
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=SIMD_OFF, PYTHONPATH=path)
    done = subprocess.run([sys.executable, "-c", child], env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == []
