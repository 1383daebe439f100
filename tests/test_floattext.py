import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import combgas
from combgas import floattext

PROPERTY = settings(max_examples=40, deadline=None, database=None)
RNG_SEED = 20261018


def assert_stdlib_text(values):
    """Both formats of `join` agree with the standard library on every
    value, one value per row: json's float text (float.__repr__, with
    NaN and Infinity) and '%.17g'."""
    arr = np.asarray(values, dtype=np.float64)
    floats = arr.tolist()
    items = json.dumps(floats)[1:-1].split(", ") if floats else []
    assert floattext.join([arr], "json") == "".join(t + "\n" for t in items)
    assert floattext.join([arr], "csv") == "".join(
        "%.17g\n" % x for x in floats)


def neighbours(x):
    x = np.asarray(x, dtype=np.float64)
    both = np.concatenate([x, -x])
    return np.concatenate([both, np.nextafter(both, np.inf),
                           np.nextafter(both, -np.inf)])


def test_random_bit_patterns():
    rng = np.random.default_rng(RNG_SEED)
    bits = rng.integers(0, 2 ** 64, 10 ** 5, dtype=np.uint64)
    assert_stdlib_text(bits.view(np.float64))
    # the same, with every exponent inside the kernel's domain
    biased = rng.integers(1003, 1073, 10 ** 5, dtype=np.uint64)
    bits = (bits & np.uint64((1 << 52) - 1 | 1 << 63)) | (biased << 52)
    values = bits.view(np.float64)
    assert ((np.abs(values) > 1e-7) & (np.abs(values) < 1e16)).all()
    assert_stdlib_text(values)


def test_powers_of_two_and_ten():
    twos = np.ldexp(1.0, np.arange(-22, 53))
    tens = np.array([float("1e%d" % p) for p in range(-8, 18)])
    assert_stdlib_text(neighbours(np.concatenate([twos, tens])))


def test_domain_edges():
    edges = np.array([1e-6, 1e15])
    values = neighbours(edges)
    values = np.concatenate([values, np.nextafter(values, np.inf),
                             np.nextafter(values, -np.inf)])
    assert_stdlib_text(values)


def test_every_shortest_length():
    rng = np.random.default_rng(RNG_SEED)
    scale = 10.0 ** rng.integers(-6, 15, 200)
    values = [float("%.*e" % (digits - 1, x))
              for digits in range(1, 18)
              for x in (rng.uniform(1, 10, 200) * scale).tolist()]
    lengths = {len(repr(x).split("e")[0].replace(".", "").strip("0"))
               for x in values}
    assert lengths == set(range(1, 18))
    assert_stdlib_text(values)


def halfway(digits, rng):
    """Doubles x with x·10^p exactly halfway between two integers, where
    x·10^p has `digits` integer digits: x = q / 2^(p+1) with q odd."""
    out = []
    for p in range(0, 23):
        lo = 2 * 10 ** (digits - 1) // 5 ** p + 1
        hi = min(2 * 10 ** digits // 5 ** p, 2 ** 53)
        if not 1 <= lo < hi or not -6 <= digits - 1 - p <= 14:
            continue
        for q in rng.integers(lo, hi, 40).tolist():
            x = float(Fraction(q | 1, 2 ** (p + 1)))
            y = Fraction(x) * 10 ** p
            assert y.denominator == 2
            assert 10 ** (digits - 1) < y < 10 ** digits
            out.append(x)
    return out


@pytest.mark.parametrize("digits", [15, 16, 17])
def test_exact_halfway_cases(digits):
    values = halfway(digits, np.random.default_rng(RNG_SEED + digits))
    assert len(values) > 200
    assert_stdlib_text(values)


@PROPERTY
@given(st.lists(st.floats(), max_size=50))
def test_any_floats(values):
    assert_stdlib_text(values)


def test_columns_repeats_and_separators():
    rng = np.random.default_rng(RNG_SEED)
    xs = rng.choice([0.1, -2.5, 1e-300, 3.0, float("nan"), -0.0], 5000)
    ys = rng.standard_normal(5000)
    want = "".join("%.17g,%.17g|\n" % row for row in zip(xs.tolist(),
                                                       ys.tolist()))
    assert floattext.join([xs, ys], "csv", end="|\n") == want
    assert floattext.join([xs[:0], ys[:0]], "csv") == ""


def increasing_column():
    """Distinct values in increasing order across the kernel's domain and
    outside it: negatives, both domain edges, subnormals and one zero."""
    rng = np.random.default_rng(RNG_SEED)
    inside = 10.0 ** rng.uniform(-6, 15, 7000)
    edges = neighbours([1e-6, 1e15])
    outside = np.array([5e-324, 1e-310, 2.2250738585072014e-308, 1e-200,
                        1e20, 1.7976931348623157e308])
    values = np.unique(np.concatenate([inside, -inside[:3000], edges,
                                       outside, -outside[:3], [0.0]]))
    assert values.size > 2 * floattext._CHUNK
    assert np.all(values[1:] > values[:-1])
    return values


def test_increasing_columns_are_written_in_row_order(monkeypatch):
    values = increasing_column()
    seen = []
    texts = floattext._texts
    monkeypatch.setattr(floattext, "_texts",
                        lambda v, *rest: seen.append(v) or texts(v, *rest))
    assert_stdlib_text(values)
    # no dedupe: each format writes the column itself, in row order
    assert len(seen) == 2
    assert all(np.array_equal(v, values) for v in seen)


def test_columns_that_do_not_strictly_increase():
    values = increasing_column()
    for col in (np.repeat(values[:300], 2),
                np.array([-1.5, -0.0, 0.0, 2.0]),
                np.array([0.0, -0.0, 1.0]),
                np.array([1.0, 2.0, float("nan"), 3.0]),
                values[::-1]):
        assert_stdlib_text(col)


def test_two_columns_of_which_one_increases():
    xs = increasing_column()
    rng = np.random.default_rng(RNG_SEED + 1)
    ys = rng.choice([0.25, -1e-7, 3.0, -0.0, 0.0, 1e300], xs.size)
    want = "".join("%.17g,%.17g\n" % row for row in zip(xs.tolist(),
                                                       ys.tolist()))
    assert floattext.join([xs, ys], "csv") == want
    want = "".join("%.17g,%.17g\n" % row for row in zip(ys.tolist(),
                                                       xs.tolist()))
    assert floattext.join([ys, xs], "csv") == want


def test_refuses_other_arrays():
    for bad in (np.arange(3), np.zeros((2, 2)), [0.5], np.zeros(3, "f4")):
        with pytest.raises(TypeError):
            floattext.join([bad], "json")
    with pytest.raises(ValueError):
        floattext.join([np.zeros(2), np.zeros(3)], "csv")


def test_import_loads_no_scipy():
    script = ("import sys\n"
              "import combgas.floattext\n"
              "print([m for m in sys.modules if m.startswith('scipy')])\n")
    src = str(Path(combgas.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                         capture_output=True, text=True, timeout=120).stdout
    assert out.strip() == "[]"
