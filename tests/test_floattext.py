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


def join(columns, fmt, end="\n"):
    """The text of `floattext.blocks`: its blocks, joined."""
    return "".join(str(block, "ascii")
                   for block in floattext.blocks(columns, fmt, end))


def assert_stdlib_text(values):
    """Both formats of `join` agree with the standard library on every
    value, one value per row: json's float text (float.__repr__, with
    NaN and Infinity) and '%.17g'."""
    arr = np.asarray(values, dtype=np.float64)
    floats = arr.tolist()
    items = json.dumps(floats)[1:-1].split(", ") if floats else []
    assert join([arr], "json") == "".join(t + "\n" for t in items)
    assert join([arr], "csv") == "".join(
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
    assert join([xs, ys], "csv", end="|\n") == want
    assert join([xs[:0], ys[:0]], "csv") == ""


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
    cells = floattext._cells
    monkeypatch.setattr(floattext, "_cells",
                        lambda v, *rest: seen.append(v) or cells(v, *rest))
    assert_stdlib_text(values)
    # no dedupe: each format writes the column itself, block by block, in
    # row order
    assert [v.size for v in seen] == 2 * [4096, 4096, values.size - 8192]
    assert np.array_equal(np.concatenate(seen), np.tile(values, 2))


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
    assert join([xs, ys], "csv") == want
    want = "".join("%.17g,%.17g\n" % row for row in zip(ys.tolist(),
                                                       xs.tolist()))
    assert join([ys, xs], "csv") == want


SPECIALS = [0.0, -0.0, float("nan"), float("inf"), -float("inf"), 5e-324,
            1e15, 1e-6]


def stdlib_rows(columns, fmt, end="\n"):
    """The rows of `columns` as the standard library writes each value."""
    text = json.dumps if fmt == "json" else "%.17g".__mod__
    return "".join(",".join(text(x) for x in row) + end
                   for row in zip(*(col.tolist() for col in columns)))


@pytest.mark.parametrize("size", [4095, 4096, 4097, 8193])
def test_block_edges(size):
    # a few-valued column with the specials on both sides of each block
    # edge, beside strictly increasing columns, one in the kernel's domain
    # and one that crosses zero at the first edge and ends in 1e15 and inf,
    # and a sorted one with repeats
    rng = np.random.default_rng(RNG_SEED + size)
    few = rng.choice([0.25, -1.0 / 3.0, 7.5], size)
    for edge in range(4096, size + 4096, 4096):
        for at in (edge - len(SPECIALS), edge):
            part = few[at:at + len(SPECIALS)]
            part[:] = SPECIALS[:part.size]
    inc = 0.37 * (np.arange(size) - 4096.0)
    part = inc[4094:4098]
    part[:] = [-1e-6, -5e-324, 0.0, 5e-324][:part.size]
    inc[0], inc[-2:] = -np.inf, (1e15, np.inf)
    assert np.all(inc[1:] > inc[:-1])
    columns = [1.0 + np.arange(size) / 7.0, inc, few,
               np.repeat(inc, 2)[:size]]
    for fmt in ("json", "csv"):
        # compared line by line, so that a failure reports its first row
        for cols, end in ((columns, "\n"), (columns[::-1], ",\n  ")):
            assert join(cols, fmt, end).split("\n") == stdlib_rows(
                cols, fmt, end).split("\n")
        for col in columns:
            assert join([col], fmt).split("\n") == stdlib_rows(
                [col], fmt).split("\n")


def test_refuses_other_arrays():
    for bad in (np.arange(3), np.zeros((2, 2)), [0.5], np.zeros(3, "f4")):
        with pytest.raises(TypeError):
            join([bad], "json")
    with pytest.raises(ValueError):
        join([np.zeros(2), np.zeros(3)], "csv")


def run_fresh(script):
    """The stdout of `script` in a new interpreter that imports this
    checkout's combgas."""
    src = str(Path(combgas.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, "-c", script], env=env, check=True,
                          capture_output=True, text=True, timeout=120).stdout


def test_import_loads_no_scipy():
    out = run_fresh("import sys\n"
                    "import combgas.floattext\n"
                    "print([m for m in sys.modules if m.startswith('scipy')])\n")
    assert out.strip() == "[]"


def test_import_builds_no_table():
    # the digit tables and each format's layouts wait for the first kernel
    # call that needs them
    out = run_fresh("import numpy as np\n"
                    "from combgas import floattext as f\n"
                    "def built():\n"
                    "    print(f._digits.cache_info().currsize,\n"
                    "          f._layouts.cache_info().currsize)\n"
                    "built()\n"
                    "list(f.blocks([np.array([0.5, 2.0])], 'csv'))\n"
                    "built()\n"
                    "list(f.blocks([np.array([0.5, 2.0])], 'json'))\n"
                    "built()\n")
    assert out.split("\n") == ["0 0", "1 1", "1 2", ""]
