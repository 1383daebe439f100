"""Exact text of float64 arrays, byte for byte as the standard library
writes each value, made over whole arrays with numpy alone.

`blocks` writes the rows of float64 columns, 4096 at a time, in one row
buffer.  Each distinct value (by bit pattern, so -0.0 keeps its sign) of a
block is written once, as `float.__repr__` writes it for "json" (with
`NaN`, `Infinity` and `-Infinity`, as the json module writes them) or as
`'%.17g'` writes it for "csv".

Finite values with 1e-6 < |x| < 1e15 are converted by an exact kernel.
The decimal exponent k of |x| comes from `log10` and is corrected exactly;
the scale 10^(16-k) is an exact double (k >= -6), and the product
|x|·10^(16-k) = hi + lo is error-free (Veltkamp's split and Dekker's
product, Dekker 1971), so its 17-digit rounding, half to even, is exact
too.  The shortest repr is the 15-, else the 16-, else the 17-digit
significand (`_shortest`).  The text is gathered from the digits, four
groups of four from one table, by one layout per sign and exponent, which
carries repr's and %g's rules (fixed or exponent notation, "2.0" against
"2"); bytes a text does not use are NUL, and `blocks` drops them in one
pass per block.  Zero, non-finite, subnormal and out-of-range values (a
few per comb volume) are written one at a time by the standard library.
"""

from __future__ import annotations

import functools

import numpy as np

_CHUNK = 4096
_WIDTH = 24  # the longest text of a float64, "-2.2250738585072014e-308"

_LOW, _HIGH = 1e-6, 1e15  # the kernel's domain; 1e-6 rounds below 10^-6
_KMIN, _KMAX = -6, 15     # decimal exponents it writes (15 after rounding)
_POW10 = np.array([float(10 ** p) for p in range(23)])
_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _split(a):
    """hi + lo == a, each half with at most 26 significant bits (Veltkamp)."""
    c = 134217729.0 * a  # 2^27 + 1
    hi = c - (c - a)
    return hi, a - hi


_POW10_HI, _POW10_LO = _split(_POW10)


def _times_pow10(a, a_hi, a_lo, p):
    """hi + lo == a * 10^p exactly (Dekker's product)."""
    s, s_hi, s_lo = _POW10[p], _POW10_HI[p], _POW10_LO[p]
    hi = a * s
    lo = ((a_hi * s_hi - hi) + a_hi * s_lo + a_lo * s_hi) + a_lo * s_lo
    return hi, lo


def _significand(a, fmt):
    """(k, m): the decimal exponent k of a and its 17-digit significand m
    (int64, ties to even; 10^17 when a rounds up to 10^(k+1)), for "json"
    the shortest repr's (`_shortest`, from a·10^(16-k) = m - big + lo)."""
    a_hi, a_lo = _split(a)
    k = np.clip(np.floor(np.log10(a)).astype(np.intp), _KMIN, _KMAX - 1)
    hi, lo = _times_pow10(a, a_hi, a_lo, 16 - k)
    if ((hi <= 1e16) | (hi >= 1e17)).any():  # log10 was off by one
        k -= (hi < 1e16) | ((hi == 1e16) & (lo < 0))
        k += (hi > 1e17) | ((hi == 1e17) & (lo >= 0))
        hi, lo = _times_pow10(a, a_hi, a_lo, 16 - k)
    # hi + lo >= 10^16 > 2^53, so hi is an even integer and the 17 digits
    # are hi + rint(lo), rint's ties to even
    big = np.rint(lo)
    m = hi.astype(np.int64) + big.astype(np.int64)
    return k, _shortest(a, k, m, big, lo) if fmt == "json" else m


def _shortest(a, k, m, big, lo):
    """The significand of repr(a), to 17 digits: the 15-digit rounding of
    m, else the 16-digit one, if it reads back as a, else m.

    With j = m mod unit, the rounding of a·10^(16-k) = m - big + lo to a
    multiple of unit goes up when lo > unit/2 - j + big (ties to even).  A
    rounded significand c <= 2^53 reads back as the one correctly rounded
    division c / 10^p of two exact doubles (Clinger 1990).  Above 2^53 the
    16 digits are finer than half an ulp of a, so they always read back.
    Only the nearest rounding is tried: where another one reads back, so
    does it, except perhaps below a power of two, whose lower interval is
    half as wide; the tests cover every power of two in the domain.
    """
    out = m
    for unit, p in ((10, 15 - k), (100, 14 - k)):  # the shorter wins
        q = m // unit
        thr = (unit // 2 + big) - (m - q * unit)
        c = q + ((lo > thr) | ((lo == thr) & (q & 1 == 1)))
        ok = (c > 2 ** 53) | (c.astype(np.float64) / _POW10[p] == a)
        out = np.where(ok, c * unit, out)
    return out


# a text is gathered from the source rows of its value: the 17 digits
# (rows 0 to 16), the point byte (row 17), then the bytes of _CONSTS
_POINT = 17
_CONSTS = np.frombuffer(b"\0-.0e56", dtype=np.uint8)


def _layout(fmt, neg, k):
    """The source rows of the text of a value with sign `neg` and decimal
    exponent k, NUL-padded to _WIDTH, its point place dp and its pad.

    The digits at and after max(nd, dp + pad) of its nd significant ones
    are NUL, and its point byte is "." if nd > dp or pad, else NUL.
    """
    def const(text):
        return [_POINT + 1 + _CONSTS.tobytes().index(c)
                for c in text.encode()]

    digits = list(range(17))
    point = k + 1
    if not -4 <= k < (16 if fmt == "json" else 17):  # here k < -4
        dp, pad = 1, 0
        rows = digits[:1] + [_POINT] + digits[1:] + const("e-%02d" % -k)
    elif point <= 0:
        dp, pad = 0, 0
        rows = const("0." + "0" * -point) + digits
    else:
        dp, pad = point, int(fmt == "json")  # repr writes "2.0", %g "2"
        rows = digits[:point] + [_POINT] + digits[point:]
    rows = const("-" * neg) + rows
    return rows + const("\0") * (_WIDTH - len(rows)), dp, pad


@functools.cache
def _layouts(fmt):
    """Source rows of every (sign, k), and dp and pad of every k (cached)."""
    rows, dp, pad = zip(*(_layout(fmt, neg, k) for neg in (0, 1)
                          for k in range(_KMIN, _KMAX + 1)))
    span = _KMAX - _KMIN + 1
    return (np.array(rows), np.array(dp[:span], dtype=np.uint8),
            np.array(pad[:span], dtype=np.uint8))


_PLACE = np.arange(1, 17, dtype=np.uint8)[:, None]


@functools.cache
def _digits():
    """Built on the first `_kernel` call: the four ASCII digits of each
    group 0000..9999 as one uint32, and for group i of the 16 digits after
    the first, the place of its last nonzero digit: 4i + 4 less the group's
    trailing zeros (0 for 0000)."""
    group = np.arange(10000, dtype=np.int16)
    groups = (48 + group[:, None] // group[[1000, 100, 10, 1]] % 10).astype(
        np.uint8).view(np.uint32)[:, 0]
    last = np.where(group > 0, _PLACE[3::4] - sum(
        (group % 10 ** p == 0 for p in (1, 2, 3)), np.uint8(0)), 0)
    return groups, last


def _kernel(x, fmt, out):
    """Write the texts of finite x, 1e-6 < |x| < 1e15, NUL-padded, into the
    rows of out (len(x), _WIDTH); fastest in runs of one sign and k."""
    k, m = _significand(np.abs(x), fmt)
    carry = m == 10 ** 17  # rounded up to the next power of ten
    m = np.where(carry, 10 ** 16, m)
    k = k + carry
    # the first digit, then the rest in 4 groups of 4 digits
    n = x.size
    groups = np.empty((4, n), dtype=np.intp)
    groups[1] = m // 10 ** 8
    groups[3] = m - groups[1] * 10 ** 8
    lead = groups[1] // 10 ** 8
    groups[1] -= lead * 10 ** 8
    groups[0::2] = groups[1::2] // 10 ** 4
    groups[1::2] -= groups[0::2] * 10 ** 4
    digits, last = _digits()
    src = np.empty((_POINT + 1 + _CONSTS.size, n), dtype=np.uint8)
    src[0] = lead + 48
    src[1:17].reshape(4, 4, n)[...] = digits.take(groups).view(
        np.uint8).reshape(4, n, 4).transpose(0, 2, 1)
    src[_POINT + 1:] = _CONSTS[:, None]
    rows, dp, pad = _layouts(fmt)
    nd = 1 + np.maximum.reduce([t.take(g) for t, g in zip(last, groups)])
    dp, pad = dp[k - _KMIN], pad[k - _KMIN]
    src[1:17] *= _PLACE < np.maximum(nd, dp + pad)
    src[_POINT] = np.where((nd > dp) | (pad == 1), 46, 0)
    # sorted values (by value or by bit pattern) come in runs of one sign
    # and one k
    key = (x < 0) * (_KMAX - _KMIN + 1) + (k - _KMIN)
    cuts = np.flatnonzero(key[1:] != key[:-1]) + 1
    for start, stop in zip([0, *cuts.tolist()], [*cuts.tolist(), n]):
        out[start:stop] = src[rows[key[start]], start:stop].T


def one(value, fmt):
    """The standard library's text of one value."""
    if fmt == "csv":
        return "%.17g" % value
    text = float.__repr__(value)
    return _JSON_NONFINITE.get(text, text)


def _cells(values, fmt, out=None):
    """Write the texts of a 1-D float64 array, NUL-padded, into the rows of
    out (values.size, _WIDTH), or a new array: the kernel on the values in
    its domain, the standard library on the others.  Returns out as one
    item per text, which `take` moves whole."""
    if out is None:
        out = np.empty((values.size, _WIDTH), dtype=np.uint8)
    a = np.abs(values)
    inside = (a > _LOW) & (a < _HIGH)  # False for NaN
    x = np.where(inside, values, 1.0)  # the others are written below
    for start in range(0, x.size, _CHUNK):
        _kernel(x[start:start + _CHUNK], fmt, out[start:start + _CHUNK])
    idx = np.flatnonzero(~inside)
    if idx.size:
        rows = [one(value, fmt) for value in values[idx].tolist()]
        out[idx] = np.array(rows, dtype="S%d" % _WIDTH).view(
            np.uint8).reshape(idx.size, _WIDTH)
    return out.view("V%d" % _WIDTH)[:, 0]


def _column(arr):
    if not isinstance(arr, np.ndarray) or arr.dtype != np.float64 \
            or arr.ndim != 1:
        raise TypeError("expected a 1-D float64 array, got %r"
                        % (getattr(arr, "dtype", type(arr)),))
    return arr


def blocks(columns, fmt, end="\n"):
    """Yield the rows of equal-length float64 columns as text, each row's
    cells joined by "," and followed by `end`: a uint8 array of ASCII
    bytes per block of at most 4096 rows, all built in one row buffer.

    A sorted column's block with no repeat is written straight into its
    cells, else by a `take` from the texts of its distinct values (by bit
    pattern); any other column has one such table for all its blocks, in
    which `searchsorted` finds each row.  NUL padding is then dropped.
    """
    columns = [_column(col) for col in columns]
    size = columns[0].size
    if any(col.size != size for col in columns):
        raise ValueError("columns differ in length")
    tails = [b","] * (len(columns) - 1) + [end.encode("ascii")]
    rows = np.tile(np.frombuffer(b"".join(b"\0" * _WIDTH + tail
                                          for tail in tails), dtype=np.uint8),
                   (min(size, _CHUNK), 1))
    cells, at = [], 0
    for col, tail in zip(columns, tails):
        keys = table = None
        if not np.all(col[1:] >= col[:-1]):  # not sorted, or a NaN
            keys = np.sort(col.view(np.int64))
            keys = keys[np.concatenate(([True], keys[1:] != keys[:-1]))]
            table = _cells(keys.view(np.float64), fmt)
        cells.append((rows[:, at:at + _WIDTH], col, keys, table))
        at += _WIDTH + len(tail)
    for start in range(0, size, _CHUNK):
        count = min(_CHUNK, size - start)
        for cell, col, keys, table in cells:
            values = col[start:start + count]
            bits = values.view(np.int64)
            if keys is not None:
                index = np.searchsorted(keys, bits)
            else:
                new = np.concatenate(([True], bits[1:] != bits[:-1]))
                if new.all():
                    _cells(values, fmt, cell[:count])
                    continue
                table, index = _cells(values[new], fmt), np.cumsum(new) - 1
            table.take(index, out=cell[:count].view(table.dtype)[:, 0],
                       mode="clip")
        block = rows[:count].reshape(-1)
        yield block[block != 0]
