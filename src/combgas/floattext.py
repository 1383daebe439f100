"""Exact text of float64 arrays, byte for byte as the standard library
writes each value, made over whole arrays with numpy alone.

`join` writes the rows of one or more float64 columns.  Each distinct
value (by bit pattern, so -0.0 keeps its sign) is written once, as
`float.__repr__` writes it for "json" (with `NaN`, `Infinity` and
`-Infinity`, as the json module writes them) or as `'%.17g'` writes it for
"csv".

Finite values with 1e-6 < |x| < 1e15 are converted by an exact kernel,
4096 at a time.  The decimal exponent k of |x| comes from `log10` and is
corrected exactly; the scale 10^(16-k) is an exact double (k >= -6), and
the product |x|·10^(16-k) = hi + lo is error-free (Veltkamp's split and
Dekker's product, Dekker 1971), so its 17-digit rounding, half to even,
is exact too.  The shortest repr is the 15-, else the 16-, else the
17-digit significand (`_shortest`).  The text is gathered from the
digits by one layout per sign and exponent, which carries repr's and %g's
rules (fixed or exponent notation, "2.0" against "2"); bytes a text does
not use are NUL, and `join` drops them in one pass.  Zero, non-finite,
subnormal and out-of-range values (a few per comb volume) are written one
at a time by the standard library.
"""

from __future__ import annotations

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


def _significand(a):
    """(k, m, big, lo): the decimal exponent k of a, its 17-digit
    significand m (int64, ties to even; 10^17 when a rounds up to
    10^(k+1)), and the parts of a·10^(16-k) = m - big + lo."""
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
    return k, hi.astype(np.int64) + big.astype(np.int64), big, lo


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


def _layouts(fmt):
    """Source rows of every (sign, k), and dp and pad of every k."""
    rows, dp, pad = zip(*(_layout(fmt, neg, k) for neg in (0, 1)
                          for k in range(_KMIN, _KMAX + 1)))
    span = _KMAX - _KMIN + 1
    return np.array(rows), np.array(dp[:span]), np.array(pad[:span])


_LAYOUTS = {fmt: _layouts(fmt) for fmt in ("json", "csv")}
# the two ASCII digits of each pair 00..99 as one uint16, the divisors
# that cut 8 digits into pairs, and the place of each digit after the first
_PAIRS = np.frombuffer(b"".join(b"%02d" % i for i in range(100)),
                       dtype=np.uint16)
_PAIR_DIV = np.array([1e6, 1e4, 1e2, 1.0])[:, None]
_PLACE = np.arange(1, 17, dtype=np.uint8)[:, None]


def _kernel(x, fmt):
    """Text rows (len(x), _WIDTH) of finite x, 1e-6 < |x| < 1e15, sorted by
    bit pattern."""
    a = np.abs(x)
    k, m, big, lo = _significand(a)
    if fmt == "json":
        m = _shortest(a, k, m, big, lo)
    carry = m == 10 ** 17  # rounded up to the next power of ten
    m = np.where(carry, 10 ** 16, m)
    k = k + carry
    # the 17 digits, one source row each: the first, then 8 pairs cut in
    # doubles (exact below 10^8)
    n = x.size
    lead = m // 10 ** 16
    rest = m - lead * 10 ** 16
    halves = np.empty((2, 1, n))
    halves[0, 0] = rest // 10 ** 8
    halves[1, 0] = rest - halves[0, 0].astype(np.int64) * 10 ** 8
    heads = np.floor(halves / _PAIR_DIV)  # the first 2, 4, 6, 8 digits
    heads[:, 1:] -= 100.0 * heads[:, :-1]
    pairs = _PAIRS.take(heads.reshape(8, n).astype(np.intp))
    src = np.empty((_POINT + 1 + _CONSTS.size, n), dtype=np.uint8)
    src[0] = lead + 48
    src[1:17].reshape(8, 2, n).transpose(0, 2, 1)[...] = \
        pairs.view(np.uint8).reshape(8, n, 2)
    src[_POINT + 1:] = _CONSTS[:, None]
    rows, dp, pad = _LAYOUTS[fmt]
    nd = 1 + ((src[1:17] != 48) * _PLACE).max(axis=0)
    dp, pad = dp[k - _KMIN], pad[k - _KMIN]
    src[:17] *= np.arange(17)[:, None] < np.maximum(nd, dp + pad)
    src[_POINT] = np.where((nd > dp) | (pad == 1), 46, 0)
    # values sorted by bit pattern come in runs of one sign and one k
    key = (x < 0) * (_KMAX - _KMIN + 1) + (k - _KMIN)
    cuts = np.flatnonzero(key[1:] != key[:-1]) + 1
    out = np.empty((n, _WIDTH), dtype=np.uint8)
    for start, stop in zip([0, *cuts.tolist()], [*cuts.tolist(), n]):
        out[start:stop] = src[rows[key[start]], start:stop].T
    return out


def one(value, fmt):
    """The standard library's text of one value."""
    if fmt == "csv":
        return "%.17g" % value
    text = float.__repr__(value)
    return _JSON_NONFINITE.get(text, text)


def _texts(values, fmt, tail):
    """Text rows (len(values), _WIDTH + len(tail)) of a 1-D float64 array:
    each text NUL-padded to _WIDTH, then the bytes `tail`.  Fastest in
    runs of one sign and exponent, as `join` gives them."""
    out = np.empty((values.size, _WIDTH + len(tail)), dtype=np.uint8)
    out[:, _WIDTH:] = np.frombuffer(tail, dtype=np.uint8)
    a = np.abs(values)
    inside = (a > _LOW) & (a < _HIGH)  # False for NaN
    idx = np.flatnonzero(inside)
    for start in range(0, idx.size, _CHUNK):
        part = idx[start:start + _CHUNK]
        out[part, :_WIDTH] = _kernel(values[part], fmt)
    idx = np.flatnonzero(~inside)
    if idx.size:
        rows = [one(value, fmt) for value in values[idx].tolist()]
        out[idx, :_WIDTH] = np.array(rows, dtype="S%d" % _WIDTH).view(
            np.uint8).reshape(idx.size, _WIDTH)
    return out


def _column(arr):
    if not isinstance(arr, np.ndarray) or arr.dtype != np.float64 \
            or arr.ndim != 1:
        raise TypeError("expected a 1-D float64 array, got %r"
                        % (getattr(arr, "dtype", type(arr)),))
    return arr


def join(columns, fmt, end="\n"):
    """The rows of equal-length float64 columns as text: each row's cells
    joined by ",", every row followed by `end`.

    Each distinct value of a column is written once (`_texts`), with the
    separator after it: the column's bit patterns are sorted, each that
    differs from its predecessor is kept, and `searchsorted` finds every
    row's text among them (cheaper than `np.unique`'s argsort when a
    column has few values).  A strictly increasing column (no NaN, no
    repeat, no -0.0 before 0.0) has distinct values in runs of one sign and
    exponent already, so its texts are written in row order and taken as
    they are.  The rows are gathered from those texts, 4096 at a time, and
    one pass over each block drops the NUL padding.
    """
    columns = [_column(col) for col in columns]
    texts, inverses = [], []
    for i, col in enumerate(columns):
        if col.size != columns[0].size:
            raise ValueError("columns differ in length")
        tail = ("," if i + 1 < len(columns) else end).encode("ascii")
        if np.all(col[1:] > col[:-1]):
            texts.append(_texts(col, fmt, tail))
            inverses.append(None)
            continue
        bits = col.view(np.int64)
        keys = np.sort(bits)
        new = np.ones(keys.size, dtype=bool)
        np.not_equal(keys[1:], keys[:-1], out=new[1:])
        keys = keys[new]
        texts.append(_texts(keys.view(np.float64), fmt, tail))
        inverses.append(np.searchsorted(keys, bits))
    blocks = []
    for start in range(0, columns[0].size, _CHUNK):
        block = slice(start, start + _CHUNK)
        rows = np.concatenate([text[block] if inverse is None
                               else text.take(inverse[block], axis=0)
                               for text, inverse in zip(texts, inverses)],
                              axis=1).ravel()
        blocks.append(str(rows[rows != 0].data, "ascii"))
    return "".join(blocks)
