"""CSV text of float64 rows at 17 significant digits, without per-value Python.

``csv_blocks(rows)`` yields, a few rows at a time, exactly the bytes of
``",".join(["%.17g"] * cols) + "\\n"`` filled row by row.  Each value's
17-digit decimal significand D and exponent X come from numpy arithmetic:

* ``|x| = m 2^e`` (``frexp``) is scaled by ``10^(16-k)``, k = floor(log10|x|),
  read from a table of ``10^q = (hi + lo) 2^E``; the product ``m (hi + lo)``
  is formed with Dekker's exact two-product, so the scaled value
  y = P + T (P an integer above 2^53, T small) is known to within about
  1e-14, exactly where 10^(16-k) is a double, and D = round(y), ties to
  even, by the fractional part of T;
* D's digits are its leading digit and four groups of four, read from a
  table of 0000 to 9999;
* the text follows Python's ``g`` layout: fixed notation for -4 <= X < 17,
  scientific otherwise with at least two exponent digits, trailing zeros
  and a bare point stripped, ``0``/``-0`` for zeros.

Each value owns a field of ``_WIDTH`` bytes.  The fields are built position
by value (arrays of shape ``(positions, N)``, so numpy's inner loops run
along the values), with uint8 arithmetic blends rather than masked selects;
a byte the text does not use stays 0, and one mask over the nonzero bytes
compacts the fields.  A row that holds a non-finite value, or a value
whose y is inexact and within ``_MARGIN`` of a rounding tie, or whose
estimated k is off by one, is written by the ``%`` template instead.
"""

from __future__ import annotations

from functools import cache
from typing import Iterator

import numpy as np

__all__ = ["csv_blocks"]

# values per block: small enough that the (_WIDTH, N) work arrays stay in
# cache and the writer's memory does not grow with the CSV
_BLOCK_VALUES = 4096
# bytes per value field: sign, body, separator.  The body holds the digits
# and the point (up to "0.000" and 17 digits), or a significand whose
# exponent ("e-308") takes the body's last five places
_WIDTH = 25
_BODY = 23
# distance of the scaled value's fractional part from 1/2 below which the
# rounding is left to the fallback (the scaled value is good to ~1e-14)
_MARGIN = 1e-9
_SPLIT = 134217729.0  # 2^27 + 1, Veltkamp's splitter for 53-bit doubles
_QMIN, _QMAX = -293, 341  # 10^(16-k) over every finite nonzero double, k +- 1

_E16 = 10 ** 16
_E17 = 10 ** 17
# the exponent texts' row for exponent 0, which stands for "no exponent"
_EXP_ZERO = 325
_MINUS, _POINT, _ZERO = np.frombuffer(b"-.0", np.uint8)


@cache
def _tables() -> tuple[np.ndarray, ...]:
    """The lookup tables, built once, on first use:

    * rows ``(hi, hi_upper, hi_lower, lo)`` and exponents E with
      ``10^q = (hi + lo) 2^E``, hi in [0.5, 1), indexed by ``q - _QMIN``;
      hi_upper + hi_lower is hi's Veltkamp split.  Exact integer arithmetic
      builds them (int / int is correctly rounded);
    * the ``(4, 10000)`` digit characters of 0000 to 9999;
    * the exponent texts of exponents -325 to 325, each packed in a uint64:
      ``e``, the sign and three digits, the first 0 below 100, all 0 for
      exponent 0, which never takes scientific notation.
    """
    his, los, exps = [], [], []
    for q in range(_QMIN, _QMAX + 1):
        num, den = (10 ** q, 1) if q >= 0 else (1, 10 ** -q)
        e = num.bit_length() - den.bit_length()
        if e >= 0:
            den <<= e
        else:
            num <<= -e
        if num >= den:  # num / den in [1, 2): one more halving
            den <<= 1
            e += 1
        hi = num / den
        lo = ((num << 53) - int(hi * 2.0 ** 53) * den) / (den << 53)
        his.append(hi)
        los.append(lo)
        exps.append(e)
    hi = np.array(his)
    c = _SPLIT * hi
    upper = c - (c - hi)
    places = np.array([[1000], [100], [10], [1]], np.int16)
    groups = _ZERO + np.arange(10 ** 4, dtype=np.int16) // places % 10
    exponent = np.arange(-_EXP_ZERO, _EXP_ZERO + 1)
    mag = np.abs(exponent)
    texts = np.zeros((exponent.size, 8), np.uint8)
    texts[:, 0] = ord("e")
    texts[:, 1] = np.where(exponent < 0, ord("-"), ord("+"))
    texts[:, 2] = (_ZERO + mag // 100) * (mag >= 100)
    texts[:, 3] = _ZERO + mag // 10 % 10
    texts[:, 4] = _ZERO + mag % 10
    texts[_EXP_ZERO] = 0
    return (np.stack((hi, upper, hi - upper, np.array(los))), np.array(exps, dtype=np.int32),
            groups.astype(np.uint8), texts.view(np.uint64).ravel())


def _significands(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """17-digit significands D, exponents X and a per-value flag for the
    fallback; zeros come back as D = 0, X = 0."""
    table, exps = _tables()[:2]
    ax = np.abs(x)
    finite = (ax > 0.0) & (ax < np.inf)  # NaN compares False
    safe = np.where(finite, ax, 1.0)
    m, e = np.frexp(safe)
    k = np.floor(np.log10(safe)).astype(np.intp)
    at = (16 - _QMIN) - k
    h, hu, hl, lo = np.take(table, at, axis=1)
    # Dekker's two-product: p + err == m * h exactly
    c = _SPLIT * m
    mu = c - (c - m)
    ml = m - mu
    p = m * h
    err = ((mu * hu - p) + mu * hl + ml * hu) + ml * hl
    e += exps[at]
    P = np.ldexp(p, e)  # an integer whenever y >= 2^53
    T = np.ldexp(err + m * lo, e)
    floor_T = np.floor(T)
    T -= floor_T
    F = P.astype(np.int64) + floor_T.astype(np.int64)  # floor(y)
    D = F + (T > 0.5) + (F & 1) * (T == 0.5)  # a tie rounds to even
    # near a tie only an exact power of ten (lo == 0, y == P + T) decides
    fallback = ((np.abs(T - 0.5) < _MARGIN) & (lo != 0.0)) | (F < _E16) | (D > _E17)
    carry = D == _E17  # rounded up across a power of ten
    D -= carry * (_E17 - _E16)
    k += carry
    zero = ax == 0.0
    fallback |= ~(finite | zero)
    if zero.any():
        D *= ~zero
        k *= ~zero
    return D, k, fallback


_RANK = np.arange(1, 22, dtype=np.uint8)[:, None]
_DIGIT_ROWS = np.arange(1, 21, dtype=np.int8)[:, None]
_BODY_ROWS = np.arange(_BODY, dtype=np.int8)[:, None]


def _divmod(a: np.ndarray, b: int) -> tuple[np.ndarray, np.ndarray]:
    """Quotient and remainder of nonnegative ints by a constant (numpy's
    ``%`` costs about three times its ``//``)."""
    q = a // b
    return q, a - q * b


def _digit_string(D: np.ndarray, small: np.ndarray) -> np.ndarray:
    """``(_BODY + 1, N)`` uint8: a zero row, 21 digit characters, two zero rows.

    The digits are D's 17 and four zeros, or, for a ``small`` value, four
    zeros and D's 17 (the text "0.000" and D): a leading digit and five
    groups of four read from a table of 0000 to 9999.
    """
    n = D.size
    groups = np.zeros((7, n), np.int64)
    head, groups[5] = _divmod(D, 10 ** 4)
    head, groups[4] = _divmod(head, 10 ** 4)
    head, groups[3] = _divmod(head, 10 ** 4)
    groups[1], groups[2] = _divmod(head, 10 ** 4)
    lead, rest = groups[1], groups[2:]
    if small.any():
        lead = lead * ~small
        rest = rest + (groups[1:6] - rest) * small
    run = np.zeros((_BODY + 1, n), np.uint8)
    run[1] = _ZERO + lead
    for place, chars in enumerate(_tables()[2]):  # each group's digits at one place
        np.take(chars, rest, out=run[2 + place:22:4])
    return run


def _fields(x: np.ndarray, seps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The ``(N, _WIDTH)`` fields of the values x (unused bytes 0), each
    ended by its separator, and the values' fallback flags."""
    D, X, fallback = _significands(x)
    n = x.size
    fixed = (X >= -4) & (X < 17)
    small = fixed & (X < 0)  # "0.000ddd"
    large = fixed & ~small
    point = (X * large).astype(np.int8)  # the point follows digit `point`
    run = _digit_string(D, small)
    # digits to show: up to the last nonzero one, and a large value's
    # integer part; a small value's "0", and as many zeros as -X - 1
    shown = np.maximum(((run[1:22] != _ZERO) * _RANK).max(axis=0).view(np.int8), (point + 1) * large)
    first = ((X + 5) * small).astype(np.int8)
    run[2:22] *= (_DIGIT_ROWS < shown) & (_DIGIT_ROWS >= first)

    # body position q holds digit q up to the point, the point or nothing
    # at q = point + 1, digit q - 1 after it; the exponent ends the body
    body = run[1:] * (_BODY_ROWS <= point)
    body += run[:-1] * (_BODY_ROWS >= point + 2)
    has_point = small | (shown > point + 1)
    body.ravel()[np.arange(n) + (point + 1).astype(np.intp) * n] = _POINT * has_point
    sci = ~fixed
    if sci.any():
        body[18:] += np.take(_tables()[3], _EXP_ZERO + X * sci).view(np.uint8).reshape(n, 8).T[:5]

    field = np.empty((n, _WIDTH), np.uint8)
    view = field.T
    view[0] = _MINUS * np.signbit(x)
    view[1:_WIDTH - 1] = body
    view[_WIDTH - 1] = seps
    return field, fallback


def csv_blocks(rows: np.ndarray) -> Iterator[bytes]:
    """Bytes of ``",".join(["%.17g"] * cols) + "\\n"`` applied to each row of a
    2-D float64 array, a block of rows at a time.

    Rows holding a non-finite value, or a value this engine cannot round
    with certainty (near a tie or a power-of-ten boundary), are written by
    the ``%`` template itself.
    """
    rows = np.ascontiguousarray(rows, dtype=float)
    count, cols = rows.shape
    template = ",".join(["%.17g"] * cols) + "\n"
    if cols == 0:
        yield template.encode() * count
        return
    step = max(1, _BLOCK_VALUES // cols)
    seps = np.tile(np.frombuffer(b"," * (cols - 1) + b"\n", np.uint8), step)
    for start in range(0, count, step):
        block = rows[start:start + step]
        x = block.ravel()
        field, fallback = _fields(x, seps[:x.size])
        field = field.ravel()
        text = field[field != 0].tobytes()
        if fallback.any():
            lines = text.split(b"\n")
            for i in np.flatnonzero(fallback.reshape(block.shape).any(axis=1)):
                lines[i] = (template % tuple(block[i].tolist()))[:-1].encode()
            text = b"\n".join(lines)
        yield text
