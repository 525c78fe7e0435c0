"""CSV text of float64 rows at 17 significant digits, without per-value Python.

``csv_blocks(rows)`` yields, a few rows at a time, exactly the bytes of
``",".join(["%.17g"] * cols) + "\\n"`` filled row by row.  Each value's
17-digit decimal significand D and exponent X come from numpy arithmetic:

* |x| is scaled by ``10^(16-k)``, k = floor(log10|x|), read from a table
  of ``10^q = hi + lo``; the product ``|x| (hi + lo)`` is formed with
  Dekker's exact two-product, so the scaled value y = P + T (P an integer
  above 2^53, T small) is known to within about 1e-14, and D = round(y),
  ties to even.  Below about 1e-284 and above 1e286, |x| is scaled by
  2^128 or 2^-128 and ``10^q`` the other way, so that every factor stays a
  normal double;
* one int64 division by 10^8 splits D into its leading digit and two
  8-digit halves, and one more, on both halves at once, into four groups
  of four digits.

Each value owns a field of eight 4-byte words, and one ``np.take`` on one
table of packed ASCII quadruples reads them all:

    W0      the sign, and ``0.`` when -4 <= X < 0
    W1      the leading digit and the point, or, when -4 <= X < 0, the
            -X - 1 zeros after the point and the leading digit
    W2-W5   the four groups; a group followed by zero groups only is read
            from the table's second half, where its trailing ``0``
            characters are zero bytes
    W6, W7  the exponent (``e-05``, ``e+123``: its fifth character goes
            to W7) when X < -4 or X >= 17, then the separator

so the text follows Python's ``g`` layout: fixed notation for -4 <= X <
17, scientific otherwise with at least two exponent digits, trailing
zeros and a bare point stripped, ``0``/``-0`` for zeros.  For 1 <= X < 17
byte arithmetic on just those fields moves the point after the integer
digits.  A byte the text does not use is 0, and deleting the zero bytes
with ``bytes.translate`` compacts the fields.  A row that holds a
non-finite value, a value whose y is inexact and within ``_MARGIN`` of a
rounding tie, or whose estimated k is off by one, is written by the ``%``
template instead.
"""

from __future__ import annotations

from functools import cache
from typing import Iterator, NamedTuple

import numpy as np

__all__ = ["csv_blocks"]

# values per block: small enough that the work arrays stay in cache and the
# writer's memory does not grow with the CSV
_BLOCK_VALUES = 4096
# distance of the scaled value's fractional part from 1/2 below which the
# rounding is left to the fallback (the scaled value is good to ~1e-14)
_MARGIN = 1e-9
# q = 16 - k over every finite nonzero double, k - 1 included; the tables
# per exponent are indexed by at = q - _QMIN = _AT0 - k
_QMIN, _QMAX = -292, 340
_AT0 = 16 - _QMIN
_EXPONENTS = _QMAX - _QMIN + 1
# 10^q is stored over 2^128 above _QTINY and times 2^128 below _QHUGE, and
# |x| is scaled the other way: every factor stays a normal double, and
# rounding the bit pattern to 26 bits (Dekker's split) cannot overflow
_QTINY, _QHUGE = 300, -270
_ROUND = np.uint64(1 << 26)
_MASK = np.uint64((1 << 64) - (1 << 27))
_E4, _E8 = 10 ** 4, 10 ** 8
_E16, _E17 = 10 ** 16, 10 ** 17
_WORDS = 8
_ZERO = ord("0")


def _packed(texts: list[bytes]) -> np.ndarray:
    """ASCII texts of at most four bytes, one uint32 each, zero bytes after the text."""
    return np.frombuffer(b"".join(t.ljust(4, b"\0") for t in texts), np.uint8).view(np.uint32)


class _Tables(NamedTuple):
    powers: np.ndarray  # (hi, hi_upper, hi_lower, lo, scale, half) rows, per at
    words: np.ndarray   # the packed ASCII quadruples
    sign: np.ndarray    # per at: index of W0 for a positive value
    lead: np.ndarray    # per at: index of W1 for leading digit 0 and no point
    exponent: int       # index of W6 for at = 0
    separator: int      # index of W7 for at = 0 and a ","; a "\n" is _EXPONENTS further
    integer_part: int   # ``lead`` of the exponents 1 <= X < 17


@cache
def _tables() -> _Tables:
    """The lookup tables, built once, on first use.

    ``10^q = (hi + lo) scale``, hi_upper + hi_lower is hi's split at 26
    bits, and a scaled value whose fractional part is further than ``half``
    from 0 is left to the fallback (``half`` is 1/2 where 10^q is a double,
    so that y is exact and its ties round to even); exact integer
    arithmetic builds them (int / int is correctly rounded).  The words are 0000-9999, the same with trailing ``0``
    characters as zero bytes, then the sign, leading-digit and exponent
    words.
    """
    his, los = [], []
    for q in range(_QMIN, _QMAX + 1):
        num, den = (10 ** q, 1) if q >= 0 else (1, 10 ** -q)
        if q > _QTINY:
            den <<= 128
        elif q < _QHUGE:
            num <<= 128
        hi = num / den
        hn, hd = hi.as_integer_ratio()
        his.append(hi)
        los.append((num * hd - hn * den) / (den * hd))
    hi = np.array(his)
    upper = ((hi.view(np.uint64) + _ROUND) & _MASK).view(np.float64)
    q = np.arange(_QMIN, _QMAX + 1)
    lo = np.array(los)
    scale = np.where(q > _QTINY, 2.0 ** 128, np.where(q < _QHUGE, 2.0 ** -128, 1.0))
    powers = np.stack((hi, upper, hi - upper, lo, scale, np.where(lo == 0.0, 0.5, 0.5 - _MARGIN)))

    v = np.arange(_E4, dtype=np.int16)[:, None]
    chars = (v // np.array([1000, 100, 10, 1], np.int16) % 10 + _ZERO).astype(np.uint8)
    trailing = (v % np.array([10, 100, 1000, _E4], np.int16) == 0).sum(axis=1, keepdims=True)
    groups = np.concatenate((chars, chars * (np.arange(4) < 4 - trailing))).view(np.uint32).ravel()
    sign = [b"", b"-", b"0.", b"-0."]  # + 2 when -4 <= X < 0, + 1 when negative
    lead = []  # + 20 * layout + 2 * digit + (1 when a point follows)
    for layout in range(6):  # 0: X = 0 or scientific; 1 + z: z zeros after "0."; 5: 1 <= X < 17
        for d in b"0123456789":
            if 1 <= layout <= 4:
                lead += [b"\0" * (4 - layout) + b"0" * (layout - 1) + bytes([d])] * 2
            else:
                lead += [b"\0\0" + bytes([d]), b"\0\0" + bytes([d]) + b"."]
    k = 16 - q  # the decimal exponent of each at
    exponent = [b"" if -4 <= e < 17 else b"e%+03d" % e for e in k.tolist()]
    regions = [sign, lead, [e[:4] for e in exponent],
               [e[4:].rjust(1, b"\0") + sep for sep in (b",", b"\n") for e in exponent]]
    words = np.concatenate([groups] + [_packed(region) for region in regions])
    start = np.cumsum([2 * _E4] + [len(region) for region in regions]).tolist()
    small = (k >= -4) & (k < 0)
    layout = np.where(small, -k, 5 * ((k >= 1) & (k < 17)))
    return _Tables(powers, words, (start[0] + 2 * small).astype(np.intp),
                   (start[1] + 20 * layout).astype(np.intp), start[2], start[3], start[1] + 20 * 5)


def _significands(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """17-digit significands D, exponents as table positions ``at`` and a
    per-value flag for the fallback; zeros come back as D = 0, X = 0
    (at = _AT0)."""
    powers = _tables().powers
    ax = np.abs(x)
    safe = np.fmin(np.fmax(ax, 5e-324), 1.7976931348623157e308)  # NaN and 0 become 5e-324
    at = _AT0 - np.floor(np.log10(safe)).astype(np.intp)
    h, hu, hl, lo, scale, half = np.take(powers, at, axis=1)
    s = safe * scale
    su = ((s.view(np.uint64) + _ROUND) & _MASK).view(np.float64)
    sl = s - su
    # Dekker's two-product: p + T == s * h exactly, then s * lo on top
    p = s * h
    T = su * hu
    T -= p
    tmp = su * hl
    T += tmp
    T += np.multiply(sl, hu, out=tmp)
    T += np.multiply(sl, hl, out=tmp)
    T += np.multiply(s, lo, out=tmp)
    R = np.rint(T)
    D = p.astype(np.int64)  # p is an integer whenever y >= 2^53
    D += R.astype(np.int64)
    # near a tie, or y < 10^16 (k one too large), the fallback decides
    fallback = np.abs(np.subtract(T, R, out=tmp), out=tmp) > half
    p -= _E16  # exact near 10^16, and rounding keeps the sign of the sum
    p += T
    fallback |= p < 0.0
    if (D >= _E17).any():
        fallback |= D > _E17  # k one too small
        carry = D == _E17  # rounded up across a power of ten
        D[carry] = _E16
        at[carry] -= 1
    special = safe != ax
    if special.any():
        zero = ax == 0.0
        fallback |= special & ~zero
        D[zero] = 0
        at[zero] = _AT0
    return D, at, fallback


def _words(x: np.ndarray, seps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The ``(_WORDS, N)`` field words of the values x, and their fallback
    flags; ``seps`` is ``_tables().separator``, plus ``_EXPONENTS`` where a
    line ends."""
    D, at, fallback = _significands(x)
    tables = _tables()
    n = x.size
    idx = np.empty((_WORDS, n), np.intp)
    # W2-W5: D = digit 10^16 + halves[0] 10^8 + halves[1], each half two groups
    top = D // _E8
    digit = top // _E8
    halves = np.empty((2, n), np.int64)
    np.subtract(top, digit * _E8, out=halves[0])
    np.subtract(D, top * _E8, out=halves[1])
    np.floor_divide(halves, _E4, out=idx[2:6:2])
    np.subtract(halves, idx[2:6:2] * _E4, out=idx[3:7:2])
    point = (halves[0] | halves[1]) != 0
    # a group followed by zero groups only drops its own trailing zeros
    np.add(idx[2], _E4, out=idx[2], where=(idx[3] | halves[1]) == 0)
    np.add(idx[3], _E4, out=idx[3], where=halves[1] == 0)
    np.add(idx[4], _E4, out=idx[4], where=idx[5] == 0)
    idx[5] += _E4
    np.add(np.take(tables.sign, at), np.signbit(x), out=idx[0])
    layout = np.take(tables.lead, at)
    np.multiply(digit, 2, out=idx[1])
    idx[1] += point
    idx[1] += layout
    np.add(at, tables.exponent, out=idx[6])
    np.add(at, seps, out=idx[7])
    field = np.take(tables.words, idx)
    integer = np.flatnonzero(layout == tables.integer_part)
    if integer.size:
        _move_point(field, integer, _AT0 - at[integer])
    return field, fallback


_ROWS = np.arange(17)[:, None]


def _move_point(field: np.ndarray, cols: np.ndarray, X: np.ndarray) -> None:
    """Put the point of the fields ``cols`` (1 <= X <= 16) after their X + 1
    integer digits: the fraction digits f1..fX move one byte left, into the
    point's place, with their dropped trailing zeros back, and the point
    follows them when digits remain."""
    run = np.ascontiguousarray(np.take(field[1:6], cols, axis=1).view(np.uint8)
                               .reshape(5, -1, 4).transpose(0, 2, 1)).reshape(20, -1)
    tail = run[3:]  # the point's byte, then f1..f16
    left = np.where(_ROWS[:16] < X, np.maximum(tail[1:], _ZERO), tail[:16])
    last = ((tail[1:] != 0) * _ROWS[1:]).max(axis=0)
    tail[:16] = left
    tail[X, np.arange(X.size)] = np.where(last > X, ord("."), 0)
    field[1:6, cols] = np.ascontiguousarray(run.reshape(5, 4, -1).transpose(0, 2, 1)).view(np.uint32)[..., 0]


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
    seps = np.tile(_tables().separator + _EXPONENTS * (np.arange(cols) == cols - 1), step)
    for start in range(0, count, step):
        block = rows[start:start + step]
        x = block.ravel()
        field, fallback = _words(x, seps[:x.size])
        text = np.ascontiguousarray(field.T).tobytes().translate(None, b"\0")
        if fallback.any():
            lines = text.split(b"\n")
            for i in np.flatnonzero(fallback.reshape(block.shape).any(axis=1)):
                lines[i] = (template % tuple(block[i].tolist()))[:-1].encode()
            text = b"\n".join(lines)
        yield text
