"""Text of a block of float64 rows in numpy passes: CSV byte for byte that of
``"%.17g"``, JSON byte for byte that of ``repr``.

``float_rows(block)`` returns ``",".join("%.17g" % v for v in row) + "\\r\\n"``
for each row, joined, as bytes.  ``json_rows(block)`` returns
``"\\n  [\\n   " + ",\\n   ".join(repr(v) for v in row) + "\\n  ]"`` for each
row, joined by ``,``: the rows of ``json.dump(indent=1)``, with ``NaN``,
``Infinity`` and ``-Infinity`` as ``json.dumps`` writes them.  Both are made
in the same numpy passes over the whole block instead of one call per cell
(``notes/decisions.md`` sections 10 and 14):

- A cell with 1e-30 <= |x| < 1e30 is scaled to v = |x| 10^(16 - X) as a
  double-double (Dekker's exact product with a (hi, lo) power of ten), X
  its decimal exponent estimated from the binary one, and split into its
  integer part n and a fraction.  An n outside [10^16, 10^17) moves X by one
  and is scaled once more.  The error of the fraction is below 1e-13.
- CSV writes the 17 digits of v rounded half up.  JSON writes the first of
  v rounded to 15, 16 or 17 digits that lies within half an ulp of x, g, and
  ``repr``'s shortest digits are those with the trailing zeros dropped: at
  most one 15-digit decimal lies within g (< 11.1 at this scale) of v.
- Its text is laid out in a slot of six little-endian 64-bit words: sign,
  the ``0.`` and zeros of 1e-4 <= |x| < 1, the 17 digits with a place for the
  decimal point after each, the exponent and the separator.  Digits are
  looked up four at a time, the digits dropped as trailing zeros and the
  unused places are NUL, and dropping every NUL byte packs the block.  A
  JSON row also has a word of its own before its cells, for the row's
  opening bracket.  +-0 takes the same slots, as the digits 0 at X = 0.
- Every other cell is written by ``"%.17g" % v`` (CSV) or ``repr(v)`` (JSON)
  into its slot: nan, +-inf, |x| outside the range above, an n still outside
  [10^16, 10^17), a fraction within 1e-6 of 0.5, where ``%`` rounds an exact
  tie half to even, and for JSON also a power of two, whose interval of
  doubles is not symmetric, and a candidate within 1e-6 of g or of a tie.
"""

from typing import NamedTuple

import numpy as np

_X_MIN, _X_MAX = -31, 31  # decimal exponents the tables cover: the range +-1
_WORDS = 6  # 64-bit words of one cell's slot
_SPLIT = 134217729.0  # 2^27 + 1, Veltkamp's splitting factor for doubles
_E16, _E17 = 10**16, 10**17
_MARGIN = 1e-6  # distance to a rounding or round-trip boundary left to Python


def _power(k: int):
    """10^k as (hi, lo): hi correctly rounded, lo the exact rest rounded."""
    if k >= 0:
        hi = float(10**k)
        return hi, float(10**k - int(hi))
    d = 10**-k
    hi = 1 / d  # int / int rounds correctly
    a, b = hi.as_integer_ratio()
    return hi, (b - a * d) / (b * d)


def _split(v):
    """Veltkamp's split of v into two halves of at most 26 bits."""
    c = v * _SPLIT
    high = c - (c - v)
    return high, v - high


def _word(text: str, at: int = 0) -> int:
    """The little-endian 64-bit word holding ``text`` from byte ``at``."""
    return int.from_bytes(text.encode().rjust(at + len(text), b"\0"), "little")


def _byte_of_digit(j: int):
    """(word, byte) of digit j of 17; the decimal point after it is the next byte."""
    return (0, 6) if j == 0 else (1 + (j - 1) // 4, 2 * ((j - 1) % 4))


_X = range(_X_MIN, _X_MAX + 1)
_HI, _LO = np.array([_power(16 - x) for x in _X]).T.copy()
_HI_HIGH, _HI_LOW = _split(_HI)
#: times 2^k, half an ulp of a double in [2^k, 2^(k + 1)), 2^(k - 53), scaled by 10^(16 - X)
_HALF_ULP = _HI * 2.0**-53
_TEN = np.array([float(f"1e{x}") for x in _X])
_LEAD = np.array([_word("0." + "0" * (-1 - x), 1) if -4 <= x < 0 else 0 for x in _X],
                 dtype=np.uint64)
_MINUS = np.uint64(_word("-"))
_DIGIT_POINT = np.uint64(_word("0.", 6))  # the "0" the first digit is added to, and "."


class _Style(NamedTuple):
    """The layout tables of one text format, indexed by X - _X_MIN."""

    keep: np.ndarray  # the last digit always written: the last integer digit, or ".0"'s 0
    point: np.ndarray  # the digit the decimal point follows; 16 for none ("0." leads)
    exponent: np.ndarray  # word 5: the exponent ("e+XX", or "+XX" after an "e" in word 4)
    e: np.ndarray | None  # word 4: "e" in the point place after digit 16, which holds no point
    sep: int  # word 5 after a cell
    row_end: int  # word 5 after a row's last cell
    row_lead: int  # the word before a row's first cell, 0 for none


def _style(fixed_max: int, dot_zero: bool, sep: str, row_end: str, row_lead: str = "",
           e_in_word_4: bool = False) -> _Style:
    """Positional text for -4 <= X <= ``fixed_max``, an integer ended by ``.0``
    if ``dot_zero``, else ``d[.ddd]e+XX``.  The separators follow the exponent
    in word 5; where they need 5 bytes, the exponent's "e" moves to word 4."""
    fixed = range(0, fixed_max + 1)
    exponent = [not -4 <= x <= fixed_max for x in _X]
    sep_at = 3 if e_in_word_4 else 4
    return _Style(
        np.array([x + dot_zero if x in fixed else 0 for x in _X]),
        np.array([16 if -4 <= x < 0 else x if x in fixed else 0 for x in _X]),
        np.array([_word(f"{x:+03d}" if e_in_word_4 else f"e{x:+03d}") * use
                  for x, use in zip(_X, exponent)], dtype=np.uint64),
        np.array(exponent, dtype=np.uint64) * np.uint64(_word("e", 7)) if e_in_word_4 else None,
        _word(sep, sep_at), _word(row_end, sep_at), _word(row_lead))


_CSV = _style(16, False, ",", "\r\n")  # "%.17g"
# repr, in the layout of json.dump(indent=1)
_JSON = _style(15, True, ",\n   ", "\n  ],", "\n  [\n   ", e_in_word_4=True)
_JSON_CONSTANTS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}

#: the four ASCII digits of 0-9999 at bytes 0, 2, 4 and 6, each followed by "."
_DIGITS = np.zeros(10000, dtype=np.uint64)
#: trailing decimal zeros of 0-9999 as four digits (4 for 0)
_ZEROS = np.zeros(10000, dtype=np.intp)
# built with the operations _text uses: each numpy loop run for the first
# time maps code pages into the process, which count in its resident memory
_rest = np.arange(10000)
for _i in range(4):  # the digit of 10^(3 - _i), from the first
    _digit, _rest = np.divmod(_rest, 10**(3 - _i))
    _DIGITS |= (_digit.astype(np.uint64) + np.uint64(_word("0."))) << np.uint64(16 * _i)
    _ZEROS += 1
    _ZEROS *= _digit == 0
del _rest, _i, _digit

#: words 0-4 of a slot kept when digit k is the last written and the decimal
#: point follows digit q (none for q = 16), at row 17 k + q: the sign and the
#: leading "0." with its zeros are always kept, the other digits and points not
_MASK = np.zeros((17, 17, 5), dtype=np.uint64)
_MASK[:, :, 0] = 0x00FF_FFFF_FFFF_FFFF
for _k in range(17):
    for _j in range(1, _k + 1):
        _w, _b = _byte_of_digit(_j)
        _MASK[_k, :, _w] |= np.uint64(0xFF << 8 * _b)
for _q in range(16):
    _w, _b = _byte_of_digit(_q)
    _MASK[:, _q, _w] |= np.uint64(0xFF << 8 * (_b + 1))
_MASK = _MASK.reshape(17 * 17, 5)
del _k, _j, _q, _w, _b


def _scaled(a, i):
    """(integer part, fraction) of a 10^(16 - X) for a > 0, X = i + _X_MIN,
    from its double-double product."""
    p = a * _HI[i]
    ah, al = _split(a)
    high, low = _HI_HIGH[i], _HI_LOW[i]
    err = ((ah * high - p) + ah * low + al * high) + al * low  # p + err = a hi exactly
    whole = np.floor(p)
    rest = (p - whole) + (err + a * _LO[i])
    carry = np.floor(rest)
    rest -= carry
    return whole.astype(np.int64) + carry.astype(np.int64), rest


def _shortest(n, rest, up, e, i):
    """``repr``'s digits of the cells whose scaled value v = n + rest lies in
    [10^16, 10^17), with up = rest > 0.5 and e their biased binary exponent:
    (N, X index, certain).  N is the first of v rounded to 15, 16 and 17
    digits that lies within g, half an ulp of x at this scale, moved to
    [10^16, 10^17) with X where it is 10^17.  A cell is not certain where a
    distance is within _MARGIN of g, or where v is within _MARGIN of a tie
    at 16 digits that lies within g.  The caller leaves a tie at 17 digits
    to Python."""
    g = (e << 52).view(np.float64) * _HALF_ULP[i]  # 2^(e - 1023) 2^-53 10^(16 - X)
    r100 = n % 100
    r10 = r100 % 10
    f100, f10 = r100 + rest, r10 + rest  # v mod 100, v mod 10
    d15, d16 = 50 - np.abs(f100 - 50), 5 - np.abs(f10 - 5)  # |v - v rounded|
    drop = np.where(d15 < g, r100 - 100 * (f100 > 50),
                    np.where(d16 < g, r10 - 10 * (f10 > 5), -1 * up))
    certain = ((np.abs(d15 - g) > _MARGIN) & (np.abs(d16 - g) > _MARGIN)
               & ((d16 < 5 - _MARGIN) | (g < 5 - _MARGIN)))  # no tie within g
    digits = n - drop
    carry = digits == _E17  # 10^17 is 10^16 at X + 1
    digits -= carry * (_E17 - _E16)
    return digits, i + carry, certain


def _text(block, style: _Style, fallback) -> bytes:
    """The cells of ``block`` laid out in ``style``, each cell the fast path
    cannot write exactly written by ``fallback``."""
    block = np.asarray(block, dtype=np.float64)
    n_rows, n_cols = block.shape
    x = block.ravel()
    a = np.abs(x)
    zero = a == 0
    fast = (a >= 1e-30) & (a < 1e30)
    a[~fast] = 1.0
    # X is floor(e log10 2) or one more, e the binary exponent of a; a
    # mantissa of 0 is a power of two
    e, mantissa = np.divmod(a.view(np.int64), 1 << 52)
    i = (e - 1023) * 0.30102999566398120
    i = np.floor(i, out=i).astype(np.intp) - _X_MIN
    i += a >= _TEN[i + 1]  # still one off where 17 digits round up to 10^(X + 1)
    n, rest = _scaled(a, i)
    up = rest > 0.5
    high = n + up >= _E17
    redo = np.flatnonzero(high | (n < _E16))
    if redo.size:  # X was one off, or the digits round up to 10^17
        i[redo] += 2 * high[redo] - 1
        n[redo], rest[redo] = _scaled(a[redo], i[redo])
        up = rest > 0.5
    fast &= (n >= _E16) & (np.abs(rest - 0.5) > _MARGIN)
    if style is _JSON:
        n, i, certain = _shortest(n, rest, up, e, i)
        fast &= certain & (mantissa != 0)
    else:
        n += up  # half up: "%" rounds an exact tie to even, so ties are left to it
        fast &= n < _E17
    n[zero] = 0  # 0 at X = 0
    fast |= zero
    del a, rest, high, up, e, mantissa

    groups = np.empty((x.size, 4), dtype=np.intp)
    lead, n = np.divmod(n, _E16)
    for g in range(4):
        groups[:, g], n = np.divmod(n, 10**(12 - 4 * g))
    del n
    zeros = _ZEROS[groups]
    trailing = zeros[:, 3] + (groups[:, 3] == 0) * (
        zeros[:, 2] + (groups[:, 2] == 0) * (zeros[:, 1] + (groups[:, 1] == 0) * zeros[:, 0]))
    del zeros
    last = np.maximum(16 - trailing, style.keep[i])
    point = style.point[i]
    layout = last * 17 + np.where(last > point, point, 16)
    del trailing, last, point

    lead_words = 1 if style.row_lead else 0
    slots = np.empty((n_rows, lead_words + n_cols * _WORDS), dtype="<u8")
    slots[:, :lead_words] = style.row_lead
    cells = slots[:, lead_words:].reshape(n_rows, n_cols, _WORDS)  # a view
    word = (lead.astype(np.uint64) << 48) + _DIGIT_POINT
    word |= _LEAD[i] | (x.view(np.int64) < 0) * _MINUS
    cells[:, :, 0] = word.reshape(n_rows, n_cols)
    cells[:, :, 1:5] = _DIGITS[groups].reshape(n_rows, n_cols, 4)
    cells[:, :, :5] &= np.take(_MASK, layout, axis=0).reshape(n_rows, n_cols, 5)
    del word, lead, groups, layout
    sep = np.full(n_cols, style.sep, dtype=np.uint64)
    sep[-1] = style.row_end
    np.bitwise_or(style.exponent[i].reshape(n_rows, n_cols), sep, out=cells[:, :, 5])
    if style.e is not None:
        cells[:, :, 4] |= style.e[i].reshape(n_rows, n_cols)
    del i

    slow = np.flatnonzero(~fast)
    if slow.size:
        row, col = np.divmod(slow, n_cols)
        cells[row, col, :5] = np.frombuffer(fallback(x[slow].tolist()), dtype="<u8").reshape(-1, 5)
        cells[row, col, 5] = sep[col]
    return slots.tobytes().translate(None, b"\0")


def _padded(texts) -> bytes:
    """Each of ``texts`` NUL-padded to five 64-bit words."""
    return b"".join(t.encode().ljust(40, b"\0") for t in texts)


def _percent(values) -> bytes:
    """Each of ``values`` as ``"%.17g"``, NUL-padded to five 64-bit words."""
    return _padded("%.17g" % v for v in values)


def _repr(values) -> bytes:
    """Each of ``values`` as ``repr``, or as ``json.dumps`` writes nan and
    +-inf, NUL-padded to five 64-bit words."""
    return _padded(_JSON_CONSTANTS.get(t, t) for t in map(repr, values))


def float_rows(block) -> bytes:
    """The CSV rows of the 2-d float64 array ``block``: each cell as
    ``"%.17g"``, cells joined by ``,`` and each row ended by ``\\r\\n``."""
    return _text(block, _CSV, _percent)


def json_rows(block) -> bytes:
    """The JSON rows of the 2-d float64 array ``block`` in the layout of
    ``json.dump(indent=1)``, each led by a line break and joined by ``,``:
    each cell as ``repr``, or ``NaN``, ``Infinity``, ``-Infinity``."""
    return _text(block, _JSON, _repr)[:-1]
