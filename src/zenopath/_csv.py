"""CSV text of a block of float64 rows, byte for byte that of ``"%.17g"``.

``float_rows(block)`` returns ``",".join("%.17g" % v for v in row) + "\\r\\n"``
for each row, joined, as bytes, made in numpy passes over the whole block
instead of one ``%`` per cell (``notes/decisions.md`` section 10):

- A cell with 1e-30 <= |x| < 1e30 is scaled to |x| 10^(16 - X) as a
  double-double (Dekker's exact product with a (hi, lo) power of ten), X
  its decimal exponent estimated from the binary one, and rounded to the
  integer N of its 17 significant digits.  An N outside [10^16, 10^17) moves
  X by one and is scaled once more.  The error of the scaled value is below
  1e-13, so N is the correctly rounded one unless its fraction is near 0.5.
- Its text is laid out in a slot of six little-endian 64-bit words: sign,
  the ``0.`` and zeros of 1e-4 <= |x| < 1, the 17 digits with a place for the
  decimal point after each, the exponent and the separator.  Digits are
  looked up four at a time, the digits that ``%g`` drops as trailing zeros
  and the unused places are NUL, and dropping every NUL byte packs the block.
- Every other cell is written by ``"%.17g" % v`` into its slot: nan, +-inf,
  +-0, |x| outside the range above, an N still outside [10^16, 10^17), and a
  fraction within 1e-6 of 0.5, where ``%`` rounds an exact tie half to even.
"""

import numpy as np

_X_MIN, _X_MAX = -31, 31  # decimal exponents the tables cover: the range +-1
_WORDS = 6  # 64-bit words of one cell's slot
_SPLIT = 134217729.0  # 2^27 + 1, Veltkamp's splitting factor for doubles
_E16, _E17 = 10**16, 10**17


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
_TEN = np.array([float(f"1e{x}") for x in _X])
#: the last integer digit of the fixed-point form, always kept; 0 otherwise
_INT_LAST = np.array([x if 0 <= x <= 16 else 0 for x in _X])
#: the digit the decimal point follows; 16 (no point) where "0." leads
_POINT_AFTER = np.array([16 if -4 <= x < 0 else x if 0 <= x <= 16 else 0 for x in _X])
_LEAD = np.array([_word("0." + "0" * (-1 - x), 1) if -4 <= x < 0 else 0 for x in _X],
                 dtype=np.uint64)
_EXPONENT = np.array([_word(f"e{x:+03d}") if not -4 <= x <= 16 else 0 for x in _X],
                     dtype=np.uint64)
_MINUS = np.uint64(_word("-"))
_DIGIT_POINT = np.uint64(_word("0.", 6))  # the "0" the first digit is added to, and "."
_COMMA, _CRLF = _word(",", 4), _word("\r\n", 4)

#: the four ASCII digits of 0-9999 at bytes 0, 2, 4 and 6, each followed by "."
_DIGITS = np.zeros(10000, dtype=np.uint64)
#: trailing decimal zeros of 0-9999 as four digits (4 for 0)
_ZEROS = np.zeros(10000, dtype=np.intp)
# built with the operations float_rows uses: each numpy loop run for the first
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


def _percent(values) -> bytes:
    """Each of ``values`` as ``"%.17g"``, NUL-padded to five 64-bit words."""
    return b"".join(("%.17g" % v).encode().ljust(40, b"\0") for v in values)


def float_rows(block) -> bytes:
    """The CSV rows of the 2-d float64 array ``block``: each cell as
    ``"%.17g"``, cells joined by ``,`` and each row ended by ``\\r\\n``."""
    block = np.asarray(block, dtype=np.float64)
    n_rows, n_cols = block.shape
    x = block.ravel()
    a = np.abs(x)
    fast = (a >= 1e-30) & (a < 1e30)
    a[~fast] = 1.0
    # X is floor(e log10 2) or one more, e the binary exponent of a
    e, _ = np.divmod(a.view(np.int64), 1 << 52)
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
    fast &= (n >= _E16) & (np.abs(rest - 0.5) > 1e-6)
    n += up  # half up: "%" rounds an exact tie to even, so ties are left to it
    fast &= n < _E17
    del a, rest, high, up

    groups = np.empty((x.size, 4), dtype=np.intp)
    lead, n = np.divmod(n, _E16)
    for g in range(4):
        groups[:, g], n = np.divmod(n, 10**(12 - 4 * g))
    del n
    zeros = _ZEROS[groups]
    trailing = zeros[:, 3] + (groups[:, 3] == 0) * (
        zeros[:, 2] + (groups[:, 2] == 0) * (zeros[:, 1] + (groups[:, 1] == 0) * zeros[:, 0]))
    del zeros
    int_last = _INT_LAST[i]
    last = np.maximum(16 - trailing, int_last)
    layout = last * 17 + np.where(last > int_last, _POINT_AFTER[i], 16)
    del trailing, int_last, last

    slots = np.empty((x.size, _WORDS), dtype="<u8")
    slots[:, 0] = (lead.astype(np.uint64) << 48) + _DIGIT_POINT
    slots[:, 0] |= _LEAD[i] | (x < 0) * _MINUS
    slots[:, 1:5] = _DIGITS[groups]
    slots[:, :5] &= np.take(_MASK, layout, axis=0)
    del lead, groups, layout
    sep = np.full(n_cols, _COMMA, dtype=np.uint64)
    sep[-1] = _CRLF
    np.bitwise_or(_EXPONENT[i].reshape(n_rows, n_cols), sep,
                  out=slots.reshape(n_rows, n_cols, _WORDS)[:, :, 5])
    del i

    slow = np.flatnonzero(~fast)
    if slow.size:
        slots[slow, :5] = np.frombuffer(_percent(x[slow].tolist()), dtype="<u8").reshape(-1, 5)
        slots[slow, 5] = sep[slow % n_cols]
    chars = slots.view(np.uint8).ravel()
    return np.compress(chars != 0, chars).tobytes()
