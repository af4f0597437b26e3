"""The text of float64 and integer columns, built by column in numpy.

``float_cells`` gives each value's ``'%.17g' % v`` (CSV) or ``repr(v)``
(JSON), and ``int_cells`` each int64's ``'%d'`` text, as rows of ASCII
bytes in a 2-D uint8 array. A cell's NUL bytes, at its end or inside it, are
not part of its text: a writer lays cells beside their separators and removes
every NUL at once.

The digits are exact, not approximate. ``|x|·10^s``, scaled to 17 integer
digits, is formed as a double-double product (Dekker, *Numer. Math.* 18, 224
(1971)): ``10^s`` is an exact hi + lo pair built with int arithmetic, and
every product and sum is one correctly rounded numpy ufunc, so the integer
part is exact in int64 and the fraction is within about 1e-14 of its true
value. ``'%.17g'`` rounds that to 17 digits, half to even; ``repr`` takes the
fewest digits whose decimal lies inside the interval that rounds back to
``x`` (half an ulp on each side), and of those the nearest to ``x``, as
Python's shortest repr does. Wherever a decision lands within ``MARGIN`` of
its threshold, the cell falls back to the Python call it replaces, as Grisu3
does (Loitsch, PLDI 2010). So do zero, non-finite values, ``|x|`` outside
``[2^-930, 2^930)`` (about 1e±280), and, for ``repr``, exact powers of two,
whose interval is not symmetric. The decimal exponent is seeded from
``np.frexp``'s exact binary exponent, so no transcendental function decides a
digit.

The arrays are built a row per character, (characters, values), so that
every numpy call runs along the values, and turned to a row per value at the
end.
"""
from __future__ import annotations

import functools

import numpy as np

#: a rounding or interval decision closer than this to its threshold, in units
#: of the 17th digit, is left to Python (the double-double error is < 1e-13)
MARGIN = 2.0 ** -30
#: the binary exponents (of ``np.frexp``) whose values are formatted here
E2_MIN, E2_MAX = -929, 930
#: a float cell: a sign, four leading zeros and 17 digits with a point among
#: them, then 'e', the exponent's sign and three digits
WIDTH = 1 + 21 + 1 + 5
_SPLIT = 2.0 ** 27 + 1.0  # Veltkamp's splitter for a 53-bit significand
_ZERO = ord("0")


def _floor_log10_pow2(e):
    """floor(e·log10 2) for |e| < 1650, in integers."""
    return (e * 78913) >> 18


_S_MIN = 16 - _floor_log10_pow2(E2_MAX - 1) - 1
_S_MAX = 16 - _floor_log10_pow2(E2_MIN - 1)


def _split(a):
    """Veltkamp's split of ``a`` into a high half and an exact low half."""
    high = a * _SPLIT
    high -= high - a
    return high, a - high


@functools.cache
def _powers():
    """``10^s`` for s in [_S_MIN, _S_MAX] as rows of exact pairs: ``hi``
    correctly rounded, ``lo`` the correctly rounded rest, and ``hi``'s
    Veltkamp halves."""
    hi, lo = [], []
    for s in range(_S_MIN, _S_MAX + 1):
        if s >= 0:
            exact = 10 ** s
            hi.append(float(exact))
            lo.append(float(exact - int(hi[-1])))
        else:
            # int / int is correctly rounded, and the rest is exact in ints
            denominator = 10 ** -s
            hi.append(1 / denominator)
            num, den = hi[-1].as_integer_ratio()
            lo.append((den - num * denominator) / (den * denominator))
    hi = np.array(hi)
    return np.stack([hi, np.array(lo), *_split(hi)])


@functools.cache
def _quads():
    """'0000'..'9999' as uint32 cells, indexed by their value."""
    value = np.arange(10_000, dtype=np.uint16)  # no transient larger than the table
    ascii = np.empty((value.size, 4), np.uint8)
    for pos, place in enumerate((1000, 100, 10, 1)):
        ascii[:, pos] = value // place % 10 + _ZERO
    return ascii.view(np.uint32).ravel()


def _decimal(u, groups):
    """The last ``4·groups`` ASCII digits of each non-negative integer of
    ``u``, leading zeros included, as a (4·groups, len(u)) uint8 array."""
    out = np.empty((u.size, groups), np.uint32)
    quads = _quads()
    for pos in range(groups - 1, -1, -1):
        q = u // 10_000
        out[:, pos] = quads[u - q * 10_000]
        u = q
    return np.ascontiguousarray(out.view(np.uint8).T)


def _scaled(ax, e2, shortest):
    """``ax·10^s`` for floats ``ax`` > 0 of binary exponent ``e2``, with s
    chosen so that it lies in [10^16, 10^17) save within a rounding of the
    ends: its integer part (int64), its fraction, s, whether the product is
    exact (10^s an exact double), and, with ``shortest``, half an ulp of
    ``ax`` on the same scale."""
    s = 16 - _floor_log10_pow2(e2 - 1)
    index = s - _S_MIN
    index -= ax * _powers()[0][index] >= 1e17
    ph, pl, ph_h, ph_l = np.take(_powers(), index, axis=1)
    hi = ax * ph
    ah, al = _split(ax)
    # Dekker's exact product error ax·ph − hi, summed in his order, then the
    # low part of 10^s
    lo = ah * ph_h
    lo -= hi
    lo += ah * ph_l
    lo += al * ph_h
    lo += al * ph_l
    lo += ax * pl
    half_ulp = None
    if shortest:
        half_ulp = np.ldexp(1.0, e2 - 54)
        half_ulp = half_ulp * ph + half_ulp * pl
    whole = np.floor(lo)
    lo -= whole
    whole = whole.astype(np.int64)
    whole += hi.astype(np.int64)
    return whole, lo, index + _S_MIN, pl == 0, half_ulp


def float_cells(values, shortest: bool, fallback) -> np.ndarray:
    """The text of each float64 of ``values`` as a (len, at most WIDTH)
    uint8 array of NUL-padded ASCII cells: ``repr(v)`` with ``shortest``, else
    ``'%.17g' % v``. A value that is not formatted here gets
    ``fallback(float(v))``, which must be that same text (or, for a JSON
    column, ``json.dumps``'s)."""
    x = np.asarray(values, dtype=np.float64)
    ax = np.abs(x)
    mantissa, e2 = np.frexp(ax)
    # no zero, infinity or NaN
    handled = ax >= 2.0 ** (E2_MIN - 1)
    handled &= ax < 2.0 ** E2_MAX
    if shortest:
        handled &= mantissa != 0.5
    del mantissa
    e2[~handled] = 1
    ax[~handled] = 1.0
    whole, frac, s, exact, half_ulp = _scaled(ax, e2, shortest)
    del ax, e2
    # the scale misses 17 digits only within a rounding of a power of ten
    handled &= whole >= 10 ** 16
    handled &= whole < 10 ** 17
    # round half to even at the 17th digit
    digits = whole + ((frac > 0.5) | ((frac == 0.5) & (whole % 2 == 1)))
    uncertain = np.abs(frac - 0.5) < MARGIN
    if shortest:
        _shortest(digits, whole, frac, half_ulp, uncertain)
    else:
        uncertain &= ~exact
    fallback_at = uncertain | ~handled
    del whole, frac, half_ulp, uncertain, handled, exact
    # 10^17 is one digit at the next exponent
    carry = digits == 10 ** 17
    digits[carry | fallback_at] = 10 ** 16
    cells = _layout(digits, 16 - s + carry, x < 0, shortest)
    for i in np.flatnonzero(fallback_at).tolist():
        text = fallback(float(x[i])).encode()
        cells[:, i] = 0
        cells[:len(text), i] = np.frombuffer(text, np.uint8)
    # a row of NULs is no character of any cell
    return np.ascontiguousarray(cells[cells.any(axis=1)].T)


def _shortest(digits, whole, frac, half_ulp, uncertain) -> None:
    """Python's repr digits, in place of the rounded 17 in ``digits``: the
    fewest inside the round-trip interval ``whole + frac ± half_ulp`` (0.55 <=
    half_ulp < 11.2), and of those the nearest. ``uncertain`` gains every
    value with an end of its interval, or a choice of nearest, within MARGIN
    of a decision."""
    below = frac - half_ulp
    above = frac + half_ulp
    for end in (below, above):
        uncertain |= np.abs(end - np.rint(end)) < MARGIN
    low = np.ceil(below).astype(np.int64)
    low += whole
    high = np.floor(above).astype(np.int64)
    high += whole
    del below, above
    # the step of the last digit rises by powers of ten while a multiple of
    # it stays inside; each pass looks only at the values that went on
    going = np.arange(whole.size)
    power = 1
    while going.size and power < 10 ** 17:
        power *= 10
        going = going[(high[going] // power) * power >= low[going]]
        if power == 10:
            # of the multiples of 10 inside (at most three), the nearest
            tens = whole[going] // 10
            rest = frac[going] + (whole[going] - tens * 10)
            digits[going] = (tens + (rest > 5)) * 10
            uncertain[going] |= np.abs(rest - 5) < MARGIN
        else:
            # the interval is narrower than 23, so one multiple of 100 or more
            digits[going] = (high[going] // power) * power


def _layout(digits, e10, negative, shortest):
    """The cells of 17-digit integers ``digits`` at decimal exponent ``e10``,
    a row per character: fixed point for -4 <= e10 < 17 ('%.17g') or < 16
    (repr, which also writes '.0' after an integer), else d.ddde±XX; trailing
    zeros of the fraction dropped."""
    n = digits.size
    row = np.arange(21, dtype=np.uint8)[:, None]
    ext = np.empty((21, n), np.uint8)  # four leading zeros, then the 17 digits
    ext[:4] = _ZERO
    leading = digits // 10 ** 16
    ext[4] = leading + _ZERO
    ext[5:] = _decimal(digits - leading * 10 ** 16, 4)
    mask = ext != _ZERO
    last = np.max(np.multiply(mask, row, dtype=np.uint8), axis=0)  # the last non-zero digit
    fixed = e10 >= -4
    fixed &= e10 < (16 if shortest else 17)
    point = (np.where(fixed, e10, 0) + 4).astype(np.uint8)  # the point follows ext[point]
    np.maximum(last, point, out=last)
    if shortest:
        last += fixed & (last == point)
    # shown: first <= row <= last, with first = min(point, 4)
    first = np.minimum(point, 4)
    np.less_equal(row - first, last - first, out=mask)  # uint8: a row above first wraps
    ext *= mask
    cells = np.zeros((WIDTH, n), np.uint8)
    np.multiply(negative, ord("-"), out=cells[0], casting="unsafe")
    body = cells[1:23]
    np.less_equal(row, point, out=mask)
    np.multiply(ext, mask, out=body[:21])
    np.logical_not(mask, out=mask)
    np.copyto(body[1:], ext, where=mask)
    del ext, mask
    dot = (last > point).astype(np.uint8)
    dot *= ord(".")
    body[point + 1, np.arange(n)] = dot
    exponent = ~fixed
    magnitude = np.abs(e10)
    np.multiply(exponent, ord("e"), out=cells[23], casting="unsafe")
    cells[24] = np.where(e10 < 0, ord("-"), ord("+"))
    cells[25:] = _quads()[magnitude].view(np.uint8).reshape(n, 4)[:, 1:].T
    cells[25] *= magnitude >= 100
    cells[24:] *= exponent
    return cells


def int_cells(values) -> np.ndarray:
    """The ``'%d'`` text of each int64 of ``values`` as NUL-padded ASCII
    cells."""
    values = np.asarray(values, dtype=np.int64)
    negative = values < 0
    # -(-2^63) wraps to itself, whose uint64 view is 2^63
    magnitude = np.where(negative, -values, values).view(np.uint64)
    width = len(str(int(magnitude.max()))) if magnitude.size else 1
    digits = _decimal(magnitude, -(-width // 4))[-width:]
    # the first digit shown is the first that is not zero, or the last
    rows_from_end = np.arange(width, 0, -1, dtype=np.uint8)[:, None]
    first = np.minimum(width - ((digits != _ZERO) * rows_from_end).max(axis=0), width - 1)
    cells = np.empty((1 + width, values.size), np.uint8)
    cells[0] = negative * ord("-")
    cells[1:] = digits * (np.arange(width)[:, None] >= first)
    return np.ascontiguousarray(cells.T)
