"""Exact numpy kernels that print numbers byte for byte as ``'%.12g' % v`` and ``'%d' % v``.

A kernel returns an (n, width) uint8 matrix holding one value's text per row,
padded with NUL bytes anywhere in the row; a number never contains NUL, so
dropping the NULs gives the text.  ``float_fields`` is a certified fast path with
an exact fallback (as in Loitsch's Grisu3): a value whose 12 significant digits
one rounded scaling decides for certain is printed from them, every other value
by ``'%.12g' % v`` itself.  Only + - * /, ``rint``, ``floor`` and comparisons
decide the bytes (``np.log10`` only seeds an exponent that exact comparisons
fix), so they do not depend on numpy's SIMD kernels.  A kernel builds its matrix
slot by slot (one contiguous row per byte position), drops the slots that are NUL
in every row and returns it transposed.
"""

from __future__ import annotations

import numpy as np

_POINT, _MINUS, _ZERO = ord("."), ord("-"), ord("0")
# Per k in 0..99 its tens and its units digit, in ASCII.
_TENS, _UNITS = np.array([divmod(k, 10) for k in range(100)], dtype=np.uint8).T + _ZERO
# The decimal exponents e the tables below cover: a value's seed exponent is clipped to
# [_E_LOW + 1, _E_HIGH - 1], so one fix-up step stays inside.  Only e in [-11, 33] can
# certify: 10**(11 - e) is then an exact double (|11 - e| <= 22); a carry reaches 34.
_E_LOW, _E_HIGH = -13, 36
_EXPONENTS = range(_E_LOW, _E_HIGH + 1)


def _exponent_layout(e: int) -> tuple[bytes, int]:
    """``'%.12g'``'s text around the digits d0 d1 ... of a value whose rounded exponent is ``e``:
    the prefix and suffix (five and four bytes, NUL-padded) and the digit the point follows (-1: none)."""
    if -4 <= e < 0:
        return ("0." + "0" * (-e - 1)).encode().ljust(5, b"\0") + b"\0" * 4, -1
    if 0 <= e < 12:
        return b"\0" * 9, e
    return b"\0" * 5 + b"e%+03d" % e, 0


_LAYOUTS = [_exponent_layout(e) for e in _EXPONENTS]
_AROUND = np.frombuffer(b"".join(text for text, _ in _LAYOUTS), dtype=np.uint8).reshape(-1, 9).T.copy()
_POINT_AFTER = np.array([after for _, after in _LAYOUTS])
_AROUND_SLOTS = np.r_[1:6, 29:33]  # of a float's field: sign, prefix, 12 digits each followed by a point slot, suffix
# y = |v| * _MULTIPLY[e] / _DIVIDE[e] is one correctly rounded * or / by 10**|11 - e| (the
# other factor is 1); outside [-11, 33] the power is clipped and the value never certifies.
_POWERS = [10 ** min(abs(11 - e), 22) for e in _EXPONENTS]
_MULTIPLY = np.array([float(p) if e <= 11 else 1.0 for e, p in zip(_EXPONENTS, _POWERS)])
_DIVIDE = np.array([float(p) if e > 11 else 1.0 for e, p in zip(_EXPONENTS, _POWERS)])
_DIGIT_PAIRS = np.array([1e10, 1e8, 1e6, 1e4, 1e2, 1.0])[:, None]  # a 12-digit integer's pairs, by floor(q / 10**k)
_SIGNIFICANT = np.arange(1, 13, dtype=np.uint8)[:, None]
_BEFORE = np.arange(12)[:, None]


def float_fields(values) -> np.ndarray:
    """Per value of the float array ``values`` (C order, widened exactly to float64) its
    ``'%.12g'`` text as a NUL-padded row.

    With e the decimal exponent, y = |v| 10**(11 - e) lies in [1e11, 1e12) < 2**40, so
    its one rounding error is at most 2**-14.  A y more than 1e-4 from a half-integer
    therefore rounds (``rint``) to the 12 digits of the exact value; 0, -0, nan, +-inf,
    exponents outside [-11, 33] and near-ties go through ``'%.12g' % v``.
    """
    v = np.asarray(values, dtype=np.float64).ravel()
    a = np.abs(v)
    finite = np.isfinite(a) & (a > 0)
    a[~finite] = 1.0
    e = np.floor(np.log10(a)).astype(np.intp)  # a seed, off by one near powers of ten
    e = np.minimum(np.maximum(e, _E_LOW + 1), _E_HIGH - 1) - _E_LOW  # a row of the tables
    y = a * _MULTIPLY[e] / _DIVIDE[e]
    e += y >= 1e12
    e -= y < 1e11
    y = a * _MULTIPLY[e] / _DIVIDE[e]
    q = np.rint(y)
    sure = (finite & (e >= -11 - _E_LOW) & (e <= 33 - _E_LOW) & (y >= 1e11) & (y < 1e12)
            & (np.abs(y - q) < 0.5 - 1e-4))
    np.copyto(q, 1e11, where=~sure)
    carry = q == 1e12  # 999999999999.5 <= y: the digits are 1 and zeros, one decade up
    q[carry] = 1e11
    e += carry
    # The field, slot by slot: sign, prefix, the 12 digits each followed by a point slot, suffix.
    fields = np.empty((6 + 23 + 4, v.size), dtype=np.uint8)
    fields[0] = np.signbit(v) * np.uint8(_MINUS)
    fields[_AROUND_SLOTS] = 0
    if v.size:  # the prefix and suffix slots some exponent of the column fills
        needed = np.logical_or.reduce(_AROUND[:, e.min():e.max() + 1], axis=1)
        for slot, row in zip(_AROUND_SLOTS[needed], _AROUND[needed]):
            fields[slot] = row[e]
    pairs = np.floor(q / _DIGIT_PAIRS)  # exact: floor(q / 10**k) for integers q < 2**40
    pairs[1:] -= 100 * pairs[:-1]
    pairs = pairs.astype(np.intp)
    fields[6:29:4], fields[8:29:4] = _TENS[pairs], _UNITS[pairs]
    # A digit prints up to the last significant one or the point's; the point prints after
    # digit ``after`` if a significant digit follows it.
    digits = fields[6:29:2]
    significant = np.maximum.reduce(_SIGNIFICANT * (digits != _ZERO), axis=0)
    after = _POINT_AFTER[e]
    digits *= _BEFORE < np.maximum(significant, after + 1)
    fields[7:28:2] = 0
    points = np.flatnonzero((after >= 0) & (significant > after + 1))
    fields[7 + 2 * after[points], points] = _POINT
    unsure = np.flatnonzero(~sure)
    if unsure.size:
        texts = np.array([("%.12g" % x).encode() for x in v[unsure].tolist()])  # at most 19 bytes
        fields[:, unsure] = 0
        fields[:texts.itemsize, unsure] = texts.view(np.uint8).reshape(unsure.size, -1).T
    return _trimmed(fields)


def int_fields(values) -> np.ndarray:
    """Per value of the integer or bool array ``values`` (C order) its ``'%d'`` text as a
    NUL-padded row, over the full int64 and uint64 range: divisions by 100 and the
    digit-pair tables."""
    v = np.asarray(values).ravel()
    negative = v < 0
    magnitude = v.astype(np.uint64)
    magnitude = np.where(negative, ~magnitude + np.uint64(1), magnitude)  # |v|, exact for -2**63
    n_pairs = (len(str(int(magnitude.max()))) + 1) // 2 if v.size else 1
    fields = np.empty((1 + 2 * n_pairs, v.size), dtype=np.uint8)  # slot by slot: sign, digits
    fields[0] = negative * np.uint8(_MINUS)
    for slot in range(2 * n_pairs - 1, 0, -2):  # the least significant pair first
        magnitude, pair = np.divmod(magnitude, np.uint64(100))
        pair = pair.astype(np.intp)
        np.take(_TENS, pair, out=fields[slot])
        np.take(_UNITS, pair, out=fields[slot + 1])
    shown = np.zeros(v.size, dtype=bool)
    for digit in fields[1:-1]:  # leading zeros are NUL; the last digit always prints
        shown |= digit != _ZERO
        digit *= shown
    return _trimmed(fields)


def _trimmed(fields: np.ndarray) -> np.ndarray:
    """The (slot, value) matrix ``fields`` without its all-NUL slots, transposed to (value, slot)."""
    return fields[np.logical_or.reduce(fields, axis=1)].T
