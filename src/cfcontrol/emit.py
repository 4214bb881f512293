"""CSV artifacts: every value written as Python's float ``repr``.

``repr`` prints the shortest decimal string that reads back as the same
double, the nearest such string, with ties to the even digit (Gay's
``dtoa``, mode 0).  Ryu (Adams, "Ryu: fast float-to-string conversion",
PLDI 2018) computes the same digits with integer arithmetic alone, and
here each of its steps runs on whole arrays, with no Python call per
value:

* one 64x128-bit multiply-shift per bound of the rounding interval, on
  32-bit limbs, with Ryu's constants looked up by the binary exponent;
* the count of removable digits read off the decimal digits of the two
  bounds: the place of the leading digit where they differ;
* the characters gathered through one template per layout (sign, digit
  count, and ``0.00ddd`` / ``dd.ddd`` / ``ddd00.0`` / ``d.ddde±XX``
  position of the point), then packed by one boolean mask.

A table is formatted in blocks of at most ``_BLOCK_CELLS`` values, so the
memory held while writing does not grow with the table.

Portability: numpy 1.x promotes uint64 combined with a signed integer
array to float64.  Every uint64 operation below combines uint64 arrays
with uint64 arrays or ``np.uint64`` scalars only; the signed quantities
(exponents, digit counts, indices) are ``intp`` arrays made by an
explicit ``astype``.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError

__all__ = ["format_values", "write_csv", "write_text"]

_BLOCK_CELLS = 1 << 11

_U = np.uint64
_M32 = _U(0xFFFFFFFF)
_MANT = _U((1 << 52) - 1)


def _pow5_bits(e):
    return ((e * 1217359) >> 19) + 1


def _multipliers():
    """Ryu's 125-bit tables, as rows of four 32-bit limbs.

    Rows ``q < 342`` hold ``floor(2**(pow5bits(q) + 124) / 5**q) + 1``
    (for e2 >= 0); rows ``342 + i``, ``i < 326``, hold the leading 125
    bits of ``5**i`` (for e2 < 0).
    """
    muls = []
    power = 1
    for q in range(342):
        muls.append((1 << (_pow5_bits(q) + 124)) // power + 1)
        power *= 5
    power = 1
    for i in range(326):
        shift = _pow5_bits(i) - 125
        muls.append(power >> shift if shift >= 0 else power << -shift)
        power *= 5
    return np.array([[(m >> s) & 0xFFFFFFFF for s in (0, 32, 64, 96)]
                     for m in muls], np.uint64)


def _exponent_tables():
    """Ryu's constants per biased exponent (one column each).

    Returns uint64 rows: the multiplier's limbs ``a0..a3``, the right
    shift ``j - 64`` and its complement ``128 - j``, the implicit bit, and
    the mask and value that decide "4·m2 is a multiple of 2**q"; then
    ``5**q``, the decimal exponent ``e10`` and the rare class (1: e2 >= 0
    and q <= 21, 2: e2 < 0 and q <= 1, else 0), which needs ``5**q``.
    """
    bexp = np.arange(2048)
    e2 = np.maximum(bexp, 1) - 1077
    up = e2 >= 0
    q = np.where(up, ((e2 * 78913) >> 18) - (e2 > 3),
                 ((-e2 * 732923) >> 20) - (-e2 > 1))
    i = -e2 - q
    j = np.where(up, q + _pow5_bits(q) + 124 - e2, q - _pow5_bits(i) + 125)
    limbs = _multipliers()[np.where(up, q, 342 + i)].T
    two_adic = ~up & (q < 63)
    tz_mask = np.where(two_adic, np.left_shift(
        _U(1), np.minimum(q, 63).astype(np.uint64)) - _U(1), _U(0))
    five_adic = up & (q <= 21)
    pow5 = np.where(five_adic, _U(5) ** np.minimum(q, 21).astype(np.uint64),
                    _U(1))
    rows = np.vstack((limbs, np.stack(
        (j - 64, 128 - j, np.where(bexp > 0, 1 << 52, 0))).astype(np.uint64),
        tz_mask, (~two_adic).astype(np.uint64)))
    rare = np.where(five_adic, 1, np.where(~up & (q <= 1), 2, 0))
    return rows, pow5, np.where(up, q, q + e2), rare


_EXP_ROWS, _POW5, _E10, _RARE = _exponent_tables()

_POW10 = np.array([10**k for k in range(20)], np.uint64)
_POW10_PREV = np.concatenate((_POW10[:1], _POW10[:-1]))
_U10K = _U(10000)
# the interval bounds are 4·m2 + (0, 2, -gap)
_OFFSETS = np.array([[0], [2], [0]], np.uint64)


def _four_digits():
    """The four ASCII digits of every number below 10**4, one uint32 each."""
    table = np.empty((10, 10, 10, 10, 4), np.uint8)
    digits = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
    for place in range(4):
        table[..., place] = digits.reshape((10,) + (1,) * (3 - place))
    return table.view(np.uint32).reshape(10000)


_DIG4 = _four_digits()


def _templates():
    """Character templates: one row of source columns per cell layout.

    A cell's source row holds the 20 digits of the shortest decimal
    (right-aligned, columns 0-19), the 4 digits of the decimal exponent's
    magnitude (20-23), then the characters of ``_CONSTANTS``; the last is
    the separator after the cell.  Layout ``(place, ndigits)`` has id
    ``place·17 + ndigits - 1``: place 0-19 is the fixed-point form with
    ``decpt = place - 3``, 20-23 the exponent form (sign, two or three
    digits).  Ids ``_ZERO``, ``_INF`` and ``_NAN`` follow; adding ``_NEG``
    to an id prefixes a minus sign.
    """
    col = {ch: 24 + k for k, ch in enumerate(_CONSTANTS)}
    zero, point = col["0"], col["."]
    rows = []
    for place in range(24):
        for ndig in range(1, 18):
            digits = list(range(20 - ndig, 20))
            decpt = place - 3
            if place >= 20:
                wide, negexp = divmod(place - 20, 2)
                body = digits[:1] + [point] * (ndig > 1) + digits[1:] \
                    + [col["e"], col["-" if negexp else "+"]] \
                    + list(range(22 - wide, 24))
            elif decpt <= 0:
                body = [zero, point] + [zero] * -decpt + digits
            elif decpt < ndig:
                body = digits[:decpt] + [point] + digits[decpt:]
            else:
                body = digits + [zero] * (decpt - ndig) + [point, zero]
            rows.append(body)
    rows += [[col[ch] for ch in text] for text in ("0.0", "inf", "nan")]
    width = max(map(len, rows)) + 2
    table = np.array([row + [col[","]] * (width - len(row)) for row in rows],
                     np.uint8)
    lengths = np.array([len(row) + 1 for row in rows], np.intp)
    signed = np.concatenate((np.full_like(table[:, :1], col["-"]),
                             table[:, :-1]), axis=1)
    return np.concatenate((table, signed)), np.concatenate((lengths,
                                                            lengths + 1))


_CONSTANTS = "-.0e+infa,"
_NEG = 24 * 17 + 3
_ZERO, _INF, _NAN = _NEG - 3, _NEG - 2, _NEG - 1
_TPL, _TPL_LEN = _templates()
_TPL_COLUMNS = np.arange(_TPL.shape[1])
_SRC_WIDTH = 24 + len(_CONSTANTS)
_CONSTANT_BYTES = np.frombuffer(_CONSTANTS.encode(), np.uint8)

# per decimal point position decpt in [-400, 400]: the layout place as
# the id offset ``place·17 - 1`` (the digit count is added after), and the
# digits of the exponent ``|decpt - 1|`` of the exponent form
_DECPT = np.arange(-400, 401)
_PLACE = np.where((_DECPT > -4) & (_DECPT < 17), _DECPT + 3,
                  20 + (_DECPT < 1) + 2 * (np.abs(_DECPT - 1) > 99)) * 17 - 1
_EXP_DIGITS = _DIG4.take(np.abs(_DECPT - 1))


def _mul_shift(m, a0, a1, a2, a3, shift, cshift):
    """``floor(m·mul / 2**j)`` for ``m < 2**55``, exactly, in uint64.

    ``mul = a3·2**96 + a2·2**64 + a1·2**32 + a0`` in 32-bit limbs,
    ``shift = j - 64`` and ``cshift = 128 - j``, with ``j`` in [118, 125]
    so the result fits in 64 bits.  ``m1 < 2**23``, so no partial sum
    below overflows.
    """
    m0 = m & _M32
    m1 = m >> _U(32)
    p01 = m0 * a1
    p10 = m1 * a0
    mid = (m0 * a0 >> _U(32)) + (p01 & _M32) + (p10 & _M32)
    # floor(m·(a1·2**32 + a0) / 2**64)
    low = m1 * a1 + (p01 >> _U(32)) + (p10 >> _U(32)) + (mid >> _U(32))
    p02 = m0 * a2
    p12 = m1 * a2
    p03 = m0 * a3
    t0 = (p02 & _M32) + (low & _M32)
    t1 = (p12 & _M32) + (p03 & _M32) + (t0 >> _U(32)) + (p02 >> _U(32)) \
        + (low >> _U(32))
    hi = m1 * a3 + (p12 >> _U(32)) + (p03 >> _U(32)) + (t1 >> _U(32))
    lo = (t0 & _M32) | (t1 << _U(32))
    return (lo >> shift) | (hi << cshift)


def _digits(x):
    """The 20 decimal digits of each uint64 of ``x``, as zero-padded ASCII
    bytes along a new last axis."""
    groups = np.empty(x.shape + (5,), np.intp)
    for col in (4, 3, 2, 1):
        x, groups[..., col] = np.divmod(x, _U10K)
    groups[..., 0] = x
    return _DIG4.take(groups).view(np.uint8)


def _shortest(bexp, mant):
    """Ryu's shortest digits: the integer ``out`` and the exponent ``e``
    with value ``out × 10**e``."""
    a0, a1, a2, a3, shift, cshift, hidden, tz_mask, tz_value = \
        _EXP_ROWS.take(bexp, axis=1)
    m2 = mant | hidden
    mv = m2 << _U(2)
    # the interval's lower bound sits closer below a power of two
    mm_gap = np.where((mant == _U(0)) & (bexp > 1), _U(1), _U(2))
    m = mv + _OFFSETS
    m[2] -= mm_gap
    v = _mul_shift(m, a0, a1, a2, a3, shift, cshift)
    vr, vp, vm = v
    accept = (m2 & _U(1)) == _U(0)
    vr_tz = (mv & tz_mask) == tz_value
    vm_tz = np.zeros(mv.size, bool)

    rare = _RARE.take(bexp)
    big = np.flatnonzero(rare)
    if big.size:
        one, two = rare[big] == 1, rare[big] == 2
        mvb, acc = mv[big], accept[big]
        pow5 = _POW5.take(bexp[big])
        five = one & (mvb % _U(5) == _U(0))
        vr_tz[big] |= five & (mvb % pow5 == _U(0))
        not5 = one & ~five
        vm_tz[big] = (not5 & acc & ((mvb - mm_gap[big]) % pow5 == _U(0))) \
            | (two & acc & (mm_gap[big] == _U(2)))
        vp[big] -= ((not5 & ~acc & ((mvb + _U(2)) % pow5 == _U(0)))
                    | (two & ~acc)).astype(np.uint64)

    # Ryu drops digits while vp // 10 > vm // 10: as many as the place of
    # the leading digit where vp and vm differ (vp > vm always)
    digits = _digits(v[1:])
    removed = 19 - (digits[0] != digits[1]).argmax(axis=1)
    tz = np.flatnonzero(vm_tz)
    if tz.size:
        # an exact lower bound loses its trailing zeros too, if all the
        # dropped digits were zeros
        zeros = (digits[1, tz, ::-1] != ord("0")).argmax(axis=1)
        vm_tz[tz] = zeros >= removed[tz]
        removed[tz] = np.maximum(zeros, removed[tz])

    ten = _POW10.take(removed)
    out, rest = np.divmod(vr, ten)
    last, rest = np.divmod(rest, _POW10_PREV.take(removed))
    vr_tz &= rest == _U(0)
    tie_to_even = vr_tz & ((out & _U(1)) == _U(0))
    round_up = (last > _U(5)) | ((last == _U(5)) & ~tie_to_even) \
        | ((out == np.divmod(vm, ten)[0]) & ~(accept & vm_tz))
    out += round_up
    return out, _E10.take(bexp) + removed


def format_values(block):
    """The CSV bytes of a 2-D float64 array: each value's ``repr``, values
    of a row joined by ``,``, each row ended by a newline."""
    block = np.ascontiguousarray(block, dtype=np.float64)
    rows, cols = block.shape
    bits = block.reshape(-1).view(np.uint64)
    bexp = (bits >> _U(52)).astype(np.intp) & 0x7FF
    mant = bits & _MANT
    out, exp10 = _shortest(bexp, mant)
    digits = _digits(out)
    ndigits = 20 - (digits != ord("0")).argmax(axis=1)
    decpt = exp10 + ndigits

    neg = (bits >> _U(63)).astype(np.intp)
    at = decpt + 400
    tid = _PLACE.take(at) + ndigits
    special = np.flatnonzero((bexp == 0x7FF) | ((bits << _U(1)) == _U(0)))
    if special.size:
        # repr drops the sign of a nan
        tid[special] = np.where(bexp[special] == 0, _ZERO,
                                np.where(mant[special] == _U(0), _INF, _NAN))
        neg[special[tid[special] == _NAN]] = 0
    tid += neg * _NEG

    src = np.empty((bits.size, _SRC_WIDTH), np.uint8)
    src[:, :20] = digits
    src[:, 20:24] = _EXP_DIGITS.take(at).view(np.uint8).reshape(-1, 4)
    src[:, 24:] = _CONSTANT_BYTES
    src.reshape(rows, cols, _SRC_WIDTH)[:, -1, -1] = ord("\n")

    rows_at = np.arange(0, src.size, _SRC_WIDTH)[:, None]
    cells = src.reshape(-1).take(_TPL.take(tid, axis=0) + rows_at)
    return cells[_TPL_LEN.take(tid)[:, None] > _TPL_COLUMNS]


def _write(path, chunks):
    try:
        with open(path, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
    except OSError as exc:
        raise ConfigError(
            f"cannot write {path}: {exc.strerror or exc}") from exc


def write_text(path, text):
    """Write ``text`` to ``path`` as UTF-8; a failed write is a ConfigError."""
    _write(path, [text.encode("utf-8")])


def write_csv(path, header, *columns):
    """Write a CSV file: the ``header`` names, then one line per row.

    ``columns`` are 1-D arrays (one CSV column each) or 2-D arrays (one CSV
    column per array column), all with the same number of rows.  Every
    value is written as its ``repr``; a failed write is a ConfigError.
    """
    parts = [np.asarray(c, dtype=np.float64) for c in columns]
    parts = [p.reshape(len(p), -1) for p in parts]
    rows = len(parts[0])
    width = sum(p.shape[1] for p in parts)
    step = max(1, _BLOCK_CELLS // width)

    def chunks():
        yield (",".join(header) + "\n").encode("utf-8")
        block = np.empty((min(step, rows), width))
        for start in range(0, rows, step):
            part = block[:min(step, rows - start)]
            left = 0
            for p in parts:
                part[:, left:left + p.shape[1]] = p[start:start + len(part)]
                left += p.shape[1]
            yield format_values(part)

    _write(path, chunks())
