"""CSV artifacts: every value written as Python's float ``repr``.

``repr`` prints the shortest decimal string that reads back as the same
double, the nearest such string, with ties to the even digit (Gay's
``dtoa``, mode 0).  Dragonbox (Jeon, "Dragonbox: A New Floating-Point
Binary-to-Decimal Conversion Algorithm", 2020) computes the same digits
with integer arithmetic alone.  Its nearest-to-even path for binary64,
with kappa = 2, runs here on whole arrays, with no Python call per value:

* one 64x128-bit product per value: ``z·phi_k`` for the upper end ``z =
  (2fc + 1)·2**beta`` of the rounding interval, on 32-bit halves, with
  ``phi_k``, ``beta`` and ``delta`` looked up by the binary exponent;
* a floor division of its top 64 bits by 1000.  The quotient is the
  digits when the remainder is below ``delta``, less its trailing zeros;
  otherwise the digits are ten times it plus ``dist // 100``;
* the rare cases, on their subsets only: a remainder equal to ``delta``,
  an excluded upper end, and a ``dist`` divisible by 100, each settled by
  the parity of a second product.  The shorter interval below a power of
  two is settled per exponent, in a table;
* the characters gathered through one template per layout (sign, digit
  count, and ``0.00ddd`` / ``dd.ddd`` / ``ddd00.0`` / ``d.ddde±XX``
  position of the point), padded with NUL and packed by
  ``bytes.translate``.  The newline is a template variant: each layout
  has a second template that ends the cell with the newline column in
  place of the comma, and a line's last cell takes it, so no source byte
  is patched for a file.

Files are cut from one table (:func:`write_csvs`).  The table is taken
in blocks of at most ``_CORE_CELLS`` cells, counted over all its
columns; each block's digits are found once, and each file's lines for
the block are one gather from the block's source rows.  So a column that
several files print (``tau`` and ``t`` of ``trajectory.csv`` and
``control.csv``) is formatted once, and the memory held while writing
does not grow with the table.

Portability: numpy 1.x promotes uint64 combined with a signed integer
array to float64.  Every uint64 operation below combines uint64 arrays
with uint64 arrays or ``np.uint64`` scalars only; the signed quantities
(exponents, digit counts, indices) are ``intp`` arrays made by an
explicit ``astype``.
"""

from __future__ import annotations

import contextlib
import itertools

import numpy as np

from .errors import ConfigError

__all__ = ["format_values", "write_csv", "write_csvs", "write_text"]

# The shortest digits are found on blocks of _CORE_CELLS table cells,
# which spreads the core's fixed cost per call
_CORE_CELLS = 1 << 12

_U = np.uint64
_M32 = _U(0xFFFFFFFF)
_MANT = _U((1 << 52) - 1)


def _floor_log2_pow10(k):
    return (k * 1741647) >> 19


def _cache():
    """Dragonbox's multipliers ``phi_k = ceil(10**k · 2**(127 - floor(k
    log2 10)))``, ``2**127 <= phi_k < 2**128``, for ``k`` in [-292, 326]:
    row ``k + 292`` holds the high and the low 64-bit word."""
    powers = [1]
    for _ in range(326):
        powers.append(10 * powers[-1])
    words = []
    for k in range(-292, 327):
        shift = 127 - _floor_log2_pow10(k)
        if k < 0:
            phi = -(-(1 << shift) // powers[-k])
        elif shift < 0:
            phi = -(-powers[k] >> -shift)
        else:
            phi = powers[k] << shift
        words.append(phi.to_bytes(16, "big"))
    return np.frombuffer(b"".join(words), ">u8").astype(np.uint64) \
        .reshape(-1, 2)


def _strip_zeros(out, exp10):
    """``out`` without its trailing decimal zeros, and ``exp10`` raised by
    their count."""
    for k in (16, 8, 4, 2, 1):
        q = out // _U(10**k)
        whole = q * _U(10**k) == out
        out = np.where(whole, q, out)
        exp10 = exp10 + k * whole
    return out, exp10


def _shorter(e, hi):
    """The shortest digits of ``2**e · 2**52`` (Dragonbox's shorter interval
    case: the lower neighbour is half as far as the upper one), given the
    high word ``hi`` of ``phi_k`` at ``k = -minus_k``.  Returns ``(out,
    exp10)`` with value ``out × 10**exp10``."""
    minus_k = (e * 631305 - 261663) >> 21
    beta = (e + _floor_log2_pow10(-minus_k)).astype(np.uint64)
    # the interval is closed; its left endpoint is an integer for e in
    # {2, 3} only
    xi = ((hi - (hi >> _U(54))) >> (_U(11) - beta)) \
        + ((e < 2) | (e > 3)).astype(np.uint64)
    zi = (hi + (hi >> _U(53))) >> (_U(11) - beta)
    coarse = zi // _U(10)
    if_wide = _strip_zeros(coarse, minus_k + 1)
    y = ((hi >> (_U(10) - beta)) + _U(1)) >> _U(1)
    # at e = -77, y may be a tie: it rounds to the even digit
    tie = (e == -77) & ((y & _U(1)) == _U(1))
    y = y - tie + (~tie & (y < xi))
    wide = coarse * _U(10) >= xi
    return np.where(wide, if_wide[0], y), np.where(wide, if_wide[1], minus_k)


def _exponent_tables():
    """Dragonbox's constants per biased exponent (one column each).

    Returns uint64 rows: ``phi_k``'s high word and its 32-bit halves, its
    low word's 32-bit halves, the implicit bit, ``beta``, ``delta`` and
    ``50 - delta // 2`` (mod 2**64); then the decimal exponent of the
    digits found with the divisor 100, ``minus_k + 2``; and the shorter
    interval's digits and exponent.
    """
    bexp = np.arange(2048)
    e = np.maximum(bexp, 1) - 1075
    cache = _cache()
    minus_k = ((e * 315653) >> 20) - 2
    beta = (e + _floor_log2_pow10(-minus_k)).astype(np.uint64)
    hi, lo = cache[292 - minus_k].T
    delta = hi >> (_U(63) - beta)
    rows = np.stack((hi, hi & _M32, hi >> _U(32), lo & _M32, lo >> _U(32),
                     np.where(bexp > 0, 1 << 52, 0).astype(np.uint64), beta,
                     delta, _U(50) - (delta >> _U(1))))
    short_minus_k = (e * 631305 - 261663) >> 21
    return (rows, minus_k + 2) + _shorter(e, cache[292 - short_minus_k, 0])


_EXP_ROWS, _E10, _SHORT_OUT, _SHORT_E10 = _exponent_tables()

_POW10 = np.array([10**k for k in range(20)], np.uint64)
_U10K = _U(10000)
_U1000 = _U(1000)
_U100 = _U(100)


def _high_word(x0, x1, y0, y1):
    """The high 64 bits of ``x·y`` for ``x = x1·2**32 + x0`` and ``y =
    y1·2**32 + y0``, 32-bit halves, with ``x1 < 2**31`` so that no partial
    sum overflows."""
    t = x0 * y1 + (x0 * y0 >> _U(32))
    u = (t & _M32) + x1 * y0
    return x1 * y1 + (t >> _U(32)) + (u >> _U(32))


def _parity(x, rows):
    """Dragonbox's parity test of ``x·phi_k·2**(beta - 128)``, for ``x <
    2**63`` and the exponent table's ``rows``: the lowest bit of its
    integer part, and whether the next 64 bits, which decide whether it is
    an integer, are zero."""
    hi, _, _, lo0, lo1, _, beta = rows[:7]
    high = x * hi + _high_word(x & _M32, x >> _U(32), lo0, lo1)
    low = x * ((lo1 << _U(32)) | lo0)
    odd = ((high >> (_U(64) - beta)) & _U(1)) == _U(1)
    return odd, ((high << beta) | (low >> (_U(64) - beta))) == _U(0)


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
    magnitude (20-23), then the characters of ``_CONSTANTS``; the last two
    are the separators after a cell, comma and newline, and the first is
    NUL, which pads every template to the same width and is dropped when
    the cells are packed.
    Layout ``(place, ndigits)`` has id
    ``place·17 + ndigits - 1``: place 0-19 is the fixed-point form with
    ``decpt = place - 3``, 20-23 the exponent form (sign, two or three
    digits).  Ids ``_ZERO``, ``_INF`` and ``_NAN`` follow; adding ``_NEG``
    to an id prefixes a minus sign, and adding ``_NL`` ends the cell with
    the newline column in place of the comma.
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
    table = np.array([row + [col[","]] + [col["\0"]] * (width - len(row) - 1)
                      for row in rows], np.uint8)
    signed = np.concatenate((np.full_like(table[:, :1], col["-"]),
                             table[:, :-1]), axis=1)
    table = np.concatenate((table, signed))
    return np.concatenate((table, np.where(table == col[","], col["\n"],
                                           table)))


_CONSTANTS = "\0-.0e+infa,\n"
_NEG = 24 * 17 + 3
_NL = 2 * _NEG
_ZERO, _INF, _NAN = _NEG - 3, _NEG - 2, _NEG - 1
_TPL = _templates()
_SRC_WIDTH = 24 + len(_CONSTANTS)
# a source row is nine 4-byte words: five of digits, one of exponent
# digits and three of constants
_CONSTANT_WORDS = np.frombuffer(_CONSTANTS.encode(), np.uint32)

# per decimal point position decpt in [-400, 400]: the layout place as
# the id offset ``place·17 - 1`` (the digit count is added after), and the
# digits of the exponent ``|decpt - 1|`` of the exponent form
_DECPT = np.arange(-400, 401)
_PLACE = np.where((_DECPT > -4) & (_DECPT < 17), _DECPT + 3,
                  20 + (_DECPT < 1) + 2 * (np.abs(_DECPT - 1) > 99)) * 17 - 1
_EXP_DIGITS = _DIG4.take(np.abs(_DECPT - 1))


def _digit_groups(x):
    """The 20 decimal digits of each uint64 of ``x`` as five numbers below
    10**4, most significant first, along a new last axis."""
    groups = np.empty(x.shape + (5,), np.intp)
    for col in (4, 3, 2, 1):
        # numpy divides by a scalar through libdivide; np.divmod does not
        q = x // _U10K
        groups[..., col] = x - q * _U10K
        x = q
    groups[..., 0] = x
    return groups


def _shortest(bexp, mant):
    """Dragonbox's shortest digits: the integer ``out`` and the exponent
    ``exp10`` with value ``out × 10**exp10``."""
    rows = _EXP_ROWS.take(bexp, axis=1)
    hi, hi0, hi1, lo0, lo1, hidden, beta, delta, offset = rows
    two_fc = (mant | hidden) << _U(1)
    # z·phi_k for the interval's upper end z = (2fc + 1)·2**beta: its top
    # 64 bits zi, and whether the 64 bits below them are zero
    z = (two_fc | _U(1)) << beta
    z0 = z & _M32
    z1 = z >> _U(32)
    carry_in = z * hi
    middle = carry_in + _high_word(z0, z1, lo0, lo1)
    zi = _high_word(z0, z1, hi0, hi1) + (middle < carry_in)
    s = zi // _U1000
    r = zi - s * _U1000
    # with the divisor 1000 the digits are s when r < delta
    wide = r < delta

    edge = np.flatnonzero(r == _U(0))
    if edge.size:
        edge = edge[(middle[edge] == _U(0))
                    & ((two_fc[edge] & _U(2)) != _U(0))]
    if edge.size:
        # an odd fc excludes the interval's upper end, which z then is
        wide[edge] = False
        s[edge] -= _U(1)
        r[edge] = _U1000
    tie = np.flatnonzero(r == delta)
    if tie.size:
        # r == delta: the lower end decides, through (2fc - 1)·phi_k
        odd, whole = _parity(two_fc[tie] - _U(1), rows[:, tie])
        wide[tie] = odd | (whole & ((two_fc[tie] & _U(2)) == _U(0)))

    # with the divisor 100 they are 10·s + dist // 100, dist = r -
    # delta // 2 + 50
    dist = r + offset
    q = dist // _U100
    out = np.where(wide, s, s * _U(10) + q)
    exp10 = _E10.take(bexp) + wide
    close = np.flatnonzero(q * _U100 == dist)
    close = close[~wide[close]]
    if close.size:
        # the nearest digits may be one lower: the parity of 2fc·phi_k
        # tells, and an exact tie (an integer 2fc·phi_k) goes to the even
        # digit
        odd, whole = _parity(two_fc[close], rows[:, close])
        guess = ((dist[close] ^ _U(50)) & _U(1)) == _U(1)
        out[close] -= (odd != guess) | (whole & ((out[close] & _U(1))
                                                 == _U(1)))

    # the digits s may end in zeros, which repr does not print
    keep = np.flatnonzero(wide)
    keep = keep[(s[keep] // _U(10)) * _U(10) == s[keep]]
    if keep.size:
        out[keep], exp10[keep] = _strip_zeros(out[keep], exp10[keep])
    short = np.flatnonzero(mant == _U(0))
    short = short[bexp[short] > 1]
    if short.size:
        out[short] = _SHORT_OUT.take(bexp[short])
        exp10[short] = _SHORT_E10.take(bexp[short])
    return out, exp10


def _cells(values, src):
    """The template ids of the cells of a 1-D float64 array, with their
    source rows (see :func:`_templates`) written to ``src``."""
    bits = values.view(np.uint64)
    bexp = (bits >> _U(52)).astype(np.intp) & 0x7FF
    mant = bits & _MANT
    out, exp10 = _shortest(bexp, mant)
    ndigits = np.searchsorted(_POW10, out, side="right")
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

    src[:, :5] = _DIG4.take(_digit_groups(out))
    src[:, 5] = _EXP_DIGITS.take(at)
    return tid


def _pack(src, tid, cell, start):
    """The bytes of the cells ``cell`` of a block with source ``src`` and
    template ids ``tid`` (see :func:`_cells`), as CSV lines: ``cell`` holds
    one row of cell indices per line and ``start`` their source offsets.
    The last cell of each line takes the newline variant of its
    template."""
    ids = tid.take(cell)
    ids[:, -1] += _NL
    # the gather index is built in place in intp, the one index type that
    # take reads without a converted copy
    index = _TPL.take(ids, axis=0).astype(np.intp)
    index += start
    # the translate drops the templates' NUL padding
    return src.take(index).tobytes().translate(None, b"\0")


def _block_lines(values, cells, starts, src):
    """One chunk of CSV lines per file, from a block's table cells
    ``values`` (row by row) and each file's cells and offsets.

    A function of its own, so that a block's template ids and gather
    indices are freed before the next block is formatted."""
    tid = _cells(values, src)
    src = src.view(np.uint8).reshape(-1)
    return [_pack(src, tid, cell, start) for cell, start in zip(cells, starts)]


def _lines(columns, picks):
    """The CSV lines of the table ``columns``, block by block: for each
    block of at most ``_CORE_CELLS`` table cells, one bytes chunk per
    entry of ``picks``, the table columns a file prints (see
    :func:`write_csvs`)."""
    parts = [np.asarray(c, dtype=np.float64) for c in columns]
    parts = [p.reshape(len(p), -1) for p in parts]
    rows = len(parts[0])
    width = sum(p.shape[1] for p in parts)
    picks = [np.asarray(p, np.intp) for p in picks]
    if any(p.size == 0 or p.min() < 0 or p.max() >= width for p in picks):
        raise ValueError(f"each file prints table columns among 0 to "
                         f"{width - 1}")
    step = max(1, min(rows, _CORE_CELLS // width))
    # per file, the table cell of each printed cell in a block, and the
    # offset of its source row
    cells = [np.arange(step)[:, None] * width + p for p in picks]
    starts = [(c * _SRC_WIDTH)[..., None] for c in cells]
    block = np.empty((step, width))
    # the source rows of every block, in one buffer whose constant words
    # are written once
    src = np.empty((step * width, _SRC_WIDTH // 4), np.uint32)
    src[:, 6:] = _CONSTANT_WORDS
    for first in range(0, rows, step):
        part = block[:min(step, rows - first)]
        left = 0
        for p in parts:
            part[:, left:left + p.shape[1]] = p[first:first + len(part)]
            left += p.shape[1]
        yield _block_lines(part.reshape(-1), [c[:len(part)] for c in cells],
                           [s[:len(part)] for s in starts], src[:part.size])


def format_values(block):
    """The CSV bytes of a 2-D float64 array: each value's ``repr``, values
    of a row joined by ``,``, each row ended by a newline."""
    block = np.asarray(block, dtype=np.float64)
    return np.frombuffer(b"".join(
        chunk for chunk, in _lines([block], [range(block.shape[1])])),
        np.uint8)


def _write(paths, blocks):
    """Open every file of ``paths``, then write the chunks of each item of
    ``blocks`` to them in order; a failed open or write is a ConfigError
    naming the file."""
    handles = []
    try:
        for path in paths:
            handles.append(open(path, "wb"))
        for chunks in blocks:
            for path, fh, chunk in zip(paths, handles, chunks):
                fh.write(chunk)
        for path, fh in zip(paths, handles):
            fh.close()
    except OSError as exc:
        raise ConfigError(
            f"cannot write {path}: {exc.strerror or exc}") from exc
    finally:
        for fh in handles:
            with contextlib.suppress(OSError):
                fh.close()


def write_text(path, text):
    """Write ``text`` to ``path`` as UTF-8; a failed write is a ConfigError."""
    _write([path], [[text.encode("utf-8")]])


def write_csvs(files, *columns):
    """Write CSV files cut from one table, each cell formatted once.

    ``columns`` are 1-D arrays (one table column each) or 2-D arrays (one
    table column per array column), all with the same number of rows.
    ``files`` holds ``(path, header, picks)`` triples: a file gets the
    ``header`` names, then one line per row of the table columns
    ``picks``, in order.  Every value is written as its ``repr``.  All
    files are opened before the first is written; a failed open or write
    is a ConfigError naming the file.
    """
    paths, headers, picks = zip(*files)
    head = [(",".join(h) + "\n").encode("utf-8") for h in headers]
    _write(paths, itertools.chain([head], _lines(columns, picks)))


def write_csv(path, header, *columns):
    """Write one CSV file of all ``columns``: :func:`write_csvs` with one
    file."""
    width = sum(int(np.prod(np.shape(c)[1:])) for c in columns)
    write_csvs([(path, header, range(width))], *columns)
