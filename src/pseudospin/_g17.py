"""CSV text of a float64 table, byte for byte what '%.17g' % x writes for every cell.

CPython formats each cell through dtoa's bignum path; here blocks of cells are formatted with
NumPy, in three steps.

Digits.  For |x| in [1e-30, 1e30), k = floor(log10 |x|) comes from np.log10, which may be one
off near a power of ten, and y = |x| 10^(16-k) from Dekker's exact two-product of |x| and the
high half of a double-double 10^(16-k), plus |x| times its low half: y < 2^57 is then within
about 2^-46 of the exact product.  floor(y) before rounding (not the rounded D) decides k: below
10^16 k is one too big, from 10^17 one too small, and such cells are scaled again at the
corrected k.  D = round(y) is exact unless the fractional part of y lies within 2^-30 of one
half (exact ties included, which '%.17g' rounds to even).  A D of 10^17 is a real carry: 10^16
at k + 1.

Fallback.  Cells with a fractional part in that band, any still out of range after the
correction, and all outside the fast range but zeros are written by '%.17g' itself and spliced
in, each with its end text.  A zero is D = 0 at k = 0 with its sign bit, so -0.0 is "-0".

Text, as %g writes it: fixed notation for -4 <= k < 17, else d.ddde+XX; trailing zeros dropped,
and no point when no digit follows it.  Each cell is six little-endian words, 48 bytes: the
sign, "0.000" lead of -4 <= k < 0 and first digit; four words of 16-bit (point, digit) lanes for
digits 2 to 17, from a table of 4-digit groups, masked to the digits up to the last nonzero one;
the exponent (bytes 0-3) and the column's end text (bytes 4-7).  Integer digits of fixed
notation are restored (OR '0'), the point byte before digit k + 2 (the second for scientific
notation) is set where that digit is written, and the NUL bytes are deleted once per block.

Known text.  A cell's end text is its separator, followed by the text of any columns whose text
is known before formatting: in a table of at least SMALL cells, a column after the first whose
cells all share one bit pattern (so +0.0 and -0.0 differ) goes into the end text of the
formatted column before it while that end text fits its 4 bytes.  The +0.0 imaginary parts of
a real Bloch vector are such columns (",0,").  The cells left to format are split into
max(1, round(cells / CHUNK)) blocks of whole rows, of equal size to within a row.
"""

from __future__ import annotations

import numpy as np

CHUNK = 2048  # cells per block, about; a block's arrays stay under 600 KB (1.5 CHUNK cells)
SMALL = 800  # blocks of fewer cells take one %-format call: the kernel costs more there

_FAST_MIN, _FAST_MAX = 1e-30, 1e30  # two-digit exponents, and nothing over- or underflows
_KMIN, _KMAX = -31, 31  # decimal exponents of the fast range, corrections and carries included
_TIE_BAND = 2.0**-30  # a fractional part this close to one half is left to '%.17g'
_SPLIT = 134217729.0  # 2^27 + 1: Veltkamp's split of a double into two 26-bit halves
_HIGH26 = np.uint64(2**64 - 2**27)  # a double's sign, exponent and 26 high significant bits


def _pow10(p: int) -> tuple:
    """10^p as hi + lo: hi the nearest double, lo the nearest double to 10^p - hi."""
    if p >= 0:
        n = 10**p
        hi = float(n)
        return hi, float(n - int(hi))
    d = 10**-p
    hi = 1 / d  # int true division is correctly rounded
    num, den = hi.as_integer_ratio()
    return hi, (den - num * d) / (den * d)


def _words(texts) -> np.ndarray:
    """Each text of at most 8 bytes as one little-endian uint64, NUL-padded."""
    return np.frombuffer(b"".join(t.ljust(8, b"\0") for t in texts), np.uint64)


def _split(x: float) -> tuple:
    """Veltkamp's split of x into two halves of at most 26 significant bits."""
    c = _SPLIT * x
    high = c - (c - x)
    return high, x - high


def _tables() -> tuple:
    """The powers of ten by k, the group words, and the per-k words and lane masks of a slot.

    The small tables are Python ints until the end: the first use of each NumPy loop costs
    memory that stays for the life of the process.
    """
    ks = range(_KMIN, _KMAX + 1)
    powers = np.array([(hi, *_split(hi), lo) for hi, lo in map(_pow10, (16 - k for k in ks))]).T

    # group g = 1000 a + 100 b + 10 c + d as four lanes (NUL point byte, ASCII digit), and its
    # digits up to the last nonzero one (0 for g = 0), filled by broadcasting
    lanes = np.zeros((10, 10, 10, 10, 8), np.uint8)
    kept = np.zeros((10, 10, 10, 10), np.uint8)
    for n in range(4):
        lanes[..., 2 * n + 1] = np.arange(48, 58, dtype=np.uint8).reshape((10,) + (1,) * (3 - n))
        kept[(slice(None),) * n + (slice(1, None),)] = n + 1  # digit n is nonzero
    # for c of the digits 2..17 written (up to the last nonzero one), the lanes word i keeps
    masks = [[2 ** (16 * min(max(c - 4 * i, 0), 4)) - 1 for c in range(17)] for i in range(4)]

    # digit j = 2..17 is lane (j - 2) % 4 of word (j - 2) // 4
    restore, point = ([[0] * len(ks) for _ in range(4)] for _ in range(2))
    for row, k in enumerate(ks):
        fixed = -4 <= k < 17
        for j in range(2, 18):
            word, lane = divmod(j - 2, 4)
            if fixed and j <= k + 1:  # an integer digit: written even when '0'
                restore[word][row] |= ord("0") << (16 * lane + 8)
            if j == (k + 2 if fixed else 2) and not (fixed and k < 0):  # the digit after a point
                point[word][row] |= 1 << (16 * lane)
    lead = [b"0." + b"0" * (-1 - k) if -4 <= k < 0 else b"" for k in ks]
    first = _words(b"\0" + text.ljust(5, b"\0") + b"%d" % f for text in lead for f in range(10))
    exponent = _words(b"" if -4 <= k < 17 else b"e%+03d" % k for k in ks)
    small = (np.array(t, np.uint64) for t in (masks, restore, point))
    return powers, lanes.view(np.uint64).reshape(-1), kept.reshape(-1), *small, first, exponent


_POWERS, _GROUPS, _KEPT, _MASKS, _RESTORE, _POINT, _FIRST, _EXPONENT = _tables()
_WORD_DIGITS = np.arange(0, 16, 4, dtype=np.uint8)[:, None]  # the digits before word i's
_E4, _E8 = np.int32(10**4), np.int32(10**8)
_E16, _E17, _SPAN = np.int64(10**16), np.int64(10**17), np.uint64(9 * 10**16)
_SLOT = 48  # bytes per cell: sign, lead and first digit; 16 lanes; exponent and separator
_LONGEST = 25  # bytes of the longest cell and its separator: -1.2345678901234567e-308,


def _scaled(a: np.ndarray, row: np.ndarray) -> tuple:
    """floor(y) and y - floor(y) for y = a 10^(16-k), within about 2^-46, a in the fast range
    and row = k - _KMIN."""
    hi, hi_h, hi_l, lo = _POWERS.take(row, axis=1)
    p = a * hi
    a_h = (a.view(np.uint64) & _HIGH26).view(np.float64)
    a_l = a - a_h
    err = a_l * hi_l - (((p - a_h * hi_h) - a_l * hi_h) - a_h * hi_l)  # a hi - p, exactly
    r = err + a * lo
    floor = np.floor(r)
    return np.add(p, floor, dtype=np.int64, casting="unsafe"), r - floor  # p >= 2^53: an integer


def _digits(v: np.ndarray) -> tuple:
    """D, k - _KMIN and the cells left to '%.17g', per cell of v; D = 0 for those and for zeros
    (k = 0)."""
    a = np.abs(v)
    fast = (a >= _FAST_MIN) & (a < _FAST_MAX)
    zero = v == 0.0
    a = np.where(fast, a, 1.0)  # zeros and the cells left to '%.17g' take 1.0's path
    row = (np.log10(a) - _KMIN).astype(np.intp)  # k - _KMIN, truncated: a positive floor
    whole, frac = _scaled(a, row)
    slow = ~(fast | zero) | (np.abs(frac - 0.5) < _TIE_BAND)
    moved = np.flatnonzero((whole - _E16).view(np.uint64) >= _SPAN)  # not in [10^16, 10^17)
    if moved.size:
        row[moved] += np.where(whole[moved] < _E16, -1, 1)
        again, rest = whole[moved], frac[moved] = _scaled(a[moved], row[moved])
        slow[moved] |= (again < _E16) | (again >= _E17) | (np.abs(rest - 0.5) < _TIE_BAND)
    d = whole + (frac > 0.5)
    carry = np.flatnonzero(d == _E17)
    if carry.size:
        row[carry] += 1
        d[carry] = _E16
    d[zero | slow] = 0
    return d, row, slow


def _slots(v: np.ndarray, d: np.ndarray, row: np.ndarray, seps: np.ndarray) -> bytes:
    """The 48-byte slot of each cell: its text and separator padded with NUL bytes."""
    halves = np.empty((2, len(d)), np.int32)
    np.divmod(d, _E8, out=(halves[0], halves[1]), casting="unsafe")  # 9 and 8 digits
    first, halves[0] = np.divmod(halves[0], _E8)
    groups = np.empty((2, 2, len(d)), np.int32)
    np.divmod(halves, _E4, out=(groups[:, 0], groups[:, 1]))
    groups = groups.reshape(4, -1)  # 4-digit groups: digits 2..5, 6..9, 10..13, 14..17
    kept = _KEPT.take(groups)
    written = np.where(kept, kept + _WORD_DIGITS, 0).max(axis=0)  # of digits 2..17
    words = _GROUPS.take(groups) & _MASKS.take(written, axis=1)
    words |= _RESTORE.take(row, axis=1)
    # a written digit has 0x20 set: a point goes before the one the lane mask of k picks
    words |= (words >> np.uint64(13) & _POINT.take(row, axis=1)) * np.uint64(ord("."))
    slot = np.empty((len(v), 6), np.uint64)
    slot[:, 0] = _FIRST.take(row * 10 + first) | np.signbit(v) * np.uint64(ord("-"))
    slot[:, 1:5] = words.T
    slot[:, 5] = _EXPONENT.take(row) | seps
    return slot.tobytes()


def _cells(block: np.ndarray, ends: list) -> bytes:
    """'%.17g' % x of each cell x of a 2-D block, each followed by the end text of its column
    (at most 4 bytes: its separator and any text known before formatting)."""
    v = block.ravel()
    words = np.array([int.from_bytes(end, "little") for end in ends], np.uint64) << np.uint64(32)
    d, row, slow = _digits(v)
    text = _slots(v, d, row, np.tile(words, len(block)))  # the end text at bytes 4-7 of word 5
    if slow.any():
        pieces, start = [], 0
        for i in np.flatnonzero(slow).tolist():
            pieces += [text[start * _SLOT : i * _SLOT], b"%.17g%s" % (v[i], ends[i % len(ends)])]
            start = i + 1
        pieces.append(text[start * _SLOT :])
        text = b"".join(pieces)
    return text.translate(None, b"\0")


def _known(columns: list, ends: list) -> tuple:
    """The columns left to format, one cell wide, and their end texts: a column after the first
    whose cells share one bit pattern (so +0.0 and -0.0 differ) is written into the end text of
    the formatted column before it, where that end text then fits in 4 bytes."""
    kept, kept_ends = [], []
    for column, end in zip((c[:, j : j + 1] for c in columns for j in range(c.shape[1])), ends):
        if kept:
            merged = kept_ends[-1] + b"%.17g" % column[0, 0] + end
            if len(merged) <= 4 and (column.view(np.uint64) == column.view(np.uint64)[0]).all():
                kept_ends[-1] = merged
                continue
        kept.append(column)
        kept_ends.append(end)
    return kept, kept_ends


def csv_text(header: str, columns) -> memoryview:
    """The header line, then one line per row of finite float64 columns (1-D, or 2-D for
    several): each row's cells as '%.17g' % x writes them, joined by ',' and ended by LF.

    In a table of at least SMALL cells, a column after the first whose cells all share one bit
    pattern is not formatted: its text goes into the end text of the formatted cell before it,
    where that end text, separators included, fits the 4 bytes a slot has after the exponent
    (",0," and ",-0\n" fit, ",0,0," does not; a column that does not fit is formatted).  The
    rows are split into max(1, round(cells / CHUNK)) blocks of equal size, counting only the
    cells left to format, so a block holds from about 3/4 to 3/2 CHUNK cells unless the table
    has fewer: each block costs a fixed time, and a short last block pays it for few cells.
    Each block is gathered from the columns into one small block array and formatted into one
    buffer sized for the longest cells; its pages that no text reaches are never touched, and
    the text is a view of it.  (A str per block of a 10^6-row table left the heap fragmented by
    37 MB, and a growing bytearray by 15 MB.)  A block of fewer than SMALL cells is one
    %-format call, which costs less there than the kernel's fixed cost.
    """
    columns = [c[:, None] if c.ndim == 1 else c for c in map(np.asarray, columns)]
    width = sum(c.shape[1] for c in columns)
    rows = len(columns[0])
    head = header.encode("ascii") + b"\n"
    text = np.empty(len(head) + _LONGEST * rows * width, np.uint8)
    size = len(head)
    text[:size] = np.frombuffer(head, np.uint8)
    ends = [b","] * (width - 1) + [b"\n"]
    if rows * width >= SMALL:
        columns, ends = _known(columns, ends)
    line = b"%.17g" + b"%.17g".join(ends)
    blocks = max(1, min(rows, round(rows * len(ends) / CHUNK)))
    gathered = np.empty((-(-rows // blocks), len(ends)))
    for i in range(blocks):
        start, stop = rows * i // blocks, rows * (i + 1) // blocks
        block = gathered[: stop - start]
        np.concatenate([c[start:stop] for c in columns], axis=1, out=block)
        if block.size < SMALL:
            piece = (line * len(block)) % tuple(block.ravel().tolist())
        else:
            piece = _cells(block, ends)
        text[size : size + len(piece)] = np.frombuffer(piece, np.uint8)
        size += len(piece)
    return text[:size].data
