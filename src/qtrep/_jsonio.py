"""Deterministic text serialization and atomic file writes.

Reports and tables are byte-reproducible: floats are printed with a
fixed number of significant digits (17 by default, enough for exact
round-tripping), dictionary order is insertion order, and files are
written to a temporary name in the target directory and renamed into
place so readers never observe partial content.

CSV tables are built from column arrays, in blocks of whole rows of at
most ``CSV_BLOCK_CELLS`` cells (one row where a row has more), with the
bytes of one ``'%.{p}g'`` row template (``format_float`` per cell).  For
p <= 17 numpy computes those bytes into one buffer: each block's cells
become fixed-width records in the buffer's free tail, and a boolean
mask over them keeps the bytes each cell prints.  For a finite
nonzero cell x it estimates E = floor(log10|x|) and forms
v = |x| * 10**s, s = p-1-E, as a float64 double-double hi + lo
(Dekker, Numer. Math. 18, 224 (1971)).  A table holds, for each s in
[-291, 299], H = fl(10**s), its halves H_hi + H_lo = H of 26 bits each,
and L = fl(10**s - H), all normal, so 10**s = H + L + d with
|d| <= 2**-106 * 10**s.  hi = fl(|x| H), and lo adds Dekker's exact
error of that product to fl(|x| L): each of the two roundings in lo is
at most 2**-105 v, so |v - (hi + lo)| <= 2**-104 v, below 2**-46 for
v < 10**17.  With f = fl((hi - rint(hi)) + lo), whose rounding is below
2**-48, N = rint(hi) + rint(f) is within |f - rint(f)| + 2**-45 of v:
wherever |f - rint(f)| <= 1/2 - 2**-30, N is the integer nearest v, the
correctly rounded significand whatever the tie rule, and the digits
are proved.  log10 may be one off next to a power of ten, and N may
round up to 10**p: the cells with N >= 10**p or N <= 10**(p-1) compare
hi + lo exactly against those two powers (fl((hi - P) + lo), with
hi - P exact or larger than lo) and are scaled again where E moves.
No double other than 10**k lies within 2**-62 relative of 10**k, for
any k a double reaches, far outside the error of hi + lo: the
comparison is exact, except where v equals the power, and there either
answer gives the same digits.  The other cells are formatted by ``%``
one by one: exact ties, which ``%`` rounds half-even, exponents s
outside the table, and |x| > 2**996, where the split's product would
overflow.  The ``%`` row template formats whole tables at p > 17 or
with fewer than ``CSV_DIGITS_MIN_CELLS`` cells.  csv_text decodes the
digit path's buffer into its str; the CLI takes the bytes themselves
from ``_csv_table`` and writes them without a copy.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import os
import secrets

import numpy as np

from .errors import InputError

DEFAULT_PRECISION = 17


def format_float(value, precision=DEFAULT_PRECISION):
    """Fixed significant-digit decimal form of a finite float."""
    value = float(value)
    if not math.isfinite(value):
        raise InputError(f"cannot serialize non-finite value {value!r}")
    return format(value, f".{precision}g")


def _render(obj, precision, level):
    pad = "  " * level
    inner = pad + "  "
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        parts = [
            f"{inner}{json.dumps(str(key))}: {_render(value, precision, level + 1)}"
            for key, value in obj.items()
        ]
        return "{\n" + ",\n".join(parts) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        kinds = set(map(type, obj))
        if kinds == {float}:
            # A row of floats: one finiteness pass, one '%' template.  It
            # prints what format_float prints, cell by cell.
            bad = next(itertools.filterfalse(math.isfinite, obj), None)
            if bad is not None:
                raise InputError(f"cannot serialize non-finite value {bad!r}")
            template = (",\n" + inner).join([f"%.{precision}g"] * len(obj))
            return "[\n" + inner + template % tuple(obj) + "\n" + pad + "]"
        if kinds == {int}:
            parts = map(str, obj)
        else:
            parts = [_render(value, precision, level + 1) for value in obj]
        return "[\n" + inner + (",\n" + inner).join(parts) + "\n" + pad + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return format_float(obj, precision)
    if isinstance(obj, str):
        return json.dumps(obj)
    raise InputError(f"cannot serialize {type(obj).__name__}")


def dumps(obj, precision=DEFAULT_PRECISION):
    """Deterministic JSON text, indented by two spaces, with fixed-precision floats."""
    return _render(obj, precision, 0) + "\n"


def atomic_write_text(path, text):
    """Write text to path via a new temporary file and a rename.

    text is a str, written as strict UTF-8 whatever the locale, or
    bytes-like data that is written as it is.  The temporary file is
    created (O_EXCL) under a random name next to path, so it gets the
    mode of any new file, 0o666 less the umask.
    """
    # Encoded first: text that cannot be written creates nothing.
    data = memoryview(text.encode("utf-8") if isinstance(text, str) else text).cast("B")
    directory = os.path.dirname(os.path.abspath(path))
    tmp = os.path.join(directory, f".qtrep-{secrets.token_hex(8)}.tmp")
    # raises, creating nothing, if the name is taken
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        try:
            while data:  # os.write may take fewer bytes than it is given
                data = data[os.write(fd, data):]
        finally:
            os.close(fd)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


# Cells formatted per block by csv_text: max(1, CSV_BLOCK_CELLS // columns)
# rows.  The digit path's temporaries peak at about 80 bytes a cell (numpy
# 2.4), so a block holds about 0.65 MB besides the table's own text
# buffer: below the 256-row blocks of 227 bytes a cell it replaces, on
# 11 or 12 columns.  12288-cell blocks wrote the 6000-row scan table no
# faster and raised the peak RSS of the trajectory benchmark by 0.3 MB.
CSV_BLOCK_CELLS = 8192
# Tables with fewer cells take the % template: below this the fixed cost
# of the digit path's numpy calls exceeds the per-cell cost of %.  On
# 11-column pme-solve tables (numpy 2.4, 2-core Xeon) the digit path took
# 2.05x the template's time at 253 cells, 1.27x at 506, 1.00x at 759,
# 0.81x at 1,023 and 0.42x at 4,092: the stride-50 pme-solve (242 cells)
# and lindblad (774 cells) tables would gain nothing from it.
CSV_DIGITS_MIN_CELLS = 1024
# The digit path proves its rounding for at most 17 digits, where 10**p
# and 10**(p-1) are exact doubles.
_DIGITS_MAX_PRECISION = 17
# Proved cells: |f - rint(f)| at most this (see the module docstring).
_WINDOW = 0.5 - 2.0 ** -30
# The table's s: H, its halves and L are normal, and H * _SPLIT is finite.
_S_MIN, _S_MAX = -291, 299
# Dekker's split into halves of 26 bits; y * _SPLIT is finite for y <= _SPLIT_MAX.
_SPLIT = 2.0 ** 27 + 1
_SPLIT_MAX = 2.0 ** 996
_DOT, _MINUS, _PLUS, _E = b".-+e"
# Cell kinds of the digit path, in sort order: fixed notation with
# exponent X is kind X + 4 (X = -4 .. p - 1); the rest follow.
_SCI, _ZERO, _NAN, _FALSE, _TRUE, _FALLBACK = range(6)
_WORDS = {_ZERO: b"0", _NAN: b"nan", _FALSE: b"false", _TRUE: b"true"}
_LEAD = np.frombuffer(b"0.000", np.uint8)


@functools.cache
def _scales():
    """H, H_hi, H_lo and L for s = _S_MIN.._S_MAX, at index s - _S_MIN.

    H = fl(10**s) and L = fl(10**s - H), each correctly rounded from
    exact integer arithmetic; H_hi + H_lo = H is Dekker's split of H.
    """
    power, rest = [], []
    for s in range(_S_MIN, _S_MAX + 1):
        num, den = (10**s, 1) if s >= 0 else (1, 10**-s)
        h = num / den
        m, d = h.as_integer_ratio()
        power.append(h)
        rest.append((num * d - m * den) / (den * d))
    power = np.array(power)
    t = power * _SPLIT
    high = t - (t - power)
    return power, high, power - high, np.array(rest)


@functools.cache
def _quads():
    """"0000" .. "9999", four ASCII bytes per entry, built on first use."""
    return np.frombuffer(b"".join(b"%04d" % i for i in range(10000)), np.uint32)


def _scaled(a, exp, precision):
    """hi, lo and outside: hi + lo = a * 10**(precision-1-exp) for a > 0.

    Where outside is True, the table has no such power or a's split
    would overflow, and hi and lo are not a's.
    """
    index = exp.astype(np.intp)
    np.subtract(precision - 1 - _S_MIN, index, out=index)
    # one unsigned compare also catches the negative indices
    outside = index.view(np.uintp) > _S_MAX - _S_MIN
    outside |= a > _SPLIT_MAX
    if outside.any():
        a = np.where(outside, 1.0, a)
        index[outside] = precision - 1 - _S_MIN
    power, power_hi, power_lo, rest = _scales()
    hi = power.take(index)
    hi *= a
    a_hi = a * _SPLIT
    a_lo = a_hi - a
    a_hi -= a_lo
    np.subtract(a, a_hi, out=a_lo)
    # Dekker's exact error of hi, ((a_hi H_hi - hi) + a_lo H_hi + a_hi H_lo)
    # + a_lo H_lo (Dekker's order with the factors exchanged), then
    # fl(a L); in place, so that one buffer serves every table entry.
    h = power_hi.take(index)
    lo = a_hi * h
    lo -= hi
    h *= a_lo
    lo += h
    np.take(power_lo, index, out=h)
    a_hi *= h
    lo += a_hi
    h *= a_lo
    lo += h
    np.take(rest, index, out=h)
    h *= a
    lo += h
    return hi, lo, outside


def _rounded(hi, lo):
    """N = rint(hi) + rint(f), f = (hi - rint(hi)) + lo, and where N is not proved."""
    whole = np.rint(hi)
    f = hi - whole
    f += lo
    step = np.rint(f)
    f -= step
    loose = np.abs(f, out=f) > _WINDOW
    n = whole.astype(np.int64)
    n += step.astype(np.int64)
    return n, loose


def _significands(a, precision):
    """Exponents, rounded significands and unproved cells for a > 0.

    Where the returned mask is False, '%.{p}g' % a has exponent E and
    the p significant digits of the integer N in [10**(p-1), 10**p).
    """
    # int16 holds every decimal exponent of a double, -324..308
    exp = np.floor(np.log10(a)).astype(np.int16)
    hi, lo, unproved = _scaled(a, exp, precision)
    n, loose = _rounded(hi, lo)
    unproved |= loose
    low, high = 10 ** (precision - 1), 10**precision
    edge = np.flatnonzero((n >= high) | (n <= low))
    if edge.size:
        # v >= 10**p: E was one low; v < 10**(p-1): one high.
        e_hi, e_lo = hi[edge], lo[edge]
        shift = ((e_hi - high) + e_lo >= 0).astype(np.int16) - ((e_hi - low) + e_lo < 0)
        moved = shift != 0
        fix = edge[moved]
        exp[fix] += shift[moved]
        hi, lo, outside = _scaled(a[fix], exp[fix], precision)
        n[fix], loose = _rounded(hi, lo)
        unproved[fix] = outside | loose
        # N = 10**p carries into the exponent
        top = edge[n[edge] == high]
        n[top] = low
        exp[top] += 1
    return exp, n.view(np.uint64), unproved


def _digit_matrix(n, precision):
    """ASCII digits of n < 10**17, precision columns, leading digit first."""
    width = 4 * ((precision + 3) // 4)
    table = _quads()
    quads = np.empty((n.size, width // 4), np.uint32)
    upper = n // np.uint64(10**8)
    lower = (n - upper * np.uint64(10**8)).astype(np.uint32)
    upper = upper.astype(np.uint32)
    col = width // 4
    for part, count in ((lower, min(2, col)), (upper, col - 2)):
        for _ in range(count):
            quot = part // 10000
            col -= 1
            quads[:, col] = table[part - quot * 10000]
            part = quot
    return quads.view(np.uint8)[:, width - precision:]


def _percent_cells(values, precision):
    """'%.{precision}g' of each value: the cells the digit path cannot prove."""
    fmt = f"%.{precision}g"
    return [fmt % value for value in values.tolist()]


def _template_rows(cols, precision):
    """CSV rows of one block, formatted by one % row template."""
    template = ",".join("%s" if col.dtype == bool else f"%.{precision}g" for col in cols) + "\n"
    cells = [np.where(col, "true", "false").tolist() if col.dtype == bool else col.tolist()
             for col in cols]
    # One string per block: thousands of live row strings would
    # fragment the small-object heap and raise the peak RSS.
    return "".join([template % row for row in zip(*cells)])


def _sorted_records(x, flags, precision, width):
    """Records of the cells of x, sorted by kind, with each text's end.

    Returns (records, ends, order, start): records[i] holds cell
    order[i] as an optional '-' at offset 0 and its text from offset 1
    through ends[i] - 1; start[c] is the first byte cell c prints.
    Sorting by kind lets each kind fill a contiguous run of records with
    slice copies.
    """
    fixed_kinds = precision + 4
    nan = np.isnan(x)
    zero = x == 0
    exp, n, unproved = _significands(np.where(flags | nan | zero, 1.0, np.abs(x)), precision)
    kind = np.where((exp >= -4) & (exp < precision), exp + 4, fixed_kinds + _SCI).astype(np.int8)
    kind[unproved] = fixed_kinds + _FALLBACK
    kind[zero] = fixed_kinds + _ZERO
    kind[nan] = fixed_kinds + _NAN
    kind[flags] = fixed_kinds + np.where(x[flags] != 0, _TRUE, _FALSE)
    order = np.argsort(kind, kind="stable")
    bounds = np.concatenate(([0], np.cumsum(np.bincount(kind, minlength=fixed_kinds + 6))))
    # NaN and bool cells print no '-'; the rest print one when negative.
    start = (~(np.signbit(x) & ~nan & ~flags)).view(np.uint8)
    # The % text of the unproved cells is made now, so that x can go: del
    # frees it unless the caller holds it.
    cells, fb = x.size, fixed_kinds + _FALLBACK
    loose = x[order[bounds[fb]:bounds[fb + 1]]]
    fallback = _percent_cells(np.abs(loose), precision) if loose.size else []
    del x

    regular = order[:bounds[fixed_kinds + _SCI + 1]]
    exp, n = exp[regular], n[regular]
    digits = _digit_matrix(n, precision)
    del n
    # significant digits left once trailing zeros are stripped
    ndig = np.full(regular.size, precision, np.int8)
    trailing = np.flatnonzero(digits[:, -1] == 48)
    ndig[trailing] -= np.argmax(digits[trailing, ::-1] != 48, axis=1)

    records = np.empty((cells, width), np.uint8)
    records[:, 0] = _MINUS
    ends = np.empty(cells, np.uint8)
    for k in np.flatnonzero(np.diff(bounds)):
        rows = slice(bounds[k], bounds[k + 1])
        b = records[rows]
        if k < fixed_kinds:
            X = k - 4
            d, nd = digits[rows], ndig[rows]
            if X >= 0:
                b[:, 1:X + 2] = d[:, :X + 1]
                b[:, X + 2] = _DOT
                b[:, X + 3:precision + 2] = d[:, X + 1:]
                ends[rows] = np.where(nd > X + 1, nd + 2, X + 2)
            else:
                b[:, 1:2 - X] = _LEAD[:1 - X]
                b[:, 2 - X:2 - X + precision] = d
                ends[rows] = 2 - X + nd
        elif k == fixed_kinds + _SCI:
            d, nd, e = digits[rows], ndig[rows], exp[rows]
            b[:, 1] = d[:, 0]
            b[:, 2] = _DOT
            b[:, 3:precision + 2] = d[:, 1:]
            at = np.where(nd == 1, 2, nd + 2)
            r = np.arange(at.size)
            mag = np.abs(e)
            three = mag >= 100
            hundreds, tens, units = mag // 100 + 48, mag // 10 % 10 + 48, mag % 10 + 48
            b[r, at] = _E
            b[r, at + 1] = np.where(e < 0, _MINUS, _PLUS)
            b[r, at + 2] = np.where(three, hundreds, tens)
            b[r, at + 3] = np.where(three, tens, units)
            b[r, at + 4] = units
            ends[rows] = at + 4 + three
        elif k == fixed_kinds + _FALLBACK:
            ends[rows] = [1 + len(t) for t in fallback]
            padded = "".join([t.ljust(width - 1) for t in fallback]).encode("ascii")
            b[:, 1:] = np.frombuffer(padded, np.uint8).reshape(-1, width - 1)
        else:
            word = _WORDS[k - fixed_kinds]
            b[:, 1:1 + len(word)] = np.frombuffer(word, np.uint8)
            ends[rows] = 1 + len(word)
    return records, ends, order, start


@functools.cache
def _keep(width):
    """keep[s, e]: the bytes s..e of a width-byte record, as one void record."""
    j = np.arange(width)
    keep = (j >= np.arange(2)[:, None, None]) & (j <= j[:, None])
    return keep.view(np.dtype((np.void, width)))[:, :, 0]


def _digit_rows(cols, precision, text, size):
    """Write the bytes of _template_rows(cols, precision) to text[size:].

    Each cell is one fixed-width record: its text, then ',' or newline
    at its end; a mask over the records keeps the bytes each cell
    prints.  The records are laid out in text[size:] itself, which must
    have room for precision + 8 bytes a cell.  Returns the new size.
    """
    # "-0.000" + p digits, or "-d." + p - 1 digits + "e-308"; then the separator
    width = precision + 8
    rows = len(cols[0])
    flags = np.tile([col.dtype == bool for col in cols], rows)
    records, ends, order, start = _sorted_records(
        np.stack(cols, axis=1, dtype=np.float64).ravel(), flags, precision, width)
    # back to row-major cell order, where the block's text will go
    record = np.dtype((np.void, width))
    out = text[size:size + records.size].reshape(records.shape)
    out.view(record)[order] = records.view(record)
    end = np.empty_like(ends)
    end[order] = ends
    del records, ends, order
    seps = np.full(len(cols), ord(","), np.uint8)
    seps[-1] = ord("\n")
    out.reshape(-1)[np.arange(0, end.size * width, width) + end] = np.tile(seps, rows)
    # The kept bytes are copied out before they overwrite their records.
    kept = out.reshape(-1)[_keep(width)[start, end].view(bool).reshape(-1)]
    text[size:size + kept.size] = kept
    return size + kept.size


def csv_text(header, columns, precision=DEFAULT_PRECISION):
    """CSV text from equal-length 1-D columns.

    Bool columns print true/false; every other column is cast to float
    and printed like format_float, except that NaN prints nan.  A column
    holding +-inf, or columns of unequal length, raise InputError.
    """
    table = _csv_table(header, columns, precision)
    return table if isinstance(table, str) else str(table, "utf-8", "surrogatepass")


def _csv_table(header, columns, precision):
    """csv_text's table: a str from the % template, else UTF-8 bytes.

    The digit path's bytes are a view of its text buffer, which
    atomic_write_text writes without a copy.
    """
    arrays = []
    for col in columns:
        col = np.asarray(col)
        if col.dtype != bool:
            col = col.astype(float, copy=False)
            if np.isinf(col).any():
                value = float(col[np.isinf(col)][0])
                raise InputError(f"cannot serialize non-finite value {value!r}")
        arrays.append(col)
    count = len(arrays[0])
    if any(col.shape != (count,) for col in arrays):
        raise InputError(f"columns must be 1-D of length {count}, got shapes "
                         f"{[col.shape for col in arrays]}")
    head = ",".join(header) + "\n"
    rows = max(1, CSV_BLOCK_CELLS // len(arrays))
    blocks = ([col[start:start + rows] for col in arrays] for start in range(0, count, rows))
    if not (1 <= precision <= _DIGITS_MAX_PRECISION
            and count * len(arrays) >= CSV_DIGITS_MIN_CELLS):
        return "".join([head, *(_template_rows(cols, precision) for cols in blocks)])
    # One buffer holds the whole text: no block string outlives its
    # block's temporaries to fragment the heap.
    head = head.encode("utf-8", "surrogatepass")
    text = np.empty(len(head) + count * len(arrays) * (precision + 8), np.uint8)
    text[:len(head)] = np.frombuffer(head, np.uint8)
    size = len(head)
    for cols in blocks:
        size = _digit_rows(cols, precision, text, size)
    return text[:size].data
