"""Deterministic text serialization and atomic file writes.

Reports and tables are byte-reproducible: floats are printed with a
fixed number of significant digits (17 by default, enough for exact
round-tripping), dictionary order is insertion order, and files are
written to a temporary name in the target directory and renamed into
place so readers never observe partial content.  CSV tables are built
from column arrays: one ``%`` row template formats the rows in blocks
of ``CSV_BLOCK_ROWS``, with the same bytes as ``format_float`` per cell.
"""

from __future__ import annotations

import json
import math
import os
import tempfile

import numpy as np

from .errors import InputError

DEFAULT_PRECISION = 17
# Rows formatted per block by csv_text; bounds the Python objects alive at once.
CSV_BLOCK_ROWS = 512


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
        parts = [f"{inner}{_render(value, precision, level + 1)}" for value in obj]
        return "[\n" + ",\n".join(parts) + "\n" + pad + "]"
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
    """Write text to path via a temporary file and rename."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp_path = tempfile.mkstemp(dir=directory, prefix=".qtrep-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp_path, path)
    except BaseException:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise


def csv_text(header, columns, precision=DEFAULT_PRECISION):
    """CSV text from equal-length 1-D columns.

    Bool columns print true/false; every other column is cast to float
    and printed like format_float, except that NaN prints nan.  A column
    holding +-inf raises InputError.
    """
    arrays = []
    fmts = []
    for col in columns:
        col = np.asarray(col)
        if col.dtype == bool:
            arrays.append(np.where(col, "true", "false"))
            fmts.append("%s")
            continue
        col = col.astype(float, copy=False)
        if np.isinf(col).any():
            value = float(col[np.isinf(col)][0])
            raise InputError(f"cannot serialize non-finite value {value!r}")
        arrays.append(col)
        fmts.append(f"%.{precision}g")
    count = len(arrays[0])
    template = ",".join(fmts) + "\n"
    parts = [",".join(header) + "\n"]
    for start in range(0, count, CSV_BLOCK_ROWS):
        cells = [col[start:start + CSV_BLOCK_ROWS].tolist() for col in arrays]
        # One string per block: thousands of live row strings would
        # fragment the small-object heap and raise the peak RSS.
        parts.append("".join([template % row for row in zip(*cells)]))
    return "".join(parts)
