import errno
import json
import math
import os
import secrets
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import csv_text_template, dumps_recursive
from qtrep import _jsonio
from qtrep.errors import InputError


class TestFormatFloat:
    def test_round_trips_exactly(self):
        for value in (1 / 3, 0.1, 2.0 / 3.0, 1e-300, 123456.789):
            assert float(_jsonio.format_float(value)) == value

    def test_integral_floats_stay_short(self):
        assert _jsonio.format_float(21.0) == "21"

    def test_non_finite_rejected(self):
        with pytest.raises(InputError):
            _jsonio.format_float(math.inf)
        with pytest.raises(InputError):
            _jsonio.format_float(math.nan)


class TestDumps:
    def test_parses_back(self):
        doc = {"a": 1 / 3, "b": [1, 2, {"c": True, "d": None}], "e": "text"}
        text = _jsonio.dumps(doc)
        assert json.loads(text) == {
            "a": 1 / 3,
            "b": [1, 2, {"c": True, "d": None}],
            "e": "text",
        }

    def test_trailing_newline(self):
        assert _jsonio.dumps({}).endswith("\n")

    @pytest.mark.parametrize("value, kind", [({1, 2}, "set"), (1j, "complex"),
                                             (np.int64(1), "int64")])
    def test_unsupported_type_rejected(self, value, kind):
        with pytest.raises(InputError, match=rf"^cannot serialize {kind}$"):
            _jsonio.dumps({"a": [value]})

    def test_bools_are_not_numbers(self):
        assert '"x": true' in _jsonio.dumps({"x": True})

    def test_deterministic(self):
        doc = {"values": [math.pi, math.e, 1e-17]}
        assert _jsonio.dumps(doc) == _jsonio.dumps(doc)


def _same_error(doc, precision=17):
    with pytest.raises(InputError) as want:
        dumps_recursive(doc, precision)
    with pytest.raises(InputError) as got:
        _jsonio.dumps(doc, precision)
    assert str(got.value) == str(want.value)


class TestRenderRows:
    """dumps renders a list of floats or of ints in one join: the bytes
    and the errors of the item-by-item renderer in oracles.py."""

    @pytest.mark.parametrize("doc", [
        [np.float64(0.1), np.float64(-2.5e-300)],
        [0.1, np.float64(1 / 3), 2.0],
        [1, True, 0, False],
        [True, False],
        [1, 2.5, -3],
        [1.0, 2],
        [[], [[]], {}, [[], [1]], [[[]]]],
        {"a": [], "b": [[], []], "c": [[1.5], [2]]},
        [[0.1, 0.2], [1, 2], [None, "x"], [True]],
        [2**70, -2**70, 0],
        (0.5, 1.5),
        [-0.0, 0.0, 5e-324, 1.7976931348623157e308, 1e16, 1e-5],
    ])
    @pytest.mark.parametrize("precision", [1, 2, 5, 17, 25, 767])
    def test_matches_item_by_item(self, doc, precision):
        assert _jsonio.dumps(doc, precision) == dumps_recursive(doc, precision)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_float_in_a_row(self, bad):
        _same_error([0.5, bad, 1.5])
        _same_error({"q": [[0.5, 1.5], [2.5, bad]]})
        _same_error([0.5, math.inf, bad], precision=767)

    def test_unsupported_item_in_an_int_row(self):
        _same_error([1, 2, np.int64(3)])

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=20),
           st.integers(1, 40))
    def test_float_rows(self, row, precision):
        doc = {"row": row, "rows": [row, row[::-1]]}
        assert _jsonio.dumps(doc, precision) == dumps_recursive(doc, precision)


# Enough cells for csv_text to take its digit path.
DIGIT_CELLS = _jsonio.CSV_DIGITS_MIN_CELLS
SPECIAL = [math.nan, -math.nan, -0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
           2.225073858507201e-308, 1e-300, 1.7e308, -1.7e308, 1.7976931348623157e308,
           21.0, 1e16, 1e17, 9.5, 0.5, 0.125, 2.5, 1e-5, 9.9999e-5, 1e-4, 123456.789]


def _assert_same(got, want):
    """got == want, reported by the first line that differs: a diff of
    two whole tables would take pytest minutes to render."""
    for i, (g, w) in enumerate(zip(got.split("\n"), want.split("\n"))):
        assert g == w, f"line {i}"
    assert len(got) == len(want)


def _check(header, columns, precision=17):
    _assert_same(_jsonio.csv_text(header, columns, precision),
                 csv_text_template(header, columns, precision))


def _spy(monkeypatch, name):
    """Record the first argument of every call to _jsonio.<name>."""
    calls = []
    real = getattr(_jsonio, name)

    def spy(*args):
        calls.append(args[0])
        return real(*args)

    monkeypatch.setattr(_jsonio, name, spy)
    return calls


def _binary_ties(precision, count, rng):
    """Doubles whose exact decimal value lies halfway between two
    precision-digit decimals: odd / 2**j has the precision + 1
    significant digits of odd * 5**j, the last one a 5."""
    out = []
    while len(out) < count:
        j = int(rng.integers(1, 60))
        lo = -(-10**precision // 5**j) | 1
        hi = min(10 ** (precision + 1) // 5**j, 2**53)
        if lo < hi:
            odd = lo + 2 * int(rng.integers(0, (hi - lo + 1) // 2))
            out.append(math.ldexp(odd, -j))
    return np.array(out)


def _block_rows(columns):
    """Rows csv_text formats per block for a table of this many columns."""
    return max(1, _jsonio.CSV_BLOCK_CELLS // columns)


def _scan_columns(rows, rng):
    """A relax-scan table: six rates, five derived values, a flag."""
    columns = [rng.uniform(0.1, 2.0, rows) for _ in range(6)]
    columns += [rng.standard_normal(rows) * 10.0 ** rng.integers(-3, 3, rows) for _ in range(5)]
    columns.append(rng.random(rows) < 0.5)
    return columns


def _tiled(values, columns=2):
    """values repeated over `columns` columns of DIGIT_CELLS cells or more."""
    rows = max(len(values), -(-DIGIT_CELLS // columns))
    return [np.roll(np.resize(np.asarray(values, float), rows), k) for k in range(columns)]


class TestCsvText:
    def test_layout(self):
        columns = [np.array([0.5, 1.5]), np.array([True, False])]
        text = _jsonio.csv_text(["x", "flag"], columns)
        lines = text.splitlines()
        assert lines[0] == "x,flag"
        assert lines[1] == "0.5,true"
        assert lines[2] == "1.5,false"

    def test_nan_allowed_in_csv(self):
        text = _jsonio.csv_text(["x"], [np.array([float("nan")])])
        assert text.splitlines()[1] == "nan"

    def test_matches_per_cell_oracle(self, monkeypatch):
        digit_rows = _spy(monkeypatch, "_digit_rows")
        rng = np.random.default_rng(12)
        # more than two blocks, with a partial last block
        count = 2 * _block_rows(4) + 37
        floats = rng.standard_normal(count) * 10.0 ** rng.integers(-300, 300, count)
        floats[: len(SPECIAL)] = SPECIAL
        integral = np.round(rng.uniform(-1e6, 1e6, count))
        flags = rng.random(count) < 0.5
        columns = [floats, integral, flags, rng.permutation(floats)]
        header = ["f", "i", "flag", "g"]
        for precision in range(1, 18):
            _check(header, columns, precision)
        assert len(digit_rows) == 17 * 3

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(
        bits=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=300),
        precision=st.integers(1, 17),
    )
    def test_any_bit_pattern_matches_oracle(self, bits, precision):
        values = np.array(bits, np.uint64).view(np.float64)
        values = np.where(np.isinf(values), 0.0, values)
        columns = _tiled(np.concatenate([values, SPECIAL]), 3)
        header = ["a", "b", "c"]
        _check(header, columns, precision)

    @pytest.mark.parametrize("precision", range(1, 18))
    def test_ambiguous_cells_take_percent(self, monkeypatch, precision):
        fallback = _spy(monkeypatch, "_percent_cells")
        rng = np.random.default_rng(precision)
        ties = _binary_ties(precision, DIGIT_CELLS, rng)
        # significand N + 1/2: within a few ulps of a decimal tie
        n = rng.integers(10 ** (precision - 1), 10**precision, DIGIT_CELLS)
        near = (n + 0.5) * 10.0 ** rng.integers(-300, 290, DIGIT_CELLS)
        columns = [ties, -ties, near]
        _check(["t", "u", "x"], columns, precision)
        assert sum(len(cells) for cells in fallback) >= 2 * DIGIT_CELLS

    def test_powers_of_ten_and_their_neighbours(self):
        # log10 is one off next to some powers of ten, and a significand
        # that rounds up to 10**p carries into the exponent.
        powers = np.array([float(f"1e{k}") for k in range(-323, 309)])
        below, above = np.nextafter(powers, 0), np.nextafter(powers, np.inf)
        nines = np.array([float("9" * 17 + f"e{k}") for k in range(-323, 292)])
        columns = _tiled(np.concatenate([powers, below, above, nines, -below]), 4)
        header = ["a", "b", "c", "d"]
        for precision in range(1, 18):
            _check(header, columns, precision)

    def test_scan_table_takes_no_percent(self, monkeypatch):
        # Every cell of a 6000-row scan table is proved: none is formatted by %.
        fallback = _spy(monkeypatch, "_percent_cells")
        columns = _scan_columns(6000, np.random.default_rng(6000))
        _check([f"c{c}" for c in range(12)], columns)
        assert not fallback

    @pytest.mark.parametrize("precision", range(1, 18))
    def test_ends_of_the_scale_table(self, precision):
        # Cells scaled by the first and last powers of the table, and by
        # the powers just outside it, and cells around the split's limit:
        # the ones the table covers are proved, the rest take %.
        rng = np.random.default_rng(precision)
        s = np.repeat([_jsonio._S_MIN - 1, _jsonio._S_MIN, _jsonio._S_MAX, _jsonio._S_MAX + 1], 64)
        values = rng.uniform(1.1, 1.7, s.size) * 10.0 ** (precision - 1 - s)
        split = _jsonio._SPLIT_MAX
        big = np.concatenate([[split, np.nextafter(split, np.inf)],
                              10.0 ** rng.uniform(299.05, 308.2, 256)])
        values = np.concatenate([values, big])
        s = np.concatenate([s, precision - 1 - np.floor(np.log10(big))])
        covered = (s >= _jsonio._S_MIN) & (s <= _jsonio._S_MAX) & (values <= split)
        assert covered.any() and not covered.all()
        _, _, unproved = _jsonio._significands(values.copy(), precision)
        np.testing.assert_array_equal(unproved, ~covered)
        _check(["a", "b"], _tiled(np.concatenate([values, -values])), precision)

    def test_scale_table_entries(self):
        # H = fl(10**s), H_hi + H_lo = H in halves of at most 26 bits and
        # L = fl(10**s - H), every one normal or zero, and H * _SPLIT finite.
        power, power_hi, power_lo, rest = _jsonio._scales()
        scales = range(_jsonio._S_MIN, _jsonio._S_MAX + 1)
        assert len(power) == len(scales)
        for s, h, h_hi, h_lo, l in zip(scales, power, power_hi, power_lo, rest):
            exact = Fraction(10) ** s
            assert h == float(exact) and l == float(exact - Fraction(float(h)))
            assert Fraction(float(h_hi)) + Fraction(float(h_lo)) == Fraction(float(h))
            for half in (h_hi, h_lo):
                mant = abs(float(half).as_integer_ratio()[0])
                assert mant == 0 or mant // (mant & -mant) < 2**26
            for value in (h, h_hi, h_lo, l):
                assert value == 0 or abs(value) >= np.finfo(float).tiny
            assert math.isfinite(h * _jsonio._SPLIT)

    @pytest.mark.parametrize("precision", [18, 767])
    def test_high_precision_takes_template(self, monkeypatch, precision):
        digit_rows = _spy(monkeypatch, "_digit_rows")
        columns = _tiled([1 / 3, -2e-300, 0.1, math.nan, 5e-324])
        _check(["a", "b"], columns, precision)
        assert not digit_rows

    def test_bool_columns(self, monkeypatch):
        digit_rows = _spy(monkeypatch, "_digit_rows")
        rng = np.random.default_rng(3)
        flags = [rng.random(DIGIT_CELLS) < 0.5 for _ in range(2)]
        columns = [flags[0], rng.standard_normal(DIGIT_CELLS), flags[1]]
        header = ["p", "x", "q"]
        _check(header, columns)
        _check(header[::2], flags)
        assert digit_rows

    # 1, 12 and 40 columns, and a table wider than the block budget,
    # which formats one row per block
    @pytest.mark.parametrize("width", [1, 12, 40, _jsonio.CSV_BLOCK_CELLS + 1],
                             ids=["1col", "12cols", "40cols", "wide"])
    @pytest.mark.parametrize("blocks", [(1, -1), (1, 0), (1, 1), (3, 0)],
                             ids=["one-row-short", "one", "one-row-over", "three"])
    def test_block_boundaries(self, monkeypatch, width, blocks):
        digit_rows = _spy(monkeypatch, "_digit_rows")
        per_block = _block_rows(width)
        rows = blocks[0] * per_block + blocks[1]
        rng = np.random.default_rng([width, rows])
        # every fifth column a bool column
        columns = [rng.random(rows) < 0.5 if c % 5 == 4
                   else rng.standard_normal(rows) * 10.0 ** rng.integers(-20, 20, rows)
                   for c in range(width)]
        _check([f"c{c}" for c in range(width)], columns)
        digits = rows * width >= DIGIT_CELLS
        assert len(digit_rows) == math.ceil(rows / per_block) * digits
        sizes = [len(cols[0]) for cols in digit_rows]
        assert sizes[:-1] == [per_block] * (len(sizes) - 1)

    def test_inf_cell_rejected(self):
        for rows in (4, DIGIT_CELLS):
            column = np.resize([0.5, 1.0, -math.inf, math.inf, 2.0], rows)
            with pytest.raises(InputError, match="^cannot serialize non-finite value -inf$"):
                _jsonio.csv_text(["x", "y"], [np.ones(rows), column])

    def test_unequal_columns_rejected(self):
        with pytest.raises(InputError, match="columns must be 1-D of length 3"):
            _jsonio.csv_text(["x", "y"], [np.ones(3), np.ones(4)])

    @pytest.mark.parametrize("rows, width", [(6000, 12), (1025, 11)], ids=["scan", "solve"])
    def test_block_memory_per_cell(self, rows, width):
        # Besides the text buffer, the peak is the returned str or one
        # block's temporaries: about 80 bytes a cell on these tables (numpy
        # 2.4), and the bound allows 100.  np.compress, which built an int64
        # index per kept byte, took about 227.  64 KiB cover small objects.
        rng = np.random.default_rng(rows)
        if width == 12:
            columns = _scan_columns(rows, rng)
        else:  # pme-solve at n = 8, stride 1: t, y1..y8, entropy, sum_drift
            columns = [np.arange(rows) / 256, *rng.dirichlet(np.ones(8), rows).T,
                       -rng.random(rows), rng.standard_normal(rows) * 1e-16]
        header = [f"c{c}" for c in range(width)]
        _jsonio.csv_text(header, columns)  # fills the cached tables
        tracemalloc.start()
        try:
            text = _jsonio.csv_text(header, columns)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        buffer = len(",".join(header)) + 1 + rows * width * 25
        block_cells = min(rows, _block_rows(width)) * width
        assert peak - buffer <= max(sys.getsizeof(text), 100 * block_cells) + 2**16

    @pytest.mark.parametrize("rows", [DIGIT_CELLS // 4 - 1, DIGIT_CELLS])
    def test_table_is_the_text_as_bytes(self, rows):
        # The CLI writes _csv_table: on the digit path the UTF-8 bytes of
        # csv_text, as a view of its buffer; below it the same str.
        rng = np.random.default_rng(rows)
        columns = [rng.standard_normal(rows), rng.random(rows) < 0.5, np.arange(rows) / 3,
                   np.full(rows, math.nan)]
        text = _jsonio.csv_text(["x", "flag", "t", "nan"], columns)
        table = _jsonio._csv_table(["x", "flag", "t", "nan"], columns, 17)
        if isinstance(table, str):
            assert rows * 4 < DIGIT_CELLS and table == text
        else:
            assert isinstance(table, memoryview)
            assert bytes(table) == text.encode("ascii")

    def test_table_holds_no_second_copy(self):
        # Besides the text buffer, the peak is one block's temporaries: a
        # str of the whole 6000-row scan table (1.3 MB) would exceed the bound.
        rng = np.random.default_rng(12)
        rows = 6000
        columns = [rng.uniform(0.1, 2.0, rows) for _ in range(6)]
        columns += [rng.standard_normal(rows) for _ in range(5)]
        columns.append(rng.random(rows) < 0.5)
        header = [f"c{c}" for c in range(12)]
        _jsonio._csv_table(header, columns, 17)  # fills the cached tables
        tracemalloc.start()
        try:
            table = _jsonio._csv_table(header, columns, 17)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        buffer = len(",".join(header)) + 1 + rows * 12 * 25
        assert peak - buffer <= 100 * _block_rows(12) * 12 + 2**16 < len(table)


class TestAtomicWrite:
    def test_writes_and_replaces(self, tmp_path):
        target = tmp_path / "f.txt"
        _jsonio.atomic_write_text(str(target), "one\n")
        _jsonio.atomic_write_text(str(target), "two\n")
        assert target.read_text() == "two\n"

    def test_no_temp_files_left(self, tmp_path):
        target = tmp_path / "g.txt"
        _jsonio.atomic_write_text(str(target), "data\n")
        assert os.listdir(tmp_path) == ["g.txt"]

    @pytest.mark.parametrize("umask,mode", [(0o022, 0o644), (0o077, 0o600), (0o002, 0o664)])
    def test_mode_follows_umask(self, tmp_path, umask, mode):
        target = tmp_path / "m.txt"
        old = os.umask(umask)
        try:
            _jsonio.atomic_write_text(str(target), "data\n")
        finally:
            os.umask(old)
        assert target.stat().st_mode & 0o777 == mode

    @pytest.mark.parametrize("data", [b"a,b\n1,2\n", memoryview(b"a,b\n1,2\n"),
                                      np.frombuffer(b"a,b\n1,2\n", np.uint8).data],
                             ids=["bytes", "memoryview", "array-view"])
    def test_bytes_written_as_they_are(self, tmp_path, data):
        target = tmp_path / "b.csv"
        old = os.umask(0o022)
        try:
            _jsonio.atomic_write_text(str(target), data)
        finally:
            os.umask(old)
        assert target.read_bytes() == b"a,b\n1,2\n"
        assert target.stat().st_mode & 0o777 == 0o644
        assert os.listdir(tmp_path) == ["b.csv"]

    def test_process_umask_untouched(self, tmp_path, monkeypatch):
        # Toggling the umask to read it would race with other threads' files.
        def umask(mask):
            raise AssertionError("atomic_write_text changed the process umask")

        monkeypatch.setattr(os, "umask", umask)
        target = tmp_path / "u.txt"
        _jsonio.atomic_write_text(str(target), "data\n")
        assert target.read_text() == "data\n"

    def test_taken_temporary_name_is_left_alone(self, tmp_path, monkeypatch):
        monkeypatch.setattr(secrets, "token_hex", lambda nbytes: "taken")
        taken = tmp_path / ".qtrep-taken.tmp"
        taken.write_text("not ours\n")
        with pytest.raises(FileExistsError):
            _jsonio.atomic_write_text(str(tmp_path / "t.txt"), "data\n")
        assert os.listdir(tmp_path) == [".qtrep-taken.tmp"]
        assert taken.read_text() == "not ours\n"

    def test_failed_write_removes_its_temporary_file(self, tmp_path):
        # A lone surrogate cannot be encoded: the write fails before creation.
        with pytest.raises(UnicodeEncodeError):
            _jsonio.atomic_write_text(str(tmp_path / "s.txt"), "data \ud800\n")
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("kind", ["str", "bytes", "array-view"])
    def test_short_writes_write_every_byte(self, tmp_path, monkeypatch, kind):
        # os.write may write fewer bytes than it is given; the rest follow.
        text = "".join(f"{i},\u00e9{i * 0.1!r}\n" for i in range(300))
        raw = text.encode("utf-8")
        data = {"str": text, "bytes": raw,
                "array-view": np.frombuffer(raw, np.uint8).data}[kind]
        real_write = os.write
        calls = []

        def short_write(fd, buffer):
            calls.append(len(buffer))
            return real_write(fd, buffer[:7])

        monkeypatch.setattr(os, "write", short_write)
        target = tmp_path / "w.csv"
        _jsonio.atomic_write_text(str(target), data)
        monkeypatch.undo()
        assert target.read_bytes() == raw
        assert len(calls) == -(-len(raw) // 7)
        assert calls[0] == len(raw)
        assert os.listdir(tmp_path) == ["w.csv"]

    def test_full_disk_keeps_the_old_target(self, tmp_path, monkeypatch):
        def full(fd, buffer):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        target = tmp_path / "t.txt"
        target.write_bytes(b"old\n")
        monkeypatch.setattr(os, "write", full)
        with pytest.raises(OSError) as info:
            _jsonio.atomic_write_text(str(target), "new\n")
        monkeypatch.undo()
        assert info.value.errno == errno.ENOSPC
        assert os.listdir(tmp_path) == ["t.txt"]
        assert target.read_bytes() == b"old\n"

    def test_both_csv_paths_write_utf8_under_an_ascii_locale(self, tmp_path):
        # The C locale with neither UTF-8 mode nor locale coercion: the
        # locale encoding is ASCII, and a str is still written as UTF-8.
        script = "\n".join([
            "import sys",
            "import numpy as np",
            "from qtrep import _jsonio",
            "header = ['t', '\\u00e9']",
            "for name, rows in (('template', 4), ('digits', 600)):",
            "    columns = [np.arange(rows) * 0.1, np.arange(rows) * 0.3]",
            "    table = _jsonio._csv_table(header, columns, 17)",
            "    assert isinstance(table, str) == (name == 'template'), name",
            "    _jsonio.atomic_write_text(sys.argv[1] + name + '.csv', table)",
        ])
        src = os.path.dirname(os.path.dirname(os.path.abspath(_jsonio.__file__)))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0",
               "PYTHONPATH": path}
        proc = subprocess.run([sys.executable, "-c", script, str(tmp_path) + os.sep],
                              env=env, capture_output=True, timeout=120)
        assert (proc.returncode, proc.stderr) == (0, b"")
        for name in ("template", "digits"):
            lines = (tmp_path / f"{name}.csv").read_bytes().splitlines(keepends=True)
            assert lines[0] == "t,\u00e9\n".encode("utf-8")
            assert lines[2] == b"0.10000000000000001,0.29999999999999999\n"
