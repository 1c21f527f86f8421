import json
import math
import os

import numpy as np
import pytest

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

    def test_bools_are_not_numbers(self):
        assert '"x": true' in _jsonio.dumps({"x": True})

    def test_deterministic(self):
        doc = {"values": [math.pi, math.e, 1e-17]}
        assert _jsonio.dumps(doc) == _jsonio.dumps(doc)


def _oracle_csv(header, columns, precision):
    """Per-cell reference: format_float, nan, true/false, one row at a time."""
    def cell(value):
        if isinstance(value, bool):
            return "true" if value else "false"
        if math.isnan(value):
            return "nan"
        return _jsonio.format_float(value, precision)

    rows = zip(*(np.asarray(col).tolist() for col in columns))
    lines = [",".join(header)] + [",".join(cell(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


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

    def test_matches_per_cell_oracle(self):
        rng = np.random.default_rng(12)
        # more than two blocks, with a partial last block
        count = 2 * _jsonio.CSV_BLOCK_ROWS + 37
        special = [math.nan, -0.0, 0.0, 5e-324, 1e-300, 1.7e308, -1.7e308, 21.0, 1e16]
        floats = rng.standard_normal(count) * 10.0 ** rng.integers(-300, 300, count)
        floats[: len(special)] = special
        integral = np.round(rng.uniform(-1e6, 1e6, count))
        flags = rng.random(count) < 0.5
        columns = [floats, integral, flags, rng.permutation(floats)]
        header = ["f", "i", "flag", "g"]
        for precision in range(1, 18):
            assert _jsonio.csv_text(header, columns, precision) == _oracle_csv(
                header, columns, precision
            )

    def test_inf_cell_rejected(self):
        column = np.array([0.5, 1.0, -math.inf, 2.0])
        with pytest.raises(InputError, match="non-finite value -inf"):
            _jsonio.csv_text(["x", "y"], [np.ones(4), column])


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
