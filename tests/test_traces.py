"""Fuzz tests of `traces.read_table`: the exact round trip through `write_csv`,
and parity with a reference parser on damaged files."""

import csv
import io
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import dpdispatch
from dpdispatch.traces import TraceError, read_table, write_csv

EDGE_FLOATS = [
    0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308, 1e16, -1e16,
    1e-5, 0.1, 1.0 / 3.0, 1.7976931348623157e308,
]
finite_floats = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(EDGE_FLOATS)

# Float syntax that np.loadtxt accepts: ASCII digits, no underscores, any
# Unicode whitespace around the number.
LOADTXT_FLOAT = re.compile(
    r"\s*[+-]?("
    r"([0-9]+\.?[0-9]*|\.[0-9]+)([eE][+-]?[0-9]+)?"
    r"|[iI][nN][fF]([iI][nN][iI][tT][yY])?|[nN][aA][nN]"
    r")\s*"
)

# Cell texts that replace a number, by kind of edit.
TOKENS = {
    "spelling": [" 2 ", "+3", ".5", "5.", "1e2", "\xa01", "\t7", "\x1c8", '" 4 "'],
    "python_only": ["1_5", "１.５", "٣"],
    "non_numeric": ["x", "", " ", "0x10", "1e", "--1", "1.0.0", "1 5", "1j", '"1,5"'],
    "non_finite": ["nan", "-inf", "Infinity", "1e999"],
}
EDITS = ["quote", "blank", "extra", "missing", "gap", "swap", *TOKENS]


@st.composite
def tables(draw):
    n_values = draw(st.integers(0, 3))
    n_rows = draw(st.integers(1, 6))
    return [draw(st.lists(finite_floats, min_size=n_values, max_size=n_values))
            for _ in range(n_rows)]


def header_for(values):
    return ["step"] + [f"v{j}" for j in range(len(values[0]))]


def write_table(path, values):
    write_csv(path, header_for(values), [(k, *row) for k, row in enumerate(values)])


def reference_read(text):
    """(table, None) for a valid `step,...` file, else (None, the error it needs).

    csv splits the rows, blank ones counted; each cell must match
    LOADTXT_FLOAT. Checks run as `read_table`'s docstring orders them, and
    a refusal is the regex that `read_table`'s message must match.
    """
    header, *body = csv.reader(io.StringIO(text, newline=""))
    rows = [(n, row) for n, row in enumerate(body, start=1) if row]
    if not rows:
        return None, "no data rows$"
    for n, row in rows:
        if len(row) != len(header):
            return None, f"row {n} has {len(row)} cells, header has {len(header)}$"
    parsed = []
    for n, row in rows:
        if not all(LOADTXT_FLOAT.fullmatch(cell) for cell in row):
            return None, f"row {n}: could not convert string to float: "
        parsed.append([float(cell.strip()) for cell in row])
    for (n, _), values in zip(rows, parsed):
        if not all(map(math.isfinite, values)):
            return None, f"non-finite value at row {n}$"
    for k, ((n, row), values) in enumerate(zip(rows, parsed)):
        if values[0] != k:
            return None, f"gap or reorder at row {n}: step {re.escape(row[0])}, expected {k}$"
    return np.array(parsed), None


@settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(values=tables())
def test_round_trip_is_bit_exact(tmp_path, values):
    path = tmp_path / "table.csv"
    write_table(path, values)
    header, table = read_table(path, header_for(values))
    expected = np.column_stack([np.arange(len(values), dtype=float), np.array(values)])
    assert header == header_for(values)
    assert table.shape == expected.shape
    assert table.tobytes() == expected.tobytes()


@st.composite
def damaged(draw, lines, n_cols):
    """`lines` (header first) with one to three edits, joined as csv writes them."""
    lines = list(lines)
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(1, len(lines)))
        if i == len(lines):
            lines.append(str(i - 1) + ",1.0" * (n_cols - 1))
            continue
        cells = lines[i].split(",") if lines[i] else []
        edit = draw(st.sampled_from(EDITS))
        j = draw(st.integers(0, max(len(cells) - 1, 0)))
        if edit == "quote" and cells:
            cells[j] = f'"{cells[j]}"'
        elif edit == "blank":
            lines.insert(i, "")
            continue
        elif edit == "extra":
            cells.append("1.0")
        elif edit == "missing" and cells:
            cells.pop()
        elif edit in TOKENS and cells:
            cells[j] = draw(st.sampled_from(TOKENS[edit]))
        elif edit == "gap" and cells:
            cells[0] = str(draw(st.integers(-1, len(lines))))
        elif edit == "swap" and i + 1 < len(lines):
            lines[i], lines[i + 1] = lines[i + 1], lines[i]
            continue
        lines[i] = ",".join(cells)
    return "".join(line + "\r\n" for line in lines)


# More examples than the default, so that most runs draw each kind of edit
# in a file with no earlier-reported problem.
@settings(max_examples=300, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data(), values=tables())
def test_matches_reference_parser_on_damaged_files(tmp_path, data, values):
    path = tmp_path / "table.csv"
    write_table(path, values)
    text = data.draw(damaged(path.read_text().splitlines(), len(values[0]) + 1))
    path.write_text(text, newline="")
    expected, error = reference_read(text)
    try:
        _, table = read_table(path)
    except TraceError as exc:
        assert expected is None, str(exc)
        assert re.search(f"^{re.escape(str(path))}: {error}", str(exc)), (str(exc), error)
        return
    assert expected is not None, f"accepted; the reference refuses with {error!r}"
    assert table.tobytes() == expected.tobytes()


def test_undecodable_byte_named_wherever_it_sits(tmp_path):
    # the header, a first row, and a row past the text reader's first chunk,
    # which only the body parse and the row walk decode
    path = tmp_path / "t.csv"
    write_csv(path, ["step", "v"], ((k, k / 7) for k in range(2000)))
    data = path.read_bytes()
    assert len(data) > 4 * io.DEFAULT_BUFFER_SIZE
    for at in (2, data.index(b"\n") + 3, len(data) - 4):
        path.write_bytes(data[:at] + b"\xff" + data[at + 1 :])
        try:
            read_table(path)
        except TraceError as exc:
            assert str(exc) == f"{path}: not utf-8 text: byte 0xff, invalid start byte"
        else:
            raise AssertionError(f"byte 0xff at {at} accepted")


def csv_writer_text(header, rows):
    """What csv.writer writes for the rows, each cell as its repr."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(header)
    for row in rows:
        writer.writerow(map(repr, row))
    return buf.getvalue()


def test_write_csv_bytes_equal_csv_writer_on_edge_rows(tmp_path):
    rows = [
        [0, 0.0, -0.0, math.nan, math.inf, -math.inf],
        (1, 1e16, -1e16, 1e-05, 5e-324, -5e-324, 2**70, -(2**70)),
        [2, *EDGE_FLOATS],
        [],
        [6],
    ]
    path = tmp_path / "edge.csv"
    write_csv(path, ["step", "x"], (row for row in rows))
    assert path.read_bytes() == csv_writer_text(["step", "x"], rows).encode()


@pytest.mark.parametrize("row", [
    [3, True, False, 0.5],
    [4, np.float64(0.1), np.float64(-0.0), np.float32(0.1), np.int64(7), np.bool_(True)],
    [5, "a,b", 'say "hi"', '"', ",", "", 1.5],
], ids=["bool", "numpy-scalar", "str"])
def test_write_csv_refuses_other_cells(tmp_path, row):
    path = tmp_path / "edge.csv"
    with pytest.raises(TypeError, match=f"^{re.escape(str(path))}: cell .* not an int or float$"):
        write_csv(path, ["step", "x"], [[0, 1.0], row])


def test_module_import_loads_only_what_it_imports():
    # a fresh interpreter: the package root defines only __version__, so
    # importing traces loads neither the other modules nor PyYAML
    code = ("import sys, dpdispatch\n"
            "print(sorted(n for n in vars(dpdispatch) if not n.startswith('_')))\n"
            "import dpdispatch.traces\n"
            "print(sorted(m for m in sys.modules if m.partition('.')[0] in ('dpdispatch', 'yaml')))\n")
    env = {**os.environ, "PYTHONPATH": str(Path(dpdispatch.__file__).parents[1])}
    lines = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                           text=True, check=True).stdout.splitlines()
    assert lines == ["[]", "['dpdispatch', 'dpdispatch.traces']"]
