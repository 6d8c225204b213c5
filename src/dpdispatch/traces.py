"""Uniformly sampled time series plus CSV ingestion/export.

All traces carry an explicit physical unit and step size so later stages can
refuse silently mismatched inputs.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

VALID_UNITS = ("kW", "degC", "kW/m2")


class TraceError(ValueError):
    """Malformed or inconsistent time-series input."""


@dataclass(frozen=True)
class Trace:
    """A uniformly sampled series (PV power, temperature, irradiance, ...)."""

    values: tuple[float, ...]
    unit: str
    step_seconds: int

    def __post_init__(self):
        if len(self.values) == 0:
            raise TraceError("trace must be non-empty")
        if self.step_seconds <= 0:
            raise TraceError("step_seconds must be positive")
        if self.unit not in VALID_UNITS:
            raise TraceError(f"unknown unit {self.unit!r}, expected one of {VALID_UNITS}")
        values = tuple(map(float, self.values))
        object.__setattr__(self, "values", values)
        if not all(map(math.isfinite, values)):
            first_bad = next(i for i, v in enumerate(values) if not math.isfinite(v))
            raise TraceError(f"non-finite value at step {first_bad}")

    def __len__(self) -> int:
        return len(self.values)


def write_csv(path: str | Path, header: list[str], rows) -> None:
    """Write a header row, then each row of `rows`, as they come.

    Each line is its cells joined by commas, then a CRLF. Header cells are
    written as they are. A row cell must be exactly an int or a float and is
    written as its repr, the shortest string that reads back exactly; such a
    cell never needs CSV quoting. Any other cell (a str, bool or numpy
    scalar) raises TypeError naming the file. `rows` may be a generator; no
    row is kept after it is written.
    """
    numeric = {int, float}.issuperset
    with Path(path).open("w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for row in rows:
            if not numeric(map(type, row)):
                bad = next(v for v in row if type(v) not in (int, float))
                raise TypeError(f"{path}: cell {bad!r} is a {type(bad).__name__}, not an int or float")
            fh.write(",".join(map(repr, row)) + "\r\n")


def read_table(path: str | Path, header: list[str] | None = None) -> tuple[list[str], np.ndarray]:
    """A numeric `step,...` CSV as (header, one float row per data line).

    Refuses, naming the file, a missing or empty file, a first column other
    than `step`, and a header other than `header` when one is given; and,
    naming the file and the row (the lines after the header count from 1,
    blank ones included), a row whose cell count differs from the header's,
    a cell that is not a finite number, and steps other than 0, 1, 2, ...
    A file that does not decode as text, in its header or any row, is
    refused naming the file and the first bad byte.

    A cell is accepted as `np.loadtxt` parses it: Python float syntax in
    ASCII (`nan` and `inf` included, then refused as non-finite), with
    surrounding Unicode whitespace, optionally in double quotes; underscores
    and non-ASCII digits are refused. The body is parsed in one `np.loadtxt`
    call; only when that call or a check on its table fails does a row-by-row
    csv walk run, and only to name the bad row.
    """
    path = Path(path)
    if not path.exists():
        raise TraceError(f"file not found: {path}")
    try:
        return _parse_table(path, header)
    except UnicodeDecodeError as exc:
        bad = exc.object[exc.start : exc.end].hex()
        raise TraceError(f"{path}: not {exc.encoding} text: byte 0x{bad}, {exc.reason}") from None


def _parse_table(path: Path, header: list[str] | None) -> tuple[list[str], np.ndarray]:
    """read_table's checks on an existing file; the text decoding may fail anywhere."""
    with path.open(newline="") as fh:
        try:
            found = next(csv.reader(fh))
        except StopIteration:
            raise TraceError(f"{path}: empty file") from None
        if found[:1] != ["step"]:
            raise TraceError(f"{path}: expected a header starting with 'step', got {found}")
        if header is not None and found != header:
            raise TraceError(f"{path}: expected header {header}, got {found}")
        try:
            # A body of blank lines gives an empty table, which the walk names.
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)
                table = np.loadtxt(fh, delimiter=",", quotechar='"', comments=None,
                                   dtype=float, ndmin=2)
        except ValueError as exc:
            raise _bad_row_error(path, found, str(exc)) from None
    if (
        len(table) > 0
        and table.shape[1] == len(found)
        and np.isfinite(table).all()
        and np.array_equal(table[:, 0], np.arange(len(table)))
    ):
        return found, table
    raise _bad_row_error(path, found, "the parsed table failed a row check")


def _cell_float(cell: str) -> float:
    """One cell by `np.loadtxt`'s rules: Unicode whitespace stripped, then
    float() syntax without underscores or non-ASCII characters."""
    number = cell.strip()
    if "_" not in number and number.isascii():
        try:
            return float(number)
        except ValueError:
            pass
    raise ValueError(f"could not convert string to float: {cell!r}")


def _bad_row_error(path: Path, header: list[str], fast_error: str) -> TraceError:
    """The TraceError naming the first bad row of a file the fast parse refused.

    The checks run in the order of `read_table`'s docstring, each over every
    row before the next starts. If the walk finds no bad row, the error gives
    `fast_error`, the fast parse's reason.
    """
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        numbered = [(rownum, row) for rownum, row in enumerate(reader, start=1) if row]
    if not numbered:
        return TraceError(f"{path}: no data rows")
    for rownum, row in numbered:
        if len(row) != len(header):
            return TraceError(
                f"{path}: row {rownum} has {len(row)} cells, header has {len(header)}"
            )
    values = []
    for rownum, row in numbered:
        try:
            values.append([_cell_float(cell) for cell in row])
        except ValueError as exc:
            return TraceError(f"{path}: row {rownum}: {exc}")
    for (rownum, _), parsed in zip(numbered, values):
        if not all(map(math.isfinite, parsed)):
            return TraceError(f"{path}: non-finite value at row {rownum}")
    for k, ((rownum, row), parsed) in enumerate(zip(numbered, values)):
        if parsed[0] != k:
            return TraceError(
                f"{path}: gap or reorder at row {rownum}: step {row[0]}, expected {k}"
            )
    return TraceError(f"{path}: {fast_error}")


def load_trace(path: str | Path, expected_unit: str, expected_step_seconds: int) -> Trace:
    """The value column of a `step,<value>` CSV as a Trace."""
    header, table = read_table(path)
    if len(header) != 2:
        raise TraceError(f"{path}: expected header 'step,<value>', got {header}")
    return Trace(
        values=table[:, 1].tolist(), unit=expected_unit, step_seconds=expected_step_seconds
    )
