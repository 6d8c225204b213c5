"""Uniformly sampled time series plus CSV ingestion/export.

All traces carry an explicit physical unit and step size so later stages can
refuse silently mismatched inputs.
"""

from __future__ import annotations

import csv
import math
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
    """Write a header row, then each row of `rows`.

    Integers and strings are written as they are; every other value is
    written as repr(float(v)), the shortest string that reads back exactly.
    """
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([v if isinstance(v, (int, str)) else repr(float(v)) for v in row])


def save_trace(trace: Trace, path: str | Path, value_header: str) -> None:
    """Write a trace as CSV `step,<value_header>` with round-trip precision."""
    write_csv(path, ["step", value_header], enumerate(trace.values))


def read_table(path: str | Path, header: list[str] | None = None) -> tuple[list[str], np.ndarray]:
    """A numeric `step,...` CSV as (header, one float row per data line).

    Refuses, naming the file, a missing or empty file, a first column other
    than `step`, and a header other than `header` when one is given; and,
    naming the file and the row (the lines after the header count from 1,
    blank ones included), a row whose cell count differs from the header's,
    a cell that is not a finite number, and steps other than 0, 1, 2, ...
    """
    path = Path(path)
    if not path.exists():
        raise TraceError(f"file not found: {path}")
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        try:
            found = next(reader)
        except StopIteration:
            raise TraceError(f"{path}: empty file") from None
        numbered = [(rownum, row) for rownum, row in enumerate(reader, start=1) if row]
    rownums = [rownum for rownum, _ in numbered]
    rows = [row for _, row in numbered]
    if found[:1] != ["step"]:
        raise TraceError(f"{path}: expected a header starting with 'step', got {found}")
    if header is not None and found != header:
        raise TraceError(f"{path}: expected header {header}, got {found}")
    if not rows:
        raise TraceError(f"{path}: no data rows")
    for rownum, row in numbered:
        if len(row) != len(found):
            raise TraceError(f"{path}: row {rownum} has {len(row)} cells, header has {len(found)}")
    try:
        table = np.array(rows, dtype=float)
    except ValueError:
        for rownum, row in numbered:
            try:
                np.array(row, dtype=float)
            except ValueError as exc:
                raise TraceError(f"{path}: row {rownum}: {exc}") from None
        raise
    finite = np.isfinite(table).all(axis=1)
    if not finite.all():
        raise TraceError(f"{path}: non-finite value at row {rownums[int(np.argmin(finite))]}")
    expected = np.arange(len(table))
    if not np.array_equal(table[:, 0], expected):
        k = int(np.argmax(table[:, 0] != expected))
        raise TraceError(
            f"{path}: gap or reorder at row {rownums[k]}: step {rows[k][0]}, expected {k}"
        )
    return found, table


def load_trace(path: str | Path, expected_unit: str, expected_step_seconds: int) -> Trace:
    """The value column of a `step,<value>` CSV as a Trace."""
    header, table = read_table(path)
    if len(header) != 2:
        raise TraceError(f"{path}: expected header 'step,<value>', got {header}")
    return Trace(
        values=table[:, 1].tolist(), unit=expected_unit, step_seconds=expected_step_seconds
    )
