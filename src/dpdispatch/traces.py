"""Uniformly sampled time series plus CSV ingestion/export.

All traces carry an explicit physical unit and step size so later stages can
refuse silently mismatched inputs.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
VALID_UNITS = ("kW", "degC", "kW/m2")


class TraceError(ValueError):
    """Malformed or inconsistent time-series input."""


@dataclass(frozen=True)
class Trace:
    """A uniformly sampled series (PV power, temperature, irradiance, ...)."""

    values: tuple[float, ...]
    unit: str
    step_seconds: int
    start_label: str = "t0"

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


def load_trace(
    path: str | Path,
    expected_unit: str,
    expected_step_seconds: int,
    value_column: str | None = None,
) -> Trace:
    """Load and validate a `step,value` CSV into a Trace.

    Rejects NaN/inf values (naming the offending row), missing or
    out-of-order step indices, and empty files.
    """
    path = Path(path)
    if not path.exists():
        raise TraceError(f"trace file not found: {path}")
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise TraceError(f"{path}: empty file") from None
        if len(header) < 2 or header[0] != "step":
            raise TraceError(f"{path}: expected header 'step,<value>', got {header}")
        if value_column is not None:
            if value_column not in header:
                raise TraceError(f"{path}: missing column {value_column!r}")
            col = header.index(value_column)
        else:
            col = 1
        values: list[float] = []
        for rownum, row in enumerate(reader, start=1):
            if not row:
                continue
            try:
                step_idx = int(row[0])
                v = float(row[col])
            except (ValueError, IndexError) as exc:
                raise TraceError(f"{path}: parse error at row {rownum}: {exc}") from None
            if step_idx != len(values):
                raise TraceError(
                    f"{path}: gap or reorder at row {rownum}: step {step_idx}, expected {len(values)}"
                )
            if not math.isfinite(v):
                raise TraceError(f"{path}: non-finite value at row {rownum}")
            values.append(v)
    if not values:
        raise TraceError(f"{path}: no data rows")
    return Trace(values=tuple(values), unit=expected_unit, step_seconds=expected_step_seconds)
