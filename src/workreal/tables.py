"""Sweep result tables and their on-disk CSV form.

Every CSV starts with a '#'-prefixed manifest (config echo, library version,
truncation budgets), then a header row, then data rows.  Floats are written with 17
significant digits (FLOAT_FORMAT) so the file re-parses to the exact values that
produced it, and the byte stream is a pure function of (config, seed).  The writer
streams the lines through the open file, in chunks of rows, formatting each data
row with a single `%` operation on one string of FLOAT_FORMAT fields.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import InvalidParameterError


FLOAT_FORMAT = "%.17g"
# rows converted to Python floats per batch: all of a long table's floats at once
# would set the run's peak memory
WRITE_CHUNK_ROWS = 1024


def format_float(value: float) -> str:
    return FLOAT_FORMAT % value


@dataclass
class SweepTable:
    columns: list[str]
    rows: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        rows = np.atleast_2d(np.asarray(self.rows, dtype=float))
        if rows.size and rows.shape[1] != len(self.columns):
            raise InvalidParameterError("row width does not match the column list")
        self.rows = rows

    def column(self, name: str) -> np.ndarray:
        return self.rows[:, self.columns.index(name)]


def _manifest_lines(meta: dict) -> list[str]:
    lines = []
    for key, value in meta.items():
        if isinstance(value, float):
            value = format_float(value)
        elif not isinstance(value, (str, int, bool)):
            continue  # arrays and other payloads are written to their own files
        lines.append(f"# {key} = {value}")
    return lines


def write_table_csv(path: str | Path, table: SweepTable) -> None:
    """Write the manifest, the header and the rows, one line each, to `path`.

    Lines go straight to the open file, and the rows are converted to Python
    floats WRITE_CHUNK_ROWS at a time, so neither the whole text nor all of the
    table's floats are held in memory.  Each data row is one `%` operation on a
    string of FLOAT_FORMAT fields (the conversion `format_float` makes), so a row
    reads as its floats joined by commas.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    row_format = ",".join([FLOAT_FORMAT] * table.rows.shape[1]) + "\n"
    with path.open("w", encoding="utf-8", newline="\n") as out:
        for line in _manifest_lines(table.meta):
            out.write(line + "\n")
        out.write(",".join(table.columns) + "\n")
        for start in range(0, len(table.rows), WRITE_CHUNK_ROWS):
            out.writelines(row_format % tuple(row)
                           for row in table.rows[start:start + WRITE_CHUNK_ROWS].tolist())


def read_table_csv(path: str | Path) -> SweepTable:
    meta: dict = {}
    columns: list[str] | None = None
    rows: list[list[float]] = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if not line.strip():
            continue
        if line.startswith("#"):
            key, _, value = line[1:].partition("=")
            meta[key.strip()] = value.strip()
        elif columns is None:
            columns = [c.strip() for c in line.split(",")]
        else:
            rows.append([float(x) for x in line.split(",")])
    if columns is None:
        raise InvalidParameterError(f"{path} contains no header row")
    data = np.array(rows) if rows else np.empty((0, len(columns)))
    return SweepTable(columns, data, meta)


def contour_points(x_values: np.ndarray, y_values: np.ndarray, z: np.ndarray,
                   level: float) -> np.ndarray:
    """Linear edge crossings of z(x, y) = level on a rectangular grid.

    z[i, j] is the value at (x_values[i], y_values[j]).  Boolean masks find the nodes
    at the level and the x and y edges whose end values a, b straddle it, crossed at
    t = a / (a - b) of the edge.  Returns an (n, 2) array of the distinct points
    sorted lexicographically; no attempt is made to chain them into curves.
    """
    x, y = np.asarray(x_values, dtype=float), np.asarray(y_values, dtype=float)
    f = z - level
    i, j = np.nonzero(f == 0.0)
    points = [np.column_stack([x[i], y[j]])]
    for a, b, along_x in ((f[:-1], f[1:], True), (f[:, :-1], f[:, 1:], False)):
        i, j = np.nonzero((a < 0) & (0 < b) | (b < 0) & (0 < a))
        t = a[i, j] / (a[i, j] - b[i, j])
        points.append(np.column_stack([x[i] + t * (x[i + 1] - x[i]), y[j]]) if along_x
                      else np.column_stack([x[i], y[j] + t * (y[j + 1] - y[j])]))
    # return_index sorts stably: of points equal but for a zero's sign, the first found stays
    return np.unique(np.concatenate(points), axis=0, return_index=True)[0]
