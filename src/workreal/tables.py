"""Sweep result tables and their on-disk CSV form.

Every CSV starts with a '#'-prefixed manifest (config echo, library version,
truncation budgets), then a header row, then data rows.  Floats are written with 17
significant digits so the file re-parses to the exact values that produced it,
and the byte stream is a pure function of (config, seed).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import InvalidParameterError


format_float = "{:.17g}".format


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
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = _manifest_lines(table.meta)
    lines.append(",".join(table.columns))
    lines.extend(",".join(map(format_float, row)) for row in table.rows.tolist())
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


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

    z[i, j] is the value at (x_values[i], y_values[j]).  Returns an (n, 2) array of
    crossing points sorted lexicographically; no attempt is made to chain them into
    curves.
    """
    f = z - level
    points: set[tuple[float, float]] = set()
    for i, j in zip(*np.nonzero(f == 0.0)):
        points.add((float(x_values[i]), float(y_values[j])))
    for i in range(f.shape[0] - 1):
        for j in range(f.shape[1]):
            a, b = f[i, j], f[i + 1, j]
            if (a < 0 < b) or (b < 0 < a):
                t = a / (a - b)
                points.add((float(x_values[i] + t * (x_values[i + 1] - x_values[i])),
                            float(y_values[j])))
    for i in range(f.shape[0]):
        for j in range(f.shape[1] - 1):
            a, b = f[i, j], f[i, j + 1]
            if (a < 0 < b) or (b < 0 < a):
                t = a / (a - b)
                points.add((float(x_values[i]),
                            float(y_values[j] + t * (y_values[j + 1] - y_values[j]))))
    if not points:
        return np.empty((0, 2))
    return np.array(sorted(points))
