"""Point-cloud container and CSV I/O.

A cloud is an ordered list of points in R^n stored as a dense (size, n)
float64 array.  Files are plain CSV: one point per line, comma separated,
'.' decimal separator, no header, LF line endings, 17 significant digits so
that save followed by load reproduces every coordinate exactly.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import CloudFormatError


@dataclass(frozen=True)
class PointCloud:
    """Immutable set of points sharing one ambient dimension.

    Args:
        points: (size, ambient_dim) array; copied, validated, made read-only.
    """

    points: np.ndarray

    def __post_init__(self):
        pts = np.array(self.points, dtype=np.float64, copy=True)
        if pts.ndim != 2:
            raise ValueError(f"points must be a 2-d array, got ndim={pts.ndim}")
        if pts.shape[0] < 1:
            raise ValueError("a point cloud must contain at least one point")
        if not np.all(np.isfinite(pts)):
            bad = np.argwhere(~np.isfinite(pts))[0]
            raise ValueError(f"non-finite coordinate at point {bad[0]}, column {bad[1]}")
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)

    @property
    def size(self) -> int:
        return self.points.shape[0]

    @property
    def ambient_dim(self) -> int:
        return self.points.shape[1]

    def __len__(self) -> int:
        return self.size

    def subset(self, indices) -> "PointCloud":
        return PointCloud(self.points[np.asarray(indices)])


def as_points(cloud) -> np.ndarray:
    """Accept a PointCloud or a bare (k, n) array and return the array."""
    if isinstance(cloud, PointCloud):
        return cloud.points
    return np.asarray(cloud, dtype=np.float64)


def load_cloud(path) -> PointCloud:
    """Read a CSV point cloud.

    Values are parsed by one ``np.loadtxt`` call.  A file that it or
    PointCloud rejects raises CloudFormatError naming the file and, where
    ``_defect`` finds it, the row and column of the first bad cell.
    """
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # on empty input; _defect names it
            return PointCloud(np.loadtxt(path, delimiter=",", ndmin=2, dtype=np.float64,
                                         comments=None, encoding="ascii"))
    except OSError as exc:
        raise CloudFormatError(f"{path}: cannot read file: {exc}") from exc
    except ValueError as exc:  # UnicodeDecodeError is one too
        raise CloudFormatError(f"{path}: {_defect(path) or exc}") from None


def _defect(path) -> str | None:
    """Where a file that load_cloud rejected goes wrong: no data line, a row
    of another width, or a cell that is not a finite number.  Rows count the
    non-empty lines; a non-ASCII byte shows as a backslash escape."""
    with open(path, encoding="ascii", errors="backslashreplace") as fh:
        rows = [line.split(",") for line in fh.read().split("\n") if line]
    if not rows:
        return "file contains no data lines"
    width = len(rows[0])
    for i, cells in enumerate(rows, 1):
        if len(cells) != width:
            return f"row {i} has {len(cells)} columns, expected {width}"
        for j, cell in enumerate(cells, 1):
            try:
                if "_" in cell:  # float() reads digit separators, loadtxt does not
                    raise ValueError(cell)
                finite = math.isfinite(float(cell))
            except ValueError:
                return f"row {i}, column {j}: non-numeric cell {cell!r}"
            if not finite:
                return f"row {i}, column {j}: non-finite cell {cell!r}"
    return None


def save_cloud(cloud, path) -> None:
    """Write a CSV point cloud that load_cloud inverts exactly."""
    pts = as_points(cloud)
    write_matrix(pts, path)


def write_matrix(arr: np.ndarray, path) -> None:
    arr = np.asarray(arr, dtype=np.float64)
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        for row in arr:
            fh.write(",".join(format(v, ".17g") for v in row))
            fh.write("\n")


def write_table(path, header: list[str], rows) -> None:
    """Write a CSV table: the header line, then one line per row with floats
    at 17 significant digits and every other value as ``str`` gives it."""
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(format(v, ".17g") if isinstance(v, float) else str(v)
                              for v in row))
            fh.write("\n")
