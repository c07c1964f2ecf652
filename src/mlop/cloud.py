"""Point-cloud container and CSV I/O.

A cloud is an ordered list of points in R^n stored as a dense (size, n)
float64 array.  Files are plain CSV: one point per line, comma separated,
'.' decimal separator, no header, LF line endings, 17 significant digits so
that save followed by load reproduces every coordinate exactly.
"""

from __future__ import annotations

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
    """Read a CSV point cloud; malformed input reports row/column location."""
    try:
        with open(path, "r", encoding="ascii") as fh:
            text = fh.read()
    except OSError as exc:
        raise CloudFormatError(f"{path}: cannot read file: {exc}") from exc
    lines = [ln for ln in text.split("\n") if ln.strip() != ""]
    if not lines:
        raise CloudFormatError(f"{path}: file contains no data lines")
    # Fast path: well-formed files parse in one numpy call.  The manual
    # parser below only runs to pinpoint the defect.
    try:
        arr = np.loadtxt(path, delimiter=",", ndmin=2, dtype=np.float64)
        if arr.shape[0] == len(lines):
            return PointCloud(arr)
    except Exception:
        pass
    width = None
    rows = []
    for i, ln in enumerate(lines):
        cells = ln.split(",")
        if width is None:
            width = len(cells)
        elif len(cells) != width:
            raise CloudFormatError(
                f"{path}: row {i + 1} has {len(cells)} columns, expected {width}"
            )
        row = np.empty(width)
        for j, cell in enumerate(cells):
            try:
                row[j] = float(cell)
            except ValueError:
                raise CloudFormatError(
                    f"{path}: row {i + 1}, column {j + 1}: non-numeric cell {cell!r}"
                ) from None
        rows.append(row)
    return PointCloud(np.vstack(rows))


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
