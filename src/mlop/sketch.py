"""Randomized linear sketching for robust high-dimensional norms.

All inter-point norms and distances in the pipeline are evaluated after
projecting onto a column-orthonormal basis S built once from the input data:
a Gaussian mix of the data rows, orthonormalized by QR.  ||S^t x|| never
exceeds ||x|| and equals it on the column span, so distances computed this
way contract ambient noise while preserving the data geometry.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .cloud import as_points, load_cloud, write_matrix
from .errors import CloudFormatError, ConfigError, DegenerateSketchError, check_seed
from .rng import Rng

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class SketchMatrix:
    """Column-orthonormal n-by-m projection basis."""

    s: np.ndarray

    def __post_init__(self):
        s = np.array(self.s, dtype=np.float64, copy=True)
        if s.ndim != 2:
            raise ValueError("sketch basis must be a 2-d array")
        gram_err = np.abs(s.T @ s - np.eye(s.shape[1])).max()
        if gram_err > 1e-10:
            raise ValueError(f"sketch columns not orthonormal (|S^tS - I| = {gram_err:.3e})")
        s.flags.writeable = False
        object.__setattr__(self, "s", s)

    @property
    def n(self) -> int:
        return self.s.shape[0]

    def project(self, points) -> np.ndarray:
        """Project points-as-rows into the sketch space: X @ S."""
        return as_points(points) @ self.s


def build_sketch(P, m: int, rng: Rng) -> SketchMatrix:
    """Build the projection basis from the data cloud.

    Draws a J-by-m standard-normal mixing matrix G, forms B = P^t G (columns
    are random combinations of the data rows, so they live in the data's row
    space), and orthonormalizes B by QR.

    Raises:
        ConfigError: m is outside [1, n] for data in R^n.
        DegenerateSketchError: B has rank < m (e.g. the data spans fewer than
            m directions).  The caller may retry with a smaller m; padding
            silently would corrupt every downstream norm.
    """
    pts = as_points(P)
    J, n = pts.shape
    if not 1 <= m <= n:
        raise ConfigError(f"sketch dimension must be in [1, {n}] for data in R^{n}, "
                          f"got {m}")
    g = rng.standard_normal((J, m))
    b = pts.T @ g
    q, r = np.linalg.qr(b)
    diag = np.abs(np.diag(r))
    tol = max(J, n) * np.finfo(np.float64).eps * (diag.max() if diag.size else 0.0)
    achieved = int(np.sum(diag > tol))
    if achieved < m:
        raise DegenerateSketchError(requested=m, achieved=achieved)
    return SketchMatrix(q)


def sketch_for_run(P, m: int, seed: int) -> SketchMatrix:
    """The sketch of a run with this seed: built from its "sketch" stream
    and, while the data span fewer than m directions, rebuilt from the same
    stream at the rank achieved, with a logged warning.  A seed outside 64
    unsigned bits, or m outside [1, n], raises ConfigError."""
    check_seed(seed)
    while True:
        try:
            return build_sketch(P, m, Rng(seed).stream("sketch"))
        except DegenerateSketchError as exc:
            logger.warning("sketch rank %d < requested %d; rebuilding at rank %d",
                           exc.achieved, m, exc.achieved)
            m = exc.achieved


def save_sketch(S: SketchMatrix, path) -> None:
    """Persist the basis as CSV (same layout as a point cloud, m columns)."""
    write_matrix(S.s, path)


def load_sketch(path) -> SketchMatrix:
    """Read a basis saved by save_sketch.

    Raises:
        CloudFormatError: the file does not hold a column-orthonormal basis.
    """
    try:
        return SketchMatrix(load_cloud(path).points)
    except ValueError as exc:
        raise CloudFormatError(f"{path}: {exc}") from exc
