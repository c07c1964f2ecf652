"""Quantitative evaluation: reconstruction error, image SNR, local-PCA error.

All distances are sketched.  Every metric is permutation-invariant in the
evaluated cloud.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .cloud import as_points
from .sketch import SketchMatrix

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class NearestErrors:
    dists: np.ndarray
    nearest: np.ndarray
    rmse: float
    max: float
    variance: float


def nearest_reference_errors(Q, reference, S: SketchMatrix, threads: int = 1) -> NearestErrors:
    """Per-point sketched distance to the nearest reference point and that
    point's index (the first one on ties), with rmse, max, and population
    variance of the distances."""
    ref = as_points(reference)
    if ref.shape[0] == 0:
        raise ValueError("reference cloud is empty")
    d, idx = kernels.min_dists(S.project(Q), S.project(ref), threads=threads)
    return NearestErrors(
        dists=d,
        nearest=idx,
        rmse=float(np.sqrt(np.mean(d * d))),
        max=float(d.max()),
        variance=float(np.var(d)),
    )


def sketched_diameter(X, S: SketchMatrix) -> float:
    """Largest pairwise sketched distance, exact at any size.

    With c the centroid, r each row's distance to c, R the largest of them
    (at row ``far``) and L the distance from row ``far`` to its farthest row,
    any pair longer than L has both ends farther than L - R from c.  Only
    the rows that pass this test, with the threshold lowered by a margin
    that covers the rounding of r, R and L, are scanned against each other
    by kernels.max_dists (screened with the GEMM form, measured by exact
    differences).  The pair that gives L passes too, so the result is the
    exact diameter.  A cloud whose points lie near a sphere about c keeps
    most rows, and its scan costs up to K x K distances.
    """
    xs = S.project(X)
    if xs.shape[0] < 2:
        return 0.0
    centered = xs - xs.mean(axis=0)
    r = np.sqrt(np.einsum("ij,ij->i", centered, centered))
    far = int(np.argmax(r))
    R = float(r[far])
    L = float(kernels.max_dists(xs[far:far + 1], xs)[0])
    margin = 4 * (xs.shape[1] + 2) * np.finfo(np.float64).eps * (L + R)
    kept = xs[r >= L - R - margin]
    return float(kernels.max_dists(kept, kept).max())


def relative_error(Q, reference, S: SketchMatrix, *,
                   errors: NearestErrors | None = None,
                   diameter: float | None = None) -> float:
    """Mean nearest-reference distance normalized by the reference diameter.

    The normalization makes the value scale-invariant; absolute comparisons
    against externally reported figures need a generous band because the
    normalizing scale is a convention.

    A caller that already holds ``nearest_reference_errors(Q, reference, S)``
    or ``sketched_diameter(reference, S)`` passes them as ``errors`` and
    ``diameter``, and neither is computed again; the value is the same.
    """
    diam = sketched_diameter(reference, S) if diameter is None else diameter
    if diam <= 0:
        raise ValueError("reference cloud has zero diameter")
    if errors is None:
        errors = nearest_reference_errors(Q, reference, S)
    return float(np.mean(errors.dists) / diam)


def background_snr(images, masks) -> float | None:
    """Median over images of mean/std on each image's background pixels.

    Images with constant background (zero sample standard deviation) cannot
    produce a finite ratio; they are excluded from the median with a warning,
    and the median is None when every image is excluded (a noise-free set).
    """
    imgs = as_points(images)
    masks = np.asarray(masks, dtype=bool)
    if masks.shape != imgs.shape:
        raise ValueError(f"masks shape {masks.shape} does not match images {imgs.shape}")
    values = []
    for k in range(imgs.shape[0]):
        bg = imgs[k, masks[k]]
        if bg.size < 2:
            raise ValueError(f"image {k} has fewer than 2 background pixels")
        sd = float(bg.std(ddof=1))
        if sd != 0.0:
            values.append(float(bg.mean()) / sd)
    excluded = imgs.shape[0] - len(values)
    if excluded:
        logger.warning("%d images had constant background; excluded from SNR median",
                       excluded)
    return float(np.median(values)) if values else None


def erode_background(masks: np.ndarray) -> np.ndarray:
    """Shrink flattened square background masks by one pixel away from the
    foreground boundary.

    Smoothed reconstructions carry a thin ghost rim where blended shapes
    disagree; scoring noise statistics on the interior background keeps that
    rim out of the background sample.  Applied to initial and final sets
    alike.
    """
    masks = np.asarray(masks, dtype=bool)
    side = int(round(math.sqrt(masks.shape[1])))
    if side * side != masks.shape[1]:
        raise ValueError(f"mask length {masks.shape[1]} is not a square image")
    m = masks.reshape(-1, side, side)
    inner = m.copy()
    inner[:, 1:, :] &= m[:, :-1, :]
    inner[:, :-1, :] &= m[:, 1:, :]
    inner[:, :, 1:] &= m[:, :, :-1]
    inner[:, :, :-1] &= m[:, :, 1:]
    return inner.reshape(masks.shape[0], -1)


# Covariances per stacked eigh call, which bounds memory at 64 n x n blocks.
_EIGH_BATCH = 64


def _top_eigenvector(vals, vecs) -> np.ndarray:
    # v stays a strided column view of vecs (or its negation): np.dot of a
    # contiguous copy can differ in the last bit through BLAS's strided path
    if vals[-1] <= 0:
        raise ValueError("degenerate neighborhood: all points coincide")
    v = vecs[:, -1]
    nz = np.flatnonzero(v)
    if nz.size and v[nz[0]] < 0:
        v = -v
    return v


def principal_directions(point_sets) -> list:
    """Per point set, the first eigenvector of its mean-centered covariance,
    canonicalized: the largest eigenvalue wins, and of v and -v the one whose
    first nonzero component is positive is returned, so repeated runs agree
    bit for bit.

    The covariances are stacked into batched np.linalg.eigh calls (the same
    LAPACK routine per matrix, so each vector has the bits of a single call).
    ``point_sets`` may be a generator: only one set of points is held at a
    time.  A set whose points all coincide raises ValueError.
    """
    covs = []
    for pts in point_sets:
        centered = pts - pts.mean(axis=0)
        covs.append(centered.T @ centered / pts.shape[0])
    out = []
    for k0 in range(0, len(covs), _EIGH_BATCH):
        vals, vecs = np.linalg.eigh(np.stack(covs[k0:k0 + _EIGH_BATCH]))
        out.extend(_top_eigenvector(vals[k], vecs[k]) for k in range(vals.shape[0]))
    return out


def _radius_neighbours(queries, points, h: float, own) -> list:
    """Per query row i, the indices of the rows of ``points`` at sketched
    distance < h, leaving out row own[i] (the query itself)."""
    rows, cols = kernels.radius_pairs(queries, points, h)
    keep = cols != own[rows]
    rows, cols = rows[keep], cols[keep]
    bounds = np.searchsorted(rows, np.arange(queries.shape[0] + 1))
    return [cols[a:b] for a, b in zip(bounds[:-1], bounds[1:])]


# Fewest neighbours, besides the point itself, that a local tangent is
# estimated from.
PCA_MIN_NEIGHBORS = 2


@dataclass(frozen=True)
class PcaAngleResult:
    median_deg: float


def local_pca_angle_error(X, reference, h: float, S: SketchMatrix) -> PcaAngleResult:
    """Median angle (degrees) between local tangent directions of X and of
    the clean reference.

    For each evaluated point: collect its neighbours within sketched radius
    h (the point itself is not its own neighbour), take the first PCA
    eigenvector of the neighbour set in full dimension, do the same around
    the nearest reference point (the first one on ties) on the reference
    set, and score arccos(|cos angle|), which is invariant to eigenvector
    sign.  Points with fewer than PCA_MIN_NEIGHBORS neighbours, on either
    side, are skipped, and their count is logged.

    Neighbours and nearest reference points come from screened scans
    measured by exact differences (kernels.radius_pairs, min_dists).  A
    reference tangent is computed once per distinct nearest reference
    point, and only for points whose own neighbourhood is large enough.
    """
    xs_full = as_points(X)
    ref_full = as_points(reference)
    xs = S.project(xs_full)
    rs = S.project(ref_full)
    n = xs.shape[0]
    _, nearest_ref = kernels.min_dists(xs, rs)
    x_nbrs = _radius_neighbours(xs, xs, h, np.arange(n))
    evaluated = [i for i in range(n) if x_nbrs[i].size >= PCA_MIN_NEIGHBORS]
    v_xs = principal_directions(xs_full[x_nbrs[i]] for i in evaluated)
    refs = np.unique(nearest_ref[evaluated])
    r_nbrs = _radius_neighbours(rs[refs], rs, h, refs)
    kept = [k for k in range(refs.size) if r_nbrs[k].size >= PCA_MIN_NEIGHBORS]
    v_refs = principal_directions(ref_full[r_nbrs[k]] for k in kept)
    tangent = {int(refs[k]): v for k, v in zip(kept, v_refs)}
    errors = []
    for i, v_x in zip(evaluated, v_xs):
        v_r = tangent.get(int(nearest_ref[i]))
        if v_r is not None:
            cosang = min(1.0, abs(float(np.dot(v_x, v_r))))
            errors.append(math.degrees(math.acos(cosang)))
    if not errors:
        raise ValueError("every point was skipped; increase the radius h")
    if len(errors) < n:
        logger.info("local PCA skipped %d points with < %d neighbours", n - len(errors),
                    PCA_MIN_NEIGHBORS)
    return PcaAngleResult(median_deg=float(np.median(errors)))
