"""Reference implementations that the screened metric scans must match bit for bit.

They compute every distance from an exact-difference block over the whole
set and make one principal-direction call per point, as the metrics did
before their scans were screened and batched.
"""

import math

import numpy as np

from mlop.cloud import as_points
from mlop.metrics import PcaAngleResult

CHUNK = 64


def sq_dists_block(A, B):
    """Exact squared distances between row blocks via explicit differences."""
    diff = A[:, None, :] - B[None, :, :]
    return np.einsum("ijk,ijk->ij", diff, diff)


def exact_diameter(X, S) -> float:
    """Largest pairwise sketched distance from exact blocks of CHUNK rows."""
    xs = S.project(X)
    best = 0.0
    for i0 in range(0, xs.shape[0], CHUNK):
        best = max(best, float(sq_dists_block(xs[i0:i0 + CHUNK], xs).max()))
    return math.sqrt(best)


def principal_direction(points) -> np.ndarray:
    """First eigenvector of one mean-centered covariance, from its own eigh call."""
    pts = np.asarray(points, dtype=np.float64)
    centered = pts - pts.mean(axis=0)
    vals, vecs = np.linalg.eigh(centered.T @ centered / pts.shape[0])
    if vals[-1] <= 0:
        raise ValueError("degenerate neighborhood: all points coincide")
    v = vecs[:, -1]
    nz = np.flatnonzero(v)
    if nz.size and v[nz[0]] < 0:
        v = -v
    return v


def local_pca_angle_error(X, reference, h, S, min_neighbors=2) -> PcaAngleResult:
    """One point at a time: both neighbourhoods rescanned, both tangents
    recomputed, for every point."""
    xs_full = as_points(X)
    ref_full = as_points(reference)
    xs = S.project(xs_full)
    rs = S.project(ref_full)
    nearest_ref = np.empty(xs.shape[0], dtype=int)
    for i0 in range(0, xs.shape[0], CHUNK):
        nearest_ref[i0:i0 + CHUNK] = np.argmin(sq_dists_block(xs[i0:i0 + CHUNK], rs), axis=1)
    errors = []
    skipped = 0
    per_point = np.full(xs.shape[0], np.nan)
    for i in range(xs.shape[0]):
        d2 = np.einsum("ij,ij->i", xs - xs[i], xs - xs[i])
        nbr = np.flatnonzero((d2 < h * h) & (np.arange(xs.shape[0]) != i))
        if nbr.size < min_neighbors:
            skipped += 1
            continue
        v_x = principal_direction(xs_full[nbr])
        j = nearest_ref[i]
        d2r = np.einsum("ij,ij->i", rs - rs[j], rs - rs[j])
        nbr_r = np.flatnonzero((d2r < h * h) & (np.arange(rs.shape[0]) != j))
        if nbr_r.size < min_neighbors:
            skipped += 1
            continue
        v_r = principal_direction(ref_full[nbr_r])
        cosang = min(1.0, abs(float(np.dot(v_x, v_r))))
        deg = math.degrees(math.acos(cosang))
        per_point[i] = deg
        errors.append(deg)
    if not errors:
        raise ValueError("every point was skipped; increase the radius h")
    return PcaAngleResult(median_deg=float(np.median(errors)), per_point=per_point,
                          skipped=skipped)
