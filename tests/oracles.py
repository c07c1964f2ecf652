"""Reference implementations that the library's fast paths are checked against.

The solver references are scalar, one pair at a time, from sketched
distances of single vectors:

* the field the solver descends (median-pull coefficients w / H), which the
  batch kernels must reproduce to round-off;
* the exact derivative of the per-point energy (bracket coefficients
  w / H * (1 - 2 H^2 / h1^2)), which central differences of that energy
  must reproduce; the solver does not descend it;
* the scalar Barzilai-Borwein step that the vectorized one must match.

The metric references compute every distance from an exact-difference block
over the whole set and make one principal-direction call per point, as the
metrics did before their scans were screened and batched; the screened scans
must match them bit for bit.

The single-vector sketched norm and distance those references use, and the
predicted support count that criterion 7 checks, are kept here as well: the
library itself works on row blocks and never needs them.

The quota-radius reference selects each row's order statistic with its own
delete and partition calls, as the support estimate did before it
partitioned the whole distance matrix at once; the two must agree bit for
bit.
"""

import math
from dataclasses import dataclass

import numpy as np

from mlop import kernels
from mlop.cloud import as_points
from mlop.errors import CoincidentPointsError, UnreachableSupportError
from mlop.sketch import SketchMatrix
from mlop.solver import ETA_GUARD, RunParams

CHUNK = 64


# ---------------------------------------------------------------------------
# single-vector sketched norms, predicted support count
# ---------------------------------------------------------------------------


def sketched_norm(S: SketchMatrix, x) -> float:
    """||S^t x||_2; at most ||x||_2, equal for x in the column span."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] != S.n:
        raise ValueError(f"vector has length {x.shape[-1]}, sketch expects {S.n}")
    return float(np.linalg.norm(x @ S.s))


def sketched_dist(S: SketchMatrix, x, y) -> float:
    """Sketched distance ||S^t (x - y)||_2 (a seminorm distance)."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape:
        raise ValueError(f"shape mismatch: {x.shape} vs {y.shape}")
    return sketched_norm(S, x - y)


def predicted_support_count(d: int, nu: int) -> int:
    """Expected neighbour count at radius 2*sqrt(2)*h_hat0 on a d-dimensional
    structure: floor(2^(1.5 d) * nu).  Diagnostic only, never enforced."""
    if d < 1 or nu < 1:
        raise ValueError("d and nu must be at least 1")
    return int(math.floor(2.0 ** (1.5 * d) * nu))


# ---------------------------------------------------------------------------
# neighbourhood: quota radius one row at a time
# ---------------------------------------------------------------------------


def quota_radii(P, Q, nu: int, S: SketchMatrix) -> np.ndarray:
    """Per point of Q, the nu-th smallest sketched distance to P, after
    discarding one zero distance from a row that has any."""
    D = kernels.pairwise_dists(S.project(Q), S.project(P))
    out = np.empty(D.shape[0])
    for i, row in enumerate(D):
        r = row
        if r.min() == 0.0:
            z = np.flatnonzero(r == 0.0)[:1]
            r = np.delete(r, z)
        if nu > r.size:
            raise UnreachableSupportError(
                f"point {i} has only {r.size} candidate neighbours, needs {nu}"
            )
        out[i] = np.partition(r, nu - 1)[nu - 1]
    return out


# ---------------------------------------------------------------------------
# solver: scalar energy terms, both attraction fields, BB step
# ---------------------------------------------------------------------------


def h_eps_norm(v, eps: float, S: SketchMatrix) -> float:
    """Smoothed norm sqrt(||S^t v||^2 + eps)."""
    if eps < 0:
        raise ValueError("eps must be non-negative")
    sn = sketched_norm(S, v)
    return math.sqrt(sn * sn + eps)


def eta(r: float, delta_min: float = ETA_GUARD) -> float:
    """Repulsion profile 1 / (3 r^3)."""
    if r <= delta_min:
        raise CoincidentPointsError(f"eta evaluated at r={r:.3e} <= guard {delta_min:.3e}")
    return 1.0 / (3.0 * r ** 3)


def eta_abs_deriv(r: float, delta_min: float = ETA_GUARD) -> float:
    """|d eta / dr| = 1 / r^4."""
    if r <= delta_min:
        raise CoincidentPointsError(f"eta' evaluated at r={r:.3e} <= guard {delta_min:.3e}")
    return 1.0 / r ** 4


def attraction_coeff(q, p, h1: float, eps: float, S: SketchMatrix,
                     cutoff: float | None = None) -> float:
    """Data-term coefficient for one (q, p) pair.

    The Gaussian weight uses the raw squared sketched distance; the bracket
    uses the smoothed value, which makes the coefficient the exact partial
    derivative of the smoothed-distance energy term.  Sign flips once the
    smoothed distance exceeds h1 / sqrt(2).
    """
    d = sketched_dist(S, q, p)
    if cutoff is not None and d > cutoff:
        return 0.0
    hsq = d * d + eps
    return math.exp(-d * d / h1 ** 2) / math.sqrt(hsq) * (1.0 - 2.0 * hsq / h1 ** 2)


def median_pull_coeff(q, p, h1: float, eps: float, S: SketchMatrix,
                      cutoff: float | None = None) -> float:
    """Coefficient w / H of the field the solver descends, for one (q, p)
    pair: attraction_coeff without the bracket, i.e. the derivative of the
    smoothed distance with its Gaussian weight held fixed."""
    d = sketched_dist(S, q, p)
    if cutoff is not None and d > cutoff:
        return 0.0
    return math.exp(-d * d / h1 ** 2) / math.sqrt(d * d + eps)


def repulsion_coeff(q, q2, h2: float, S: SketchMatrix, cutoff: float | None = None,
                    delta_min: float = ETA_GUARD) -> float:
    """Spreading-term coefficient for one (q, q2) pair; strictly positive."""
    d = sketched_dist(S, q, q2)
    if d <= delta_min:
        raise CoincidentPointsError(
            f"repulsion pair at sketched distance {d:.3e} <= guard {delta_min:.3e}"
        )
    if cutoff is not None and d > cutoff:
        return 0.0
    w_hat = math.exp(-d * d / h2 ** 2)
    return w_hat / d * (eta_abs_deriv(d) + 2.0 * eta(d) / h2 ** 2 * d)


def gradient_at(i: int, Q, P, lam, rp: RunParams, S: SketchMatrix,
                coeff=attraction_coeff) -> np.ndarray:
    """Descent direction for reconstruction point i (reference path).

    Difference vectors are formed in full ambient dimension; every scalar
    coefficient comes from sketched distances.  The balance weight lam_i is
    stored non-positive, so the repulsion sum enters with weight -|lam_i| and
    the descent step pushes reconstruction points apart.  ``coeff`` gives
    the attraction coefficients: the exact derivative by default,
    median_pull_coeff for the field the solver descends.
    """
    Q = as_points(Q)
    P = as_points(P)
    q = Q[i]
    attr = np.zeros_like(q)
    for p in P:
        a = coeff(q, p, rp.h1, rp.eps, S, cutoff=rp.cutoff1)
        if a != 0.0:
            attr += a * (q - p)
    rep = np.zeros_like(q)
    for i2 in range(Q.shape[0]):
        if i2 == i:
            continue
        b = repulsion_coeff(q, Q[i2], rp.h2, S, cutoff=rp.cutoff2, delta_min=rp.delta_min)
        if b != 0.0:
            rep += b * (q - Q[i2])
    lam_i = float(np.asarray(lam)[i]) if np.ndim(lam) else float(lam)
    return attr + lam_i * rep


def median_pull_at(i: int, Q, P, lam, rp: RunParams, S: SketchMatrix) -> np.ndarray:
    """The field the solver descends, at reconstruction point i."""
    return gradient_at(i, Q, P, lam, rp, S, coeff=median_pull_coeff)


def point_cost(i: int, q, Q, P, lam_i: float, rp: RunParams, S: SketchMatrix,
               frozen_at=None) -> float:
    """Energy attributed to point i at position q, partners frozen.

    This is the function whose gradient in q is gradient_at; the repulsion
    pairs in which point i appears as a partner belong to the other points'
    energies and do not move with q.  The crowding sum enters with weight
    -lam_i = |lam_i| >= 0 so the energy is minimized by spreading out.
    Finite differences of this quantity give an independent check of the
    analytic gradient (identity sketch).

    With ``frozen_at`` the attraction's Gaussian weights and cutoff are
    taken at that position instead of q: the majorize-minimize surrogate
    whose gradient at q = frozen_at is median_pull_at.
    """
    Q = as_points(Q)
    P = as_points(P)
    q = np.asarray(q, dtype=np.float64)
    dp = np.linalg.norm((P - q) @ S.s, axis=1)
    dw = dp if frozen_at is None else np.linalg.norm((P - frozen_at) @ S.s, axis=1)
    keep = dw <= rp.cutoff1
    dp, dw = dp[keep], dw[keep]
    e1 = float(np.sum(np.sqrt(dp * dp + rp.eps) * np.exp(-dw * dw / rp.h1 ** 2)))
    others = np.delete(Q, i, axis=0)
    dq = np.linalg.norm((others - q) @ S.s, axis=1)
    if dq.size and dq.min() <= rp.delta_min:
        raise CoincidentPointsError(
            f"partner at sketched distance {dq.min():.3e} <= guard {rp.delta_min:.3e}")
    dq = dq[dq <= rp.cutoff2]
    e2 = float(np.sum(np.exp(-dq * dq / rp.h2 ** 2) / (3.0 * dq ** 3)))
    return e1 - lam_i * e2


def descended_field(Q, P, lam, rp: RunParams, S: SketchMatrix, threads: int = 1) -> np.ndarray:
    """All points' descent field from the batch kernels, assembled as
    solver.run assembles it."""
    Qs, Ps = S.project(Q), S.project(P)
    attr, _ = kernels.attraction_forces(Q, P, Qs, Ps, rp.h1, rp.eps, rp.cutoff1, threads)
    rep, _, _ = kernels.repulsion_forces(Q, Qs, rp.h2, rp.cutoff2, rp.delta_min, threads)
    return attr + np.asarray(lam)[:, None] * rep


def bb_step(dq: np.ndarray, dg: np.ndarray, gamma0: float, lo: float = 0.0) -> float:
    """Barzilai-Borwein step <dq, dg> / <dg, dg>, floored at lo.

    Falls back to gamma0 when <dg, dg> vanishes or the raw value is
    non-positive (the quotient is meaningless on a non-convex landscape
    when curvature information points backwards).
    """
    den = float(np.dot(dg, dg))
    if den <= 0.0:
        return gamma0
    raw = float(np.dot(dq, dg)) / den
    if raw <= 0.0:
        return gamma0
    return max(raw, lo)


# ---------------------------------------------------------------------------
# metrics: exact-block scans, one point at a time
# ---------------------------------------------------------------------------


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


@dataclass(frozen=True)
class PcaAngles:
    """The median angle with each point's angle (nan where skipped) and the
    skip count."""

    median_deg: float
    per_point: np.ndarray
    skipped: int


def local_pca_angle_error(X, reference, h, S, min_neighbors=2) -> PcaAngles:
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
    return PcaAngles(median_deg=float(np.median(errors)), per_point=per_point,
                     skipped=skipped)
