"""Hot numeric kernels: attraction/repulsion force sums and distance scans.

Every kernel is vectorized numpy over row chunks.  Distance blocks come from
exact coordinate differences, except that the nearest-row scan ``min_dists``
screens candidates with the GEMM form |x|^2 + |y|^2 - 2 x.y and then
measures them by exact differences.

Work is split into fixed-size row chunks regardless of thread count, and
each chunk is a pure function of the iteration-start snapshot, so results
are bit-identical for any ``threads`` value at a fixed BLAS thread count
(a BLAS product such as ``alpha @ P`` may sum in a different order when BLAS
itself runs on more threads).

Scalar coefficients are evaluated from sketched (projected) coordinates;
force vectors are accumulated in the full ambient dimension.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .errors import CoincidentPointsError

CHUNK = 64


def backend_name() -> str:
    """Name of the kernel implementation, for run environment reports."""
    return "numpy"


def _chunks(total: int):
    return [(i, min(i + CHUNK, total)) for i in range(0, total, CHUNK)]


def _run_chunks(fn, total: int, threads: int):
    """Apply fn(i0, i1) over fixed chunks, optionally on a thread pool.

    An exception is re-raised from the first failing chunk in chunk order,
    whatever the thread count.
    """
    spans = _chunks(total)
    if threads <= 1 or len(spans) <= 1:
        return [fn(i0, i1) for i0, i1 in spans]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(lambda s: fn(*s), spans))


def _sq_dists_block(A, B):
    """Exact squared distances between row blocks via explicit differences."""
    diff = A[:, None, :] - B[None, :, :]
    return np.einsum("ijk,ijk->ij", diff, diff)


def _self_sq_dists(Xs, i0, i1):
    """Squared distances from rows i0:i1 to every row, with the self pair at inf."""
    d2 = _sq_dists_block(Xs[i0:i1], Xs)
    rows = np.arange(i0, i1)
    d2[rows - i0, rows] = np.inf
    return d2


def _guard_coincident(d2, i0, delta_min):
    """Raise on the first pair of the block within the guard distance."""
    hit = np.argwhere(d2 <= delta_min * delta_min)
    if hit.size:
        r, c = hit[0]
        raise CoincidentPointsError(
            f"reconstruction points {int(r + i0)} and {int(c)} are within the guard "
            f"distance {delta_min:.3e}"
        )


def _attraction_np(Q, P, Qs, Ps, h1sq, eps, cutsq, bracket, i0, i1, out):
    d2 = _sq_dists_block(Qs[i0:i1], Ps)
    hsq = d2 + eps
    alpha = np.exp(-d2 / h1sq) / np.sqrt(hsq)
    if bracket:
        alpha *= 1.0 - 2.0 * hsq / h1sq
    alpha[d2 > cutsq] = 0.0
    out[i0:i1] = alpha.sum(axis=1)[:, None] * Q[i0:i1] - alpha @ P


def _repulsion_np(Q, Qs, h2sq, cutsq, delta_min, i0, i1, out):
    d2 = _self_sq_dists(Qs, i0, i1)
    _guard_coincident(d2, i0, delta_min)
    with np.errstate(over="ignore"):
        d = np.sqrt(d2)
        beta = np.exp(-d2 / h2sq) / d * (1.0 / (d2 * d2) + 2.0 / (3.0 * d2 * h2sq))
    beta[d2 > cutsq] = 0.0
    out[i0:i1] = beta.sum(axis=1)[:, None] * Q[i0:i1] - beta @ Q


def _attraction_cost_np(Qs, Ps, h1sq, eps, cutsq, i0, i1):
    d2 = _sq_dists_block(Qs[i0:i1], Ps)
    term = np.sqrt(d2 + eps) * np.exp(-d2 / h1sq)
    return float(term[d2 <= cutsq].sum())


def _repulsion_cost_np(Qs, lam, h2sq, cutsq, delta_min, i0, i1):
    d2 = _self_sq_dists(Qs, i0, i1)
    _guard_coincident(d2, i0, delta_min)
    with np.errstate(over="ignore"):
        eta = np.exp(-d2 / h2sq) / (3.0 * d2 * np.sqrt(d2))
    eta[d2 > cutsq] = 0.0
    return float((lam[i0:i1] * eta.sum(axis=1)).sum())


def _min_dists_np(Xs, Ys, y2, i0, i1, out):
    # The expanded form |x|^2 + |y|^2 - 2 x.y keeps memory at chunk x K but
    # cancels near zero, so it only screens: G = |y|^2 - 2 x.y is off by at
    # most about (m + 1) (eps / 2) (|x| + max|y|)^2 per entry (Higham,
    # "Accuracy and Stability of Numerical Algorithms", sec. 3).  Every column
    # within (m + 2) eps (|x| + max|y|)^2 of the row minimum (twice the bound,
    # plus margin for rounding the threshold) is a candidate.  The true
    # nearest row is always one of them; the reported distance comes from
    # exact differences over the candidates (usually one per row).
    X = Xs[i0:i1]
    G = (-2.0 * X) @ Ys.T
    G += y2
    xn = np.sqrt(np.einsum("ij,ij->i", X, X))
    tol = (X.shape[1] + 2) * np.finfo(np.float64).eps * (xn + math.sqrt(y2.max())) ** 2
    # flatnonzero is an order of magnitude faster than 2-d nonzero here
    rows, cols = np.divmod(np.flatnonzero(G <= (G.min(axis=1) + tol)[:, None]), Ys.shape[0])
    diff = X[rows] - Ys[cols]
    d2 = np.einsum("ij,ij->i", diff, diff)
    starts = np.flatnonzero(np.diff(rows, prepend=-1))
    # a row without candidates has a NaN screen and reports NaN
    out[i0:i1] = np.nan
    out[i0 + rows[starts]] = np.sqrt(np.minimum.reduceat(d2, starts))


def _self_nn_dists_np(Xs, i0, i1, out):
    out[i0:i1] = np.sqrt(_self_sq_dists(Xs, i0, i1).min(axis=1))


# ---------------------------------------------------------------------------
# public entry points
# ---------------------------------------------------------------------------


def attraction_forces(Q, P, Qs, Ps, h1: float, eps: float, cutoff: float, threads: int = 1,
                      bracket: bool = False):
    """Per reconstruction point, the data-term force sum(alpha_j (q - p_j)).

    Q, P are full-dimension rows; Qs, Ps their sketched projections.  Pairs
    beyond ``cutoff`` in sketched distance are skipped.

    With bracket=False the coefficients are the always-positive median-pull
    weights w / H (Gaussian weights held fixed under differentiation): this
    is the direction field the iteration descends, and it keeps every
    configuration attracted to the data.  With bracket=True the coefficients
    carry the full-derivative factor (1 - 2 H^2 / h1^2), matching
    solver.attraction_coeff; on noisy data the bracket sum is negative and
    that field pushes reconstruction points off the data, so it is exposed
    for gradient checks, not for iteration.
    """
    out = np.empty_like(Q)
    h1sq, cutsq = h1 * h1, cutoff * cutoff
    _run_chunks(lambda i0, i1: _attraction_np(Q, P, Qs, Ps, h1sq, eps, cutsq, bracket,
                                              i0, i1, out),
                Q.shape[0], threads)
    return out


def repulsion_forces(Q, Qs, h2: float, cutoff: float, delta_min: float, threads: int = 1):
    """Per reconstruction point, the spreading-term force sum(beta_i (q - q_i)).

    Raises CoincidentPointsError for the first pair (in row order) closer
    than ``delta_min`` in sketched distance.
    """
    out = np.empty_like(Q)
    h2sq, cutsq = h2 * h2, cutoff * cutoff
    _run_chunks(lambda i0, i1: _repulsion_np(Q, Qs, h2sq, cutsq, delta_min, i0, i1, out),
                Q.shape[0], threads)
    return out


def attraction_cost(Qs, Ps, h1: float, eps: float, cutoff: float, threads: int = 1) -> float:
    h1sq, cutsq = h1 * h1, cutoff * cutoff
    parts = _run_chunks(lambda i0, i1: _attraction_cost_np(Qs, Ps, h1sq, eps, cutsq, i0, i1),
                        Qs.shape[0], threads)
    return float(sum(parts))


def repulsion_cost(Qs, lam, h2: float, cutoff: float, delta_min: float,
                   threads: int = 1) -> float:
    h2sq, cutsq = h2 * h2, cutoff * cutoff
    parts = _run_chunks(
        lambda i0, i1: _repulsion_cost_np(Qs, lam, h2sq, cutsq, delta_min, i0, i1),
        Qs.shape[0], threads)
    return float(sum(parts))


def min_dists(Xs, Ys, threads: int = 1):
    """Per row of Xs, the distance to its nearest row of Ys.

    Distances come from exact coordinate differences, so a row of Xs that
    equals a row of Ys bit for bit gets exactly 0.  Memory stays at
    chunk x K (K rows of Ys).
    """
    out = np.empty(Xs.shape[0])
    y2 = np.einsum("ij,ij->i", Ys, Ys)
    _run_chunks(lambda i0, i1: _min_dists_np(Xs, Ys, y2, i0, i1, out), Xs.shape[0], threads)
    return out


def self_nn_dists(Xs, threads: int = 1):
    """Per row, the distance to the nearest other row of the same set."""
    out = np.empty(Xs.shape[0])
    _run_chunks(lambda i0, i1: _self_nn_dists_np(Xs, i0, i1, out), Xs.shape[0], threads)
    return out


def pairwise_dists(Xs, Ys):
    """Dense distance matrix from exact row differences (moderate sizes only)."""
    blocks = []
    for i0, i1 in _chunks(Xs.shape[0]):
        blocks.append(np.sqrt(_sq_dists_block(Xs[i0:i1], Ys)))
    return np.vstack(blocks)
