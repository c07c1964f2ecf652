"""Hot numeric kernels: attraction/repulsion force sums and distance scans.

Every kernel is vectorized numpy over row chunks.  Squared distances come
in three forms, and tol = (m + 2) eps (|x| + max|y|)^2 (``_gemm_tol``) bounds
the per-entry error of the GEMM form |x|^2 + |y|^2 - 2 x.y in R^m:

- The Q-P block of the attraction (``attraction_forces``/``attraction_cost``)
  is the GEMM form of the rows centred on the mean of Ps, so |x| and |y| are
  distances from the data's mean and each entry is off by at most tol.  The
  coefficients are smooth at d = 0, where H = sqrt(d^2 + eps) keeps eps
  above any such error, so no entry is remeasured.
- The Q-Q self block (``repulsion_forces``/``repulsion_cost`` and
  ``self_nn_dists``) is the GEMM form of the rows centred on their mean,
  except that exact differences of the uncentred rows remeasure every entry
  within tol of its row's minimum or of delta_min^2 and every entry below
  REMEASURE_K tol.  So the ``delta_min`` guard and its first pair in row
  order, and the nearest-partner distances, are those of explicit
  differences bit for bit, and every other entry is off by less than
  1 / REMEASURE_K of itself.
- The scans against another set (``min_dists``, ``max_dists``,
  ``radius_pairs``) screen candidates with the uncentred GEMM form and
  measure them by exact differences, so their results are exact; one
  ``min_dists`` scan gives both the nearest distances and the nearest rows.
  ``pairwise_dists`` uses exact differences throughout.

Work is split into fixed-size row chunks regardless of thread count, and
each chunk is a pure function of the iteration-start snapshot, so results
are bit-identical for any ``threads`` value at a fixed BLAS thread count.
A BLAS product, such as a GEMM-form block or ``alpha @ P``, may sum in a
different order when BLAS itself runs on more threads, so the BLAS thread
count can move the last bits of coefficients and forces.

Scalar coefficients are evaluated from sketched (projected) coordinates;
force vectors are accumulated in the full ambient dimension.

One chunk function per pair class (Q-P attraction, Q-Q repulsion) builds
the distance block and its exponentials and roots once, and from them both
the forces and the energy of that class, so the force kernels also return
the energy the solver's trace reports.  ``attraction_cost`` and
``repulsion_cost`` run the same chunk functions without the forces; the
solver needs them only at the first iteration, whose repulsion pass runs
before its balance weights exist.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .errors import CoincidentPointsError

CHUNK = 64

# A self-block entry below this many times its GEMM error bound is remeasured
# by exact differences, so no entry the forces use is off by 1e-8 of itself.
REMEASURE_K = 1e8


def backend_name() -> str:
    """Name of the kernel implementation, for run environment reports."""
    return "numpy"


def _chunks(total: int):
    return [(i, min(i + CHUNK, total)) for i in range(0, total, CHUNK)]


def _run_chunks(fn, total: int, threads: int = 1):
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


def _gemm_tol(m: int, xnorm, ymax):
    """Per-entry error bound of the GEMM form |x|^2 + |y|^2 - 2 x.y in R^m.

    G = |y|^2 - 2 x.y is off by at most about (m + 1) (eps / 2) (|x| + max|y|)^2
    per entry (Higham, "Accuracy and Stability of Numerical Algorithms",
    sec. 3), and |x|^2 by at most m (eps / 2) |x|^2.  The bound
    (m + 2) eps (|x| + max|y|)^2 covers both, the rounding of their sum and of
    a threshold compared with it, and, for rows centred before the product,
    the rounding of the centring (at most eps (|x| + |y|)^2 on a squared
    distance).
    """
    return (m + 2) * np.finfo(np.float64).eps * (xnorm + ymax) ** 2


def _centred(Ys, centre):
    """GEMM operands: the rows Ys - centre, their squared norms and the largest
    norm.  Distances do not change under translation, but the GEMM error
    grows with the squared distance of the rows from the origin."""
    Z = Ys - centre
    z2 = np.einsum("ij,ij->i", Z, Z)
    return Z, z2, math.sqrt(z2.max())


def _gemm_sq_dists(X, x2, Y, y2):
    """Squared distances between row blocks in the GEMM form |x|^2 + |y|^2 - 2 x.y."""
    D = (-2.0 * X) @ Y.T
    D += y2
    D += x2[:, None]
    return D


def _self_block(Xs, Z, z2, zmax, dmin2, i0, i1):
    """Squared distances from rows i0:i1 of Xs to every row, the self pair at inf.

    The block is the GEMM form of the centred rows Z (``_centred(Xs, ...)``),
    except that exact differences of the rows of Xs remeasure every entry
    within the bound tol of its row's minimum or of ``dmin2``, and every
    entry below REMEASURE_K tol.  So each row's minimum and every entry at
    most dmin2 are the exact-difference values, bit for bit, and every other
    entry is off by less than 1 / REMEASURE_K of itself.
    """
    D = _gemm_sq_dists(Z[i0:i1], z2[i0:i1], Z, z2)
    rows = np.arange(i1 - i0)
    D[rows, rows + i0] = np.inf
    tol = _gemm_tol(Z.shape[1], np.sqrt(z2[i0:i1]), zmax)
    near = D <= np.maximum(np.maximum(D.min(axis=1), dmin2) + tol, REMEASURE_K * tol)[:, None]
    near[rows, rows + i0] = False  # a lone point's row minimum is inf
    flat = np.flatnonzero(near)
    r, c = np.divmod(flat, D.shape[1])
    diff = Xs[r + i0] - Xs[c]
    D.reshape(-1)[flat] = np.einsum("ij,ij->i", diff, diff)
    return D


def _guard_coincident(d2, i0, delta_min):
    """Raise on the first pair of the block within the guard distance."""
    hit = np.argwhere(d2 <= delta_min * delta_min)
    if hit.size:
        r, c = hit[0]
        raise CoincidentPointsError(
            f"reconstruction points {int(r + i0)} and {int(c)} are within the guard "
            f"distance {delta_min:.3e}"
        )


def _attraction_np(Q, P, Qc, q2, Pc, p2, h1sq, eps, cutsq, i0, i1, out=None):
    """Energy sum(H w) of rows i0:i1 and, given ``out``, their forces."""
    d2 = _gemm_sq_dists(Qc[i0:i1], q2[i0:i1], Pc, p2)
    w = np.exp(-d2 / h1sq)
    H = np.sqrt(d2 + eps)
    # a NaN distance stays out of the energy but NaN in the forces, where
    # the solver's finite-gradient check sees it
    energy = float((H * w)[d2 <= cutsq].sum())
    if out is not None:
        alpha = np.divide(w, H, out=w)
        alpha[d2 > cutsq] = 0.0
        out[i0:i1] = alpha.sum(axis=1)[:, None] * Q[i0:i1] - alpha @ P
    return energy


def _attraction(Q, P, Qs, Ps, h1, eps, cutoff, threads, out=None):
    """The attraction energy of all rows and, given ``out``, their forces.

    Both blocks are centred on the mean of Ps, so the GEMM error depends on
    the spread of the data, not on its distance from the origin.
    """
    centre = Ps.mean(axis=0)
    (Qc, q2, _), (Pc, p2, _) = _centred(Qs, centre), _centred(Ps, centre)
    h1sq, cutsq = h1 * h1, cutoff * cutoff
    parts = _run_chunks(
        lambda i0, i1: _attraction_np(Q, P, Qc, q2, Pc, p2, h1sq, eps, cutsq, i0, i1, out),
        Qs.shape[0], threads)
    return float(sum(parts))


def _repulsion_np(Q, Qs, sq, h2sq, cutsq, delta_min, i0, i1, out=None, nn=None,
                  weights=None):
    """Given ``out`` and ``nn``, the forces and nearest-partner distances of
    rows i0:i1; given ``weights``, their energy (None without).  ``sq`` is
    ``_centred(Qs, ...)``."""
    d2 = _self_block(Qs, *sq, delta_min * delta_min, i0, i1)
    _guard_coincident(d2, i0, delta_min)
    far = d2 > cutsq
    energy = None
    with np.errstate(over="ignore"):
        g = np.exp(-d2 / h2sq)
        d = np.sqrt(d2)
        if weights is not None:
            eta = g / (3.0 * d2 * d)
            eta[far] = 0.0
            energy = float((weights[i0:i1] * eta.sum(axis=1)).sum())
            del eta  # no more blocks alive than the force part needs
        if out is not None:
            nn[i0:i1] = np.sqrt(d2.min(axis=1))
            beta = np.divide(g, d, out=g)
            beta *= 1.0 / (d2 * d2) + 2.0 / (3.0 * d2 * h2sq)
            beta[far] = 0.0
            out[i0:i1] = beta.sum(axis=1)[:, None] * Q[i0:i1] - beta @ Q
    return energy


def _repulsion(Q, Qs, h2, cutoff, delta_min, threads, out=None, nn=None, weights=None):
    """The crowding energy of all rows with ``weights`` (None without) and,
    given ``out`` and ``nn``, their forces and nearest-partner distances."""
    sq = _centred(Qs, Qs.mean(axis=0))
    h2sq, cutsq = h2 * h2, cutoff * cutoff
    parts = _run_chunks(
        lambda i0, i1: _repulsion_np(Q, Qs, sq, h2sq, cutsq, delta_min, i0, i1, out, nn,
                                     weights),
        Qs.shape[0], threads)
    return None if weights is None else float(sum(parts))


def _screen(X, Ys, y2, ymax, keep):
    """Candidate pairs of the row chunk X against Ys, with exact squared distances.

    The expanded form |x|^2 + |y|^2 - 2 x.y keeps memory at chunk x K but
    cancels near zero, so it only screens: ``keep(G, x2, tol)`` marks the
    candidates from G = |y|^2 - 2 x.y, the squared norms x2 and the bound tol
    of ``_gemm_tol``, so every pair the exact distances would pick (a row's
    nearest or farthest column, any pair inside a radius) stays a candidate.
    Returns chunk-local rows (ascending), their columns (ascending within a
    row) and the exact squared distances.
    """
    G = (-2.0 * X) @ Ys.T
    G += y2
    x2 = np.einsum("ij,ij->i", X, X)
    tol = _gemm_tol(X.shape[1], np.sqrt(x2), ymax)
    # flatnonzero is an order of magnitude faster than 2-d nonzero here
    rows, cols = np.divmod(np.flatnonzero(keep(G, x2, tol)), Ys.shape[0])
    diff = X[rows] - Ys[cols]
    return rows, cols, np.einsum("ij,ij->i", diff, diff)


def _scan(chunk_fn, Xs, Ys, threads: int = 1):
    """Apply chunk_fn(X, Ys, y2, ymax) over fixed row chunks of Xs."""
    y2 = np.einsum("ij,ij->i", Ys, Ys)
    ymax = math.sqrt(y2.max())
    return _run_chunks(lambda i0, i1: chunk_fn(Xs[i0:i1], Ys, y2, ymax), Xs.shape[0], threads)


def _row_starts(rows):
    return np.flatnonzero(np.diff(rows, prepend=-1))


def _nearest_np(X, Ys, y2, ymax):
    rows, cols, d2 = _screen(X, Ys, y2, ymax,
                             lambda G, x2, tol: G <= (G.min(axis=1) + tol)[:, None])
    starts = _row_starts(rows)
    best = np.minimum.reduceat(d2, starts)
    # first column reaching the row minimum, as np.argmin picks on ties
    hit = np.flatnonzero(d2 == np.repeat(best, np.diff(starts, append=rows.size)))
    first = hit[_row_starts(rows[hit])]
    # a row without candidates has a NaN screen and reports NaN (index -1)
    dist = np.full(X.shape[0], np.nan)
    idx = np.full(X.shape[0], -1)
    dist[rows[starts]] = np.sqrt(best)
    idx[rows[first]] = cols[first]
    return dist, idx


def _farthest_np(X, Ys, y2, ymax):
    rows, _, d2 = _screen(X, Ys, y2, ymax,
                          lambda G, x2, tol: G >= (G.max(axis=1) - tol)[:, None])
    starts = _row_starts(rows)
    out = np.full(X.shape[0], np.nan)
    out[rows[starts]] = np.sqrt(np.maximum.reduceat(d2, starts))
    return out


def _radius_np(X, Ys, y2, ymax, r2):
    rows, cols, d2 = _screen(X, Ys, y2, ymax,
                             lambda G, x2, tol: G <= (r2 - x2 + tol)[:, None])
    inside = d2 < r2
    return rows[inside], cols[inside]


# ---------------------------------------------------------------------------
# public entry points
# ---------------------------------------------------------------------------


def attraction_forces(Q, P, Qs, Ps, h1: float, eps: float, cutoff: float, threads: int = 1):
    """Per reconstruction point, the data-term force sum(alpha_j (q - p_j)),
    and from the same distance blocks the attraction energy: returns
    (forces, energy) with energy equal to ``attraction_cost(Qs, Ps, ...)``
    bit for bit.

    Q, P are full-dimension rows; Qs, Ps their sketched projections.  Pairs
    beyond ``cutoff`` in sketched distance are skipped.  The coefficients
    are the median-pull weights alpha_j = w_j / H_j, with the Gaussian weight
    w_j = exp(-d^2 / h1^2) and the smoothed distance H_j = sqrt(d^2 + eps):
    the Weiszfeld step of a weighted L1 median with the weights held fixed,
    always positive, so every configuration stays attracted to the data.
    tests/oracles.py holds its per-point scalar reference.
    """
    out = np.empty_like(Q)
    return out, _attraction(Q, P, Qs, Ps, h1, eps, cutoff, threads, out)


def repulsion_forces(Q, Qs, h2: float, cutoff: float, delta_min: float, threads: int = 1,
                     weights=None):
    """Per reconstruction point, the spreading-term force sum(beta_i (q - q_i))
    and, from the same distance blocks, the nearest-partner distance, equal to
    ``self_nn_dists(Qs)`` bit for bit, and the crowding energy with per-point
    ``weights``, equal to ``repulsion_cost(Qs, weights, ...)`` bit for bit
    (None without weights): returns (forces, nn_dists, energy).

    Raises CoincidentPointsError for the first pair (in row order) closer
    than ``delta_min`` in sketched distance.
    """
    out, nn = np.empty_like(Q), np.empty(Q.shape[0])
    return out, nn, _repulsion(Q, Qs, h2, cutoff, delta_min, threads, out, nn, weights)


def attraction_cost(Qs, Ps, h1: float, eps: float, cutoff: float, threads: int = 1) -> float:
    """The attraction energy sum_{i,j} sqrt(d^2 + eps) exp(-d^2 / h1^2) over
    pairs within ``cutoff``, without the forces."""
    return _attraction(None, None, Qs, Ps, h1, eps, cutoff, threads)


def repulsion_cost(Qs, lam, h2: float, cutoff: float, delta_min: float,
                   threads: int = 1) -> float:
    """The crowding energy sum_i lam_i sum_{i' != i} exp(-d^2 / h2^2) / (3 d^3)
    over pairs within ``cutoff``, without the forces."""
    return _repulsion(None, Qs, h2, cutoff, delta_min, threads, weights=lam)


def min_dists(Xs, Ys, threads: int = 1):
    """Per row of Xs, the distance to its nearest row of Ys and that row's
    index: returns (dists, idx).

    Candidates are screened with the GEMM form and measured by exact
    coordinate differences, so a row of Xs that equals a row of Ys bit for
    bit gets exactly 0.  Ties go to the first index, as np.argmin picks.
    Memory stays at chunk x K (K rows of Ys).
    """
    parts = _scan(_nearest_np, Xs, Ys, threads)
    return (np.concatenate([d for d, _ in parts] or [np.empty(0)]),
            np.concatenate([i for _, i in parts] or [np.empty(0, dtype=int)]))


def max_dists(Xs, Ys):
    """Per row of Xs, the distance to its farthest row of Ys.

    Screened like min_dists and measured by exact differences; the
    largest entry of ``max_dists(X, X)`` is the diameter of X.
    """
    return np.concatenate(_scan(_farthest_np, Xs, Ys) or [np.empty(0)])


def radius_pairs(Xs, Ys, radius: float):
    """Index pairs (i, j) with row j of Ys at exact distance < radius from
    row i of Xs, as two arrays sorted by i, then by j."""
    r2 = radius * radius
    parts = _scan(lambda X, Ys, y2, ymax: _radius_np(X, Ys, y2, ymax, r2), Xs, Ys)
    offsets = [i0 for i0, _ in _chunks(Xs.shape[0])]
    return (np.concatenate([rows + i0 for (rows, _), i0 in zip(parts, offsets)]
                           or [np.empty(0, dtype=int)]),
            np.concatenate([cols for _, cols in parts] or [np.empty(0, dtype=int)]))


def self_nn_dists(Xs):
    """Per row, the distance to the nearest other row of the same set, from
    the screened self block of the repulsion pass: the exact-difference
    value, bit for bit."""
    out = np.empty(Xs.shape[0])
    sq = _centred(Xs, Xs.mean(axis=0))

    def chunk(i0, i1):
        out[i0:i1] = np.sqrt(_self_block(Xs, *sq, 0.0, i0, i1).min(axis=1))

    _run_chunks(chunk, Xs.shape[0])
    return out


def pairwise_dists(Xs, Ys):
    """Dense distance matrix from exact row differences (moderate sizes only)."""
    blocks = []
    for i0, i1 in _chunks(Xs.shape[0]):
        blocks.append(np.sqrt(_sq_dists_block(Xs[i0:i1], Ys)))
    return np.vstack(blocks)
