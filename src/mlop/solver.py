"""Iterative manifold reconstruction by projected gradient descent.

The reconstruction set Q starts as a subsample of the data P and descends a
non-convex energy with two competing terms: a smoothed-L1 attraction that
pulls each point toward a robust local median of the data, and a repulsion
between reconstruction points that spreads them quasi-uniformly.  Scalar
coefficients are computed from sketched distances; position updates happen
in the full ambient space.  Step sizes follow the Barzilai-Borwein rule with
a clamp, and the per-point balance weights are fixed at the first iteration
so the two force terms start with equal sketched magnitude.

Two attraction coefficient families coexist.  attraction_coeff carries the
full derivative of the smoothed-distance energy term, including the factor
(1 - 2 H^2 / h1^2) from differentiating through the Gaussian weight; it is
exact (the finite-difference oracle closes on it) but its sum over a noisy
sample is negative, so that field repels reconstruction points from the
data.  The iteration therefore descends the median-pull field obtained by
holding the Gaussian weights fixed (coefficients w / H > 0), the standard
majorize-minimize treatment of weighted-median energies, which keeps every
configuration attracted to the data while the balance, step and stopping
rules stay unchanged.
"""

from __future__ import annotations

import json
import logging
import math
import time
from dataclasses import asdict, dataclass

import numpy as np

from . import kernels
from .cloud import PointCloud, as_points
from .errors import (CoincidentPointsError, ConfigError, DegenerateSketchError,
                     NumericalAbortError)
from .neighborhood import SupportParams, estimate_supports
from .rng import Rng
from .sketch import SketchMatrix, build_sketch, sketched_dist, sketched_norm

logger = logging.getLogger(__name__)

# Absolute guard below which two points count as coincident for the
# repulsion singularity; runs use the tighter 1e-9 * h2.
ETA_GUARD = 1e-12

DEFAULT_CUTOFF_MULT = 2.0 * math.sqrt(2.0)


@dataclass
class SolverConfig:
    """All tunables of a reconstruction run.

    Fields left as None are resolved once the attraction support h1 and the
    initial gradient are known: stop_tol -> 1e-4 * h1; initial_step -> the
    value that gives a first displacement of 0.1 * h1 for the largest
    initial gradient; step_clamp -> (1e-4 * initial_step, unbounded).
    Independently of the clamp, no point ever moves farther than h1 in one
    iteration (displacement trust region).

    descent_field selects the attraction coefficients: "median" (default)
    descends the always-positive median-pull field, "gradient" the exact
    derivative field (see the module docstring for why the latter is not
    usable on noisy data).
    """

    q_size: int
    eps_h: float = 0.1
    stop_tol: float | None = None
    max_iters: int = 500
    sketch_dim: int = 10
    initial_step: float | None = None
    step_clamp: tuple[float | None, float | None] = (None, None)
    neighbor_cutoff_mult: float = DEFAULT_CUTOFF_MULT
    seed: int = 0
    init: str = "random"
    init_index: int = 0
    init_radius: float | None = None
    threads: int = 1
    descent_field: str = "median"

    def __post_init__(self):
        if self.q_size < 1:
            raise ConfigError("q_size must be positive")
        if self.eps_h <= 0:
            raise ConfigError("eps_h must be positive")
        if self.stop_tol is not None and self.stop_tol <= 0:
            raise ConfigError("stop_tol must be positive")
        if self.max_iters < 0:
            raise ConfigError("max_iters must be non-negative")
        if self.sketch_dim < 1:
            raise ConfigError("sketch_dim must be positive")
        if self.initial_step is not None and self.initial_step <= 0:
            raise ConfigError("initial_step must be positive")
        lo, hi = self.step_clamp
        if lo is not None and hi is not None and not 0 < lo <= hi:
            raise ConfigError("step_clamp must satisfy 0 < lo <= hi")
        if self.neighbor_cutoff_mult <= 0:
            raise ConfigError("neighbor_cutoff_mult must be positive")
        if self.init not in ("random", "around_point"):
            raise ConfigError(f"unknown init mode {self.init!r}")
        if self.descent_field not in ("median", "gradient"):
            raise ConfigError(f"descent_field must be 'median' or 'gradient', "
                              f"got {self.descent_field!r}")
        if self.threads < 1:
            raise ConfigError("threads must be at least 1")

    def to_dict(self) -> dict:
        d = asdict(self)
        d["step_clamp"] = list(self.step_clamp)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "SolverConfig":
        d = dict(d)
        if "step_clamp" in d and d["step_clamp"] is not None:
            d["step_clamp"] = tuple(d["step_clamp"])
        return cls(**d)

    @classmethod
    def from_json(cls, path) -> "SolverConfig":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


@dataclass(frozen=True)
class RunParams:
    """Derived per-run constants: supports, smoothing, cutoffs, guard."""

    h1: float
    h2: float
    eps: float
    cutoff1: float
    cutoff2: float
    delta_min: float

    @classmethod
    def from_supports(cls, supports: SupportParams, eps: float,
                      cutoff_mult: float = DEFAULT_CUTOFF_MULT) -> "RunParams":
        return cls(
            h1=supports.h1,
            h2=supports.h2,
            eps=eps,
            cutoff1=cutoff_mult * supports.h1,
            cutoff2=cutoff_mult * supports.h2,
            delta_min=max(1e-9 * supports.h2, ETA_GUARD),
        )


# ---------------------------------------------------------------------------
# scalar reference operations (batch kernels mirror these formulas)
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


def gradient_at(i: int, Q, P, lam, rp: RunParams, S: SketchMatrix) -> np.ndarray:
    """Descent direction for reconstruction point i (reference path).

    Difference vectors are formed in full ambient dimension; every scalar
    coefficient comes from sketched distances.  The balance weight lam_i is
    stored non-positive, so the repulsion sum enters with weight -|lam_i| and
    the descent step pushes reconstruction points apart.  The batch kernels
    compute the same sums; this per-point version backs small-instance tests.
    """
    Q = as_points(Q)
    P = as_points(P)
    q = Q[i]
    attr = np.zeros_like(q)
    for p in P:
        a = attraction_coeff(q, p, rp.h1, rp.eps, S, cutoff=rp.cutoff1)
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


def point_cost(i: int, q, Q, P, lam_i: float, rp: RunParams, S: SketchMatrix) -> float:
    """Energy attributed to point i at position q, partners frozen.

    This is the function whose gradient in q is gradient_at; the repulsion
    pairs in which point i appears as a partner belong to the other points'
    energies and do not move with q.  The crowding sum enters with weight
    -lam_i = |lam_i| >= 0 so the energy is minimized by spreading out.
    Finite differences of this quantity give an independent check of the
    analytic gradient (identity sketch).
    """
    Q = as_points(Q)
    P = as_points(P)
    q = np.asarray(q, dtype=np.float64)
    dp = np.linalg.norm((P - q) @ S.s, axis=1)
    keep = dp <= rp.cutoff1
    dp = dp[keep]
    e1 = float(np.sum(np.sqrt(dp * dp + rp.eps) * np.exp(-dp * dp / rp.h1 ** 2)))
    others = np.delete(Q, i, axis=0)
    dq = np.linalg.norm((others - q) @ S.s, axis=1)
    if dq.size and dq.min() <= rp.delta_min:
        raise CoincidentPointsError(
            f"partner at sketched distance {dq.min():.3e} <= guard {rp.delta_min:.3e}")
    dq = dq[dq <= rp.cutoff2]
    e2 = float(np.sum(np.exp(-dq * dq / rp.h2 ** 2) / (3.0 * dq ** 3)))
    return e1 - lam_i * e2


def gradient_batch(Q, P, lam, rp: RunParams, S: SketchMatrix, threads: int = 1) -> np.ndarray:
    """All-points version of gradient_at (exact-derivative coefficients).

    Computed by the fast kernels; agrees with the per-point reference path
    to floating round-off.
    """
    Qpts = as_points(Q)
    Ppts = as_points(P)
    Qs = S.project(Qpts)
    Ps = S.project(Ppts)
    attr = kernels.attraction_forces(Qpts, Ppts, Qs, Ps, rp.h1, rp.eps, rp.cutoff1,
                                     threads, bracket=True)
    rep = kernels.repulsion_forces(Qpts, Qs, rp.h2, rp.cutoff2, rp.delta_min, threads)
    return attr + np.asarray(lam)[:, None] * rep


def cost(Q, P, rp: RunParams, S: SketchMatrix, lam=None, threads: int = 1) -> float:
    """Total energy G(Q): attraction plus balance-weighted crowding penalty.

    The crowding term is sum_i (-lam_i) sum_{i' != i} eta(d) w_hat(d); with
    the stored non-positive lam its coefficient is |lam_i|, so the energy is
    bounded toward spreading instead of rewarding collapse.  With lam=None
    (before the balance weights exist) only the attraction term is summed.
    Diagnostic quantity; the descent never line-searches it.
    """
    Qpts = as_points(Q)
    Qs = S.project(Qpts)
    Ps = S.project(P)
    e1 = kernels.attraction_cost(Qs, Ps, rp.h1, rp.eps, rp.cutoff1, threads)
    if lam is None:
        return e1
    weights = -np.ascontiguousarray(lam, dtype=np.float64)
    e2 = kernels.repulsion_cost(Qs, weights, rp.h2, rp.cutoff2, rp.delta_min, threads)
    return e1 + e2


def init_lambda(attr: np.ndarray, rep: np.ndarray, S: SketchMatrix) -> np.ndarray:
    """Balance weights -||attraction_i|| / ||repulsion_i|| (sketched norms).

    Computed once at the first iteration and frozen.  Points with no
    repulsion partner in range get weight 0 with a logged warning.
    """
    an = np.linalg.norm(attr @ S.s, axis=1)
    rn = np.linalg.norm(rep @ S.s, axis=1)
    lam = np.zeros(attr.shape[0])
    nz = rn > 0
    lam[nz] = -(an[nz] / rn[nz])
    if np.any(~nz):
        logger.warning(
            "%d reconstruction points have zero repulsion norm; their balance "
            "weight is set to 0", int(np.sum(~nz)),
        )
    return lam


def bb_step(dq: np.ndarray, dg: np.ndarray, gamma0: float,
            lo: float = 0.0, hi: float = math.inf) -> float:
    """Barzilai-Borwein step <dq, dg> / <dg, dg>, clamped to [lo, hi].

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
    return min(max(raw, lo), hi)


def bb_steps(dq: np.ndarray, dg: np.ndarray, gamma0: float, lo: float, hi: float) -> np.ndarray:
    """Vectorized per-point BB steps (full-dimension inner products)."""
    num = np.einsum("ij,ij->i", dq, dg)
    den = np.einsum("ij,ij->i", dg, dg)
    safe = den > 0.0
    raw = np.where(safe, num / np.where(safe, den, 1.0), 0.0)
    steps = np.where(raw > 0.0, np.clip(raw, lo, hi), gamma0)
    return steps


# ---------------------------------------------------------------------------
# iteration loop
# ---------------------------------------------------------------------------


@dataclass
class TraceRecord:
    iter: int
    max_grad_norm: float
    cost: float
    fill_distance_q: float
    wall_ms: float


@dataclass
class SolverState:
    """Mutable per-run state: current/previous iterate, previous gradient,
    frozen balance weights, per-point steps, and sketched gradient norms."""

    q_curr: np.ndarray
    q_prev: np.ndarray | None = None
    grad_prev: np.ndarray | None = None
    lam: np.ndarray | None = None
    step: np.ndarray | None = None
    iter: int = 0
    grad_norms: np.ndarray | None = None


@dataclass
class SolverResult:
    q_final: PointCloud
    trace: list[TraceRecord]
    supports: SupportParams
    lam: np.ndarray
    q0_indices: np.ndarray
    converged: bool
    iterations_run: int
    sketch: SketchMatrix
    params: RunParams


def _init_indices(P: PointCloud, config: SolverConfig, S: SketchMatrix, rng: Rng) -> np.ndarray:
    J = P.size
    I = config.q_size
    if config.init == "random":
        return rng.subsample(J, I)
    if not 0 <= config.init_index < J:
        raise ConfigError(f"init_index {config.init_index} out of range for {J} points")
    # project once: a separately projected copy of the centre row can differ
    # from its row of S.project(P) in the last bits
    Ps = S.project(P)
    d = kernels.min_dists(Ps, Ps[config.init_index][None, :])
    if config.init_radius is None:
        return np.sort(np.argsort(d, kind="stable")[:I])
    pool = np.flatnonzero(d <= config.init_radius)
    if pool.size < I:
        raise ConfigError(
            f"only {pool.size} points within init_radius {config.init_radius}, need {I}"
        )
    return pool[rng.subsample(pool.size, I)]


def run(P, config: SolverConfig, sketch: SketchMatrix | None = None) -> SolverResult:
    """Run the reconstruction loop.

    Args:
        P: input cloud (J points in R^n).
        config: run tunables; config.q_size = I must satisfy I <= J.
        sketch: optional pre-built projection basis (built from P otherwise;
            it is constructed once and reused for every norm in the run).

    Returns:
        SolverResult with the final cloud, per-iteration trace, estimated
        supports, frozen balance weights and the sketch used.

    All per-point updates within one iteration read the iteration-start
    snapshot, so the result is independent of update order and of
    ``config.threads`` (at a fixed BLAS thread count).
    """
    if not isinstance(P, PointCloud):
        P = PointCloud(np.asarray(P, dtype=np.float64))
    J, n = P.size, P.ambient_dim
    I = config.q_size
    if I > J:
        raise ConfigError(f"q_size {I} exceeds input size {J}")
    root = Rng(config.seed)
    if sketch is not None:
        S = sketch
    else:
        try:
            S = build_sketch(P, config.sketch_dim, root.stream("sketch"))
        except DegenerateSketchError as exc:
            # Noise-free structures can span fewer directions than the
            # requested sketch size; retry at the achieved rank.
            logger.warning("sketch rank %d < requested %d; rebuilding at rank %d",
                           exc.achieved, exc.requested, exc.achieved)
            S = build_sketch(P, exc.achieved, Rng(config.seed).stream("sketch"))
    if S.n != n:
        raise ConfigError(f"sketch expects ambient dimension {S.n}, data has {n}")

    q0_idx = _init_indices(P, config, S, root.stream("init"))
    Q = P.points[q0_idx].copy()
    supports = estimate_supports(P, I, S, root.stream("supports"), q0=Q)
    rp = RunParams.from_supports(supports, config.eps_h, config.neighbor_cutoff_mult)

    stop_tol = config.stop_tol if config.stop_tol is not None else 1e-4 * supports.h1

    Ps = S.project(P)
    threads = config.threads
    state = SolverState(q_curr=Q)
    trace: list[TraceRecord] = []
    converged = False
    gamma0 = config.initial_step
    lo, hi = config.step_clamp

    for k in range(config.max_iters):
        t0 = time.perf_counter()
        Qs = state.q_curr @ S.s
        try:
            attr = kernels.attraction_forces(
                state.q_curr, P.points, Qs, Ps, rp.h1, rp.eps, rp.cutoff1, threads,
                bracket=(config.descent_field == "gradient"))
            rep = kernels.repulsion_forces(
                state.q_curr, Qs, rp.h2, rp.cutoff2, rp.delta_min, threads)
        except CoincidentPointsError as exc:
            raise NumericalAbortError(k, str(exc)) from exc
        if state.lam is None:
            state.lam = init_lambda(attr, rep, S)
        grad = attr + state.lam[:, None] * rep
        if not np.all(np.isfinite(grad)):
            bad = int(np.argwhere(~np.isfinite(grad))[0][0])
            raise NumericalAbortError(k, f"non-finite gradient at point {bad}")
        full_norms = np.sqrt(np.einsum("ij,ij->i", grad, grad))
        state.grad_norms = np.linalg.norm(grad @ S.s, axis=1)
        gmax = float(state.grad_norms.max())
        cost_val = cost(state.q_curr, P.points, rp, S, lam=state.lam, threads=threads)
        if I >= 2:
            fill_q = float(np.median(kernels.self_nn_dists(Qs)))
        else:
            fill_q = math.nan
        if gmax < stop_tol:
            converged = True
            wall = (time.perf_counter() - t0) * 1e3
            trace.append(TraceRecord(k, gmax, cost_val, fill_q, wall))
            state.iter = k
            break
        if state.q_prev is None:
            if gamma0 is None:
                # Scale-free first step: the largest initial gradient moves
                # its point by 0.1 * h1.  Gradient magnitudes grow with the
                # number of in-support samples, so a fixed step length would
                # not transfer across instance sizes.
                worst = float(full_norms.max())
                gamma0 = 0.1 * supports.h1 / worst if worst > 0 else 0.1 * supports.h1
            lo = lo if lo is not None else 1e-4 * gamma0
            hi = hi if hi is not None else math.inf
            if not 0 < lo <= gamma0 <= hi:
                raise ConfigError(
                    f"steps must satisfy 0 < {lo:.3g} <= gamma0={gamma0:.3g} <= {hi:.3g}")
            state.step = np.full(I, gamma0)
        else:
            state.step = bb_steps(state.q_curr - state.q_prev, grad - state.grad_prev,
                                  gamma0, lo, hi)
        # Trust region independent of the clamp: cap each displacement at h1.
        moving = full_norms > 0
        cap = np.where(moving, supports.h1 / np.where(moving, full_norms, 1.0), math.inf)
        state.step = np.minimum(state.step, cap)
        state.q_prev = state.q_curr
        state.grad_prev = grad
        state.q_curr = state.q_curr - state.step[:, None] * grad
        state.iter = k + 1
        wall = (time.perf_counter() - t0) * 1e3
        trace.append(TraceRecord(k, gmax, cost_val, fill_q, wall))

    lam = state.lam if state.lam is not None else np.zeros(I)
    return SolverResult(
        q_final=PointCloud(state.q_curr),
        trace=trace,
        supports=supports,
        lam=lam,
        q0_indices=q0_idx,
        converged=converged,
        iterations_run=state.iter,
        sketch=S,
        params=rp,
    )


def write_trace(trace: list[TraceRecord], path) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("iter,max_grad_norm,cost,fill_distance_q,wall_ms\n")
        for rec in trace:
            fh.write(
                f"{rec.iter},{rec.max_grad_norm:.17g},{rec.cost:.17g},"
                f"{rec.fill_distance_q:.17g},{rec.wall_ms:.3f}\n"
            )
