"""Iterative manifold reconstruction by projected gradient descent.

The reconstruction set Q starts as a subsample of the data P and moves under
two competing forces: a smoothed-L1 attraction that pulls each point toward
a robust local median of the data, and a repulsion between reconstruction
points that spreads them quasi-uniformly.  Scalar coefficients are computed
from sketched distances; position updates happen in the full ambient space.
Step sizes follow the Barzilai-Borwein rule with a floor, and the per-point
balance weights are fixed at the first iteration so the two force terms
start with equal sketched magnitude.

The attraction is the median-pull field, with coefficients w / H > 0: the
derivative of the smoothed-distance energy with its Gaussian weights w held
fixed, i.e. the Weiszfeld step of a weighted L1 median and the
majorize-minimize treatment of such energies.  It keeps every configuration
attracted to the data.  Differentiating through the Gaussian weights as well
would add the factor (1 - 2 H^2 / h1^2), whose sum over a noisy sample is
negative and so repels the points from the data; the iteration never uses
that field.  Per-point scalar references of both fields, and of the energy
``cost`` reports, are in tests/oracles.py.

The energy each trace record reports comes from the force passes, which
return it from the same distance blocks: from the second iteration on, an
iteration builds one Q-P and one Q-Q block.  The first iteration's
repulsion pass runs before the balance weights exist, so ``cost`` prices
that iteration alone.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import asdict, dataclass

import numpy as np

from . import kernels
from .cloud import PointCloud
from .errors import (CoincidentPointsError, ConfigError, NumericalAbortError, check_fields,
                     check_seed)
from .neighborhood import SupportParams, estimate_supports
from .rng import Rng
from .sketch import SketchMatrix, sketch_for_run

logger = logging.getLogger(__name__)

# Absolute guard below which two points count as coincident for the
# repulsion singularity; runs use the tighter 1e-9 * h2.
ETA_GUARD = 1e-12

# Smoothing of the attraction distance, sqrt(d^2 + eps), as in LOP.
EPS_H = 0.1

# Pairs farther apart than this multiple of their support carry a Gaussian
# weight below e^-8 and are skipped.
CUTOFF_MULT = 2.0 * math.sqrt(2.0)


@dataclass(frozen=True)
class SolverConfig:
    """All tunables of a reconstruction run.

    Everything else is set from the data once the attraction support h1 and
    the initial gradient are known: the run stops when the largest sketched
    gradient falls below 1e-4 * h1; the first step gives the largest initial
    gradient a displacement of 0.1 * h1; later Barzilai-Borwein steps are
    floored at 1e-4 times that first step.  No point ever moves farther than
    h1 in one iteration (displacement trust region).  The iteration descends
    the median-pull field of the module docstring; no setting selects
    another.  ``init`` starts Q from a random subsample ("random") or from
    the q_size samples nearest the middle sample J // 2 ("around_point").
    """

    q_size: int
    max_iters: int = 500
    sketch_dim: int = 10
    seed: int = 0
    init: str = "random"
    threads: int = 1

    def __post_init__(self):
        if self.q_size < 1:
            raise ConfigError("q_size must be positive")
        if self.max_iters < 0:
            raise ConfigError("max_iters must be non-negative")
        if self.sketch_dim < 1:
            raise ConfigError("sketch_dim must be positive")
        check_seed(self.seed)
        if self.init not in ("random", "around_point"):
            raise ConfigError(f"unknown init mode {self.init!r}")
        if self.threads < 1:
            raise ConfigError("threads must be at least 1")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "SolverConfig":
        check_fields(cls, d, "solver setting")
        return cls(**d)


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
    def from_supports(cls, supports: SupportParams) -> "RunParams":
        return cls(
            h1=supports.h1,
            h2=supports.h2,
            eps=EPS_H,
            cutoff1=CUTOFF_MULT * supports.h1,
            cutoff2=CUTOFF_MULT * supports.h2,
            delta_min=max(1e-9 * supports.h2, ETA_GUARD),
        )


def cost(Qs, Ps, rp: RunParams, lam, threads: int = 1) -> float:
    """Total energy G(Q) from the sketched rows Qs, Ps: attraction plus the
    balance-weighted crowding penalty.

    The attraction term is sum_{i,j} sqrt(d^2 + eps) w(d); the crowding term
    is sum_i (-lam_i) sum_{i' != i} eta(d) w_hat(d) with eta(r) = 1 / (3 r^3).
    With the stored non-positive lam its coefficient is |lam_i|, so the
    energy is bounded toward spreading instead of rewarding collapse.
    Diagnostic quantity; the descent never line-searches it.  ``run`` calls
    it for the first iteration only; later iterations take the same value,
    bit for bit, from their force passes.
    """
    e1 = kernels.attraction_cost(Qs, Ps, rp.h1, rp.eps, rp.cutoff1, threads)
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


def bb_steps(dq: np.ndarray, dg: np.ndarray, gamma0: float, lo: float) -> np.ndarray:
    """Vectorized per-point BB steps (full-dimension inner products), floored
    at lo; gamma0 where the quotient is undefined or non-positive."""
    num = np.einsum("ij,ij->i", dq, dg)
    den = np.einsum("ij,ij->i", dg, dg)
    safe = den > 0.0
    raw = np.where(safe, num / np.where(safe, den, 1.0), 0.0)
    return np.where(raw > 0.0, np.maximum(raw, lo), gamma0)


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
class SolverResult:
    q_final: PointCloud
    trace: list[TraceRecord]
    supports: SupportParams
    lam: np.ndarray
    q0_indices: np.ndarray
    converged: bool
    iterations_run: int
    sketch: SketchMatrix


def _init_indices(P: PointCloud, config: SolverConfig, S: SketchMatrix, rng: Rng) -> np.ndarray:
    J = P.size
    I = config.q_size
    if config.init == "random":
        return rng.subsample(J, I)
    # around_point: the I samples nearest the middle sample J // 2.  Project
    # once: a separately projected copy of the centre row can differ from its
    # row of S.project(P) in the last bits
    Ps = S.project(P)
    d = kernels.min_dists(Ps, Ps[J // 2][None, :])[0]
    return np.sort(np.argsort(d, kind="stable")[:I])


def run(P, config: SolverConfig, sketch: SketchMatrix | None = None) -> SolverResult:
    """Run the reconstruction loop.

    Args:
        P: input cloud (J points in R^n).
        config: run tunables; config.q_size = I must satisfy I <= J.
        sketch: optional pre-built projection basis (``sketch_for_run`` builds
            it from P otherwise); it is reused for every norm in the run.

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
    S = sketch if sketch is not None else sketch_for_run(P, config.sketch_dim, config.seed)
    if S.n != n:
        raise ConfigError(f"sketch expects ambient dimension {S.n}, data has {n}")

    q0_idx = _init_indices(P, config, S, root.stream("init"))
    Q = P.points[q0_idx].copy()
    supports = estimate_supports(P, I, S, root.stream("supports"), q0=Q)
    rp = RunParams.from_supports(supports)
    grad_tol = 1e-4 * supports.h1

    Ps = S.project(P)
    threads = config.threads
    lam = weights = q_prev = grad_prev = None
    trace: list[TraceRecord] = []
    converged = False
    gamma0 = lo = None

    for k in range(config.max_iters):
        t0 = time.perf_counter()
        Qs = Q @ S.s
        try:
            attr, e_att = kernels.attraction_forces(Q, P.points, Qs, Ps, rp.h1, rp.eps,
                                                    rp.cutoff1, threads)
            rep, nn, e_rep = kernels.repulsion_forces(Q, Qs, rp.h2, rp.cutoff2, rp.delta_min,
                                                      threads, weights)
        except CoincidentPointsError as exc:
            raise NumericalAbortError(k, str(exc)) from exc
        if lam is None:
            lam = init_lambda(attr, rep, S)
            weights = -lam
        grad = attr + lam[:, None] * rep
        if not np.all(np.isfinite(grad)):
            bad = int(np.argwhere(~np.isfinite(grad))[0][0])
            raise NumericalAbortError(k, f"non-finite gradient at point {bad}")
        full_norms = np.sqrt(np.einsum("ij,ij->i", grad, grad))
        gmax = float(np.linalg.norm(grad @ S.s, axis=1).max())
        # the first repulsion pass ran before lam existed, so cost() prices it
        cost_val = cost(Qs, Ps, rp, lam, threads=threads) if e_rep is None else e_att + e_rep
        fill_q = float(np.median(nn)) if I >= 2 else math.nan
        if gmax < grad_tol:
            converged = True
            wall = (time.perf_counter() - t0) * 1e3
            trace.append(TraceRecord(k, gmax, cost_val, fill_q, wall))
            break
        if k == 0:
            # Scale-free first step: the largest initial gradient moves its
            # point by 0.1 * h1.  Gradient magnitudes grow with the number of
            # in-support samples, so a fixed step length would not transfer
            # across instance sizes.
            worst = float(full_norms.max())
            gamma0 = 0.1 * supports.h1 / worst if worst > 0 else 0.1 * supports.h1
            lo = 1e-4 * gamma0
            step = np.full(I, gamma0)
        else:
            step = bb_steps(Q - q_prev, grad - grad_prev, gamma0, lo)
        # Trust region independent of the floor: cap each displacement at h1.
        moving = full_norms > 0
        cap = np.where(moving, supports.h1 / np.where(moving, full_norms, 1.0), math.inf)
        step = np.minimum(step, cap)
        q_prev, grad_prev = Q, grad
        Q = Q - step[:, None] * grad
        wall = (time.perf_counter() - t0) * 1e3
        trace.append(TraceRecord(k, gmax, cost_val, fill_q, wall))

    return SolverResult(
        q_final=PointCloud(Q),
        trace=trace,
        supports=supports,
        lam=lam if lam is not None else np.zeros(I),
        q0_indices=q0_idx,
        converged=converged,
        # the converging iteration is traced but takes no step
        iterations_run=len(trace) - converged,
        sketch=S,
    )
