"""Timing probe: per-iteration kernel time as the ambient dimension grows.

Per-iteration work is one attraction sweep, one repulsion sweep and the two
cost sums -- exactly what the solver executes each step.  The ambient-
dimension probe pads the same dataset with zero coordinates so supports,
sketch size and neighbour structure stay fixed while n changes.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import kernels
from .datasets import DatasetSpec, make_dataset
from .errors import ConfigError
from .neighborhood import estimate_supports
from .rng import Rng
from .sketch import build_sketch
from .solver import DEFAULT_CUTOFF_MULT, RunParams


@dataclass(frozen=True)
class BenchCase:
    """One frozen gradient-evaluation workload."""

    Q: np.ndarray
    P: np.ndarray
    Qs: np.ndarray
    Ps: np.ndarray
    params: RunParams
    lam: np.ndarray


def make_case(n: int = 60, J: int = 816, I: int = 163, m: int = 10,
              sigma: float = 0.1, seed: int = 0) -> BenchCase:
    """Cylinder dataset padded to ambient dimension n (n >= 60)."""
    if n < 60:
        raise ConfigError(f"bench cases are padded upward from 60 dimensions, got {n}")
    ds = make_dataset(DatasetSpec(kind="cylinder2d", sample_count=J, noise=sigma,
                                  seed=seed))
    P = np.zeros((J, n))
    P[:, :60] = ds.points.points
    root = Rng(seed)
    S = build_sketch(P, m, root.stream("sketch"))
    q_idx = root.stream("init").subsample(J, I)
    Q = P[q_idx].copy()
    supports = estimate_supports(P, I, S, root.stream("supports"), q0=Q)
    rp = RunParams.from_supports(supports, eps=0.1, cutoff_mult=DEFAULT_CUTOFF_MULT)
    lam = np.full(I, -1.0)
    return BenchCase(Q=Q, P=P, Qs=S.project(Q), Ps=S.project(P), params=rp, lam=lam)


def one_iteration(case: BenchCase, threads: int = 1) -> None:
    rp = case.params
    kernels.attraction_forces(case.Q, case.P, case.Qs, case.Ps, rp.h1, rp.eps,
                              rp.cutoff1, threads)
    kernels.repulsion_forces(case.Q, case.Qs, rp.h2, rp.cutoff2, rp.delta_min, threads)
    kernels.attraction_cost(case.Qs, case.Ps, rp.h1, rp.eps, rp.cutoff1, threads)
    kernels.repulsion_cost(case.Qs, case.lam, rp.h2, rp.cutoff2, rp.delta_min, threads)


def time_iteration(case: BenchCase, reps: int = 10, threads: int = 1) -> float:
    """Median wall milliseconds of one solver-iteration workload."""
    one_iteration(case, threads=threads)  # warm-up
    samples = []
    for _ in range(reps):
        t0 = time.perf_counter()
        one_iteration(case, threads=threads)
        samples.append((time.perf_counter() - t0) * 1e3)
    return float(np.median(samples))


def dimension_scaling(n_values=(60, 120), reps: int = 10, threads: int = 1,
                      seed: int = 0) -> dict[int, float]:
    """Median per-iteration milliseconds for each ambient dimension."""
    out = {}
    for n in n_values:
        case = make_case(n=n, seed=seed)
        out[int(n)] = time_iteration(case, reps=reps, threads=threads)
    return out
