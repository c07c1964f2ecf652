"""Fill-distance and support-size estimation.

The attraction and repulsion weights need support radii that guarantee
enough neighbours for every reconstruction point.  Sizes are derived from
the fill-distance of the data (median nearest-neighbour distance, an
outlier-robust variant of the usual sup definition) scaled by the smallest
grid multiplier whose ball around every reconstruction point captures the
service-centre quota of nu = floor(J / I) data points.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from . import kernels
from .cloud import as_points
from .errors import ConfigError, UnreachableSupportError
from .rng import Rng
from .sketch import SketchMatrix

# Multiplicative search grid for the radius multiplier: the downstream
# Gaussian weight is insensitive to a 10% radius error, so an exact argmin
# over the continuum buys nothing.
C_GROWTH = 1.1
C_MAX = 64.0


@dataclass(frozen=True)
class SupportParams:
    """Neighbourhood geometry bundle.

    h0 is the fill-distance of the data; nu = floor(J / I) the support
    quota; c1 the smallest grid multiplier covering the quota; h1 = c1 * h0
    the attraction support size and h2 the repulsion support size.  All
    radii are sketched-metric quantities.
    """

    h0: float
    nu: int
    c1: float
    h1: float
    h2: float

    def __post_init__(self):
        values = (self.h0, self.c1, self.h1, self.h2)
        if not all(math.isfinite(v) and v > 0 for v in values):
            raise ValueError(f"support parameters must be finite and positive: {self}")
        if self.nu < 1:
            raise ValueError("nu must be at least 1")

    def to_dict(self) -> dict:
        return asdict(self)


def fill_distance(X, S: SketchMatrix) -> float:
    """Median over points of the sketched nearest-neighbour distance.

    The median of an even-length list is the mean of the two central values.
    """
    pts = as_points(X)
    if pts.shape[0] < 2:
        raise ValueError("fill distance requires at least 2 points")
    nn = kernels.self_nn_dists(S.project(pts))
    return float(np.median(nn))


def _quota_radii(P, Q, nu: int, S: SketchMatrix) -> np.ndarray:
    """Per reconstruction point, the nu-th smallest sketched distance to P.

    A point is not its own neighbour: when the centre coincides exactly with
    a data point (Q drawn from P), one zero distance is discarded, so such a
    row reads its (nu+1)-th smallest distance instead.
    """
    D = kernels.pairwise_dists(S.project(Q), S.project(P))
    has_zero = D.min(axis=1) == 0.0
    candidates = D.shape[1] - has_zero
    short = np.flatnonzero(candidates < nu)
    if short.size:
        i = int(short[0])
        raise UnreachableSupportError(
            f"point {i} has only {candidates[i]} candidate neighbours, needs {nu}"
        )
    D.partition([nu - 1, nu] if nu < D.shape[1] else [nu - 1], axis=1)
    return D[np.arange(D.shape[0]), nu - 1 + has_zero]


def guarantee_radius(P, Q, h0: float, nu: int, S: SketchMatrix) -> tuple[float, float]:
    """Smallest grid multiplier c1 whose closed ball of radius c1*h0 around
    every point of Q contains at least nu points of P.

    Returns:
        (c1, h_hat0) with h_hat0 = c1 * h0.

    Raises:
        UnreachableSupportError: no multiplier up to C_MAX works
            (pathological clustering).
    """
    if nu < 1:
        raise ConfigError("nu must be at least 1")
    return _grid_radius(h0, float(_quota_radii(P, Q, nu, S).max()))


def _grid_radius(h0: float, needed: float) -> tuple[float, float]:
    """(c, c * h0) for the smallest grid multiplier c with c * h0 >= needed."""
    if h0 <= 0:
        raise ConfigError("h0 must be positive")
    k = 0
    while True:
        c = C_GROWTH ** k
        if c > C_MAX:
            raise UnreachableSupportError(
                f"no multiplier <= {C_MAX} reaches the quota; "
                f"worst point needs c >= {needed / h0:.3g}"
            )
        if c * h0 >= needed:
            return float(c), float(c * h0)
        k += 1


def estimate_supports(P, S: SketchMatrix, rng: Rng, q0) -> SupportParams:
    """Estimate the attraction/repulsion support sizes for a run.

    h1 comes from the quota radius of the actual reconstruction seed q0
    against the data.  The eventual reconstruction is expected to be
    quasi-uniform, which the seed is not, so h2 is instead computed from a
    fresh uniform subsample standing in for both sets.  One nearest-neighbour
    scan of that subsample gives both of h2's inputs: the median is its fill
    distance and the largest is its quota radius at nu = 1 (a point is not
    its own neighbour).

    Args:
        P: data cloud (J points).
        rng: draws the uniform subsample behind h2.
        q0: the reconstruction seed, of I points with 1 <= I <= J.
    """
    pts = as_points(P)
    J, I = pts.shape[0], len(q0)
    if not 1 <= I <= J:
        raise ConfigError(
            f"reconstruction size must satisfy 1 <= I <= J, got I={I}, J={J}; "
            "runs with I > J are not supported"
        )
    nu = J // I
    h0 = fill_distance(pts, S)
    c1, h1 = guarantee_radius(pts, q0, h0, nu, S)
    rand_idx = rng.subsample(J, I)
    qr = pts[rand_idx]
    if I >= 2:
        nn = kernels.self_nn_dists(S.project(qr))
        _, h2 = _grid_radius(float(np.median(nn)), float(nn.max()))
    else:
        h2 = h1
    return SupportParams(h0=h0, nu=nu, c1=c1, h1=h1, h2=h2)
