import dataclasses
import math
import re

import numpy as np
import pytest

from mlop import kernels
from mlop.datasets import make_dataset
from mlop.errors import ConfigError, UnreachableSupportError
from mlop.experiments import RECIPES
from mlop.neighborhood import (C_GROWTH, C_MAX, SupportParams, _quota_radii,
                               estimate_supports, fill_distance, guarantee_radius)
from mlop.rng import Rng
from mlop.sketch import SketchMatrix
from mlop.solver import run
from oracles import predicted_support_count, quota_radii

S1 = SketchMatrix(np.eye(1))
S2 = SketchMatrix(np.eye(2))


def col(*values):
    return np.asarray(values, dtype=float)[:, None]


def brute_force_c1(P, Q, h0, nu, c_max=C_MAX, growth=C_GROWTH):
    """Independent scan of the multiplier grid with literal closed-ball
    counting; one zero distance (the centre itself) is discarded."""
    k = 0
    while True:
        c = growth ** k
        if c > c_max:
            return None
        feasible = True
        for q in Q:
            count = 0
            dropped_self = False
            for p in P:
                d = float(np.linalg.norm(q - p))
                if d == 0.0 and not dropped_self:
                    dropped_self = True
                    continue
                if d <= c * h0:
                    count += 1
            if count < nu:
                feasible = False
                break
        if feasible:
            return c
        k += 1


# ---------------------------------------------------------------------------
# fill distance
# ---------------------------------------------------------------------------


def test_fill_three_points():
    assert fill_distance(col(0, 1, 3), S1) == 1.0


def test_fill_uniform_grid_is_spacing():
    for s in (1.0, 0.5):
        grid = col(*(s * np.arange(12)))
        assert fill_distance(grid, S1) == s


def test_fill_two_points():
    assert fill_distance(col(0, 7), S1) == 7.0


def test_fill_even_median_is_mean_of_central():
    # nearest-neighbour distances {1, 1, 2, 4} -> median 1.5
    assert fill_distance(col(0, 1, 3, 7), S1) == 1.5


def test_fill_permutation_and_translation_invariant():
    pts = np.random.default_rng(0).normal(size=(30, 2))
    base = fill_distance(pts, S2)
    perm = np.random.default_rng(1).permutation(30)
    assert fill_distance(pts[perm], S2) == base
    assert abs(fill_distance(pts + 13.5, S2) - base) < 1e-12


def test_fill_singleton_rejected():
    with pytest.raises(ValueError, match="at least 2"):
        fill_distance(col(0), S1)


# ---------------------------------------------------------------------------
# guarantee radius
# ---------------------------------------------------------------------------


def test_grid_quota_two_matches_brute_force():
    """Boundary points of a unit grid see only one neighbour at distance 1,
    so the feasible multiplier must reach 2; the first grid value there is
    1.1 ** 8."""
    grid = col(*np.arange(10.0))
    expected = brute_force_c1(grid, grid, 1.0, 2)
    c1, h_hat0 = guarantee_radius(grid, grid, 1.0, 2, S1)
    assert c1 == expected == pytest.approx(1.1 ** 8)
    assert c1 * 1.0 >= 2.0
    assert h_hat0 == c1


def test_quota_one_with_close_subset():
    grid = col(*np.arange(10.0))
    sub = grid[[2, 5, 7]]
    assert guarantee_radius(grid, sub, 1.0, 1, S1)[0] == 1.0


def test_random_instance_matches_brute_force():
    rng = np.random.default_rng(4)
    P = rng.normal(size=(40, 2))
    Q = P[rng.permutation(40)[:12]]
    h0 = fill_distance(P, S2)
    for nu in (1, 2, 5):
        expected = brute_force_c1(P, Q, h0, nu)
        assert guarantee_radius(P, Q, h0, nu, S2)[0] == expected


def test_monotone_in_nu():
    rng = np.random.default_rng(5)
    P = rng.normal(size=(60, 2))
    Q = P[:20]
    h0 = fill_distance(P, S2)
    values = [guarantee_radius(P, Q, h0, nu, S2)[0] for nu in range(1, 8)]
    assert all(b >= a for a, b in zip(values, values[1:]))


def test_quota_radii_duplicate_zeros_and_full_quota():
    """A centre on two coincident data points discards one zero and keeps
    the other; nu == J reads a row's largest distance, and a row that lost
    a zero then has too few candidates."""
    P = col(0, 0, 1, 3, 3, 7)
    Q = col(0, 3, 5)
    assert np.array_equal(_quota_radii(P, Q, 1, S1), [0.0, 0.0, 2.0])
    for nu in range(1, 6):
        assert np.array_equal(_quota_radii(P, Q, nu, S1), quota_radii(P, Q, nu, S1))
    off = col(-1, 9)
    assert np.array_equal(_quota_radii(P, off, 6, S1), [8.0, 9.0])
    assert np.array_equal(_quota_radii(P, off, 6, S1), quota_radii(P, off, 6, S1))
    with pytest.raises(UnreachableSupportError,
                       match="point 0 has only 5 candidate neighbours, needs 6"):
        quota_radii(P, Q, 6, S1)
    with pytest.raises(UnreachableSupportError,
                       match="point 0 has only 5 candidate neighbours, needs 6"):
        _quota_radii(P, Q, 6, S1)


def test_quota_radii_match_the_per_row_loop():
    """Random small instances on an integer lattice, so data rows repeat and
    distances tie, with centres on and off the data, at every quota."""
    rng = np.random.default_rng(11)
    for _ in range(100):
        J = int(rng.integers(2, 12))
        P = rng.integers(0, 4, size=(J, 2)).astype(float)
        Q = np.vstack([P[rng.integers(0, J, size=3)], rng.normal(size=(2, 2))])
        for nu in range(1, J + 2):
            try:
                want = quota_radii(P, Q, nu, S2)
            except UnreachableSupportError as exc:
                with pytest.raises(UnreachableSupportError, match=re.escape(str(exc))):
                    _quota_radii(P, Q, nu, S2)
            else:
                assert np.array_equal(_quota_radii(P, Q, nu, S2), want)
    # long rows: there a partition at nu - 1 alone can leave the next
    # column out of order, which a centre on the data reads
    rng = np.random.default_rng(3)
    P = rng.normal(size=(1000, 1))
    Q = P[rng.integers(0, 1000, size=50)]
    for nu in (1, 2, 7, 100, 333, 500, 998, 999):
        assert np.array_equal(_quota_radii(P, Q, nu, S1), quota_radii(P, Q, nu, S1))


def test_unreachable_support():
    P = col(0, 1, 2)
    Q = np.array([[1000.0]])
    with pytest.raises(UnreachableSupportError):
        guarantee_radius(P, Q, 1.0, 1, S1)


def test_bad_arguments():
    P = col(0, 1)
    with pytest.raises(ConfigError):
        guarantee_radius(P, P, 1.0, 0, S1)
    with pytest.raises(ConfigError):
        guarantee_radius(P, P, 0.0, 1, S1)


# ---------------------------------------------------------------------------
# support estimation
# ---------------------------------------------------------------------------


def test_estimate_supports_nu_floor():
    pts = np.random.default_rng(6).normal(size=(816, 8))
    S = SketchMatrix(np.eye(8))
    rng = Rng(0).stream("supports")
    q0 = pts[rng.subsample(816, 163)]
    sup = estimate_supports(pts, S, rng, q0)
    assert sup.nu == 5
    assert sup.h1 > 0 and sup.h2 > 0


def test_estimate_supports_equal_sizes():
    grid = col(*np.arange(12.0))
    rng = Rng(1).stream("supports")
    sup = estimate_supports(grid, S1, rng, grid[rng.subsample(12, 12)])
    assert sup.nu == 1
    # every point has a neighbour at distance 1 except the endpoints at 1
    assert sup.h1 == 1.0


def test_supports_quota_recheckable():
    """The defining quantifier: every seed point has >= nu data points within
    sketched radius h1."""
    pts = np.random.default_rng(7).normal(size=(120, 3))
    S = SketchMatrix(np.eye(3))
    rng = Rng(2).stream("supports")
    q0 = pts[Rng(2).stream("init").subsample(120, 30)]
    sup = estimate_supports(pts, S, rng, q0)
    for q in q0:
        d = np.linalg.norm(pts - q, axis=1)
        d = np.delete(d, np.argmin(d)) if d.min() == 0.0 else d
        assert np.sum(d <= sup.h1) >= sup.nu


def test_grid_h2_within_factor_two_of_h1():
    grid = np.stack(np.meshgrid(np.arange(24.0), np.arange(24.0), indexing="ij"),
                    -1).reshape(-1, 2)
    rng = Rng(0).stream("supports")
    sup = estimate_supports(grid, S2, rng, grid[rng.subsample(576, 144)])
    assert 0.5 <= sup.h2 / sup.h1 <= 2.0


@pytest.mark.parametrize("shape", ["gaussian", "lattice", "sketched", "pair"])
def test_h2_is_the_grid_value_of_the_subsample_quota(shape):
    """h2 is the first grid multiple of the subsample's fill distance that
    reaches its largest quota radius at nu = 1, from the per-row oracle;
    the lattice repeats rows, so some nearest partners sit at distance 0."""
    rng = np.random.default_rng(8)
    pts, S, I = {
        "gaussian": (rng.normal(size=(300, 5)), SketchMatrix(np.eye(5)), 60),
        "lattice": (rng.integers(0, 10, size=(200, 3)).astype(float),
                    SketchMatrix(np.eye(3)), 90),
        "sketched": (rng.normal(size=(250, 12)) * np.linspace(1, 3, 12),
                     SketchMatrix(np.linalg.qr(rng.normal(size=(12, 4)))[0]), 50),
        "pair": (col(0, 1, 3, 7), S1, 2),
    }[shape]
    for seed in range(3):
        q0 = pts[Rng(seed).stream("init").subsample(pts.shape[0], I)]
        sup = estimate_supports(pts, S, Rng(seed).stream("supports"), q0)
        qr = pts[Rng(seed).stream("supports").subsample(pts.shape[0], I)]
        needed = float(quota_radii(qr, qr, 1, S).max())
        h0 = fill_distance(qr, S)
        c = next(C_GROWTH ** k for k in range(100) if C_GROWTH ** k * h0 >= needed)
        assert sup.h2 == c * h0


@pytest.mark.xfail(
    strict=True,
    reason="known defect: _quota_radii projects q0 apart from P, so a q0 row "
           "differs in the last bits from its row of S.project(P), its own "
           "distance is not exactly 0, and it counts itself as one of its nu "
           "neighbours (all 180 q0 rows of this recipe at seed 0); h1 reads "
           "1.4028 instead of 1.5431, one grid step low.  Excluding the point "
           "by index moves perfbench's recorded ellipses quality past its "
           "rtol, so the fix waits for ROADMAP item 5")
def test_h1_excludes_each_seed_point_by_index():
    """h1 of the ellipses recipe at seed 0 is the grid value of the quota
    radii on S.project(P), each q0 row's own column left out by index."""
    spec, cfg = RECIPES["ellipses"]
    P = make_dataset(spec).points
    result = run(P, dataclasses.replace(cfg, max_iters=0))
    sup, idx = result.supports, result.q0_indices
    Ps = result.sketch.project(P)
    D = kernels.pairwise_dists(Ps[idx], Ps)
    D[np.arange(idx.size), idx] = np.inf
    needed = float(np.partition(D, sup.nu - 1, axis=1)[:, sup.nu - 1].max())
    c = next(C_GROWTH ** k for k in range(100) if C_GROWTH ** k * sup.h0 >= needed)
    assert sup.h1 == c * sup.h0


def test_reconstruction_larger_than_data_rejected():
    with pytest.raises(ConfigError, match="I > J|1 <= I <= J"):
        estimate_supports(col(0, 1, 2), S1, Rng(0), col(0, 1, 2, 2))


def test_support_params_validation():
    with pytest.raises(ValueError):
        SupportParams(h0=0.0, nu=1, c1=1.0, h1=1.0, h2=1.0)
    with pytest.raises(ValueError):
        SupportParams(h0=1.0, nu=0, c1=1.0, h1=1.0, h2=1.0)


# ---------------------------------------------------------------------------
# predicted support count
# ---------------------------------------------------------------------------


def test_predicted_support_count_values():
    assert predicted_support_count(2, 5) == 40
    assert predicted_support_count(1, 1) == 2


def test_predicted_support_count_grid_within_factor_two():
    """Interior points of a uniform plane grid hold the predicted count at
    radius 2 sqrt(2) h_hat0 within a factor of two."""
    grid = np.stack(np.meshgrid(np.arange(24.0), np.arange(24.0), indexing="ij"),
                    -1).reshape(-1, 2)
    margin = 4.0
    interior = grid[(grid[:, 0] >= margin) & (grid[:, 0] <= 23 - margin)
                    & (grid[:, 1] >= margin) & (grid[:, 1] <= 23 - margin)]
    nu = 4
    c1, h_hat0 = guarantee_radius(grid, interior, 1.0, nu, S2)
    radius = 2.0 * math.sqrt(2.0) * h_hat0
    predicted = predicted_support_count(2, nu)
    for q in interior[:: max(1, len(interior) // 40)]:
        count = int(np.sum(np.linalg.norm(grid - q, axis=1) <= radius)) - 1
        assert predicted / 2 <= count <= predicted * 2


def test_predicted_support_count_rejects_bad_input():
    with pytest.raises(ValueError):
        predicted_support_count(0, 1)
