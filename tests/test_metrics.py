import logging
import math
import re

import numpy as np
import pytest

import oracles
from mlop import metrics
from mlop.metrics import (background_snr, erode_background, local_pca_angle_error,
                          nearest_reference_errors, principal_directions, relative_error,
                          sketched_diameter)
from mlop.sketch import SketchMatrix

S2 = SketchMatrix(np.eye(2))
S3 = SketchMatrix(np.eye(3))


def test_nearest_errors_subset_is_zero():
    ref = np.random.default_rng(0).normal(size=(20, 3))
    err = nearest_reference_errors(ref[:5], ref, S3)
    assert np.all(err.dists == 0.0)
    assert err.rmse == 0.0 and err.max == 0.0 and err.variance == 0.0


def test_nearest_errors_single_point():
    err = nearest_reference_errors(np.array([[2.0, 0.0]]),
                                   np.array([[0.0, 0.0], [5.0, 5.0]]), S2)
    assert err.rmse == pytest.approx(2.0)
    assert err.max == pytest.approx(2.0)
    assert err.variance == 0.0


def test_nearest_errors_matches_brute_force():
    rng = np.random.default_rng(1)
    Q = rng.normal(size=(100, 4))
    ref = rng.normal(size=(100, 4))
    S = SketchMatrix(np.eye(4))
    err = nearest_reference_errors(Q, ref, S)
    brute = np.sqrt(((Q[:, None, :] - ref[None, :, :]) ** 2).sum(-1)).min(1)
    assert np.allclose(err.dists, brute, rtol=1e-9)
    assert err.rmse == pytest.approx(float(np.sqrt((brute ** 2).mean())))
    assert err.variance == pytest.approx(float(np.var(brute)))


def test_relative_error_zero_and_scale_invariant():
    rng = np.random.default_rng(2)
    ref = rng.normal(size=(50, 3))
    Q = rng.normal(size=(10, 3))
    assert relative_error(ref[:10], ref, S3) == 0.0
    base = relative_error(Q, ref, S3)
    scaled = relative_error(7.5 * Q, 7.5 * ref, S3)
    assert scaled == pytest.approx(base, rel=1e-12)


def test_relative_error_degenerate_reference():
    with pytest.raises(ValueError, match="diameter"):
        relative_error(np.ones((2, 2)), np.ones((3, 2)), S2)


def farthest_point_sweep(xs) -> float:
    """Iterated farthest-point sweep (at most three steps): a cheap lower
    bound on the diameter, exact on elongated sets but not in general."""
    idx = int(np.argmax(np.linalg.norm(xs - xs.mean(axis=0), axis=1)))
    best = 0.0
    for _ in range(3):
        d2 = np.einsum("ij,ij->i", xs - xs[idx], xs - xs[idx])
        far = int(np.argmax(d2))
        if d2[far] <= best:
            break
        best = float(d2[far])
        idx = far
    return math.sqrt(best)


def test_diameter_exact_beyond_4096_rows():
    rng = np.random.default_rng(3)
    pts = rng.normal(size=(500, 3)) * [10.0, 1.0, 1.0]
    brute = 0.0
    for i in range(500):
        brute = max(brute, float(np.linalg.norm(pts - pts[i], axis=1).max()))
    assert sketched_diameter(pts, S3) == pytest.approx(brute)
    assert sketched_diameter(np.vstack([pts] * 10), S3) == sketched_diameter(pts, S3)
    # a round cloud on which the sweep stops short of the farthest pair
    X, S = list(diameter_clouds())[BIG_CASE]
    exact = oracles.exact_diameter(X, S)
    assert X.shape[0] > 4096
    assert farthest_point_sweep(S.project(X)) < exact
    assert sketched_diameter(X, S) == exact


def test_background_snr_hand_value():
    images = np.array([[1.0, 1.0, 3.0, 3.0, 9.0],
                       [1.0, 1.0, 3.0, 3.0, 9.0]])
    masks = np.array([[True, True, True, True, False]] * 2)
    assert background_snr(images, masks) == pytest.approx(math.sqrt(3.0))


def test_background_snr_excludes_constant(caplog):
    images = np.array([[1.0, 1.0, 0.5], [1.0, 2.0, 0.5]])
    masks = np.array([[True, True, False]] * 2)
    with caplog.at_level("WARNING"):
        out = background_snr(images, masks)
    assert "1 images had constant background" in caplog.text
    assert out == pytest.approx(1.5 / np.std([1.0, 2.0], ddof=1))


def test_background_snr_of_constant_backgrounds_is_none(caplog):
    images = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 1.0]])
    masks = np.array([[True, True, False]] * 2)
    with caplog.at_level("WARNING"):
        out = background_snr(images, masks)
    assert out is None
    assert "2 images had constant background" in caplog.text


def test_background_snr_needs_two_pixels():
    with pytest.raises(ValueError, match="background pixels"):
        background_snr(np.ones((1, 4)), np.array([[True, False, False, False]]))


def test_erode_background():
    mask = np.ones((1, 16), dtype=bool)
    mask[0, 5] = False  # foreground pixel in a 4x4 image
    out = erode_background(mask)
    img = out.reshape(4, 4)
    # the four neighbours of (1,1) leave the background
    assert not img[0, 1] and not img[2, 1] and not img[1, 0] and not img[1, 2]
    assert img[3, 3]
    with pytest.raises(ValueError, match="square"):
        erode_background(np.ones((1, 15), dtype=bool))


def test_principal_direction_canonical():
    rng = np.random.default_rng(4)
    t = rng.normal(size=40)
    pts = np.outer(t, [1.0, -2.0, 0.5]) + 0.01 * rng.normal(size=(40, 3))
    v, = principal_directions([pts])
    assert v[0] > 0  # canonical sign: first nonzero component positive
    assert abs(np.linalg.norm(v) - 1.0) < 1e-12
    with pytest.raises(ValueError, match="degenerate"):
        principal_directions([np.ones((5, 3))])


def test_pca_angle_zero_for_collinear():
    t = np.linspace(0, 1, 30)[:, None]
    direction = np.array([1.0, 1.0, 0.0]) / math.sqrt(2)
    X = t * direction
    ref = np.linspace(0, 1, 90)[:, None] * direction
    out = local_pca_angle_error(X, ref, h=0.2, S=S3)
    # eigensolver round-off leaves micro-degree jitter
    assert out.median_deg == pytest.approx(0.0, abs=1e-4)


def test_pca_angle_rotation_invariant():
    rng = np.random.default_rng(5)
    t = np.linspace(0, 2, 40)
    X = np.stack([t, np.sin(t), 0.1 * t], 1) + 0.01 * rng.normal(size=(40, 3))
    ref = np.stack([t, np.sin(t), 0.1 * t], 1)
    base = local_pca_angle_error(X, ref, h=0.5, S=S3)
    R = np.linalg.qr(rng.normal(size=(3, 3)))[0]
    rotated = local_pca_angle_error(X @ R.T, ref @ R.T, h=0.5, S=S3)
    assert rotated.median_deg == pytest.approx(base.median_deg, abs=1e-6)


def test_pca_angle_sign_invariant():
    # flipping the whole configuration flips every local eigenvector; the
    # absolute-cosine scoring is unchanged
    t = np.linspace(0, 1, 30)[:, None]
    X = t * np.array([1.0, 0.5, 0.0])
    ref = np.linspace(0, 1, 60)[:, None] * np.array([1.0, 0.5, 0.0])
    a = local_pca_angle_error(X, ref, h=0.3, S=S3)
    b = local_pca_angle_error(-X, -ref, h=0.3, S=S3)
    assert a.median_deg == pytest.approx(b.median_deg, abs=1e-9)


def test_pca_angle_skips_isolated(caplog):
    X = np.array([[0.0, 0, 0], [0.05, 0, 0], [0.1, 0, 0], [5.0, 0, 0]])
    ref = np.linspace(0, 0.2, 30)[:, None] * np.array([1.0, 0, 0])
    want = assert_matches_oracle(caplog, X, ref, 0.12, S3)
    assert want.skipped == 1 and np.isnan(want.per_point[3])
    assert "local PCA skipped 1 points with < 2 neighbours" in caplog.text


def test_metrics_permutation_invariant():
    rng = np.random.default_rng(6)
    Q = rng.normal(size=(30, 3))
    ref = rng.normal(size=(100, 3))
    perm = rng.permutation(30)
    a = nearest_reference_errors(Q, ref, S3)
    b = nearest_reference_errors(Q[perm], ref, S3)
    assert a.rmse == b.rmse and a.max == b.max
    assert relative_error(Q, ref, S3) == relative_error(Q[perm], ref, S3)


def test_relative_error_reuses_given_errors_and_diameter():
    rng = np.random.default_rng(7)
    ref = rng.normal(size=(80, 3))
    Q = rng.normal(size=(20, 3))
    err = nearest_reference_errors(Q, ref, S3)
    diam = sketched_diameter(ref, S3)
    want = relative_error(Q, ref, S3)
    assert relative_error(Q, ref, S3, errors=err, diameter=diam) == want
    assert relative_error(Q, ref, S3, errors=err) == want
    assert relative_error(Q, ref, S3, diameter=diam) == want
    with pytest.raises(ValueError, match="diameter"):
        relative_error(Q, ref, S3, errors=err, diameter=0.0)


def test_nearest_reference_errors_first_index_on_ties():
    # an image's background is the zero pixels of its nearest reference, and
    # the four reference backgrounds are [T, F], [F, T], [T, F], [F, F].
    # Image 0 is equidistant from references 1 and 2, whose backgrounds
    # differ; image 1 equals reference 3, the only one with background [F, F]
    ref = np.array([[0.0, -9.0], [1.0, 0.0], [0.0, 1.0], [3.0, 5.0]])
    images = np.array([[0.5, 0.5], [3.0, 5.0]])
    err = nearest_reference_errors(images, ref, S2)
    assert err.dists[0] == math.sqrt(0.5) and err.dists[1] == 0.0
    assert np.array_equal(err.nearest, [1, 3])
    assert np.array_equal(ref[err.nearest] == 0.0, [[False, True], [False, False]])
    # listed the other way round, the tie goes to the other first index
    swapped = ref[[0, 2, 1, 3]]
    err = nearest_reference_errors(images, swapped, S2)
    assert np.array_equal(err.nearest, [1, 3])
    assert np.array_equal(swapped[err.nearest] == 0.0, [[True, False], [False, False]])


# ---------------------------------------------------------------------------
# screened diameter and local-PCA scans against the exact per-point oracles
# ---------------------------------------------------------------------------


def random_sketch(n, m, seed):
    return SketchMatrix(np.linalg.qr(np.random.default_rng(seed).normal(size=(n, m)))[0])


def diameter_clouds():
    rng = np.random.default_rng(30)
    yield rng.normal(size=(2, 3)), S3
    yield rng.normal(size=(300, 3)) * [10.0, 1.0, 1.0], S3
    yield 1e3 + rng.normal(size=(500, 8)), random_sketch(8, 4, 31)
    dup = rng.normal(size=(200, 6))
    yield np.vstack([dup, dup[:50]]), random_sketch(6, 6, 32)
    # many near-equal farthest pairs: points on a sphere
    sphere = rng.normal(size=(700, 3))
    yield sphere / np.linalg.norm(sphere, axis=1, keepdims=True), S3
    yield rng.uniform(size=(1000, 40)), random_sketch(40, 10, 33)
    # near-equal farthest pairs far from the origin, below the screen's error
    u = rng.normal(size=(100, 3))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    yield 1e3 + np.vstack([u] + [-u + 1e-10 * rng.normal(size=u.shape) for _ in range(4)]), S3
    yield np.random.default_rng(40).normal(size=(5000, 3)), S3
    # collinear points far from the origin: the farthest pair's second end
    # lies on the prune threshold L - R, inside its rounding margin
    line = np.random.default_rng(3)
    yield np.outer(line.uniform(size=50), line.normal(size=3)) + 1e3 * line.normal(size=3), S3


BIG_CASE = 7


@pytest.mark.parametrize("case", range(9))
def test_diameter_matches_exact_blocks(case):
    X, S = list(diameter_clouds())[case]
    assert sketched_diameter(X, S) == oracles.exact_diameter(X, S)


def assert_matches_oracle(caplog, X, ref, h, S):
    """The same median, bit for bit, and the same logged skip count, or the
    same ValueError, as the per-point oracle at PCA_MIN_NEIGHBORS; returns
    the oracle's result."""
    try:
        want = oracles.local_pca_angle_error(X, ref, h, S, metrics.PCA_MIN_NEIGHBORS)
    except ValueError as exc:
        with pytest.raises(ValueError, match=re.escape(str(exc))):
            local_pca_angle_error(X, ref, h, S)
        return None
    caplog.clear()
    with caplog.at_level(logging.INFO, logger="mlop.metrics"):
        got = local_pca_angle_error(X, ref, h, S)
    assert got.median_deg == want.median_deg
    skips = [r.args[0] for r in caplog.records if r.msg.startswith("local PCA skipped")]
    assert skips == ([want.skipped] if want.skipped else [])
    return want


def helix(t, n=8):
    cols = [np.cos(t), np.sin(t), 0.3 * t] + [0.1 * np.cos((k + 2) * t) for k in range(n - 3)]
    return np.stack(cols, axis=1)


@pytest.mark.parametrize("seed", range(4))
def test_pca_angle_matches_oracle_random_clouds(caplog, seed):
    rng = np.random.default_rng(40 + seed)
    X = helix(rng.uniform(0, 6, size=120)) + 0.05 * rng.normal(size=(120, 8))
    ref = helix(np.linspace(0, 6, 900))
    S = random_sketch(8, 4, seed)
    got = assert_matches_oracle(caplog, X, ref, 0.4, S)
    assert got is not None and np.isfinite(got.per_point).sum() > 100


def test_pca_angle_matches_oracle_with_skipped_points(caplog):
    rng = np.random.default_rng(50)
    X = helix(rng.uniform(0, 6, size=80)) + 0.02 * rng.normal(size=(80, 8))
    X[:3] += 5.0  # isolated: skipped on their own side
    t = np.linspace(0, 6, 600)
    ref = helix(t[(t < 1.5) | (t > 3.1)])
    ref = np.vstack([ref, helix(np.array([2.3]))])  # a reference point with no neighbours
    X[3:6] = helix(np.array([2.3, 2.31, 2.29]))  # ... nearest to it: skipped on its side
    got = assert_matches_oracle(caplog, X, ref, 0.25, random_sketch(8, 8, 1))
    assert got.skipped >= 6 and np.all(np.isnan(got.per_point[:6]))


def test_pca_angle_matches_oracle_min_neighbors_edges(caplog, monkeypatch):
    rng = np.random.default_rng(60)
    X = helix(rng.uniform(0, 6, size=60)) + 0.03 * rng.normal(size=(60, 8))
    ref = helix(np.linspace(0, 6, 400))
    S = random_sketch(8, 4, 2)
    h = 0.5
    xs = S.project(X)
    counts = (np.einsum("ijk,ijk->ij", xs[:, None] - xs[None], xs[:, None] - xs[None])
              < h * h).sum(axis=1) - 1
    k = int(np.median(counts))
    for min_neighbors in (1, 2, k, k + 1, int(counts.max()), int(counts.max()) + 1, 10**6):
        monkeypatch.setattr(metrics, "PCA_MIN_NEIGHBORS", min_neighbors)
        assert_matches_oracle(caplog, X, ref, h, S)
    # still at 10**6 neighbours
    with pytest.raises(ValueError, match="every point was skipped"):
        local_pca_angle_error(X, ref, h, S)


def test_pca_angle_matches_oracle_duplicate_rows(caplog):
    rng = np.random.default_rng(70)
    X = helix(rng.uniform(0, 6, size=50)) + 0.03 * rng.normal(size=(50, 8))
    X = np.vstack([X, X[:10]])  # duplicated reconstruction points
    ref = helix(np.linspace(0, 6, 300))
    ref = np.vstack([ref, ref[::3]])  # duplicated reference points
    S = random_sketch(8, 4, 3)
    assert assert_matches_oracle(caplog, X, ref, 0.5, S) is not None
    # three coincident points far from the rest: each one's neighbourhood
    # is the two others, so both raise "degenerate"
    X[1:4] = X[0] + 50.0
    with pytest.raises(ValueError, match="degenerate"):
        oracles.local_pca_angle_error(X, ref, 0.5, S, 2)
    assert_matches_oracle(caplog, X, ref, 0.5, S)
    # a degenerate reference neighbourhood is never looked at for a point
    # skipped on its own side: here the lone point X[1] nearest to it
    X[1:4] = X[0] - 50.0
    X[2:4] += 5.0
    ref = np.vstack([ref, np.repeat(X[1:2] + 0.01, 3, axis=0)])
    got = assert_matches_oracle(caplog, X, ref, 0.5, S)
    assert got is not None and np.isnan(got.per_point[1])


def test_pca_angle_matches_oracle_near_tie_nearest_reference(caplog):
    # evaluated points half way between dyadic reference points: exact ties
    # under the identity sketch, near ties under a random one
    grid = np.stack(np.meshgrid(np.arange(12.0) / 4.0, np.arange(6.0) / 2.0), -1)
    ref = np.hstack([grid.reshape(-1, 2), np.zeros((72, 1))])
    X = (ref[:-1] + ref[1:]) / 2.0
    D2 = oracles.sq_dists_block(X, ref)
    assert np.sum((D2 == D2.min(axis=1, keepdims=True)).sum(axis=1) > 1) >= 60
    for S in (S3, random_sketch(3, 3, 4)):
        assert assert_matches_oracle(caplog, X, ref, 0.6, S) is not None
