import dataclasses
import hashlib
import math

import numpy as np
import pytest

from mlop.datasets import (IMAGE_SIDE, KINDS, DatasetSpec, _axis_counts, _cone_embed,
                           _cylinder2d_embed, _cylinder6d_embed, _ellipse_radii_grid,
                           add_image_noise, add_uniform_noise, gen_ellipse_images,
                           gen_grid_line, gen_o2, make_dataset, random_orthogonal,
                           sphere5_coords)
from mlop.errors import ConfigError
from mlop.metrics import erode_background
from mlop.neighborhood import fill_distance
from mlop.rng import Rng
from mlop.sketch import SketchMatrix


def test_axis_counts():
    assert _axis_counts(816, 2) == [24, 34]
    assert math.prod(_axis_counts(720, 3)) >= 720
    assert math.prod(_axis_counts(1200, 6)) >= 1200


# ---------------------------------------------------------------------------
# rotation-matrix circle
# ---------------------------------------------------------------------------


def test_o2_embeds_rotations():
    clean, ref = gen_o2(500, Rng(0).stream("mixing"))
    assert clean.size == 500 and clean.ambient_dim == 60
    # undo the mixing: theta = 0 maps to [1, 0, 0, 1, 0, ...]
    A = random_orthogonal(60, Rng(0).stream("mixing"))
    theta = np.linspace(-np.pi, np.pi, 500, endpoint=False)
    idx = int(np.argmin(np.abs(theta)))
    p_hat = clean.points[idx] @ A
    expected = np.zeros(60)
    expected[[0, 3]] = 1.0
    assert np.allclose(p_hat, expected, atol=1e-12)
    # the mixing is orthogonal, so every sample keeps norm sqrt(2)
    norms = np.linalg.norm(clean.points, axis=1)
    assert np.allclose(norms, math.sqrt(2.0), atol=1e-10)
    assert ref.size >= 3 * clean.size


# ---------------------------------------------------------------------------
# cone with a segment
# ---------------------------------------------------------------------------


def test_cone_formula_point():
    p = _cone_embed(np.array([[0.0, 0.0, math.pi / 2]]), 60)[0]
    v3 = np.zeros(60)
    v3[0], v3[3] = 1.0, -1.0
    assert np.allclose(p, v3 / math.sqrt(2.0), atol=1e-12)


def test_cone_collapses_at_large_radius_parameter():
    p = _cone_embed(np.array([[1.0, 2.5, 0.7]]), 60)[0]
    v1 = np.zeros(60)
    v1[:4] = 1.0
    # radial factor exp(-6.25) makes the circular part nearly vanish
    assert np.linalg.norm(p - v1) < 2e-3


# ---------------------------------------------------------------------------
# plane cylinder
# ---------------------------------------------------------------------------


def test_cylinder2d_axis_distance():
    delta = 0.37
    pts = _cylinder2d_embed(np.array([[0.0, 1.0], [delta, 1.0]]), 60, 1.5)
    assert np.linalg.norm(pts[0] - pts[1]) == pytest.approx(delta * math.sqrt(60))


def test_cylinder2d_formula_point():
    p = _cylinder2d_embed(np.array([[0.0, math.pi / 2]]), 60, 1.0)[0]
    v3 = np.zeros(60)
    v3[0], v3[3] = 1.0, -1.0
    assert np.allclose(p, v3 / math.sqrt(2.0), atol=1e-12)


def test_cylinder2d_paper_scale_grid():
    ds = make_dataset(DatasetSpec(kind="cylinder2d", sample_count=816, seed=0))
    assert ds.points.size == 816
    pts = ds.clean.points
    t = pts[:, 4]  # only the sweep parameter reaches the fifth coordinate
    assert len(np.unique(t)) == 24
    angle = np.arctan2(pts[:, 0] - t, pts[:, 1] - t)
    assert len(np.unique(np.round(angle, 9))) == 34


# ---------------------------------------------------------------------------
# six-dimensional cylinder
# ---------------------------------------------------------------------------


def test_sphere5_constraint():
    u = Rng(0).uniform(0.1 * np.pi, 0.6 * np.pi, (40, 5))
    x = sphere5_coords(u, 1.5)
    assert np.allclose((x ** 2).sum(1), 1.5 ** 2, atol=1e-12)
    # first angle at pi/2 kills the first coordinate
    u[:, 0] = np.pi / 2
    assert np.allclose(sphere5_coords(u, 1.5)[:, 0], 0.0, atol=1e-12)


def test_cylinder6d_unit_cross_section():
    ds = make_dataset(DatasetSpec(kind="cylinder6d", sample_count=300, seed=1))
    assert ds.points.size == 300
    p = ds.clean.points
    t = p[:, 6]  # only the sweep direction reaches the seventh coordinate
    section = p[:, :6] - t[:, None]
    assert np.allclose(np.linalg.norm(section, axis=1), 1.0, atol=1e-10)
    assert ds.reference.size >= 300 * 2 ** 6


def test_cylinder6d_draws_from_the_root_streams():
    ds = make_dataset(DatasetSpec(kind="cylinder6d", sample_count=40, noise=0.1, seed=5))
    lo = np.array([0.0] + [0.1 * np.pi] * 5)
    hi = np.array([2.0] + [0.6 * np.pi] * 5)
    params = lo + (hi - lo) * Rng(5).stream("structure").random((40, 6))
    ref_params = lo + (hi - lo) * Rng(5).stream("reference").random((2560, 6))
    assert np.array_equal(ds.clean.points, _cylinder6d_embed(params, 60))
    assert np.array_equal(ds.reference.points, _cylinder6d_embed(ref_params, 60))
    # pinned bytes of the reference: no stream may move a draw
    assert (hashlib.sha256(ds.reference.points.tobytes()).hexdigest()
            == "4abd74d2a315e66c044638e82c4af7cb7858c2254b565e501c5a9fa82ee73467")


# ---------------------------------------------------------------------------
# ellipse images
# ---------------------------------------------------------------------------


def test_ellipse_images_binary_with_masks():
    clean, ref = gen_ellipse_images(900)
    assert clean.points.shape == (900, 400)
    assert set(np.unique(clean.points)) <= {0.0, 1.0}
    # the reference is binary too, so its zero pixels are its background
    assert ref.points.shape == (3600, 400)
    assert set(np.unique(ref.points)) <= {0.0, 1.0}
    # the largest ellipse still leaves background after erosion
    biggest = int(np.argmax(ref.points.sum(axis=1)))
    assert erode_background(ref.points[[biggest]] == 0.0).sum() >= 2
    # pinned bytes of both raster sets, and the pixel-centre test one image
    # at a time: the batched rasterization must not move a pixel
    assert (hashlib.sha256(clean.points.tobytes()).hexdigest()
            == "e73fdaccf330b9a7e335da5d0671c69014263a729eff51056eb927c90ecd3b6a")
    assert (hashlib.sha256(ref.points.tobytes()).hexdigest()
            == "0626da9c0b9f23286427b8d810a4e03b77f9bb620072ed168e842d6876fecb70")
    c = (IMAGE_SIDE - 1) / 2.0
    rows, cols = np.mgrid[0:IMAGE_SIDE, 0:IMAGE_SIDE]
    for k, (a, b) in enumerate(_ellipse_radii_grid(60)[::97]):
        inside = ((cols - c) / a) ** 2 + ((rows - c) / b) ** 2 <= 1.0
        assert np.array_equal(ref.points[97 * k], inside.ravel().astype(np.float64))


def test_only_ellipse_images_are_images():
    for kind in KINDS:
        ds = make_dataset(DatasetSpec(kind=kind, sample_count=16))
        assert ds.images == (kind == "ellipse_images")


def test_ellipse_count_cap():
    with pytest.raises(ConfigError, match="at most"):
        gen_ellipse_images(901)


# ---------------------------------------------------------------------------
# line segment
# ---------------------------------------------------------------------------


def test_grid_line_geometry():
    line, ref = gen_grid_line(33, 8)
    S = SketchMatrix(np.eye(8))
    assert fill_distance(line, S) == pytest.approx(2.0 / 32.0)
    centered = line.points - line.points.mean(0)
    assert np.linalg.matrix_rank(centered, tol=1e-10) == 1
    direction = np.ones(8) / math.sqrt(8)
    proj = centered @ direction
    assert np.allclose(np.outer(proj, direction), centered, atol=1e-12)


# ---------------------------------------------------------------------------
# noise
# ---------------------------------------------------------------------------


def test_uniform_noise_zero_sigma_is_identity():
    line, _ = gen_grid_line(10, 4)
    noisy = add_uniform_noise(line, 0.0, Rng(0).stream("noise"))
    assert np.array_equal(noisy.points, line.points)


def test_uniform_noise_bounded_and_centered():
    base, _ = gen_grid_line(200, 60)
    sigma = 0.1
    noisy = add_uniform_noise(base, sigma, Rng(1).stream("noise"))
    delta = noisy.points - base.points
    assert np.abs(delta).max() <= sigma
    assert abs(delta.mean()) < sigma / 10.0


def test_image_noise_clipped():
    clean, _ = gen_ellipse_images(25)
    noisy = add_image_noise(clean, 0.25, Rng(2).stream("noise"))
    assert noisy.points.min() >= 0.0 and noisy.points.max() <= 1.0


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------


def test_make_dataset_deterministic():
    spec = DatasetSpec(kind="cylinder2d", sample_count=100, noise=0.1, seed=9)
    a = make_dataset(spec)
    b = make_dataset(spec)
    assert np.array_equal(a.points.points, b.points.points)
    assert np.array_equal(a.reference.points, b.reference.points)
    c = make_dataset(DatasetSpec(kind="cylinder2d", sample_count=100, noise=0.1, seed=10))
    assert not np.array_equal(a.points.points, c.points.points)


def test_spec_validation():
    with pytest.raises(ConfigError, match="unknown dataset kind"):
        DatasetSpec(kind="torus", sample_count=10)
    with pytest.raises(ConfigError, match="at least 2"):
        DatasetSpec(kind="cylinder2d", sample_count=1)
    with pytest.raises(ConfigError):
        DatasetSpec(kind="ellipse_images", sample_count=1000)
    for noise in (-0.1, math.nan, math.inf):
        with pytest.raises(ConfigError, match="noise"):
            DatasetSpec(kind="cylinder2d", sample_count=10, noise=noise)
    for seed in (-1, 2**64):
        with pytest.raises(ConfigError, match="seed"):
            DatasetSpec(kind="cylinder2d", sample_count=10, seed=seed)


def test_spec_json_roundtrip(tmp_path):
    spec = DatasetSpec(kind="cone_segment", sample_count=50, noise=0.2, seed=3)
    assert DatasetSpec.from_dict(spec.to_dict()) == spec
    assert list(spec.to_dict()) == ["kind", "sample_count", "noise", "ambient_dim", "seed"]


@pytest.mark.parametrize("kind", KINDS)
def test_every_dataset_setting_changes_the_data(kind):
    """A spec records only what shapes the data: changing any setting but
    the kind either changes the samples or the reference, or is rejected."""
    base = DatasetSpec(kind=kind, sample_count=20, noise=0.1, seed=1)
    ds = make_dataset(base)
    for key, value in base.to_dict().items():
        if key == "kind":
            continue
        changed = value + 1 if isinstance(value, int) else value + 0.25
        try:
            spec = dataclasses.replace(base, **{key: changed})
        except ConfigError:
            continue
        other = make_dataset(spec)
        same = (np.array_equal(ds.points.points, other.points.points)
                and np.array_equal(ds.reference.points, other.reference.points))
        assert not same, f"{kind}: {key}={changed!r} leaves the data unchanged"


def test_density_condition_ball_counts():
    """Generated samples satisfy a bounded ball-counting density: the count
    within radius k*h grows no faster than a fixed multiple of k^d."""
    ds = make_dataset(DatasetSpec(kind="cylinder2d", sample_count=300, noise=0.05, seed=4))
    pts = ds.points.points
    S = SketchMatrix(np.eye(60))
    h = fill_distance(pts, S)
    centers = pts[:: len(pts) // 25]
    d = 2
    rho = {}
    for k in (1, 2, 4):
        counts = [np.sum(np.linalg.norm(pts - y, axis=1) <= k * h) for y in centers]
        rho[k] = max(counts) / k ** d
    assert rho[2] <= 4.0 * rho[1]
    assert rho[4] <= 4.0 * rho[1]
