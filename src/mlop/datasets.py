"""Synthetic manifold generators, noise injection, and dense references.

Every generator samples a parameter tensor grid ("equally distributed in
parameter space"), embeds it in the ambient space, and also produces a
noise-free reference sampled REF_DENSITY[kind] times denser per parameter
axis.  Generators are deterministic given their spec seed.

A dataset bundle on disk is the directory ``write_dataset`` fills and
``load_dataset_dir`` reads: P.csv, reference.csv and spec.json.  A reference
image is a clean binary raster, so its background is its zero pixels, and an
evaluated image is scored on the background of its nearest reference image.
No mask is stored.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .cloud import PointCloud, load_cloud, read_json, save_cloud, write_json
from .errors import CloudFormatError, ConfigError, check_fields, check_seed
from .metrics import erode_background
from .rng import Rng

KINDS = ("o2", "cone_segment", "cylinder2d", "cylinder6d", "ellipse_images", "grid_line")

_DEFAULT_AMBIENT = {
    "o2": 60,
    "cone_segment": 60,
    "cylinder2d": 60,
    "cylinder6d": 60,
    "ellipse_images": 400,
    "grid_line": 8,
}

# Per-axis multiplier for the reference grid.  The six-parameter cylinder
# gets a lower one because its reference size grows with the sixth power.
REF_DENSITY = {
    "o2": 3.0,
    "cone_segment": 3.0,
    "cylinder2d": 3.0,
    "cylinder6d": 2.0,
    "ellipse_images": 2.0,
    "grid_line": 3.0,
}

# Circle radius of the plane cylinder; no other kind has a radius.
CYLINDER2D_RADIUS = 1.5

IMAGE_SIDE = 20
ELLIPSE_GRID = 30
ELLIPSE_RADIUS_RANGE = (3.0, 8.0)


@dataclass
class DatasetSpec:
    """Declarative description of one generated dataset.

    noise is the kind's one noise magnitude: the half-width of the uniform
    per-coordinate noise on the geometric kinds, and the sigma of the
    per-pixel Gaussian noise on ellipse_images.
    """

    kind: str
    sample_count: int
    noise: float = 0.0
    ambient_dim: int | None = None
    seed: int = 0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigError(f"unknown dataset kind {self.kind!r}; choose from {KINDS}")
        if self.sample_count < 2:
            raise ConfigError("sample_count must be at least 2")
        if not 0 <= self.noise < math.inf:
            raise ConfigError(f"noise must be finite and non-negative, got {self.noise}")
        check_seed(self.seed)
        if self.ambient_dim is None:
            self.ambient_dim = _DEFAULT_AMBIENT[self.kind]
        min_dim = 7 if self.kind == "cylinder6d" else 4
        if self.kind == "ellipse_images":
            if self.ambient_dim != IMAGE_SIDE * IMAGE_SIDE:
                raise ConfigError("ellipse images are fixed at 20x20 pixels")
            if self.sample_count > ELLIPSE_GRID * ELLIPSE_GRID:
                raise ConfigError(
                    f"at most {ELLIPSE_GRID * ELLIPSE_GRID} ellipse samples available"
                )
        elif self.ambient_dim < min_dim:
            raise ConfigError(f"{self.kind} needs ambient_dim >= {min_dim}")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "DatasetSpec":
        check_fields(cls, d, "dataset setting")
        return cls(**d)

    @classmethod
    def from_json(cls, path) -> "DatasetSpec":
        """Read a bundle's spec.json; a file that is not JSON raises
        CloudFormatError naming the path, as other malformed bundle files do."""
        return cls.from_dict(read_json(path, CloudFormatError))


@dataclass
class Dataset:
    """Generated experiment inputs: noisy samples plus clean references.

    clean (the noise-free structure at the sample parameters) is populated by
    the generators but absent when a dataset is re-loaded from disk.
    """

    spec: DatasetSpec
    points: PointCloud
    reference: PointCloud
    clean: PointCloud | None = None

    @property
    def images(self) -> bool:
        """Whether the points are images, scored by their background SNR."""
        return self.spec.kind == "ellipse_images"


# ---------------------------------------------------------------------------
# parameter grids
# ---------------------------------------------------------------------------


def _axis_counts(target: int, axes: int) -> list[int]:
    """Per-axis sample counts whose product is the smallest value >= target.

    Two axes get an exact factorization when one exists near square; more
    axes use round-robin increments from the d-th root.
    """
    if axes == 2:
        best = None
        for a in range(1, int(math.isqrt(target)) + 2):
            b = -(-target // a)
            excess = a * b - target
            key = (excess, abs(a - b))
            if best is None or key < best[0]:
                best = (key, [a, b])
        return best[1]
    counts = [max(2, int(math.floor(target ** (1.0 / axes))))] * axes
    i = 0
    while math.prod(counts) < target:
        counts[i % axes] += 1
        i += 1
    return counts


def _tensor_grid(ranges: list[tuple[float, float]], target: int) -> np.ndarray:
    """Row-major tensor grid over the ranges, truncated to exactly target rows."""
    counts = _axis_counts(target, len(ranges))
    axes = [np.linspace(lo, hi, c) for (lo, hi), c in zip(ranges, counts)]
    mesh = np.meshgrid(*axes, indexing="ij")
    grid = np.stack([m.ravel() for m in mesh], axis=1)
    return grid[:target]


# ---------------------------------------------------------------------------
# generators (clean structures; noise is injected separately)
# ---------------------------------------------------------------------------


def _embed_rows(coords: np.ndarray, n: int) -> np.ndarray:
    out = np.zeros((coords.shape[0], n))
    out[:, : coords.shape[1]] = coords
    return out


def random_orthogonal(n: int, rng: Rng) -> np.ndarray:
    """Haar-ish orthogonal matrix: QR of a Gaussian with a fixed sign convention."""
    g = rng.standard_normal((n, n))
    q, r = np.linalg.qr(g)
    return q * np.sign(np.diag(r))


def _o2_embed(theta: np.ndarray, n: int) -> np.ndarray:
    coords = np.stack(
        [np.cos(theta), -np.sin(theta), np.sin(theta), np.cos(theta)], axis=1)
    return _embed_rows(coords, n)


def gen_o2(J: int, rng: Rng, n: int = 60):
    """Rotation-matrix circle: [cos t, -sin t, sin t, cos t, 0, ...] mixed by
    a random orthogonal map so the structure is spread over all coordinates.

    Returns (clean cloud, reference cloud).  The mixing map is
    ``random_orthogonal(n, rng)``, so the same stream rebuilds it.  The angle
    grid drops the endpoint because -pi and pi embed to the same matrix.
    """
    A = random_orthogonal(n, rng)
    theta = np.linspace(-np.pi, np.pi, J, endpoint=False)
    ref_count = int(math.ceil(J * REF_DENSITY["o2"]))
    theta_ref = np.linspace(-np.pi, np.pi, ref_count, endpoint=False)
    return PointCloud(_o2_embed(theta, n) @ A.T), PointCloud(_o2_embed(theta_ref, n) @ A.T)


def _cone_embed(params: np.ndarray, n: int) -> np.ndarray:
    t, big_r, u = params[:, 0], params[:, 1], params[:, 2]
    v1 = np.zeros(n); v1[:4] = 1.0
    v2 = np.zeros(n); v2[1], v2[2] = 1.0, -1.0
    v3 = np.zeros(n); v3[0], v3[3] = 1.0, -1.0
    radial = np.exp(-big_r ** 2) / math.sqrt(2.0)
    return (t[:, None] * v1
            + (radial * np.cos(u))[:, None] * v2
            + (radial * np.sin(u))[:, None] * v3)


def gen_cone_segment(J: int, n: int = 60):
    """Cone melting into a line segment: the radial factor exp(-R^2) makes the
    circular part collapse as R grows, so the structure changes dimension."""
    ranges = [(0.0, 2.0), (0.0, 2.5), (0.1 * np.pi, 1.5 * np.pi)]
    params = _tensor_grid(ranges, J)
    ref_params = _tensor_grid(ranges, int(math.ceil(J * REF_DENSITY["cone_segment"] ** 3)))
    return PointCloud(_cone_embed(params, n)), PointCloud(_cone_embed(ref_params, n))


def _cylinder2d_embed(params: np.ndarray, n: int, radius: float) -> np.ndarray:
    t, u = params[:, 0], params[:, 1]
    v1 = np.ones(n)
    v2 = np.zeros(n); v2[1], v2[2] = 1.0, -1.0
    v3 = np.zeros(n); v3[0], v3[3] = 1.0, -1.0
    scale = radius / math.sqrt(2.0)
    return (t[:, None] * v1
            + (scale * np.cos(u))[:, None] * v2
            + (scale * np.sin(u))[:, None] * v3)


def gen_cylinder2d(J: int, n: int = 60):
    """Open cylinder: a circle of radius CYLINDER2D_RADIUS swept along the
    all-ones direction, t in [0, 2], u in [0.1 pi, 1.5 pi]."""
    ranges = [(0.0, 2.0), (0.1 * np.pi, 1.5 * np.pi)]
    params = _tensor_grid(ranges, J)
    ref_params = _tensor_grid(ranges, int(math.ceil(J * REF_DENSITY["cylinder2d"] ** 2)))
    return (PointCloud(_cylinder2d_embed(params, n, CYLINDER2D_RADIUS)),
            PointCloud(_cylinder2d_embed(ref_params, n, CYLINDER2D_RADIUS)))


def sphere5_coords(u: np.ndarray, radius: float) -> np.ndarray:
    """Five-sphere coordinates in R^6 from 5 angles (last closes with sines);
    every row satisfies sum(x^2) == radius^2."""
    x = np.empty((u.shape[0], 6))
    running = np.full(u.shape[0], radius)
    for k in range(5):
        x[:, k] = running * np.cos(u[:, k])
        running = running * np.sin(u[:, k])
    x[:, 5] = running
    return x


def _cylinder6d_embed(params: np.ndarray, n: int) -> np.ndarray:
    # The cross-section is the unit five-sphere: a radius of 1.5 (or its
    # square) produces fill-distances several times larger than any value
    # the reconstruction is benchmarked against.
    t, u = params[:, 0], params[:, 1:]
    x = sphere5_coords(u, 1.0)
    v0 = np.zeros(n); v0[:7] = 1.0
    out = t[:, None] * v0
    out[:, :6] += x
    return out


def gen_cylinder6d(J: int, rng: Rng, ref_rng: Rng, n: int = 60):
    """Six-dimensional cylinder: a unit five-sphere cross-section swept along
    a direction with ones in the first seven slots.

    With six parameters a tensor grid at this budget is hopelessly coarse
    (3-4 samples per axis), so both the data and the reference are drawn
    uniformly at random in parameter space; the reference is
    REF_DENSITY["cylinder6d"]^6 times larger.  ``rng`` draws the data parameters and
    ``ref_rng`` the reference parameters.
    """
    ranges = [(0.0, 2.0)] + [(0.1 * np.pi, 0.6 * np.pi)] * 5
    lo = np.array([r[0] for r in ranges])
    hi = np.array([r[1] for r in ranges])
    params = lo + (hi - lo) * rng.random((J, 6))
    ref_count = int(math.ceil(J * REF_DENSITY["cylinder6d"] ** 6))
    ref_params = lo + (hi - lo) * ref_rng.random((ref_count, 6))
    return (PointCloud(_cylinder6d_embed(params, n)),
            PointCloud(_cylinder6d_embed(ref_params, n)))


def _ellipse_images(radii: np.ndarray) -> np.ndarray:
    """Binary 20x20 ellipse rasters, flattened row-major: a pixel is 1 when
    its centre passes ((col - c) / a)^2 + ((row - c) / b)^2 <= 1, with c the
    image centre and (a, b) the row of radii."""
    offsets = np.arange(IMAGE_SIDE) - (IMAGE_SIDE - 1) / 2.0
    across = (offsets / radii[:, :1]) ** 2
    down = (offsets / radii[:, 1:]) ** 2
    inside = across[:, None, :] + down[:, :, None] <= 1.0
    return inside.reshape(radii.shape[0], -1).astype(np.float64)


def _ellipse_radii_grid(per_axis: int) -> np.ndarray:
    lo, hi = ELLIPSE_RADIUS_RANGE
    a = np.linspace(lo, hi, per_axis)
    mesh = np.meshgrid(a, a, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def gen_ellipse_images(J: int):
    """Centered axis-aligned ellipses with radii on a uniform grid, flattened
    to R^400.  Returns (clean cloud, reference cloud), both binary rasters.
    ``make_dataset`` adds the spec's noise as per-pixel Gaussian noise of
    that sigma (``add_image_noise``)."""
    grid = _ellipse_radii_grid(ELLIPSE_GRID)
    if J > grid.shape[0]:
        raise ConfigError(f"at most {grid.shape[0]} ellipse samples available")
    take = (np.arange(J) * grid.shape[0]) // J
    radii = grid[take]
    ref_per_axis = int(math.ceil(ELLIPSE_GRID * REF_DENSITY["ellipse_images"]))
    ref_imgs = _ellipse_images(_ellipse_radii_grid(ref_per_axis))
    return PointCloud(_ellipse_images(radii)), PointCloud(ref_imgs)


def gen_grid_line(J: int, n: int):
    """Minimal one-dimensional structure: J equally spaced points on a fixed
    segment of length 2 along the normalized all-ones direction in R^n."""
    direction = np.ones(n) / math.sqrt(n)
    t = np.linspace(0.0, 2.0, J)
    t_ref = np.linspace(0.0, 2.0, int(math.ceil(J * REF_DENSITY["grid_line"])))
    return PointCloud(t[:, None] * direction), PointCloud(t_ref[:, None] * direction)


# ---------------------------------------------------------------------------
# noise injection and assembly
# ---------------------------------------------------------------------------


def add_uniform_noise(P: PointCloud, sigma: float, rng: Rng) -> PointCloud:
    """Perturb every coordinate independently by U(-sigma, sigma)."""
    if sigma < 0:
        raise ConfigError("noise magnitude must be non-negative")
    noisy = P.points + rng.uniform(-sigma, sigma, P.points.shape)
    return PointCloud(noisy)


def add_image_noise(P: PointCloud, sigma: float, rng: Rng) -> PointCloud:
    """Per-pixel Gaussian noise, clipped to the valid intensity range [0, 1]."""
    noisy = P.points + sigma * rng.standard_normal(P.points.shape)
    return PointCloud(np.clip(noisy, 0.0, 1.0))


def make_dataset(spec: DatasetSpec) -> Dataset:
    """Generate the full dataset bundle described by the spec.

    The spec's noise goes to ``add_image_noise`` as the pixel sigma for
    ellipse_images and to ``add_uniform_noise`` as the half-width for every
    other kind; noise 0 leaves the samples on the structure.
    """
    root = Rng(spec.seed)
    if spec.kind == "o2":
        clean, reference = gen_o2(spec.sample_count, root.stream("mixing"), n=spec.ambient_dim)
    elif spec.kind == "cone_segment":
        clean, reference = gen_cone_segment(spec.sample_count, n=spec.ambient_dim)
    elif spec.kind == "cylinder2d":
        clean, reference = gen_cylinder2d(spec.sample_count, n=spec.ambient_dim)
    elif spec.kind == "cylinder6d":
        clean, reference = gen_cylinder6d(
            spec.sample_count, root.stream("structure"), root.stream("reference"),
            n=spec.ambient_dim)
    elif spec.kind == "ellipse_images":
        clean, reference = gen_ellipse_images(spec.sample_count)
    elif spec.kind == "grid_line":
        clean, reference = gen_grid_line(spec.sample_count, spec.ambient_dim)
    else:  # pragma: no cover - spec validation rejects this earlier
        raise ConfigError(f"unknown dataset kind {spec.kind!r}")

    add_noise = add_image_noise if spec.kind == "ellipse_images" else add_uniform_noise
    noisy = add_noise(clean, spec.noise, root.stream("noise"))
    return Dataset(spec=spec, points=noisy, clean=clean, reference=reference)


# ---------------------------------------------------------------------------
# bundle layout shared by the gen / run / metrics commands
# ---------------------------------------------------------------------------


def write_dataset(ds: Dataset, out_dir) -> None:
    """Write a dataset bundle; a rerun of the same spec is byte-identical."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    save_cloud(ds.points, out / "P.csv")
    save_cloud(ds.reference, out / "reference.csv")
    write_json(out / "spec.json", ds.spec.to_dict())


def load_dataset_dir(path) -> Dataset:
    """Re-assemble a dataset bundle written by ``write_dataset``.

    A P.csv of one point or with another column count than spec.json's
    ambient_dim, a reference in another dimension than P.csv or with no
    extent to normalize errors by, and an image set's reference.csv that is
    not binary or has an image with fewer than 2 background pixels left
    after ``erode_background`` raise CloudFormatError naming the file.  The
    masks.csv and reference_masks.csv of earlier layouts are not read.
    """
    d = Path(path)
    spec = DatasetSpec.from_json(d / "spec.json")
    points = load_cloud(d / "P.csv")
    reference = load_cloud(d / "reference.csv")
    if points.size < 2:
        raise CloudFormatError(f"{d / 'P.csv'}: 1 point, a dataset needs at least 2")
    if points.ambient_dim != spec.ambient_dim:
        raise CloudFormatError(f"{d / 'P.csv'}: {points.ambient_dim} columns, spec.json "
                               f"has ambient_dim {spec.ambient_dim}")
    if reference.ambient_dim != points.ambient_dim:
        raise CloudFormatError(f"{d / 'reference.csv'}: {reference.ambient_dim} columns, "
                               f"P.csv has {points.ambient_dim}")
    if not np.ptp(reference.points, axis=0).any():
        raise CloudFormatError(f"{d / 'reference.csv'}: all points coincide, so the "
                               "reference has no diameter")
    ds = Dataset(spec=spec, points=points, reference=reference)
    if ds.images:
        if not np.isin(reference.points, (0.0, 1.0)).all():
            raise CloudFormatError(f"{d / 'reference.csv'}: pixels other than 0 and 1, but "
                                   "an image set's reference backgrounds are its zero pixels")
        thin = np.flatnonzero(erode_background(reference.points == 0.0).sum(axis=1) < 2)
        if thin.size:
            raise CloudFormatError(f"{d / 'reference.csv'}: image {thin[0]} has fewer than 2 "
                                   "background pixels after erosion")
    return ds
