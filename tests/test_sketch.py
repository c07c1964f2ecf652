import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mlop.cloud import PointCloud
from mlop.errors import ConfigError, DegenerateSketchError
from mlop.rng import Rng
from mlop.sketch import SketchMatrix, build_sketch, load_sketch, save_sketch, sketch_for_run
from oracles import sketched_dist, sketched_norm


def random_cloud(seed, J=50, n=60):
    return PointCloud(np.random.default_rng(seed).normal(size=(J, n)))


def test_columns_orthonormal():
    S = build_sketch(random_cloud(0), 10, Rng(0))
    gram = S.s.T @ S.s
    assert np.abs(gram - np.eye(10)).max() < 1e-10


def test_square_sketch_preserves_norms():
    P = random_cloud(1, J=80, n=12)
    S = build_sketch(P, 12, Rng(1))
    x = np.random.default_rng(2).normal(size=(200, 12))
    for v in x[:50]:
        assert abs(sketched_norm(S, v) - np.linalg.norm(v)) < 1e-8 * (1 + np.linalg.norm(v))


def test_rank_deficient_data_fails_loudly():
    # 50 points confined to a 2-plane through the origin in R^60
    rng = np.random.default_rng(3)
    basis = rng.normal(size=(2, 60))
    P = PointCloud(rng.normal(size=(50, 2)) @ basis)
    with pytest.raises(DegenerateSketchError) as err:
        build_sketch(P, 10, Rng(3))
    assert err.value.achieved == 2
    # retry at the achieved rank: distances between the points are preserved
    S = build_sketch(P, 2, Rng(3))
    pts = P.points
    for i in (0, 7, 21):
        for j in (3, 11, 40):
            full = np.linalg.norm(pts[i] - pts[j])
            assert abs(sketched_dist(S, pts[i], pts[j]) - full) < 1e-8 * (1 + full)


def test_sketch_for_run_falls_back_to_the_achieved_rank(caplog):
    rng = np.random.default_rng(3)
    P = PointCloud(rng.normal(size=(50, 2)) @ rng.normal(size=(2, 60)))
    # the first build finds rank 3 and the rebuild at 3 finds rank 2
    with caplog.at_level("WARNING"):
        S = sketch_for_run(P, 10, 3)
    assert "rebuilding at rank 2" in caplog.text
    assert np.array_equal(S.s, build_sketch(P, 2, Rng(3).stream("sketch")).s)
    full = random_cloud(4)
    assert np.array_equal(sketch_for_run(full, 10, 4).s,
                          build_sketch(full, 10, Rng(4).stream("sketch")).s)


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_sketch_for_run_rejects_a_seed_out_of_range(seed):
    with pytest.raises(ConfigError, match="seed"):
        sketch_for_run(random_cloud(5), 10, seed)


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_contraction(seed):
    S = build_sketch(random_cloud(11), 10, Rng(11))
    x = np.random.default_rng(seed).normal(size=60)
    assert sketched_norm(S, x) <= np.linalg.norm(x) + 1e-10


def test_exact_on_column_span():
    S = build_sketch(random_cloud(4), 10, Rng(4))
    rng = np.random.default_rng(5)
    for _ in range(20):
        x = S.s @ rng.normal(size=10)
        nx = np.linalg.norm(x)
        assert abs(sketched_norm(S, x) - nx) < 1e-8 * (1 + nx)


def test_norm_special_vectors():
    S = build_sketch(random_cloud(6), 5, Rng(6))
    assert sketched_norm(S, np.zeros(60)) == 0.0
    assert abs(sketched_norm(S, S.s[:, 0]) - 1.0) < 1e-10
    # a vector in the orthogonal complement of the span
    x = np.random.default_rng(7).normal(size=60)
    x -= S.s @ (S.s.T @ x)
    assert sketched_norm(S, x) < 1e-10 * (1 + np.linalg.norm(x))


def test_dist_symmetry_and_zero():
    S = build_sketch(random_cloud(8), 5, Rng(8))
    rng = np.random.default_rng(9)
    x, y = rng.normal(size=60), rng.normal(size=60)
    assert sketched_dist(S, x, y) == sketched_dist(S, y, x)
    assert sketched_dist(S, x, x) == 0.0


def test_dimension_mismatch():
    S = build_sketch(random_cloud(10), 5, Rng(10))
    with pytest.raises(ValueError, match="length"):
        sketched_norm(S, np.ones(59))
    with pytest.raises(ValueError, match="mismatch"):
        sketched_dist(S, np.ones(60), np.ones(59))


def test_determinism_under_seed():
    a = build_sketch(random_cloud(12), 10, Rng(99))
    b = build_sketch(random_cloud(12), 10, Rng(99))
    assert np.array_equal(a.s, b.s)
    c = build_sketch(random_cloud(12), 10, Rng(100))
    assert not np.array_equal(a.s, c.s)


def test_save_load_roundtrip(tmp_path):
    S = build_sketch(random_cloud(13), 7, Rng(13))
    save_sketch(S, tmp_path / "s.csv")
    back = load_sketch(tmp_path / "s.csv")
    assert np.array_equal(back.s, S.s)


def test_identity_sketch():
    S = SketchMatrix(np.eye(4))
    assert sketched_norm(S, [3.0, 0.0, 0.0, 4.0]) == 5.0


def test_crooked_basis_rejected():
    with pytest.raises(ValueError, match="orthonormal"):
        SketchMatrix(np.ones((4, 2)))


def test_fig3_ordering_scenario():
    """A, B close and C far in the plane, embedded into R^60 under heavy
    uniform noise: sketched distances keep the ordering in >= 95% of seeds."""
    hits = 0
    for seed in range(100):
        r = Rng(seed)
        base = np.zeros((3, 60))
        base[1, :2] = [0.2, 0.2]
        base[2, :2] = [2.0, 2.0]
        noisy = base + r.uniform(-0.2, 0.2, (3, 60))
        S = build_sketch(PointCloud(noisy), 2, r.stream("sketch"))
        if sketched_dist(S, noisy[0], noisy[1]) < sketched_dist(S, noisy[0], noisy[2]):
            hits += 1
    assert hits >= 95
