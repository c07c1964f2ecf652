import numpy as np
import pytest

from mlop import kernels
from mlop.errors import CoincidentPointsError


def instance(seed=0, I=50, J=120, n=20, m=6):
    rng = np.random.default_rng(seed)
    Q = rng.normal(size=(I, n))
    P = rng.normal(size=(J, n))
    S = np.linalg.qr(rng.normal(size=(n, m)))[0]
    return Q, P, Q @ S, P @ S


def test_thread_count_bitwise_invariance():
    Q, P, Qs, Ps = instance(4, I=200)
    outs = [kernels.attraction_forces(Q, P, Qs, Ps, 1.3, 0.1, 2.0, threads=t)
            for t in (1, 2, 4)]
    assert np.array_equal(outs[0], outs[1])
    assert np.array_equal(outs[0], outs[2])
    reps = [kernels.repulsion_forces(Q, Qs, 1.1, 3.0, 1e-12, threads=t)
            for t in (1, 2, 4)]
    assert np.array_equal(reps[0], reps[1])
    assert np.array_equal(reps[0], reps[2])


def test_cutoff_short_circuits():
    # two clusters far apart: with a small cutoff the far cluster contributes nothing
    Q = np.zeros((2, 3))
    Q[1] = 100.0
    P = np.vstack([np.eye(3) * 0.1, 100.0 + np.eye(3) * 0.1])
    out = kernels.attraction_forces(Q, P, Q, P, 1.0, 0.1, cutoff=5.0)
    near_only = kernels.attraction_forces(Q[:1], P[:3], Q[:1], P[:3], 1.0, 0.1, cutoff=5.0)
    assert np.allclose(out[0], near_only[0])


def test_coincident_pair_detected():
    # coincident pairs in chunks 0 and 1 (and their partners in chunk 2): the
    # first pair in row order is reported, also when the chunks run on a pool
    Q = np.random.default_rng(11).normal(size=(200, 4))
    Q[150] = Q[10]
    Q[30] = Q[20]
    Q[180] = Q[100]
    for threads in (1, 2):
        with pytest.raises(CoincidentPointsError, match="points 10 and 150 "):
            kernels.repulsion_forces(Q, Q, 1.0, 10.0, 1e-9, threads=threads)
        with pytest.raises(CoincidentPointsError, match="points 10 and 150 "):
            kernels.repulsion_cost(Q, np.ones(200), 1.0, 10.0, 1e-9, threads=threads)


def test_min_dists_matches_brute_force():
    rng = np.random.default_rng(5)
    X = rng.normal(size=(40, 6))
    Y = rng.normal(size=(70, 6))
    out = kernels.min_dists(X, Y)
    brute = np.sqrt(((X[:, None, :] - Y[None, :, :]) ** 2).sum(-1)).min(1)
    assert np.allclose(out, brute, rtol=1e-9)


def test_min_dists_row_of_reference_is_exactly_zero():
    # far from the origin, where |x|^2 + |y|^2 - 2 x.y cancels badly
    rng = np.random.default_rng(8)
    X = 50.0 + rng.normal(size=(150, 20))
    S = np.linalg.qr(rng.normal(size=(20, 6)))[0]
    Xs = X @ S
    out = kernels.min_dists(Xs, Xs)
    assert np.all(out == 0.0)


def test_min_dists_thread_count_bitwise_invariance():
    rng = np.random.default_rng(9)
    X = rng.normal(size=(200, 6))
    Y = rng.normal(size=(300, 6))
    assert np.array_equal(kernels.min_dists(X, Y, threads=1),
                          kernels.min_dists(X, Y, threads=2))


def test_min_dists_near_tie_matches_brute_force():
    # each row has two reference points at distances 0.01 and 0.01 (1 + 1e-8);
    # the gap is far below the expanded form's rounding error at |x| ~ 1e3
    rng = np.random.default_rng(10)
    X = 1e3 + rng.normal(size=(100, 3))
    u, v = rng.normal(size=(2, 100, 3))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    Y = np.vstack([X + 0.01 * (1.0 + 1e-8) * u, X + 0.01 * v])
    out = kernels.min_dists(X, Y)
    brute = np.sqrt(((X[:, None, :] - Y[None, :, :]) ** 2).sum(-1)).min(1)
    assert np.allclose(out, brute, rtol=1e-12, atol=0.0)


def test_self_nn_matches_brute_force():
    rng = np.random.default_rng(6)
    X = rng.normal(size=(50, 4))
    out = kernels.self_nn_dists(X)
    D = np.sqrt(((X[:, None, :] - X[None, :, :]) ** 2).sum(-1))
    np.fill_diagonal(D, np.inf)
    assert np.allclose(out, D.min(1), rtol=1e-9)


def test_pairwise_dists_exact_on_integer_grid():
    X = np.arange(5.0)[:, None]
    D = kernels.pairwise_dists(X, X)
    assert D[0, 4] == 4.0
    assert D[1, 3] == 2.0

