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
    outs = [kernels.attraction_forces(Q, P, Qs, Ps, 1.3, 0.1, 2.0, threads=t)[0]
            for t in (1, 2, 4)]
    assert np.array_equal(outs[0], outs[1])
    assert np.array_equal(outs[0], outs[2])
    reps = [kernels.repulsion_forces(Q, Qs, 1.1, 3.0, 1e-12, threads=t)
            for t in (1, 2, 4)]
    for forces, nn, _ in reps[1:]:
        assert np.array_equal(reps[0][0], forces)
        assert np.array_equal(reps[0][1], nn)


@pytest.mark.parametrize("I", [130, 2])
@pytest.mark.parametrize("threads", [1, 2])
def test_repulsion_nn_dists_are_the_self_nn_scan(I, threads):
    # I = 130 spans three chunks; the distances come from the force blocks
    Q, _, Qs, _ = instance(7, I=I)
    _, nn, _ = kernels.repulsion_forces(Q, Qs, 1.1, 3.0, 1e-12, threads=threads)
    assert np.array_equal(nn, kernels.self_nn_dists(Qs))


@pytest.mark.parametrize("threads", [1, 2, 4])
def test_force_passes_price_the_cost_kernels_energy(threads):
    # I = 130 spans three chunks; the energy comes from the force blocks
    Q, P, Qs, Ps = instance(8, I=130)
    w = np.abs(np.random.default_rng(9).normal(size=130))
    _, e_att = kernels.attraction_forces(Q, P, Qs, Ps, 1.3, 0.1, 2.0, threads=threads)
    assert e_att == kernels.attraction_cost(Qs, Ps, 1.3, 0.1, 2.0, threads=threads)
    rep, nn, e_rep = kernels.repulsion_forces(Q, Qs, 1.1, 3.0, 1e-12, threads, weights=w)
    assert e_rep == kernels.repulsion_cost(Qs, w, 1.1, 3.0, 1e-12, threads=threads)
    bare_rep, bare_nn, bare_e = kernels.repulsion_forces(Q, Qs, 1.1, 3.0, 1e-12, threads)
    assert bare_e is None
    assert np.array_equal(bare_rep, rep) and np.array_equal(bare_nn, nn)


def test_cutoff_short_circuits():
    # two clusters far apart: with a small cutoff the far cluster contributes nothing
    Q = np.zeros((2, 3))
    Q[1] = 100.0
    P = np.vstack([np.eye(3) * 0.1, 100.0 + np.eye(3) * 0.1])
    out, _ = kernels.attraction_forces(Q, P, Q, P, 1.0, 0.1, cutoff=5.0)
    near_only, _ = kernels.attraction_forces(Q[:1], P[:3], Q[:1], P[:3], 1.0, 0.1, cutoff=5.0)
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


@pytest.mark.parametrize("threads", [1, 2])
def test_guard_and_nn_are_exact_far_from_the_origin(threads):
    # the GEMM form's error bound on a squared distance (about 1e-13 on these
    # rows once centred, 1e-10 at offset 50 without centring) dwarfs
    # delta_min^2 = 1e-18; the guard and the nearest-partner distances still
    # come from explicit differences
    Qs = 50.0 + np.random.default_rng(16).normal(size=(200, 5))
    Q = np.zeros((200, 3))
    step = np.array([2e-9, 0.0, 0.0, 0.0, 0.0])
    apart, same = Qs.copy(), Qs.copy()
    apart[150] = apart[10] + step
    apart[180] = apart[100] - step
    same[150] = same[10]
    same[30] = same[20]
    same[180] = same[100]
    for X in (Qs, apart):
        D = brute_sq_dists(X, X)
        np.fill_diagonal(D, np.inf)
        _, nn, _ = kernels.repulsion_forces(Q, X, 1.0, 10.0, 1e-9, threads=threads)
        assert np.array_equal(nn, np.sqrt(D.min(axis=1)))
    assert nn[10] == nn[150] and 1.9e-9 < nn[10] < 2.1e-9
    with pytest.raises(CoincidentPointsError, match="points 10 and 150 "):
        kernels.repulsion_forces(Q, same, 1.0, 10.0, 1e-9, threads=threads)


def test_min_dists_matches_brute_force():
    rng = np.random.default_rng(5)
    X = rng.normal(size=(40, 6))
    Y = rng.normal(size=(70, 6))
    out, idx = kernels.min_dists(X, Y)
    D = np.sqrt(((X[:, None, :] - Y[None, :, :]) ** 2).sum(-1))
    assert np.allclose(out, D.min(1), rtol=1e-9)
    assert np.array_equal(idx, D.argmin(1))


def test_min_dists_row_of_reference_is_exactly_zero():
    # far from the origin, where |x|^2 + |y|^2 - 2 x.y cancels badly
    rng = np.random.default_rng(8)
    X = 50.0 + rng.normal(size=(150, 20))
    S = np.linalg.qr(rng.normal(size=(20, 6)))[0]
    Xs = X @ S
    out, idx = kernels.min_dists(Xs, Xs)
    assert np.all(out == 0.0)
    assert np.array_equal(idx, np.arange(150))


def test_min_dists_thread_count_bitwise_invariance():
    rng = np.random.default_rng(9)
    X = rng.normal(size=(200, 6))
    Y = rng.normal(size=(300, 6))
    assert np.array_equal(kernels.min_dists(X, Y, threads=1)[0],
                          kernels.min_dists(X, Y, threads=2)[0])


def test_min_dists_near_tie_matches_brute_force():
    # each row has two reference points at distances 0.01 and 0.01 (1 + 1e-8);
    # the gap is far below the expanded form's rounding error at |x| ~ 1e3
    rng = np.random.default_rng(10)
    X = 1e3 + rng.normal(size=(100, 3))
    u, v = rng.normal(size=(2, 100, 3))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    Y = np.vstack([X + 0.01 * (1.0 + 1e-8) * u, X + 0.01 * v])
    out, _ = kernels.min_dists(X, Y)
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



def brute_sq_dists(X, Y):
    diff = X[:, None, :] - Y[None, :, :]
    return np.einsum("ijk,ijk->ij", diff, diff)


def near_tie_instance(seed=12):
    # as in test_min_dists_near_tie_matches_brute_force, plus exact ties:
    # rows 0-9 have two nearest reference points at the same distance 2^-10
    rng = np.random.default_rng(seed)
    X = 1e3 + rng.normal(size=(100, 3))
    u, v = rng.normal(size=(2, 100, 3))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    Y = np.vstack([X + 0.01 * (1.0 + 1e-8) * u, X + 0.01 * v])
    X[:10] = np.round(X[:10]) + 16.0 * np.arange(10)[:, None]
    Y[:10] = X[:10] + [2.0 ** -10, 0.0, 0.0]
    Y[100:110] = X[:10] - [2.0 ** -10, 0.0, 0.0]
    return X, Y


def antipodal_clusters(seed=15, count=50, size=4):
    rng = np.random.default_rng(seed)
    u = rng.normal(size=(count, 3))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    anti = [-u + 1e-10 * rng.normal(size=u.shape) for _ in range(size)]
    return 1e3 + np.vstack([u, *anti])


def test_screened_scans_match_brute_force_on_near_ties():
    X, Y = near_tie_instance()
    D2 = brute_sq_dists(X, Y)
    dist, idx = kernels.min_dists(X, Y)
    assert np.array_equal(dist, np.sqrt(D2.min(axis=1)))
    assert np.array_equal(idx, np.argmin(D2, axis=1))
    assert np.array_equal(idx[:10], np.arange(10))  # first index on exact ties
    # farthest rows: far from the origin, each point has a cluster of
    # antipodes whose distances differ by far less than the screen's error
    Z = antipodal_clusters()
    F = brute_sq_dists(Z, Z)
    assert np.array_equal(kernels.max_dists(Z, Z), np.sqrt(F.max(axis=1)))
    # radius pairs at the near-tie distances, where the screen cannot decide
    for radius in (2.0 ** -10, 0.01, 0.01 * (1.0 + 0.5e-8), 1.0):
        rows, cols = kernels.radius_pairs(X, Y, radius)
        r, c = np.nonzero(D2 < radius * radius)
        assert np.array_equal(rows, r) and np.array_equal(cols, c)


def test_screened_scans_thread_count_bitwise_invariance():
    rng = np.random.default_rng(13)
    X = rng.normal(size=(200, 6))
    Y = rng.normal(size=(300, 6))
    one, two = kernels.min_dists(X, Y, threads=1), kernels.min_dists(X, Y, threads=2)
    for a, b in zip(one, two):
        assert a.dtype == b.dtype and np.array_equal(a, b)


def test_screened_scans_empty_rows():
    Y = np.random.default_rng(14).normal(size=(5, 3))
    dist, idx = kernels.min_dists(np.empty((0, 3)), Y)
    assert dist.shape == idx.shape == (0,)
    assert kernels.max_dists(np.empty((0, 3)), Y).shape == (0,)
    rows, cols = kernels.radius_pairs(Y, Y, 1e-3)  # only the self pairs
    assert np.array_equal(rows, np.arange(5)) and np.array_equal(cols, np.arange(5))
