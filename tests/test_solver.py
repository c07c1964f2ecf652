import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mlop.cloud import PointCloud
from mlop.datasets import DatasetSpec, gen_grid_line, make_dataset
from mlop.errors import CoincidentPointsError, ConfigError, NumericalAbortError
from mlop.experiments import run_experiment
from mlop.sketch import SketchMatrix
from mlop.solver import RunParams, SolverConfig, bb_steps, cost, init_lambda, run
from oracles import (attraction_coeff, bb_step, descended_field, eta, eta_abs_deriv,
                     gradient_at, h_eps_norm, median_pull_at, point_cost,
                     repulsion_coeff)

S8 = SketchMatrix(np.eye(8))
S2 = SketchMatrix(np.eye(2))

OPEN_PARAMS = RunParams(h1=1.5, h2=1.5, eps=0.1, cutoff1=math.inf,
                        cutoff2=math.inf, delta_min=1e-12)


def small_instance(seed, J=20, I=5, n=8):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(J, n)), rng.normal(size=(I, n))


# ---------------------------------------------------------------------------
# scalar reference operations (tests/oracles.py)
# ---------------------------------------------------------------------------


def test_h_eps_norm_values():
    assert h_eps_norm(np.zeros(2), 0.1, S2) == pytest.approx(math.sqrt(0.1))
    assert h_eps_norm([3.0, 0.0], 0.1, S2) == pytest.approx(math.sqrt(9.1))
    assert h_eps_norm([3.0, 0.0], 1e-14, S2) == pytest.approx(3.0)
    with pytest.raises(ValueError):
        h_eps_norm([1.0, 0.0], -0.1, S2)


def test_eta_values_and_guard():
    assert eta(1.0) == pytest.approx(1.0 / 3.0)
    assert eta_abs_deriv(1.0) == pytest.approx(1.0)
    assert eta(2.0) == pytest.approx(1.0 / 24.0)
    assert eta_abs_deriv(2.0) == pytest.approx(1.0 / 16.0)
    with pytest.raises(CoincidentPointsError):
        eta(1e-15)
    with pytest.raises(CoincidentPointsError):
        eta_abs_deriv(1e-15)


def test_attraction_coeff_values():
    q = np.zeros(2)
    # distance 1, eps 0, h1 1: w = e^-1, bracket = -1
    assert attraction_coeff(q, [1.0, 0.0], 1.0, 0.0, S2) == pytest.approx(-math.exp(-1))
    # smoothed distance exactly h1/sqrt(2): bracket vanishes
    d = math.sqrt(0.5 - 0.1)
    assert attraction_coeff(q, [d, 0.0], 1.0, 0.1, S2) == pytest.approx(0.0, abs=1e-12)
    # coincident pair, eps 0.1: weight uses the raw distance, bracket the smoothed one
    assert attraction_coeff(q, q, 1.0, 0.1, S2) == pytest.approx(0.8 / math.sqrt(0.1))
    assert attraction_coeff(q, [50.0, 0.0], 1.0, 0.1, S2, cutoff=5.0) == 0.0


def test_repulsion_coeff_values():
    q = np.zeros(2)
    assert repulsion_coeff(q, [1.0, 0.0], 1.0, S2) == pytest.approx(5.0 / 3.0 * math.exp(-1))
    assert repulsion_coeff(q, [10.0, 0.0], 1.0, S2, cutoff=2.83) == 0.0
    with pytest.raises(CoincidentPointsError):
        repulsion_coeff(q, q, 1.0, S2)


@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=1e-3, max_value=8.0), st.floats(min_value=0.05, max_value=10.0))
def test_repulsion_coeff_positive(ratio, h2):
    # distances are expressed relative to the support so the Gaussian weight
    # stays above the underflow threshold
    d = ratio * h2
    assert repulsion_coeff(np.zeros(2), [d, 0.0], h2, S2) > 0.0


# ---------------------------------------------------------------------------
# gradient and its oracle
# ---------------------------------------------------------------------------


def test_gradient_single_pair_is_zero():
    P = np.zeros((1, 8))
    Q = np.zeros((1, 8))
    g = gradient_at(0, Q, P, [0.0], OPEN_PARAMS, S8)
    assert np.allclose(g, 0.0)


def test_gradient_vanishes_by_symmetry():
    angles = np.linspace(0, 2 * np.pi, 8, endpoint=False)
    P = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    Q = np.vstack([[0.0, 0.0], P * 0.5])
    lam = -np.ones(Q.shape[0])
    g = gradient_at(0, Q, P, lam, OPEN_PARAMS, S2)
    assert np.abs(g).max() < 1e-12


def test_gradient_matches_finite_differences():
    """Independent oracle: central differences of the per-point energy."""
    rng = np.random.default_rng(11)
    P, Q = small_instance(11)
    lam = -np.abs(rng.normal(size=Q.shape[0]))
    step = 1e-6
    for i in range(Q.shape[0]):
        g = gradient_at(i, Q, P, lam, OPEN_PARAMS, S8)
        for c in range(Q.shape[1]):
            if abs(g[c]) < 1e-8:
                continue
            qp, qm = Q[i].copy(), Q[i].copy()
            qp[c] += step
            qm[c] -= step
            fd = (point_cost(i, qp, Q, P, lam[i], OPEN_PARAMS, S8)
                  - point_cost(i, qm, Q, P, lam[i], OPEN_PARAMS, S8)) / (2 * step)
            assert abs(fd - g[c]) / abs(g[c]) < 1e-5


@pytest.mark.parametrize("threads", [1, 2])
def test_descended_field_matches_median_pull_oracle(threads):
    # enough points for several kernel chunks, and finite cutoffs that drop
    # some pairs of each class; far from the origin the kernels' GEMM-form
    # distance blocks must not lose the accuracy of explicit differences
    rng = np.random.default_rng(12)
    P, Q = rng.normal(size=(150, 8)), rng.normal(size=(130, 8))
    S = SketchMatrix(np.linalg.qr(rng.normal(size=(8, 5)))[0])
    lam = -np.abs(np.random.default_rng(13).normal(size=Q.shape[0]))
    rp = RunParams(h1=1.2, h2=1.4, eps=0.1, cutoff1=2.5, cutoff2=3.0, delta_min=1e-12)
    for offset in (0.0, 1e3):
        field = descended_field(Q + offset, P + offset, lam, rp, S, threads=threads)
        for i in range(Q.shape[0]):
            ref = median_pull_at(i, Q + offset, P + offset, lam, rp, S)
            assert np.allclose(field[i], ref, rtol=1e-10, atol=1e-12), offset


def test_median_pull_is_gradient_of_frozen_weight_surrogate():
    """Independent oracle for the descended field: central differences of
    the per-point energy with its Gaussian weights frozen at the iterate."""
    rng = np.random.default_rng(18)
    P, Q = small_instance(18)
    lam = -np.abs(rng.normal(size=Q.shape[0]))
    step = 1e-6
    for i in range(Q.shape[0]):
        g = median_pull_at(i, Q, P, lam, OPEN_PARAMS, S8)
        for c in range(Q.shape[1]):
            qp, qm = Q[i].copy(), Q[i].copy()
            qp[c] += step
            qm[c] -= step
            fd = (point_cost(i, qp, Q, P, lam[i], OPEN_PARAMS, S8, frozen_at=Q[i])
                  - point_cost(i, qm, Q, P, lam[i], OPEN_PARAMS, S8, frozen_at=Q[i])) / (2 * step)
            assert abs(fd - g[c]) <= 1e-5 * max(abs(g[c]), 1e-3)


def test_median_pull_is_half_the_gradient_of_the_erfc_energy():
    """Independent oracle for the descended field: with lam = 0, identity
    sketch and no cutoff it is half the gradient of E_att = sum_j F(|q - p_j|^2),
    F(s) = -h1 sqrt(pi) e^(eps / h1^2) erfc(sqrt(s + eps) / h1), whose
    derivative F'(s) = e^(-s / h1^2) / sqrt(s + eps) is the coefficient w / H."""
    P, Q = small_instance(23)
    h1, eps = OPEN_PARAMS.h1, OPEN_PARAMS.eps
    scale = -h1 * math.sqrt(math.pi) * math.exp(eps / h1 ** 2)

    def e_att(q):
        return sum(scale * math.erfc(math.sqrt(float((q - p) @ (q - p)) + eps) / h1)
                   for p in P)

    step = 1e-5
    for i in range(Q.shape[0]):
        g = median_pull_at(i, Q, P, np.zeros(Q.shape[0]), OPEN_PARAMS, S8)
        for c in range(Q.shape[1]):
            qp, qm = Q[i].copy(), Q[i].copy()
            qp[c] += step
            qm[c] -= step
            fd = (e_att(qp) - e_att(qm)) / (2 * step)
            assert abs(fd / 2 - g[c]) <= 1e-8 * np.abs(g).max()


# ---------------------------------------------------------------------------
# balance weights
# ---------------------------------------------------------------------------


def test_init_lambda_ratio():
    attr = np.array([[3.0, 0.0], [0.0, 0.0], [1.0, 1.0]])
    rep = np.array([[3.0, 0.0], [2.0, 0.0], [0.0, 0.0]])
    lam = init_lambda(attr, rep, S2)
    assert lam[0] == pytest.approx(-1.0)
    assert lam[1] == 0.0          # zero attraction
    assert lam[2] == 0.0          # zero repulsion: warned fallback
    assert np.all(lam <= 0.0)


def test_init_lambda_warns_on_isolated(caplog):
    attr = np.ones((2, 2))
    rep = np.array([[1.0, 0.0], [0.0, 0.0]])
    with caplog.at_level("WARNING"):
        init_lambda(attr, rep, S2)
    assert "zero repulsion" in caplog.text


def test_balance_equality_at_init():
    P, Q = small_instance(14)
    rp = RunParams(h1=1.5, h2=1.5, eps=0.1, cutoff1=4.0, cutoff2=4.0, delta_min=1e-12)
    from mlop import kernels
    attr, _ = kernels.attraction_forces(Q, P, Q @ S8.s, P @ S8.s, rp.h1, rp.eps, rp.cutoff1)
    rep, _, _ = kernels.repulsion_forces(Q, Q @ S8.s, rp.h2, rp.cutoff2, rp.delta_min)
    lam = init_lambda(attr, rep, S8)
    an = np.linalg.norm(attr @ S8.s, axis=1)
    rn = np.linalg.norm(rep @ S8.s, axis=1)
    nz = rn > 0  # the balance property quantifies over points with both terms
    assert np.all(np.abs(an[nz] - np.abs(lam[nz]) * rn[nz]) < 1e-10 * (1 + an[nz]))


# ---------------------------------------------------------------------------
# step sizes
# ---------------------------------------------------------------------------


def test_bb_step_values():
    g = np.array([1.0, 2.0, -1.0])
    assert bb_step(g, g, 0.5) == pytest.approx(1.0)
    assert bb_step(2 * g, g, 0.5) == pytest.approx(2.0)
    assert bb_step(g, np.zeros(3), 0.5) == 0.5           # degenerate
    assert bb_step(-g, g, 0.5) == 0.5                    # non-positive raw
    assert bb_step(0.01 * g, g, 0.5, lo=0.1) == 0.1      # floored


def test_bb_steps_vectorized_matches_scalar():
    rng = np.random.default_rng(15)
    dq = rng.normal(size=(6, 4))
    dg = rng.normal(size=(6, 4))
    dg[2] = 0.0
    dq[4] = 1e-3 * dg[4]  # a positive quotient below the floor
    vec = bb_steps(dq, dg, 0.3, 0.01)
    assert vec[4] == 0.01
    for i in range(6):
        assert vec[i] == pytest.approx(bb_step(dq[i], dg[i], 0.3, 0.01))


# ---------------------------------------------------------------------------
# cost
# ---------------------------------------------------------------------------


def test_cost_single_term():
    P = np.zeros((1, 8))
    Q = np.zeros((1, 8))
    rp = RunParams(h1=1.0, h2=1.0, eps=0.1, cutoff1=3.0, cutoff2=3.0, delta_min=1e-12)
    assert cost(Q @ S8.s, P @ S8.s, rp, lam=np.zeros(1)) == pytest.approx(math.sqrt(0.1))


def test_cost_linear_in_lambda():
    P, Q = small_instance(16)
    rp = RunParams(h1=1.5, h2=1.5, eps=0.1, cutoff1=5.0, cutoff2=5.0, delta_min=1e-12)
    lam = -np.abs(np.random.default_rng(17).normal(size=Q.shape[0]))
    Qs, Ps = Q @ S8.s, P @ S8.s
    e1 = cost(Qs, Ps, rp, lam=np.zeros_like(lam))
    g1 = cost(Qs, Ps, rp, lam=lam)
    g2 = cost(Qs, Ps, rp, lam=2 * lam)
    assert g2 - e1 == pytest.approx(2 * (g1 - e1), rel=1e-10)


def test_cost_matches_per_point_energy():
    # G(Q) is the sum of the per-point energies of the oracle
    P, Q = small_instance(19)
    rp = RunParams(h1=1.5, h2=1.5, eps=0.1, cutoff1=2.5, cutoff2=3.0, delta_min=1e-12)
    lam = -np.abs(np.random.default_rng(20).normal(size=Q.shape[0]))
    total = sum(point_cost(i, Q[i], Q, P, lam[i], rp, S8) for i in range(Q.shape[0]))
    assert cost(Q @ S8.s, P @ S8.s, rp, lam) == pytest.approx(total, rel=1e-12)


def test_cost_rejects_coincident_points():
    Q = np.zeros((2, 8))
    rp = RunParams(h1=1.0, h2=1.0, eps=0.1, cutoff1=3.0, cutoff2=3.0, delta_min=1e-9)
    with pytest.raises(CoincidentPointsError):
        cost(Q @ S8.s, np.ones((3, 8)) @ S8.s, rp, lam=-np.ones(2))


# ---------------------------------------------------------------------------
# full runs
# ---------------------------------------------------------------------------


def test_run_noise_free_line_stays_on_line():
    line, _ = gen_grid_line(32, 8)
    cfg = SolverConfig(q_size=16, max_iters=60, seed=1, sketch_dim=8)
    res = run(line, cfg, sketch=S8)
    direction = np.ones(8) / math.sqrt(8)
    Q = res.q_final.points
    perp = Q - np.outer(Q @ direction, direction)
    assert np.abs(perp).max() < 1e-3 * res.supports.h0


def test_run_zero_iterations_echoes_subsample():
    line, _ = gen_grid_line(20, 8)
    cfg = SolverConfig(q_size=7, max_iters=0, seed=3, sketch_dim=8)
    res = run(line, cfg, sketch=S8)
    assert np.array_equal(res.q_final.points, line.points[res.q0_indices])
    assert res.trace == []
    assert not res.converged


def test_lambda_frozen_across_iterations():
    pts = PointCloud(np.random.default_rng(20).normal(size=(60, 8)))
    short = run(pts, SolverConfig(q_size=15, max_iters=1, seed=4, sketch_dim=8))
    long = run(pts, SolverConfig(q_size=15, max_iters=40, seed=4, sketch_dim=8))
    assert np.array_equal(short.lam, long.lam)
    assert np.all(long.lam <= 0.0)


def test_run_deterministic_and_thread_invariant():
    pts = PointCloud(np.random.default_rng(21).normal(size=(80, 10)))
    runs = [run(pts, SolverConfig(q_size=20, max_iters=8, seed=5, sketch_dim=6,
                                  threads=t)) for t in (1, 2, 4)]
    assert np.array_equal(runs[0].q_final.points, runs[1].q_final.points)
    assert np.array_equal(runs[0].q_final.points, runs[2].q_final.points)
    other = run(pts, SolverConfig(q_size=20, max_iters=8, seed=6, sketch_dim=6))
    assert not np.array_equal(runs[0].q_final.points, other.q_final.points)


def test_run_aborts_on_coincident_points():
    # a pair below the guard distance collides during the repulsion sweep
    coords = np.arange(11.0)
    coords[10] = 1e-12
    pts = PointCloud(np.sort(coords)[:, None] * np.ones(4))
    cfg = SolverConfig(q_size=11, max_iters=5, seed=0, sketch_dim=1)
    with pytest.raises(NumericalAbortError) as err:
        run(pts, cfg)
    assert err.value.iteration == 0


def test_run_validates_sizes():
    line, _ = gen_grid_line(10, 8)
    with pytest.raises(ConfigError, match="exceeds"):
        run(line, SolverConfig(q_size=11, max_iters=1, sketch_dim=8))


def test_around_point_init():
    # samples on a line in index order: the q_size nearest to the middle
    # sample J // 2 are it and its index neighbours
    for J, q0 in ((20, [9, 10, 11]), (21, [9, 10, 11]), (2, [0, 1])):
        pts = PointCloud(np.arange(float(J))[:, None] * np.ones(4))
        cfg = SolverConfig(q_size=len(q0), max_iters=0, seed=0, sketch_dim=4,
                           init="around_point")
        res = run(pts, cfg, sketch=SketchMatrix(np.eye(4)))
        assert res.q0_indices.tolist() == q0


def test_iterations_make_no_self_nn_scan(monkeypatch):
    # the trace's fill distance comes from the repulsion pass; the only
    # self-NN scans are the support estimate's
    from mlop import kernels
    pts = PointCloud(np.random.default_rng(22).normal(size=(60, 8)))
    calls = []
    scan = kernels.self_nn_dists

    def counted(*args, **kwargs):
        calls.append(1)
        return scan(*args, **kwargs)

    monkeypatch.setattr(kernels, "self_nn_dists", counted)
    counts = []
    for iters in (0, 5):
        calls.clear()
        res = run(pts, SolverConfig(q_size=15, max_iters=iters, seed=4, sketch_dim=8))
        counts.append(len(calls))
    assert len(res.trace) == 5
    assert counts[0] == counts[1] > 0
    q0s = pts.points[res.q0_indices] @ res.sketch.s
    assert res.trace[0].fill_distance_q == float(np.median(scan(q0s)))


def test_trace_cost_is_the_energy_of_each_iterate():
    # from iteration 1 on the trace's energy comes from the force passes;
    # it must equal cost() of the iterate bit for bit
    pts = PointCloud(np.random.default_rng(24).normal(size=(150, 8)))
    cfg = SolverConfig(q_size=70, max_iters=4, seed=2, sketch_dim=6, threads=2)
    res = run(pts, cfg)
    assert not res.converged and len(res.trace) == 4
    rp = RunParams.from_supports(res.supports)
    Ps = res.sketch.project(pts)
    for k in range(4):
        Qk = run(pts, dataclasses.replace(cfg, max_iters=k)).q_final.points
        assert res.trace[k].cost == cost(Qk @ res.sketch.s, Ps, rp, res.lam)


def test_trace_csv(tmp_path):
    ds = make_dataset(DatasetSpec(kind="grid_line", sample_count=20, ambient_dim=8))
    _, res = run_experiment(ds, SolverConfig(q_size=8, max_iters=4, seed=2, sketch_dim=8),
                            out_dir=tmp_path)
    lines = (tmp_path / "trace.csv").read_text().split("\n")
    assert lines[0] == "iter,max_grad_norm,cost,fill_distance_q,wall_ms"
    assert lines[-1] == "" and len(lines) == 6
    for rec, line in zip(res.trace, lines[1:]):
        assert line == (f"{rec.iter},{rec.max_grad_norm:.17g},{rec.cost:.17g},"
                        f"{rec.fill_distance_q:.17g},{rec.wall_ms:.3f}")


def test_config_validation_and_roundtrip():
    cfg = SolverConfig(q_size=5, max_iters=7, sketch_dim=3, seed=2, init="around_point",
                       threads=2)
    assert sorted(cfg.to_dict()) == ["init", "max_iters", "q_size", "seed", "sketch_dim",
                                     "threads"]
    back = SolverConfig.from_dict(cfg.to_dict())
    assert back == cfg
    with pytest.raises(ConfigError, match="'init_index'"):
        SolverConfig.from_dict({**cfg.to_dict(), "init_index": 2})
    for bad in ({"q_size": 0}, {"max_iters": -1}, {"sketch_dim": 0}, {"init": "midair"},
                {"threads": 0}, {"seed": -1}, {"seed": 2**64}):
        with pytest.raises(ConfigError):
            SolverConfig(**{"q_size": 1, **bad})
    # frozen: a changed setting goes through the checks again
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.threads = 0
    with pytest.raises(ConfigError, match="threads"):
        dataclasses.replace(cfg, threads=0)


@pytest.mark.parametrize("d, key", [
    ({"q_size": 5, "descent_field": "median"}, "descent_field"),
    ({"q_size": 5, "step_clamp": 5}, "step_clamp"),
    ({"q_size": 5, "max_iters": "abc"}, "max_iters"),
    ({"q_size": 5, "max_iters": 2.5}, "max_iters"),
    ({"max_iters": 5}, "q_size"),
    ({"q_size": True}, "q_size"),
    ([5], "mapping"),
    ({"q_size": 5, "eps_h": 0.1}, "eps_h"),
    ({"q_size": 5, "stop_tol": 1e-3}, "stop_tol"),
    ({"q_size": 5, "init_radius": 1.0}, "init_radius"),
    ({"q_size": 5, "step_clamp": [0.1, 2.0]}, "step_clamp"),
])
def test_config_from_dict_names_the_bad_key(d, key):
    with pytest.raises(ConfigError, match=key):
        SolverConfig.from_dict(d)
