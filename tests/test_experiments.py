import dataclasses

import numpy as np
import pytest

from mlop import experiments, kernels, metrics, solver
from mlop.cloud import PointCloud, write_matrix
from mlop.datasets import Dataset, DatasetSpec, make_dataset
from mlop.sketch import SketchMatrix
from mlop.solver import SolverConfig


def counted(monkeypatch, counts, key, modules, name):
    """Replace ``name`` in every module of ``modules`` by one counting wrapper."""
    original = getattr(modules[0], name)

    def wrapper(*args, **kwargs):
        counts[key] += 1
        return original(*args, **kwargs)

    for mod in modules:
        monkeypatch.setattr(mod, name, wrapper)


@pytest.mark.parametrize("spec", [
    DatasetSpec(kind="cylinder2d", sample_count=64, noise=0.1, seed=3),
    DatasetSpec(kind="ellipse_images", sample_count=36, noise=0.05, seed=3),
], ids=["cylinder2d", "ellipse_images"])
def test_run_experiment_scores_each_quantity_once(tmp_path, monkeypatch, spec):
    ds = make_dataset(spec)
    # a random init, so the solver itself makes no nearest-row scan
    cfg = SolverConfig(q_size=12, max_iters=3, sketch_dim=4, seed=1, init="random")
    counts = {"scan": 0, "diameter": 0}
    # every nearest-row scan, whichever public function starts it
    scan = kernels._scan

    def counted_scan(chunk_fn, *args, **kwargs):
        counts["scan"] += chunk_fn is kernels._nearest_np
        return scan(chunk_fn, *args, **kwargs)

    monkeypatch.setattr(kernels, "_scan", counted_scan)
    counted(monkeypatch, counts, "diameter", [metrics, experiments], "sketched_diameter")
    report, result = experiments.run_experiment(ds, cfg, out_dir=tmp_path)
    # one nearest-reference scan for q0, one for Q_final, also for an image
    # set's backgrounds, and one diameter
    assert counts == {"scan": 2, "diameter": 1}
    monkeypatch.undo()

    S = result.sketch
    err = metrics.nearest_reference_errors(result.q_final, ds.reference, S)
    write_matrix(err.dists[:, None], tmp_path / "standalone.csv")
    assert (tmp_path / "errors.csv").read_bytes() == (tmp_path / "standalone.csv").read_bytes()
    assert report.relative_error == metrics.relative_error(result.q_final, ds.reference, S)
    assert report.rmse == err.rmse and report.variance == err.variance
    if ds.images:
        assert report.snr_final is not None


def test_score_cloud_snr_reads_the_first_tied_reference():
    """An image tied between two references whose backgrounds differ is
    scored on the background of the first of them in reference order."""
    a, b = np.zeros((2, 20, 20))
    a[3:8, 4:10] = 1.0
    b[11:17, 9:15] = 1.0
    a, b = a.ravel(), b.ravel()
    far = np.ones(400)
    far[:40] = 0.0
    # half-way between a and b, with noise only where they agree, so that
    # the two exact squared distances sum the same squares
    noise = np.random.default_rng(4).normal(0.0, 0.05, 400)
    x = ((a + b) / 2.0 + np.where(a == b, noise, 0.0))[None, :]
    assert np.einsum("i,i", x[0] - a, x[0] - a) == np.einsum("i,i", x[0] - b, x[0] - b)
    S = SketchMatrix(np.eye(400))
    spec = DatasetSpec(kind="ellipse_images", sample_count=2)
    snr = []
    for first, second in ((a, b), (b, a)):
        ref = np.stack([far, first, second])
        ds = Dataset(spec=spec, points=PointCloud(x), reference=PointCloud(ref))
        err, *_, got = experiments.score_cloud(PointCloud(x), ds, S,
                                               metrics.sketched_diameter(ref, S))
        assert err.nearest[0] == 1
        assert got == metrics.background_snr(x, metrics.erode_background([first == 0.0]))
        snr.append(got)
    assert snr[0] != snr[1]


def test_max_rel_error_divides_by_the_computed_diameter(tmp_path):
    ds = make_dataset(DatasetSpec(kind="cylinder6d", sample_count=300, noise=0.1, seed=0))
    cfg = SolverConfig(q_size=60, max_iters=3, seed=0)
    report, result = experiments.run_experiment(ds, cfg, tmp_path)
    S = result.sketch
    err = metrics.nearest_reference_errors(result.q_final, ds.reference, S)
    assert report.max_rel_error == err.max / metrics.sketched_diameter(ds.reference, S)


def test_scores_of_a_run_on_the_reference_are_zero():
    # a zero-iteration run on data that is its own reference: under the
    # identity sketch every nearest-reference distance is exactly 0
    ds = make_dataset(DatasetSpec(kind="grid_line", sample_count=24, ambient_dim=8, seed=2))
    ds = dataclasses.replace(ds, reference=ds.points)
    cfg = SolverConfig(q_size=8, max_iters=0, sketch_dim=8)
    result = solver.run(ds.points, cfg, sketch=SketchMatrix(np.eye(8)))
    report, err = experiments.score_run(ds, result, cfg, 0.0)
    assert np.all(err.dists == 0.0)
    assert report.relative_error == 0.0 and report.max_rel_error == 0.0
