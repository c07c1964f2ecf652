import pytest

from mlop import experiments, kernels, metrics
from mlop.cloud import write_matrix
from mlop.datasets import DatasetSpec, make_dataset
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
    DatasetSpec(kind="ellipse_images", sample_count=36, gaussian_sigma=0.05, seed=3),
], ids=["cylinder2d", "ellipse_images"])
def test_run_experiment_scores_each_quantity_once(tmp_path, monkeypatch, spec):
    ds = make_dataset(spec)
    # a random init, so the solver itself makes no nearest-row scan
    cfg = SolverConfig(q_size=12, max_iters=3, sketch_dim=4, seed=1, init="random")
    counts = {"scan": 0, "diameter": 0}
    counted(monkeypatch, counts, "scan", [kernels], "min_dists")
    counted(monkeypatch, counts, "diameter", [metrics, experiments], "sketched_diameter")
    report, result = experiments.run_experiment(ds, cfg, out_dir=tmp_path)
    # one nearest-reference scan for q0, one for Q_final, one diameter
    assert counts == {"scan": 2, "diameter": 1}
    monkeypatch.undo()

    S = result.sketch
    err = metrics.nearest_reference_errors(result.q_final, ds.reference, S)
    write_matrix(err.dists[:, None], tmp_path / "standalone.csv")
    assert (tmp_path / "errors.csv").read_bytes() == (tmp_path / "standalone.csv").read_bytes()
    assert report.relative_error == metrics.relative_error(result.q_final, ds.reference, S)
    assert report.rmse == err.rmse and report.variance == err.variance
    if ds.masks is not None:
        assert report.snr_final is not None
