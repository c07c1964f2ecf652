import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from mlop.cli import main
from mlop.cloud import load_cloud, write_matrix
from mlop.datasets import KINDS, DatasetSpec, make_dataset
from mlop.experiments import EXPERIMENT_NAMES
from mlop.metrics import background_snr, erode_background
from mlop.sketch import load_sketch
from mlop.solver import SolverConfig


def read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


def gen_args(out, kind="grid_line", count=24, noise=0.05, seed=7, extra=()):
    return ["gen", "--kind", kind, "--count", str(count), "--noise", str(noise),
            "--seed", str(seed), "--out", str(out), *extra]


def run_config(tmp_path, dataset_dir, out_dir, **solver):
    cfg = {
        "dataset_dir": str(dataset_dir),
        "out_dir": str(out_dir),
        "solver": {"q_size": 8, "max_iters": 3, "sketch_dim": 3, "seed": 1, **solver},
    }
    path = tmp_path / "run.json"
    path.write_text(json.dumps(cfg))
    return path


def test_gen_writes_bundle_deterministically(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(gen_args(out1)) == 0
    assert main(gen_args(out2)) == 0
    for name in ("P.csv", "reference.csv", "spec.json"):
        assert read_bytes(out1 / name) == read_bytes(out2 / name)
    assert not (out1 / "masks.csv").exists()


def test_gen_unknown_kind_usage_error(tmp_path):
    with pytest.raises(SystemExit) as err:
        main(gen_args(tmp_path / "x", kind="moebius"))
    assert err.value.code == 2


@pytest.mark.parametrize("flag", ["--radius", "--gaussian-sigma", "--reference-density"])
def test_gen_retired_flag_usage_error(tmp_path, capsys, flag):
    with pytest.raises(SystemExit) as err:
        main(gen_args(tmp_path / "x", kind="cylinder2d", extra=(flag, "2")))
    assert err.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_gen_too_few_samples_config_error(tmp_path, capsys):
    assert main(gen_args(tmp_path / "x", count=1)) == 2
    assert "at least 2" in capsys.readouterr().err


# the quantities a report holds about the final cloud
FINAL_FIELDS = ("relative_error", "rmse", "max_rel_error", "variance", "fill_distance_final",
                "snr_final")


def rescore_matches_report(tmp_path, data, out) -> dict:
    """Re-score a run's Q_final with its sketch.csv; every final-cloud field
    of the run's report is reproduced exactly.  Returns the re-scored report."""
    rescored = tmp_path / "rescore.json"
    assert main(["metrics", "--dataset-dir", str(data), "--q", str(out / "Q_final.csv"),
                 "--sketch", str(out / "sketch.csv"), "--out", str(rescored)]) == 0
    report = json.loads((out / "report.json").read_text())
    r3 = json.loads(rescored.read_text())
    for key in FINAL_FIELDS:
        assert r3[key] == report[key], key
    return r3


def test_run_and_rescore(tmp_path):
    data = tmp_path / "data"
    main(gen_args(data))
    out = tmp_path / "out"
    assert main(["run", "--config", str(run_config(tmp_path, data, out))]) == 0
    for name in ("Q_final.csv", "trace.csv", "report.json", "sketch.csv", "errors.csv"):
        assert (out / name).exists()
    report = json.loads((out / "report.json").read_text())
    assert report["schema_version"] == 1
    assert report["max_iters_reached"] is True
    assert report["relative_error"] >= 0.0

    # re-run: identical report except wall-clock
    out2 = tmp_path / "out2"
    main(["run", "--config", str(run_config(tmp_path, data, out2))])
    r2 = json.loads((out2 / "report.json").read_text())
    for key in report:
        if key == "runtime_ms":
            continue
        assert report[key] == r2[key], key

    # re-score the saved reconstruction with the saved sketch
    assert rescore_matches_report(tmp_path, data, out)["max_rel_error"] is not None


def test_run_and_rescore_images(tmp_path):
    data = tmp_path / "data"
    assert main(gen_args(data, kind="ellipse_images", count=30)) == 0
    assert sorted(p.name for p in data.iterdir()) == ["P.csv", "reference.csv", "spec.json"]
    out = tmp_path / "out"
    assert main(["run", "--config", str(run_config(tmp_path, data, out))]) == 0
    assert rescore_matches_report(tmp_path, data, out)["snr_final"] is not None


@pytest.mark.parametrize("stored", ["clean", "all-zero"])
def test_bundle_with_stored_masks_scores_the_same(tmp_path, stored):
    """A bundle from the layout that also wrote masks.csv (the zero pixels of
    the clean images) runs and rescores as the bundle without it: the file
    is not read, so an all-zero masks.csv, which marks no background pixel,
    changes nothing either."""
    data = tmp_path / "data"
    assert main(gen_args(data, kind="ellipse_images", count=30)) == 0
    out = tmp_path / "out"
    assert main(["run", "--config", str(run_config(tmp_path, data, out))]) == 0
    clean = make_dataset(DatasetSpec.from_json(data / "spec.json")).clean.points
    masks = clean == 0.0 if stored == "clean" else np.zeros_like(clean)
    write_matrix(masks.astype(np.float64), data / "masks.csv")
    stale = tmp_path / "stale"
    assert main(["run", "--config", str(run_config(tmp_path, data, stale))]) == 0
    want, got = (json.loads((o / "report.json").read_text()) for o in (out, stale))
    assert want["snr_initial"] is not None and want["snr_final"] is not None
    for key in ("snr_initial", "snr_final"):
        assert got[key] == want[key], key
    assert rescore_matches_report(tmp_path, data, stale)["snr_final"] == want["snr_final"]


def test_bundle_with_stored_reference_masks_scores_the_same(tmp_path):
    """A bundle from the layout that also wrote reference_masks.csv still
    loads, and its run and rescore give bit for bit the snr_final that the
    stored masks give; the stale file is not read: cut short, it changes
    nothing."""
    data = tmp_path / "data"
    assert main(gen_args(data, kind="ellipse_images", count=30)) == 0
    reference = load_cloud(data / "reference.csv").points
    stale = data / "reference_masks.csv"
    write_matrix((reference == 0.0).astype(np.float64), stale)
    out = tmp_path / "out"
    assert main(["run", "--config", str(run_config(tmp_path, data, out))]) == 0

    # score Q_final the way that layout did: the stored mask of each image's
    # nearest reference image, by exact sketched distances
    S = load_sketch(out / "sketch.csv")
    q = load_cloud(out / "Q_final.csv").points
    nearest = np.argmin(oracles.sq_dists_block(S.project(q), S.project(reference)), axis=1)
    stored = load_cloud(stale).points == 1.0
    want = background_snr(q, erode_background(stored[nearest]))
    assert want is not None

    assert rescore_matches_report(tmp_path, data, out)["snr_final"] == want
    stale.write_text("".join(stale.read_text().splitlines(keepends=True)[:5]))
    assert rescore_matches_report(tmp_path, data, out)["snr_final"] == want


def test_metrics_fresh_sketch_is_the_runs_sketch(tmp_path, caplog):
    # noise-free grid_line in R^8 spans fewer than 4 directions; metrics
    # without --sketch falls back to the achieved rank as run does
    data = tmp_path / "data"
    assert main(gen_args(data, noise=0.0, extra=("--ambient-dim", "8"))) == 0
    out = tmp_path / "out"
    assert main(["run", "--config", str(run_config(tmp_path, data, out, sketch_dim=4))]) == 0
    with caplog.at_level("WARNING"):
        code = main(["metrics", "--dataset-dir", str(data), "--q", str(out / "Q_final.csv"),
                     "--sketch-dim", "4", "--seed", "1", "--out", str(tmp_path / "fresh.json")])
    assert code == 0
    assert "rebuilding at rank" in caplog.text
    rescored = rescore_matches_report(tmp_path, data, out)
    assert json.loads((tmp_path / "fresh.json").read_text()) == rescored


def test_run_zero_iterations_echoes_subsample(tmp_path):
    data = tmp_path / "data"
    main(gen_args(data))
    out = tmp_path / "out"
    main(["run", "--config", str(run_config(tmp_path, data, out, max_iters=0))])
    q = load_cloud(out / "Q_final.csv").points
    p = load_cloud(data / "P.csv").points
    rows = {tuple(row) for row in p}
    assert all(tuple(row) in rows for row in q)


def test_run_numerical_abort_exit_code(tmp_path, capsys):
    data = tmp_path / "bad"
    data.mkdir()
    coords = np.sort(np.concatenate([np.arange(10.0), [1e-12]]))
    pts = coords[:, None] * np.ones(4)
    with open(data / "P.csv", "w") as fh:
        for row in pts:
            fh.write(",".join(format(v, ".17g") for v in row) + "\n")
    with open(data / "reference.csv", "w") as fh:
        for row in pts:
            fh.write(",".join(format(v, ".17g") for v in row) + "\n")
    (data / "spec.json").write_text(json.dumps(
        {"kind": "grid_line", "sample_count": 11, "ambient_dim": 4, "seed": 0}))
    cfg = run_config(tmp_path, data, tmp_path / "out", q_size=11, sketch_dim=1)
    assert main(["run", "--config", str(cfg)]) == 3
    assert "iteration 0" in capsys.readouterr().err


def test_run_missing_dataset_io_error(tmp_path, capsys):
    cfg = run_config(tmp_path, tmp_path / "nope", tmp_path / "out")
    assert main(["run", "--config", str(cfg)]) == 4


@pytest.mark.parametrize("command", ["run", "metrics"])
def test_malformed_bundle_spec_io_error(tmp_path, capsys, command):
    data = tmp_path / "data"
    main(gen_args(data))
    (data / "spec.json").write_text("{bad")
    if command == "run":
        argv = ["run", "--config", str(run_config(tmp_path, data, tmp_path / "out"))]
    else:
        argv = ["metrics", "--dataset-dir", str(data), "--q", str(data / "P.csv"),
                "--out", str(tmp_path / "r.json")]
    assert main(argv) == 4
    err = capsys.readouterr().err
    assert "spec.json" in err and "not valid JSON" in err


@pytest.mark.parametrize("command", ["run", "metrics"])
def test_bundle_spec_with_retired_key_config_error(tmp_path, capsys, command):
    data = tmp_path / "data"
    main(gen_args(data))
    spec = json.loads((data / "spec.json").read_text())
    (data / "spec.json").write_text(json.dumps({**spec, "radius": 1.5}))
    if command == "run":
        argv = ["run", "--config", str(run_config(tmp_path, data, tmp_path / "out"))]
    else:
        argv = ["metrics", "--dataset-dir", str(data), "--q", str(data / "P.csv"),
                "--out", str(tmp_path / "r.json")]
    assert main(argv) == 2
    assert "'radius'" in capsys.readouterr().err


def test_metrics_missing_cloud_io_error(tmp_path):
    data = tmp_path / "data"
    main(gen_args(data))
    code = main(["metrics", "--dataset-dir", str(data), "--q", str(tmp_path / "no.csv"),
                 "--out", str(tmp_path / "r.json")])
    assert code == 4


def test_metrics_cloud_of_another_dimension_exits_2(tmp_path, capsys):
    data8, data9 = tmp_path / "data8", tmp_path / "data9"
    main(gen_args(data8))
    main(gen_args(data9, extra=("--ambient-dim", "9")))
    code = main(["metrics", "--dataset-dir", str(data8), "--q", str(data9 / "P.csv"),
                 "--out", str(tmp_path / "r.json")])
    assert code == 2
    assert "ambient dimension 9, the dataset has 8" in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()


def test_metrics_sketch_of_another_dimension_exits_2(tmp_path, capsys):
    data8, data60 = tmp_path / "data8", tmp_path / "data60"
    main(gen_args(data8))
    main(gen_args(data60, extra=("--ambient-dim", "60")))
    out = tmp_path / "out"
    assert main(["run", "--config", str(run_config(tmp_path, data60, out, max_iters=0))]) == 0
    code = main(["metrics", "--dataset-dir", str(data8), "--q", str(data8 / "P.csv"),
                 "--sketch", str(out / "sketch.csv"), "--out", str(tmp_path / "r.json")])
    assert code == 2
    assert "sketch expects ambient dimension 60, the dataset has 8" in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()


def test_reproduce_smoke(tmp_path):
    code = main(["reproduce", "cylinder2d", "--out", str(tmp_path), "--seed", "3",
                 "--override", "sample_count=64", "--override", "q_size=12",
                 "--override", "max_iters=3"])
    assert code == 0
    assert (tmp_path / "cylinder2d" / "summary.csv").exists()
    assert (tmp_path / "cylinder2d" / "report.json").exists()


@pytest.mark.parametrize("name", ["o2", "cone", "cylinder2d"])
def test_around_point_recipe_at_desk_scale_needs_no_centre(tmp_path, name):
    # the around-point recipes centre on the middle sample of whatever
    # sample count the run has
    code = main(["reproduce", name, "--out", str(tmp_path),
                 "--override", "sample_count=64", "--override", "q_size=12",
                 "--override", "max_iters=2"])
    assert code == 0
    report = json.loads((tmp_path / name / "report.json").read_text())
    assert report["config"]["solver"]["init"] == "around_point"
    assert "init_index" not in report["config"]["solver"]


def test_reproduce_rejects_bad_override(tmp_path):
    code = main(["reproduce", "cylinder2d", "--out", str(tmp_path),
                 "--override", "zap=1"])
    assert code == 2


def test_out_root_env(tmp_path, monkeypatch):
    monkeypatch.setenv("MLOP_OUT_ROOT", str(tmp_path / "rooted"))
    code = main(["reproduce", "cylinder2d", "--seed", "1",
                 "--override", "sample_count=64", "--override", "q_size=12",
                 "--override", "max_iters=2"])
    assert code == 0
    assert (tmp_path / "rooted" / "cylinder2d" / "summary.csv").exists()


@pytest.mark.parametrize("body", [b"0,1\n1,\xe9\n", b"0,1\n1,nan\n", b"0,1\n1,0#note\n",
                                  b"0,1\n1,1_0\n"],
                         ids=["non-ascii", "non-finite", "comment", "digit-separator"])
def test_bad_csv_cell_exits_4_naming_the_file(tmp_path, capsys, body):
    data = tmp_path / "data"
    main(gen_args(data))
    q = tmp_path / "q.csv"
    q.write_bytes(body)
    code = main(["metrics", "--dataset-dir", str(data), "--q", str(q),
                 "--out", str(tmp_path / "r.json")])
    assert code == 4
    assert f"{q}: row 2, column 2" in capsys.readouterr().err


@pytest.mark.parametrize("defect, named", [
    ("P", "P.csv: 1 point, a dataset needs at least 2"),
    ("reference", "reference.csv: 9 columns, P.csv has 8"),
    ("coincident", "reference.csv: all points coincide"),
    ("columns", "P.csv: 390 columns, spec.json has ambient_dim 400"),
    ("binary", "reference.csv: pixels other than 0 and 1"),
    ("background", "reference.csv: image 0 has fewer than 2 background pixels after "
                   "erosion"),
], ids=["one-point", "reference-columns", "coincident-reference", "spec-columns",
        "reference-not-binary", "reference-background"])
@pytest.mark.parametrize("command", ["run", "metrics"])
def test_bad_bundle_file_exits_4(tmp_path, capsys, defect, named, command):
    data = tmp_path / "data"
    if defect in ("columns", "binary", "background"):
        main(gen_args(data, kind="ellipse_images", count=20))
    else:
        main(gen_args(data))
    if defect == "binary":  # the background of every reference image lifted off 0
        text = (data / "reference.csv").read_text()
        (data / "reference.csv").write_text(text.replace("0,", "0.01,"))
    elif defect == "columns":  # both image files cut to their first 390 pixels
        for name in ("P.csv", "reference.csv"):
            lines = (data / name).read_text().splitlines()
            (data / name).write_text("".join(",".join(line.split(",")[:390]) + "\n"
                                             for line in lines))
    elif defect == "background":  # a reference image that is all foreground
        lines = (data / "reference.csv").read_text().splitlines(keepends=True)
        (data / "reference.csv").write_text(",".join(["1"] * 400) + "\n" + "".join(lines[1:]))
    elif defect == "reference":
        main(gen_args(tmp_path / "data9", extra=("--ambient-dim", "9")))
        (data / "reference.csv").write_bytes((tmp_path / "data9" / "reference.csv").read_bytes())
    elif defect == "coincident":
        (data / "reference.csv").write_text("0.5,1,0,0,0,0,0,0\n" * 3)
    else:  # keep the first row only
        path = data / "P.csv"
        path.write_text(path.read_text().splitlines(keepends=True)[0])
    if command == "run":
        argv = ["run", "--config", str(run_config(tmp_path, data, tmp_path / "out"))]
    else:
        argv = ["metrics", "--dataset-dir", str(data), "--q", str(data / "P.csv"),
                "--sketch-dim", "3", "--out", str(tmp_path / "r.json")]
    capsys.readouterr()
    assert main(argv) == 4
    assert f"{data}/{named}" in capsys.readouterr().err


def test_run_with_inline_dataset(tmp_path):
    cfg = {
        "out_dir": str(tmp_path / "out"),
        "dataset": {"kind": "grid_line", "sample_count": 24, "noise": 0.05,
                    "ambient_dim": 8, "seed": 7},
        "solver": {"q_size": 8, "max_iters": 3, "sketch_dim": 3, "seed": 1},
    }
    path = tmp_path / "inline.json"
    path.write_text(json.dumps(cfg))
    assert main(["run", "--config", str(path)]) == 0
    assert (tmp_path / "out" / "report.json").exists()


def test_run_config_requires_one_source(tmp_path):
    cfg = {"out_dir": str(tmp_path / "out"),
           "solver": {"q_size": 4, "max_iters": 1}}
    path = tmp_path / "none.json"
    path.write_text(json.dumps(cfg))
    assert main(["run", "--config", str(path)]) == 2


def test_sketch_dim_above_ambient_dim_config_error(tmp_path, capsys):
    # the default sketch_dim 10 on data in R^8, for run and for metrics
    cfg = {
        "out_dir": str(tmp_path / "out"),
        "dataset": {"kind": "grid_line", "sample_count": 24, "noise": 0.05,
                    "ambient_dim": 8, "seed": 7},
        "solver": {"q_size": 8, "max_iters": 3, "seed": 1},
    }
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(cfg))
    assert main(["run", "--config", str(path)]) == 2
    assert "[1, 8] for data in R^8, got 10" in capsys.readouterr().err
    data = tmp_path / "data"
    main(gen_args(data, extra=("--ambient-dim", "8")))
    assert main(["metrics", "--dataset-dir", str(data), "--q", str(data / "P.csv"),
                 "--out", str(tmp_path / "r.json")]) == 2


def test_bench_command_is_gone(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--n", "60"])
    assert exc.value.code == 2
    assert "invalid choice: 'bench'" in capsys.readouterr().err


def test_metrics_non_orthonormal_sketch_io_error(tmp_path, capsys):
    data = tmp_path / "data"
    main(gen_args(data))
    sketch = tmp_path / "sketch.csv"
    # 8 rows (the data's ambient dimension), columns 0 and 1 equal
    basis = np.zeros((8, 3))
    basis[0, 0] = basis[0, 1] = 1.0
    basis[1, 2] = 1.0
    sketch.write_text("".join(",".join(format(v, ".17g") for v in row) + "\n"
                              for row in basis))
    code = main(["metrics", "--dataset-dir", str(data), "--q", str(data / "P.csv"),
                 "--sketch", str(sketch), "--out", str(tmp_path / "r.json")])
    assert code == 4
    err = capsys.readouterr().err
    assert "not orthonormal" in err and "sketch.csv" in err
    assert not (tmp_path / "r.json").exists()


INLINE = {"kind": "grid_line", "sample_count": 24, "noise": 0.05, "ambient_dim": 8, "seed": 7}


@pytest.mark.parametrize("argv, named", [
    (["run", {"solver": {"q_size": 10, "descent_fieldx": "median"}}], "'descent_fieldx'"),
    (["run", {"solver": {"q_size": 10, "descent_field": "median"}}], "'descent_field'"),
    (["run", {"solver": {"q_size": 10}, "dataset": {**INLINE, "bogus": 1}}], "'bogus'"),
    (["run", {"solver": {"q_size": 10}, "dataset": {**INLINE, "radius": 1.5}}], "'radius'"),
    (["run", {"solver": {"q_size": 10}, "dataset": {**INLINE, "gaussian_sigma": 0.05}}],
     "'gaussian_sigma'"),
    (["run", {"solver": {"q_size": 10}, "dataset": {**INLINE, "reference_density": 3.0}}],
     "'reference_density'"),
    (["run", {"solver": {"q_size": 10, "step_clamp": 5}}], "'step_clamp'"),
    (["run", {"solver": {"q_size": 10, "init": "around_point", "init_index": 5}}],
     "'init_index'"),
    (["run", {"solver": {"q_size": 10}, "ouptut": "x"}], "'ouptut'"),
    (["run", {"solver": {"q_size": 10}, "out_dir": 5}], "'out_dir'"),
    (["run", "{bad"], "not valid JSON"),
    (["reproduce", "o2", "--override", "max_iters=abc"], "'max_iters'"),
    (["reproduce", "o2", "--override", "max_iters=1", "--override", "seed=3"], "--seed"),
    (["reproduce", "o2", "--override", "max_iters=1", "--override", "threads=2"],
     "--threads"),
    (["reproduce", "cylinder2d", "--override", "radius=2"], "'radius'"),
    (["reproduce", "noise-sweep", "--override", "sigmas=[0.1]"], "'sigmas'"),
    (["reproduce", "noise-sweep", "--override", "noise=0.3"], "'noise'"),
    (["reproduce", "pca-benchmark", "--override", "sigmas=[0.1]"], "'sigmas'"),
    (["reproduce", "cylinder2d", "--override", "init_index=408"], "'init_index'"),
], ids=["misspelt-key", "removed-key", "dataset-key", "dataset-radius",
        "dataset-gaussian-sigma", "dataset-reference-density", "step-clamp-scalar",
        "init-index", "run-key", "out-dir-type", "malformed-json", "override-type",
        "override-seed", "override-threads", "override-radius", "noise-sweep-sigmas",
        "noise-sweep-noise", "pca-sigmas", "override-init-index"])
def test_bad_config_exits_2_naming_the_key(tmp_path, capsys, argv, named):
    if argv[0] == "run":
        text = argv[1]
        if isinstance(text, dict):
            text = json.dumps({"out_dir": str(tmp_path / "out"), "dataset": INLINE, **text})
        path = tmp_path / "cfg.json"
        path.write_text(text)
        argv = ["run", "--config", str(path)]
    else:
        argv = [*argv, "--out", str(tmp_path)]
    assert main(argv) == 2
    assert named in capsys.readouterr().err


def test_reproduce_pca_benchmark_rejects_zero_bootstraps(tmp_path, capsys):
    code = main(["reproduce", "pca-benchmark", "--out", str(tmp_path), "--bootstraps", "0"])
    assert code == 2
    assert "bootstraps" in capsys.readouterr().err
    assert not (tmp_path / "pca_benchmark" / "summary.csv").exists()


@pytest.mark.parametrize("command", ["run", "o2", "pca-benchmark"])
def test_threads_below_one_exits_2(tmp_path, capsys, command):
    if command == "run":
        data = tmp_path / "data"
        main(gen_args(data))
        argv = ["run", "--config", str(run_config(tmp_path, data, tmp_path / "out")),
                "--threads", "0"]
    else:
        argv = ["reproduce", command, "--out", str(tmp_path), "--threads", "0",
                "--bootstraps", "1", "--override", "max_iters=1"]
    assert main(argv) == 2
    assert "threads" in capsys.readouterr().err
    assert not (tmp_path / "out" / "report.json").exists()


@pytest.mark.parametrize("seed", [-1, 2**64])
@pytest.mark.parametrize("command", ["gen", "run", "reproduce", "metrics"])
def test_seed_out_of_range_exits_2(tmp_path, capsys, command, seed):
    data = tmp_path / "data"
    if command == "gen":
        argv = gen_args(data, seed=seed)
    else:
        main(gen_args(data))
        argv = {
            "run": ["run", "--config", str(run_config(tmp_path, data, tmp_path / "out",
                                                      seed=seed))],
            "reproduce": ["reproduce", "o2", "--out", str(tmp_path), "--seed", str(seed)],
            "metrics": ["metrics", "--dataset-dir", str(data), "--q", str(data / "P.csv"),
                        "--sketch-dim", "3", "--seed", str(seed),
                        "--out", str(tmp_path / "r.json")],
        }[command]
    capsys.readouterr()
    assert main(argv) == 2
    assert "seed must be in [0, 2**64)" in capsys.readouterr().err


@pytest.mark.parametrize("noise", ["nan", "inf"])
def test_gen_non_finite_noise_exits_2(tmp_path, capsys, noise):
    assert main(gen_args(tmp_path / "d", noise=noise)) == 2
    assert "noise must be finite" in capsys.readouterr().err
    assert not (tmp_path / "d").exists()


def test_unreachable_support_exits_2(tmp_path, capsys):
    # one reconstruction point needs all five samples but the one it sits on
    data = tmp_path / "data"
    assert main(["gen", "--kind", "o2", "--count", "5", "--out", str(data)]) == 0
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"dataset_dir": str(data), "out_dir": str(tmp_path / "out"),
                                "solver": {"q_size": 1}}))
    assert main(["run", "--config", str(path)]) == 2
    assert "candidate neighbours" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["0", "1", "2", "817", "\"abc\""])
def test_pca_benchmark_subset_size_out_of_range_exits_2(tmp_path, capsys, value):
    code = main(["reproduce", "pca-benchmark", "--out", str(tmp_path), "--bootstraps", "1",
                 "--override", f"subset_size={value}"])
    assert code == 2
    assert "subset_size" in capsys.readouterr().err


# valid values outnumber the invalid ones, so most draws get past gen
SEEDS = st.sampled_from([0, 1, 3, 7, 2**64 - 1, -1, 2**64])
NOISES = st.sampled_from([0.0, 0.0, 0.05, 0.05, 5.0, -0.1, math.nan, math.inf])

# reproduce --override values per key: (valid, invalid), where the
# invalid ones give a negative, a bool, a float for an int or a string.
# Every run overrides sample_count, max_iters and q_size (subset_size for
# pca-benchmark) with valid values that keep it at desk scale, then up to
# two drawn keys, these included, with any of their values.
OVERRIDES = {
    "sample_count": ([17, 64], [2, -64, True, 64.0, "64"]),
    "max_iters": ([0, 1, 2], [-1, True, 2.0, "2"]),
    "q_size": ([1, 2, 12], [-3, False, 12.0, "12"]),
    "subset_size": ([3, 12], [2, -5, True, 12.0, "12"]),
    "kind": (["o2", "cylinder6d", "grid_line"], ["ellipse_images", "cube", 3]),
    "noise": ([0.0, 0.05, 1], [-0.1, True, "0.1"]),
    "ambient_dim": ([None, 8, 60], [400, 3, -1, True, 8.0, "8"]),
    "sketch_dim": ([1, 3], [0, -1, True, 3.0, "3", 61]),
    "init": (["random", "around_point"], ["midair", 1]),
    "init_index": ([], [0, 30, -1]),
    "seed": ([], [0, -1]),
    "threads": ([1, 2], [0, -1, True, 1.0, "1"]),
}
RECIPE_KEYS = [f.name for cls in (DatasetSpec, SolverConfig) for f in dataclasses.fields(cls)]


def check_reproduce_overrides(tmp, data):
    """reproduce with drawn --override values returns 0, 2, 3 or 4."""
    name = data.draw(st.sampled_from(EXPERIMENT_NAMES), "recipe")
    size = "subset_size" if name == "pca-benchmark" else "q_size"
    overrides = {key: data.draw(st.sampled_from(OVERRIDES[key][0]), key)
                 for key in ("sample_count", "max_iters", size)}
    keys = st.sampled_from(["init_index", "subset_size", *RECIPE_KEYS])
    for key in data.draw(st.lists(keys, max_size=2, unique=True), "drawn keys"):
        overrides[key] = data.draw(st.sampled_from(sum(OVERRIDES[key], [])), key)
    argv = ["reproduce", name, "--out", str(tmp / "reproduce"), "--bootstraps", "1"]
    for key, value in overrides.items():
        argv += ["--override", f"{key}={json.dumps(value)}"]
    assert main(argv) in (0, 2, 3, 4)


def corrupt_bundle(bundle, data):
    """Leave the bundle as gen wrote it, or spoil one of its CSV files: keep
    only its first row, add a column, or make one cell non-finite, not a
    number or not ASCII."""
    how = data.draw(st.sampled_from([None] * 6 + ["rows", "column", "cell"]), "corruption")
    if how is None:
        return
    path = data.draw(st.sampled_from(sorted(bundle.glob("*.csv"))), "corrupted file")
    lines = path.read_text().splitlines()
    if how == "rows":
        lines = lines[:1]
    elif how == "column":
        lines = [line + ",0" for line in lines]
    else:
        cell = data.draw(st.sampled_from(["nan", "-inf", "0#note", "\u00e9"]), "cell")
        lines[-1] = ",".join([cell, *lines[-1].split(",")[1:]])
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_cli_edges_exit_with_a_documented_code(tmp_path_factory, data):
    """reproduce --override, gen, and run and metrics on the bundle as
    written or with one file spoilt, on drawn edge inputs return 0, 2, 3 or
    4 and never raise.  Derandomized, so Tier-1 replays the same draws."""
    tmp = tmp_path_factory.mktemp("edge")
    check_reproduce_overrides(tmp, data)
    bundle, out = tmp / "data", tmp / "out"
    kind = data.draw(st.sampled_from(KINDS), "kind")
    count = data.draw(st.sampled_from([1, 2, 3, 5, 8, 17, 40]), "count")
    noise = data.draw(NOISES, "noise")
    dim = data.draw(st.sampled_from([None, None, None, 3, 4, 8]), "ambient_dim")
    extra = ("--ambient-dim", str(dim)) if dim is not None else ()
    code = main(gen_args(bundle, kind=kind, count=count, noise=noise,
                         seed=data.draw(SEEDS, "gen seed"), extra=extra))
    assert code in (0, 2)
    if code:
        return
    J, n = load_cloud(bundle / "P.csv").points.shape
    solver = {
        "q_size": data.draw(st.integers(1, J), "q_size"),
        "max_iters": data.draw(st.integers(0, 2), "max_iters"),
        "sketch_dim": data.draw(st.sampled_from([1, 3, n, 0, n + 1]), "sketch_dim"),
        "init": data.draw(st.sampled_from(["random", "around_point"]), "init"),
        "threads": data.draw(st.sampled_from([1, 2, 1, 2, 0, -1]), "threads"),
        "seed": data.draw(SEEDS, "run seed"),
    }
    corrupt_bundle(bundle, data)
    path = tmp / "run.json"
    path.write_text(json.dumps({"dataset_dir": str(bundle), "out_dir": str(out),
                                "solver": solver}))
    ran = main(["run", "--config", str(path)])
    assert ran in (0, 2, 3, 4)
    q = out / "Q_final.csv" if ran == 0 else bundle / "P.csv"
    argv = ["metrics", "--dataset-dir", str(bundle), "--q", str(q),
            "--out", str(tmp / "scores.json")]
    if ran == 0:
        assert main([*argv, "--sketch", str(out / "sketch.csv")]) in (0, 2, 3, 4)
    fresh = ["--sketch-dim", str(data.draw(st.sampled_from([1, 3, n, 0, n + 1]),
                                           "metrics sketch_dim")),
             "--seed", str(data.draw(SEEDS, "metrics seed"))]
    assert main([*argv, *fresh]) in (0, 2, 3, 4)
