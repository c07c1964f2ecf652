"""Experiment orchestration: dataset -> solver -> metrics -> report files.

Also hosts the canned experiment recipes behind the ``reproduce`` command:
each recipe wires a synthetic dataset at its full benchmark scale through
the solver and writes a summary table of the headline quantities.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, astuple, dataclass, field, fields
from pathlib import Path

import numpy as np

from . import solver as solver_mod
from .cloud import PointCloud, save_cloud, write_matrix, write_table
from .datasets import Dataset, DatasetSpec, make_dataset
from .errors import ConfigError, check_fields
from .metrics import (NearestErrors, background_snr, erode_background,
                      local_pca_angle_error, nearest_reference_errors, relative_error,
                      sketched_diameter)
from .neighborhood import fill_distance
from .rng import Rng
from .sketch import SketchMatrix, save_sketch
from .solver import SolverConfig, SolverResult, TraceRecord

REPORT_SCHEMA_VERSION = 1


@dataclass
class ExperimentConfig:
    """One-file description of a run: where the data comes from (either a
    directory written by ``gen`` or an inline dataset spec to generate on
    the fly), the solver settings, and where artifacts go."""

    solver: SolverConfig
    out_dir: str
    dataset_dir: str | None = None
    dataset: DatasetSpec | None = None

    def __post_init__(self):
        if (self.dataset_dir is None) == (self.dataset is None):
            raise ConfigError("provide exactly one of dataset_dir / dataset")

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        check_fields(cls, d, "run setting")
        return cls(
            solver=SolverConfig.from_dict(d["solver"]),
            out_dir=d["out_dir"],
            dataset_dir=d.get("dataset_dir"),
            dataset=DatasetSpec.from_dict(d["dataset"]) if "dataset" in d else None,
        )

    @classmethod
    def from_json(cls, path) -> "ExperimentConfig":
        with open(path) as fh:
            try:
                d = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"{path}: not valid JSON ({exc})") from exc
        return cls.from_dict(d)

# Radius multiplier for local-PCA neighbourhoods: the tangent estimate
# needs a few rings of neighbours around each point.
PCA_RADIUS_MULT = 4.0


@dataclass
class ExperimentReport:
    """Flat record of everything a run is scored on."""

    kind: str
    relative_error: float | None = None
    relative_error_initial: float | None = None
    rmse: float | None = None
    rmse_initial: float | None = None
    max_rel_error: float | None = None
    variance: float | None = None
    fill_distance_initial: float | None = None
    fill_distance_final: float | None = None
    snr_initial: float | None = None
    snr_final: float | None = None
    pca_angle_deg: float | None = None
    runtime_ms: float = 0.0
    iterations_run: int = 0
    converged: bool = False
    max_iters_reached: bool = False
    supports: dict = field(default_factory=dict)
    config: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        d = asdict(self)
        d["schema_version"] = REPORT_SCHEMA_VERSION
        return d

    def save(self, path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")


def score_cloud(cloud: PointCloud, ds: Dataset, S: SketchMatrix, diameter: float,
                threads: int = 1) -> tuple:
    """Score one cloud against ``ds.reference`` with one nearest-reference scan.

    ``diameter`` is ``sketched_diameter(ds.reference, S)``.  Returns
    (nearest errors, relative_error, max_rel_error, fill distance, SNR); the
    fill distance is None below 2 points, and the SNR is None unless the
    dataset holds images.  An image's background is the eroded zero pixels
    of its nearest reference image, from the same scan as the errors.
    """
    err = nearest_reference_errors(cloud, ds.reference, S, threads=threads)
    snr = None
    if ds.images:
        snr = background_snr(cloud, erode_background(ds.reference.points[err.nearest] == 0.0))
    rel = relative_error(cloud, ds.reference, S, errors=err, diameter=diameter)
    fill = fill_distance(cloud, S) if cloud.size >= 2 else None
    return err, rel, float(err.max / diameter), fill, snr


def score_run(ds: Dataset, result: SolverResult, config: SolverConfig,
              runtime_ms: float) -> tuple[ExperimentReport, NearestErrors]:
    """Compute the metric bundle for a finished run.

    Scores q0 and Q_final with ``score_cloud`` against one reference
    diameter; returns the report and the Q_final errors, whose per-point
    distances ``run_experiment`` writes to errors.csv.
    """
    S = result.sketch
    q0 = ds.points.subset(result.q0_indices)
    diameter = sketched_diameter(ds.reference, S)
    err0, rel0, _, fill0, snr0 = score_cloud(q0, ds, S, diameter, config.threads)
    err1, rel1, max_rel1, fill1, snr1 = score_cloud(result.q_final, ds, S, diameter,
                                                    threads=config.threads)
    report = ExperimentReport(
        kind=ds.spec.kind,
        relative_error=rel1,
        relative_error_initial=rel0,
        rmse=err1.rmse,
        rmse_initial=err0.rmse,
        max_rel_error=max_rel1,
        variance=err1.variance,
        fill_distance_initial=fill0,
        fill_distance_final=fill1,
        snr_initial=snr0,
        snr_final=snr1,
        runtime_ms=runtime_ms,
        iterations_run=result.iterations_run,
        converged=result.converged,
        max_iters_reached=(not result.converged and result.iterations_run >= config.max_iters),
        supports=result.supports.to_dict(),
        config={"dataset": ds.spec.to_dict(), "solver": config.to_dict()},
    )
    return report, err1


def run_experiment(ds: Dataset, config: SolverConfig,
                   out_dir) -> tuple[ExperimentReport, SolverResult]:
    """Run the solver on a dataset, score it and write the run's files to out_dir."""
    t0 = time.perf_counter()
    result = solver_mod.run(ds.points, config)
    runtime_ms = (time.perf_counter() - t0) * 1e3
    report, err1 = score_run(ds, result, config, runtime_ms)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    save_cloud(result.q_final, out / "Q_final.csv")
    write_table(out / "trace.csv", [f.name for f in fields(TraceRecord)],
                [[*astuple(rec)[:-1], format(rec.wall_ms, ".3f")]
                 for rec in result.trace])
    save_sketch(result.sketch, out / "sketch.csv")
    report.save(out / "report.json")
    # per-point nearest-reference distances, plot-ready
    write_matrix(err1.dists[:, None], out / "errors.csv")
    return report, result


# ---------------------------------------------------------------------------
# canned reproductions
# ---------------------------------------------------------------------------

NOISE_SWEEP_SIGMAS = (0.0, 0.1, 0.2, 0.5)
PCA_SIGMAS = (0.1, 0.2)


# The single-run recipes of ``reproduce``: each dataset at its benchmark
# scale and its solver settings.  ``reproduce`` sets the seed and thread
# count of both; the noise sweep runs the cylinder2d row at each of its
# noise levels.
RECIPES = {
    "o2": (DatasetSpec(kind="o2", sample_count=500, noise=0.2),
           SolverConfig(q_size=50, max_iters=500, init="around_point")),
    "cone": (DatasetSpec(kind="cone_segment", sample_count=720, noise=0.2),
             SolverConfig(q_size=144, max_iters=500, init="around_point")),
    "cylinder2d": (DatasetSpec(kind="cylinder2d", sample_count=816, noise=0.1),
                   SolverConfig(q_size=163, max_iters=500, init="around_point")),
    "cylinder6d": (DatasetSpec(kind="cylinder6d", sample_count=1200, noise=0.1),
                   SolverConfig(q_size=460, max_iters=300, init="random")),
    "ellipses": (DatasetSpec(kind="ellipse_images", sample_count=900, noise=0.05),
                 SolverConfig(q_size=180, max_iters=1000, init="random")),
}
EXPERIMENT_NAMES = (*RECIPES, "noise-sweep", "pca-benchmark")


def _recipe_run(name: str, seed: int, threads: int,
                overrides: dict) -> tuple[DatasetSpec, SolverConfig]:
    """The dataset spec and solver config of recipe ``name`` at the given
    seed and thread count, with each override set on the field it names."""
    spec, cfg = RECIPES[name]
    sd = dict(spec.to_dict(), seed=seed)
    cd = dict(cfg.to_dict(), seed=seed, threads=threads)
    for key, value in overrides.items():
        if key in sd:
            sd[key] = value
        elif key in cd:
            cd[key] = value
        else:
            raise ConfigError(f"unknown override {key!r}")
    return DatasetSpec.from_dict(sd), SolverConfig.from_dict(cd)


def reproduce(name: str, out_root, seed: int = 0, threads: int = 1,
              overrides: dict | None = None, bootstraps: int = 10) -> dict:
    """Run one canned experiment bundle; returns the summary mapping.

    overrides may adjust any DatasetSpec / SolverConfig field by name
    (used for desk-scale smoke runs), except seed and threads: seed names
    both a dataset and a solver field, and the arguments set both.  The
    noise-sweep recipe sets noise itself and rejects an override of it.
    """
    if name not in EXPERIMENT_NAMES:
        raise ConfigError(f"unknown experiment {name!r}; choose from {EXPERIMENT_NAMES}")
    overrides = dict(overrides or {})
    for key in ("seed", "threads"):
        if key in overrides:
            raise ConfigError(f"override {key!r} is not supported; use --{key}")
    out = Path(out_root) / name.replace("-", "_")
    out.mkdir(parents=True, exist_ok=True)

    if name == "noise-sweep":
        return _reproduce_noise_sweep(out, seed, threads, overrides)
    if name == "pca-benchmark":
        return _reproduce_pca_benchmark(out, seed, threads, overrides, bootstraps)

    spec, cfg = _recipe_run(name, seed, threads, overrides)
    ds = make_dataset(spec)
    report, _ = run_experiment(ds, cfg, out_dir=out)
    header = ["kind", "noise", "relative_error", "rmse_initial", "rmse_final",
              "fill_initial", "fill_final"]
    row = [spec.kind, float(spec.noise), report.relative_error, report.rmse_initial,
           report.rmse, report.fill_distance_initial, report.fill_distance_final]
    if report.snr_initial is not None:
        header += ["snr_initial", "snr_final"]
        row += [report.snr_initial, report.snr_final]
    write_table(out / "summary.csv", header, [row])
    return {"report": report.to_dict()}


def _reproduce_noise_sweep(out: Path, seed: int, threads: int, overrides: dict) -> dict:
    if "noise" in overrides:
        raise ConfigError("override 'noise' is not supported; noise-sweep sets it "
                          f"to each of {NOISE_SWEEP_SIGMAS}")
    rows = []
    reports = {}
    for sigma in NOISE_SWEEP_SIGMAS:
        spec, cfg = _recipe_run("cylinder2d", seed, threads,
                                dict(overrides, noise=float(sigma)))
        ds = make_dataset(spec)
        report, _ = run_experiment(ds, cfg, out_dir=out / f"sigma_{sigma:g}")
        rows.append([float(sigma), report.relative_error])
        reports[f"{sigma:g}"] = report.to_dict()
    write_table(out / "summary.csv", ["sigma", "relative_error"], rows)
    return {"sweep": rows, "reports": reports}


def _pca_error_of(points: PointCloud, reference: PointCloud, S: SketchMatrix) -> float:
    h = PCA_RADIUS_MULT * fill_distance(points, S)
    return local_pca_angle_error(points, reference, h, S).median_deg


def pca_benchmark(seed: int = 0, threads: int = 1, bootstraps: int = 10,
                  subset_size: int = 160, sample_count: int = 816,
                  max_iters: int = 500) -> dict:
    """Local-PCA tangent accuracy on five dataset families, all of the
    subset size: clean random samples, noisy samples at the two levels of
    PCA_SIGMAS, and the reconstructions denoised from those same noisy
    samples.

    Each bootstrap draws a fresh subset; the denoised set is produced by
    running the solver on that subset with q_size equal to its size.
    Returns {sigma: {clean_random, noisy, denoised}} of medians over
    bootstraps.
    """
    if bootstraps < 1:
        raise ConfigError(f"bootstraps must be at least 1, got {bootstraps}")
    if not 3 <= subset_size <= sample_count:
        # local PCA needs two neighbours besides the point itself
        raise ConfigError(f"subset_size must be in [3, sample_count={sample_count}], "
                          f"got {subset_size}")
    summary: dict = {}
    for sigma in PCA_SIGMAS:
        spec = DatasetSpec(kind="cylinder2d", sample_count=sample_count,
                           noise=float(sigma), seed=seed)
        ds = make_dataset(spec)
        boot = Rng(seed).stream("bootstrap")
        clean_meds, noisy_meds, den_meds = [], [], []
        for b in range(bootstraps):
            idx = boot.subsample(ds.points.size, subset_size)
            sub_noisy = ds.points.subset(idx)
            cfg = SolverConfig(q_size=subset_size, max_iters=max_iters,
                               seed=seed + b, init="random", threads=threads)
            result = solver_mod.run(sub_noisy, cfg)
            S = result.sketch
            clean_meds.append(_pca_error_of(ds.clean.subset(idx), ds.reference, S))
            noisy_meds.append(_pca_error_of(sub_noisy, ds.reference, S))
            den_meds.append(_pca_error_of(result.q_final, ds.reference, S))
        summary[f"{sigma:g}"] = {
            "clean_random": float(np.median(clean_meds)),
            "noisy": float(np.median(noisy_meds)),
            "denoised": float(np.median(den_meds)),
        }
    return summary


def _reproduce_pca_benchmark(out: Path, seed: int, threads: int, overrides: dict,
                             bootstraps: int) -> dict:
    kwargs = {}
    for key in ("subset_size", "sample_count", "max_iters"):
        if key in overrides:
            value = kwargs[key] = overrides.pop(key)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ConfigError(f"override {key!r} must be an integer, got {value!r}")
    if overrides:
        raise ConfigError(f"unknown overrides for pca-benchmark: {sorted(overrides)}")
    summary = pca_benchmark(seed=seed, threads=threads, bootstraps=bootstraps, **kwargs)
    rows = []
    for sigma, vals in summary.items():
        for name in ("clean_random", "noisy", "denoised"):
            rows.append([name, float(sigma), vals[name]])
    write_table(out / "summary.csv", ["dataset", "sigma", "pca_angle_deg"], rows)
    return {"pca": summary}
