"""The three benchmark workloads: canned ``reproduce`` recipes at fixed shapes.

Each workload is one call of ``mlop.experiments.reproduce`` with a fixed
iteration count (no workload converges, so every call does the same work).
The seed fans out into the dataset noise and the solver streams; the
program receives only what the recipe generates from it.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace

from probe import KERNELS

_SOLVE_SPANS = (
    "datasets.make_dataset", "solver.run", "solver.cost", "solver.bb_steps",
    "solver.init_lambda", "sketch.build_sketch", "neighborhood.estimate_supports",
    "neighborhood.fill_distance",
    *(f"kernels.{k}" for k in KERNELS if k != "min_dists"),
)
_SCORED_SPANS = (
    "experiments.run_experiment", "experiments.score_run", "kernels.min_dists",
    "metrics.nearest_reference_errors", "metrics.relative_error",
    "metrics.sketched_diameter", "cloud.save_cloud", "cloud.write_matrix",
)


def _pool_threads() -> int:
    """Two solver threads, never more than the cores this process may use."""
    return min(2, len(os.sched_getaffinity(0)))


@dataclass(frozen=True)
class Workload:
    name: str
    recipe: str
    threads: int
    overrides: dict
    expected_spans: tuple
    bootstraps: int = 1
    # quality keys recorded per seed and compared by the output check
    quality: tuple = ("rmse_final", "relative_error")
    tiny: dict = field(default_factory=dict)

    def shaped(self, size: str) -> "Workload":
        if size == "full":
            return self
        return replace(self, overrides={**self.overrides, **self.tiny}, bootstraps=1)

    @property
    def max_iters(self) -> int:
        return self.overrides["max_iters"]

    @property
    def solves(self) -> int:
        """Solver runs per call: the pca recipe solves two noise levels per
        bootstrap."""
        return 2 * self.bootstraps if self.recipe == "pca-benchmark" else 1

    def call(self, seed: int, out_root) -> dict:
        from mlop import experiments
        return experiments.reproduce(self.recipe, out_root, seed=seed, threads=self.threads,
                                     overrides=dict(self.overrides),
                                     bootstraps=self.bootstraps)


WORKLOADS = {
    # Largest Q-Q share (I/J = 0.38), the only run on the chunked thread
    # pool, and the largest nearest-reference scan (76,800 reference points).
    # 60 iterations keep a call near 6 s, so a run medians over 7-8 calls.
    "cyl6d-t2": Workload(
        "cyl6d-t2", "cylinder6d", _pool_threads(), {"max_iters": 60},
        _SOLVE_SPANS + _SCORED_SPANS,
        tiny={"sample_count": 128, "q_size": 40, "max_iters": 5}),
    # n=400 images on one thread with I/J = 0.2: attraction and cost()
    # dominate, as in the paper's cylinder2d run, which this stands in for.
    # Sketched work stays at m=10 while ambient work grows; the only run with
    # image scoring and large CSV output.
    "ellipses": Workload(
        "ellipses", "ellipses", 1, {"max_iters": 100},
        _SOLVE_SPANS + _SCORED_SPANS + ("metrics.background_snr",
                                        "metrics.erode_background"),
        quality=("rmse_final", "relative_error", "snr_final"),
        tiny={"sample_count": 100, "q_size": 20, "max_iters": 5}),
    # Many small solves (160-point subsets of 816 samples, two noise levels,
    # two bootstraps): per-call overhead and repeated set-up dominate, and
    # local-PCA scoring runs in no other workload.
    "pca": Workload(
        "pca", "pca-benchmark", 1, {"max_iters": 200},
        _SOLVE_SPANS + ("metrics.local_pca_angle_error",),
        bootstraps=2,
        quality=("rmse_final", "relative_error", "pca_denoised_deg", "pca_noisy_deg"),
        tiny={"sample_count": 200, "subset_size": 40, "max_iters": 5}),
}
