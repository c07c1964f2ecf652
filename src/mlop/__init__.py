"""Manifold locally optimal projection: denoise and reconstruct a noisy
point cloud sampled near a low-dimensional manifold in high dimension."""

from .cloud import PointCloud, load_cloud, save_cloud
from .datasets import Dataset, DatasetSpec, make_dataset
from .errors import (CloudFormatError, CoincidentPointsError, ConfigError, MlopError,
                     NumericalAbortError, UnreachableSupportError)
from .experiments import (ExperimentConfig, ExperimentReport, reproduce,
                          run_experiment)
from .metrics import (background_snr, local_pca_angle_error,
                      nearest_reference_errors, relative_error)
from .neighborhood import (SupportParams, estimate_supports, fill_distance,
                           guarantee_radius)
from .rng import Rng
from .sketch import SketchMatrix, build_sketch, load_sketch, save_sketch
from .solver import SolverConfig, SolverResult, run

__version__ = "0.1.0"

__all__ = [
    "PointCloud", "load_cloud", "save_cloud",
    "Dataset", "DatasetSpec", "make_dataset",
    "MlopError", "ConfigError", "CloudFormatError", "UnreachableSupportError",
    "CoincidentPointsError", "NumericalAbortError",
    "ExperimentConfig", "ExperimentReport", "reproduce", "run_experiment",
    "background_snr", "local_pca_angle_error", "nearest_reference_errors",
    "relative_error",
    "SupportParams", "estimate_supports", "fill_distance", "guarantee_radius",
    "Rng",
    "SketchMatrix", "build_sketch", "load_sketch", "save_sketch",
    "SolverConfig", "SolverResult", "run",
    "__version__",
]
