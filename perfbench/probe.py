"""Spans around the public functions of the mlop modules, from outside.

A ``Probe`` replaces each target function with a timing wrapper in every
mlop module namespace that binds it, so a call is recorded wherever the
caller looks the name up: ``solver.build_sketch`` as well as
``sketch.build_sketch``, ``experiments.make_dataset`` as well as
``datasets.make_dataset``.  Spans (name, start, end, parent) stay in memory;
the caller writes them out when the run ends.

Kernel calls additionally get work counts computed from their arguments:
pairs evaluated, bytes of the argument and result arrays (computed from
shapes, not measured traffic), and for the two force kernels the number of
pairs inside the sketched cutoff.
"""

from __future__ import annotations

import importlib
import inspect
import os
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

# Coarse boundaries timed in every call: the end-to-end metrics are built
# from them, and each fires only a few times per recipe call.
PHASE_TARGETS = (
    "datasets.make_dataset",
    "solver.run",
    "experiments.score_run",
    "metrics.nearest_reference_errors",
    "metrics.local_pca_angle_error",
)

KERNELS = ("attraction_forces", "attraction_cost", "repulsion_forces", "repulsion_cost",
           "self_nn_dists", "min_dists", "pairwise_dists")

METRICS = ("nearest_reference_errors", "relative_error", "sketched_diameter",
           "background_snr", "erode_background", "local_pca_angle_error")

TRACE_TARGETS = (
    *(f"kernels.{k}" for k in KERNELS),
    "solver.run", "solver.cost", "solver.bb_steps", "solver.init_lambda",
    *(f"metrics.{m}" for m in METRICS),
    "experiments.score_run", "experiments.run_experiment",
    "sketch.build_sketch", "neighborhood.estimate_supports", "neighborhood.fill_distance",
    "datasets.make_dataset",
    "cloud.save_cloud", "cloud.write_matrix",
)

# (row argument, partner argument or None for a set against itself)
_PAIR_ARGS = {
    "attraction_forces": ("Qs", "Ps"),
    "attraction_cost": ("Qs", "Ps"),
    "repulsion_forces": ("Qs", None),
    "repulsion_cost": ("Qs", None),
    "self_nn_dists": ("Xs", None),
    "min_dists": ("Xs", "Ys"),
    "pairwise_dists": ("Xs", "Ys"),
}

# Force kernels whose useful-pair share is counted, under this family name.
_CUTOFF_FAMILY = {"attraction_forces": "attraction", "repulsion_forces": "repulsion"}


def _in_cutoff(rows: np.ndarray, partner: np.ndarray | None, cutoff: float) -> int:
    """Pairs within the sketched cutoff; a set against itself skips i == j."""
    other = rows if partner is None else partner
    d2 = (np.einsum("ij,ij->i", rows, rows)[:, None]
          + np.einsum("ij,ij->i", other, other)[None, :] - 2.0 * (rows @ other.T))
    hits = int(np.count_nonzero(d2 <= cutoff * cutoff))
    if partner is None:
        hits -= int(np.count_nonzero(np.diag(d2) <= cutoff * cutoff))
    return hits


class Probe:
    """Records spans and kernel work counts for one recipe call."""

    def __init__(self, targets=PHASE_TARGETS, count_work: bool = False):
        self.targets = tuple(targets)
        self.count_work = count_work
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: dict[str, float] = defaultdict(int)
        self.results: list[tuple[str, dict, object]] = []  # (name, arguments, result)
        self._stack: list[int] = []

    def _wrap(self, name: str, fn):
        func = name.split(".")[1]
        signature = inspect.signature(fn)
        keep = name in PHASE_TARGETS

        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else -1])
            self._stack.append(idx)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                self._stack.pop()
                self.spans[idx][1:3] = [t0, t1]
            if keep or self.count_work:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                if keep:
                    self.results.append((name, bound.arguments, result))
                if self.count_work:
                    self._count(name, func, bound.arguments, result)
            return result

        return wrapper

    def _count(self, name: str, func: str, arguments: dict, result) -> None:
        if func in _PAIR_ARGS and name.startswith("kernels."):
            row_arg, partner_arg = _PAIR_ARGS[func]
            rows = arguments[row_arg]
            partner = arguments[partner_arg] if partner_arg else None
            k = rows.shape[0]
            pairs = k * (partner.shape[0] if partner is not None else k - 1)
            self.counts[f"{name}.pairs"] += pairs
            arrays = [v for v in arguments.values() if isinstance(v, np.ndarray)]
            nbytes = sum(a.nbytes for a in arrays)
            nbytes += result.nbytes if isinstance(result, np.ndarray) else 8
            self.counts[f"{name}.bytes"] += nbytes
            if func in _CUTOFF_FAMILY:
                family = f"kernels.{_CUTOFF_FAMILY[func]}"
                self.counts[f"{family}.pairs"] += pairs
                self.counts[f"{family}.in_cutoff"] += _in_cutoff(rows, partner,
                                                                 arguments["cutoff"])
        elif name == "cloud.write_matrix":
            self.counts["cloud.bytes_written"] += os.path.getsize(arguments["path"])

    @contextmanager
    def installed(self):
        """Patch every target in every loaded mlop module, restore on exit."""
        importlib.import_module("mlop.experiments")  # loads every module a recipe uses
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "mlop" or n.startswith("mlop."))]
        patched = []
        try:
            for target in self.targets:
                mod_name, func = target.split(".")
                original = getattr(sys.modules[f"mlop.{mod_name}"], func)
                wrapper = self._wrap(target, original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            patched.append((mod, attr, original))
            yield self
        finally:
            for mod, attr, original in reversed(patched):
                setattr(mod, attr, original)

    # ------------------------------------------------------------------
    # aggregation
    # ------------------------------------------------------------------

    def fired(self) -> dict[str, int]:
        calls: dict[str, int] = defaultdict(int)
        for name, *_ in self.spans:
            calls[name] += 1
        return calls

    def totals(self) -> tuple[dict[str, float], dict[str, float]]:
        """Per span name, inclusive seconds and self seconds (inclusive
        minus the time covered by traced children)."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        inclusive: dict[str, float] = defaultdict(float)
        self_s: dict[str, float] = defaultdict(float)
        for (name, t0, t1, _), c in zip(self.spans, child):
            inclusive[name] += t1 - t0
            self_s[name] += t1 - t0 - c
        return inclusive, self_s

    def has_ancestor(self, idx: int, name: str) -> bool:
        parent = self.spans[idx][3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False
