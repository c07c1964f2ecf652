"""Per-call timings, output checks and reconstruction quality.

Every recipe call is checked: each Q_final is finite, each solve ran the
configured iteration count without converging, the solve count matches the
recipe, and the outputs are bit-identical to the first call of the run (the
inputs are the same, and BLAS and the solver chunking are deterministic).
Quality is computed once per run, cross-checked where the program reports
it, and compared with the values recorded for the seed in ``expected.json``.
"""

from __future__ import annotations

import hashlib
import json
import math
import statistics
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"

# Relative agreement between the benchmark's own nearest-reference scan and
# the rmse the program reports for the same cloud.
CROSSCHECK_RTOL = 1e-9


@dataclass
class CallFacts:
    """What one recipe call measured and what its checks found."""

    total_s: float
    setup_s: float = 0.0
    solve_s: float = 0.0
    score_s: float = 0.0
    iter_ms: list = field(default_factory=list)
    iterations: int = 0
    pair_evals: int = 0
    digest: str = ""
    problems: list = field(default_factory=list)


def _captured(probe):
    """Datasets, solves (dataset index, input, result) and local-PCA scores
    (evaluated cloud, median angle) in call order."""
    datasets, solves, pca = [], [], []
    for name, arguments, result in probe.results:
        if name == "datasets.make_dataset":
            datasets.append(result)
        elif name == "solver.run":
            solves.append((len(datasets) - 1, arguments["P"], result))
        elif name == "metrics.local_pca_angle_error":
            pca.append((arguments["X"], result.median_deg))
    return datasets, solves, pca


def analyze_call(wl, probe, output, total_s: float) -> CallFacts:
    facts = CallFacts(total_s=total_s)
    _, solves, _ = _captured(probe)
    if len(solves) != wl.solves:
        facts.problems.append(f"{len(solves)} solves, expected {wl.solves}")
    run_spans = [i for i, s in enumerate(probe.spans) if s[0] == "solver.run"]
    digest = hashlib.sha256()
    for span_idx, (_, P, result) in zip(run_spans, solves):
        _, t0, t1, _ = probe.spans[span_idx]
        loop_s = sum(rec.wall_ms for rec in result.trace) / 1e3
        facts.solve_s += t1 - t0
        facts.setup_s += t1 - t0 - loop_s
        facts.iter_ms.extend(rec.wall_ms for rec in result.trace)
        facts.iterations += result.iterations_run
        I, J = result.q_final.size, P.size
        facts.pair_evals += (I * J + I * (I - 1)) * result.iterations_run
        q = result.q_final.points
        if not np.all(np.isfinite(q)):
            facts.problems.append("non-finite Q_final")
        if result.iterations_run != wl.max_iters or result.converged:
            facts.problems.append(f"ran {result.iterations_run} of {wl.max_iters} "
                                  f"iterations (converged={result.converged})")
        digest.update(q.tobytes())
    for idx, (name, t0, t1, _) in enumerate(probe.spans):
        if name == "datasets.make_dataset":
            facts.setup_s += t1 - t0
        elif name == "experiments.score_run" or name == "metrics.local_pca_angle_error":
            facts.score_s += t1 - t0
        elif (name == "metrics.nearest_reference_errors"
              and not probe.has_ancestor(idx, "experiments.score_run")):
            facts.score_s += t1 - t0  # the errors.csv rescan
    if "report" in output:
        report = output["report"]
        if report["iterations_run"] != wl.max_iters:
            facts.problems.append(f"report says {report['iterations_run']} iterations")
        headline = {k: report[k] for k in ("rmse", "relative_error", "snr_final")}
    else:
        headline = output["pca"]
    digest.update(json.dumps(headline, sort_keys=True).encode())
    facts.digest = digest.hexdigest()
    return facts


def nearest_dists(q: np.ndarray, ref: np.ndarray, s: np.ndarray,
                  block: int = 8192) -> np.ndarray:
    """Sketched nearest-reference distance per row of q, in reference blocks."""
    qs, rs = q @ s, ref @ s
    q2 = np.einsum("ij,ij->i", qs, qs)
    best = np.full(qs.shape[0], np.inf)
    for j0 in range(0, rs.shape[0], block):
        blk = rs[j0:j0 + block]
        d2 = q2[:, None] + np.einsum("ij,ij->i", blk, blk)[None, :] - 2.0 * (qs @ blk.T)
        np.minimum(best, d2.min(axis=1), out=best)
    return np.sqrt(np.maximum(best, 0.0))


def quality(wl, probe, output) -> tuple[dict, list]:
    """Quality of the reconstruction and the problems found computing it."""
    from mlop.metrics import relative_error

    datasets, solves, pca = _captured(probe)
    problems = []
    rmse, rel = [], []
    for ds_idx, _, result in solves:
        ref = datasets[ds_idx].reference
        d = nearest_dists(result.q_final.points, ref.points, result.sketch.s)
        rmse.append(float(np.sqrt(np.mean(d * d))))
        if "report" not in output:
            rel.append(relative_error(result.q_final, ref, result.sketch))
    values = {"rmse_final": statistics.median(rmse)}
    if "report" in output:
        report = output["report"]
        if not math.isclose(rmse[0], report["rmse"], rel_tol=CROSSCHECK_RTOL):
            problems.append(f"reported rmse {report['rmse']!r} differs from the "
                            f"rescan {rmse[0]!r}")
        values["relative_error"] = report["relative_error"]
        if report.get("snr_final") is not None:
            values["snr_final"] = report["snr_final"]
    else:
        values["relative_error"] = statistics.median(rel)
        denoised = [deg for X, deg in pca if any(X is r.q_final for _, _, r in solves)]
        noisy = [deg for X, deg in pca if any(X is P for _, P, _ in solves)]
        if len(denoised) != len(solves) or len(noisy) != len(solves):
            problems.append(f"{len(denoised)} denoised and {len(noisy)} noisy local-PCA "
                            f"scores for {len(solves)} solves")
        else:
            values["pca_denoised_deg"] = statistics.median(denoised)
            values["pca_noisy_deg"] = statistics.median(noisy)
    for key, v in values.items():
        if not (math.isfinite(v) and v > 0):
            problems.append(f"{key} = {v!r}")
    return values, problems


def load_expected() -> dict:
    with open(EXPECTED_PATH) as fh:
        return json.load(fh)


def compare_expected(wl, seed: int, values: dict, expected: dict) -> list:
    """Problems found comparing quality with the values recorded for the seed.

    A recorded seed must match within the relative tolerance; any other seed
    must fall inside the range spanned by the recorded seeds, widened by the
    band factor on each side.
    """
    recorded = expected["workloads"][wl.name]
    problems = []
    for key in wl.quality:
        v = values.get(key)
        if v is None:
            problems.append(f"{key} missing")
            continue
        if str(seed) in recorded:
            want = recorded[str(seed)][key]
            if abs(v - want) > expected["rtol"] * abs(want):
                problems.append(f"{key} = {v!r}, recorded {want!r} "
                                f"(rtol {expected['rtol']})")
        else:
            seen = [r[key] for r in recorded.values()]
            lo, hi = min(seen) / expected["band"], max(seen) * expected["band"]
            if not lo <= v <= hi:
                problems.append(f"{key} = {v!r} outside [{lo!r}, {hi!r}]")
    return problems


def pca_claim(expected: dict) -> tuple[float, float]:
    """Median over the recorded seeds of the denoised and of the noisy
    local-PCA angle; the first must be below the second.

    The claim is checked over many seeds because a single seed's two
    bootstraps per noise level are too few: for some seeds the denoised
    median is above the noisy one.
    """
    recorded = expected["workloads"]["pca"].values()
    return (statistics.median(r["pca_denoised_deg"] for r in recorded),
            statistics.median(r["pca_noisy_deg"] for r in recorded))
