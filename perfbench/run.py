"""Closed-loop benchmark of the mlop reconstruction pipeline.

    python3 perfbench/run.py --workload ellipses --seed 0 --seconds 42 --trace 0

Runs one workload's recipe call after call (one at a time, one process)
for about ``--seconds`` seconds, checks every call's outputs, prints each
end-to-end metric with its unit, and ends with one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 1`` every
other call is traced through wrappers around the public mlop functions and
the JSON carries the per-layer metrics instead.  Run it from the root of a
source checkout; it imports ``mlop`` from ``src/`` there.
"""

import os

# Pin BLAS and OpenMP threads before numpy loads: results move with the BLAS
# thread count, and a BLAS pool would compete with the solver's own threads.
BLAS_THREADS = "1"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_ENV:
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

# Quality metrics the table prints besides those in BENCHMARK.json.  They
# vary between seeds by more than any bound allows, and some exist on one
# workload only, so the output check compares them with the values recorded
# for the seed instead.
TABLE_ONLY = {"rmse_final": "1", "relative_error": "1", "snr_final": "1",
              "pca_denoised_deg": "deg", "pca_noisy_deg": "deg"}

# Hard stop for the measuring loop, well inside the 180 s a run may take.
MAX_LOOP_S = 120.0
# A run makes at least two calls, and at the full shapes enough calls to pool
# the 200 iterations a p95 needs for ten samples beyond it.
MIN_CALLS = 2
MIN_ITER_SAMPLES = 200


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def environment(wl) -> dict:
    import numpy as np
    from mlop import kernels

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    src = hashlib.sha256()
    for path in sorted((SRC / "mlop").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": {var: os.environ[var] for var in BLAS_ENV},
        "backend": kernels.backend_name(),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "solver_threads": wl.threads,
        "commit": _git_commit(),
        "src_sha256": src.hexdigest(),
    }


def _host_cpu_ticks() -> list | None:
    """The machine-wide CPU time counters of /proc/stat, where readable."""
    try:
        with open("/proc/stat") as fh:
            return [int(x) for x in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return None


def _steal_share(before, after) -> float | None:
    """Share of the machine's CPU time the hypervisor gave to other guests
    (the steal column) between two readings."""
    if not before or not after or len(before) < 8:
        return None
    delta = [b - a for a, b in zip(before, after)]
    return delta[7] / sum(delta) if sum(delta) > 0 else None


def _percentile(samples, q: float) -> float:
    import numpy as np
    return float(np.percentile(np.asarray(samples), q))


def _layer_metrics(probe, facts) -> dict:
    """Per-layer numbers of one traced call."""
    from probe import KERNELS, METRICS

    inclusive, self_s = probe.totals()
    fired = probe.fired()
    counts = probe.counts
    m = {}
    for k in KERNELS:
        name = f"kernels.{k}"
        m[f"{name}.s"] = inclusive[name]
        m[f"{name}.calls"] = fired[name]
        m[f"{name}.pairs"] = counts[f"{name}.pairs"]
        m[f"{name}.bytes"] = counts[f"{name}.bytes"]
    for family in ("attraction", "repulsion"):
        pairs = counts[f"kernels.{family}.pairs"]
        m[f"kernels.{family}.in_cutoff_frac"] = (
            counts[f"kernels.{family}.in_cutoff"] / pairs if pairs else 0.0)
    m["solver.run.s"] = inclusive["solver.run"]
    m["solver.run.self_s"] = self_s["solver.run"]
    for f in ("cost", "bb_steps", "init_lambda"):
        m[f"solver.{f}.s"] = inclusive[f"solver.{f}"]
    m["solver.iterations"] = facts.iterations
    for f in METRICS:
        m[f"metrics.{f}.s"] = inclusive[f"metrics.{f}"]
        m[f"metrics.{f}.calls"] = fired[f"metrics.{f}"]
    m["experiments.score_run.self_s"] = self_s["experiments.score_run"]
    # Artifact writing: run_experiment minus the solve, the scoring and the
    # errors.csv rescan it calls.
    write_s = 0.0
    not_writing = ("solver.run", "experiments.score_run", "metrics.nearest_reference_errors")
    for idx, (name, t0, t1, _) in enumerate(probe.spans):
        if name == "experiments.run_experiment":
            write_s += t1 - t0 - sum(c[2] - c[1] for c in probe.spans
                                     if c[3] == idx and c[0] in not_writing)
    m["experiments.run_experiment.write_s"] = write_s
    for name in ("sketch.build_sketch", "neighborhood.estimate_supports",
                 "neighborhood.fill_distance", "datasets.make_dataset", "cloud.save_cloud"):
        m[f"{name}.s"] = inclusive[name]
    m["cloud.bytes_written"] = counts["cloud.bytes_written"]
    return m


# counts that must repeat exactly between traced calls of one run
def _is_count(name: str) -> bool:
    return name.endswith((".calls", ".pairs", ".bytes", "_frac", ".iterations",
                          ".bytes_written"))


def measure(wl, seed: int, seconds: float, trace: bool, size: str, log) -> dict:
    import checks
    from probe import TRACE_TARGETS, Probe

    expected = checks.load_expected() if size == "full" else None
    min_calls = MIN_CALLS
    if size == "full":
        min_calls = max(MIN_CALLS, math.ceil(MIN_ITER_SAMPLES / (wl.max_iters * wl.solves)))
    run_dir = OUT / f"{wl.name}-{seed}-{os.getpid()}"
    calls, layers, spans_out = [], [], []
    first = None  # (digest, quality values, quality problems) of the first finished call
    try:
        # Warm-up at the smoke size: imports, first numpy calls, page faults.
        wl.shaped("tiny").call(seed, run_dir / "warmup")
        t_start = time.perf_counter()
        ticks_start = _host_cpu_ticks()
        while True:
            traced = trace and len(calls) % 2 == 1
            probe = Probe(TRACE_TARGETS, count_work=True) if traced else Probe()
            out_dir = run_dir / f"call{len(calls)}"
            t0 = time.perf_counter()
            try:
                with probe.installed():
                    output = wl.call(seed, out_dir)
            except Exception as exc:  # a failing call is counted, not fatal
                facts = checks.CallFacts(total_s=time.perf_counter() - t0,
                                         problems=[f"raised {exc!r}"])
            else:
                facts = checks.analyze_call(wl, probe, output, time.perf_counter() - t0)
                if first is None:
                    values, problems = checks.quality(wl, probe, output)
                    if expected is not None:
                        problems += checks.compare_expected(wl, seed, values, expected)
                    first = (facts.digest, values, problems)
                if facts.digest != first[0]:
                    facts.problems.append("outputs differ from the first call of the run")
                facts.problems += first[2]
                if traced:
                    fired = probe.fired()
                    facts.problems += [f"span {s} never fired" for s in wl.expected_spans
                                       if not fired.get(s)]
                    if not facts.problems:
                        layers.append(_layer_metrics(probe, facts))
                    spans_out.append(probe.spans)
            shutil.rmtree(out_dir, ignore_errors=True)
            calls.append((traced, facts))
            for p in facts.problems:
                log(f"call {len(calls)}: {p}")
            elapsed = time.perf_counter() - t_start
            typical = statistics.median(f.total_s for _, f in calls)
            # Stop where the next call would end nearer past --seconds than
            # before it, so runs average about --seconds of measuring.
            if len(calls) >= min_calls and (elapsed + typical / 2 > seconds
                                            or elapsed > MAX_LOOP_S):
                break
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    return {"calls": calls, "layers": layers, "spans": spans_out,
            "steal": _steal_share(ticks_start, _host_cpu_ticks()),
            "quality": first[1] if first else {}}


def end_to_end(calls, quality: dict) -> tuple[dict, int, int]:
    good = [f for traced, f in calls if not traced and not f.problems]
    iter_ms = [ms for f in good for ms in f.iter_ms]
    med = lambda attr: statistics.median(getattr(f, attr) for f in good)  # noqa: E731
    return {
        "setup_s": med("setup_s"),
        "solve_s": med("solve_s"),
        "iter_ms_p50": _percentile(iter_ms, 50),
        "iter_ms_p95": _percentile(iter_ms, 95),
        "score_s": med("score_s"),
        "total_s": med("total_s"),
        "pair_evals_per_s": statistics.median(f.pair_evals / f.solve_s for f in good),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        **quality,
    }, len(good), len(iter_ms)


def per_layer(calls, layers) -> tuple[dict, list]:
    problems = []
    merged = {}
    for name in layers[0]:
        values = [layer[name] for layer in layers]
        if _is_count(name) and len(set(values)) > 1:
            problems.append(f"count {name} differs between traced calls: {values}")
        merged[name] = statistics.median(values)
    untraced = [f.total_s for traced, f in calls if not traced and not f.problems]
    traced = [f.total_s for t, f in calls if t and not f.problems]
    merged["trace.overhead_frac"] = statistics.median(traced) / statistics.median(untraced)
    return merged, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny runs the smoke shapes the benchmark's tests use")
    args = parser.parse_args(argv)

    def log(msg):
        print(f"perfbench: {msg}", file=sys.stderr, flush=True)

    bench_json = ROOT / "BENCHMARK.json"
    if not (SRC / "mlop" / "__init__.py").is_file() or not bench_json.is_file():
        log(f"no mlop sources under {SRC} or no {bench_json.name}; "
            "run from the root of a source checkout")
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        log(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
        return 2
    if not 0 <= args.seed < 2**63:
        log("seed must be a non-negative 63-bit integer")
        return 2
    spec = json.loads(bench_json.read_text())
    wl = workloads.WORKLOADS[args.workload].shaped(args.size)
    env = environment(wl)
    print(f"perfbench {wl.name} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} size={args.size}")
    print("env " + json.dumps(env, sort_keys=True), flush=True)

    res = measure(wl, args.seed, args.seconds, bool(args.trace), args.size, log)
    calls = res["calls"]
    failed = sum(1 for _, f in calls if f.problems)
    if res["steal"] is not None:
        print(f"host steal {100 * res['steal']:.1f}% of the machine's CPU time while measuring")
    print(f"calls {len(calls)} attempted, {failed} failed "
          f"(failed_runs {failed} count of {len(calls)})")
    if all(t or f.problems for t, f in calls) or (args.trace and not res["layers"]):
        log("no call passed its checks; no metrics to report")
        return 1

    e2e, n_good, n_iter = end_to_end(calls, res["quality"])
    units = {**{m["name"]: m["unit"] for m in spec["end_to_end"]}, **TABLE_ONLY}
    print("quality " + json.dumps(res["quality"], sort_keys=True))
    print(f"end-to-end over {n_good} untraced calls, {n_iter} iteration samples:")
    for name, unit in units.items():
        value = e2e.get(name)
        print(f"  {name:<18} {'n/a' if value is None else format(value, '.6g')} "
              f"{'' if value is None else unit}")
    correct = failed == 0
    if args.trace:
        layer, problems = per_layer(calls, res["layers"])
        for p in problems:
            log(p)
        correct = correct and not problems
        print(f"per-layer, median over {len(res['layers'])} traced calls "
              f"(bytes are computed from array shapes):")
        for name, value in layer.items():
            print(f"  {name:<44} {value:.6g}")
        OUT.mkdir(exist_ok=True)
        spans_path = OUT / f"spans-{wl.name}-seed{args.seed}.jsonl"
        with open(spans_path, "w") as fh:
            fh.write(json.dumps({"env": env, "fields": ["call", "name", "start", "end",
                                                        "parent"]}) + "\n")
            for call_id, spans in enumerate(res["spans"]):
                for name, t0, t1, parent in spans:
                    fh.write(json.dumps([call_id, name, t0, t1, parent]) + "\n")
        print(f"spans written to {spans_path.relative_to(ROOT)}")
        metrics = {m["name"]: {"value": layer[m["name"]], "unit": m["unit"]}
                   for m in spec["per_layer"]}
    else:
        metrics = {m["name"]: {"value": e2e[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    print(json.dumps({"correct": correct, "attempted": len(calls), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
