"""Run-to-run spread of the end-to-end metrics over a set of seeds.

    python3 perfbench/spread.py --seeds 0-9 [--workload ellipses ...] [--out set.json]

Runs ``run.py --trace 0`` once per (seed, workload), seed by seed with the
workloads in turn, so every workload samples the same stretch of time. For
each workload and metric it prints the median over the runs and the
distance between the first and third quartile as a share of the median,
next to the metric's bound in BENCHMARK.json. ``--out`` writes the same
summary as JSON, in the shape of a set in ``baseline.json``.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=_seeds, required=True, help="a seed or a range a-b")
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    names = args.workload or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    values = {name: {} for name in names}
    run_s = []
    ok = True
    for seed in args.seeds:
        for name in names:
            t0 = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", name, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=180)
            run_s.append(time.perf_counter() - t0)
            if proc.returncode != 0:
                print(f"{name} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                ok = False
                continue
            lines = proc.stdout.strip().splitlines()
            res = json.loads(lines[-1])
            ok = ok and res["correct"]
            steal = next((ln.split()[2] for ln in lines if ln.startswith("host steal")), "?")
            print(f"{name} seed {seed}: {run_s[-1]:.1f} s, steal {steal}, "
                  f"correct={res['correct']}, "
                  f"calls {res['attempted']}, failed {res['failed']}, "
                  + ", ".join(f"{k} {v['value']:.5g}" for k, v in res["metrics"].items()),
                  flush=True)
            for k, v in res["metrics"].items():
                values[name].setdefault(k, {"unit": v["unit"], "runs": []})["runs"].append(
                    v["value"])

    summary = {}
    for name in names:
        summary[name] = {}
        for metric, entry in values[name].items():
            runs = entry["runs"]
            if len(runs) < 2:
                continue
            q1, med, q3 = statistics.quantiles(runs, n=4, method="exclusive")
            summary[name][metric] = {"median": med, "q1": q1, "q3": q3,
                                     "iqr_over_median": (q3 - q1) / med,
                                     "runs": len(runs), "unit": entry["unit"]}
            print(f"{name:<9} {metric:<17} median {med:<12.6g} spread "
                  f"{(q3 - q1) / med:.3f} (bound {bounds[metric]})")
    print(f"{len(run_s)} runs, mean {statistics.mean(run_s):.1f} s per run")
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
