"""Alternated parent/change runs of perfbench, recorded as one BENCH_*.json.

    python3 tools/bench_compare.py --parent ../parent --change . \\
        --workloads cyl6d-t2 ellipses pca --repeats 3 --seconds 20 --trace 1 \\
        --metrics metrics.sketched_diameter.s kernels.min_dists.calls \\
        --out BENCH_score.json

Each repeat runs every workload once on each checkout, the parent first on
even repeats and the change first on odd ones, so a slow stretch of the host
falls on both sides.  Every run is its own ``perfbench/run.py`` process,
started from the root of its checkout.  The file keeps every metric of every
run under ``runs``, so a set can be re-read for a metric not named by
``--metrics``.  For the named metrics it adds, per side, the median, the
quartiles and IQR/median, plus the ratio of the change's median to the
parent's.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(root: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    env = next((json.loads(line[4:]) for line in lines if line.startswith("env ")), {})
    steal = next((line for line in lines if line.startswith("host steal")), None)
    if proc.returncode != 0 or not lines:
        return {"correct": False, "env": env, "steal": steal, "metrics": {},
                "error": proc.stderr.strip().splitlines()[-1:]}
    last = json.loads(lines[-1])
    return {"correct": last["correct"], "env": env, "steal": steal,
            "metrics": {k: v["value"] for k, v in last["metrics"].items()},
            "units": {k: v["unit"] for k, v in last["metrics"].items()}}


def summary(values: list) -> dict:
    if not values:
        return {"runs": []}
    if len(values) == 1:
        q1 = med = q3 = values[0]
    else:
        q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"runs": values, "median": med, "q1": q1, "q3": q3,
            "iqr_over_median": (q3 - q1) / med if med else None}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", type=Path, required=True, help="root of the parent checkout")
    p.add_argument("--change", type=Path, required=True, help="root of the changed checkout")
    p.add_argument("--workloads", nargs="+", required=True)
    p.add_argument("--metrics", nargs="+", required=True)
    p.add_argument("--repeats", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=1)
    p.add_argument("--out", type=Path, required=True)
    args = p.parse_args(argv)

    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    runs = []
    for rep in range(args.repeats):
        order = ["parent", "change"] if rep % 2 == 0 else ["change", "parent"]
        for wl in args.workloads:
            for side in order:
                res = run_once(sides[side], wl, args.seed, args.seconds, args.trace)
                runs.append({"repeat": rep, "workload": wl, "side": side, **res})
                print(f"repeat {rep} {wl:<9} {side:<6} correct={res['correct']} "
                      + " ".join(f"{m}={res['metrics'].get(m)}" for m in args.metrics),
                      flush=True)

    workloads = {}
    for wl in args.workloads:
        mine = [r for r in runs if r["workload"] == wl and r["correct"]]
        units = next((r["units"] for r in mine), {})
        table = {}
        for m in args.metrics:
            entry = {"unit": units.get(m)}
            for side in sides:
                # a traced run reports no end-to-end metric, an untraced one no layer
                entry[side] = summary([r["metrics"][m] for r in mine
                                       if r["side"] == side and m in r["metrics"]])
            a, b = entry["parent"].get("median"), entry["change"].get("median")
            entry["change_over_parent"] = b / a if a and b is not None else None
            table[m] = entry
        workloads[wl] = table
    record = {
        "command": "python3 tools/bench_compare.py " + " ".join(argv or sys.argv[1:]),
        "env": {side: next((r["env"] for r in runs if r["side"] == side and r["env"]), {})
                for side in sides},
        "workloads": workloads,
        "runs": [{k: r[k] for k in ("repeat", "workload", "side", "correct", "steal",
                                    "metrics")}
                 for r in runs],
    }
    args.out.write_text(json.dumps(record, indent=2) + "\n")
    failed = sum(not r["correct"] for r in runs)
    print(f"wrote {args.out} ({len(runs)} runs, {failed} not correct)")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
