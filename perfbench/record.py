"""Record the reconstruction quality of each workload for a range of seeds.

    python3 perfbench/record.py --seeds 0-23 [--workload ellipses ...]

Runs one recipe call per (workload, seed) with the benchmark's BLAS pin,
computes the quality values the output check compares, and merges them into
``expected.json``.  Re-record only when a change is meant to alter results.
"""

import run  # first: pins the BLAS threads before numpy loads

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402

sys.path.insert(0, str(run.SRC))

import checks  # noqa: E402
import workloads  # noqa: E402
from probe import Probe  # noqa: E402


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=_seeds, required=True, help="a seed or a range a-b")
    parser.add_argument("--workload", action="append", choices=sorted(workloads.WORKLOADS))
    args = parser.parse_args()
    expected = checks.load_expected()
    out_root = run.OUT / "record"
    try:
        for name in args.workload or workloads.WORKLOADS:
            wl = workloads.WORKLOADS[name]
            recorded = expected["workloads"].setdefault(name, {})
            for seed in args.seeds:
                probe = Probe()
                with probe.installed():
                    output = wl.call(seed, out_root)
                problems = checks.analyze_call(wl, probe, output, 0.0).problems
                values, more = checks.quality(wl, probe, output)
                if problems + more:
                    print(f"{name} seed {seed}: {problems + more}", file=sys.stderr)
                    return 1
                recorded[str(seed)] = {k: values[k] for k in wl.quality}
                print(name, seed, recorded[str(seed)], flush=True)
            expected["workloads"][name] = dict(sorted(recorded.items(),
                                                      key=lambda kv: int(kv[0])))
            with open(checks.EXPECTED_PATH, "w") as fh:
                json.dump(expected, fh, indent=1)
                fh.write("\n")
    finally:
        shutil.rmtree(out_root, ignore_errors=True)
    if "pca" in expected["workloads"]:
        denoised, noisy = checks.pca_claim(expected)
        print(f"pca over recorded seeds: denoised {denoised:.3f} deg, noisy {noisy:.3f} deg")
        if denoised >= noisy:
            print("the denoised local-PCA angle is not below the noisy one", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
