"""Compare the files that ``reproduce`` recipes and ``gen`` write on two checkouts.

    python3 tools/same_outputs.py --parent ../parent --change . \\
        o2 cone cylinder2d "cylinder6d --threads 2" ellipses noise-sweep \\
        "pca-benchmark --bootstraps 1" \\
        "gen --kind o2 --count 500 --noise 0.1" \\
        "gen --kind cone_segment --count 720 --noise 0.1" \\
        "gen --kind cylinder2d --count 816 --noise 0.1" \\
        "gen --kind cylinder6d --count 300 --noise 0.1" \\
        "gen --kind ellipse_images --count 900 --noise 0.05" \\
        "gen --kind grid_line --count 33 --noise 0.05"

Each item is a recipe name, optionally followed by more ``mlop reproduce``
arguments, or ``gen`` followed by ``mlop gen`` arguments other than
``--out``.  Every item runs once per checkout, as its own
``python -m mlop.cli`` process with that checkout's ``src`` on
``PYTHONPATH`` and ``OPENBLAS_NUM_THREADS=1``; a recipe runs at
``--override max_iters=5``.  Every output file is then reported equal,
different, or only on one side.  ``trace.csv`` is compared without its
``wall_ms`` column and ``report.json`` without its ``runtime_ms`` value;
for a report that differs, the keys that differ are listed with both
values.  A CSV of the same shape that differs gets the
largest absolute and relative difference over its numeric cells and the
count of cells that differ, and a numeric report value that differs gets
both differences on its line, so a change that moves bits shows how far.
The relative difference is |a - b| / max(|a|, |b|).  Exits 0 when every
file is equal, 1 otherwise.
"""

import argparse
import json
import os
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

MAX_ITERS = 5
ABSENT = "absent"


def run_recipe(root: Path, recipe: str, out: Path) -> str | None:
    """Run one item on the checkout at root; the error text if it failed."""
    name, *extra = shlex.split(recipe)
    if name == "gen":
        cmd = [sys.executable, "-m", "mlop.cli", "gen", *extra, "--out", str(out)]
    else:
        cmd = [sys.executable, "-m", "mlop.cli", "reproduce", name, "--out", str(out),
               "--override", f"max_iters={MAX_ITERS}", *extra]
    env = {**os.environ, "PYTHONPATH": str(root / "src"), "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        return f"exit {proc.returncode}: " + " ".join(proc.stderr.strip().splitlines()[-1:])
    return None


def csv_cells(path: Path) -> list[list[str]]:
    rows = [line.split(",") for line in path.read_text().splitlines()]
    if path.name == "trace.csv":
        col = rows[0].index("wall_ms")
        rows = [row[:col] + row[col + 1:] for row in rows]
    return rows


def as_number(value) -> float | None:
    if isinstance(value, bool):
        return None
    try:
        return float(value)
    except (TypeError, ValueError):
        return None


def distance(a: float, b: float) -> tuple[float, float]:
    """Absolute and relative difference of two numbers."""
    if a == b:
        return 0.0, 0.0
    gap = abs(a - b)
    return gap, gap / max(abs(a), abs(b))


def csv_differences(a: Path, b: Path) -> list[str] | None:
    """None when the tables are equal, else how far apart they are."""
    ra, rb = csv_cells(a), csv_cells(b)
    if ra == rb:
        return None
    if [len(row) for row in ra] != [len(row) for row in rb]:
        return [f"shape: {len(ra)} rows -> {len(rb)} rows, or a row of another length"]
    cells = [(x, y) for row_a, row_b in zip(ra, rb) for x, y in zip(row_a, row_b) if x != y]
    numeric = [(as_number(x), as_number(y)) for x, y in cells]
    gaps = [distance(x, y) for x, y in numeric if x is not None and y is not None]
    lines = [f"{len(cells)} cells differ"]
    if gaps:
        lines.append(f"largest absolute difference {max(g for g, _ in gaps):.3e}, "
                     f"largest relative difference {max(r for _, r in gaps):.3e}")
    if len(gaps) < len(cells):
        lines.append(f"{len(cells) - len(gaps)} of them not numeric on both sides")
    return lines


def flatten(d: dict, prefix: str = "") -> dict:
    out = {}
    for key, value in d.items():
        if isinstance(value, dict):
            out.update(flatten(value, f"{prefix}{key}."))
        else:
            out[f"{prefix}{key}"] = value
    return out


def report_differences(a: Path, b: Path) -> list[str]:
    """"key: parent -> change" for every report key but runtime_ms that differs."""
    fa, fb = (flatten(json.loads(p.read_text())) for p in (a, b))
    lines = []
    for k in sorted(fa.keys() | fb.keys()):
        va, vb = fa.get(k, ABSENT), fb.get(k, ABSENT)
        if k == "runtime_ms" or va == vb:
            continue
        line = f"{k}: {va} -> {vb}"
        na, nb = as_number(va), as_number(vb)
        if na is not None and nb is not None:
            gap, rel = distance(na, nb)
            line += f" (absolute {gap:.3e}, relative {rel:.3e})"
        lines.append(line)
    return lines


def compare(a: Path, b: Path) -> list[str] | None:
    """None when the files are equal, else the details of the difference."""
    if a.suffix == ".csv":
        return csv_differences(a, b)
    if a.name == "report.json":
        return report_differences(a, b) or None
    return None if a.read_bytes() == b.read_bytes() else []


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", type=Path, required=True, help="root of the parent checkout")
    p.add_argument("--change", type=Path, required=True, help="root of the changed checkout")
    p.add_argument("--work", type=Path, default=None,
                   help="directory for both sides' outputs (default: a new temporary one)")
    p.add_argument("recipes", nargs="+", help='recipe name and extra arguments, e.g. '
                                               '"cylinder6d --threads 2", or "gen" and '
                                               'its arguments')
    args = p.parse_args(argv)

    work = args.work or Path(tempfile.mkdtemp(prefix="same_outputs_"))
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    different = 0
    for i, recipe in enumerate(args.recipes):
        label = f"{i}-{shlex.split(recipe)[0]}"
        outs = {side: work.resolve() / side / label for side in sides}
        errors = {side: run_recipe(root, recipe, outs[side]) for side, root in sides.items()}
        for side, err in errors.items():
            if err:
                print(f"{recipe}: {side} failed ({err})")
        if any(errors.values()):
            different += 1
            continue
        files = sorted({f.relative_to(out) for out in outs.values()
                        for f in out.rglob("*") if f.is_file()})
        for rel in files:
            a, b = (outs[side] / rel for side in sides)
            if not (a.exists() and b.exists()):
                verdict = f"only in {'parent' if a.exists() else 'change'}"
                details = []
            else:
                details = compare(a, b)
                verdict = "equal" if details is None else "different"
            different += verdict != "equal"
            print(f"{recipe} {rel}: {verdict}", flush=True)
            for line in details or []:
                print(f"    {line}")
    print(f"outputs under {work}; {different} not equal")
    return 1 if different else 0


if __name__ == "__main__":
    sys.exit(main())
