"""Command line interface: gen, run, reproduce, metrics.

Every command is batch and deterministic given its arguments; exit codes are
0 success, 2 configuration error (including a reconstruction size whose
support quota no radius reaches), 3 numerical abort, 4 I/O error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace
from pathlib import Path

from .cloud import load_cloud, write_json
from .datasets import (DatasetSpec, KINDS, load_dataset_dir, make_dataset,
                       write_dataset)
from .errors import (CloudFormatError, ConfigError, NumericalAbortError,
                     UnreachableSupportError)
from .experiments import (EXPERIMENT_NAMES, ExperimentConfig, MetricsReport, reproduce,
                          run_experiment, score_cloud)
from .metrics import sketched_diameter
from .sketch import build_sketch, load_sketch

DEFAULT_OUT_ROOT_ENV = "MLOP_OUT_ROOT"


def _out_root(value: str | None) -> Path:
    if value:
        return Path(value)
    return Path(os.environ.get(DEFAULT_OUT_ROOT_ENV, "runs"))


def cmd_gen(args) -> int:
    spec = DatasetSpec(kind=args.kind, sample_count=args.count, noise=args.noise,
                       ambient_dim=args.ambient_dim, seed=args.seed)
    ds = make_dataset(spec)
    write_dataset(ds, args.out)
    print(f"wrote dataset '{spec.kind}' ({ds.points.size} points, "
          f"R^{ds.points.ambient_dim}) to {args.out}")
    return 0


def cmd_run(args) -> int:
    cfg = ExperimentConfig.from_json(args.config)
    ds = load_dataset_dir(cfg.dataset_dir) if cfg.dataset_dir else make_dataset(cfg.dataset)
    solver = cfg.solver if args.threads is None else replace(cfg.solver, threads=args.threads)
    report, result = run_experiment(ds, solver, out_dir=cfg.out_dir)
    status = "converged" if report.converged else "max-iters"
    print(f"run finished ({status}) after {report.iterations_run} iterations; "
          f"report at {Path(cfg.out_dir) / 'report.json'}")
    return 0


def cmd_reproduce(args) -> int:
    overrides = {}
    for item in args.override:
        key, _, value = item.partition("=")
        if not _:
            raise ConfigError(f"override {item!r} must look like key=value")
        try:
            parsed = json.loads(value)
        except json.JSONDecodeError:
            parsed = value
        overrides[key] = parsed
    out_root = _out_root(args.out)
    summary = reproduce(args.name, out_root, seed=args.seed, threads=args.threads,
                        overrides=overrides, bootstraps=args.bootstraps)
    print(json.dumps(summary, indent=2, sort_keys=True, default=str))
    return 0


def cmd_metrics(args) -> int:
    ds = load_dataset_dir(args.dataset_dir)
    n = ds.points.ambient_dim
    q = load_cloud(args.q)
    if q.ambient_dim != n:
        raise ConfigError(f"--q has ambient dimension {q.ambient_dim}, the dataset has {n}")
    S = (load_sketch(args.sketch) if args.sketch
         else build_sketch(ds.points, args.sketch_dim, args.seed))
    if S.n != n:
        raise ConfigError(f"sketch expects ambient dimension {S.n}, the dataset has {n}")
    err, rel, max_rel, fill, snr = score_cloud(q, ds, S, sketched_diameter(ds.reference, S))
    report = MetricsReport(relative_error=rel, rmse=err.rmse, max_rel_error=max_rel,
                           variance=err.variance, fill_distance_final=fill, snr_final=snr,
                           config={"dataset": ds.spec.to_dict()})
    write_json(args.out, report.to_dict())
    print(f"wrote {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="mlop",
        description="Manifold reconstruction and denoising experiments",
    )
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a synthetic dataset bundle")
    g.add_argument("--kind", required=True, choices=KINDS)
    g.add_argument("--count", type=int, required=True, help="number of samples J")
    g.add_argument("--noise", type=float, default=0.0,
                   help="noise magnitude: the per-pixel gaussian sigma for "
                        "ellipse_images, the uniform per-coordinate half-width "
                        "for every other kind (default 0, noise-free)")
    g.add_argument("--ambient-dim", type=int, default=None)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", required=True)
    g.set_defaults(func=cmd_gen)

    r = sub.add_parser("run", help="run the solver on a generated dataset")
    r.add_argument("--config", required=True,
                   help="JSON with dataset_dir, out_dir and solver settings")
    r.add_argument("--threads", type=int, default=None,
                   help="override the solver thread count (result is identical "
                        "for any value at a fixed BLAS thread count)")
    r.set_defaults(func=cmd_run)

    rep = sub.add_parser("reproduce", help="run a canned experiment bundle")
    rep.add_argument("name", choices=EXPERIMENT_NAMES)
    rep.add_argument("--out", default=None,
                     help=f"output root (default ${DEFAULT_OUT_ROOT_ENV} or ./runs)")
    rep.add_argument("--seed", type=int, default=0)
    rep.add_argument("--threads", type=int, default=1)
    rep.add_argument("--bootstraps", type=int, default=10)
    rep.add_argument("--override", action="append", default=[], metavar="KEY=VALUE",
                     help="override any dataset/solver field but seed and threads, "
                          "which --seed and --threads set (repeatable)")
    rep.set_defaults(func=cmd_reproduce)

    m = sub.add_parser("metrics", help="re-score an existing reconstruction")
    m.add_argument("--dataset-dir", required=True)
    m.add_argument("--q", required=True, help="reconstruction CSV to score")
    m.add_argument("--sketch", default=None, help="sketch CSV saved by the run")
    m.add_argument("--sketch-dim", type=int, default=10)
    m.add_argument("--seed", type=int, default=0)
    m.add_argument("--out", required=True)
    m.set_defaults(func=cmd_metrics)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, UnreachableSupportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalAbortError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (CloudFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
