"""Command-line interface: simulate / learn / score / check / identify /
equiv / bench over the package's file formats.

Machine-readable results go to stdout (pretty-printed JSON or files named by
flags); logs go to stderr.  Exit codes: 0 success, 1 domain error, 2 usage
error.  All randomness flows through explicit ``--seed`` flags.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys

import numpy as np

from . import bench as bench_mod
from .coloring import (ColoredDag, read_adjacency_csv, read_graph_json,
                       write_graph_json)
from .constraints import check_global_markov, check_local_markov, model_equivalent
from .errors import CdagError
from .files import read_json, read_matrix_csv
from .fit import Dataset, fit_families
from .gecs import BaselineSearch, GecsSearch
from .identify import identifying_sets
from .params import ModelParams, random_params


def _read_graph(path) -> ColoredDag:
    # adjacency matrices are accepted read-only; JSON is the canonical format
    if str(path).lower().endswith(".csv"):
        return read_adjacency_csv(path)
    return read_graph_json(path)


def _emit(doc) -> None:
    json.dump(doc, sys.stdout, indent=2)
    sys.stdout.write("\n")


def _log(msg) -> None:
    print(msg, file=sys.stderr)


def _param_key(cd: ColoredDag, cid: int, kind: str) -> str:
    base = cd.base_parameter(cid, kind)
    if kind == "vertex":
        return f"v{base + 1}"
    return f"{base[0] + 1}->{base[1] + 1}"


def params_to_json_dict(cd: ColoredDag, theta: ModelParams) -> dict:
    """Parameters keyed by the base vertex/edge of each color class."""
    return {
        "omega": {_param_key(cd, c, "vertex"): theta.omega[c]
                  for c in range(len(cd.vertex_classes))},
        "lambda": {_param_key(cd, c, "edge"): theta.lam[c]
                   for c in range(len(cd.edge_classes))},
    }


def params_from_json_dict(cd: ColoredDag, doc: dict) -> ModelParams:
    if not isinstance(doc, dict):
        raise CdagError("parameter JSON must be a JSON object")

    def values(field, kind, n_classes, what):
        if field not in doc:
            raise CdagError(f"parameter JSON missing field {field!r}")
        entries = doc[field]
        if not isinstance(entries, dict):
            raise CdagError(f"parameter JSON field {field!r} must be a JSON object")
        out = []
        for c in range(n_classes):
            key = _param_key(cd, c, kind)
            if key not in entries:
                raise CdagError(f"missing {what} for class {key!r}")
            value = entries[key]
            # a JSON number: true and "2.5" would pass float()
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise CdagError(f"parameter JSON field {field!r}: the value "
                                f"{value!r} of class {key!r} is not a number")
            try:
                out.append(float(value))
            except OverflowError:
                raise CdagError(f"parameter JSON field {field!r}: the value of "
                                f"class {key!r} is too large for a float") from None
        return tuple(out)
    return ModelParams(
        values("omega", "vertex", len(cd.vertex_classes), "error variance"),
        values("lambda", "edge", len(cd.edge_classes), "coefficient"))


# -- subcommands ---------------------------------------------------------------


def cmd_simulate(args) -> int:
    if args.graph is not None:
        cd = _read_graph(args.graph)
        if args.params is not None:
            theta = params_from_json_dict(cd, read_json(args.params))
        else:
            theta = random_params(cd, np.random.default_rng(args.seed))
    else:
        if args.p is None or args.rho is None or args.nc is None:
            raise CdagError("simulate needs either --graph or all of --p/--rho/--nc")
        cd, theta = bench_mod.random_bpec(args.p, args.rho, args.nc, args.seed)
    data = bench_mod.sample(cd, theta, args.n, args.seed + 1)
    data.to_csv(args.out)
    if args.graph_out is not None:
        write_graph_json(cd, args.graph_out)
    if args.params_out is not None:
        with open(args.params_out, "w", encoding="utf-8") as fh:
            json.dump(params_to_json_dict(cd, theta), fh, indent=2)
            fh.write("\n")
    _emit({"samples": data.n, "variables": data.p, "data": str(args.out)})
    return 0


def cmd_learn(args) -> int:
    data = Dataset.from_csv(args.data)
    if args.center:
        data = data.centered()
    search = (BaselineSearch if args.baseline else GecsSearch)(data, move_budget=args.budget)
    result = search.run()
    if args.trace is not None:
        with open(args.trace, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(("step", "phase", "move", "score"))
            for row in search.trace:
                writer.writerow((row.step, row.phase, row.move, f"{row.score:.17g}"))
    _log(f"final score {search.trace[-1].score:.6f} "
         f"after {len(search.trace) - 1} accepted moves")
    _emit(result.to_json_dict())
    return 0


def cmd_score(args) -> int:
    cd = _read_graph(args.graph)
    data = Dataset.from_csv(args.data)
    if args.center:
        data = data.centered()
    theta, families = fit_families(cd, data)
    _emit({
        "loglik": math.fsum(f.loglik for f in families),
        "bic": math.fsum(f.score(data.n) for f in families),
        "n_params": cd.n_params,
        "params": params_to_json_dict(cd, theta),
    })
    return 0


def cmd_check(args) -> int:
    cd = _read_graph(args.graph)
    _, sigma = read_matrix_csv(args.sigma)
    reports = [check_local_markov(sigma, cd, tol=args.tol)]
    if getattr(args, "global"):
        seed = 0 if args.seed is None else args.seed
        reports.append(check_global_markov(sigma, cd, tol=args.tol,
                                           budget=args.budget, seed=seed))
    _emit({"reports": [r.to_json_dict() for r in reports]})
    return 0 if all(r.ok for r in reports) else 1


def cmd_identify(args) -> int:
    cd = _read_graph(args.graph)
    if (args.vertex is None) == (args.edge is None):
        raise CdagError("identify needs exactly one of --vertex or --edge")
    if args.vertex is not None:
        target = args.vertex - 1
        label = {"vertex": args.vertex}
    else:
        try:
            i, j = (int(v) for v in args.edge.split(","))
        except ValueError:
            raise CdagError("--edge expects two comma-separated vertices, e.g. 1,2")
        target = (i - 1, j - 1)
        label = {"edge": [i, j]}
    sets = [[v + 1 for v in s] for s in identifying_sets(cd.graph, target)]
    _emit({**label, "sets": sorted(sets, key=lambda s: (len(s), s))})
    return 0


def cmd_equiv(args) -> int:
    a = _read_graph(args.a)
    b = _read_graph(args.b)
    result = model_equivalent(a, b, trials=args.trials, tol=args.tol, seed=args.seed)
    _emit(result.to_json_dict())
    return 0


def cmd_bench(args) -> int:
    config = bench_mod.SweepConfig.from_json_dict(read_json(args.config))
    rows = bench_mod.run_sweep(config)
    bench_mod.write_results_csv(rows, args.out)
    failed = sum(1 for r in rows if r["error"])
    _log(f"{len(rows)} rows written to {args.out}; {failed} failed")
    _emit({"rows": len(rows), "failed": failed, "out": str(args.out)})
    return 0


def _seed(text: str) -> int:
    """A ``--seed`` value: a nonnegative integer, as numpy's generators need."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"must be a nonnegative integer, got {text!r}")
    return int(text)


TOL_HELP = ("bound on each relation's dimensionless residual: a partial "
            "correlation, or the relative difference of two conditional variances "
            "or regression coefficients (default 1e-7)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cdag",
        description="Colored Gaussian DAG models: simulation, learning, "
                    "scoring, and model checking.",
        epilog="Flags always win; there are no config-file overrides.")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="draw samples from a colored DAG model")
    sim.add_argument("--graph", help="colored-DAG JSON to sample from")
    sim.add_argument("--params", help="parameter JSON (with --graph); random if omitted")
    sim.add_argument("--p", type=int, help="vertex count for a random BPEC model")
    sim.add_argument("--rho", type=float, help="edge probability for a random model")
    sim.add_argument("--nc", type=int, help="color classes per family for a random model")
    sim.add_argument("--n", type=int, required=True, help="sample count")
    sim.add_argument("--seed", type=_seed, default=0)
    sim.add_argument("--out", required=True, help="output data CSV")
    sim.add_argument("--graph-out", help="also write the model graph JSON here")
    sim.add_argument("--params-out", help="also write the model parameters here")
    sim.set_defaults(func=cmd_simulate)

    learn = sub.add_parser("learn", help="greedy edge-colored search on a data CSV")
    learn.add_argument("--data", required=True)
    learn.add_argument("--budget", type=int, default=None,
                       help="accepted-move budget (default 10 p^3)")
    learn.add_argument("--baseline", action="store_true",
                       help="uncolored GES-style hill climbing instead of GECS")
    learn.add_argument("--center", action=argparse.BooleanOptionalAction, default=True,
                       help="subtract column means before fitting (default on)")
    learn.add_argument("--trace", help="write the score trace CSV here")
    learn.set_defaults(func=cmd_learn)

    score = sub.add_parser("score", help="MLE and BIC of a graph on a data CSV")
    score.add_argument("--graph", required=True)
    score.add_argument("--data", required=True)
    score.add_argument("--center", action=argparse.BooleanOptionalAction, default=True)
    score.set_defaults(func=cmd_score)

    check = sub.add_parser("check", help="Markov-property check of a covariance matrix")
    check.add_argument("--graph", required=True)
    check.add_argument("--sigma", required=True, help="covariance CSV")
    check.add_argument("--tol", type=float, default=1e-7, help=TOL_HELP)
    check.add_argument("--global", action="store_true", default=None,
                       help="also check the global property")
    check.add_argument("--budget", type=int, default=None,
                       help="with --global: sample this many global constraints "
                            "instead of enumerating")
    check.add_argument("--seed", type=_seed, default=None,
                       help="with --global --budget: seed of the sampled "
                            "constraints (default 0)")
    check.set_defaults(func=cmd_check)

    ident = sub.add_parser("identify", help="enumerate identifying sets")
    ident.add_argument("--graph", required=True)
    ident.add_argument("--vertex", type=int, help="1-based vertex")
    ident.add_argument("--edge", help="1-based edge as i,j")
    ident.set_defaults(func=cmd_identify)

    equiv = sub.add_parser("equiv", help="numeric model-equivalence test")
    equiv.add_argument("--a", required=True)
    equiv.add_argument("--b", required=True)
    equiv.add_argument("--trials", type=int, default=20)
    equiv.add_argument("--tol", type=float, default=1e-7, help=TOL_HELP)
    equiv.add_argument("--seed", type=_seed, default=0)
    equiv.set_defaults(func=cmd_equiv)

    benchp = sub.add_parser("bench", help="run a synthetic sweep")
    benchp.add_argument("--config", required=True, help="sweep JSON")
    benchp.add_argument("--out", required=True, help="results CSV")
    benchp.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "check":
        for flag, needs in (("budget", "global"), ("seed", "global"), ("seed", "budget")):
            if getattr(args, flag) is not None and getattr(args, needs) is None:
                parser.error(f"check --{flag} needs --{needs}")
    if args.command == "simulate":
        if args.params is not None and args.graph is None:
            parser.error("simulate --params needs --graph")
        for flag in ("p", "rho", "nc"):
            if getattr(args, flag) is not None and args.graph is not None:
                parser.error(f"simulate --{flag} cannot be used with --graph")
    try:
        return args.func(args)
    except (CdagError, OSError) as exc:
        _log(f"error: {exc}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
