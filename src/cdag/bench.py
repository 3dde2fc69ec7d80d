"""Synthetic benchmark harness: random BPEC models, forward sampling,
recovery metrics, and the sweep runner.

Graphs are Erdos-Renyi in the natural vertex order; single-parent nodes are
repaired so every family can carry a proper coloring; each family's parents
are partitioned round-robin into at most ``nc`` classes of size at least two.
"""

from __future__ import annotations

import math
import sys
import time
from dataclasses import dataclass
from itertools import combinations, product
from typing import List, Sequence, Tuple

import numpy as np

from .coloring import ColoredDag
from .dag import Dag, require_integer
from .errors import CdagError
from .fit import Dataset
from .gecs import BaselineSearch, GecsSearch
from .params import ModelParams, expand_params

RESULT_COLUMNS = ("p", "rho", "nc", "n", "seed", "method", "shd",
                  "sensitivity", "runtime", "error")


def _seed(seed):
    """``seed`` for numpy: a nonnegative integer, or a list or tuple of them;
    otherwise a CdagError that names it."""
    if isinstance(seed, (list, tuple)):
        return [require_integer("seed", s, 0) for s in seed]
    return require_integer("seed", seed, 0)


def random_bpec(p: int, rho: float, nc: int,
                seed) -> Tuple[ColoredDag, ModelParams]:
    """Random BPEC-DAG and model parameters.

    Each edge i -> j with i < j appears with probability rho; a node left
    with exactly one parent gains an extra parent drawn uniformly from the
    earlier non-parents (the lone edge is dropped when no candidate exists,
    which can only happen at the second vertex).  Per node, parents are
    split into min(nc, floor(|pa|/2)) classes; class coefficients are drawn
    from (-1, -0.25] u [0.25, 1) and error variances from [0.5, 2].
    """
    p = require_integer("p", p, 2)
    if not (0.0 < rho < 1.0):
        raise CdagError("edge probability must lie strictly between 0 and 1")
    nc = require_integer("nc", nc, 1)
    rng = np.random.default_rng(_seed(seed))
    parents = [[] for _ in range(p)]
    for i in range(p):
        for j in range(i + 1, p):
            if rng.random() < rho:
                parents[j].append(i)
    for j in range(p):
        if len(parents[j]) == 1:
            candidates = [v for v in range(j) if v not in parents[j]]
            if candidates:
                parents[j].append(int(rng.choice(candidates)))
            else:
                parents[j] = []
    edge_classes = []
    for j in range(p):
        fam = list(parents[j])
        if not fam:
            continue
        k = min(nc, len(fam) // 2)
        rng.shuffle(fam)
        groups = [fam[t::k] for t in range(k)]
        edge_classes.extend([(i, j) for i in grp] for grp in groups)
    graph = Dag(p, [(i, j) for j in range(p) for i in parents[j]])
    cd = ColoredDag(graph, edge_classes=edge_classes)
    ne = len(cd.edge_classes)
    lam = rng.uniform(0.25, 1.0, size=ne) * rng.choice([-1.0, 1.0], size=ne)
    omega = rng.uniform(0.5, 2.0, size=p)
    return cd, ModelParams(tuple(omega), tuple(lam))


def sample(cd: ColoredDag, theta: ModelParams, n: int, seed) -> Dataset:
    """n independent draws by forward simulation along the topological order;
    a CdagError naming the first vertex, in that order, whose draws overflow."""
    n = require_integer("sample size", n, 1)
    rng = np.random.default_rng(_seed(seed))
    w, lam = expand_params(cd, theta)
    x = np.zeros((n, cd.p))
    # each node's terms are summed in the order of the set of its parents
    # built from the edge set, so the draws of a seed keep every bit
    parents = [set() for _ in range(cd.p)]
    for i, j in cd.graph.edges:
        parents[j].add(i)
    with np.errstate(over="ignore", invalid="ignore"):
        for j in cd.graph.topo:
            x[:, j] = rng.normal(0.0, np.sqrt(w[j]), size=n)
            for i in frozenset(parents[j]):
                x[:, j] += lam[i, j] * x[:, i]
    # a non-finite draw spreads only to descendants, so the first is its source
    finite = np.isfinite(x).all(axis=0)
    for j in cd.graph.topo:
        if not finite[j]:
            raise CdagError(f"samples of vertex {j + 1} overflow: the coefficients are too large")
    return Dataset(x)


def shd(g1: Dag, g2: Dag) -> int:
    """Structural Hamming distance: one per adjacency present in only one
    graph, plus one per shared adjacency with opposite orientation."""
    if g1.p != g2.p:
        raise CdagError(f"vertex counts differ: {g1.p} vs {g2.p}")
    s1, s2 = g1.skeleton(), g2.skeleton()
    dist = len(s1 ^ s2)
    for adj in s1 & s2:
        i, j = sorted(adj)
        if ((i, j) in g1.edges) != ((i, j) in g2.edges):
            dist += 1
    return dist


def color_sensitivity(truth: ColoredDag, est: ColoredDag) -> float:
    """Fraction of the truth's same-colored edge pairs that are present and
    same-colored in the estimate; 1 when the truth has no such pair."""
    if truth.p != est.p:
        raise CdagError(f"vertex counts differ: {truth.p} vs {est.p}")
    pairs = [pair for grp in truth.edge_classes
             for pair in combinations(sorted(grp), 2)]
    if not pairs:
        return 1.0
    hit = 0
    for e1, e2 in pairs:
        if (e1 in est.graph.edges and e2 in est.graph.edges
                and est.edge_color(e1) == est.edge_color(e2)):
            hit += 1
    return hit / len(pairs)


# -- sweep runner -------------------------------------------------------------


@dataclass(frozen=True)
class SweepConfig:
    p: Tuple[int, ...]
    rho: Tuple[float, ...]
    nc: Tuple[int, ...]
    n: Tuple[int, ...]
    replicates: int
    seed: int = 0

    @classmethod
    def from_json_dict(cls, doc: dict) -> "SweepConfig":
        if not isinstance(doc, dict):
            raise CdagError("sweep config must be a JSON object")

        def number(key, kind, val):
            # int() would take JSON true and truncate 4.9; neither is a count
            if not (type(val) is int or kind is float and type(val) is float):
                raise CdagError(f"sweep config field {key!r} needs "
                                f"{kind.__name__} values, got {val!r}")
            if not 0 <= val < math.inf:
                raise CdagError(f"sweep config field {key!r} needs finite "
                                f"nonnegative values, got {val!r}")
            return kind(val)

        def grid(key, kind):
            val = doc[key]
            vals = val if isinstance(val, (list, tuple)) else (val,)
            return tuple(number(key, kind, v) for v in vals)
        try:
            return cls(
                p=grid("p", int),
                rho=grid("rho", float),
                nc=grid("nc", int),
                n=grid("n", int),
                replicates=number("replicates", int, doc["replicates"]),
                seed=number("seed", int, doc.get("seed", 0)),
            )
        except KeyError as exc:
            raise CdagError(f"sweep config missing field {exc}") from None


def _cell_seed(root: int, p: int, rho: float, nc: int, n: int, rep: int) -> int:
    # rho * 1000 overflows past rho = 1.8e305; every such rho is an invalid
    # edge probability whose cell reports an error, so they share one key
    scaled = min(rho * 1000, sys.float_info.max)
    ss = np.random.SeedSequence((root, p, int(round(scaled)), nc, n, rep))
    return int(ss.generate_state(1)[0])


METHODS = {"gecs": GecsSearch, "baseline": BaselineSearch}


def _run_cell(p, rho, nc, n, rep, root_seed):
    seed = _cell_seed(root_seed, p, rho, nc, n, rep)
    rows = []
    base = dict(p=p, rho=rho, nc=nc, n=n, seed=seed)
    try:
        truth, theta = random_bpec(p, rho, nc, seed)
        data = sample(truth, theta, n, seed + 1)
    except CdagError as exc:
        for method in METHODS:
            rows.append(dict(base, method=method, shd="", sensitivity="",
                             runtime="", error=str(exc)))
        return rows
    for method, search in METHODS.items():
        t0 = time.perf_counter()
        try:
            est = search(data).run()
            rows.append(dict(base, method=method, shd=shd(truth.graph, est.graph),
                             sensitivity=color_sensitivity(truth, est),
                             runtime=time.perf_counter() - t0, error=""))
        except CdagError as exc:
            rows.append(dict(base, method=method, shd="", sensitivity="",
                             runtime=time.perf_counter() - t0, error=str(exc)))
    return rows


def run_sweep(config: SweepConfig) -> List[dict]:
    """Generate/sample/learn every grid cell and replicate; deterministic
    given the root seed, rows ordered by (cell, replicate, method).  Failed
    cells keep their row with an error tag."""
    cells = [(p, rho, nc, n, rep)
             for p, rho, nc, n in product(config.p, config.rho, config.nc, config.n)
             for rep in range(config.replicates)]
    return [row for c in cells for row in _run_cell(*c, config.seed)]


def write_results_csv(rows: Sequence[dict], path) -> None:
    import csv
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=RESULT_COLUMNS)
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
