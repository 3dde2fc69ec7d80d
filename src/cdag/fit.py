"""Maximum likelihood and BIC for compatibly colored DAGs.

Fitting solves one least-squares problem per vertex color: within a family,
parents sharing an edge color contribute a single regressor column equal to
the sum of their sample values, and families sharing a vertex color are
stacked into one pooled system (a node lacking parents of some shared edge
color contributes zero-filled rows for that column).  Data are treated as
mean-zero; centering is the caller's decision.

The score is the log-likelihood at the MLE minus ln(n)/2 per free parameter,
and it decomposes over vertex colors, which is what makes greedy search
affordable.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np
from scipy.linalg import qr, solve_triangular

from .coloring import ColoredDag
from .errors import CdagError, ColoringError, RankDeficientError
from .params import ModelParams

LOG_2PI = math.log(2.0 * math.pi)
RANK_RTOL = 1e-10   # relative R-diagonal cutoff for calling a design singular


def _qr_solve(design: np.ndarray, y: np.ndarray, family) -> np.ndarray:
    """Least squares via column-pivoted QR; a rank-deficient design is an
    error rather than a silent pseudo-inverse."""
    q, r, perm = qr(design, mode="economic", pivoting=True)
    diag = np.abs(np.diag(r))
    if diag.size < design.shape[1] or diag.max() == 0.0 \
            or diag.min() <= RANK_RTOL * diag.max():
        raise RankDeficientError(
            f"collinear grouped design for family {family}", family=family)
    coef = np.empty(design.shape[1])
    coef[perm] = solve_triangular(r, q.T @ y)
    return coef


@dataclass(frozen=True)
class Dataset:
    """n x p sample matrix; rows are samples, columns align with vertices."""

    X: np.ndarray
    names: Optional[Tuple[str, ...]] = None

    def __post_init__(self):
        x = np.asarray(self.X, dtype=float)
        if x.ndim != 2:
            raise CdagError("data must be a 2-d array of samples by variables")
        if x.shape[0] < 1:
            raise CdagError("data must contain at least one sample")
        if not np.all(np.isfinite(x)):
            raise CdagError("data contains missing or non-finite values")
        x = x.copy()
        x.setflags(write=False)
        object.__setattr__(self, "X", x)
        if self.names is not None:
            names = tuple(str(s) for s in self.names)
            if len(names) != x.shape[1]:
                raise CdagError("header length does not match column count")
            object.__setattr__(self, "names", names)

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def p(self) -> int:
        return self.X.shape[1]

    def column_names(self) -> Tuple[str, ...]:
        if self.names is not None:
            return self.names
        return tuple(f"x{i + 1}" for i in range(self.p))

    def centered(self) -> "Dataset":
        return Dataset(self.X - self.X.mean(axis=0, keepdims=True), self.names)

    @classmethod
    def from_csv(cls, path) -> "Dataset":
        """Read a CSV with a header row; errors name the file row, counting
        the header as row 1."""
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise CdagError(f"{path}: empty data file") from None
            try:
                rows = [[float(c) for c in row] for row in reader if row]
            except ValueError as exc:
                raise CdagError(f"{path}: row {reader.line_num}: {exc}") from None
        if not rows:
            raise CdagError(f"{path}: no sample rows")
        try:
            X = np.array(rows, dtype=float)
        except ValueError:
            raise CdagError(_ragged_row_message(path, len(header))) from None
        return cls(X, tuple(h.strip() for h in header))

    def to_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(self.column_names())
            for row in self.X:
                writer.writerow([f"{v:.17g}" for v in row])


def _ragged_row_message(path, width: int) -> str:
    """Name the first row of a data CSV whose field count differs from the
    header's; only called once parsing has shown that some row does."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        for row in reader:
            if row and len(row) != width:
                return (f"{path}: row {reader.line_num}: expected {width} "
                        f"fields as in the header, got {len(row)}")
    return f"{path}: rows have different field counts"


Groups = Tuple[Tuple[int, ...], ...]


def family_ls(X: np.ndarray, k: int, groups: Groups):
    """Least squares for one node: one regressor per parent group, the
    column being the sum of that group's parent columns.  Returns the
    coefficient vector and the residual sum of squares."""
    y = X[:, k]
    if not groups:
        return np.zeros(0), float(y @ y)
    if len(groups) >= len(y):
        # as many regressors as samples: the fit interpolates, and its
        # residual is rounding noise rather than a variance estimate
        raise RankDeficientError(
            f"family {k} has {len(groups)} parent groups but only {len(y)} samples",
            family=k)
    design = np.column_stack([X[:, list(grp)].sum(axis=1) for grp in groups])
    coef = _qr_solve(design, y, family=k)
    resid = y - design @ coef
    return coef, float(resid @ resid)


def family_loglik(n: int, rss: float, n_nodes: int = 1) -> float:
    """Gaussian log-likelihood contribution of a pooled family at its MLE."""
    m = n * n_nodes
    if rss <= 0.0:
        raise RankDeficientError("zero residual variance; model interpolates the data")
    omega = rss / m
    return -0.5 * m * (LOG_2PI + math.log(omega) + 1.0)


def _pooled_fit(X: np.ndarray, nodes: Sequence[int], parent_groups, n: int):
    """Stacked least squares for the nodes of one vertex color.

    ``parent_groups`` maps each node to its {edge color -> parent tuple};
    the regressor columns are indexed by the union of edge colors, and a
    node without parents of some color contributes zeros there.
    """
    colors = sorted({c for k in nodes for c in parent_groups[k]})
    if n <= len(colors):
        raise CdagError(
            f"need more than {len(colors)} samples to fit the family of "
            f"nodes {[k + 1 for k in nodes]}")
    y = np.concatenate([X[:, k] for k in nodes])
    if colors:
        design = np.zeros((n * len(nodes), len(colors)))
        for row, k in enumerate(nodes):
            block = slice(row * n, (row + 1) * n)
            for col, color in enumerate(colors):
                parents = parent_groups[k].get(color)
                if parents:
                    design[block, col] = X[:, list(parents)].sum(axis=1)
        coef = _qr_solve(design, y, family=tuple(nodes))
        resid = y - design @ coef
    else:
        coef = np.zeros(0)
        resid = y
    rss_by_node = {k: float(resid[row * n:(row + 1) * n] @ resid[row * n:(row + 1) * n])
                   for row, k in enumerate(nodes)}
    return colors, coef, rss_by_node


@dataclass(frozen=True)
class FamilyScore:
    """Score contribution of one vertex color class."""

    vertex_class: int
    nodes: Tuple[int, ...]
    edge_colors: Tuple[int, ...]
    loglik: float
    n_params: int

    def score(self, n: int) -> float:
        return self.loglik - 0.5 * math.log(n) * self.n_params


def _fit_families(cd: ColoredDag, data: Dataset):
    if data.p != cd.p:
        raise CdagError(f"data has {data.p} columns but the graph has {cd.p} vertices")
    if not cd.is_compatible():
        raise ColoringError(
            "maximum likelihood requires a compatible coloring "
            "(same-colored edges must enter same-colored vertices)")
    g = cd.graph
    parent_groups = {k: {} for k in range(cd.p)}
    for k in range(cd.p):
        for j in sorted(g.parents(k)):
            parent_groups[k].setdefault(cd.edge_color((j, k)), []).append(j)
        parent_groups[k] = {c: tuple(v) for c, v in parent_groups[k].items()}
    omega = [0.0] * len(cd.vertex_classes)
    lam = [0.0] * len(cd.edge_classes)
    families = []
    for cid, grp in enumerate(cd.vertex_classes):
        nodes = tuple(sorted(grp))
        colors, coef, rss_by_node = _pooled_fit(data.X, nodes, parent_groups, data.n)
        total_rss = sum(rss_by_node.values())
        families.append(FamilyScore(
            vertex_class=cid,
            nodes=nodes,
            edge_colors=tuple(colors),
            loglik=family_loglik(data.n, total_rss, n_nodes=len(nodes)),
            n_params=1 + len(colors),
        ))
        omega[cid] = total_rss / (data.n * len(nodes))
        for color, value in zip(colors, coef):
            lam[color] = float(value)
    return ModelParams(tuple(omega), tuple(lam)), tuple(families)


def mle(cd: ColoredDag, data: Dataset) -> Tuple[ModelParams, float]:
    """Maximum-likelihood parameters and the log-likelihood at the maximum."""
    params, families = _fit_families(cd, data)
    return params, sum(f.loglik for f in families)


def bic_components(cd: ColoredDag, data: Dataset) -> Tuple[FamilyScore, ...]:
    """Per-vertex-color score components; their sum is ``bic_score``."""
    _, families = _fit_families(cd, data)
    return families


def bic_score(cd: ColoredDag, data: Dataset) -> float:
    """Log-likelihood at the MLE minus ln(n)/2 per free parameter (higher
    is better)."""
    _, families = _fit_families(cd, data)
    return sum(f.score(data.n) for f in families)
