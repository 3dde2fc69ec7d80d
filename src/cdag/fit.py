"""Maximum likelihood and BIC for compatibly colored DAGs.

One kernel, `family_ls`, fits one vertex color class, and every fit goes
through it: `mle`, `bic_score` and `bic_components` call it once per class,
and the greedy search once per candidate node.  Within a family, parents
sharing an edge color contribute a single regressor column equal to the sum
of their sample values, and the families of a class are stacked into one
pooled system (a node lacking parents of some shared edge color contributes
zero-filled rows for that column).  Data are treated as mean-zero; centering
is the caller's decision.

The score is the log-likelihood at the MLE minus ln(n)/2 per free parameter
(`family_bic`), and it decomposes over vertex colors, which is what makes
greedy search affordable.
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


def _qr_solve(design: np.ndarray, y: np.ndarray, nodes) -> np.ndarray:
    """Least squares via column-pivoted QR; a rank-deficient design is an
    error rather than a silent pseudo-inverse."""
    q, r, perm = qr(design, mode="economic", pivoting=True)
    diag = np.abs(np.diag(r))
    if diag.size < design.shape[1] or diag.max() == 0.0 \
            or diag.min() <= RANK_RTOL * diag.max():
        raise RankDeficientError(
            f"collinear regressors in the family of {_vertices(nodes)}",
            family=tuple(nodes))
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
                rows = [[float(c) for c in row] for row in reader if row]
            except StopIteration:
                raise CdagError(f"{path}: empty data file") from None
            except UnicodeDecodeError:
                raise CdagError(f"{path}: not UTF-8 text") from None
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


Edges = Tuple[Tuple[int, int], ...]


def _vertices(nodes: Sequence[int]) -> str:
    """The 1-based vertices of a family, for messages."""
    if len(nodes) == 1:
        return f"vertex {nodes[0] + 1}"
    return "vertices " + ", ".join(str(k + 1) for k in nodes)


def family_ls(X: np.ndarray, nodes: Sequence[int], groups: Sequence[Edges]):
    """Pooled least squares for one vertex color class.

    ``nodes`` are the class's vertices and ``groups`` its regressor columns:
    each is a tuple of edges (i, j) with j in ``nodes``, and node j's block
    of the column is the sum of X[:, i] over its edges, in ascending i, or
    zeros if it has none.  The nodes' blocks are stacked into one system.
    Returns the coefficients, one per column, and the pooled residual sum of
    squares."""
    n = X.shape[0]
    # a single node's column is read in place, in the caller's memory layout
    y = X[:, nodes[0]] if len(nodes) == 1 else np.concatenate([X[:, k] for k in nodes])
    if not groups:
        return np.zeros(0), float(y @ y)
    if len(groups) >= n:
        # as many regressors as samples: the fit interpolates, and its
        # residual is rounding noise rather than a variance estimate
        raise RankDeficientError(
            f"the family of {_vertices(nodes)} has {len(groups)} regressor "
            f"columns but only {n} samples", family=tuple(nodes))
    design = np.zeros((len(y), len(groups)))
    for row, k in enumerate(nodes):
        block = design[row * n:(row + 1) * n]
        for col, edges in enumerate(groups):
            parents = sorted(i for i, j in edges if j == k)
            if parents:
                block[:, col] = X[:, parents].sum(axis=1)
    coef = _qr_solve(design, y, nodes)
    resid = y - design @ coef
    return coef, float(resid @ resid)


def family_loglik(n: int, rss: float, nodes: Sequence[int]) -> float:
    """Gaussian log-likelihood of a vertex color class at its MLE."""
    m = n * len(nodes)
    if rss <= 0.0:
        raise RankDeficientError(
            f"zero residual variance at {_vertices(nodes)}; the model "
            f"interpolates the data", family=tuple(nodes))
    omega = rss / m
    return -0.5 * m * (LOG_2PI + math.log(omega) + 1.0)


def family_bic(loglik: float, n: int, n_columns: int) -> float:
    """Score contribution of a vertex color class: its log-likelihood minus
    ln(n)/2 for its error variance and for each regressor column."""
    return loglik - 0.5 * math.log(n) * (1 + n_columns)


@dataclass(frozen=True)
class FamilyScore:
    """Score contribution of one vertex color class."""

    vertex_class: int
    nodes: Tuple[int, ...]
    edge_colors: Tuple[int, ...]
    loglik: float

    def score(self, n: int) -> float:
        return family_bic(self.loglik, n, len(self.edge_colors))


def fit_families(cd: ColoredDag, data: Dataset):
    """Maximum-likelihood parameters and the per-vertex-color score
    components, from one least-squares fit per vertex color class."""
    if data.p != cd.p:
        raise CdagError(f"data has {data.p} columns but the graph has {cd.p} vertices")
    if not cd.is_compatible():
        raise ColoringError(
            "maximum likelihood requires a compatible coloring "
            "(same-colored edges must enter same-colored vertices)")
    # column-major, so that each node's response column is contiguous; BLAS
    # sums a strided column in another order, which moves the last bits
    X = np.asfortranarray(data.X)
    omega = []
    lam = [0.0] * len(cd.edge_classes)
    families = []
    for cid, grp in enumerate(cd.vertex_classes):
        nodes = tuple(sorted(grp))
        colors = tuple(sorted({c for k in nodes for c in cd.parent_edge_colors(k)}))
        coef, rss = family_ls(X, nodes, [tuple(sorted(cd.edge_classes[c])) for c in colors])
        families.append(FamilyScore(cid, nodes, colors, family_loglik(data.n, rss, nodes)))
        omega.append(rss / (data.n * len(nodes)))
        for color, value in zip(colors, coef):
            lam[color] = float(value)
    return ModelParams(tuple(omega), tuple(lam)), tuple(families)


def mle(cd: ColoredDag, data: Dataset) -> Tuple[ModelParams, float]:
    """Maximum-likelihood parameters and the log-likelihood at the maximum."""
    params, families = fit_families(cd, data)
    return params, sum(f.loglik for f in families)


def bic_components(cd: ColoredDag, data: Dataset) -> Tuple[FamilyScore, ...]:
    """Per-vertex-color score components; their sum is ``bic_score``."""
    return fit_families(cd, data)[1]


def bic_score(cd: ColoredDag, data: Dataset) -> float:
    """Log-likelihood at the MLE minus ln(n)/2 per free parameter (higher
    is better)."""
    return sum(f.score(data.n) for f in bic_components(cd, data))
