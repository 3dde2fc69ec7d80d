"""Maximum likelihood and BIC for compatibly colored DAGs.

One kernel, `family_ls`, fits one vertex color class, and every fit goes
through it: `mle`, `bic_score` and `bic_components` call it once per class,
and the greedy search once per candidate node.  Within a family, parents
sharing an edge color contribute a single regressor column equal to the sum
of their sample values, and the families of a class are stacked into one
pooled system (a node lacking parents of some shared edge color contributes
zero-filled rows for that column).  Data are treated as mean-zero; centering
is the caller's decision.

The kernel reads no samples: it fits from the Gram matrix S = X^T X, which a
`Dataset` computes once (`Dataset.gram`).  With A_j the indicator matrix of
node j's regressor columns, the normal equations are G = sum_j A_j^T S A_j
and b = sum_j A_j^T S[:, j], and RSS = sum_j S[j, j] - b^T G^-1 b.  G is
factored by pivoted Cholesky after scaling it to unit diagonal, so each
pivot is the share of a column's squared norm left unexplained by the
columns before it.  One relative tolerance, `RESIDUAL_RTOL`, decides both
failures: a column whose share falls to it is collinear with the others,
and a response whose RSS falls to that share of its squared norm has zero
residual variance.  A family with as many columns as samples is refused
before it is solved, since it interpolates.  The columns are ordered
canonically first, so a family fits to the same bits whichever order its
caller lists them in.

The score is the log-likelihood at the MLE minus ln(n)/2 per free parameter
(`family_bic`), and it decomposes over vertex colors, which is what makes
greedy search affordable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence, Tuple

import numpy as np
from scipy.linalg.lapack import dpstrf, dtrtrs

from .coloring import ColoredDag
from .errors import CdagError, ColoringError, RankDeficientError
from .files import read_matrix_csv, write_matrix_csv
from .params import ModelParams

LOG_2PI = math.log(2.0 * math.pi)
# unexplained share of a squared norm at or below which a column counts as
# in the span of the others, or a response as fitted exactly
RESIDUAL_RTOL = 1e-10


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

    @cached_property
    def gram(self) -> np.ndarray:
        """The p x p Gram matrix X^T X, from which every fit is computed."""
        s = self.X.T @ self.X
        s.setflags(write=False)
        return s

    @classmethod
    def from_csv(cls, path) -> "Dataset":
        """Read a data CSV (grammar in `cdag.files`): a header row, then one
        row of numbers per sample."""
        names, X = read_matrix_csv(path, header=True)
        if names is None:
            raise CdagError(f"{path}: empty data file")
        if not X.size:
            raise CdagError(f"{path}: no sample rows")
        return cls(X, tuple(h.strip() for h in names))

    def to_csv(self, path) -> None:
        """Write the header, then each sample, so that `from_csv` reads back
        the same array."""
        write_matrix_csv(self.X, path, header=self.column_names())


Edges = Tuple[Tuple[int, int], ...]


def _vertices(nodes: Sequence[int]) -> str:
    """The 1-based vertices of a family, for messages."""
    if len(nodes) == 1:
        return f"vertex {nodes[0] + 1}"
    return "vertices " + ", ".join(str(k + 1) for k in nodes)


def family_ls(S: np.ndarray, nodes: Sequence[int], groups: Sequence[Edges], *, n: int):
    """Pooled least squares for one vertex color class, from the Gram matrix
    ``S`` of ``n`` samples.

    ``nodes`` are the class's vertices and ``groups`` its regressor columns:
    each is a tuple of edges (i, j) with j in ``nodes``, and node j's block
    of the column is the sum of X[:, i] over its edges, or zeros if it has
    none.  The nodes' blocks are stacked into one system.  Returns the
    coefficients, one per column, and the pooled residual sum of squares."""
    m = len(groups)
    if m >= n:
        # as many regressors as samples: the fit interpolates, and its
        # residual is rounding noise rather than a variance estimate
        raise RankDeficientError(
            f"the family of {_vertices(nodes)} has {m} regressor columns "
            f"but only {n} samples", family=tuple(nodes))
    yy = sum(S[k, k] for k in nodes)
    coef = np.zeros(m)
    rss = yy
    if m:
        order = sorted(range(m), key=lambda c: sorted(groups[c]))
        indicator = {k: np.zeros((S.shape[0], m)) for k in nodes}
        for col, c in enumerate(order):
            for i, j in groups[c]:
                indicator[j][i, col] = 1.0
        G = np.zeros((m, m))
        b = np.zeros(m)
        for k, A in indicator.items():
            SA = S @ A
            G += A.T @ SA
            b += SA[k]
        d = np.sqrt(np.diag(G))
        rank = 0   # an all-zero column makes the design singular outright
        if d.all():
            U, piv, rank, _ = dpstrf(G / np.outer(d, d), tol=RESIDUAL_RTOL)
        if rank < m:
            raise RankDeficientError(
                f"collinear regressors in the family of {_vertices(nodes)}",
                family=tuple(nodes))
        piv -= 1
        z = dtrtrs(U, (b / d)[piv], trans=1)[0]
        coef[np.array(order)[piv]] = dtrtrs(U, z)[0] / d[piv]
        rss = yy - z @ z
    if rss <= RESIDUAL_RTOL * yy:
        raise RankDeficientError(
            f"zero residual variance at {_vertices(nodes)}; the model "
            f"interpolates the data", family=tuple(nodes))
    return coef, float(rss)


def family_loglik(n: int, rss: float, nodes: Sequence[int]) -> float:
    """Gaussian log-likelihood of a vertex color class at its MLE."""
    m = n * len(nodes)
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
    S = data.gram
    omega = []
    lam = [0.0] * len(cd.edge_classes)
    families = []
    for cid, grp in enumerate(cd.vertex_classes):
        nodes = tuple(sorted(grp))
        colors = tuple(sorted({c for k in nodes for c in cd.parent_edge_colors(k)}))
        coef, rss = family_ls(S, nodes, [tuple(sorted(cd.edge_classes[c])) for c in colors],
                              n=data.n)
        families.append(FamilyScore(cid, nodes, colors, family_loglik(data.n, rss, nodes)))
        omega.append(rss / (data.n * len(nodes)))
        for color, value in zip(colors, coef):
            lam[color] = float(value)
    return ModelParams(tuple(omega), tuple(lam)), tuple(families)


def mle(cd: ColoredDag, data: Dataset) -> Tuple[ModelParams, float]:
    """Maximum-likelihood parameters and the log-likelihood at the maximum."""
    params, families = fit_families(cd, data)
    return params, math.fsum(f.loglik for f in families)


def bic_components(cd: ColoredDag, data: Dataset) -> Tuple[FamilyScore, ...]:
    """Per-vertex-color score components; their sum is ``bic_score``."""
    return fit_families(cd, data)[1]


def bic_score(cd: ColoredDag, data: Dataset) -> float:
    """Log-likelihood at the MLE minus ln(n)/2 per free parameter (higher
    is better)."""
    return math.fsum(f.score(data.n) for f in bic_components(cd, data))
