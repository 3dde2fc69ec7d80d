"""Maximum likelihood and BIC for compatibly colored DAGs.

Every fit goes through one least-squares kernel, `family_ls`, which solves
one vertex color class (a "family") per call: `fit_families` (behind `mle`
and `bic_score`) calls it once per class of a graph, and the greedy search
once per family of the few candidates its closed form cannot rule out.
Within a family, parents sharing an edge color contribute a single
regressor column equal to the sum of their sample values, and the nodes of
a class are stacked into one pooled system (a node lacking parents of some
shared edge color contributes zero-filled rows for that column).  Data are
treated as mean-zero; centering is the caller's decision.

The kernel reads no samples: it fits from the Gram matrix S = X^T X, which a
`Dataset` computes once (`Dataset.gram`).  With A_j the indicator matrix of
node j's regressor columns, the normal equations are G = sum_j A_j^T S A_j
and b = sum_j A_j^T S[:, j], and RSS = sum_j S[j, j] - b^T G^-1 b.  G is
scaled to unit diagonal and factored by Cholesky without pivoting, so each
squared pivot is the share of a column's squared norm left unexplained by
the columns before it.  One relative tolerance, `RESIDUAL_RTOL`, decides
both failures: a column whose share falls to it is collinear with the
others, and a response whose RSS falls to that share of its squared norm
has zero residual variance.  A class with at least as many columns as
stacked rows (n per node) is refused, since it interpolates.  Each failure
raises a `RankDeficientError` naming the class.  The kernel sorts the
columns by their sorted edges before fitting, so a family fits to the same
bits whichever order its caller lists them in, and hands the coefficients
back in the caller's order.

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
        try:
            x = np.asarray(self.X)
            if x.dtype.kind == "c":   # casting would drop the imaginary parts
                raise TypeError("complex values are not real numbers")
            x = np.asarray(x, dtype=float)
        except (TypeError, ValueError) as exc:   # a ragged row, or a value that is no number
            raise CdagError(f"data must be a 2-d array of numbers: {exc}") from None
        if x.ndim != 2:
            raise CdagError("data must be a 2-d array of samples by variables")
        if x.shape[0] < 1:
            raise CdagError("data must contain at least one sample")
        if not np.isfinite(x).all():
            i, j = np.argwhere(~np.isfinite(x))[0].tolist()
            raise CdagError(f"data sample {i + 1}, column {j + 1} is {x[i, j]}; "
                            f"data must be finite")
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
        """The data less each column's mean.  Finite data whose means or
        centered values pass the float range are an error naming the columns
        involved."""
        with np.errstate(over="ignore", invalid="ignore"):
            x = self.X - self.X.mean(axis=0, keepdims=True)
        _require_finite(x, "centered values")
        return Dataset(x, self.names)

    @cached_property
    def gram(self) -> np.ndarray:
        """The p x p Gram matrix X^T X, from which every fit is computed.
        Finite data whose products pass the float range are an error naming
        the columns involved."""
        with np.errstate(over="ignore", invalid="ignore"):
            s = self.X.T @ self.X
        _require_finite(s, "products")
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


def _require_finite(a: np.ndarray, what: str) -> None:
    """Refuse ``a``, computed from finite data, if some column of it is not
    finite: the data's ``what`` pass the float range."""
    overflowed = np.flatnonzero(~np.isfinite(a).all(axis=0)).tolist()
    if overflowed:
        columns = ", ".join(str(j + 1) for j in overflowed)
        raise CdagError(f"{what} of data column{'s' * (len(overflowed) > 1)} "
                        f"{columns} overflow the float range; rescale the data")


Edges = Tuple[Tuple[int, int], ...]


def _vertices(nodes: Sequence[int]) -> str:
    """The 1-based vertices of a family, for messages."""
    if len(nodes) == 1:
        return f"vertex {nodes[0] + 1}"
    return "vertices " + ", ".join(str(k + 1) for k in nodes)


def family_ls(S: np.ndarray, nodes: Sequence[int], groups: Sequence[Edges], *, n: int,
              coefficients: bool = True):
    """Pooled least squares for one vertex color class, from the Gram matrix
    ``S`` of ``n`` samples: its coefficients, one per column of ``groups`` in
    that order (None unless ``coefficients``), and its residual sum of
    squares.

    ``nodes`` are the class's vertices and ``groups`` its regressor columns,
    each a tuple of edges (i, j) with j in ``nodes``; node j's block of a
    column is the sum of X[:, i] over its edges, or zeros if it has none, and
    the nodes' blocks are stacked into one system of n * len(nodes) rows.
    The columns are fitted sorted by their sorted edges, so the results do
    not depend on their order.  The normal equations are formed per node
    slot by numpy's matrix products (S A, then A^T S A), summed over the
    slots, scaled to unit diagonal and factored by Cholesky on Python
    floats, where numpy's cost per call would outweigh the arithmetic; z^T z
    and the back-substitution stay in numpy.  A class the fit refuses raises
    `RankDeficientError`."""
    nodes = tuple(nodes)
    order = sorted(range(len(groups)), key=lambda c: sorted(groups[c]))
    columns = [groups[c] for c in order]
    m, rows = len(columns), n * len(nodes)
    if m >= rows:
        # as many regressors as stacked rows: the fit interpolates, and its
        # residual is rounding noise rather than a variance estimate
        samples = f"{n} sample{'s' * (n > 1)}" if len(nodes) == 1 else f"{rows} pooled samples"
        raise RankDeficientError(
            f"the family of {_vertices(nodes)} has {m} regressor "
            f"column{'s' * (m > 1)} but only {samples}", family=nodes)
    yy = sum(S.diagonal()[list(nodes)].tolist())
    p = S.shape[0]
    for s, k in enumerate(nodes):
        # node k's slot s: A_k, S A_k, then A_k^T S A_k and A_k^T S[:, k]
        A = np.zeros(p * m)
        A[[i * m + a for a, col in enumerate(columns) for i, j in col if j == k]] = 1.0
        A = A.reshape(p, m)
        SA = S @ A
        GA, bA = (A.T @ SA).tolist(), SA[k].tolist()
        if s:
            G = [[x + y for x, y in zip(g, h)] for g, h in zip(G, GA)]
            b = [x + y for x, y in zip(b, bA)]
        else:
            G, b = GA, bA
    # scale and factor on the upper triangle, which is all they read: G is
    # not bitwise symmetric
    d = [math.sqrt(x if x > 0.0 else 1.0) for x in (G[a][a] for a in range(m))]
    U = [[0.0] * a + [G[a][c] / (d[a] * d[c]) for c in range(a, m)] for a in range(m)]
    z = [x / y for x, y in zip(b, d)]
    collinear = False
    for j, uj in enumerate(U):
        pivot = uj[j]
        if not pivot > RESIDUAL_RTOL:   # np.fmax's clip, NaN included
            collinear, pivot = True, RESIDUAL_RTOL
        r = uj[j] = math.sqrt(pivot)   # the factor's diagonal, for back-substitution
        inv = 1.0 / r
        row = uj[j + 1:] = [x * inv for x in uj[j + 1:]]
        zj = z[j] = z[j] / r
        for a, ra in enumerate(row, j + 1):
            ua = U[a]
            ua[a:] = [x - ra * y for x, y in zip(ua[a:], row[a - j - 1:])]
            z[a] -= ra * zj
    z = np.array(z)
    rss = yy - float(z @ z)
    if collinear or rss <= RESIDUAL_RTOL * yy:
        raise _failure(nodes, collinear, yy)
    if not coefficients:
        return None, rss
    coef = np.empty(m)
    # back to the caller's column order
    coef[order] = np.linalg.solve(np.array(U).reshape(m, m), z[:, None])[:, 0] / d
    return coef, rss


def _failure(nodes: Tuple[int, ...], collinear: bool, yy: float) -> RankDeficientError:
    """The error of a class with squared norm ``yy`` whose fit is collinear
    or leaves no residual variance."""
    if collinear:
        msg = f"collinear regressors in the family of {_vertices(nodes)}"
    elif yy == 0.0:
        # no fit is to blame: there is no variance to explain
        columns = "its data column is" if len(nodes) == 1 else "their data columns are"
        msg = (f"zero residual variance at {_vertices(nodes)}; {columns} all zero "
               f"(a constant column is, once centered)")
    else:
        msg = (f"zero residual variance at {_vertices(nodes)}; the model "
               f"interpolates the data")
    return RankDeficientError(msg, family=nodes)


def family_loglik(n: int, rss, nodes: Sequence[int]):
    """Gaussian log-likelihood of a vertex color class at its MLE; of each
    entry when ``rss`` is an array of residual sums."""
    m = n * len(nodes)
    log = np.log if isinstance(rss, np.ndarray) else math.log
    return -0.5 * m * (LOG_2PI + log(rss / m) + 1.0)


def family_bic(loglik: float, n: int, n_columns: int) -> float:
    """Score contribution of a vertex color class: its log-likelihood minus
    ln(n)/2 for its error variance and for each regressor column."""
    return loglik - 0.5 * math.log(n) * (1 + n_columns)


@dataclass(frozen=True)
class FamilyScore:
    """Score contribution of one vertex color class."""

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
    lam = [0.0] * len(cd.edge_classes)
    omega, families = [], []
    for grp in cd.vertex_classes:
        nodes = tuple(sorted(grp))
        colors = tuple(sorted({c for k in nodes for c in cd.parent_edge_colors(k)}))
        coef, rss = family_ls(data.gram, nodes, [cd.edge_classes[c] for c in colors], n=data.n)
        families.append(FamilyScore(nodes, colors, family_loglik(data.n, rss, nodes)))
        omega.append(rss / (data.n * len(nodes)))
        for color, value in zip(colors, coef.tolist()):
            lam[color] = value
    return ModelParams(tuple(omega), tuple(lam)), tuple(families)


def mle(cd: ColoredDag, data: Dataset) -> Tuple[ModelParams, float]:
    """Maximum-likelihood parameters and the log-likelihood at the maximum."""
    params, families = fit_families(cd, data)
    return params, math.fsum(f.loglik for f in families)


def bic_score(cd: ColoredDag, data: Dataset) -> float:
    """Log-likelihood at the MLE minus ln(n)/2 per free parameter (higher
    is better): the sum of the vertex color classes' family scores."""
    return math.fsum(f.score(data.n) for f in fit_families(cd, data)[1])
