"""Maximum likelihood and BIC for compatibly colored DAGs.

Every fit goes through one stacked least-squares kernel, `stacked_ls`,
which solves many vertex color classes ("families") in one call:
`fit_families` (behind `mle` and `bic_score`) passes all
classes of a graph at once, and the greedy search passes the families of
the few candidates its closed form cannot rule out.  Within a family,
parents sharing an edge color contribute a single regressor column equal to
the sum of their sample values, and the families of a class are stacked
into one pooled system (a node lacking parents of some shared edge color
contributes zero-filled rows for that column).  Data are treated as
mean-zero; centering is the caller's decision.

The kernel reads no samples: it fits from the Gram matrix S = X^T X, which a
`Dataset` computes once (`Dataset.gram`).  With A_j the indicator matrix of
node j's regressor columns, the normal equations are G = sum_j A_j^T S A_j
and b = sum_j A_j^T S[:, j], and RSS = sum_j S[j, j] - b^T G^-1 b.  Each G
is scaled to unit diagonal and factored by Cholesky without pivoting, so
each squared pivot is the share of a column's squared norm left
unexplained by the columns before it.  Each family is fitted alone
(`_fit_alone`): its normal equations come from numpy's matrix products,
and the factorization runs on Python floats, since numpy's cost per call
dominates on arrays of a few dozen entries; a family's results, to the
bit, do not depend on the rest of the call.  One relative
tolerance, `RESIDUAL_RTOL`, decides
both failures: a column whose share falls to it is collinear with the
others, and a response whose RSS falls to that share of its squared norm
has zero residual variance.  A family with as many columns as samples is
refused, since it interpolates.  Each failure is reported for its own
family only.  The kernel sorts each family's columns by their sorted edges
before fitting, so a family fits to the same bits whichever order its
caller lists them in, and hands the coefficients back in the caller's order.

The score is the log-likelihood at the MLE minus ln(n)/2 per free parameter
(`family_bic`), and it decomposes over vertex colors, which is what makes
greedy search affordable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import List, Optional, Sequence, Tuple

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


def stacked_ls(S: np.ndarray, families: Sequence[Tuple[Sequence[int], Sequence[Edges]]],
               *, n: int, coefficients: bool = True):
    """Pooled least squares for many vertex color classes in one call, from
    the Gram matrix ``S`` of ``n`` samples.

    Each family is a pair ``(nodes, groups)``: ``nodes`` are the class's
    vertices and ``groups`` its regressor columns, each a tuple of edges
    (i, j) with j in ``nodes``; node j's block of a column is the sum of
    X[:, i] over its edges, or zeros if it has none, and the nodes' blocks
    are stacked into one system.

    Returns the coefficients (None unless ``coefficients``) as an array with
    one row per family, whose first ``len(groups)`` entries are its own, in
    its own column order, and the rest zero; the pooled residual sums of
    squares; and per family either None or the `RankDeficientError` that
    fitting it alone raises.  A family's results do not depend on the others
    in the call, nor on the order of its columns: each is fitted alone
    (`_fit_alone`), with its columns sorted by their sorted edges."""
    if not families:
        return (np.zeros((0, 0)) if coefficients else None), np.zeros(0), []
    norms = S.diagonal().tolist()
    yy = [sum(map(norms.__getitem__, nodes)) for nodes, _ in families]
    # each family's columns in canonical order: sorted by their sorted edges
    columns = [sorted(groups, key=sorted) for _, groups in families]
    rss, collinear, fitted = zip(*(
        _fit_alone(S, nodes, cols, y, coefficients)
        for (nodes, _), cols, y in zip(families, columns, yy)))
    coef = None
    if coefficients:
        coef = np.zeros((len(families), max(map(len, columns))))
        for f, (_, groups) in enumerate(families):
            # back to the caller's column order
            order = sorted(range(len(groups)), key=lambda c: sorted(groups[c]))
            coef[f, order] = fitted[f][:len(groups)]
    errors = [_failure(tuple(nodes), len(cols), n, col, y)
              if len(cols) >= n or col or r <= RESIDUAL_RTOL * y else None
              for (nodes, _), cols, col, r, y in zip(families, columns, collinear, rss, yy)]
    return coef, np.array(rss, dtype=float), errors


def _failure(nodes: Tuple[int, ...], m: int, n: int, collinear: bool,
             yy: float) -> RankDeficientError:
    """The error of a family with ``m`` columns and squared norm ``yy`` that
    the fit refuses."""
    if m >= n:
        # as many regressors as samples: the fit interpolates, and its
        # residual is rounding noise rather than a variance estimate
        msg = (f"the family of {_vertices(nodes)} has {m} regressor "
               f"columns but only {n} samples")
    elif collinear:
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


def _fit_alone(S: np.ndarray, nodes: Sequence[int], columns: List[Edges], yy: float,
               coefficients: bool):
    """One family's RSS, whether it is collinear, and its coefficients in
    ``columns`` order (None unless ``coefficients``).  The normal equations
    are formed per node slot by numpy's matrix products (S A, then A^T S A),
    summed over the slots, scaled to unit diagonal and factored by Cholesky
    on Python floats, where numpy's cost per call would outweigh the
    arithmetic; z^T z and the back-substitution stay in numpy."""
    m = len(columns)
    if not m:
        return yy, False, []
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
    fitted = np.linalg.solve(np.array(U), z[:, None])[:, 0] / d if coefficients else None
    return yy - float(z @ z), collinear, fitted


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
    classes = []
    for grp in cd.vertex_classes:
        nodes = tuple(sorted(grp))
        classes.append((nodes, tuple(sorted({c for k in nodes for c in cd.parent_edge_colors(k)}))))
    coef, rss, errors = stacked_ls(
        data.gram, [(nodes, [cd.edge_classes[c] for c in colors]) for nodes, colors in classes],
        n=data.n)
    for error in errors:
        if error is not None:
            raise error
    lam = [0.0] * len(cd.edge_classes)
    omega, families = [], []
    for cid, ((nodes, colors), r) in enumerate(zip(classes, rss.tolist())):
        families.append(FamilyScore(nodes, colors, family_loglik(data.n, r, nodes)))
        omega.append(r / (data.n * len(nodes)))
        for color, value in zip(colors, coef[cid].tolist()):
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
