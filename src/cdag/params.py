"""Covariance parametrization of colored DAG models and parameter recovery.

The forward map sends per-class error variances and structural coefficients
to the covariance matrix (I - L)^-T W (I - L)^-1.  Because I - L is
triangular under a topological order, it is evaluated with two triangular
solves; an explicit inverse is never formed.  One compiled kernel,
``Covariances``, evaluates it at one model point or at a stack of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .coloring import ColoredDag
from .dag import Dag, first_refused, vertex
from .errors import CdagError, ColoringError, GraphError, NotPositiveDefiniteError
from .files import write_matrix_csv  # noqa: F401  (re-exported for perfbench)

SYMMETRY_TOL = 1e-12   # largest |sigma - sigma^T| entry, relative to 1 + max |sigma|
_SIGNS = np.array([-1.0, 1.0])


@dataclass(frozen=True)
class ModelParams:
    """One error variance per vertex class, one coefficient per edge class,
    indexed by the canonical class ids of a ColoredDag."""

    omega: Tuple[float, ...]
    lam: Tuple[float, ...]

    def __post_init__(self):
        for field, kind in (("omega", "error variances"), ("lam", "coefficients")):
            values = getattr(self, field)
            try:
                values = tuple(float(v) for v in values)
            except (TypeError, ValueError):
                bad = first_refused(values, float)
                raise ColoringError(f"{kind} must be real numbers, got {bad!r}") from None
            for v in values:
                if not math.isfinite(v):
                    raise ColoringError(f"{kind} must be finite, got {v}")
            object.__setattr__(self, field, values)
        for w in self.omega:
            if not w > 0:
                raise ColoringError(f"error variances must be positive, got {w}")


def check_params(cd: ColoredDag, theta: ModelParams) -> None:
    if len(theta.omega) != len(cd.vertex_classes):
        raise ColoringError(
            f"expected {len(cd.vertex_classes)} omega values, got {len(theta.omega)}")
    if len(theta.lam) != len(cd.edge_classes):
        raise ColoringError(
            f"expected {len(cd.edge_classes)} lambda values, got {len(theta.lam)}")


def expand_params(cd: ColoredDag, theta: ModelParams) -> Tuple[np.ndarray, np.ndarray]:
    """Per-vertex variance vector and p x p coefficient matrix."""
    check_params(cd, theta)
    w = np.array([theta.omega[cd.vertex_color(i)] for i in range(cd.p)])
    lam = np.zeros((cd.p, cd.p))
    for e in cd.graph.edges:
        lam[e] = theta.lam[cd.edge_color(e)]
    return w, lam


def _draw(rng: np.random.Generator, nv: int, ne: int) -> Tuple[np.ndarray, np.ndarray]:
    """The error variances and coefficients of one random model point, drawn
    in this order: the variances, the coefficients' magnitudes, their signs."""
    omega = rng.uniform(0.5, 2.0, size=nv)
    # _SIGNS[rng.integers(0, 2, size)] is rng.choice(_SIGNS, size), draw for
    # draw, at half the cost of its argument handling
    lam = rng.uniform(0.25, 1.0, size=ne) * _SIGNS[rng.integers(0, 2, size=ne)]
    return omega, lam


def random_params(cd: ColoredDag, rng: np.random.Generator) -> ModelParams:
    """Coefficients uniform on (-1, -0.25] u [0.25, 1), variances uniform on
    [0.5, 2]: the magnitudes used throughout the synthetic experiments."""
    omega, lam = _draw(rng, len(cd.vertex_classes), len(cd.edge_classes))
    return ModelParams(tuple(omega), tuple(lam))


class Covariances:
    """The forward map of one colored model, compiled once and evaluated at
    a stack of model points.

    Under the topological order M = I - L is unit upper triangular, and
    sigma = M^-T diag(w) M^-1 takes two batched solves against M^T.  While
    every |coefficient| < 1 their LU exchanges no rows, so each is a forward
    substitution.  The stack is then permuted back and symmetrized at once.
    """

    def __init__(self, cd: ColoredDag):
        order = np.array(cd.graph.topo, dtype=int)
        inv = np.empty_like(order)
        inv[order] = np.arange(cd.p)
        edges = sorted(cd.graph.edges)
        # in topological coordinates: each vertex's class, and each edge's
        # row, column and class in M
        self._vertex = np.array([cd.vertex_color(v) for v in order], dtype=int)
        self._rows = inv[np.array([i for i, _ in edges], dtype=int)]
        self._cols = inv[np.array([j for _, j in edges], dtype=int)]
        self._edge = np.array([cd.edge_color(e) for e in edges], dtype=int)
        self._classes = len(cd.vertex_classes), len(cd.edge_classes)
        # flat positions, in a topological p x p matrix, of each vertex-order entry
        self._back = (inv[:, None] * cd.p + inv).ravel()
        self.p = cd.p

    def __call__(self, omega: np.ndarray, lam: np.ndarray) -> np.ndarray:
        """The covariance at each point: error variances (t, classes) and
        coefficients (t, classes) give shape (t, p, p)."""
        t, p = len(omega), self.p
        diag = np.arange(p)
        mt = np.zeros((t, p, p))
        mt[:, diag, diag] = 1.0
        # 0.0 - x, not -x: the entries of (I - L)^T, signed zeros included
        mt[:, self._cols, self._rows] = 0.0 - lam[:, self._edge]
        w = np.zeros((t, p, p))
        w[:, diag, diag] = omega[:, self._vertex]
        # rebinding w frees its input: three p x p stacks at most, as _Evaluator assumes
        w = np.linalg.solve(mt, w)
        out = np.linalg.solve(mt, w.swapaxes(1, 2))
        del mt, w
        # sigma, up to a transpose that the symmetrization undoes exactly,
        # since a + b == b + a in floating point
        sigma = np.take(out.reshape(t, p * p), self._back, axis=1).reshape(out.shape)
        return (sigma + sigma.swapaxes(1, 2)) / 2.0

    def draw(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """The covariances at ``count`` random model points, drawn in the
        order of that many ``random_params`` calls: shape (count, p, p)."""
        omega, lam = np.empty((count, self._classes[0])), np.empty((count, self._classes[1]))
        for t in range(count):
            omega[t], lam[t] = _draw(rng, *self._classes)
        return self(omega, lam)


def parametrize(cd: ColoredDag, theta: ModelParams) -> np.ndarray:
    """Covariance matrix of the colored model at ``theta``; a CdagError if
    it overflows."""
    check_params(cd, theta)
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            sigma = Covariances(cd)(np.array([theta.omega]), np.array([theta.lam]))[0]
        except np.linalg.LinAlgError:   # past the float range a pivot can underflow to 0
            sigma = np.inf
    if not np.isfinite(sigma).all():
        raise CdagError("the covariance matrix overflows: the coefficients are too large")
    return sigma


# -- minors and rational recovery functions ------------------------------


def minor(sigma: np.ndarray, rows, cols):
    """Determinant of the (rows, cols) submatrix; the empty minor is 1.

    One indexed determinant call serves every shape: given two 2-d arrays,
    one index set per row, it returns the array of the stacked minors, and
    for a stack of matrices (shape (t, p, p)) the minors come out with the
    stack's axis first, as shape (t,) or (t, rows).  The indices are not
    checked: this is the checkers' evaluation path, which builds them
    itself, so a negative index wraps around as in numpy.
    """
    rows = np.asarray(rows, dtype=int)
    cols = np.asarray(cols, dtype=int)
    if rows.shape != cols.shape:
        raise ColoringError("minor needs index sets of equal size")
    return np.linalg.det(sigma[..., rows[..., :, None], cols[..., None, :]])


def _checked(sigma: np.ndarray, vertices) -> Tuple[np.ndarray, List[int]]:
    """``sigma`` as an array, and ``vertices`` as its indices: integers, not
    bools, in 0..p-1; otherwise a GraphError that names the first bad one,
    1-based.  A sigma that is not a square, finite 2-d array of numbers is
    a CdagError."""
    sigma = np.asarray(sigma)
    if not (sigma.ndim == 2 and sigma.shape[0] == sigma.shape[1]
            and sigma.dtype.kind in "iuf" and np.isfinite(sigma).all()):
        raise CdagError(f"sigma must be a square, finite 2-d array of numbers, "
                        f"got {sigma.dtype} of shape {sigma.shape}")
    return sigma, [vertex(v, sigma.shape[1]) for v in vertices]


def almost_principal_minor(sigma: np.ndarray, i: int, j: int, given=()) -> float:
    """|Sigma_{ij|K}|: rows i,K against columns j,K.  Vanishes exactly when
    X_i and X_j are conditionally independent given X_K."""
    sigma, (i, j, *k) = _checked(sigma, [i, j, *given])
    k = sorted(k)
    if i in k or j in k:
        raise ColoringError("conditioning set may not contain i or j")
    return minor(sigma, [i] + k, [j] + k)


def _identifying_set(sigma: np.ndarray, graph: Optional[Dag], v: int, given, contains_v: str):
    """``given``, by default pa(v), as sorted indices, and its principal minor;
    a ColoringError with message ``contains_v`` if it contains v."""
    if given is None:
        if graph is None:
            raise CdagError("a graph or an identifying set is needed")
        given = graph.parents(v)
    a = sorted(set(_checked(sigma, given)[1]))
    if v in a:
        raise ColoringError(contains_v)
    den = minor(sigma, a, a)
    if den == 0.0:
        raise NotPositiveDefiniteError(f"singular principal minor at {[u + 1 for u in a]}")
    return a, den


def recover_omega(sigma: np.ndarray, graph: Optional[Dag], i: int, given=None) -> float:
    """The conditional variance |Sigma_{iA}| / |Sigma_A|; with A = pa(i)
    (the default) this returns the error variance of i on any model point."""
    sigma, (i,) = _checked(sigma, [i])
    a, den = _identifying_set(sigma, graph, i, given,
                              f"identifying set for vertex {i + 1} may not contain it")
    return minor(sigma, [i] + a, [i] + a) / den


def recover_lambda(sigma: np.ndarray, graph: Optional[Dag], i: int, j: int,
                   given=None) -> float:
    """The regression quotient |Sigma_{ij|A \\ i}| / |Sigma_A|; with A = pa(j)
    (the default) this returns the coefficient on i -> j on any model point."""
    sigma, (i, j) = _checked(sigma, [i, j])
    if i == j:
        raise GraphError(f"({i + 1}, {j + 1}) is a self-loop, not a vertex pair")
    a, den = _identifying_set(sigma, graph, j, given, f"identifying set for edge "
                              f"({i + 1}, {j + 1}) may not contain {j + 1}")
    return almost_principal_minor(sigma, i, j, [v for v in a if v != i]) / den


def recover_params(cd: ColoredDag, sigma: np.ndarray) -> ModelParams:
    """Read all base parameters back off a covariance matrix using the
    parent-set recovery quotients."""
    g = cd.graph
    omega = tuple(recover_omega(sigma, g, cd.base_parameter(c, "vertex"))
                  for c in range(len(cd.vertex_classes)))
    lam = []
    for c in range(len(cd.edge_classes)):
        i, j = cd.base_parameter(c, "edge")
        lam.append(recover_lambda(sigma, g, i, j))
    return ModelParams(omega, tuple(lam))


def is_positive_definite(sigma: np.ndarray) -> bool:
    sigma = np.asarray(sigma, dtype=float)
    if sigma.ndim != 2 or sigma.shape[0] != sigma.shape[1]:
        return False
    if not np.isfinite(sigma).all():
        return False
    scale = 1.0 + float(np.abs(sigma).max(initial=0.0))
    if float(np.abs(sigma - sigma.T).max(initial=0.0)) > SYMMETRY_TOL * scale:
        return False
    try:
        np.linalg.cholesky((sigma + sigma.T) / 2.0)
    except np.linalg.LinAlgError:
        return False
    return True


def require_positive_definite(sigma: np.ndarray) -> np.ndarray:
    sigma = np.asarray(sigma, dtype=float)
    if not is_positive_definite(sigma):
        raise NotPositiveDefiniteError("matrix is not symmetric positive definite")
    return sigma
