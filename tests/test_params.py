"""Parametrization, the trek oracle, minors, and parameter recovery."""

import hashlib
import math
import re
import warnings

import numpy as np
import pytest

from cdag.bench import random_bpec
from cdag.coloring import ColoredDag, uncolored
from cdag.constraints import check_local_markov
from cdag.dag import Dag
from cdag.errors import CdagError, ColoringError, GraphError, SizeGuardError
from cdag.files import read_matrix_csv, write_matrix_csv
from cdag.params import (Covariances, ModelParams, almost_principal_minor,
                         expand_params, is_positive_definite, minor, parametrize,
                         random_params, recover_lambda, recover_omega,
                         recover_params)

from oracles import random_colored_dag, random_dag, trek_covariance

P4 = Dag(4, [(0, 1), (1, 2), (2, 3)])
P4_COLORED = ColoredDag(P4, vertex_classes=[[0, 2]],
                        edge_classes=[[(0, 1), (2, 3)]])
P4_THETA = ModelParams(omega=(1.0, 2.0, 3.0), lam=(0.5, 0.7))
P4_SIGMA = parametrize(P4_COLORED, P4_THETA)


class TestParametrize:
    def test_identity_at_trivial_parameters(self):
        cd = uncolored(P4)
        theta = ModelParams((1.0,) * 4, (0.0,) * 3)
        assert np.allclose(parametrize(cd, theta), np.eye(4), atol=1e-15)

    def test_colored_path_entries(self):
        s = P4_SIGMA
        assert s[0, 1] == pytest.approx(0.5, abs=1e-12)
        assert s[1, 1] == pytest.approx(2.25, abs=1e-12)
        assert s[1, 2] == pytest.approx(1.575, abs=1e-12)
        assert s[2, 2] == pytest.approx(2.1025, abs=1e-12)
        assert s[2, 3] == pytest.approx(1.05125, abs=1e-12)

    def test_output_is_positive_definite(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            cd = random_colored_dag(rng, int(rng.integers(2, 8)))
            sigma = parametrize(cd, random_params(cd, rng))
            assert is_positive_definite(sigma)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_is_not_positive_definite(self, bad):
        sigma = np.eye(3)
        sigma[1, 1] = bad
        assert not is_positive_definite(sigma)
        sigma = np.eye(3)
        sigma[0, 2] = sigma[2, 0] = bad
        assert not is_positive_definite(sigma)

    def test_missing_key_rejected(self):
        with pytest.raises(ColoringError):
            parametrize(P4_COLORED, ModelParams((1.0, 1.0), (0.5, 0.7)))

    def test_nonpositive_omega_rejected(self):
        with pytest.raises(ColoringError):
            ModelParams((1.0, -0.5, 1.0), (0.5, 0.7))

    @pytest.mark.parametrize("omega, lam, expected", [
        ((1.0, math.inf, 1.0), (0.5, 0.7), "error variances must be finite, got inf"),
        ((1.0, math.nan, 1.0), (0.5, 0.7), "error variances must be finite, got nan"),
        ((1.0, 1.0, 1.0), (-math.inf, 0.7), "coefficients must be finite, got -inf"),
        ((1.0, 1.0, 1.0), (0.5, math.nan), "coefficients must be finite, got nan"),
        (("a",), (), "error variances must be real numbers, got 'a'"),
        ((1.0,), (None,), "coefficients must be real numbers, got None"),
        ((1.0,), (0.5, 1j), "coefficients must be real numbers, got 1j"),
    ])
    def test_non_finite_values_rejected(self, omega, lam, expected):
        with pytest.raises(ColoringError, match=expected):
            ModelParams(omega, lam)

    def test_overflowing_covariance_is_an_error(self):
        # on the path 1 -> 2 -> 3, var(3) grows as the product of the squared
        # coefficients: 1e100 past the float range, 1e200 at 1e50
        path = ColoredDag(Dag(3, [(0, 1), (1, 2)]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(CdagError, match="the covariance matrix overflows: "
                                                "the coefficients are too large"):
                parametrize(path, ModelParams((1.0,) * 3, (1e200, 1e200)))
            sigma = parametrize(path, ModelParams((1.0,) * 3, (1e50, 1e50)))
        assert np.isfinite(sigma).all() and sigma[2, 2] == pytest.approx(1e200)


class TestTrekOracle:
    def test_single_edge(self):
        g = Dag(2, [(0, 1)])
        lam = np.zeros((2, 2))
        lam[0, 1] = 0.6
        sigma = trek_covariance(g, [1.5, 2.0], lam)
        assert sigma[0, 1] == pytest.approx(0.6 * 1.5)
        assert sigma[1, 1] == pytest.approx(2.0 + 0.36 * 1.5)

    def test_no_edges_gives_diagonal(self):
        sigma = trek_covariance(Dag(3), [1.0, 2.0, 3.0], np.zeros((3, 3)))
        assert np.allclose(sigma, np.diag([1.0, 2.0, 3.0]))

    def test_matches_parametrize_on_path(self):
        w, lam = expand_params(P4_COLORED, P4_THETA)
        assert np.allclose(trek_covariance(P4, w, lam), P4_SIGMA, atol=1e-12)

    def test_matches_parametrize_on_random_dags(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            cd = uncolored(random_dag(rng, 5, 0.6))
            theta = random_params(cd, rng)
            sigma = parametrize(cd, theta)
            w, lam = expand_params(cd, theta)
            assert np.allclose(trek_covariance(cd.graph, w, lam), sigma,
                               rtol=1e-12, atol=1e-12)

    def test_size_guard(self):
        with pytest.raises(SizeGuardError):
            trek_covariance(Dag(9), [1.0] * 9, np.zeros((9, 9)))

    def test_matches_parametrize_past_unit_coefficients(self):
        # with |coefficient| > 1 the LU of (I - L)^T exchanges rows, so the
        # solves are no longer plain substitution; sigma must still be the
        # model's, and pass the model's own local Markov check
        rng = np.random.default_rng(26)
        for _ in range(30):
            cd = random_colored_dag(rng, int(rng.integers(4, 9)), rho=0.6)
            ne = len(cd.edge_classes)
            lam = rng.uniform(1.5, 4.0, ne) * rng.choice([-1.0, 1.0], ne)
            theta = ModelParams(rng.uniform(0.5, 2.0, len(cd.vertex_classes)), lam)
            sigma = parametrize(cd, theta)
            expected = trek_covariance(cd.graph, *expand_params(cd, theta))
            assert np.abs(sigma - expected).max() <= 1e-12 * np.abs(expected).max()
            assert check_local_markov(sigma, cd).ok


class TestStackedDraw:
    MODELS = {
        "p1": uncolored(Dag(1)),
        "p2": random_bpec(2, 0.5, 2, [20, 2])[0],
        "p5": random_bpec(5, 0.9, 2, [20, 5])[0],
        "p15": random_bpec(15, 0.5, 2, [20, 15])[0],
        "edgeless": uncolored(Dag(4)),
        "vertex-colored": ColoredDag(Dag(5, [(0, 1), (0, 2), (3, 4), (2, 4)]),
                                     vertex_classes=[[0, 3, 4], [1, 2]],
                                     edge_classes=[[(0, 1), (3, 4)]]),
        "p0": uncolored(Dag(0)),
    }

    @pytest.mark.parametrize("name", sorted(MODELS))
    @pytest.mark.parametrize("seed", [0, 1, 29])
    def test_stack_is_the_sequence_of_single_points(self, name, seed):
        cd = self.MODELS[name]
        one, stacked = np.random.default_rng(seed), np.random.default_rng(seed)
        expected = [parametrize(cd, random_params(cd, one)) for _ in range(6)]
        model = Covariances(cd)
        first, rest = model.draw(stacked, 1), model.draw(stacked, 5)
        assert rest.shape == (5, cd.p, cd.p) and rest.flags.c_contiguous
        assert np.concatenate([first, rest]).tobytes() == np.array(expected).tobytes()
        assert stacked.bit_generator.state == one.bit_generator.state

    def test_pinned_bits(self):
        # recorded before the kernel was stacked: fixed and random points of
        # three models keep every bit of their covariances
        h = hashlib.sha256()
        for p in (2, 5, 15):
            cd, theta = random_bpec(p, 0.5, 2, [17, p])
            rng = np.random.default_rng(p)
            h.update(parametrize(cd, theta).tobytes())
            for _ in range(3):
                h.update(parametrize(cd, random_params(cd, rng)).tobytes())
        assert h.hexdigest() == \
            "bb4ecc0d34e0aa3cafb72c423c083ebcd183efc47b178abb8332fe5ecfd0701a"


class TestMinors:
    def test_empty_minor_is_one(self):
        assert minor(P4_SIGMA, [], []) == 1.0

    def test_path_cir_value(self):
        s = P4_SIGMA
        expected = s[0, 2] * s[1, 1] - s[0, 1] * s[1, 2]
        assert almost_principal_minor(s, 0, 2, [1]) == pytest.approx(expected)
        assert almost_principal_minor(s, 0, 2, [1]) == pytest.approx(0.0, abs=1e-12)

    def test_schur_identity(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((5, 5))
        sigma = a @ a.T + 5 * np.eye(5)
        k = [2, 4]
        lhs = almost_principal_minor(sigma, 0, 1, k)
        schur = sigma[0, 1] - sigma[np.ix_([0], k)] @ np.linalg.solve(
            sigma[np.ix_(k, k)], sigma[np.ix_(k, [1])])
        assert lhs == pytest.approx(schur.item() * minor(sigma, k, k))

    def test_mismatched_sets_rejected(self):
        with pytest.raises(ColoringError):
            minor(P4_SIGMA, [0, 1], [2])
        with pytest.raises(ColoringError):
            minor(P4_SIGMA, [[0, 1], [1, 2]], [[2, 3]])

    def test_stacked_minors_match_one_at_a_time(self):
        rows = np.array([[0, 1], [1, 2], [0, 3]])
        cols = np.array([[2, 3], [1, 2], [1, 3]])
        stacked = minor(P4_SIGMA, rows, cols)
        assert stacked.shape == (3,)
        for value, r, c in zip(stacked, rows, cols):
            assert value == pytest.approx(minor(P4_SIGMA, list(r), list(c)), rel=1e-12)
        empty = np.zeros((2, 0), dtype=int)
        assert list(minor(P4_SIGMA, empty, empty)) == [1.0, 1.0]


class TestRecovery:
    def test_lambda_from_first_edge(self):
        s = P4_SIGMA
        assert recover_lambda(s, P4, 0, 1) == pytest.approx(s[0, 1] / s[0, 0])
        assert recover_lambda(s, P4, 0, 1) == pytest.approx(0.5)

    def test_omega_with_parent_set(self):
        assert recover_omega(P4_SIGMA, P4, 2) == pytest.approx(1.0)

    def test_identity_covariance(self):
        for i in range(4):
            assert recover_omega(np.eye(4), P4, i) == pytest.approx(1.0)

    def test_round_trip_base_parameters(self):
        rng = np.random.default_rng(3)
        for _ in range(60):
            cd = random_colored_dag(rng, int(rng.integers(2, 9)))
            theta = random_params(cd, rng)
            back = recover_params(cd, parametrize(cd, theta))
            assert np.allclose(back.omega, theta.omega, atol=1e-9)
            assert np.allclose(back.lam, theta.lam, atol=1e-9)

    def test_explicit_set_overrides_parents(self):
        # omega_{3|{1,2}} also identifies vertex 3's variance on the chain
        assert recover_omega(P4_SIGMA, P4, 2, given=[0, 1]) == pytest.approx(1.0)

    @pytest.mark.parametrize("call", [lambda: recover_omega(P4_SIGMA, None, 2),
                                      lambda: recover_lambda(P4_SIGMA, None, 1, 2)],
                             ids=["omega", "lambda"])
    def test_default_set_needs_a_graph(self, call):
        with pytest.raises(CdagError, match="a graph or an identifying set is needed"):
            call()

    def test_nested_list_sigma(self):
        assert recover_omega([[1.0]], Dag(1), 0) == 1.0
        nested = P4_SIGMA.tolist()
        assert recover_omega(nested, P4, 2) == recover_omega(P4_SIGMA, P4, 2)
        assert recover_lambda(nested, P4, 0, 1) == recover_lambda(P4_SIGMA, P4, 0, 1)
        assert (almost_principal_minor(nested, 0, 2, [1])
                == almost_principal_minor(P4_SIGMA, 0, 2, [1]))


S3 = np.array([[2.0, 0.5, 0.3], [0.5, 1.0, 0.2], [0.3, 0.2, 1.5]])


class TestRecoveryRejectsBadVertices:
    # a negative index would wrap around, a float would be truncated, and a
    # bool would read as vertex 0 or 1
    @pytest.mark.parametrize("call", [
        lambda v: recover_omega(S3, None, v, given=[0]),
        lambda v: recover_omega(S3, None, 1, given=[v]),
        lambda v: recover_lambda(S3, None, v, 2, given=[0, 1]),
        lambda v: recover_lambda(S3, None, 0, v, given=[0]),
        lambda v: recover_lambda(S3, None, 0, 2, given=[v]),
        lambda v: almost_principal_minor(S3, v, 2, [1]),
        lambda v: almost_principal_minor(S3, 0, v, [1]),
        lambda v: almost_principal_minor(S3, 0, 2, [v]),
    ], ids=["omega-i", "omega-given", "lambda-i", "lambda-j", "lambda-given",
            "minor-i", "minor-j", "minor-given"])
    @pytest.mark.parametrize("bad, message", [
        (-1, "vertex 0 out of range for p=3"),
        (1.5, "vertex index 1.5 is not an integer"),
        (5, "vertex 6 out of range for p=3"),
        (True, "vertex index True is not an integer"),
    ], ids=["negative", "float", "too-large", "bool"])
    def test_bad_vertex_is_a_graph_error(self, call, bad, message):
        with pytest.raises(GraphError, match=re.escape(message)):
            call(bad)

    @pytest.mark.parametrize("graph, given", [(P4, None), (None, [0])],
                             ids=["parents", "given"])
    def test_self_loop_is_a_graph_error(self, graph, given):
        # the quotient would be the vertex's conditional variance, not an
        # edge coefficient
        with pytest.raises(GraphError, match=re.escape("(2, 2) is a self-loop, not a vertex pair")):
            recover_lambda(P4_SIGMA, graph, 1, 1, given=given)

    def test_numpy_integers_are_vertices(self):
        assert recover_omega(S3, None, np.int64(1), given=np.array([0])) == \
            recover_omega(S3, None, 1, given=[0])


class TestCsv:
    def test_seventeen_digit_round_trip(self, tmp_path):
        rng = np.random.default_rng(4)
        sigma = parametrize(P4_COLORED, P4_THETA) + 0  # copy
        sigma[0, 0] = 1 / 3
        path = tmp_path / "sigma.csv"
        write_matrix_csv(sigma, path)
        assert np.array_equal(read_matrix_csv(path)[1], sigma)

    @pytest.mark.parametrize("header, first_line", [
        (None, b""),
        (("a", "b"), b"a,b\r\n"),
    ])
    def test_pinned_bytes_and_round_trip(self, tmp_path, header, first_line):
        # the header-less bytes are those the covariance writer produced
        # before it was shared with data files
        matrix = np.array([[-0.0, 5e-324], [1e300, 123456789.0]])
        path = tmp_path / "m.csv"
        write_matrix_csv(matrix, path, header)
        assert path.read_bytes() == first_line + (
            b"-0,4.9406564584124654e-324\r\n"
            b"1.0000000000000001e+300,123456789\r\n")
        names, back = read_matrix_csv(path, header=header is not None)
        assert names == (None if header is None else list(header))
        assert back.tobytes() == matrix.tobytes()


@pytest.mark.parametrize("call, expected", [
    (lambda: recover_omega(np.eye(3), None, 0, {0}),
     "identifying set for vertex 1 may not contain it"),
    (lambda: recover_lambda(np.eye(3), None, 0, 1, {1}),
     "identifying set for edge (1, 2) may not contain 2"),
    (lambda: recover_omega(np.diag([0.0, 1.0, 1.0]), None, 1, {0}),
     "singular principal minor at [1]"),
    (lambda: recover_lambda(np.diag([1.0, 1.0, 0.0]), None, 0, 1, {0, 2}),
     "singular principal minor at [1, 3]"),
    (lambda: recover_omega(np.eye(3)[:2], P4, 1),
     "sigma must be a square, finite 2-d array of numbers, got float64 of shape (2, 3)"),
    (lambda: recover_lambda(np.diag([1.0, np.inf, 1.0]), None, 0, 1, {0}),
     "sigma must be a square, finite 2-d array of numbers"),
    (lambda: recover_omega(np.diag([np.nan, 1.0]), None, 1, {0}),
     "sigma must be a square, finite 2-d array of numbers"),
    (lambda: almost_principal_minor(np.ones((2, 3, 3)), 0, 1),
     "sigma must be a square, finite 2-d array of numbers, got float64 of shape (2, 3, 3)"),
    (lambda: recover_omega(np.eye(3, dtype=complex), None, 1, {0}),
     "sigma must be a square, finite 2-d array of numbers, got complex128 of shape (3, 3)"),
])
def test_messages_name_vertices_one_based(call, expected):
    with pytest.raises(CdagError, match=re.escape(expected)):
        call()
