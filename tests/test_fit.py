"""Maximum likelihood, grouped least squares, and the decomposable score."""

import math
import re
import warnings

import numpy as np
import pytest

from cdag.coloring import ColoredDag, uncolored
from cdag.dag import Dag
from cdag.errors import CdagError, ColoringError, RankDeficientError
from cdag.fit import Dataset, bic_score, family_ls, fit_families, mle
from cdag.params import ModelParams, parametrize, recover_lambda
from cdag.bench import random_bpec, sample

from oracles import normal_equation_ls, random_bpec_like

P4 = Dag(4, [(0, 1), (1, 2), (2, 3)])
P4_COLORED = ColoredDag(P4, vertex_classes=[[0, 2]],
                        edge_classes=[[(0, 1), (2, 3)]])
P4_THETA = ModelParams((1.0, 2.0, 3.0), (0.5, 0.7))


def _random_data(rng, n, p):
    return Dataset(rng.standard_normal((n, p)) @ rng.standard_normal((p, p)))


class TestDataset:
    def test_rejects_missing_values(self):
        x = np.ones((3, 2))
        x[1, 1] = np.nan
        x[2, 0] = np.inf
        with pytest.raises(CdagError, match=r"^data sample 2, column 2 is nan; data must be finite$"):
            Dataset(x)

    @pytest.mark.parametrize("rows, named", [
        ([[1, 2], [3]], "setting an array element with a sequence"),
        ([["a"]], "'a'"),
        ([[1.0, {}]], "'dict'"),
        (np.array([[1j]]), "complex values are not real numbers"),
        ([[1.0, 2 + 0j]], "complex values are not real numbers"),
        ([[1.0, 1j, {}]], "'complex'"),
    ], ids=["ragged", "string", "dict", "complex", "complex-list", "complex-object"])
    def test_rejects_values_that_are_no_numbers(self, rows, named):
        with pytest.raises(CdagError, match="^data must be a 2-d array of numbers: .*"
                                            + re.escape(named)):
            Dataset(rows)

    def test_csv_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        data = Dataset(rng.standard_normal((5, 3)) / 3, names=("a", "b", "c"))
        path = tmp_path / "d.csv"
        data.to_csv(path)
        back = Dataset.from_csv(path)
        assert back.names == ("a", "b", "c")
        assert np.array_equal(back.X, data.X)

    def test_csv_bytes_are_pinned(self, tmp_path):
        # 17 significant digits, CRLF rows: signed zero, the smallest
        # subnormal, a huge value and an integer-valued one
        data = Dataset(np.array([[-0.0, 5e-324], [1e300, 123456789.0]]))
        path = tmp_path / "d.csv"
        data.to_csv(path)
        assert path.read_bytes() == (
            b"x1,x2\r\n-0,4.9406564584124654e-324\r\n"
            b"1.0000000000000001e+300,123456789\r\n")
        back = Dataset.from_csv(path)
        assert back.X.tobytes() == data.X.tobytes()

    @pytest.mark.parametrize("text, expected", [
        ('a,b\n"1.5",2\n', [[1.5, 2.0]]),
        ("a,b\r\n1,2\r\n\r\n3,4\r\n\r\n", [[1.0, 2.0], [3.0, 4.0]]),
    ])
    def test_csv_grammar_accepts(self, tmp_path, text, expected):
        path = tmp_path / "d.csv"
        path.write_bytes(text.encode())
        data = Dataset.from_csv(path)
        assert data.names == ("a", "b") and data.X.tolist() == expected

    def test_header_only_csv_has_no_rows_and_no_warning(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,b\n\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(CdagError, match="no sample rows"):
                Dataset.from_csv(path)

    def test_gram_matrix(self):
        x = np.random.default_rng(0).standard_normal((7, 3))
        data = Dataset(x)
        assert data.gram is data.gram
        assert np.array_equal(data.gram, x.T @ x)

    @pytest.mark.parametrize("scale, named", [
        ((1e300, 1.0, 1.0), "products of data column 1 overflow"),
        ((1e200, 1.0, 1e200), "products of data columns 1, 3 overflow"),
    ])
    def test_gram_overflow_names_the_columns(self, scale, named):
        # finite data whose products pass the float range, with no warning
        x = np.array([[1.0, 2.0, -1.0], [-1.0, 0.5, 1.0], [1.0, 1.5, 2.0]]) * scale
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(CdagError, match=named):
                Dataset(x).gram

    def test_centering(self):
        data = Dataset(np.array([[1.0, 2.0], [3.0, 6.0]]))
        assert np.allclose(data.centered().X.mean(axis=0), 0.0)

    def test_centering_keeps_the_bits(self):
        x = np.random.default_rng(1).standard_normal((50, 4)) * [1.0, 1e150, 1e-150, 3.0]
        centered = Dataset(x).centered()
        assert centered.X.tobytes() == (x - x.mean(axis=0, keepdims=True)).tobytes()

    @pytest.mark.parametrize("rows, named", [
        # the column sum overflows, so its mean is infinite
        ([[1e308, 1.0], [1e308, 2.0], [3.0, 4.0]], "centered values of data column 1 overflow"),
        # finite means, but a value minus its mean passes the float range
        ([[1.7e308, -1.7e308, 1.0], [-1e308, 1e308, 2.0], [-1e308, 1e308, 0.0]],
         "centered values of data columns 1, 2 overflow"),
    ])
    def test_centering_overflow_names_the_columns(self, rows, named):
        # finite data, so the message must not blame missing values
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(CdagError, match=named + " the float range; rescale the data"):
                Dataset(np.array(rows)).centered()


class TestMle:
    def test_saturated_model_reproduces_sample_covariance(self):
        rng = np.random.default_rng(1)
        data = _random_data(rng, 300, 4)
        complete = uncolored(Dag(4, [(i, j) for i in range(4)
                                     for j in range(i + 1, 4)]))
        theta, _ = mle(complete, data)
        implied = parametrize(complete, theta)
        assert np.allclose(implied, data.X.T @ data.X / data.n, atol=1e-10)

    def test_empty_graph_mean_square(self):
        rng = np.random.default_rng(2)
        data = _random_data(rng, 100, 3)
        theta, _ = mle(uncolored(Dag(3)), data)
        assert np.allclose(theta.omega, (data.X ** 2).mean(axis=0), atol=1e-12)

    def test_ols_equals_plug_in_recovery(self):
        rng = np.random.default_rng(3)
        data = _random_data(rng, 200, 4)
        cd = uncolored(P4)
        theta, _ = mle(cd, data)
        emp = data.X.T @ data.X / data.n
        for cid, grp in enumerate(cd.edge_classes):
            ((i, j),) = grp
            assert theta.lam[cid] == pytest.approx(
                recover_lambda(emp, P4, i, j), abs=1e-10)

    def test_monte_carlo_consistency(self):
        data = sample(P4_COLORED, P4_THETA, 100_000, 2024)
        theta, _ = mle(uncolored(P4), data)
        cid = uncolored(P4).edge_classes.index(frozenset({(0, 1)}))
        assert abs(theta.lam[cid] - 0.5) < 0.02

    def test_grouped_ls_matches_normal_equations(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            n = int(rng.integers(20, 60))
            p = int(rng.integers(2, 5))
            x = rng.standard_normal((n, p + 1))
            groups = []
            pool = list(rng.permutation(p))
            while pool:
                take = min(len(pool), int(rng.integers(1, 3)))
                groups.append(tuple(sorted(pool[:take])))
                pool = pool[take:]
            groups = tuple(groups)
            edges = tuple(tuple((i, p) for i in grp) for grp in groups)
            coef, rss = family_ls(x.T @ x, (p,), edges, n=n)
            design = np.column_stack(
                [x[:, list(grp)].sum(axis=1) for grp in groups])
            ref_coef, ref_rss = normal_equation_ls(design, x[:, p])
            assert np.allclose(coef, ref_coef, atol=1e-8)
            assert rss == pytest.approx(ref_rss, abs=1e-8)

    def test_pooled_vertex_classes_share_coefficients(self):
        # two same-colored nodes with same-colored incoming edges: one
        # coefficient, one pooled variance; in the second graph node 2 has
        # no edge of the second color, so its block of that column is zero
        rng = np.random.default_rng(5)
        data = _random_data(rng, 500, 4)
        x = data.X
        zero = np.zeros(data.n)
        for edges, edge_classes, blocks in [
            ([(0, 1), (0, 2), (3, 1), (3, 2)],
             [[(0, 1), (0, 2)], [(3, 1), (3, 2)]],
             [(x[:, 0], x[:, 3]), (x[:, 0], x[:, 3])]),
            ([(0, 1), (0, 2), (3, 1)],
             [[(0, 1), (0, 2)], [(3, 1)]],
             [(x[:, 0], x[:, 3]), (x[:, 0], zero)]),
        ]:
            cd = ColoredDag(Dag(4, edges), vertex_classes=[[1, 2]],
                            edge_classes=edge_classes)
            assert cd.is_compatible()
            theta, loglik = mle(cd, data)
            stacked_y = np.concatenate([x[:, 1], x[:, 2]])
            stacked_d = np.vstack([np.column_stack(b) for b in blocks])
            ref_coef, ref_rss = normal_equation_ls(stacked_d, stacked_y)
            fitted = sorted(theta.lam)
            assert np.allclose(fitted, sorted(ref_coef), atol=1e-8)
            shared = theta.omega[cd.vertex_color(1)]
            assert shared == pytest.approx(ref_rss / (2 * data.n), abs=1e-10)

    def test_incompatible_coloring_rejected(self):
        with pytest.raises(ColoringError):
            mle(P4_COLORED, Dataset(np.ones((10, 4))))

    def test_rank_deficient_design_rejected(self):
        x = np.zeros((50, 3))
        x[:, 0] = np.arange(50.0)
        x[:, 1] = x[:, 0]  # duplicate regressor
        x[:, 2] = np.arange(50.0) ** 2
        g = Dag(3, [(0, 2), (1, 2)])
        with pytest.raises(RankDeficientError):
            mle(uncolored(g), Dataset(x))

    def test_interpolating_family_rejected(self):
        # three regressors on three samples fit exactly, leaving no variance
        x = np.random.default_rng(8).normal(size=(3, 4))
        with pytest.raises(RankDeficientError):
            family_ls(x.T @ x, (3,), (((0, 3),), ((1, 3),), ((2, 3),)), n=3)
        assert family_ls(x.T @ x, (3,), (((0, 3),), ((1, 3),)), n=3)[1] > 0.0
        with pytest.raises(RankDeficientError):
            mle(uncolored(Dag(4, [(0, 3), (1, 3), (2, 3)])), Dataset(x))

    def test_too_few_samples_rejected(self):
        data = Dataset(np.ones((1, 4)) * 0.5)
        with pytest.raises(CdagError):
            mle(uncolored(P4), data)

    def test_loglik_invariant_under_row_permutation(self):
        rng = np.random.default_rng(6)
        data = _random_data(rng, 120, 4)
        shuffled = Dataset(data.X[rng.permutation(data.n)])
        cd = uncolored(P4)
        assert mle(cd, data)[1] == pytest.approx(mle(cd, shuffled)[1], abs=1e-9)


def _pooled_design(x, nodes, groups):
    """The stacked response and design of a vertex color class, as
    `family_ls` defines them, built from the samples."""
    n = x.shape[0]
    y = np.concatenate([x[:, k] for k in nodes])
    design = np.zeros((n * len(nodes), len(groups)))
    for row, k in enumerate(nodes):
        for col, edges in enumerate(groups):
            for i, j in edges:
                if j == k:
                    design[row * n:(row + 1) * n, col] += x[:, i]
    return design, y


class TestGramKernel:
    def test_matches_normal_equations(self):
        # random families and pooled classes at p 3-15 and n 20-20000; in a
        # pooled class some node may lack edges of a shared color
        rng = np.random.default_rng(10)
        lacking = 0
        for trial in range(60):
            p = int(rng.integers(3, 16))
            n = int(rng.choice([20, 200, 2000, 20000]))
            x = rng.standard_normal((n, p)) @ rng.standard_normal((p, p))
            nodes = tuple(sorted(rng.choice(p, size=1 + trial % 3, replace=False).tolist()))
            pool = [(i, k) for k in nodes for i in range(p) if i not in nodes]
            pool = [pool[e] for e in rng.permutation(len(pool))[:rng.integers(1, 9)]]
            groups = []
            while pool:
                take = int(rng.integers(1, 4))
                groups.append(tuple(sorted(pool[:take])))
                pool = pool[take:]
            lacking += any(not any(j == k for _, j in g) for g in groups for k in nodes)
            design, y = _pooled_design(x, nodes, groups)
            coef, rss = family_ls(x.T @ x, nodes, groups, n=n)
            ref_coef, ref_rss = normal_equation_ls(design, y)
            assert np.allclose(coef, ref_coef, rtol=1e-8, atol=1e-10)
            assert rss == pytest.approx(ref_rss, rel=1e-9)
        assert lacking > 0

    def test_column_order_does_not_change_the_bits(self):
        x = np.random.default_rng(11).standard_normal((500, 6))
        groups = (((0, 5), (1, 5)), ((2, 5),), ((3, 5), (4, 5)))
        coef, rss = family_ls(x.T @ x, (5,), groups, n=500)
        back, rss_back = family_ls(x.T @ x, (5,), groups[::-1], n=500)
        assert rss_back == rss and back.tolist() == coef[::-1].tolist()

    @pytest.mark.parametrize("column", ["duplicate", "zero", "sum"])
    def test_collinear_columns_rejected(self, column):
        x = np.random.default_rng(12).standard_normal((200, 5))
        x[:, 2] = {"duplicate": x[:, 0], "zero": 0.0, "sum": x[:, 0] + x[:, 1]}[column]
        with pytest.raises(RankDeficientError,
                           match="collinear regressors in the family of vertex 5") as exc:
            family_ls(x.T @ x, (4,), (((0, 4),), ((1, 4),), ((2, 4),), ((3, 4),)), n=200)
        assert exc.value.family == (4,)

    def test_response_summing_its_parents_rejected(self):
        x = np.random.default_rng(13).standard_normal((200, 4))
        x[:, 3] = x[:, 0] + x[:, 1] + x[:, 2]
        with pytest.raises(RankDeficientError,
                           match="zero residual variance at vertex 4") as exc:
            family_ls(x.T @ x, (3,), (((0, 3), (1, 3)), ((2, 3),)), n=200)
        assert exc.value.family == (3,)


    def test_all_zero_response_names_its_column(self):
        # nothing is left to explain, so the message blames the data, not
        # a fit; a response its parents fit exactly keeps the fit's message
        x = np.random.default_rng(14).standard_normal((60, 5))
        x[:, 2] = x[:, 3] = 0.0
        S = x.T @ x
        families = [((2,), []), ((2,), [((0, 2),), ((1, 2),)]),
                    ((2, 3), [((0, 2), (0, 3))])]
        messages = []
        for nodes, groups in families:
            with pytest.raises(RankDeficientError) as exc:
                family_ls(S, nodes, groups, n=60)
            assert exc.value.family == nodes
            messages.append(str(exc.value))
        assert messages == [
            "zero residual variance at vertex 3; its data column is all zero "
            "(a constant column is, once centered)",
            "zero residual variance at vertex 3; its data column is all zero "
            "(a constant column is, once centered)",
            "zero residual variance at vertices 3, 4; their data columns are all zero "
            "(a constant column is, once centered)"]

    def test_class_is_refused_at_its_stacked_row_count(self):
        # a class of k nodes stacks n * k rows: with n = 2, two nodes and
        # three columns it fits, and it is refused only at four columns
        x = np.random.default_rng(1).standard_normal((2, 4))
        nodes, groups = (2, 3), [((0, 2), (0, 3)), ((1, 2),), ((1, 3),)]
        coef, rss = family_ls(x.T @ x, nodes, groups, n=2)
        ref_coef, ref_rss = normal_equation_ls(*_pooled_design(x, nodes, groups))
        assert np.allclose(coef, ref_coef, rtol=1e-8, atol=1e-10)
        assert rss == pytest.approx(ref_rss, rel=1e-9) and rss == pytest.approx(1.5528, abs=1e-4)
        cd = ColoredDag(Dag(4, [(0, 2), (1, 2), (0, 3), (1, 3)]), vertex_classes=[[2, 3]],
                        edge_classes=[[(0, 2), (0, 3)]])
        params, _ = mle(cd, Dataset(x))
        assert params.omega[cd.vertex_color(2)] == pytest.approx(ref_rss / 4, rel=1e-9)
        # the message gives the count it compared, in the singular for one
        for n, nodes, groups, message in [
            (2, nodes, [((0, 2),), ((0, 3),), ((1, 2),), ((1, 3),)],
             "the family of vertices 3, 4 has 4 regressor columns but only 4 pooled samples"),
            (1, nodes, groups,
             "the family of vertices 3, 4 has 3 regressor columns but only 2 pooled samples"),
            (1, (2,), [((0, 2),)],
             "the family of vertex 3 has 1 regressor column but only 1 sample"),
            (1, (2,), [((0, 2),), ((1, 2),)],
             "the family of vertex 3 has 2 regressor columns but only 1 sample"),
        ]:
            with pytest.raises(RankDeficientError, match=re.escape(message)) as exc:
                family_ls(x[:n].T @ x[:n], nodes, groups, n=n)
            assert exc.value.family == nodes


def _random_family(rng, p, n_nodes, max_edges):
    """A random vertex color class of ``n_nodes`` nodes with its columns in
    canonical order; in a pooled class some node may lack edges of a shared
    color."""
    nodes = tuple(sorted(rng.choice(p, size=n_nodes, replace=False).tolist()))
    pool = [(i, k) for k in nodes for i in range(p) if i not in nodes]
    pool = [pool[e] for e in rng.permutation(len(pool))[:rng.integers(0, max_edges + 1)]]
    groups = []
    while pool:
        take = int(rng.integers(1, 4))
        groups.append(tuple(sorted(pool[:take])))
        pool = pool[take:]
    return nodes, sorted(groups)


def _family_of_width(rng, p, n_nodes, width):
    """A random vertex color class of ``n_nodes`` nodes with at most
    ``width`` columns (fewer only if it lacks the edges), in canonical order;
    its edges, two per column on average, are split among the columns at
    random."""
    nodes = tuple(sorted(rng.choice(p, size=n_nodes, replace=False).tolist()))
    pool = [(i, k) for k in nodes for i in range(p) if i not in nodes]
    pool = [pool[e] for e in rng.permutation(len(pool))[:2 * width]]
    width = min(width, len(pool))
    cuts = [0, *sorted(rng.choice(range(1, len(pool)), size=width - 1, replace=False).tolist()),
            len(pool)] if width else [0]
    return nodes, sorted(tuple(sorted(pool[a:b])) for a, b in zip(cuts, cuts[1:]))


def _failing_families():
    """Data with a duplicated, an all-zero and an exactly fitted column;
    families that fit it, and families that fail it, by their message."""
    rng = np.random.default_rng(22)
    x = rng.standard_normal((40, 6))
    x[:, 1] = x[:, 0]                     # a duplicated column
    x[:, 2] = 0.0                         # an all-zero column
    x[:, 5] = x[:, 3] - 2.0 * x[:, 4]     # a response its parents fit exactly
    good = [((3,), [((0, 3),), ((4, 3),)]), ((4,), []),
            ((0,), [((3, 0), (4, 0))]), ((3, 5), [((0, 3), (0, 5)), ((4, 5),)])]
    bad = {
        "collinear regressors in the family of vertex 4": ((3,), [((0, 3),), ((1, 3),)]),
        "collinear regressors in the family of vertex 1": ((0,), [((2, 0),), ((3, 0),)]),
        "zero residual variance at vertex 6; the model interpolates the data":
            ((5,), [((3, 5),), ((4, 5),)]),
        "the family of vertex 1 has 40 regressor columns but only 40 samples":
            ((0,), [((i % 5 + 1, 0),) for i in range(40)]),
        "zero residual variance at vertex 3; its data column is all zero "
        "(a constant column is, once centered)": ((2,), [((0, 2),)]),
    }
    return x, good, bad


class TestStackedKernel:
    """`family_ls` fits one vertex color class per call, a pooled one as
    one stacked system."""

    def _families(self, rng, p, size):
        return [_random_family(rng, p, 1 + int(rng.integers(0, 3)), 9)
                for _ in range(size)]

    def test_matches_normal_equations(self):
        rng = np.random.default_rng(20)
        widths, pooled = set(), 0
        for _ in range(15):
            p = int(rng.integers(4, 13))
            n = int(rng.choice([50, 500, 5000]))
            x = rng.standard_normal((n, p)) @ rng.standard_normal((p, p))
            for nodes, groups in self._families(rng, p, 12):
                widths.add(len(groups))
                pooled += len(nodes) > 1
                coef, rss = family_ls(x.T @ x, nodes, groups, n=n)
                design, y = _pooled_design(x, nodes, groups)
                ref_coef, ref_rss = normal_equation_ls(design, y)
                assert np.allclose(coef, ref_coef, rtol=1e-8, atol=1e-10)
                assert rss == pytest.approx(ref_rss, rel=1e-9)
        assert len(widths) >= 4 and pooled > 0

    def test_shuffled_columns_give_the_same_bits(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            p, n = 12, 400
            x = rng.standard_normal((n, p)) @ rng.standard_normal((p, p))
            S = x.T @ x
            families = self._families(rng, p, 20)
            assert len({len(g) for _, g in families}) > 2
            orders = [rng.permutation(len(g)) for _, g in families]
            for (nodes, groups), order in zip(families, orders):
                coef, rss = family_ls(S, nodes, [groups[c] for c in order], n=n)
                canonical_coef, canonical_rss = family_ls(S, nodes, groups, n=n)
                assert rss == canonical_rss
                assert coef.tolist() == canonical_coef[order].tolist()

    def test_rss_without_coefficients_has_the_same_bits(self):
        # widths 0-12, pooled families and every failure kind: the rss, or
        # the error, does not depend on whether coefficients are asked for
        rng = np.random.default_rng(23)
        cases, widths, pooled = [], set(), 0
        for p in (5, 15, 40):
            n = 300
            x = rng.standard_normal((n, p)) @ rng.standard_normal((p, p))
            for _ in range(24):
                nodes, groups = _family_of_width(rng, p, 1 + int(rng.integers(0, 3)),
                                                 int(rng.integers(0, 13)))
                cases.append((x.T @ x, n, nodes,
                              [groups[c] for c in rng.permutation(len(groups))]))
                widths.add(len(groups))
                pooled += len(nodes) > 1
        assert widths == set(range(13)) and pooled > 0
        x, good, bad = _failing_families()
        cases += [(x.T @ x, len(x), nodes, groups) for nodes, groups in good + list(bad.values())]
        failed = 0
        for S, n, nodes, groups in cases:
            outcomes = []
            for coefficients in (True, False):
                try:
                    coef, rss = family_ls(S, nodes, groups, n=n, coefficients=coefficients)
                    assert (coef is None) is not coefficients
                    outcomes.append(rss.hex())
                except RankDeficientError as exc:
                    outcomes.append((repr(exc), exc.family))
            assert outcomes[0] == outcomes[1]
            failed += isinstance(outcomes[0], tuple)
        assert failed == len(bad)

    def test_each_failure_stays_with_its_family(self):
        x, good, bad = _failing_families()
        for nodes, groups in good:
            _, rss = family_ls(x.T @ x, nodes, groups, n=40)
            assert np.isfinite(rss) and rss > 0.0
        for message, (nodes, groups) in bad.items():
            with pytest.raises(RankDeficientError, match=re.escape(message)) as exc:
                family_ls(x.T @ x, nodes, groups, n=40)
            assert str(exc.value) == message
            assert exc.value.family == nodes


class TestBic:
    def test_single_family_score_difference_is_local(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            cd1 = random_bpec_like(rng, 6)
            data = _random_data(rng, 80, 6)
            fams1 = {f.nodes: f for f in fit_families(cd1, data)[1]}
            # perturb one family: merge its classes into one
            groups = [sorted(grp) for grp in cd1.edge_classes]
            heads = sorted({grp[0][1] for grp in groups
                            if len([g for g in groups if g[0][1] == grp[0][1]]) >= 2})
            if not heads:
                continue
            head = heads[0]
            merged = [grp for grp in groups if grp[0][1] != head]
            merged.append(sorted([e for grp in groups if grp[0][1] == head
                                  for e in grp]))
            cd2 = ColoredDag(cd1.graph, edge_classes=merged)
            fams2 = {f.nodes: f for f in fit_families(cd2, data)[1]}
            total_delta = bic_score(cd2, data) - bic_score(cd1, data)
            local_delta = (fams2[(head,)].score(data.n)
                           - fams1[(head,)].score(data.n))
            assert total_delta == pytest.approx(local_delta, abs=1e-9)

    def test_redundant_split_never_decreases_loglik(self):
        rng = np.random.default_rng(8)
        g = Dag(4, [(0, 3), (1, 3), (2, 3)])
        joined = ColoredDag(g, edge_classes=[[(0, 3), (1, 3), (2, 3)]])
        split = uncolored(g)
        for _ in range(10):
            data = _random_data(rng, 60, 4)
            assert mle(split, data)[1] >= mle(joined, data)[1] - 1e-9

    def test_merging_equal_coefficients_improves_bic(self):
        g = Dag(3, [(0, 2), (1, 2)])
        merged = ColoredDag(g, edge_classes=[[(0, 2), (1, 2)]])
        theta = ModelParams((1.0, 1.0, 1.0), (0.6,))
        data = sample(merged, theta, 5000, 77)
        assert bic_score(merged, data) > bic_score(uncolored(g), data)

    def test_golden_loglik_and_score(self):
        # exact values on the data of test_gecs.TestGolden, re-recorded when
        # fitting moved to the Gram matrix (largest relative change 9.0e-15)
        truth, theta = random_bpec(10, 0.5, 2, seed=5)
        data = sample(truth, theta, 1000, 6)
        fitted, loglik = mle(truth, data)
        assert fitted.omega == (
            1.6608551421507736, 1.1074706305650395, 1.6090614252094975,
            1.3938767298249657, 1.896353690439922, 2.044814356785671,
            1.447427159384737, 1.7944096734900075, 0.7744024673733543,
            1.6835541079560898)
        assert fitted.lam == (
            0.6688103448119105, 0.4647649989797397, 0.7933347979548975,
            -0.7392925575705547, -0.7363927892481573, 0.5997631327713198,
            -0.4310867970923427, -0.7516181782606323, -0.3237802198877473,
            -0.772230035923441)
        assert loglik == -16185.434544812799
        assert bic_score(truth, data) == -16254.512097602621

    def test_score_is_loglik_minus_penalty(self):
        rng = np.random.default_rng(9)
        data = _random_data(rng, 100, 4)
        cd = uncolored(P4)
        _, loglik = mle(cd, data)
        expected = loglik - 0.5 * math.log(data.n) * cd.n_params
        assert bic_score(cd, data) == pytest.approx(expected, abs=1e-9)
