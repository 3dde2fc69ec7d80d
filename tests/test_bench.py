"""Random model generation, sampling, metrics, and the sweep runner."""

import hashlib
import re
import warnings
from itertools import combinations

import numpy as np
import pytest

from cdag.bench import (SweepConfig, _cell_seed, color_sensitivity, random_bpec,
                        run_sweep, sample, shd, write_results_csv)
from cdag.coloring import ColoredDag, uncolored
from cdag.dag import Dag
from cdag.errors import CdagError
from cdag.fit import mle
from cdag.params import ModelParams, parametrize

from oracles import random_dag


class TestRandomBpec:
    def test_outputs_are_bpec(self):
        for seed in range(30):
            cd, theta = random_bpec(7, 0.4, 3, seed=seed)
            assert cd.is_bpec()
            assert all(len(grp) >= 2 for grp in cd.edge_classes)
            assert len(theta.omega) == 7

    def test_dense_limit_single_class_families(self):
        # The second vertex's lone edge 1 -> 2 has no repair candidate and is
        # dropped, so the dense limit is the complete DAG minus that edge;
        # every family with parents carries a single class.
        cd, _ = random_bpec(4, 1 - 1e-12, 1, seed=0)
        assert cd.graph.edges == {(0, 2), (1, 2), (0, 3), (1, 3), (2, 3)}
        assert len(cd.edge_classes) == 2
        assert cd.is_bpec()

    def test_bit_reproducible(self):
        a = random_bpec(6, 0.5, 2, seed=5)
        b = random_bpec(6, 0.5, 2, seed=5)
        assert a[0] == b[0] and a[1] == b[1]

    def test_coefficients_in_stated_range(self):
        cd, theta = random_bpec(8, 0.6, 3, seed=1)
        for lam in theta.lam:
            assert 0.25 <= abs(lam) < 1.0
        for w in theta.omega:
            assert 0.5 <= w <= 2.0

    def test_parameter_validation(self):
        with pytest.raises(CdagError):
            random_bpec(1, 0.5, 2, seed=0)
        with pytest.raises(CdagError):
            random_bpec(4, 1.5, 2, seed=0)

    @pytest.mark.parametrize("p, nc, message", [
        (5.0, 2, "p must be an integer, got 5.0"),
        (True, 2, "p must be an integer, got True"),
        (5, 1.5, "nc must be an integer, got 1.5"),
        (5, True, "nc must be an integer, got True"),
        (5, 0, "nc must be at least 1, got 0"),
    ])
    def test_sizes_must_be_integers(self, p, nc, message):
        with pytest.raises(CdagError, match=re.escape(message)):
            random_bpec(p, 0.5, nc, seed=0)


class TestSample:
    def test_sample_covariance_converges(self):
        cd, theta = random_bpec(5, 0.5, 2, seed=2)
        sigma = parametrize(cd, theta)
        data = sample(cd, theta, 200_000, seed=3)
        emp = data.X.T @ data.X / data.n
        # entrywise within 3 asymptotic standard errors
        for i in range(5):
            for j in range(5):
                se = np.sqrt((sigma[i, i] * sigma[j, j] + sigma[i, j] ** 2)
                             / data.n)
                assert abs(emp[i, j] - sigma[i, j]) < 3 * se

    def test_independent_columns_without_edges(self):
        cd = uncolored(Dag(4))
        from cdag.params import random_params
        theta = random_params(cd, np.random.default_rng(4))
        data = sample(cd, theta, 100_000, seed=5)
        corr = np.corrcoef(data.X, rowvar=False)
        off = corr[~np.eye(4, dtype=bool)]
        assert np.abs(off).max() < 0.02

    def test_overflow_names_the_first_vertex_that_overflows(self):
        # x2 = 1e200 x1 + e2 is finite; x3 = 1e200 x2 + e3 is not
        path = ColoredDag(Dag(3, [(0, 1), (1, 2)]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(CdagError, match="samples of vertex 3 overflow: "
                                                "the coefficients are too large"):
                sample(path, ModelParams((1.0,) * 3, (1e200, 1e200)), 10, seed=0)
            # the same vertex, whichever label it has
            swapped = ColoredDag(Dag(3, [(2, 1), (1, 0)]))
            with pytest.raises(CdagError, match="samples of vertex 1 overflow"):
                sample(swapped, ModelParams((1.0,) * 3, (1e200, 1e200)), 10, seed=0)

    def test_draws_keep_their_bits(self):
        # p = 15 models whose nodes have parents that share a hash slot, so
        # the digest pins the order in which each node's terms are summed;
        # recorded before Dag derived its parent sets from bitmasks
        h = hashlib.sha256()
        for k in range(8):
            cd, theta = random_bpec(15, 0.5, 2, [41, k])
            h.update(sample(cd, theta, 50, [41, k, 1]).X.tobytes())
        assert h.hexdigest() == \
            "4563366cfa51828907cc0b0f8c8e0db3e69ff6e791842d864f5f56f64a6c4cff"

    @pytest.mark.parametrize("n, message", [
        (2.5, "sample size must be an integer, got 2.5"),
        (True, "sample size must be an integer, got True"),
        (0, "sample size must be at least 1, got 0"),
    ])
    def test_sample_size_must_be_an_integer(self, n, message):
        cd, theta = random_bpec(4, 0.5, 2, seed=0)
        with pytest.raises(CdagError, match=re.escape(message)):
            sample(cd, theta, n, seed=1)
        assert sample(cd, theta, np.int64(3), seed=1).n == 3

    def test_single_row_refused_by_fit(self):
        cd, theta = random_bpec(4, 0.9, 2, seed=6)
        data = sample(cd, theta, 1, seed=7)
        with pytest.raises(CdagError):
            mle(cd, data)


class TestMetrics:
    def test_identical_graphs(self):
        g = Dag(4, [(0, 1), (1, 2), (2, 3)])
        assert shd(g, g) == 0
        cd, _ = random_bpec(5, 0.5, 2, seed=8)
        assert color_sensitivity(cd, cd) == 1.0

    def test_one_reversal_costs_one(self):
        g1 = Dag(4, [(0, 1), (1, 2), (2, 3)])
        g2 = Dag(4, [(0, 1), (1, 2), (3, 2)])
        assert shd(g1, g2) == 1

    def test_missing_adjacency_costs_one(self):
        g1 = Dag(3, [(0, 1), (1, 2)])
        g2 = Dag(3, [(0, 1)])
        assert shd(g1, g2) == 1

    def test_shd_metric_axioms(self):
        rng = np.random.default_rng(9)
        graphs = [random_dag(rng, 5, 0.5) for _ in range(9)]
        for g, h in combinations(graphs, 2):
            assert shd(g, h) == shd(h, g)
            assert (shd(g, h) == 0) == (g.edges == h.edges)
        for g in graphs:
            for h in graphs:
                for f in graphs:
                    assert shd(g, f) <= shd(g, h) + shd(h, f)

    def test_sensitivity_unrecovered_pair(self):
        g = Dag(3, [(0, 2), (1, 2)])
        truth = ColoredDag(g, edge_classes=[[(0, 2), (1, 2)]])
        est = uncolored(Dag(3, [(0, 2)]))
        assert color_sensitivity(truth, est) == 0.0

    def test_sensitivity_defaults_to_one_without_pairs(self):
        truth = uncolored(Dag(3, [(0, 2), (1, 2)]))
        assert color_sensitivity(truth, uncolored(Dag(3))) == 1.0

    def test_sensitivity_range(self):
        rng = np.random.default_rng(10)
        for seed in range(10):
            truth, _ = random_bpec(6, 0.5, 2, seed=seed)
            est, _ = random_bpec(6, 0.5, 2, seed=seed + 100)
            assert 0.0 <= color_sensitivity(truth, est) <= 1.0


class TestSweep:
    CONFIG = {"p": [4], "rho": [0.5], "nc": [2], "n": [200],
              "replicates": 2, "seed": 7}

    def test_rows_and_determinism(self):
        config = SweepConfig.from_json_dict(self.CONFIG)
        rows = run_sweep(config)
        assert len(rows) == 4  # 2 replicates x 2 methods
        assert [r["method"] for r in rows] == ["gecs", "baseline"] * 2
        assert all(r["error"] == "" for r in rows)
        again = run_sweep(config)
        for a, b in zip(rows, again):
            assert a["shd"] == b["shd"] and a["seed"] == b["seed"]

    def test_zero_replicates_empty_csv(self, tmp_path):
        config = SweepConfig.from_json_dict(dict(self.CONFIG, replicates=0))
        rows = run_sweep(config)
        assert rows == []
        out = tmp_path / "results.csv"
        write_results_csv(rows, out)
        header = out.read_text().strip()
        assert header == "p,rho,nc,n,seed,method,shd,sensitivity,runtime,error"

    def test_cell_seeds_are_pinned(self):
        # a cell's seed keys rho by round(rho * 1000); past rho = 1.8e305
        # that product overflows, and every such rho shares one key
        assert [_cell_seed(7, 4, rho, 2, 200, 1) for rho in (0.0005, 0.5, 1e300)] == [
            394619393, 2392041270, 2295437506]
        assert _cell_seed(7, 4, 1e306, 2, 200, 1) == _cell_seed(7, 4, 1.7e308, 2, 200, 1)

    def test_failed_cell_gets_error_tag(self):
        # n=1 trips the fit precondition inside both methods
        config = SweepConfig.from_json_dict(
            {"p": [4], "rho": [0.8], "nc": [2], "n": [1],
             "replicates": 1, "seed": 1})
        rows = run_sweep(config)
        assert len(rows) == 2
        assert all(r["error"] != "" and r["shd"] == "" for r in rows)
