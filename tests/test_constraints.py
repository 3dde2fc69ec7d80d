"""Constraint generators, Markov checks, faithfulness, and model equivalence."""

import hashlib
import json
import re
import warnings

import numpy as np
import pytest

from cdag import constraints
from cdag.bench import random_bpec
from cdag.coloring import ColoredDag, uncolored
from cdag.constraints import (RelationPoly, check_global_markov, check_local_markov,
                              faithfulness_scan, local_generators,
                              model_equivalent)
from cdag.dag import Dag
from cdag.errors import CdagError, NotPositiveDefiniteError, SizeGuardError
from cdag.params import (ModelParams, almost_principal_minor, parametrize,
                         random_params)

import oracles
from oracles import all_dags, normalized_residual, random_colored_dag

P4 = Dag(4, [(0, 1), (1, 2), (2, 3)])
P4_COLORED = ColoredDag(P4, vertex_classes=[[0, 2]],
                        edge_classes=[[(0, 1), (2, 3)]])

EX48 = ColoredDag(Dag(5, [(0, 4), (0, 2), (1, 4), (2, 3), (3, 4)]),
                  vertex_classes=[[1, 2], [3, 4]],
                  edge_classes=[[(0, 4), (0, 2)], [(1, 4), (2, 3), (3, 4)]])

EX516_A = ColoredDag(Dag(6, [(0, 1), (0, 2), (1, 2), (0, 3), (3, 4), (3, 5), (4, 5)]),
                     edge_classes=[[(0, 1), (3, 4)]])
EX516_B = ColoredDag(Dag(6, [(0, 1), (0, 2), (1, 2), (3, 0), (3, 4), (3, 5), (4, 5)]),
                     edge_classes=[[(0, 1), (3, 4)]])


class TestLocalGenerators:
    def test_path_generator_inventory(self):
        labels = {g.label() for g in local_generators(P4_COLORED)}
        assert labels == {"cir(1,3 | {2})", "cir(1,4 | {3})", "cir(2,4 | {3})",
                          "vcr(1,3; {},{2})", "ecr(1->2,3->4; {1},{3})"}

    def test_path_polynomials_match_printed_forms(self):
        # the three independence polynomials, the vertex relation, and the
        # edge relation of the colored path, written out by hand
        printed = {
            "cir(1,3 | {2})": lambda s: s[0, 2] * s[1, 1] - s[0, 1] * s[1, 2],
            "cir(1,4 | {3})": lambda s: s[0, 3] * s[2, 2] - s[0, 2] * s[2, 3],
            "cir(2,4 | {3})": lambda s: s[1, 3] * s[2, 2] - s[1, 2] * s[2, 3],
            "vcr(1,3; {},{2})":
                lambda s: s[0, 0] * s[1, 1] - s[1, 1] * s[2, 2] + s[1, 2] ** 2,
            "ecr(1->2,3->4; {1},{3})":
                lambda s: s[0, 1] * s[2, 2] - s[0, 0] * s[2, 3],
        }
        rng = np.random.default_rng(0)
        gens = {g.label(): g for g in local_generators(P4_COLORED)}
        for _ in range(50):
            a = rng.standard_normal((4, 4))
            s = (a + a.T) / 2
            for label, poly in printed.items():
                assert gens[label](s) == pytest.approx(poly(s), abs=1e-12)

    def test_cir_equals_almost_principal_minor(self):
        rng = np.random.default_rng(1)
        cd = uncolored(P4)
        sigma = parametrize(cd, random_params(cd, rng))
        for gen in local_generators(cd):
            if gen.kind == "cir":
                i, j = gen.indices
                assert gen(sigma) == almost_principal_minor(
                    sigma, i, j, P4.parents(j))

    def test_generators_vanish_on_model_points(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            cd = random_colored_dag(rng, int(rng.integers(2, 7)))
            sigma = parametrize(cd, random_params(cd, rng))
            for gen in local_generators(cd):
                assert abs(gen(sigma)) < 1e-7

    def test_non_natural_order_uses_topological_parents(self):
        # 3 -> 2 -> 1: the pair {1, 3} must condition on pa(1) = {2}
        g = Dag(3, [(2, 1), (1, 0)])
        (gen,) = local_generators(uncolored(g))
        cd = uncolored(g)
        sigma = parametrize(cd, random_params(cd, np.random.default_rng(3)))
        assert abs(gen(sigma)) < 1e-12


class TestMarkovChecks:
    def test_model_point_passes_local(self):
        theta = ModelParams((1.0, 2.0, 3.0), (0.5, 0.7))
        report = check_local_markov(parametrize(P4_COLORED, theta), P4_COLORED)
        assert report.ok and report.n_checked == 5

    def test_dropped_coloring_violates_relations(self):
        rng = np.random.default_rng(4)
        sigma = parametrize(uncolored(P4), random_params(uncolored(P4), rng))
        report = check_local_markov(sigma, P4_COLORED)
        assert not report.ok
        assert {v.constraint.kind for v in report.violations} == {"vcr", "ecr"}

    def test_identity_on_complete_dag(self):
        complete = Dag(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
        report = check_local_markov(np.eye(4), uncolored(complete))
        assert report.ok

    def test_global_full_and_sampled(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            cd = random_colored_dag(rng, int(rng.integers(2, 7)))
            sigma = parametrize(cd, random_params(cd, rng))
            assert check_global_markov(sigma, cd).ok
            sampled = check_global_markov(sigma, cd, budget=50, seed=3)
            assert sampled.ok and sampled.mode.startswith("sampled")

    def test_global_full_guard(self):
        g = Dag(9)
        with pytest.raises(SizeGuardError):
            check_global_markov(np.eye(9), uncolored(g))

    def test_global_sampled_beyond_guard(self):
        rng = np.random.default_rng(11)
        cd = random_colored_dag(rng, 10, rho=0.3)
        sigma = parametrize(cd, random_params(cd, rng))
        report = check_global_markov(sigma, cd, budget=40, seed=2)
        assert report.ok and report.mode.startswith("sampled")

    def test_rejects_indefinite_input(self):
        with pytest.raises(NotPositiveDefiniteError):
            check_local_markov(np.diag([1.0, -1.0, 1.0, 1.0]), P4_COLORED)


class TestFaithfulnessScan:
    def test_example48_reports_exactly_one_triple(self):
        assert faithfulness_scan(EX48, trials=20, seed=0) == [(0, 3, frozenset({4}))]

    def test_vertex_colored_scan_empty(self):
        rng = np.random.default_rng(6)
        for _ in range(5):
            cd = random_colored_dag(rng, int(rng.integers(3, 6)), kind="vertex")
            assert faithfulness_scan(cd, trials=10, seed=1) == []

    def test_edge_colored_scan_empty(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            cd = random_colored_dag(rng, int(rng.integers(3, 6)), kind="edge")
            assert faithfulness_scan(cd, trials=10, seed=1) == []

    def test_size_guard(self):
        with pytest.raises(SizeGuardError):
            faithfulness_scan(uncolored(Dag(9)), trials=2)


class TestModelEquivalence:
    def test_six_node_pair_equivalent(self):
        assert model_equivalent(EX516_A, EX516_B, seed=0).equivalent

    def test_split_class_distinct_with_witness(self):
        result = model_equivalent(EX516_A, uncolored(EX516_A.graph), seed=0)
        assert not result.equivalent
        assert result.witness is not None
        assert result.witness.constraint.kind == "ecr"

    def test_self_equivalent(self):
        assert model_equivalent(EX48, EX48, trials=5, seed=1).equivalent

    def test_empty_model(self):
        empty = uncolored(Dag(0))
        sigma = parametrize(empty, ModelParams((), ()))
        assert sigma.shape == (0, 0)
        assert check_local_markov(sigma, empty).ok
        assert model_equivalent(empty, empty, trials=2, seed=0).equivalent

    def test_size_mismatch_rejected(self):
        from cdag.errors import GraphError
        with pytest.raises(GraphError):
            model_equivalent(EX48, EX516_A)

    def test_reflexive_and_symmetric_on_random_inputs(self):
        rng = np.random.default_rng(8)
        for _ in range(6):
            cd1 = random_colored_dag(rng, 4)
            cd2 = random_colored_dag(rng, 4)
            assert model_equivalent(cd1, cd1, trials=5, seed=2).equivalent
            forward = model_equivalent(cd1, cd2, trials=10, seed=2).equivalent
            backward = model_equivalent(cd2, cd1, trials=10, seed=2).equivalent
            assert forward == backward

    def test_single_color_chain_identifiable(self):
        # the one-class 3-chain is distinct from every other constant-colored
        # DAG on three vertices with at least two edges
        chain = Dag(3, [(0, 1), (1, 2)])
        colored_chain = ColoredDag(chain, edge_classes=[sorted(chain.edges)])
        hits = 0
        for g in all_dags(3):
            if len(g.edges) < 2 or g.edges == chain.edges:
                continue
            other = ColoredDag(g, edge_classes=[sorted(g.edges)])
            hits += 1
            assert not model_equivalent(colored_chain, other,
                                        trials=20, seed=5).equivalent
        assert hits > 10


def _noise_sigma(p, seed):
    # a generic positive definite matrix: no relation vanishes on it, so at
    # tol=0 every relation a check enumerates is reported, in order
    a = np.random.default_rng(seed).standard_normal((p, p))
    return a @ a.T / p + np.eye(p)


G6 = ColoredDag(Dag(6, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (2, 4), (3, 4),
                        (3, 5), (4, 5), (0, 5)]),
                vertex_classes=[[1, 4]], edge_classes=[[(0, 1), (3, 5)]])
G10 = ColoredDag(Dag(10, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7),
                          (7, 8), (8, 9), (0, 5), (2, 7)]),
                 vertex_classes=[[1, 6]],
                 edge_classes=[[(0, 1), (5, 6)], [(2, 3), (7, 8)]])


class TestGlobalGolden:
    """The exact constraint lists of the global check, in evaluation order."""

    def _labels(self, cd, noise_seed, **kwargs):
        report = check_global_markov(_noise_sigma(cd.p, noise_seed), cd, tol=0.0,
                                     **kwargs)
        assert report.n_checked == len(report.violations)
        return [v.constraint.label() for v in report.violations]

    def test_full_p6(self):
        assert self._labels(G6, 0) == [
            "cir(1,4 | {2,3})", "cir(1,4 | {2,3,5})", "cir(1,5 | {2,3})",
            "cir(1,5 | {3,4})", "cir(1,5 | {2,3,4})", "cir(2,5 | {3,4})",
            "cir(2,5 | {1,3,4})", "cir(2,5 | {1,3,4,6})", "cir(2,6 | {1,3,4})",
            "cir(2,6 | {1,4,5})", "cir(2,6 | {1,3,4,5})", "cir(3,6 | {1,4,5})",
            "cir(3,6 | {1,2,4,5})",
            "vcc(2,5; {1},{1,2,3,4})", "vcc(2,5; {1},{1,3,4})",
            "vcc(2,5; {1},{2,3,4})", "vcc(2,5; {1},{3,4})",
            "ecc(1->2,4->6; {1},{1,2,3,4,5})", "ecc(1->2,4->6; {1},{1,2,4,5})",
            "ecc(1->2,4->6; {1},{1,3,4,5})", "ecc(1->2,4->6; {1},{1,4,5})",
            "ecc(1->2,4->6; {1},{2,3,4,5})"]

    def test_budget_subsamples_enumerated_triples_p6(self):
        # budget 4 is below the 13 d-separated triples
        assert self._labels(G6, 0, budget=4, seed=3) == [
            "cir(1,4 | {2,3})", "cir(1,5 | {2,3})", "cir(1,5 | {3,4})",
            "cir(2,6 | {1,3,4})",
            "ecc(1->2,4->6; {1},{1,2,3,4,5})", "vcc(2,5; {1},{1,3,4})",
            "vcc(2,5; {1},{2,3,4})", "vcc(2,5; {1},{1,3,4})"]

    def test_budget_samples_beyond_guard_p10(self):
        assert self._labels(G10, 1, budget=6, seed=4) == [
            "cir(5,8 | {3,6,9})", "cir(2,6 | {1,3,4,5,9})", "cir(4,9 | {2,8,10})",
            "cir(3,10 | {1,5,7,8,9})", "cir(4,9 | {1,3,6,8,10})",
            "ecc(1->2,6->7; {1},{6})", "ecc(1->2,6->7; {1},{1,2,6})",
            "ecc(1->2,6->7; {1},{6})", "ecc(1->2,6->7; {1},{1,3,4,6})",
            "vcc(2,7; {1},{1,4,5,6})", "ecc(3->4,8->9; {3},{3,4,6,8})"]


def global_reports_digest():
    """SHA-256 over full global checks at p = 2..8: every relation's label,
    in order, and ``checked`` on a noise covariance at tol = 0, and the
    verdict and ``checked`` on the exact covariance."""
    h = hashlib.sha256()
    for p in range(2, 9):
        for rho in (0.3, 0.7):
            for s in range(2):
                cd, theta = random_bpec(p, rho, 2, [31, p, s])
                noise = check_global_markov(_noise_sigma(p, s), cd, tol=0.0)
                exact = check_global_markov(parametrize(cd, theta), cd)
                h.update(json.dumps([noise.n_checked,
                                     [v.constraint.label() for v in noise.violations],
                                     exact.n_checked, exact.ok]).encode())
    return h.hexdigest()


def global_residuals_digest():
    """SHA-256 over full and budget-40 global checks at p = 2..8, of BPEC
    models and of their ``_tinted`` vertex-colored forms, so products of
    both kinds are covered: every relation's label and residual bits, in
    order, on a noise covariance at tol = 0."""
    h = hashlib.sha256()
    for p in range(2, 9):
        for rho in (0.3, 0.7):
            for s in range(2):
                cd, _ = random_bpec(p, rho, 2, [33, p, s])
                sigma = _noise_sigma(p, s)
                for model in (cd, _tinted(cd)):
                    for options in ({}, {"budget": 40, "seed": s}):
                        report = check_global_markov(sigma, model, tol=0.0, **options)
                        assert report.n_checked == len(report.violations)
                        h.update(json.dumps([report.mode] + [
                            (v.constraint.label(), v.residual.hex())
                            for v in report.violations]).encode())
    return h.hexdigest()


def faithfulness_digest():
    """SHA-256 over faithfulness scans at p = 2..6, at a tolerance loose
    enough that weak dependences are reported too, and of EX48."""
    h = hashlib.sha256()
    for cd, tol, seed in [(random_bpec(p, 0.5, 2, [32, p, s])[0], 0.2, s)
                          for p in range(2, 7) for s in range(3)] + [(EX48, 1e-9, 1)]:
        found = faithfulness_scan(cd, trials=3, tol=tol, seed=seed)
        h.update(json.dumps([(i, j, sorted(k)) for i, j, k in found]).encode())
    return h.hexdigest()


class TestSeparatedTriples:
    def test_stacked_split_equals_the_per_triple_oracle(self):
        rng = np.random.default_rng(25)
        graphs = [Dag(p) for p in range(5)] + [Dag(8, [(0, 1), (1, 2)])]
        graphs += [oracles.random_dag(rng, p, float(rng.uniform(0.2, 0.8)))
                   for p in range(1, 9) for _ in range(3)]
        for g in graphs:
            for separated in (True, False):
                assert constraints._separated_triples(g, separated) == \
                    oracles.separated_triples(g, separated)


class TestPinnedOutputs:
    """Digests recorded before the d-separation queries were stacked."""

    def test_global_reports(self):
        assert global_reports_digest() == \
            "a1e0805139456067264e17b272494d1409be76d7d931e2eacd0c6f2954053e63"

    def test_global_residuals(self):
        # recorded before the products were listed in one call per kind
        assert global_residuals_digest() == \
            "07a28b06df7f4ba19431583784cfdc2101d7af5afca23a684529d27d5d7dbefd"

    def test_faithfulness_scans(self):
        assert faithfulness_digest() == \
            "d2a8a8dca5b81f5149b4b762ab6e956349270d9477f856a609139f6f98957a04"


def _residuals(check, sigma, cd, **kwargs):
    # at tol=0 a generic covariance reports every relation, in order
    report = check(sigma, cd, tol=0.0, **kwargs)
    assert report.n_checked == len(report.violations)
    return report.violations


class TestScaleFreeResiduals:
    def test_exact_covariances_pass_and_are_self_equivalent_up_to_p40(self):
        for p in (10, 20, 30, 40):
            for seed in range(3):
                cd, theta = random_bpec(p, 0.5, 2, [p, seed])
                assert check_local_markov(parametrize(cd, theta), cd).ok
                assert model_equivalent(cd, cd, seed=seed).equivalent

    @pytest.mark.parametrize("p", [60, 70])
    def test_exact_covariances_pass_and_are_self_equivalent_above_p40(self, p):
        cd, theta = random_bpec(p, 0.5, 2, [p, 0])
        assert check_local_markov(parametrize(cd, theta), cd).ok
        assert model_equivalent(cd, cd, seed=0).equivalent

    def test_perturbed_covariances_fail(self):
        # a 1e-3 relative perturbation, by congruence so it stays positive definite
        for p in (10, 20, 30):
            cd, theta = random_bpec(p, 0.5, 2, [p, 7])
            a = np.eye(p) + 1e-3 * np.random.default_rng(p).standard_normal((p, p))
            report = check_local_markov(a @ parametrize(cd, theta) @ a.T, cd)
            assert max(abs(v.residual) for v in report.violations) > 1e-3

    @pytest.mark.parametrize("check", [check_local_markov, check_global_markov])
    def test_residuals_and_verdicts_are_invariant_to_scale(self, check):
        cd, theta = random_bpec(7, 0.5, 2, [7, 1])
        sigma = _noise_sigma(7, 2)
        base = _residuals(check, sigma, cd)
        for c in (1e100, 1e-100):
            scaled = _residuals(check, c * sigma, cd)
            assert [v.constraint for v in scaled] == [v.constraint for v in base]
            np.testing.assert_allclose([v.residual for v in scaled],
                                       [v.residual for v in base], rtol=1e-12, atol=0)
            model = parametrize(cd, theta)
            assert check(c * model, cd).ok and check(model, cd).ok
        # rescaling single variables moves the coloring relations, not independence
        d = np.diag(np.random.default_rng(3).uniform(0.01, 100.0, 7))
        rescaled = _residuals(check, d @ sigma @ d, cd)
        cir = [t for t, v in enumerate(base) if v.constraint.kind == "cir"]
        np.testing.assert_allclose([rescaled[t].residual for t in cir],
                                   [base[t].residual for t in cir], rtol=1e-12, atol=0)
        g = uncolored(cd.graph)
        model = parametrize(g, random_params(g, np.random.default_rng(4)))
        assert check(d @ model @ d, g).ok and check(model, g).ok

    def test_every_kind_matches_the_solve_oracle(self):
        rng = np.random.default_rng(9)
        kinds = set()
        for _ in range(8):
            cd = random_colored_dag(rng, int(rng.integers(4, 7)))
            sigma = _noise_sigma(cd.p, int(rng.integers(1000)))
            for check in (check_local_markov, check_global_markov):
                for v in _residuals(check, sigma, cd):
                    rel = v.constraint
                    kinds.add(rel.kind)
                    assert v.residual == pytest.approx(
                        normalized_residual(rel.kind, rel.indices, rel.given, sigma),
                        rel=1e-9, abs=1e-12), rel.label()
        assert kinds == {"cir", "vcr", "ecr", "vcc", "ecc"}

    def test_huge_scale_reports_every_violation_without_warnings(self):
        cd, _ = random_bpec(6, 0.5, 2, [3, 1])
        sigma = _noise_sigma(6, 0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            huge = check_local_markov(1e160 * sigma, cd)
        assert len(huge.violations) == huge.n_checked == 11
        assert ([v.constraint for v in huge.violations]
                == [v.constraint for v in check_local_markov(sigma, cd).violations])

    def test_non_finite_residual_is_an_error(self):
        # sd_2 / sd_1 overflows, so the coefficient on 1 -> 2 is not finite
        sigma = np.diag([1e-320, 1e300, 1.0, 1.0])
        with pytest.raises(CdagError, match=re.escape("ecr(1->2,3->4; {1},{3})")):
            check_local_markov(sigma, P4_COLORED)


class TestArguments:
    @pytest.mark.parametrize("call, expected", [
        (lambda: check_global_markov(np.eye(4), uncolored(P4), budget=0),
         "budget must be at least 1, got 0"),
        (lambda: check_global_markov(np.eye(4), uncolored(P4), budget=-1),
         "budget must be at least 1, got -1"),
        (lambda: model_equivalent(EX48, EX48, trials=0), "trials must be at least 1, got 0"),
        (lambda: check_local_markov(np.eye(4), P4_COLORED, tol=-1.0),
         "tol must be nonnegative, got -1.0"),
        (lambda: check_global_markov(np.eye(4), P4_COLORED, tol=float("nan")),
         "tol must be nonnegative, got nan"),
        (lambda: model_equivalent(EX48, EX48, tol=-1e-9),
         "tol must be nonnegative, got -1e-09"),
        (lambda: faithfulness_scan(uncolored(P4), trials=0),
         "trials must be at least 1, got 0"),
        (lambda: faithfulness_scan(uncolored(P4), trials=-3),
         "trials must be at least 1, got -3"),
        (lambda: faithfulness_scan(uncolored(P4), tol=-1.0),
         "tol must be nonnegative, got -1.0"),
        (lambda: faithfulness_scan(uncolored(P4), tol=float("nan")),
         "tol must be nonnegative, got nan"),
        (lambda: check_local_markov(np.eye(4), P4_COLORED, tol=float("inf")),
         "tol must be finite, got inf"),
        (lambda: check_global_markov(np.eye(4), uncolored(P4), tol=float("inf")),
         "tol must be finite, got inf"),
        (lambda: model_equivalent(EX48, EX48, tol=float("inf")),
         "tol must be finite, got inf"),
        (lambda: faithfulness_scan(uncolored(P4), tol=float("inf")),
         "tol must be finite, got inf"),
        (lambda: check_local_markov(np.eye(4), P4_COLORED, tol=-float("inf")),
         "tol must be nonnegative, got -inf"),
        (lambda: model_equivalent(EX48, EX48, trials=2.5), "trials must be an integer, got 2.5"),
        (lambda: model_equivalent(EX48, EX48, trials=True),
         "trials must be an integer, got True"),
        (lambda: faithfulness_scan(uncolored(P4), trials=2.5),
         "trials must be an integer, got 2.5"),
        (lambda: faithfulness_scan(uncolored(P4), trials=np.float64(3.0)),
         "trials must be an integer, got np.float64(3.0)"),
        (lambda: check_global_markov(np.eye(4), uncolored(P4), budget=2.5),
         "budget must be an integer, got 2.5"),
        (lambda: check_global_markov(np.eye(4), uncolored(P4), budget=True),
         "budget must be an integer, got True"),
        (lambda: check_global_markov(np.eye(4), uncolored(P4), budget=np.bool_(True)),
         "budget must be an integer, got np.True_"),
        (lambda: check_global_markov(np.eye(4), uncolored(P4), seed=-1),
         "seed must be at least 0, got -1"),
        (lambda: check_global_markov(np.eye(4), uncolored(P4), budget=5, seed=-1),
         "seed must be at least 0, got -1"),
        (lambda: model_equivalent(EX48, EX48, seed=-1), "seed must be at least 0, got -1"),
        (lambda: faithfulness_scan(uncolored(P4), seed=-1), "seed must be at least 0, got -1"),
        (lambda: model_equivalent(EX48, EX48, seed=1.0), "seed must be an integer, got 1.0"),
        (lambda: faithfulness_scan(uncolored(P4), seed=None),
         "seed must be an integer, got None"),
        (lambda: check_global_markov(np.eye(4), uncolored(P4), seed=[1, 2]),
         "seed must be an integer, got [1, 2]"),
    ])
    def test_numeric_arguments_out_of_range(self, call, expected):
        with pytest.raises(CdagError, match=re.escape(expected)):
            call()

    def test_nested_list_sigma(self):
        # a relation evaluates a nested-list sigma as it does the array
        sigma = parametrize(EX48, random_params(EX48, np.random.default_rng(1)))
        relations = local_generators(EX48) + [RelationPoly("cir", (0, 1), ((),))]
        assert {r.kind for r in relations} == {"cir", "vcr", "ecr"}
        for relation in relations:
            assert relation(sigma.tolist()) == relation(sigma)

    def test_numpy_integers_are_integers(self):
        result = model_equivalent(EX48, EX48, trials=np.int64(2), seed=np.uint8(1))
        assert json.loads(json.dumps(result.to_json_dict()))["trials"] == 2
        report = check_global_markov(np.eye(4), uncolored(P4), budget=np.int32(3),
                                     seed=np.int64(4))
        assert report.mode == "sampled(budget=3, seed=4)"
        assert faithfulness_scan(uncolored(P4), trials=np.int16(2), seed=np.int64(0)) == []


def _bits(values):
    return np.asarray(values, dtype=float).view(np.int64)


class TestBlocksMatchTheRelationList:
    """The checks list their relations as arrays and compile them in bulk;
    the reference compiles the explicit RelationPoly list one relation at a
    time."""

    @pytest.mark.parametrize("seed", range(4))
    def test_full_p8(self, seed):
        cd, _ = random_bpec(8, 0.5, 2, [15, seed])
        sigma = _noise_sigma(8, seed)
        report = check_global_markov(sigma, cd, tol=0.0)
        relations = oracles.global_relations(cd)
        assert report.n_checked == len(relations) == len(report.violations)
        assert [v.constraint.describe() for v in report.violations] == \
            [r.describe() for r in relations]
        assert (_bits([v.residual for v in report.violations])
                == _bits(oracles.ListEvaluator(relations).residuals(sigma))).all()

    @pytest.mark.parametrize("p, budget, seed", [(6, 9, 1), (8, 40, 2), (10, 30, 3),
                                                 (12, 50, 4)])
    def test_sampled(self, p, budget, seed):
        cd, _ = random_bpec(p, 0.5, 2, [16, seed])
        sigma = _noise_sigma(p, seed)
        report = check_global_markov(sigma, cd, tol=0.0, budget=budget, seed=seed)
        relations = oracles.global_relations(cd, budget=budget, seed=seed)
        assert [v.constraint for v in report.violations] == relations
        assert (_bits([v.residual for v in report.violations])
                == _bits(oracles.ListEvaluator(relations).residuals(sigma))).all()

    def test_local(self):
        for p in (5, 10, 20, 30, 60):
            cd, _ = random_bpec(p, 0.5, 2, [17, p])
            sigma = _noise_sigma(p, p)
            report = check_local_markov(sigma, cd, tol=0.0)
            relations = oracles.local_relations(cd)
            assert local_generators(cd) == relations
            assert [v.constraint for v in report.violations] == relations
            assert [v.constraint.label() for v in report.violations] == \
                [r.label() for r in relations]
            assert (_bits([v.residual for v in report.violations])
                    == _bits(oracles.ListEvaluator(relations).residuals(sigma))).all()


def _minor_set(sizes):
    return {(tuple(r), tuple(c)) for _, rows, cols in sizes
            for r, c in zip(rows.tolist(), cols.tolist())}


def _tinted(cd):
    """cd with four vertex color classes added to its edge classes."""
    return ColoredDag(cd.graph, vertex_classes=[range(c, cd.p, 4)
                                                for c in range(min(4, cd.p))],
                      edge_classes=cd.edge_classes)


class TestCompileParity:
    """The bulk compile finds exactly the distinct minors, one slot each, that
    compiling the RelationPoly list one relation at a time finds."""

    @staticmethod
    def _assert_same_minors(evaluator, relations):
        reference = oracles.ListEvaluator(relations)
        assert evaluator.size == len(relations)
        assert evaluator._n_slots == reference.n_slots
        assert _minor_set(evaluator._sizes) == _minor_set(reference._sizes)
        slots = np.concatenate([ids for ids, _, _ in evaluator._sizes])
        assert sorted(slots.tolist()) == list(range(evaluator._n_slots))

    @staticmethod
    def _global_evaluator(monkeypatch, cd, **options):
        built = []

        class Kept(constraints._Evaluator):
            def __init__(self, relations):
                super().__init__(relations)
                built.append(self)

        monkeypatch.setattr(constraints, "_Evaluator", Kept)
        check_global_markov(_noise_sigma(cd.p, 0), cd, tol=0.0, **options)
        (evaluator,) = built
        return evaluator

    @pytest.mark.parametrize("p", [10, 30, 60, 70])
    def test_local(self, p):
        # p = 70 needs two bitmask words per set
        cd, _ = random_bpec(p, 0.5, 2, [22, p])
        for model in (cd, _tinted(cd)):
            evaluator = constraints._Evaluator(constraints._local_relations(model))
            self._assert_same_minors(evaluator, oracles.local_relations(model))

    @pytest.mark.parametrize("seed", range(2))
    def test_full_global_p8(self, monkeypatch, seed):
        cd, _ = random_bpec(8, 0.5, 2, [23, seed])
        for model in (cd, _tinted(cd)):
            self._assert_same_minors(self._global_evaluator(monkeypatch, model),
                                     oracles.global_relations(model))

    def test_sampled_global_p10(self, monkeypatch):
        cd = _tinted(random_bpec(10, 0.5, 2, [24, 10])[0])
        evaluator = self._global_evaluator(monkeypatch, cd, budget=40, seed=5)
        self._assert_same_minors(evaluator, oracles.global_relations(cd, budget=40, seed=5))


class TestDistinctRequests:
    """The compile requests each term's minors once per distinct (head, set)
    pair, however many relations share the pair."""

    MINORS = {"cir": 3, "vcc": 2, "ecc": 2}
    HEADS = {"cir": [[0, 1]], "vcc": [[0], [1]], "ecc": [[0, 1], [2, 3]]}

    @pytest.mark.parametrize("k", range(3))
    def test_full_global_p8(self, monkeypatch, k):
        requested, built = [], []

        class Counted(constraints._SetTable):
            def keys(self, minors):
                requested.append(sum(len(s) for s, _ in minors))
                return super().keys(minors)

        class Kept(constraints._Evaluator):
            def __init__(self, relations):
                built.append(relations)
                super().__init__(relations)

        monkeypatch.setattr(constraints, "_SetTable", Counted)
        monkeypatch.setattr(constraints, "_Evaluator", Kept)
        cd, _ = random_bpec(8, 0.5, 2, [41, k, 0])
        for model in (cd, _tinted(cd)):
            requested.clear()
            built.clear()
            check_global_markov(_noise_sigma(8, k), model, tol=0.0)
            (relations,) = built
            needed = every = 0
            for kind, (_, indices, given) in relations.by_kind().items():
                for cols, sids in zip(self.HEADS[kind], given):
                    pairs = {(*row, sid) for row, sid in
                             zip(indices[:, cols].tolist(), sids.tolist())}
                    needed += self.MINORS[kind] * len(pairs)
                    every += self.MINORS[kind] * len(sids)
            assert requested == [needed]
            assert every > 4 * needed


class TestStackedTrials:
    def test_stacked_residuals_equal_one_matrix_at_a_time(self):
        rng = np.random.default_rng(18)
        for p in (2, 3, 6, 10, 15):
            for _ in range(3):
                cd, _ = random_bpec(p, 0.5, 2, [18, p, int(rng.integers(1000))])
                evaluator = constraints._Evaluator(constraints._local_relations(cd))
                stack = np.array([parametrize(cd, random_params(cd, rng)) for _ in range(7)])
                stack[3] = _noise_sigma(p, 3)
                stacked = evaluator.residuals(stack)
                assert stacked.shape == (7, evaluator.size)
                for t in range(7):
                    assert (_bits(stacked[t]) == _bits(evaluator.residuals(stack[t]))).all()

    def test_stacked_global_residuals_equal_one_matrix_at_a_time(self):
        cd, _ = random_bpec(7, 0.5, 2, [18, 7])
        g = cd.graph
        relations = constraints._Relations(g.p)
        relations.add_triples(constraints._separated_triples(g, True))
        evaluator = constraints._Evaluator(relations)
        stack = np.array([_noise_sigma(7, s) for s in range(4)])
        stacked = evaluator.residuals(stack)
        for t in range(4):
            assert (_bits(stacked[t]) == _bits(evaluator.residuals(stack[t]))).all()

    def test_late_witness_is_the_recorded_one(self):
        # recorded before trials were stacked: the second side fails first at trial 37
        a, _ = random_bpec(5, 0.5, 2, [19, 7])
        b, _ = random_bpec(5, 0.5, 2, [19, 8])
        result = model_equivalent(b, a, trials=60, tol=1.3, seed=19)
        w = result.witness
        assert (w.side, w.trial, w.constraint.label(), w.residual.hex()) == \
            (2, 37, "ecr(2->5,3->5; {2,3},{2,3})", "0x1.5c85e740130c6p+0")

    def test_first_trial_witness_is_the_recorded_one(self):
        a, _ = random_bpec(6, 0.5, 2, [15, 5])
        b, _ = random_bpec(6, 0.5, 2, [15, 6])
        w = model_equivalent(a, b, seed=3).witness
        assert (w.side, w.trial, w.constraint.label(), w.residual.hex()) == \
            (1, 0, "cir(1,4 | {2,3})", "-0x1.863a7e6f11138p-2")

    @pytest.mark.parametrize("stack_bytes", [1, 10_000, constraints.STACK_BYTES])
    def test_stack_size_does_not_change_the_answer(self, monkeypatch, stack_bytes):
        monkeypatch.setattr(constraints, "STACK_BYTES", stack_bytes)
        a, _ = random_bpec(5, 0.5, 2, [19, 7])
        b, _ = random_bpec(5, 0.5, 2, [19, 8])
        assert model_equivalent(b, a, trials=60, tol=1.3, seed=19).witness.trial == 37
        assert model_equivalent(a, a, trials=45, seed=2).equivalent
        assert faithfulness_scan(EX48, trials=25, seed=1) == [(0, 3, frozenset({4}))]

    def test_stacks_are_bounded(self, monkeypatch):
        # the first trial alone, then stacks within the byte budget
        cd, _ = random_bpec(10, 0.5, 2, [19, 10])
        evaluator = constraints._Evaluator(constraints._local_relations(cd))
        monkeypatch.setattr(constraints, "STACK_BYTES", 3 * evaluator._bytes)
        rng = np.random.default_rng(0)
        firsts, sizes = zip(*[(first, len(res)) for first, res in evaluator.trials(cd, rng, 10)])
        assert firsts == (0, 1, 4, 7) and sizes == (1, 3, 3, 3)

    def test_covariances_count_against_the_budget(self):
        # a complete uncolored DAG has no local relation, so only the drawn
        # covariances fill its stacks
        p = 30
        cd = ColoredDag(Dag(p, [(i, j) for j in range(p) for i in range(j)]))
        evaluator = constraints._Evaluator(constraints._local_relations(cd))
        assert evaluator.size == 0 and evaluator._bytes >= 16 * p * p
        rng = np.random.default_rng(0)
        sizes = [len(res) for _, res in evaluator.trials(cd, rng, 2000)]
        assert sum(sizes) == 2000 and len(sizes) > 2
        assert max(sizes) * evaluator._bytes <= constraints.STACK_BYTES

    def test_a_self_pair_compiles_its_generators_once(self, monkeypatch):
        built = []

        class Counted(constraints._Evaluator):
            def __init__(self, relations):
                built.append(relations.p)
                super().__init__(relations)

        monkeypatch.setattr(constraints, "_Evaluator", Counted)
        a, _ = random_bpec(6, 0.5, 2, [21, 6])
        twin = ColoredDag(Dag(a.p, a.graph.edges), edge_classes=a.edge_classes)
        assert twin == a and twin is not a
        assert model_equivalent(a, twin).equivalent and len(built) == 1
        b = ColoredDag(Dag(a.p, a.graph.edges))
        assert model_equivalent(a, b, tol=1e9).equivalent and len(built) == 3

    def test_each_row_of_a_stack_is_checked_on_its_own(self):
        # model_equivalent reads the rows up to its first flagged trial only, so
        # a non-finite residual in a later row of the stack does not hide a witness
        cd = P4_COLORED
        evaluator = constraints._Evaluator(constraints._local_relations(cd))
        stack = np.array([_noise_sigma(4, 1), np.diag([1e-320, 1e300, 1.0, 1.0])])
        res = evaluator.residuals(stack)
        assert evaluator.violations(res[0], 1e-7)
        with pytest.raises(CdagError, match=re.escape("ecr(1->2,3->4; {1},{3})")):
            evaluator.finite(res)

    def test_non_finite_error_names_the_first_matrix_then_the_first_relation(self):
        evaluator = constraints._Evaluator(constraints._local_relations(P4_COLORED))
        labels = [r.label() for r in local_generators(P4_COLORED)]
        res = np.zeros((3, 5))
        res[1, 3], res[1, 4], res[2, 0] = np.inf, np.nan, np.nan
        with pytest.raises(CdagError, match=re.escape(labels[3])):
            evaluator.finite(res)
        with pytest.raises(CdagError, match=re.escape(labels[0])):
            evaluator.finite(res[2])
        row = res[0]
        assert evaluator.finite(row) is row
