"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
summary; tolerances are pinned here and nowhere else.
"""

import json
import time
from itertools import combinations

import numpy as np
import pytest

from cdag.bench import color_sensitivity, random_bpec, sample, shd
from cdag.coloring import ColoredDag, uncolored
from cdag.constraints import (check_global_markov, check_local_markov,
                              faithfulness_scan, local_generators,
                              model_equivalent)
from cdag.dag import Dag
from cdag.fit import Dataset, bic_score, family_ls, fit_families, mle
from cdag.gecs import GecsSearch, baseline_greedy, gecs
from cdag.identify import identifying_sets
from cdag.params import (almost_principal_minor, expand_params,
                         parametrize, random_params, recover_lambda,
                         recover_omega, recover_params)

from oracles import (all_dags, all_natural_dags, normal_equation_ls, path_dsep,
                     random_bpec_like, random_colored_dag, random_dag, trek_covariance)

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


def _report(number, text):
    print(f"[PASS] criterion {number}: {text}")


def test_criterion_1_identification_round_trip():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(500):
        cd = random_colored_dag(rng, int(rng.integers(2, 9)))
        theta = random_params(cd, rng)
        back = recover_params(cd, parametrize(cd, theta))
        worst = max(worst,
                    np.abs(np.array(back.omega) - theta.omega).max(initial=0),
                    np.abs(np.array(back.lam) - np.array(theta.lam)).max(initial=0))
        assert worst < 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _report(1, f"500 round trips, max error {worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_trek_rule_oracle():
    rng = np.random.default_rng(102)
    checked = 0

    def agree(g):
        nonlocal checked
        cd = uncolored(g)
        theta = random_params(cd, rng)
        sigma = parametrize(cd, theta)
        w, lam = expand_params(cd, theta)
        oracle = trek_covariance(g, w, lam)
        scale = 1.0 + np.abs(oracle)
        assert np.all(np.abs(sigma - oracle) <= 1e-12 * scale)
        checked += 1

    for p in (2, 3, 4):
        for g in all_natural_dags(p):
            agree(g)
    for _ in range(100):
        agree(random_dag(rng, 5, 0.5))
    _report(2, f"parametrize = trek summation on {checked} graphs")


def test_criterion_3_identifying_set_soundness():
    rng = np.random.default_rng(103)
    graphs = 0
    while graphs < 50:
        p = int(rng.integers(3, 7))
        g = random_dag(rng, p, 0.5)
        cd = uncolored(g)
        points = [random_params(cd, rng) for _ in range(20)]
        sigmas = [parametrize(cd, t) for t in points]

        def check(target, recover, true_value):
            members = set(identifying_sets(g, target))
            avoid = target if isinstance(target, int) else target[1]
            universe = [v for v in range(p) if v != avoid]
            for r in range(len(universe) + 1):
                for a in combinations(universe, r):
                    errs = [abs(recover(s, a) - true_value(t))
                            for t, s in zip(points, sigmas)]
                    if a in members:
                        assert max(errs) < 1e-8
                    else:
                        assert max(errs) > 1e-4

        i = int(rng.integers(p))
        check(i, lambda s, a, i=i: recover_omega(s, g, i, a),
              lambda t, i=i: t.omega[cd.vertex_color(i)])
        if g.edges:
            edges = sorted(g.edges)
            e = edges[int(rng.integers(len(edges)))]
            check(e, lambda s, a, e=e: recover_lambda(s, g, e[0], e[1], a),
                  lambda t, e=e: t.lam[cd.edge_color(e)])
        graphs += 1
    _report(3, "membership matches 20-point recovery on 50 graphs")


def test_criterion_4_markov_property_equivalence():
    rng = np.random.default_rng(104)
    for trial in range(200):
        cd = random_colored_dag(rng, int(rng.integers(2, 8)))
        sigma = parametrize(cd, random_params(cd, rng))
        local = check_local_markov(sigma, cd, tol=1e-7)
        assert local.ok, local.violations[:1]
        sampled = check_global_markov(sigma, cd, tol=1e-7, budget=60,
                                      seed=trial)
        assert sampled.ok, sampled.violations[:1]
    _report(4, "200 model points, zero local/global violations at 1e-7")


def test_criterion_5a_path_ideal_goldens():
    printed = {
        "cir(1,3 | {2})": lambda s: s[0, 2] * s[1, 1] - s[0, 1] * s[1, 2],
        "cir(1,4 | {3})": lambda s: s[0, 3] * s[2, 2] - s[0, 2] * s[2, 3],
        "cir(2,4 | {3})": lambda s: s[1, 3] * s[2, 2] - s[1, 2] * s[2, 3],
        "vcr(1,3; {},{2})":
            lambda s: s[0, 0] * s[1, 1] - s[1, 1] * s[2, 2] + s[1, 2] ** 2,
        "ecr(1->2,3->4; {1},{3})":
            lambda s: s[0, 1] * s[2, 2] - s[0, 0] * s[2, 3],
    }
    gens = {g.label(): g for g in local_generators(P4_COLORED)}
    assert set(gens) == set(printed)
    rng = np.random.default_rng(105)
    for _ in range(50):
        a = rng.standard_normal((4, 4))
        s = (a + a.T) / 2
        for label, poly in printed.items():
            assert abs(gens[label](s) - poly(s)) <= 1e-12 * (1 + abs(poly(s)))
    _report("5a", "path ideal generators match the printed polynomials")


def test_criterion_5b_unfaithful_minor():
    rng = np.random.default_rng(106)
    for _ in range(100):
        sigma = parametrize(EX48, random_params(EX48, rng))
        assert abs(almost_principal_minor(sigma, 0, 3, [4])) < 1e-10
    plain = uncolored(EX48.graph)
    big = 0
    for _ in range(100):
        sigma = parametrize(plain, random_params(plain, rng))
        if abs(almost_principal_minor(sigma, 0, 3, [4])) > 1e-3:
            big += 1
    assert big >= 95
    _report("5b", f"colored minor vanishes; generic minor large in {big}/100")


def test_criterion_5c_equivalence_pair_and_recolorings():
    assert model_equivalent(EX516_A, EX516_B, trials=20, seed=7).equivalent

    classes = [set(grp) for grp in EX516_A.edge_classes]
    seen = {frozenset(frozenset(c) for c in classes)}
    variants = []
    for e in sorted(EX516_A.graph.edges):
        src = next(t for t, c in enumerate(classes) if e in c)
        moves = []
        if len(classes[src]) >= 2:
            moves.append(len(classes))   # split off into a fresh singleton
        moves.extend(t for t in range(len(classes)) if t != src)
        for dst in moves:
            variant = [set(c) for c in classes] + [set()]
            variant[src].discard(e)
            variant[dst if dst < len(classes) else -1].add(e)
            variant = [c for c in variant if c]
            key = frozenset(frozenset(c) for c in variant)
            if key not in seen:
                seen.add(key)
                variants.append(ColoredDag(EX516_A.graph,
                                           edge_classes=[sorted(c) for c in variant]))
    assert len(variants) >= 20
    for variant in variants:
        result = model_equivalent(variant, EX516_B, trials=20, seed=7)
        assert not result.equivalent and result.witness is not None
    _report("5c", f"pair equivalent; {len(variants)} recolorings distinct")


def test_criterion_6_mle_correctness():
    rng = np.random.default_rng(107)
    # saturated-model implied covariance
    data = Dataset(rng.standard_normal((250, 4)) @ rng.standard_normal((4, 4)))
    complete = uncolored(Dag(4, [(i, j) for i in range(4)
                                 for j in range(i + 1, 4)]))
    theta, _ = mle(complete, data)
    assert np.abs(parametrize(complete, theta)
                  - data.X.T @ data.X / data.n).max() < 1e-10

    # grouped LS against the normal-equation oracle
    for _ in range(100):
        n = int(rng.integers(20, 50))
        width = int(rng.integers(1, 4))
        x = rng.standard_normal((n, width + 1))
        pool = list(rng.permutation(width))
        groups = []
        while pool:
            take = min(len(pool), int(rng.integers(1, 3)))
            groups.append(tuple(sorted(pool[:take])))
            pool = pool[take:]
        edges = tuple(tuple((i, width) for i in grp) for grp in groups)
        coef, rss = family_ls(x.T @ x, (width,), edges, n=n)
        design = np.column_stack([x[:, list(grp)].sum(axis=1) for grp in groups])
        ref_coef, ref_rss = normal_equation_ls(design, x[:, width])
        assert np.abs(coef - ref_coef).max() < 1e-8
        assert abs(rss - ref_rss) < 1e-8

    # decomposability under single-family perturbations
    checked = 0
    while checked < 100:
        cd1 = random_bpec_like(rng, 6)
        heads = sorted({next(iter(grp))[1] for grp in cd1.edge_classes})
        if not heads:
            continue
        data = Dataset(rng.standard_normal((60, 6)) @ rng.standard_normal((6, 6)))
        head = heads[int(rng.integers(len(heads)))]
        groups = [sorted(grp) for grp in cd1.edge_classes]
        merged = [grp for grp in groups if grp[0][1] != head]
        merged.append(sorted(e for grp in groups if grp[0][1] == head
                             for e in grp))
        cd2 = ColoredDag(cd1.graph, edge_classes=merged)
        if cd2 == cd1:
            continue
        fams1 = {f.nodes: f for f in fit_families(cd1, data)[1]}
        fams2 = {f.nodes: f for f in fit_families(cd2, data)[1]}
        total = bic_score(cd2, data) - bic_score(cd1, data)
        local = fams2[(head,)].score(data.n) - fams1[(head,)].score(data.n)
        assert total == pytest.approx(local, abs=1e-9)
        checked += 1
    _report(6, "saturated covariance, grouped LS oracle, decomposability")


def test_criterion_7_gecs_behavior():
    start = time.perf_counter()
    shd_by_n = {}
    sens_by_n = {}
    for n in (250, 1000):
        shds, sens = [], []
        for seed in range(1, 26):
            truth, theta = random_bpec(6, 0.5, 2, seed=seed)
            data = sample(truth, theta, n, seed + 1)
            search = GecsSearch(data)
            est = search.run()
            scores = [row.score for row in search.trace]
            assert all(b > a for a, b in zip(scores, scores[1:]))
            assert est.is_bpec()
            assert est == gecs(data)
            shds.append(shd(truth.graph, est.graph))
            sens.append(color_sensitivity(truth, est))
        shd_by_n[n] = float(np.median(shds))
        sens_by_n[n] = float(np.median(sens))
    elapsed = time.perf_counter() - start
    assert shd_by_n[1000] <= shd_by_n[250]
    # qualitative band from the reported coloring-sensitivity boxes; a miss
    # here warrants investigation rather than automatic rejection
    assert sens_by_n[1000] >= 0.6
    assert elapsed < 900.0
    _report(7, f"median SHD {shd_by_n[250]:.1f}->{shd_by_n[1000]:.1f}, "
               f"sensitivity {sens_by_n[1000]:.2f}, {elapsed:.0f}s for 50 runs")


def test_criterion_8_density_trend():
    gecs_shd, base_shd = [], []
    for seed in range(1, 26):
        truth, theta = random_bpec(6, 0.8, 2, seed=seed)
        data = sample(truth, theta, 1000, seed + 1)
        gecs_shd.append(shd(truth.graph, gecs(data).graph))
        base_shd.append(shd(truth.graph, baseline_greedy(data)))
    med_g, med_b = float(np.median(gecs_shd)), float(np.median(base_shd))
    assert med_g <= med_b
    # caveat: the comparator is DAG-space hill climbing standing in for GES
    _report(8, f"dense regime median SHD: search {med_g:.1f} vs "
               f"GES-style baseline {med_b:.1f} (stand-in comparator)")


def test_criterion_9_property_suites():
    rng = np.random.default_rng(109)
    # d-separation oracle agreement
    for g in all_dags(3):
        for i, j in combinations(range(3), 2):
            for r in range(2):
                for k in map(set, combinations({0, 1, 2} - {i, j}, r)):
                    assert g.d_separated({i}, {j}, k) == path_dsep(g, {i}, {j}, k)
    for _ in range(100):
        g = random_dag(rng, 5, 0.5)
        i, j = rng.choice(5, size=2, replace=False)
        rest = [v for v in range(5) if v not in (i, j)]
        k = {v for v in rest if rng.random() < 0.5}
        assert g.d_separated({int(i)}, {int(j)}, k) == \
            path_dsep(g, {int(i)}, {int(j)}, k)

    # SHD metric axioms
    graphs = [random_dag(rng, 5, 0.5) for _ in range(8)]
    for g, h in combinations(graphs, 2):
        assert shd(g, h) == shd(h, g)
    for g in graphs:
        assert shd(g, g) == 0
        for h in graphs:
            for f in graphs:
                assert shd(g, f) <= shd(g, h) + shd(h, f)

    # serialization round trips
    for _ in range(20):
        cd = random_bpec_like(rng, int(rng.integers(3, 9)))
        assert ColoredDag.from_json_dict(json.loads(cd.to_json())) == cd

    # faithfulness scans
    for _ in range(20):
        cd = random_colored_dag(rng, int(rng.integers(3, 6)), kind="vertex")
        assert faithfulness_scan(cd, trials=10, seed=9) == []
    for _ in range(20):
        cd = random_colored_dag(rng, int(rng.integers(3, 6)), kind="edge")
        assert faithfulness_scan(cd, trials=10, seed=9) == []
    assert faithfulness_scan(EX48, trials=20, seed=9) == [(0, 3, frozenset({4}))]
    _report(9, "oracle agreement, metric axioms, round trips, faithfulness")
