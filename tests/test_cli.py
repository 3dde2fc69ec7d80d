"""End-to-end command-line behavior over the declared file formats."""

import hashlib
import json
import math
import warnings

import numpy as np
import pytest

from cdag import constraints
from cdag.bench import random_bpec, sample
from cdag.cli import main, params_from_json_dict, params_to_json_dict
from cdag.coloring import ColoredDag, uncolored, write_graph_json
from cdag.dag import Dag
from cdag.files import write_matrix_csv
from cdag.fit import Dataset
from cdag.gecs import BaselineSearch, GecsSearch
from cdag.params import ModelParams, parametrize

from test_gecs import BASELINE_EDGES, BASELINE_SCORES

EX516_A = {"p": 6, "edges": [[1, 2], [1, 3], [2, 3], [1, 4], [4, 5], [4, 6], [5, 6]],
           "edge_colors": {"cyan": [[1, 2], [4, 5]]}, "vertex_colors": {}}
EX516_B = {"p": 6, "edges": [[1, 2], [1, 3], [2, 3], [4, 1], [4, 5], [4, 6], [5, 6]],
           "edge_colors": {"cyan": [[1, 2], [4, 5]]}, "vertex_colors": {}}


def _sweep(**fields):
    """Sweep-config text of a one-cell sweep with the given fields replaced."""
    return json.dumps({"p": 4, "rho": 0.5, "nc": 2, "n": 100, "replicates": 1,
                       **fields})


def _params(v3="1", lam="0.5"):
    """Parameter-JSON text for the path 1 -> 2 -> 3 with the given JSON
    texts for the error variance of vertex 3 and the coefficient on 2 -> 3."""
    return (f'{{"omega": {{"v1": 1, "v2": 1, "v3": {v3}}}, '
            f'"lambda": {{"1->2": 0.5, "2->3": {lam}}}}}')


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture
def workdir(tmp_path):
    return tmp_path


class TestSimulateLearnScore:
    def test_pipeline(self, workdir, capsys):
        data = workdir / "d.csv"
        graph = workdir / "g.json"
        code, out, _ = run(capsys, "simulate", "--p", "5", "--rho", "0.6",
                           "--nc", "2", "--n", "800", "--seed", "3",
                           "--out", str(data), "--graph-out", str(graph))
        assert code == 0
        assert json.loads(out)["samples"] == 800

        trace = workdir / "trace.csv"
        code, out, _ = run(capsys, "learn", "--data", str(data), "--no-center",
                           "--trace", str(trace))
        assert code == 0
        learned = ColoredDag.from_json_dict(json.loads(out))
        assert learned.is_bpec()
        lines = trace.read_text().strip().splitlines()
        assert lines[0] == "step,phase,move,score"
        scores = [float(line.split(",")[3]) for line in lines[1:]]
        assert all(b > a for a, b in zip(scores, scores[1:]))

        code, out, _ = run(capsys, "score", "--graph", str(graph),
                           "--data", str(data), "--no-center")
        assert code == 0
        doc = json.loads(out)
        assert doc["bic"] <= doc["loglik"]
        assert set(doc["params"]) == {"omega", "lambda"}

    def test_trace_ends_at_the_score_of_the_result(self, workdir, capsys):
        # on the data of test_gecs.TestGolden: the search and `score` fit
        # each family to the same bits and sum them exactly
        truth, theta = random_bpec(10, 0.5, 2, seed=5)
        data, graph, trace = workdir / "d.csv", workdir / "g.json", workdir / "t.csv"
        sample(truth, theta, 1000, 6).to_csv(data)
        code, out, _ = run(capsys, "learn", "--data", str(data), "--trace", str(trace))
        assert code == 0
        graph.write_text(out)
        code, out, _ = run(capsys, "score", "--graph", str(graph), "--data", str(data))
        assert code == 0
        final = trace.read_text().strip().splitlines()[-1].split(",")[3]
        assert float(final) == json.loads(out)["bic"]

    def test_baseline_golden(self, workdir, capsys):
        # on the uncentered data of test_gecs.TestGolden: stdout is the
        # baseline's graph with every vertex and edge in its own class
        truth, theta = random_bpec(10, 0.5, 2, seed=5)
        data, trace = workdir / "d.csv", workdir / "t.csv"
        sample(truth, theta, 1000, 6).to_csv(data)
        code, out, _ = run(capsys, "learn", "--data", str(data), "--no-center",
                           "--baseline", "--trace", str(trace))
        assert code == 0
        assert json.loads(out) == uncolored(Dag(10, BASELINE_EDGES)).to_json_dict()
        final = trace.read_text().strip().splitlines()[-1].split(",")[3]
        assert final == f"{BASELINE_SCORES[-1]:.17g}"

    def test_seed_reproducibility(self, workdir, capsys):
        args = ("simulate", "--p", "4", "--rho", "0.5", "--nc", "2",
                "--n", "50", "--seed", "9", "--out")
        f1, f2 = workdir / "a.csv", workdir / "b.csv"
        run(capsys, *args, str(f1))
        run(capsys, *args, str(f2))
        assert f1.read_bytes() == f2.read_bytes()

    def test_simulate_from_graph_and_params(self, workdir, capsys):
        graph = workdir / "g.json"
        cd = ColoredDag(Dag(3, [(0, 2), (1, 2)]),
                        edge_classes=[[(0, 2), (1, 2)]])
        write_graph_json(cd, graph)
        params = workdir / "theta.json"
        theta = ModelParams((1.0, 1.0, 2.0), (0.7,))
        params.write_text(json.dumps(params_to_json_dict(cd, theta)))
        out_csv = workdir / "d.csv"
        code, out, _ = run(capsys, "simulate", "--graph", str(graph),
                           "--params", str(params), "--n", "100",
                           "--seed", "1", "--out", str(out_csv))
        assert code == 0
        assert out_csv.exists()

    def test_simulate_names_the_vertex_whose_samples_overflow(self, workdir, capsys):
        graph, params = workdir / "g.json", workdir / "theta.json"
        write_graph_json(ColoredDag(Dag(3, [(0, 1), (1, 2)])), graph)
        params.write_text('{"omega": {"v1": 1, "v2": 1, "v3": 1}, '
                          '"lambda": {"1->2": 1e200, "2->3": 1e200}}')
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(capsys, "simulate", "--graph", str(graph), "--params",
                                 str(params), "--n", "10", "--out", str(workdir / "d.csv"))
        assert code == 1 and out == ""
        assert err == "error: samples of vertex 3 overflow: the coefficients are too large\n"
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert not (workdir / "d.csv").exists()

    @pytest.mark.parametrize("flags, message", [
        (("--p", "3", "--rho", "0.5", "--nc", "1", "--params", "theta.json"),
         "simulate --params needs --graph"),
        (("--graph", "g.json", "--p", "3"), "simulate --p cannot be used with --graph"),
        (("--graph", "g.json", "--rho", "0.5"), "simulate --rho cannot be used with --graph"),
        (("--graph", "g.json", "--params", "theta.json", "--nc", "1"),
         "simulate --nc cannot be used with --graph"),
    ])
    def test_simulate_refuses_flags_it_would_ignore(self, workdir, capsys, flags, message):
        # the files named are never read: theta.json does not even exist
        write_graph_json(ColoredDag(Dag(3, [(0, 1), (1, 2)])), workdir / "g.json")
        flags = [str(workdir / f) if f.endswith(".json") else f for f in flags]
        out_csv = workdir / "s.csv"
        with pytest.raises(SystemExit) as exc:
            main(["simulate", *flags, "--n", "4", "--out", str(out_csv)])
        assert exc.value.code == 2
        out = capsys.readouterr()
        assert out.out == "" and message in out.err
        assert not out_csv.exists()

    def test_learn_names_the_columns_whose_centering_overflows(self, workdir, capsys):
        # every value is finite; only the column mean passes the float range
        data = workdir / "d.csv"
        data.write_text("x1,x2\n1e308,1\n1e308,2\n3,4\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(capsys, "learn", "--data", str(data))
        assert code == 1 and out == ""
        assert err == ("error: centered values of data column 1 overflow the float "
                       "range; rescale the data\n")
        assert not caught

    def test_learn_names_the_first_non_finite_value(self, workdir, capsys):
        data = workdir / "d.csv"
        data.write_text("a,b\n1,inf\n3,4\n")
        code, out, err = run(capsys, "learn", "--data", str(data))
        assert code == 1 and out == ""
        assert err == "error: data sample 1, column 2 is inf; data must be finite\n"


class TestCheck:
    def _write_model_point(self, workdir):
        cd = ColoredDag(Dag(4, [(0, 1), (1, 2), (2, 3)]),
                        vertex_classes=[[0, 2]],
                        edge_classes=[[(0, 1), (2, 3)]])
        graph = workdir / "g.json"
        write_graph_json(cd, graph)
        sigma = parametrize(cd, ModelParams((1.0, 2.0, 3.0), (0.5, 0.7)))
        sigma_csv = workdir / "sigma.csv"
        write_matrix_csv(sigma, sigma_csv)
        return graph, sigma_csv, sigma

    def test_model_point_passes(self, workdir, capsys):
        graph, sigma_csv, _ = self._write_model_point(workdir)
        code, out, _ = run(capsys, "check", "--graph", str(graph),
                           "--sigma", str(sigma_csv), "--global")
        assert code == 0
        doc = json.loads(out)
        assert all(r["verdict"] == "pass" for r in doc["reports"])
        assert all(r["violations"] == [] for r in doc["reports"])

    def test_off_model_point_fails_with_exit_one(self, workdir, capsys):
        graph, sigma_csv, sigma = self._write_model_point(workdir)
        bad = np.array(sigma)
        bad[0, 1] = bad[1, 0] = bad[0, 1] + 0.3
        write_matrix_csv(bad, sigma_csv)
        code, out, _ = run(capsys, "check", "--graph", str(graph),
                           "--sigma", str(sigma_csv))
        assert code == 1
        doc = json.loads(out)
        report = doc["reports"][0]
        assert report["verdict"] == "fail"
        entry = report["violations"][0]
        assert {"constraint", "indices", "residual", "tol", "verdict"} <= set(entry)

    def test_non_finite_residual_exits_one(self, workdir, capsys):
        graph, sigma_csv, _ = self._write_model_point(workdir)
        write_matrix_csv(np.diag([1e-320, 1e300, 1.0, 1.0]), sigma_csv)
        code, out, err = run(capsys, "check", "--graph", str(graph),
                             "--sigma", str(sigma_csv))
        assert code == 1 and out == ""
        assert err.startswith("error: ecr(1->2,3->4; {1},{3}) has a non-finite residual")

    def test_sampled_global_check_defaults_to_seed_zero(self, workdir, capsys):
        graph, sigma_csv, _ = self._write_model_point(workdir)
        code, out, _ = run(capsys, "check", "--graph", str(graph),
                           "--sigma", str(sigma_csv), "--global", "--budget", "5")
        assert code == 0
        assert json.loads(out)["reports"][1]["mode"] == "sampled(budget=5, seed=0)"

    @pytest.mark.parametrize("flags, named", [
        (("--budget", "0"), "--budget"),
        (("--seed", "1"), "--seed"),
        (("--seed", "0", "--budget", "5"), "--budget"),
    ])
    def test_sampling_flags_need_global(self, workdir, capsys, flags, named):
        graph, sigma_csv, _ = self._write_model_point(workdir)
        with pytest.raises(SystemExit) as exc:
            main(["check", "--graph", str(graph), "--sigma", str(sigma_csv), *flags])
        assert exc.value.code == 2
        out = capsys.readouterr()
        assert out.out == "" and f"check {named} needs --global" in out.err

    def test_seed_needs_budget(self, workdir, capsys):
        # without --budget the global check enumerates and draws nothing
        graph, sigma_csv, _ = self._write_model_point(workdir)
        with pytest.raises(SystemExit) as exc:
            main(["check", "--graph", str(graph), "--sigma", str(sigma_csv),
                  "--global", "--seed", "5"])
        assert exc.value.code == 2
        out = capsys.readouterr()
        assert out.out == "" and "check --seed needs --budget" in out.err


class TestEquivIdentifyBench:
    def test_equiv_pair(self, workdir, capsys):
        a, b = workdir / "a.json", workdir / "b.json"
        a.write_text(json.dumps(EX516_A))
        b.write_text(json.dumps(EX516_B))
        code, out, _ = run(capsys, "equiv", "--a", str(a), "--b", str(b))
        assert code == 0
        assert json.loads(out)["verdict"] == "equivalent"

    def test_equiv_distinct_reports_witness(self, workdir, capsys):
        a, b = workdir / "a.json", workdir / "b.json"
        a.write_text(json.dumps(EX516_A))
        split = dict(EX516_A, edge_colors={})
        b.write_text(json.dumps(split))
        code, out, _ = run(capsys, "equiv", "--a", str(a), "--b", str(b))
        assert code == 0
        doc = json.loads(out)
        assert doc["verdict"] == "distinct" and "witness" in doc

    def test_identify_edge(self, workdir, capsys):
        graph = workdir / "g.json"
        write_graph_json(ColoredDag(Dag(4, [(0, 1), (1, 2), (2, 3)])), graph)
        code, out, _ = run(capsys, "identify", "--graph", str(graph),
                           "--edge", "1,2")
        assert code == 0
        assert json.loads(out)["sets"] == [[1]]

    def test_identify_vertex(self, workdir, capsys):
        graph = workdir / "g.json"
        write_graph_json(ColoredDag(Dag(4, [(0, 1), (1, 2), (2, 3)])), graph)
        code, out, _ = run(capsys, "identify", "--graph", str(graph),
                           "--vertex", "3")
        assert code == 0
        assert json.loads(out)["sets"] == [[2], [1, 2]]

    def test_adjacency_csv_accepted_for_graphs(self, workdir, capsys):
        adj = workdir / "g.csv"
        adj.write_text("0,1,0,0\n0,0,1,0\n0,0,0,1\n0,0,0,0\n")
        code, out, _ = run(capsys, "identify", "--graph", str(adj),
                           "--vertex", "3")
        assert code == 0
        assert json.loads(out)["sets"] == [[2], [1, 2]]

    def test_bench_smoke(self, workdir, capsys):
        config = workdir / "sweep.json"
        config.write_text(json.dumps({"p": [4], "rho": [0.5], "nc": [2],
                                      "n": [150], "replicates": 1, "seed": 2}))
        out_csv = workdir / "results.csv"
        code, out, _ = run(capsys, "bench", "--config", str(config),
                           "--out", str(out_csv))
        assert code == 0
        lines = out_csv.read_text().strip().splitlines()
        assert lines[0].startswith("p,rho,nc,n,seed,method")
        assert len(lines) == 3


    def test_bench_rho_too_large_to_scale_gives_error_rows(self, workdir, capsys):
        # the cell seed scales rho by 1000, which overflowed to a traceback
        config = workdir / "sweep.json"
        config.write_text(json.dumps({"p": 4, "rho": 1e306, "nc": 2, "n": 100,
                                      "replicates": 1}))
        out_csv = workdir / "results.csv"
        code, out, err = run(capsys, "bench", "--config", str(config),
                             "--out", str(out_csv))
        assert code == 0 and "Traceback" not in err
        rows = out_csv.read_text().strip().splitlines()[1:]
        assert [row.split(",")[5] for row in rows] == ["gecs", "baseline"]
        assert all(row.endswith("edge probability must lie strictly between 0 and 1")
                   for row in rows)


class TestErrors:
    def test_missing_file_is_domain_error(self, capsys):
        code, _, err = run(capsys, "identify", "--graph", "missing.json",
                           "--vertex", "1")
        assert code == 1
        assert "error" in err

    def test_usage_error_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["learn"])
        assert exc.value.code == 2

    def test_identify_needs_exactly_one_target(self, workdir, capsys):
        graph = workdir / "g.json"
        write_graph_json(ColoredDag(Dag(2, [(0, 1)])), graph)
        code, _, err = run(capsys, "identify", "--graph", str(graph))
        assert code == 1

    def test_params_round_trip(self):
        cd = ColoredDag(Dag(3, [(0, 2), (1, 2)]), edge_classes=[[(0, 2), (1, 2)]])
        theta = ModelParams((1.0, 0.5, 2.0), (0.7,))
        doc = params_to_json_dict(cd, theta)
        assert doc["lambda"] == {"1->3": 0.7}
        assert params_from_json_dict(cd, doc) == theta


class TestFileBoundary:
    """Malformed input files end in a one-line error and exit code 1.

    Texts are written with surrogateescape, so a leading U+DCFF stands for
    the byte 0xff, which is not UTF-8."""

    @pytest.mark.parametrize("text, expected", [
        ("a,b\n1,2\n3,x\n", "row 3"),
        ("a,b\n1,2\n\n3,4,5\n", "row 4: expected 2 fields as in the header, got 3"),
        ("a,b\n1\n3,4\n", "row 2: expected 2 fields as in the header, got 1"),
        ("\udcffa,b\n1,2\n", "d.csv: not UTF-8 text"),
        ("a,b\n", "d.csv: no sample rows"),
        ("a,b\n1,2\n1_0,3\n", "row 3, column 1: '1_0' is not a number"),
    ])
    def test_bad_data_csv(self, workdir, capsys, text, expected):
        data = workdir / "d.csv"
        data.write_text(text, errors="surrogateescape")
        code, out, err = run(capsys, "learn", "--data", str(data))
        assert code == 1 and out == ""
        assert err.startswith("error: ") and "Traceback" not in err
        assert str(data) in err and expected in err

    @pytest.mark.parametrize("text, expected", [
        ('{"p": 2, "edges": [[1, 2]]', "g.json: invalid JSON at line 1, column 27"),
        ('{"p": 2,\n "edges": [[1, 3]]}', "edge (1, 3) out of range for p=2"),
        ('{"p": 3, "edges": [[1, 2, 3]]}', "'edges' as vertex pairs"),
        ('{"p": 3, "edges": [[1, 2]], "edge_colors": {"a": [[1, 2], [3, 2]]}}',
         "colored edge (3, 2) is not in the graph"),
        ('{"p": 2, "edges": [[1, 1]]}', "self-loop at vertex 1"),
        ('{"p": 3, "edges": [], "vertex_colors": {"a": [1, 4]}}',
         "colored vertex 4 out of range"),
        ('{"p": 3, "edges": [], "vertex_colors": {"a": [1, 2], "b": [2, 3]}}',
         "vertex 2 assigned to more than one class"),
        ('{"p": 2, "edges": [[1, 2]], "edge_colors": {"a": [[1, 2]], "b": [[1, 2]]}}',
         "edge (1, 2) assigned to more than one class"),
        ('{"p": 2, "edges": [[1, 2]], "edge_colors": {"a": [["x", 2]]}}',
         "'edge_colors' to map names to lists of vertex pairs"),
        ('{"p": 2, "edges": [[1, 2]], "edge_colors": {"a": [[2]]}}',
         "'edge_colors' to map names to lists of vertex pairs"),
        ('{"p": 2, "edges": [[1, 2]], "edge_colors": 3}',
         "'edge_colors' to map names to lists of vertex pairs"),
        ('\udcff{"p": 2, "edges": []}', "g.json: not UTF-8 text"),
        ('{"p": 3.7, "edges": [[1, 2]]}', "'p' holds 3.7, not an integer"),
        ('{"p": true, "edges": []}', "'p' holds True, not an integer"),
        ('{"p": 3, "edges": [[1.5, 2]]}', "'edges' holds 1.5, not an integer"),
        ('{"p": 3, "edges": [[1, 2]], "edge_colors": {"a": [[1, 2.0]]}}',
         "edge color 'a' holds 2.0, not an integer"),
        ('{"p": 3, "edges": [], "vertex_colors": {"a": [1, 2.9]}}',
         "vertex color 'a' holds 2.9, not an integer"),
    ])
    def test_bad_graph_json(self, workdir, capsys, text, expected):
        graph = workdir / "g.json"
        graph.write_text(text, errors="surrogateescape")
        code, out, err = run(capsys, "identify", "--graph", str(graph),
                             "--vertex", "1")
        assert code == 1 and out == ""
        assert err.startswith("error: ") and "Traceback" not in err
        assert expected in err

    @pytest.mark.parametrize("command, expected", [
        ("score", "collinear regressors in the family of vertex 3"),
        ("learn", "zero residual variance at vertex 2"),
    ])
    def test_degenerate_data(self, workdir, capsys, command, expected):
        # column 2 duplicates column 1, so the family of vertex 3 is
        # collinear; with column 2 zeroed, vertex 2 has no variance
        x = np.random.default_rng(3).standard_normal((50, 3))
        x[:, 1] = x[:, 0] if command == "score" else 0.0
        data = workdir / "d.csv"
        Dataset(x).to_csv(data)
        graph = workdir / "g.json"
        graph.write_text('{"p": 3, "edges": [[1, 3], [2, 3]]}')
        argv = ["--data", str(data)] + (["--graph", str(graph)] if command == "score" else [])
        code, out, err = run(capsys, command, *argv)
        assert code == 1 and out == ""
        assert err.startswith("error: ") and "Traceback" not in err
        assert expected in err

    @pytest.mark.parametrize("command", [["learn"], ["learn", "--baseline"], ["score"]])
    def test_constant_column_names_its_cause(self, workdir, capsys, command):
        # column 3 is all 5.0, so centered it is all zero: no fit is to
        # blame, whether vertex 3 has parents (score) or none (learn)
        x = np.random.default_rng(24).standard_normal((50, 3))
        x[:, 2] = 5.0
        data, graph = workdir / "d.csv", workdir / "g.json"
        Dataset(x).to_csv(data)
        graph.write_text('{"p": 3, "edges": [[1, 3], [2, 3]]}')
        argv = ["--data", str(data)] + (["--graph", str(graph)] if command == ["score"] else [])
        code, out, err = run(capsys, *command, *argv)
        assert code == 1 and out == ""
        assert err == ("error: zero residual variance at vertex 3; its data column is all "
                       "zero (a constant column is, once centered)\n")

    @pytest.mark.parametrize("command", [["learn"], ["learn", "--baseline"], ["score"]])
    def test_gram_overflow_names_the_column(self, workdir, capsys, command):
        # finite values whose squares pass the float range
        data, graph = workdir / "d.csv", workdir / "g.json"
        data.write_text("a,b,c\n1e300,1,2\n-1e300,2,1\n1e300,0.5,3\n-1e300,1.5,0\n")
        graph.write_text('{"p": 3, "edges": [[2, 3]]}')
        argv = ["--data", str(data)] + (["--graph", str(graph)] if command == ["score"] else [])
        code, out, err = run(capsys, *command, *argv)
        assert code == 1 and out == ""
        assert err == ("error: products of data column 1 overflow the float range; "
                       "rescale the data\n")

    @pytest.mark.parametrize("method", ["gecs", "baseline"])
    def test_learn_refuses_only_the_families_of_a_duplicated_column(self, workdir,
                                                                   capsys, method):
        # vertex 6 is a negated copy of vertex 3, so a family fitting one
        # from the other, or holding both in one color class (a zero column),
        # cannot be fitted: it scores -inf in the move that proposes it and
        # is never accepted, while the families fitted beside it are scored
        # as usual
        truth, theta = random_bpec(6, 0.5, 2, seed=3)
        x = sample(truth, theta, 300, 4).X.copy()
        x[:, 5] = -x[:, 2]
        data, trace, graph = workdir / "d.csv", workdir / "t.csv", workdir / "g.json"
        Dataset(x).to_csv(data)
        flags = ["--baseline"] if method == "baseline" else []
        code, out, err = run(capsys, "learn", "--data", str(data), "--trace", str(trace),
                             *flags)
        assert code == 0 and "Traceback" not in err
        result = ColoredDag.from_json_dict(json.loads(out))
        assert (result.is_bpec() if method == "gecs"
                else all(len(c) == 1 for c in result.edge_classes))
        graph.write_text(out)
        code, out, _ = run(capsys, "score", "--graph", str(graph), "--data", str(data))
        assert code == 0
        final = float(trace.read_text().strip().splitlines()[-1].split(",")[3])
        assert json.loads(out)["bic"] == pytest.approx(final, rel=1e-12)

        search = (BaselineSearch if flags else GecsSearch)(Dataset(x).centered())
        search.run()
        refused = {key for key, score in search.scorer._memo.items() if score == -math.inf}
        assert refused
        assert not refused & set(enumerate(search.state.families))
        assert all(math.isfinite(row.score) for row in search.trace)

    @pytest.mark.parametrize("text, expected", [
        ("0,1\n\nx,0\n", "row 3, column 1: 'x' is not a number"),
        ("1,0\n0,0\n", "self-loop at vertex 1"),
        ("0,2\n0,0\n", "adj.csv: adjacency entry (1, 2) is 2; entries must be 0 or 1"),
        ("0,nan\n0,0\n", "adj.csv: adjacency entry (1, 2) is nan; entries must be 0 or 1"),
        ("", "adj.csv: no rows"),
        ("\n\n", "adj.csv: no rows"),
        ("0,1\n1_0,0\n", "row 2, column 1: '1_0' is not a number"),
        ("0,\u0661\n0,0\n", "row 1, column 2: '\u0661' is not a number"),
    ])
    def test_bad_adjacency_csv(self, workdir, capsys, text, expected):
        graph = workdir / "adj.csv"
        graph.write_text(text)
        code, out, err = run(capsys, "identify", "--graph", str(graph),
                             "--vertex", "1")
        assert code == 1 and out == ""
        assert err.startswith("error: ") and "Traceback" not in err
        assert expected in err

    @pytest.mark.parametrize("text, expected", [
        ("1,0,0\n0,x,0\n0,0,1\n", "row 2, column 2: 'x' is not a number"),
        ("1,0,0\n\n0,1\n0,0,1\n", "row 3: expected 3 fields as in row 1, got 2"),
        ("1,0\n0,1\n", "covariance matrix has shape (2, 2) but the graph has p=3"),
        ("\udcff1,0,0\n0,1,0\n0,0,1\n", "sigma.csv: not UTF-8 text"),
        ("1,0,0\n0,nan,0\n0,0,1\n", "matrix is not symmetric positive definite"),
        ("1,0,0\n0,1,inf\n0,inf,1\n", "matrix is not symmetric positive definite"),
        ("", "sigma.csv: no rows"),
        ("1,0,0\n0,1_0,0\n0,0,1\n", "row 2, column 2: '1_0' is not a number"),
        ("1,0,0\n0,1,0\n0,0,\u0661\n", "row 3, column 3: '\u0661' is not a number"),
    ])
    def test_bad_sigma_csv(self, workdir, capsys, text, expected):
        graph = workdir / "g.json"
        write_graph_json(ColoredDag(Dag(3, [(0, 1), (1, 2)])), graph)
        sigma = workdir / "sigma.csv"
        sigma.write_text(text, errors="surrogateescape")
        code, out, err = run(capsys, "check", "--graph", str(graph),
                             "--sigma", str(sigma))
        assert code == 1 and out == ""
        assert err.startswith("error: ") and "Traceback" not in err
        assert expected in err

    @pytest.mark.parametrize("command, text, expected", [
        ("simulate", '{"omega": {"v1": 1}', "theta.json: invalid JSON at line 1"),
        ("simulate", '{"omega": {"v1": "a", "v2": 1, "v3": 1}, "lambda": {}}',
         "parameter JSON field 'omega': the value 'a' of class 'v1' is not a number"),
        ("simulate", "null", "parameter JSON must be a JSON object"),
        ("simulate", '[["omega", {}]]', "parameter JSON must be a JSON object"),
        ("simulate", '{"omega": [1, 1, 1], "lambda": {}}',
         "parameter JSON field 'omega' must be a JSON object"),
        ("simulate", '{"omega": {"v1": 1, "v2": 1, "v3": 1}, "lambda": null}',
         "parameter JSON field 'lambda' must be a JSON object"),
        ("simulate", '{"lambda": {}}', "parameter JSON missing field 'omega'"),
        ("simulate", _params(v3="Infinity"), "error variances must be finite, got inf"),
        ("simulate", _params(v3='"nan"'),
         "parameter JSON field 'omega': the value 'nan' of class 'v3' is not a number"),
        ("simulate", _params(lam="NaN"), "coefficients must be finite, got nan"),
        ("simulate", _params(lam='"-inf"'),
         "parameter JSON field 'lambda': the value '-inf' of class '2->3' is not a number"),
        ("simulate", _params(v3="true"),
         "parameter JSON field 'omega': the value True of class 'v3' is not a number"),
        ("simulate", _params(lam="false"),
         "parameter JSON field 'lambda': the value False of class '2->3' is not a number"),
        ("simulate", _params(v3='"1_0"'),
         "parameter JSON field 'omega': the value '1_0' of class 'v3' is not a number"),
        ("simulate", _params(lam='" 2.5 "'),
         "parameter JSON field 'lambda': the value ' 2.5 ' of class '2->3' is not a number"),
        ("simulate", _params(v3="1" + "0" * 400),
         "parameter JSON field 'omega': the value of class 'v3' is too large for a float"),
        ("bench", '{"p": [4],\n', "sweep.json: invalid JSON at line 2"),
        ("bench", '{"p": "x", "rho": 0.5, "nc": 2, "n": 100, "replicates": 1}',
         "sweep config field 'p' needs int values, got 'x'"),
        ("bench", "[4]", "sweep config must be a JSON object"),
        ("bench", _sweep(p=[4.9]), "field 'p' needs int values, got 4.9"),
        ("bench", _sweep(nc=True), "field 'nc' needs int values, got True"),
        ("bench", _sweep(replicates=1.8), "field 'replicates' needs int values, got 1.8"),
        ("bench", _sweep(seed=2.0), "field 'seed' needs int values, got 2.0"),
        ("bench", _sweep(p=[-3]), "field 'p' needs finite nonnegative values, got -3"),
        ("bench", _sweep(nc=[2, -1]), "field 'nc' needs finite nonnegative values, got -1"),
        ("bench", _sweep(n=-100), "field 'n' needs finite nonnegative values, got -100"),
        ("bench", _sweep(replicates=-1),
         "field 'replicates' needs finite nonnegative values, got -1"),
        ("bench", _sweep(seed=-1), "field 'seed' needs finite nonnegative values, got -1"),
        ("bench", _sweep(rho=-0.5), "field 'rho' needs finite nonnegative values, got -0.5"),
        ("bench", _sweep(rho=[0.5, float("nan")]),
         "field 'rho' needs finite nonnegative values, got nan"),
        ("bench", _sweep(rho=float("inf")),
         "field 'rho' needs finite nonnegative values, got inf"),
    ])
    def test_bad_params_and_sweep_json(self, workdir, capsys, command, text, expected):
        if command == "simulate":
            graph = workdir / "g.json"
            write_graph_json(ColoredDag(Dag(3, [(0, 1), (1, 2)])), graph)
            path = workdir / "theta.json"
            argv = ["--graph", str(graph), "--params", str(path), "--n", "10"]
        else:
            path = workdir / "sweep.json"
            argv = ["--config", str(path)]
        path.write_text(text)
        code, out, err = run(capsys, command, *argv, "--out", str(workdir / "out.csv"))
        assert code == 1 and out == ""
        assert err.startswith("error: ") and "Traceback" not in err
        assert expected in err

    @pytest.mark.parametrize("text", ["null", "[[1, 2]]"])
    def test_graph_json_that_is_not_an_object(self, workdir, capsys, text):
        argv = _valid_inputs(workdir)["check"]
        (workdir / "g.json").write_text(text)
        code, out, err = run(capsys, "check", *argv)
        assert code == 1 and out == ""
        assert err.startswith("error: ") and "Traceback" not in err
        assert "graph JSON must be a JSON object" in err

    @pytest.mark.parametrize("argv, expected", [
        (("identify", "--vertex", "0"), "vertex 0 out of range for p=3"),
        (("identify", "--vertex", "9"), "vertex 9 out of range for p=3"),
        (("identify", "--edge", "0,1"), "vertex 0 out of range for p=3"),
        (("identify", "--edge", "2,2"), "(2, 2) is a self-loop"),
        (("check", "--global", "--budget", "-1"), "budget must be at least 1, got -1"),
        (("check", "--global", "--budget", "0"), "budget must be at least 1, got 0"),
        (("check", "--tol", "-1"), "tol must be nonnegative, got -1.0"),
        (("equiv", "--trials", "-3"), "trials must be at least 1, got -3"),
        (("equiv", "--tol", "-1"), "tol must be nonnegative, got -1.0"),
        (("learn", "--budget", "-3"), "move budget must be at least 0, got -3"),
        (("learn", "--baseline", "--budget", "-1"), "move budget must be at least 0, got -1"),
        (("check", "--tol", "inf"), "tol must be finite, got inf"),
        (("equiv", "--tol", "inf"), "tol must be finite, got inf"),
    ])
    def test_bad_argument(self, workdir, capsys, argv, expected):
        command, *flags = argv
        code, out, err = run(capsys, command, *_valid_inputs(workdir)[command], *flags)
        assert code == 1 and out == ""
        assert err.startswith("error: ") and "Traceback" not in err
        assert expected in err

    @pytest.mark.parametrize("argv", [
        ("simulate",), ("check", "--global", "--budget", "5"), ("equiv",),
    ], ids=lambda argv: argv[0])
    def test_negative_seed_is_a_usage_error(self, workdir, capsys, argv):
        command, *flags = argv
        with pytest.raises(SystemExit) as exc:
            main([command, *_valid_inputs(workdir)[command], *flags, "--seed", "-1"])
        assert exc.value.code == 2
        out = capsys.readouterr()
        assert out.out == "" and "Traceback" not in out.err
        assert "argument --seed: must be a nonnegative integer, got '-1'" in out.err
        assert not (workdir / "out.csv").exists()


def _valid_inputs(workdir):
    """Per command, input flags naming valid files written to ``workdir``."""
    cd = ColoredDag(Dag(3, [(0, 1), (1, 2)]))
    graph, sigma = workdir / "g.json", workdir / "sigma.csv"
    data = workdir / "d.csv"
    write_graph_json(cd, graph)
    write_matrix_csv(parametrize(cd, ModelParams((1.0, 1.0, 1.0), (0.5, 0.5))), sigma)
    Dataset(np.random.default_rng(0).standard_normal((20, 3))).to_csv(data)
    return {"identify": ("--graph", str(graph)),
            "learn": ("--data", str(data)),
            "simulate": ("--graph", str(graph), "--n", "5", "--out", str(workdir / "out.csv")),
            "check": ("--graph", str(graph), "--sigma", str(sigma)),
            "equiv": ("--a", str(graph), "--b", str(graph))}


# (exit code, SHA-256 of stdout) of each `_golden_runs` command, recorded
# before the checks compiled products as blocks and stacked their trials
GOLDEN_DIGESTS = {
    "check exact7":
        (0, "192120795a82f2789bfbb016de812267c1831e163a9c0d9c543cd7f0ea7c93de"),
    "check --global exact7":
        (0, "d2d9bd3220c6b2790987e85d9f21cbc282d413d2fd964c1dab36152b21131abf"),
    "check perturbed8":
        (1, "cc1cebf84400719d4a831dec1bf00f0e785f88ff9ebed971fab8ab176ee8fda9"),
    "check --global perturbed8":
        (1, "602d6fd505a7d6fc58be947aa6e0f6dbd209b4fec0d41fc380482e9face6e5c5"),
    "check perturbed10":
        (1, "7087ee783c90e942c6aff8048271efa757e63a15ceab00b3f44fc913d687b2d1"),
    "check --global --budget perturbed10":
        (1, "e73149d0a95a7518a62a7c39c43ad2f73ee77aa47155b9681784ec867101d5f1"),
    "equiv self10":
        (0, "f39a6c7b64ffe00f2b8cc9290b2edbcf3a689241e1dc9197e716565bfd567885"),
    "equiv distinct6":
        (0, "27a3416e4bbc0016704372c3ee5f246af8b897093d04f06c4b03905bcd28d9b7"),
    "equiv late5":
        (0, "1e640a3e44bef4c59153534bb8abcbec4329cfc9c35fce15284e97557fb4113e"),
}


class TestGoldenOutputs:
    def test_check_and_equiv_stdout_is_unchanged(self, workdir, capsys):
        assert _golden_digests(workdir, capsys) == GOLDEN_DIGESTS

    @pytest.mark.parametrize("stack_bytes", [1, 20_000])
    def test_trials_beyond_one_stack_give_the_same_witness(self, workdir, capsys,
                                                           monkeypatch, stack_bytes):
        # one trial per stack, or a few: the late witness crosses stack bounds
        monkeypatch.setattr(constraints, "STACK_BYTES", stack_bytes)
        argv = _golden_runs(workdir)["equiv late5"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert json.loads(out)["witness"]["trial"] == 37
        assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_DIGESTS["equiv late5"][1]


# (exit code, SHA-256 of stdout) of sampled global checks beyond the full
# check's guard, recorded before their membership tests used one sink per
# target
SAMPLED_GLOBAL_DIGESTS = {
    "exact12":
        (0, "bb52b4a5e96117b7b93a3363fe92a5dedabac009f89a4b4b79dddb55d54a622f"),
    "perturbed12":
        (1, "1a63210e2ddfd3a4b008a1908032b5f00108e5cce6e71338705604de9d02d882"),
    "exact15":
        (0, "c66bcfbe8f50b336c3f2bf00b917b861df374a0c831f9460fcdbcd474d2c008a"),
    "perturbed15":
        (1, "6fb38c46fa3131d7afb36c12300ace1b9c39354cad9aec3a639687c77f8b659a"),
}


def test_sampled_global_checks_are_unchanged(workdir, capsys):
    got = {}
    for p in (12, 15):
        cd, theta = random_bpec(p, 0.5, 2, [16, p])
        graph = workdir / f"g{p}.json"
        write_graph_json(cd, graph)
        exact = parametrize(cd, theta)
        a = np.eye(p) + 1e-3 * np.random.default_rng(p).standard_normal((p, p))
        for name, sigma in ((f"exact{p}", exact), (f"perturbed{p}", a @ exact @ a.T)):
            path = workdir / f"{name}.sigma.csv"
            write_matrix_csv(sigma, path)
            code = main(["check", "--graph", str(graph), "--sigma", str(path), "--global",
                         "--budget", "30", "--seed", "4"])
            got[name] = code, hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert got == SAMPLED_GLOBAL_DIGESTS


def _golden_runs(workdir):
    """Named argvs of `check`, `check --global` and `equiv` on fixed
    random_bpec models, with their input files written to ``workdir``: exact
    covariances, a perturbed one that violates relations, a sampled global
    check, a self pair, and distinct pairs whose witness comes at once and
    at the 38th trial of the second side."""
    runs = {}

    def model(name, p, seed):
        cd, theta = random_bpec(p, 0.5, 2, seed)
        graph = workdir / f"{name}.json"
        write_graph_json(cd, graph)
        return cd, theta, str(graph)

    def sigma_file(name, sigma):
        path = workdir / f"{name}.sigma.csv"
        write_matrix_csv(sigma, path)
        return str(path)

    for name, p, seed, perturb in (("exact7", 7, [15, 1], False),
                                   ("perturbed8", 8, [15, 2], True),
                                   ("perturbed10", 10, [15, 3], True)):
        cd, theta, graph = model(name, p, seed)
        sigma = parametrize(cd, theta)
        if perturb:
            a = np.eye(p) + 1e-3 * np.random.default_rng(p).standard_normal((p, p))
            sigma = a @ sigma @ a.T
        check = ["check", "--graph", graph, "--sigma", sigma_file(name, sigma)]
        runs[f"check {name}"] = check
        if p <= 8:
            runs[f"check --global {name}"] = check + ["--global"]
        else:
            runs[f"check --global --budget {name}"] = check + ["--global", "--budget", "30",
                                                              "--seed", "4"]
    _, _, self10 = model("self10", 10, [15, 4])
    runs["equiv self10"] = ["equiv", "--a", self10, "--b", self10]
    _, _, a6 = model("a6", 6, [15, 5])
    _, _, b6 = model("b6", 6, [15, 6])
    runs["equiv distinct6"] = ["equiv", "--a", a6, "--b", b6, "--seed", "3"]
    _, _, a5 = model("a5", 5, [19, 7])
    _, _, b5 = model("b5", 5, [19, 8])
    runs["equiv late5"] = ["equiv", "--a", b5, "--b", a5, "--seed", "19", "--tol", "1.3",
                           "--trials", "60"]
    return runs


def _golden_digests(workdir, capsys):
    """(exit code, SHA-256 of stdout) per golden run."""
    out = {}
    for name, argv in _golden_runs(workdir).items():
        code = main(argv)
        out[name] = code, hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    return out


# (exit code, SHA-256 of stdout, SHA-256 of the --trace CSV) of `learn` and
# `learn --baseline` on random_bpec(p, 0.5, 2, [24, p]) data, n = 1000 at
# p = 15 and n = 500 at p = 20, recorded before the search state derived its
# reachability as bitmasks
LEARN_DIGESTS = {
    "gecs15": (0, "e7bbf0a13bebe310936a68388894792195f33683eb7f1c50b4cb364ae6805959",
               "0b46a80c5bb99d1a8d621c48051dffb6126343b410b25ad75c6085333dfb178e"),
    "baseline15": (0, "82671d54175d0c169ce020a2a6f16d32031644fcf4c5e6fc054ad7d9fbfabb6c",
                   "257e192d630444cccbb7bd69e6440e5e0c67682a015cdd1f640d448f15aa9a75"),
    "gecs20": (0, "5e8547a21fbc15904f29ffc6210051e3d9f07968495b5619da39a8f9c741e3ec",
               "8153045ec01dc4c42496a2d7dc047624d401f9f1da10fd9fba1b3e268513e4c8"),
    "baseline20": (0, "8398bd5e725ae565d9e84cab4124aefb187d7737b43287cfeeba897f21499c5e",
                   "ab3f3257e0eb0bb7672c72a207b84297346299593547081b69f570b8b8c235b8"),
}


def test_learn_outputs_are_unchanged(workdir, capsys):
    got = {}
    for p, n in ((15, 1000), (20, 500)):
        truth, theta = random_bpec(p, 0.5, 2, seed=[24, p])
        data, trace = workdir / f"d{p}.csv", workdir / "t.csv"
        sample(truth, theta, n, [24, p, 1]).to_csv(data)
        for flags in ([], ["--baseline"]):
            code = main(["learn", "--data", str(data), "--trace", str(trace), *flags])
            out = capsys.readouterr().out
            got[f"{'baseline' if flags else 'gecs'}{p}"] = (
                code, hashlib.sha256(out.encode()).hexdigest(),
                hashlib.sha256(trace.read_bytes()).hexdigest())
    assert got == LEARN_DIGESTS
