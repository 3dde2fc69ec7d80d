"""The package's public names, and what importing and running it loads."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import cdag
from cdag.bench import random_bpec, sample
from cdag.coloring import write_graph_json
from cdag.files import write_matrix_csv
from cdag.params import parametrize

SRC = Path(cdag.__file__).resolve().parents[1]


def test_every_exported_name_imports():
    namespace = {}
    exec("from cdag import *", namespace)
    assert set(cdag.__all__) <= namespace.keys()
    assert len(set(cdag.__all__)) == len(cdag.__all__)


def test_no_command_needs_scipy(tmp_path):
    # numpy is the only runtime dependency: with SciPy unimportable, every
    # command and the library's covariance calls run, and none loads it
    truth, theta = random_bpec(5, 0.5, 2, seed=1)
    other, _ = random_bpec(5, 0.5, 2, seed=2)
    data, sigma = str(tmp_path / "d.csv"), str(tmp_path / "s.csv")
    graph, distinct = str(tmp_path / "g.json"), str(tmp_path / "h.json")
    sample(truth, theta, 200, 2).to_csv(data)
    write_graph_json(truth, graph)
    write_graph_json(other, distinct)
    write_matrix_csv(parametrize(truth, theta), sigma)
    runs = [["simulate", "--p", "5", "--rho", "0.5", "--nc", "2", "--n", "50",
             "--out", str(tmp_path / "sim.csv")],
            ["learn", "--data", data],
            ["learn", "--data", data, "--baseline"],
            ["score", "--graph", graph, "--data", data],
            ["check", "--graph", graph, "--sigma", sigma, "--global"],
            ["identify", "--graph", graph, "--vertex", "5"],
            ["equiv", "--a", graph, "--b", graph],
            ["equiv", "--a", graph, "--b", distinct]]
    script = ("import contextlib, io, json, sys\n"
              "sys.modules['scipy'] = None\n"
              "from cdag import bench, parametrize\n"
              "from cdag.cli import main\n"
              "from cdag.constraints import faithfulness_scan\n"
              "outputs = []\n"
              f"for argv in {runs!r}:\n"
              "    with contextlib.redirect_stdout(io.StringIO()) as out:\n"
              "        assert main(argv) == 0, argv\n"
              "    outputs.append(out.getvalue())\n"
              "cd, theta = bench.random_bpec(4, 0.5, 2, 0)\n"
              "parametrize(cd, theta)\n"
              "faithfulness_scan(cd, trials=2)\n"
              "loaded = [m for m, mod in sys.modules.items()\n"
              "          if m.partition('.')[0] == 'scipy' and mod is not None]\n"
              "print(json.dumps({'loaded': loaded, 'outputs': outputs}))\n")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         env=env, timeout=120)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["loaded"] == []
    assert [json.loads(o)["verdict"] for o in result["outputs"][-2:]] == ["equivalent", "distinct"]


# Names that no package code reads but that stay, each for its reason.
UNREAD_BUT_KEPT = {
    "gecs._acyclic": "perfbench's acyclicity check reads it, until it moves to the test oracles",
    "coloring.ColoredDag.is_vertex_colored": "one of the paper's model classes, as a predicate",
    "coloring.ColoredDag.is_bpec": "one of the paper's model classes, as a predicate",
}


def test_the_package_ships_only_what_it_reads():
    # every module-level function and class, and every method but the dunder
    # ones, must be exported or referenced, by name or as an attribute, in src
    definitions, referenced = [], set()
    for path in sorted((SRC / "cdag").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                definitions.append((f"{path.stem}.{node.name}", node.name))
            if isinstance(node, ast.ClassDef):
                definitions += [(f"{path.stem}.{node.name}.{item.name}", item.name)
                                for item in node.body
                                if isinstance(item, ast.FunctionDef)
                                and not (item.name.startswith("__") and item.name.endswith("__"))]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    unread = [qualified for qualified, name in definitions
              if name not in referenced and name not in cdag.__all__]
    assert sorted(set(unread) - UNREAD_BUT_KEPT.keys()) == []
    assert sorted(UNREAD_BUT_KEPT.keys() - set(unread)) == []   # no stale entry
