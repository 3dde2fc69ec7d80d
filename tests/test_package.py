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


def _scipy_linalg_loaded(script: str) -> list:
    """Run ``script`` in a fresh interpreter and return, for each ``mark()``
    call in it, whether scipy.linalg had been imported by then."""
    probe = ("import json, sys\n"
             "marks = []\n"
             "def mark():\n"
             "    marks.append('scipy.linalg' in sys.modules)\n"
             + script + "\nprint(json.dumps(marks))\n")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         env=env, timeout=120, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_only_covariance_evaluations_load_scipy_linalg(tmp_path):
    truth, theta = random_bpec(5, 0.5, 2, seed=1)
    data, graph, sigma = tmp_path / "d.csv", tmp_path / "g.json", tmp_path / "s.csv"
    sample(truth, theta, 200, 2).to_csv(data)
    write_graph_json(truth, graph)
    write_matrix_csv(parametrize(truth, theta), sigma)
    runs = [["learn", "--data", str(data)],
            ["score", "--graph", str(graph), "--data", str(data)],
            ["check", "--graph", str(graph), "--sigma", str(sigma), "--global"]]
    script = "import cdag\nmark()\nfrom cdag.cli import main\n" + "".join(
        f"assert main({argv!r}) == 0\nmark()\n" for argv in runs)
    assert _scipy_linalg_loaded(script) == [False] * 4
    script = ("from cdag import bench, parametrize\n"
              "cd, theta = bench.random_bpec(4, 0.5, 2, 0)\n"
              "mark()\nparametrize(cd, theta)\nmark()\n")
    assert _scipy_linalg_loaded(script) == [False, True]


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
