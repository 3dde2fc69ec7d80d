"""The package's public names, and what importing and running it loads."""

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
