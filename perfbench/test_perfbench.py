"""Smoke test of the benchmark harness at toy sizes.

Run with ``python -m pytest perfbench -q`` (``src`` must be importable, as in
the repository's own test command).
"""

import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import harness  # noqa: E402
from tracer import Target, Tracer  # noqa: E402

# `cdag.gecs` as an attribute is the gecs() function, not the module
gecs_module = importlib.import_module("cdag.gecs")
dag_module = importlib.import_module("cdag.dag")

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
TOY_LEARN = harness.LearnWorkload(p=5, n=200, models=2, baseline=True)
TOY_CHECK = harness.CheckWorkload(global_p=5, local_ps=(5, 6), equiv_ps=(5,), sets=2)


def test_learn_reports_every_end_to_end_metric(tmp_path):
    doc = harness.run(TOY_LEARN, "toy", seed=1, seconds=0.01, trace=False,
                      work=tmp_path, import_s=0.0)
    assert doc["correct"] and doc["failed"] == 0
    # every model ran, and repeats of one operation count once
    assert doc["passes"] >= TOY_LEARN.models
    assert doc["attempted"] == 4 * TOY_LEARN.models
    assert len(doc["ops"]) == 4 * doc["passes"]
    assert set(doc["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in doc["metrics"].values())
    assert all(op["stdout_sha256"] for op in doc["ops"])
    assert {"learn_p50_s", "baseline_p50_s", "score_p50_s", "shd_mean",
            "score_gap_per_n", "fail_ratio"} <= set(doc["details"])


def test_traced_check_reports_every_layer_and_restores_the_package(tmp_path):
    doc = harness.run(TOY_CHECK, "toy", seed=1, seconds=0.01, trace=True,
                      work=tmp_path, import_s=0.0)
    assert doc["correct"]
    assert set(doc["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    assert doc["metrics"]["params.minor.calls"]["value"] > 0
    assert doc["metrics"]["dag.d_separated.calls"]["value"] > 0
    assert doc["metrics"]["fit.family_ls.calls"]["value"] == 0
    assert (tmp_path / "spans.csv").exists()
    # both halves ran the same inputs and agreed
    untraced = [op for op in doc["ops"] if not op["traced"]]
    traced = [op for op in doc["ops"] if op["traced"]]
    assert [op["stdout_sha256"] for op in untraced] == [op["stdout_sha256"] for op in traced]
    assert gecs_module.Dag is dag_module.Dag
    assert not hasattr(dag_module.Dag.d_separated, "__wrapped__")


def test_missing_targets_report_zero_calls():
    tracer = Tracer([Target("gone", "cdag.gecs", "NoSuchName"),
                     Target("gone_module", "cdag.no_such_module", "f"),
                     Target("dag.Dag", "cdag.gecs", "Dag")])
    with tracer.active(0):
        gecs_module._acyclic(3, (((1,),), (), ()))
    summary = tracer.summary()
    assert summary["gone"]["calls"] == summary["gone_module"]["calls"] == 0
    assert summary["dag.Dag"]["calls"] == 1
    assert gecs_module.Dag is dag_module.Dag


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "check",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
