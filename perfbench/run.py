"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload learn_wide --seed 1 --seconds 30 --trace 0

Builds nothing: the package is imported from ``src/`` of the checkout this
file sits in.  Inputs, span dumps and a results document (with SHA-256
digests of every operation's stdout and trace CSV) go to ``perfbench/.work/``.
The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics (from a traced second half of the run)
with ``--trace 1``.  When the package cannot be imported, it exits with code 1
and prints no result line.
"""

from __future__ import annotations

import os

# one BLAS thread: set before numpy is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _import_harness():
    """Import the harness, and with it ``cdag`` from this checkout's src/."""
    sys.path.insert(0, str(ROOT / "src"))
    t0 = time.perf_counter()
    try:
        import harness
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import the cdag package from {ROOT / 'src'}: {exc}")
    import_s = time.perf_counter() - t0
    import cdag
    if (ROOT / "src") not in Path(cdag.__file__).resolve().parents:
        sys.exit(f"perfbench: cdag was imported from {cdag.__file__}, not from this checkout")
    return harness, import_s


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    harness, import_s = _import_harness()
    if args.workload not in harness.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(harness.WORKLOADS)}")

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    results = HERE / ".work" / "results"
    work = HERE / ".work" / f"{tag}-{os.getpid()}"
    results.mkdir(parents=True, exist_ok=True)
    work.mkdir(parents=True)
    try:
        doc = harness.run(harness.WORKLOADS[args.workload], args.workload, args.seed,
                          args.seconds, bool(args.trace), work, import_s)
        if (work / "spans.csv").exists():
            shutil.move(work / "spans.csv", results / f"{tag}.spans.csv")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    (results / f"{tag}.json").write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")

    env = doc["environment"]
    print(f"{tag}: {doc['passes']} passes, {doc['attempted']} operations, "
          f"{doc['failed']} failed; python {env['python']}, numpy {env['numpy']}, "
          f"scipy {env['scipy']}, nproc {env['nproc']}, {env['cpu_model']}")
    for name, m in doc["details"].items():
        print(f"  {name:<20} {m['value']:>14.6g} {m['unit']:<9} (n={m['samples']})")
    if args.trace:
        for name, m in doc["metrics"].items():
            print(f"  {name:<44} {m['value']:>14.6g} {m['unit']}")
        for kind, row in doc["layers_by_kind"].items():
            parts = ", ".join(f"{k} {v:.4g}" for k, v in row.items() if k not in ("ops", "wall_s"))
            print(f"  per {kind} ({row['ops']} traced, {row['wall_s']:.4g} s each): {parts}")
    print(f"  results: {results / (tag + '.json')}")
    print(json.dumps({k: doc[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
