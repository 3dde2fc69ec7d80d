"""Benchmark harness: workload set-up, the timed loop, output checks and metrics.

Every operation is a real ``cdag`` command line, run in-process through
``cdag.cli.main(argv)`` with stdout and stderr captured.  Inputs are random
BPEC models from ``cdag.bench.random_bpec`` (and data from ``cdag.bench.sample``),
all derived from the workload seed and written to files during set-up.  See
README.md in this directory for why each workload exists.

A *pass* is one round of the workload's operations on one input set; passes
cycle through a fixed pool of input sets until the time is up and every input
set has had at least one pass.  An operation's *slot* is its place in the
pass, so one slot holds the same kind of operation on inputs of one size.
"""

from __future__ import annotations

import contextlib
import csv
import gc
import hashlib
import importlib
import io
import json
import math
import os
import platform
import resource
import statistics
import time
import traceback
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import numpy as np
import scipy

import reference
from tracer import Target, Tracer

bench = importlib.import_module("cdag.bench")
cli = importlib.import_module("cdag.cli")
coloring = importlib.import_module("cdag.coloring")
errors = importlib.import_module("cdag.errors")
params = importlib.import_module("cdag.params")

RHO = 0.5            # edge probability of every random model
NC = 2               # color classes per family
SETUP_REPS = 3       # set-ups per run; setup_s reports their median
SCORE_RTOL = 1e-9    # trace final score against `cdag score` bic


# -- operations ------------------------------------------------------------


def _sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _sha256_file(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


@dataclass
class Op:
    """One command-line operation and what the harness found out about it."""

    kind: str                  # learn | baseline | score | check | check_local | equiv
    key: str                   # input identity; a repeated key must repeat its output
    argv: List[str]
    pass_index: int = 0
    slot: int = 0              # place in the pass
    traced: bool = False
    ran: bool = False
    wall_s: float = 0.0
    code: Optional[int] = None
    stdout: str = ""
    stderr: str = ""
    digest: str = ""
    trace_digest: str = ""
    ok: bool = False           # exit code and output both verified
    note: str = ""
    extra: Dict[str, float] = field(default_factory=dict)

    def fail(self, note: str) -> None:
        self.ok = False
        self.note = "; ".join(s for s in (self.note, note) if s)

    def record(self) -> dict:
        return {"kind": self.kind, "key": self.key, "pass": self.pass_index,
                "slot": self.slot, "traced": self.traced, "argv": self.argv,
                "ran": self.ran, "wall_s": self.wall_s, "code": self.code, "ok": self.ok,
                "stdout_sha256": self.digest,
                "trace_sha256": self.trace_digest, "note": self.note,
                **self.extra}


def invoke(argv: Sequence[str]):
    """Run one `cdag` command line in-process; returns (exit code or None on
    an escaped exception, stdout, stderr, wall seconds)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:          # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:                  # an escaped traceback fails the operation
            code = None
            traceback.print_exc()
        wall = time.perf_counter() - t0
    return code, out.getvalue(), err.getvalue(), wall


class Runner:
    """Runs operations, traced or not, and keeps every one it ran."""

    def __init__(self, tracer: Optional[Tracer] = None):
        self.tracer = tracer
        self.ops: List[Op] = []
        self.pass_index = 0
        self.slot = 0
        self.traced = False

    def begin_pass(self, index: int) -> None:
        self.pass_index, self.slot = index, 0

    def _add(self, op: Op) -> None:
        op.pass_index, op.slot, op.traced = self.pass_index, self.slot, self.traced
        self.slot += 1
        self.ops.append(op)

    def run(self, op: Op, trace_file: Optional[Path] = None) -> Op:
        self._add(op)
        if trace_file is not None:
            trace_file.unlink(missing_ok=True)
        if self.traced:
            with self.tracer.active(len(self.ops) - 1):
                op.code, op.stdout, op.stderr, op.wall_s = invoke(op.argv)
        else:
            op.code, op.stdout, op.stderr, op.wall_s = invoke(op.argv)
        op.ran = True
        op.digest = _sha256_text(op.stdout)
        if trace_file is not None and trace_file.exists():
            op.trace_digest = _sha256_file(trace_file)
        op.ok = op.code == 0
        if op.code is None:
            op.note = op.stderr.strip().splitlines()[-1] if op.stderr.strip() else "exception"
        elif op.code != 0:
            op.note = f"exit {op.code}: {op.stderr.strip()[:200]}"
        return op

    def skip(self, op: Op, note: str) -> Op:
        """An operation whose input an earlier failure did not produce."""
        self._add(op)
        op.note = note
        return op


def _json_or_fail(op: Op) -> Optional[dict]:
    if not op.ran or op.code not in (0, 1):
        return None
    try:
        return json.loads(op.stdout)
    except json.JSONDecodeError:
        op.fail("stdout is not JSON")
        return None


def _final_trace_score(path: Path) -> float:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    return float(rows[-1]["score"])


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= SCORE_RTOL * max(abs(a), abs(b))


def _score_of(graph: Path, data: Path) -> float:
    """`cdag score` bic of a graph, outside the timed operations."""
    code, out, _, _ = invoke(["score", "--graph", str(graph), "--data", str(data),
                              "--no-center"])
    return json.loads(out)["bic"] if code == 0 else math.nan


# -- workloads ---------------------------------------------------------------


@dataclass(frozen=True)
class LearnModel:
    key: str
    truth: object        # ColoredDag
    data: Path
    truth_json: Path


@dataclass(frozen=True)
class LearnWorkload:
    """GECS `learn` (and optionally `learn --baseline`) on sampled data, then
    `score` of the truth and of the GECS result."""

    p: int
    n: int
    models: int
    baseline: bool

    def setup(self, root: Path, seed: int) -> List[LearnModel]:
        pool = []
        for k in range(self.models):
            truth, theta = bench.random_bpec(self.p, RHO, NC, [seed, k])
            data = bench.sample(truth, theta, self.n, [seed, k, 1])
            model = LearnModel(f"m{k}", truth, root / f"m{k}.csv",
                               root / f"m{k}.truth.json")
            data.to_csv(model.data)
            coloring.write_graph_json(truth, model.truth_json)
            pool.append(model)
        return pool

    def run_pass(self, m: LearnModel, runner: Runner) -> None:
        root = m.data.parent
        data = ["--data", str(m.data), "--no-center"]
        gecs_trace = root / f"{m.key}.gecs.trace.csv"
        learned = root / f"{m.key}.gecs.json"
        learn = runner.run(Op("learn", m.key, ["learn", *data, "--trace", str(gecs_trace)]),
                           gecs_trace)
        doc = _json_or_fail(learn)
        result = None
        if learn.ok and doc is not None:
            try:
                result = coloring.ColoredDag.from_json_dict(doc)
            except errors.CdagError as exc:
                learn.fail(f"unreadable graph: {exc}")
            else:
                if not result.is_bpec():
                    learn.fail("result is not a BPEC-DAG")
                learned.write_text(learn.stdout, encoding="utf-8")
                learn.extra["shd"] = bench.shd(m.truth.graph, result.graph)
        if self.baseline:
            base_trace = root / f"{m.key}.base.trace.csv"
            base = runner.run(Op("baseline", m.key,
                                 ["learn", *data, "--baseline", "--trace", str(base_trace)]),
                              base_trace)
            if base.ok and _json_or_fail(base) is not None:
                base_graph = root / f"{m.key}.base.json"
                base_graph.write_text(base.stdout, encoding="utf-8")
                bic = _score_of(base_graph, m.data)
                if not _close(_final_trace_score(base_trace), bic):
                    base.fail(f"trace final score differs from score bic {bic!r}")
        truth_score = self._score(runner, m, "truth", m.truth_json)
        if result is None:
            runner.skip(Op("score", f"{m.key}.gecs", []), "no learned graph to score")
            return
        gecs_score = self._score(runner, m, "gecs", learned)
        if gecs_score is not None:
            final = _final_trace_score(gecs_trace)
            if not _close(final, gecs_score):
                learn.fail(f"trace final score {final!r} differs from score bic "
                           f"{gecs_score!r}")
            if truth_score is not None:
                learn.extra["score_gap_per_n"] = (truth_score - gecs_score) / self.n

    @staticmethod
    def _score(runner: Runner, m: LearnModel, which: str, graph: Path) -> Optional[float]:
        op = runner.run(Op("score", f"{m.key}.{which}",
                           ["score", "--graph", str(graph), "--data", str(m.data),
                            "--no-center"]))
        doc = _json_or_fail(op)
        if not op.ok or doc is None:
            return None
        bic = doc.get("bic")
        if not isinstance(bic, float) or not math.isfinite(bic):
            op.fail(f"bic is not a finite number: {bic!r}")
            return None
        return bic

    def details(self, ops: List[Op]) -> Dict[str, tuple]:
        out = {"learn_p50_s": _p50(ops, "learn")}
        if self.baseline:
            out["baseline_p50_s"] = _p50(ops, "baseline")
        out["score_p50_s"] = _p50(ops, "score")
        # quality is a property of the model, so each model counts once
        first = {}
        for op in ops:
            if op.kind == "learn" and op.key not in first:
                first[op.key] = op
        shds = [op.extra["shd"] for op in first.values() if "shd" in op.extra]
        gaps = [op.extra["score_gap_per_n"] for op in first.values()
                if "score_gap_per_n" in op.extra]
        out["shd_mean"] = (_mean(shds), "edges", len(shds))
        out["score_gap_per_n"] = (_mean(gaps), "1/sample", len(gaps))
        return out


@dataclass(frozen=True)
class CheckSet:
    key: str
    files: Dict[str, tuple]     # op label -> (graph json, sigma csv)


@dataclass(frozen=True)
class CheckWorkload:
    """`check --global` at one size, local `check` and self-`equiv` at
    several, all on exact model covariances."""

    global_p: int
    local_ps: tuple
    equiv_ps: tuple
    sets: int

    def setup(self, root: Path, seed: int) -> List[CheckSet]:
        pool = []
        labels = ([("check", self.global_p)] + [("check_local", p) for p in self.local_ps]
                  + [("equiv", p) for p in self.equiv_ps])
        for k in range(self.sets):
            files = {}
            for j, (kind, p) in enumerate(labels):
                cd, theta = bench.random_bpec(p, RHO, NC, [seed, k, j])
                graph, sigma = root / f"s{k}.{j}.json", root / f"s{k}.{j}.sigma.csv"
                coloring.write_graph_json(cd, graph)
                if kind != "equiv":
                    params.write_matrix_csv(params.parametrize(cd, theta), sigma)
                files[f"{kind}.p{p}"] = (graph, sigma)
            pool.append(CheckSet(f"s{k}", files))
        return pool

    def run_pass(self, s: CheckSet, runner: Runner) -> None:
        for label, (graph, sigma) in s.files.items():
            kind = label.split(".")[0]
            key = f"{s.key}.{label}"
            if kind == "equiv":
                op = runner.run(Op(kind, key, ["equiv", "--a", str(graph), "--b", str(graph)]))
                doc = _json_or_fail(op)
                if op.ok and doc is not None and doc.get("verdict") != "equivalent":
                    op.fail(f"self-pair reported {doc.get('verdict')!r}")
                continue
            argv = ["check", "--graph", str(graph), "--sigma", str(sigma)]
            if kind == "check":
                argv.append("--global")
            op = runner.run(Op(kind, key, argv))
            doc = _json_or_fail(op)
            if doc is None:
                continue
            reports = doc.get("reports", [])
            op.extra["checked"] = sum(r.get("checked", 0) for r in reports)
            op.extra["violations"] = sum(len(r.get("violations", [])) for r in reports)
            failed = [r.get("property") for r in reports if r.get("verdict") != "pass"]
            if failed or len(reports) != (2 if kind == "check" else 1):
                op.fail(f"exact covariance fails its own {failed} Markov check")

    def details(self, ops: List[Op]) -> Dict[str, tuple]:
        return {"check_p50_s": _p50(ops, "check"),
                "check_local_p50_s": _p50(ops, "check_local"),
                "equiv_p50_s": _p50(ops, "equiv")}


def _p50(ops: List[Op], kind: str) -> tuple:
    walls = [op.wall_s for op in ops if op.kind == kind and op.ran]
    return (statistics.median(walls) if walls else math.nan, "s", len(walls))


def _mean(values) -> float:
    return math.fsum(values) / len(values) if values else math.nan


def typical_ops_per_s(ops: List[Op], pass_ref_s: Optional[List[float]] = None) -> tuple:
    """Operations per second of a typical pass: the pass's operation count over
    the sum, across its slots, of each slot's median wall time.  Medians keep a
    burst of load on the shared machine out of the figure, and each median
    spans every input of the pool.  With `pass_ref_s`, the reference time
    measured before each pass, every wall time is first scaled to a machine on
    which the reference work takes `reference.NOMINAL_S`."""
    walls: Dict[int, List[float]] = {}
    for op in ops:
        if op.ran:
            scale = reference.NOMINAL_S / pass_ref_s[op.pass_index] if pass_ref_s else 1.0
            walls.setdefault(op.slot, []).append(op.wall_s * scale)
    pass_s = math.fsum(statistics.median(w) for w in walls.values())
    return (len(walls) / pass_s if pass_s else math.nan, "1/s",
            sum(map(len, walls.values())))


def distinct_outcomes(ops: List[Op]) -> Dict[tuple, bool]:
    """Whether each distinct operation (kind and input) was verified every
    time it ran; repeats of one input count once."""
    out: Dict[tuple, bool] = {}
    for op in ops:
        out[op.kind, op.key] = out.get((op.kind, op.key), True) and op.ok
    return out


WORKLOADS = {
    "learn_wide": LearnWorkload(p=15, n=1000, models=8, baseline=True),
    "learn_tall": LearnWorkload(p=8, n=100_000, models=2, baseline=False),
    "check": CheckWorkload(global_p=8, local_ps=(10, 20, 30), equiv_ps=(10, 12, 15),
                           sets=24),
}


# -- tracing targets ---------------------------------------------------------


def _count_cyclic(counters, args, result, error):
    counters["dag.Dag.cyclic"] += isinstance(error, errors.GraphError)


def _count_fit_bytes(counters, args, result, error):
    x, _, groups = args[:3]
    counters["fit.family_ls.bytes"] += x.shape[0] * (sum(map(len, groups)) + 1) * 8


def _count_moves(counters, args, result, error):
    counters["gecs.accepted_moves"] += len(args[0].trace) - 1


TARGETS = (
    Target("cli.main", "cdag.cli", "main"),
    Target("coloring.read_graph", "cdag.cli", "read_graph_json"),
    Target("fit.read_csv", "cdag.fit", "Dataset.from_csv"),
    Target("fit.mle", "cdag.cli", "mle"),
    Target("fit.bic_score", "cdag.cli", "bic_score"),
    Target("gecs.search", "cdag.gecs", "GecsSearch.run", _count_moves),
    Target("gecs.search", "cdag.gecs", "BaselineSearch.run", _count_moves),
    Target("fit.family_ls", "cdag.gecs", "family_ls", _count_fit_bytes),
    Target("dag.Dag", "cdag.gecs", "Dag", _count_cyclic),
    Target("constraints.check", "cdag.cli", "check_local_markov"),
    Target("constraints.check", "cdag.cli", "check_global_markov"),
    Target("constraints.check", "cdag.cli", "model_equivalent"),
    Target("params.minor", "cdag.constraints", "minor"),
    Target("params.almost_principal_minor", "cdag.constraints", "almost_principal_minor"),
    Target("params.recover_lambda", "cdag.constraints", "recover_lambda"),
    Target("params.parametrize", "cdag.constraints", "parametrize"),
    Target("identify.enumerate_identifying_sets", "cdag.identify",
           "enumerate_identifying_sets"),
    Target("dag.d_separated", "cdag.dag", "Dag.d_separated"),
    Target("bench.random_bpec", "cdag.bench", "random_bpec"),
    Target("bench.sample", "cdag.bench", "sample"),
    Target("fit.to_csv", "cdag.fit", "Dataset.to_csv"),
)

SETUP_LAYERS = ("bench.random_bpec", "bench.sample", "fit.to_csv")
COUNTED_LAYERS = ("fit.read_csv", "fit.family_ls", "dag.Dag", "params.minor",
                  "params.almost_principal_minor", "params.recover_lambda",
                  "params.parametrize",
                  "identify.enumerate_identifying_sets", "dag.d_separated",
                  "coloring.read_graph")
TIMED_LAYERS = COUNTED_LAYERS + ("fit.mle", "fit.bic_score", "gecs.search")


def layer_metrics(tracer: Tracer, runner: Runner, passes: int, setup_ops: set,
                  untraced_s: float, traced_s: float) -> Dict[str, tuple]:
    """Per-layer metrics of the traced passes, per pass (set-up layers per set-up)."""
    timed_ops = {i for i, op in enumerate(runner.ops) if op.traced}
    per = tracer.summary(timed_ops)
    setup = tracer.summary(setup_ops)
    moves = tracer.counters["gecs.accepted_moves"]
    dags = per["dag.Dag"]["calls"]
    traced = [op for op in runner.ops if op.traced]
    out = {}
    for name in TIMED_LAYERS:
        out[f"{name}_s"] = (per[name]["s"] / passes, "s")
    for name in COUNTED_LAYERS:
        out[f"{name}.calls"] = (per[name]["calls"] / passes, "count")
    out["fit.family_ls.bytes"] = (tracer.counters["fit.family_ls.bytes"] / passes, "B")
    out["dag.Dag.cyclic"] = (tracer.counters["dag.Dag.cyclic"] / passes, "count")
    out["dag.cyclic_ratio"] = (tracer.counters["dag.Dag.cyclic"] / dags if dags else 0.0,
                               "ratio")
    out["gecs.self_s"] = (per["gecs.search"]["self_s"] / passes, "s")
    out["gecs.accepted_moves"] = (moves / passes, "count")
    out["gecs.fits_per_move"] = (per["fit.family_ls"]["calls"] / moves if moves else 0.0,
                                 "count")
    out["gecs.dag_per_move"] = (dags / moves if moves else 0.0, "count")
    out["constraints.check_s"] = (per["constraints.check"]["s"] / passes, "s")
    out["constraints.self_s"] = (per["constraints.check"]["self_s"] / passes, "s")
    out["constraints.relations_checked"] = (
        sum(op.extra.get("checked", 0) for op in traced) / passes, "count")
    out["constraints.violations"] = (
        sum(op.extra.get("violations", 0) for op in traced) / passes, "count")
    reps = len(setup_ops)
    for name in SETUP_LAYERS:
        out[f"{name}_s"] = (setup[name]["s"] / reps, "s")
    out["cli.other_s"] = (per["cli.main"]["self_s"] / passes, "s")
    out["trace.overhead_s"] = ((traced_s - untraced_s) / passes, "s")
    out["trace.overhead_ratio"] = (traced_s / untraced_s - 1.0, "ratio")
    return out


def layers_by_kind(tracer: Tracer, runner: Runner) -> Dict[str, dict]:
    """Mean seconds per traced operation of each kind: its wall time, each
    layer it reached (inclusive), and the CLI's own share."""
    out = {}
    for kind in dict.fromkeys(op.kind for op in runner.ops if op.traced and op.ran):
        ids = {i for i, op in enumerate(runner.ops) if op.traced and op.ran and op.kind == kind}
        rows = tracer.summary(ids)
        layers = {name: row["s"] / len(ids) for name, row in rows.items()
                  if row["calls"] and name != "cli.main"}
        out[kind] = {"ops": len(ids),
                     "wall_s": math.fsum(runner.ops[i].wall_s for i in ids) / len(ids),
                     **dict(sorted(layers.items(), key=lambda kv: -kv[1])),
                     "cli.other_s": rows["cli.main"]["self_s"] / len(ids)}
    return out


# -- the run -------------------------------------------------------------------


def environment() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "threads": {v: os.environ.get(v) for v in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def _warm_up(root: Path) -> None:
    """One tiny operation of each kind, so lazy imports and first-call costs
    fall outside the timed phase."""
    warm = root / "warm"
    warm.mkdir(exist_ok=True)
    learn = LearnWorkload(p=4, n=50, models=1, baseline=True)
    check = CheckWorkload(global_p=4, local_ps=(4,), equiv_ps=(4,), sets=1)
    runner = Runner()
    learn.run_pass(learn.setup(warm, 0)[0], runner)
    check.run_pass(check.setup(warm, 0)[0], runner)


def run(workload, name: str, seed: int, seconds: float, trace: bool, work: Path,
        import_s: float) -> dict:
    """Set up, run the timed passes, check every output, and return the result
    document (the last stdout line is built from it)."""
    inputs = work / "inputs"
    inputs.mkdir(parents=True, exist_ok=True)
    tracer = Tracer(TARGETS) if trace else None
    runner = Runner(tracer)

    setup_times, setup_ops = [], set()
    for rep in range(SETUP_REPS):
        gc.collect()
        t0 = time.perf_counter()
        if trace:
            op_id = -2 - rep
            setup_ops.add(op_id)
            with tracer.active(op_id):
                pool = workload.setup(inputs, seed)
        else:
            pool = workload.setup(inputs, seed)
        setup_times.append(time.perf_counter() - t0)
    _warm_up(work)

    pass_ref_s: List[float] = []   # reference time before each untraced pass

    def timed(budget: float, schedule: Optional[List[int]] = None) -> List[int]:
        """Passes until `budget` seconds are up and the pool is covered, or
        exactly the passes of `schedule`."""
        done = []
        start = time.perf_counter()
        while True:
            k = schedule[len(done)] if schedule is not None else len(done) % len(pool)
            runner.begin_pass(len(done))
            gc.collect()
            if schedule is None:
                pass_ref_s.append(reference.measure())
            workload.run_pass(pool[k], runner)
            done.append(k)
            if schedule is not None:
                if len(done) == len(schedule):
                    return done
            elif len(done) >= len(pool) and time.perf_counter() - start >= budget:
                return done

    passes = timed(seconds / 2 if trace else seconds)
    if trace:
        untraced_s = sum(op.wall_s for op in runner.ops)
        runner.traced = True
        timed(0, passes)
        traced_s = sum(op.wall_s for op in runner.ops if op.traced)

    # `attempted` counts distinct operations, and `failed` those without a
    # verified result, so both depend on the seed alone and not on how many
    # passes the time allowed.  `correct` turns false only when the run itself
    # cannot be trusted: a traceback escaped the CLI, or one input gave two
    # different outputs.
    ops = runner.ops
    correct = not any(op.ran and op.code is None for op in ops)
    seen = {}
    for op in ops:
        if not op.ran:
            continue
        prev = seen.setdefault((op.kind, op.key), (op.digest, op.trace_digest))
        if prev != (op.digest, op.trace_digest):
            correct = False
            op.fail("output differs from an earlier run on the same input")
    outcomes = distinct_outcomes(ops)
    attempted = len(outcomes)
    failed = sum(1 for ok in outcomes.values() if not ok)
    untraced = [op for op in ops if not op.traced]
    details = {
        "ops_per_s": typical_ops_per_s(untraced),
        "ops_per_s_norm": typical_ops_per_s(untraced, pass_ref_s),
        "reference_s": (statistics.median(pass_ref_s), "s", len(pass_ref_s)),
        "fail_ratio": (failed / attempted, "ratio", attempted),
        **workload.details(untraced),
    }
    metrics = {}
    if trace:
        metrics.update(layer_metrics(tracer, runner, len(passes), setup_ops,
                                     untraced_s, traced_s))
        by_kind = layers_by_kind(tracer, runner)
        tracer.write_csv(work / "spans.csv",
                         {**{i: f"{op.kind}:{op.key}:{i}" for i, op in enumerate(ops)},
                          **{i: f"setup:{-2 - i}" for i in setup_ops}})
    else:
        metrics["setup_s"] = (import_s + statistics.median(setup_times), "s")
        metrics["ops_per_s_norm"] = details["ops_per_s_norm"][:2]
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    return {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "environment": environment(), "workload_config": asdict(workload),
        "import_s": import_s, "setup_reps_s": setup_times, "passes": len(passes),
        "correct": correct, "attempted": attempted, "failed": failed,
        "details": {k: {"value": v[0], "unit": v[1], "samples": v[2]}
                    for k, v in details.items()},
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "layers_by_kind": by_kind if trace else {},
        "ops": [op.record() for op in ops],
    }
