"""In-memory span tracer for the benchmark.

The tracer wraps named entry points of the ``cdag`` modules from outside the
package: each wrapped call records one span ``(id, parent id, name, operation,
start, end)`` in a list, and an optional observer updates counters from the
call's arguments, result or error.  Spans are written out once, when the run
ends; nothing is traced while no operation is active.

A name is patched where its caller looks it up (``Dag`` inside ``cdag.gecs``
counts only the constructions made by the search).  A target whose module or
attribute no longer exists is skipped and reports zero calls.
"""

from __future__ import annotations

import csv
import importlib
import inspect
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple


@dataclass(frozen=True)
class Target:
    """One traced entry point.

    ``module`` is imported with ``importlib.import_module`` (``cdag.gecs`` as an
    attribute of ``cdag`` is the ``gecs()`` function, not the submodule), and
    ``attr`` is a name or a dotted ``Class.method`` path inside it.
    """

    span: str
    module: str
    attr: str
    observe: Optional[Callable] = None   # (counters, args, result, error) -> None


class Tracer:
    def __init__(self, targets: Sequence[Target]):
        self.targets = tuple(targets)
        self.spans: List[Tuple[int, int, int, int, float, float]] = []
        self.counters: Counter = Counter()
        self._stack: List[int] = [-1]
        self._next = 0
        self._op = -1
        self._saved: List[tuple] = []

    # -- patching ------------------------------------------------------

    def _wrap(self, fn, idx: int, observe):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            sid = self._next
            self._next = sid + 1
            parent = stack[-1]
            stack.append(sid)
            result = error = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                error = exc
                raise
            finally:
                t1 = clock()
                stack.pop()
                spans.append((sid, parent, idx, self._op, t0, t1))
                if observe is not None:
                    observe(self.counters, args, result, error)

        traced.__wrapped__ = fn
        return traced

    def _install(self) -> None:
        for idx, target in enumerate(self.targets):
            try:
                owner = importlib.import_module(target.module)
                *path, name = target.attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                raw = inspect.getattr_static(owner, name)
            except (ImportError, AttributeError):
                continue
            if isinstance(raw, (classmethod, staticmethod)):
                new = type(raw)(self._wrap(raw.__func__, idx, target.observe))
            elif callable(raw):
                new = self._wrap(raw, idx, target.observe)
            else:
                continue
            self._saved.append((owner, name, raw, name in vars(owner)))
            setattr(owner, name, new)

    def _uninstall(self) -> None:
        while self._saved:
            owner, name, raw, own = self._saved.pop()
            if own:
                setattr(owner, name, raw)
            else:
                delattr(owner, name)

    @contextmanager
    def active(self, op: int):
        """Trace the calls made inside the block as operation ``op``."""
        self._install()
        self._op = op
        try:
            yield
        finally:
            self._op = -1
            del self._stack[1:]
            self._uninstall()

    # -- aggregation ---------------------------------------------------

    def summary(self, ops=None) -> Dict[str, Dict[str, float]]:
        """Per target: calls, inclusive seconds and self seconds (inclusive
        minus the traced calls made inside it), over the spans of ``ops``
        (all operations when None)."""
        child = defaultdict(float)
        for _, parent, _, _, t0, t1 in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = {t.span: {"calls": 0, "s": 0.0, "self_s": 0.0} for t in self.targets}
        for sid, _, idx, op, t0, t1 in self.spans:
            if ops is not None and op not in ops:
                continue
            row = out[self.targets[idx].span]
            row["calls"] += 1
            row["s"] += t1 - t0
            row["self_s"] += t1 - t0 - child[sid]
        return out

    def write_csv(self, path, op_names: Dict[int, str]) -> None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(("span", "parent", "name", "op", "start_s", "end_s"))
            for sid, parent, idx, op, t0, t1 in self.spans:
                writer.writerow((sid, parent, self.targets[idx].span,
                                 op_names.get(op, op), f"{t0:.9f}", f"{t1:.9f}"))
