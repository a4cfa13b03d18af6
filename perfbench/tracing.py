"""Spans recorded from outside the program, at the calls one module makes into another.

A :class:`Tracer` replaces, for the length of a traced run, the names a module
looks up in its own globals to call another module (``trainer.full_objective``
and the like) with wrappers that record a span per call, and puts every name
back afterwards. A name a later version no longer has is reported as absent;
the run goes on without it. The benchmark also opens spans of its own around
each public call it makes.

Spans live in memory as (name, start, end, parent) rows and are written out
as JSON at the end of the run. The program runs on one thread, so the child
spans of a span never overlap and its self time is its duration minus the sum
of theirs.
"""

from __future__ import annotations

import gzip
import importlib
import json
import time
from contextlib import contextmanager

import numpy as np

# (module, name in that module, span name) for every cross-module call the
# traced run wraps.
WRAPPED = (
    ("poisfact.trainer", "apply_solver", "trainer.apply_solver"),
    ("poisfact.trainer", "full_objective", "trainer.full_objective"),
    ("poisfact.trainer", "prox_operator", "trainer.prox_operator"),
    ("poisfact.vector_solvers", "objective_vector", "vector_solvers.objective_vector"),
    ("poisfact.vector_solvers", "gradient_vector", "vector_solvers.gradient_vector"),
    ("poisfact.evaluator", "score_user", "evaluator.score_user"),
    ("poisfact.evaluator", "precision_at_k", "evaluator.precision_at_k"),
    ("poisfact.evaluator", "auc_user", "evaluator.auc_user"),
    ("poisfact.evaluator", "pearson_rho", "evaluator.pearson_rho"),
    ("poisfact.evaluator", "test_loglik", "evaluator.test_loglik"),
    ("poisfact.cli", "score_user", "cli.score_user"),
)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.rows: list[tuple[int, float, float, int] | None] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.absent: list[str] = []

    def _open(self, name: str) -> tuple[int, int, int]:
        nid = self._name_ids.setdefault(name, len(self._name_ids))
        if nid == len(self.names):
            self.names.append(name)
        idx = len(self.rows)
        self.rows.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        return nid, idx, parent

    def _close(self, nid: int, idx: int, parent: int, start: float) -> None:
        end = time.perf_counter()
        self._stack.pop()
        self.rows[idx] = (nid, start, end, parent)

    @contextmanager
    def span(self, name: str):
        nid, idx, parent = self._open(name)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(nid, idx, parent, start)

    def _wrapper(self, fn, name: str):
        def traced(*args, **kwargs):
            nid, idx, parent = self._open(name)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(nid, idx, parent, start)

        return traced

    def install(self) -> None:
        for module_name, attr, span_name in WRAPPED:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.absent.append(span_name)
                continue
            fn = getattr(module, attr, None)
            if fn is None:
                self.absent.append(span_name)
                continue
            self._patched.append((module, attr, fn))
            setattr(module, attr, self._wrapper(fn, span_name))

    def restore(self) -> None:
        while self._patched:
            module, attr, fn = self._patched.pop()
            setattr(module, attr, fn)

    def table(self):
        """Columns name id, start, end, parent as arrays, plus self times."""
        rows = np.array(self.rows, dtype=np.float64).reshape(-1, 4)
        nid = rows[:, 0].astype(np.int64)
        start, end = rows[:, 1], rows[:, 2]
        parent = rows[:, 3].astype(np.int64)
        duration = end - start
        child = np.zeros(len(rows))
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], duration[has_parent])
        return nid, start, end, parent, duration, duration - child

    def by_name(self) -> dict[str, tuple[np.ndarray, np.ndarray]]:
        """Durations and self times of the spans of each name, in call order."""
        nid, _, _, _, duration, self_time = self.table()
        return {name: (duration[nid == j], self_time[nid == j]) for j, name in enumerate(self.names)}

    def write(self, path: str) -> None:
        nid, start, end, parent, _, _ = self.table()
        origin = float(start.min()) if len(start) else 0.0
        record = {
            "clock": "time.perf_counter, ns since the first span",
            "names": self.names,
            "absent": self.absent,
            "name": nid.tolist(),
            "start_ns": np.rint((start - origin) * 1e9).astype(np.int64).tolist(),
            "end_ns": np.rint((end - origin) * 1e9).astype(np.int64).tolist(),
            "parent": parent.tolist(),
        }
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            json.dump(record, fh)
