"""In-memory span tracer for the gtbsplines benchmark.

The tracer wraps public functions of the library from outside: it rebinds
each name where the importing module looks it up (``gtbsplines.space``,
``gtbsplines.cli``, ...) or, for methods, on the class.  Every wrapped call
records one span (name, start, end, parent); counted names only bump a
counter, for calls too cheap and too frequent to time one by one.  Nothing
under ``src/`` is changed, and :meth:`Tracer.uninstall` restores every
binding.

Self time is a span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import gzip
import importlib
import json
import os
from collections import Counter
from time import perf_counter

import numpy as np

# (span name, owner module or class path, attribute).  A name listed under
# several owners gets one wrapper per owner around the same original.
SPANS = (
    ("config.load", "gtbsplines.config:SpaceConfig", "from_json_file"),
    ("bernstein.build", "gtbsplines.space", "build_bernstein"),
    ("bernstein.evaluate", "gtbsplines.bernstein:BernsteinBasis", "evaluate"),
    ("extraction.knot_vectors", "gtbsplines.space", "build_knot_vectors"),
    ("extraction.constraints", "gtbsplines.space", "build_constraints"),
    ("extraction.cascade", "gtbsplines.space", "extraction_operator"),
    ("space.build", "gtbsplines.space", "build_space"),
    ("space.build", "gtbsplines.cli", "build_space"),
    ("space.eval_basis", "gtbsplines.space", "eval_basis"),
    ("space.eval_basis", "gtbsplines.cli", "eval_basis"),
    ("space.insert_knot", "gtbsplines.space", "insert_knot"),
    ("space.insert_knot", "gtbsplines.cli", "insert_knot"),
    ("space.jump_vector", "gtbsplines.space", "jump_vector"),
    ("space.jump_vector", "gtbsplines.cli", "jump_vector"),
    ("space.unit_integral", "gtbsplines.cli", "unit_integral_scaling"),
    ("oracle.recurrence", "gtbsplines.cli", "local_recurrence_eval"),
    ("oracle.cox_de_boor", "gtbsplines.cli", "cox_de_boor_basis"),
    ("cli.sample", "gtbsplines.cli", "cmd_sample"),
    ("cli.verify", "gtbsplines.cli", "cmd_verify"),
)
COUNTS = (
    ("sections.span_derivatives", "gtbsplines.sections:SectionSpace", "span_derivatives"),
    ("extraction.nullspace_step", "gtbsplines.extraction", "nullspace_step"),
)


def _owner(path: str):
    module_name, _, cls = path.partition(":")
    module = importlib.import_module(module_name)
    return getattr(module, cls) if cls else module


class Tracer:
    """Spans and counters of one traced run, kept in memory."""

    def __init__(self):
        self.names: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.raised: list[bool] = []  # the call ended in an exception
        self.counts: Counter = Counter()
        self.operator_sizes: list[tuple[int, int]] = []  # (stored bytes, nnz)
        self.enabled = True
        self._stack = [-1]
        self._saved: list[tuple[object, str, object]] = []

    # -- recording --------------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parent.append(self._stack[-1])
        self.raised.append(False)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    def _span(self, name: str, fn):
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            idx = self.open(name)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                self.raised[idx] = True
                raise
            finally:
                self.close(idx)

        wrapper.__wrapped__ = fn
        return wrapper

    def _count(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            if self.enabled:
                counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _cascade(self, fn):
        timed = self._span("extraction.cascade", fn)

        def wrapper(*args, **kwargs):
            ext = timed(*args, **kwargs)
            if self.enabled:
                stored = ext.operator.nbytes + sum(f.nbytes for f in ext.factors)
                self.operator_sizes.append((stored, int(np.count_nonzero(ext.operator))))
            return ext

        return wrapper

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        for table, make in ((SPANS, self._span), (COUNTS, self._count)):
            for name, path, attr in table:
                owner = _owner(path)
                raw = owner.__dict__[attr]
                self._saved.append((owner, attr, raw))
                if isinstance(raw, classmethod):
                    setattr(owner, attr, classmethod(make(name, raw.__func__)))
                elif name == "extraction.cascade":
                    setattr(owner, attr, self._cascade(raw))
                else:
                    setattr(owner, attr, make(name, raw))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    # -- analysis ---------------------------------------------------------

    def self_times(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-span durations and self times."""
        start, end = np.asarray(self.start), np.asarray(self.end)
        parent = np.asarray(self.parent, dtype=np.int64)
        dur = end - start
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        return dur, dur - covered

    def within(self, ancestors: np.ndarray) -> np.ndarray:
        """Mask of spans that have a span of the mask ``ancestors`` above them."""
        inside = np.zeros(len(self.names), dtype=bool)
        for i, p in enumerate(self.parent):
            if p >= 0 and (inside[p] or ancestors[p]):
                inside[i] = True
        return inside

    def write(self, path: str) -> None:
        """Write every span as ``[name, start, end, parent, raised]`` (gzip
        JSON), replacing ``path`` only once the file is complete."""
        spans = [list(s) for s in zip(self.names, self.start, self.end, self.parent, self.raised)]
        record = {"spans": spans, "counts": dict(self.counts)}
        os.makedirs(os.path.dirname(path), exist_ok=True)
        tmp = f"{path}.{os.getpid()}.tmp"
        with gzip.open(tmp, "wt") as fh:
            json.dump(record, fh)
        os.replace(tmp, path)
