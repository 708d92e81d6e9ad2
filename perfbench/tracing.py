"""In-memory spans around the names that vortexcc modules call across layers.

The wrappers are installed only for the traced pass of a traced run and are
removed afterwards.  A target that no longer exists (after a refactor renames
or merges it) is reported as missing; its metrics come out as None, never as
zero, and the run goes on.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from array import array
from contextlib import contextmanager
from time import perf_counter

import numpy as np

# (owner, attribute, span name).  The owner is a module, or "module:Class".
TARGETS = (
    ("vortexcc.solver", "physical_residual_vector", "system.physical_residual"),
    ("vortexcc.solver", "physical_jacobian", "system.physical_jacobian"),
    ("vortexcc.solver", "complex_residual_vector", "system.complex_residual"),
    ("vortexcc.solver", "complex_jacobian", "system.complex_jacobian"),
    ("vortexcc.solver", "invariants_of", "quantities.invariants"),
    ("numpy.linalg", "solve", "solver.lm_solve"),
    ("vortexcc.exceptional", "check_subset_conditions", "exceptional.subset_check"),
    ("vortexcc.exceptional", "evaluate_diagram_constraints", "exceptional.catalog_match"),
    ("vortexcc.exactpoly:Poly", "evaluate", "exactpoly.evaluate"),
    ("vortexcc.exactpoly:Poly", "permuted", "exactpoly.permuted"),
)


def _resolve(owner: str):
    module_name, _, class_name = owner.partition(":")
    try:
        obj = importlib.import_module(module_name)
    except ImportError:
        return None
    return getattr(obj, class_name, None) if class_name else obj


class Tracer:
    """Spans as parallel arrays: name id, start, end, parent index, call id."""

    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.name = array("q")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.call = array("q")
        self._stack: list = []
        self.call_id = -1

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.call.append(self.call_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    @contextmanager
    def root(self, name: str):
        """Span around one public call; starts a new call id."""
        self.call_id += 1
        idx = self._open(self._name_id(name))
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, fn, name: str):
        nid = self._name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        return traced

    @contextmanager
    def installed(self, targets=TARGETS):
        """Wrap every target that exists; yields the set of missing span names."""
        restore = []
        missing = set()
        try:
            for owner_name, attr, span in targets:
                owner = _resolve(owner_name)
                original = inspect.getattr_static(owner, attr, None) if owner is not None else None
                if not callable(original):
                    missing.add(span)
                    continue
                restore.append((owner, attr, original, attr in vars(owner)))
                setattr(owner, attr, self.wrap(original, span))
            yield missing
        finally:
            for owner, attr, original, own in reversed(restore):
                if own:
                    setattr(owner, attr, original)
                else:
                    delattr(owner, attr)

    def totals(self) -> dict:
        """{span name: (count, total seconds, self seconds)}."""
        if not self.start:
            return {}
        name = np.frombuffer(self.name, dtype=np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        dur = np.frombuffer(self.end, dtype=float) - np.frombuffer(self.start, dtype=float)
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        own = dur - child
        out = {}
        for nid, span in enumerate(self.names):
            sel = name == nid
            out[span] = (int(sel.sum()), float(dur[sel].sum()), float(own[sel].sum()))
        return out

    def write(self, path) -> None:
        """All spans as a compressed .npz: names, and per span name id, start, end, parent, call."""
        np.savez_compressed(path, names=np.array(self.names), name=np.asarray(self.name),
                            start=np.asarray(self.start), end=np.asarray(self.end),
                            parent=np.asarray(self.parent), call=np.asarray(self.call))
