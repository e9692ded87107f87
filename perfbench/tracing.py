"""Spans around the calls into each ``maxconf`` module, recorded from outside.

``install`` replaces each traced public function everywhere a ``maxconf``
module holds a reference to it (``geometry`` is replaced both as
``maxconf.geometry.geometry`` and as ``maxconf.solver.geometry``), so calls
between modules nest. A wrapper records a span only while an op is open;
outside ops, such as the answer checks, it calls straight through.

A span's self time is its duration minus the durations of its direct
children; calls are sequential, so children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from time import perf_counter
from typing import NamedTuple

# span name -> (module, functions); each function's calls count as that span
TRACED = {
    "ensembles.validate": ("maxconf.ensembles", ("validate",)),
    "operators.eig_hermitian": ("maxconf.operators", ("eig_hermitian",)),
    "operators.psd_power": ("maxconf.operators", ("psd_power",)),
    "geometry.geometry": ("maxconf.geometry", ("geometry",)),
    "families.closed_form": ("maxconf.families", (
        "pure_symmetric_solution", "qubit_mixed_solution",
        "flat_mixed_solution", "square_root_measurement",
    )),
    "solver.solve_numeric": ("maxconf.solver", ("solve_numeric",)),
    "solver.solve_rank1_symmetric": ("maxconf.solver", ("solve_rank1_symmetric",)),
    "solver.verify_certificate": ("maxconf.solver", ("verify_certificate",)),
    "solver.evaluate_measurement": ("maxconf.solver", ("evaluate_measurement",)),
    "serialize.encode": ("maxconf.serialize", (
        "ensemble_to_json", "detection_to_json", "certificate_to_json",
        "report_to_json", "validation_to_json", "witness_to_json", "dump_json",
    )),
    "serialize.decode": ("maxconf.serialize", (
        "load_json", "ensemble_from_json", "detection_from_json",
        "dual_from_certificate_json",
    )),
    "cli.main": ("maxconf.cli", ("main",)),
}


def _note(name, result):
    """Exact counts a span keeps from its call's return value."""
    if name == "solver.solve_numeric":
        return int(result.iterations)
    if name == "geometry.geometry":
        # size of the Newton system a solve over this geometry builds
        return int((result.degeneracies.astype(int) ** 2).sum())
    return None


class Span(NamedTuple):
    op: int
    id: int
    parent: int
    name: str
    start: float
    end: float
    self_s: float
    note: int | None


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[list] = []  # [span id, name, start, child seconds]
        self._op: int | None = None
        self._next_id = 0

    @property
    def recording(self) -> bool:
        return self._op is not None

    def begin_op(self, op: int) -> None:
        self._op = op
        self.enter("op")

    def end_op(self) -> None:
        self.exit(None)
        self._op = None

    def enter(self, name: str) -> None:
        self._next_id += 1
        self._stack.append([self._next_id, name, perf_counter(), 0.0])

    def exit(self, note) -> None:
        end = perf_counter()
        span_id, name, start, child = self._stack.pop()
        dur = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += dur
        self.spans.append(Span(self._op, span_id, parent[0] if parent else 0,
                               name, start, end, dur - child, note))

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(Span._fields) + "\n")
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")


def _wrap(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not tracer.recording:
            return fn(*args, **kwargs)
        tracer.enter(name)
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            tracer.exit(None if result is None else _note(name, result))

    return traced


def install(tracer: Tracer):
    """Wrap every traced function at each of its import sites.

    Returns a function that puts the originals back.
    """
    importlib.import_module("maxconf.cli")  # loads every maxconf module
    modules = [m for k, m in sys.modules.items() if k == "maxconf" or k.startswith("maxconf.")]
    replaced = []
    for name, (modname, funcs) in TRACED.items():
        home = sys.modules[modname]
        for fname in funcs:
            original = getattr(home, fname)
            wrapper = _wrap(tracer, name, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        replaced.append((mod, attr, original))

    def uninstall():
        for mod, attr, original in replaced:
            setattr(mod, attr, original)

    return uninstall
