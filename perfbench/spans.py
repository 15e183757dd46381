"""In-memory spans around calls into the program's layers.

Spans are recorded by replacing each traced function wherever the program
looks it up: every ``optlaws`` module attribute bound to the function, or
the class attribute for a method.  Nothing is patched outside a traced
pass; :func:`install` returns the function that puts the originals back.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np

# (module, attribute, span name).  A dotted attribute is a method.
TARGETS = (
    ("optlaws.schedule", "Schedule.integral", "schedule.integral"),
    ("optlaws.schedule", "Schedule.value", "schedule.value"),
    ("optlaws.features", "compute_features", "features.compute_features"),
    ("optlaws.law", "fit", "law.fit"),
    ("optlaws.law", "predict", "law.predict"),
    ("optlaws.law", "rank", "law.rank"),
    ("optlaws.divergence", "criterion_R", "divergence.criterion_R"),
    ("optlaws.cli", "main", "cli"),
    ("optlaws.cli", "read_runs_csv", "cli.read_runs_csv"),
    ("optlaws.cli", "sweep_grid", "cli.sweep_grid"),
    ("optlaws.numerics", "adaptive_simpson", "numerics.adaptive_simpson"),
    ("optlaws.sde.simulate", "simulate", "sde.simulate"),
    ("optlaws.sde.gaussian", "integrate_covariance_ode", "sde.integrate_covariance_ode"),
    ("optlaws.sde.gaussian", "closed_form_covariance", "sde.closed_form_covariance"),
    ("optlaws.sde.randmat", "random_matrix_checks", "sde.random_matrix_checks"),
    ("optlaws.sde.bounds", "convergence_bound", "sde.convergence_bound"),
)

# Span whose calls are kept, so the benchmark can time their RNG fill.
RECORD_ARGS = "sde.simulate"


class Tracer:
    """Span store: name, start, end, parent span and operation id per call."""

    def __init__(self):
        self.names: list[str] = []
        self.name = array("q")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.op = array("q")
        self.op_id = -1
        self.calls: list[tuple] = []  # (args, kwargs) of RECORD_ARGS calls
        self.missing: list[str] = []
        self._stack: list[int] = []

    def wrap(self, fn, span: str):
        nid = len(self.names)
        self.names.append(span)
        name, start, end, parent, op, stack = (
            self.name, self.start, self.end, self.parent, self.op, self._stack
        )
        calls = self.calls if span == RECORD_ARGS else None
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(start)
            name.append(nid)
            parent.append(stack[-1] if stack else -1)
            op.append(tracer.op_id)
            start.append(0.0)
            end.append(0.0)
            stack.append(i)
            if calls is not None:
                calls.append((args, kwargs))
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = clock()
                start[i] = t0
                stack.pop()

        return traced

    def install(self):
        """Patch every target; returns a callable that restores the originals."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "optlaws" or n.startswith("optlaws."))]
        patches = []
        for modname, attr, span in TARGETS:
            owner = sys.modules.get(modname)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name, None)
                orig = vars(cls).get(meth) if cls is not None else None
                if orig is None:
                    self.missing.append(span)
                    continue
                setattr(cls, meth, self.wrap(orig, span))
                patches.append((cls, meth, orig))
                continue
            orig = getattr(owner, attr, None)
            if orig is None:
                self.missing.append(span)
                continue
            wrapped = self.wrap(orig, span)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapped)
                        patches.append((mod, key, orig))

        def restore():
            for obj, key, orig in reversed(patches):
                setattr(obj, key, orig)

        return restore

    def arrays(self) -> dict:
        return {
            "names": np.array(self.names),
            # copies, so the arrays stay appendable
            "name": np.frombuffer(self.name, dtype=np.int64).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "op": np.frombuffer(self.op, dtype=np.int64).copy(),
        }

    def aggregate(self, op_factor: dict) -> dict:
        """Per span name: calls and self seconds; plus raw root coverage.

        A span's self time is its duration minus the durations of its
        direct children, which cover disjoint parts of it.  Self times are
        scaled by ``op_factor`` of the operation they belong to.
        """
        a = self.arrays()
        dur = a["end"] - a["start"]
        child = np.zeros_like(dur)
        nested = a["parent"] >= 0
        np.add.at(child, a["parent"][nested], dur[nested])
        factor = np.ones(int(a["op"].max(initial=0)) + 1)
        for op, f in op_factor.items():
            if op < factor.size:
                factor[op] = f
        selft = (dur - child) * factor[a["op"]]
        k = len(self.names)
        calls = np.bincount(a["name"], minlength=k)
        selfs = np.bincount(a["name"], weights=selft, minlength=k)
        out = {}
        for i, span in enumerate(self.names):
            cur = out.setdefault(span, {"calls": 0, "self_s": 0.0})
            cur["calls"] += int(calls[i])
            cur["self_s"] += float(selfs[i])
        return {"spans": out, "root_s": float(dur[~nested].sum())}
