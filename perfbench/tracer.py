"""Outside-in layer tracing: wrap public fiberalloc functions, record spans.

Each listed function is replaced at every module attribute that holds it (for
example ``crossing_parameters`` is bound in fibers, potential, allocator, cli
and the package), so calls through any import path are seen.  A span records
its function, start, end, parent span and whether an exception escaped.  Spans
stay in memory until the run ends; self time is a span's duration minus the
time its child spans cover.
"""
from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np

#: layer (the defining module of fiberalloc) -> traced public functions
LAYERS = {
    "model": ("load_model", "build_model"),
    "fibers": ("crossing_parameters", "fiber_point"),
    "strata": ("classify_orthant",),
    "potential": ("potential_along_fiber", "potential", "potential_slope",
                  "section_intersection"),
    "allocator": ("extremal_inverse", "extremal_inverse_batch",
                  "section_inverse", "lift_trajectory"),
    "cli": ("build_parser", "cmd_lift", "cmd_foliation", "cmd_invert"),
}
#: the span the runner opens around each ``cli.main`` call (one per request)
ROOT = "cli.main"
NAMES = [f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns]


class Tracer:
    def __init__(self):
        self.names = NAMES + [ROOT]
        self.fid = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.raised = array("b")
        self._stack = [-1]
        self._patched = []
        self.missing = []

    def wrap(self, name: str, fn):
        fid, stack, clock = self.names.index(name), self._stack, time.perf_counter
        fids, parents, starts, ends, raised = (
            self.fid, self.parent, self.start, self.end, self.raised)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(fids)
            fids.append(fid)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            raised.append(0)
            stack.append(sid)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                raised[sid] = 1
                raise
            finally:
                ends[sid] = clock()
                starts[sid] = t0
                stack.pop()
        return traced

    def install(self) -> None:
        """Wrap every listed function at every fiberalloc binding of it."""
        modules = [m for name, m in list(sys.modules.items())
                   if name == "fiberalloc" or name.startswith("fiberalloc.")]
        self.missing = []
        for layer, fns in LAYERS.items():
            home = sys.modules.get(f"fiberalloc.{layer}")
            for fn in fns:
                orig = getattr(home, fn, None)
                if orig is None:
                    self.missing.append(f"{layer}.{fn}")
                    continue
                traced = self.wrap(f"{layer}.{fn}", orig)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            setattr(mod, attr, traced)
                            self._patched.append((mod, attr, orig))

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._patched):
            setattr(mod, attr, orig)
        self._patched = []

    def mark(self) -> int:
        return len(self.fid)

    def summarize(self, lo: int, hi: int) -> dict[str, tuple[int, float, int]]:
        """name -> (calls, self seconds, raised) over spans lo..hi-1."""
        # slices copy, so the arrays stay free to grow in later passes
        fid = np.frombuffer(self.fid[lo:hi], dtype=np.int32)
        parent = np.frombuffer(self.parent[lo:hi], dtype=np.int32) - lo
        dur = np.frombuffer(self.end[lo:hi]) - np.frombuffer(self.start[lo:hi])
        raised = np.frombuffer(self.raised[lo:hi], dtype=np.int8)
        inside = parent >= 0
        child = np.bincount(parent[inside], weights=dur[inside],
                            minlength=hi - lo)
        k = len(self.names)
        calls = np.bincount(fid, minlength=k)
        self_s = np.bincount(fid, weights=dur - child, minlength=k)
        n_raised = np.bincount(fid, weights=raised, minlength=k)
        return {name: (int(calls[i]), float(self_s[i]), int(n_raised[i]))
                for i, name in enumerate(self.names)}
