"""Span tracing around the public module attributes each layer calls through.

The wrappers live here, in the benchmark, not in the program: installing
replaces ``volswap.<module>.<attr>`` with a recording wrapper and removing
puts the original object back.  Each call records one span (name, start,
end, parent) in flat arrays kept in memory until the run writes them out.
An attribute missing from its module is reported as absent, not as an
error, so the trace survives refactors that rename a layer.
"""

from __future__ import annotations

import importlib
import math
from array import array
from time import perf_counter

#: (module, attribute) pairs wrapped in a traced run.  ``quad`` and
#: ``solve_banded`` are the names as bound inside ``pde_engine``.
TRACE_POINTS = (
    ("series_pricer", "kappa_series"),
    ("series_pricer", "coeff_b"),
    ("specfun", "gamma_half_integer"),
    ("specfun", "kummer_1f1"),
    ("pde_engine", "solve_psi"),
    ("pde_engine", "solve_banded"),
    ("pde_engine", "kappa_from_solution"),
    ("pde_engine", "quad"),
    ("mc_engine", "kappa_mc"),
    ("mc_engine", "path_normals"),
)


def _array_bytes(obj) -> int:
    """Bytes held by the numpy arrays among ``obj``'s attributes."""
    return sum(getattr(v, "nbytes", 0) for v in vars(obj).values()
               if hasattr(v, "dtype"))


class Tracer:
    """In-memory span recorder with a parent stack (single thread)."""

    def __init__(self):
        self.names = []                 # span-name table
        self._ids = {}
        self.name_id = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack = []
        self.integrand_evals = 0
        self.psi_bytes_max = 0
        self.absent = []
        self._installed = []

    def _span_wrapper(self, name: str, fn):
        nid = self._ids.setdefault(name, len(self._ids))
        if nid == len(self.names):
            self.names.append(name)
        stack, start, end = self._stack, self.start, self.end
        name_id, parent = self.name_id, self.parent

        def traced(*args, **kwargs):
            span = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            start.append(perf_counter())
            end.append(math.nan)
            stack.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                end[span] = perf_counter()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def _wrap(self, module: str, attr: str, fn):
        name = f"{module}.{attr}"
        if (module, attr) == ("pde_engine", "quad"):
            def counting_quad(func, *args, **kwargs):
                def counted(x, *extra):
                    self.integrand_evals += 1
                    return func(x, *extra)
                return fn(counted, *args, **kwargs)
            return self._span_wrapper(name, counting_quad)
        if (module, attr) == ("pde_engine", "solve_psi"):
            def measured_solve(*args, **kwargs):
                solution = fn(*args, **kwargs)
                self.psi_bytes_max = max(self.psi_bytes_max,
                                         _array_bytes(solution))
                return solution
            return self._span_wrapper(name, measured_solve)
        return self._span_wrapper(name, fn)

    def install(self) -> "Tracer":
        """Wrap every trace point present in ``volswap``."""
        for module, attr in TRACE_POINTS:
            mod = importlib.import_module(f"volswap.{module}")
            original = getattr(mod, attr, None)
            if original is None:
                self.absent.append(f"{module}.{attr}")
                continue
            setattr(mod, attr, self._wrap(module, attr, original))
            self._installed.append((mod, attr, original))
        return self

    def remove(self) -> None:
        """Put every wrapped attribute back, last wrapped first."""
        while self._installed:
            mod, attr, original = self._installed.pop()
            setattr(mod, attr, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.remove()

    def summary(self) -> dict:
        """Per span name: calls, inclusive time_s and self_s."""
        n = len(self.start)
        child_time = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child_time[p] += self.end[i] - self.start[i]
        out = {name: {"calls": 0, "time_s": 0.0, "self_s": 0.0}
               for name in self.names}
        for i in range(n):
            rec = out[self.names[self.name_id[i]]]
            duration = self.end[i] - self.start[i]
            rec["calls"] += 1
            rec["time_s"] += duration
            rec["self_s"] += duration - child_time[i]
        return out

    def save(self, path: str) -> None:
        """Write the spans as compressed numpy arrays."""
        import numpy as np
        np.savez_compressed(path, names=np.array(self.names),
                            name_id=np.frombuffer(self.name_id, dtype=np.int32),
                            parent=np.frombuffer(self.parent, dtype=np.int64),
                            start=np.frombuffer(self.start),
                            end=np.frombuffer(self.end))
