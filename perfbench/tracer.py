"""Span tracer that times calls into gapcert's public functions from outside.

Tracing rebinds names: every module namespace of the gapcert package that
holds a traced function (the defining module, the package root, and every
module that imported it with ``from .x import f``) gets a wrapper that
records a span.  The three LAPACK drivers behind the matrix oracle are
reached through the ``np`` reference that ``gapcert.matrix_lab`` holds.
Nothing is rebound unless ``install`` is called, so untraced runs execute
the library unmodified.

Spans (name, start, end, parent) live in flat arrays until the run ends;
a layer's self time is its span's duration minus its direct children's.
"""

from __future__ import annotations

import functools
import math
import sys
import time
from array import array

# layer -> public functions whose calls become spans
LAYER_FUNCTIONS = {
    "matrix_lab": ("run_suite", "gen_instance", "verify_instance"),
    "enclosures": (
        "perturbed_strip",
        "gap_condition",
        "hyperbola_excluded",
        "resolvent_bound_offreal",
        "resolvent_bound_strip",
        "resolvent_bound_strip_refined",
        "symmetric_gap_strip",
        "lower_semicont_balls",
        "isolated_eigenvalue_strip",
    ),
    "blocks": ("offdiag_gap", "even_lowerbound", "odd_symmetric_gap", "almost_gap_eig_bound"),
    "gap_sequences": ("ratio_criterion", "per_gap_criterion", "kappa_s", "necessary_growth_check"),
    "applications": ("dirac2d_constants", "envelope_im_at_re", "dirac3d_coulomb"),
}
ORACLE_FUNCTIONS = ("svd", "eigvals", "eigvalsh")


class MissingTraceTarget(RuntimeError):
    """A name the tracer must wrap no longer exists in the library."""


class Tracer:
    """In-memory span recorder; one instance per traced phase."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        # oracle name -> [matrices, sum of n**3]
        self.matrix_work: dict[str, list[int]] = {}
        self._restore: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, count_matrices: bool = False):
        nid = self._name_id(name)
        span_name, span_parent = self.span_name, self.span_parent
        start, end, stack = self.start, self.end, self._stack
        clock = time.perf_counter
        work = self.matrix_work.setdefault(name, [0, 0]) if count_matrices else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if work is not None:
                shape = getattr(args[0], "shape", ())
                if len(shape) >= 2:
                    batch = math.prod(shape[:-2])
                    work[0] += batch
                    work[1] += batch * shape[-1] ** 3
            idx = len(start)
            span_name.append(nid)
            span_parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return traced

    def _rebind(self, namespace, attr: str, wrapper) -> None:
        self._restore.append((namespace, attr, getattr(namespace, attr)))
        setattr(namespace, attr, wrapper)

    def install(self) -> None:
        """Rebind every traced name; raise MissingTraceTarget if one is gone."""
        import gapcert.matrix_lab as matrix_lab

        modules = {
            name: mod
            for name, mod in sys.modules.items()
            if mod is not None and (name == "gapcert" or name.startswith("gapcert."))
        }
        for layer, functions in LAYER_FUNCTIONS.items():
            home = modules.get(f"gapcert.{layer}")
            if home is None:
                raise MissingTraceTarget(f"module gapcert.{layer} is not loaded")
            for fname in functions:
                target = getattr(home, fname, None)
                if not callable(target):
                    raise MissingTraceTarget(f"gapcert.{layer}.{fname} is missing")
                wrapper = self.wrap(f"{layer}.{fname}", target)
                for mod in modules.values():
                    for attr, value in list(vars(mod).items()):
                        if value is target:
                            self._rebind(mod, attr, wrapper)
        linalg = getattr(getattr(matrix_lab, "np", None), "linalg", None)
        if linalg is None:
            raise MissingTraceTarget("gapcert.matrix_lab.np.linalg is missing")
        for fname in ORACLE_FUNCTIONS:
            target = getattr(linalg, fname, None)
            if not callable(target):
                raise MissingTraceTarget(f"gapcert.matrix_lab.np.linalg.{fname} is missing")
            wrapper = self.wrap(f"matrix_lab.{fname}", target, count_matrices=fname != "eigvalsh")
            self._rebind(linalg, fname, wrapper)

    def uninstall(self) -> None:
        while self._restore:
            namespace, attr, original = self._restore.pop()
            setattr(namespace, attr, original)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, busy_s (sum of durations) and self_s."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.span_parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out = {name: {"calls": 0, "busy_s": 0.0, "self_s": 0.0} for name in self.names}
        for i in range(n):
            dur = self.end[i] - self.start[i]
            row = out[self.names[self.span_name[i]]]
            row["calls"] += 1
            row["busy_s"] += dur
            row["self_s"] += dur - child[i]
        for name, (matrices, work) in self.matrix_work.items():
            out[name]["matrices"] = matrices
            out[name]["work_n3"] = work
        return out
