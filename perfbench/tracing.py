"""Per-layer spans recorded from outside the package.

The tracer replaces public functions of doptdesign with timing wrappers at
the place their callers look them up (a module global, or a class attribute
for methods), keeps a stack of open spans, and accumulates per span name the
call count, inclusive time and self time (inclusive time minus the time of
spans opened inside it).  Every patch is undone on ``uninstall``.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

_clock = time.perf_counter


def _patch_points():
    """(owner, attribute, span name, result counter) for every traced call.

    The span name is ``<layer>.<function>``; the layer is the package module
    that defines the function.  ``enumerate_space`` and the ``psd_linalg``
    helpers are imported by name into their callers' modules, so they are
    patched there.  ``result counter`` names a counter that accumulates the
    ``nodes`` field of the returned PricingResult.
    """
    from doptdesign import bench, local_search, model, pricing, psd_linalg, relaxation

    return [
        (model.ExperimentSpace, "contains", "model.contains", None),
        (model, "enumerate_space", "model.enumerate_space", None),
        (pricing, "enumerate_space", "model.enumerate_space", None),
        (bench, "enumerate_space", "model.enumerate_space", None),
        (model, "eval_design_point", "model.eval_design_point", None),
        (model.MonomialModel, "evaluate_many", "model.evaluate_many", None),
        (psd_linalg.InfoMatrix, "from_matrix", "psd_linalg.InfoMatrix.from_matrix", None),
        (local_search, "pricing_matrix", "psd_linalg.pricing_matrix", None),
        (local_search, "rank_one_downdate", "psd_linalg.rank_one_downdate", None),
        (pricing, "heuristic_search", "pricing.heuristic_search", "evals"),
        (pricing, "solve_enum", "pricing.solve_enum", "points"),
        (pricing, "solve_bb", "pricing.solve_bb", "nodes"),
        (pricing, "linprog", "pricing.linprog", None),
        (pricing, "build_linearization", "pricing.build_linearization", None),
        (pricing.Pricer, "exact", "pricing.Pricer.exact", None),
        (local_search, "run", "local_search.run", None),
        (local_search, "initial_design", "local_search.initial_design", None),
        (local_search, "exchange_step", "local_search.exchange_step", None),
        (relaxation, "column_generation", "relaxation.column_generation", None),
        (relaxation, "solve_restricted_master", "relaxation.solve_restricted_master", None),
        (relaxation, "sparsify", "relaxation.sparsify", None),
        (bench, "brute_force_dopt", "bench.brute_force_dopt", None),
    ]


class Tracer:
    """Span statistics keyed by span name."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self._stack = []  # time covered by children of each open span
        self._saved = []

    def _wrap(self, fn, name, counter):
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = _clock() - t0
                children = stack.pop()
                if stack:
                    stack[-1] += elapsed
                self.calls[name] += 1
                self.total_s[name] += elapsed
                self.self_s[name] += elapsed - children
            if counter is not None:
                self.counts[f"{name}.{counter}"] += result.nodes
            return result

        return traced

    def install(self):
        for owner, attr, name, counter in _patch_points():
            raw = owner.__dict__[attr]
            self._saved.append((owner, attr, raw))
            if isinstance(raw, classmethod):
                setattr(owner, attr, classmethod(self._wrap(raw.__func__, name, counter)))
            else:
                setattr(owner, attr, self._wrap(raw, name, counter))

    def uninstall(self):
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    def stats(self) -> dict:
        return {"calls": self.calls, "total_s": self.total_s, "self_s": self.self_s,
                "counts": self.counts}

    def merge(self, stats: dict):
        """Add the statistics another process reported with ``stats``."""
        for field, values in stats.items():
            mine = getattr(self, field)
            for name, value in values.items():
                mine[name] += value

    def snapshot(self) -> dict:
        """Call counts and result counters, for per-operation deltas."""
        snap = {f"{name}.calls": n for name, n in self.calls.items()}
        snap.update(self.counts)
        return snap
