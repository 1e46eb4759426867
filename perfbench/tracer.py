"""Per-layer spans recorded from outside the program.

:class:`Tracer` wraps the public functions of the layer modules (``cli.main``
and everything in ``__all__`` of ``feasibility``, ``spectrum`` and
``solver``) and rebinds each wrapper wherever a loaded ``pdm_dirac`` module
holds the original under some name -- where it is defined and where another
module imported it by name (``pdm_dirac.cli.supremum_scan``,
``pdm_dirac.solver.effective_potential``).  Calls through a module's globals
therefore reach the wrapper.  ``params`` is not wrapped: its cost is counted
in the self time of its caller.

Spans are kept in memory as per-name totals: calls, inclusive time, and self
time (inclusive minus the time covered by direct child spans).
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

LAYERS = ("cli", "feasibility", "spectrum", "solver")


def _grid_nodes(report) -> dict:
    shape = getattr(report, "grid_shape", (0, 0))
    skipped = len(getattr(report, "skipped_eta_nodes", ()))
    return {
        "feasibility.grid_nodes": (shape[0] - skipped) * shape[1],
        "feasibility.refinement_evals": len(getattr(report, "refinement_trace", ())),
    }


# Work counts read off a layer function's return value.
_OBSERVERS = {
    "feasibility.supremum_scan": _grid_nodes,
    "solver.eigenvalues_below": lambda values: {"solver.slice_eigenvalues": len(values)},
    "solver.build_hamiltonian": lambda op: {"solver.grid_points": int(op.size)},
}


class Tracer:
    """Install with :meth:`install`, always undo with :meth:`uninstall`."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[float] = []     # child time accumulated per open span
        self._rebound: list[tuple] = []   # (module, attribute, original)
        self._restored: list[tuple] = []

    def reset(self) -> None:
        for table in (self.calls, self.total, self.self_time, self.counts):
            table.clear()

    def _wrap(self, name: str, fn):
        observe = _OBSERVERS.get(name)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                child = stack.pop()
                self.calls[name] += 1
                self.total[name] += elapsed
                self.self_time[name] += elapsed - child
                if stack:
                    stack[-1] += elapsed
            if observe is not None:
                for key, value in observe(result).items():
                    self.counts[key] += value
            return result

        return span

    def _targets(self):
        for layer in LAYERS:
            module = sys.modules[f"pdm_dirac.{layer}"]
            names = ("main",) if layer == "cli" else module.__all__
            for name in names:
                fn = getattr(module, name)
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    yield f"{layer}.{name}", fn

    def install(self) -> None:
        if self._rebound:
            raise RuntimeError("tracer already installed")
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == "pdm_dirac" or key.startswith("pdm_dirac."))]
        for name, fn in list(self._targets()):
            wrapper = self._wrap(name, fn)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        setattr(module, attr, wrapper)
                        self._rebound.append((module, attr, fn))

    def uninstall(self) -> None:
        while self._rebound:
            module, attr, original = self._rebound.pop()
            setattr(module, attr, original)
            self._restored.append((module, attr, original))

    def originals_restored(self) -> bool:
        """True when every attribute rebound so far holds its original again."""
        return not self._rebound and all(
            getattr(module, attr) is original for module, attr, original in self._restored
        )

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics for the spans recorded since the last reset."""
        def ms(name: str, table=None) -> float:
            return 1e3 * (table if table is not None else self.total).get(name, 0.0)

        scan_s = self.total.get("feasibility.supremum_scan", 0.0)
        nodes = self.counts.get("feasibility.grid_nodes", 0)
        slice_values = self.counts.get("solver.slice_eigenvalues", 0)
        sturm_calls = self.calls.get("solver.sturm_count", 0)
        out = {
            "cli.main.ms": ms("cli.main"),
            "cli.self.ms": ms("cli.main", self.self_time),
            "feasibility.supremum_scan.ms": ms("feasibility.supremum_scan"),
            "feasibility.grid_nodes": nodes,
            "feasibility.grid_nodes_per_s": nodes / scan_s if scan_s > 0.0 else 0.0,
            "feasibility.refinement_evals": self.counts.get("feasibility.refinement_evals", 0),
            "feasibility.evaluate_point.ms": ms("feasibility.evaluate_point"),
            "spectrum.classify_levels.ms": ms("spectrum.classify_levels"),
            "spectrum.effective_potential.ms": ms("spectrum.effective_potential"),
            "solver.bound_state_report.ms": ms("solver.bound_state_report"),
            "solver.build_hamiltonian.ms": ms("solver.build_hamiltonian"),
            "solver.eigenvalues_below.ms": ms("solver.eigenvalues_below"),
            "solver.eigenvalues_below.self.ms": ms("solver.eigenvalues_below", self.self_time),
            "solver.localization_metric.ms": ms("solver.localization_metric"),
            "solver.slice_eigenvalues": slice_values,
            "solver.sturm_calls_per_eigenvalue":
                sturm_calls / slice_values if slice_values else 0.0,
            "solver.grid_points": self.counts.get("solver.grid_points", 0),
        }
        for name in ("feasibility.f_factored", "feasibility.f_direct",
                     "spectrum.potential_sample", "solver.sturm_count", "solver.eigenvector"):
            out[f"{name}.calls"] = self.calls.get(name, 0)
            out[f"{name}.ms"] = ms(name)
        return out

    def work_counts(self) -> dict[str, int]:
        """The deterministic part: every call count and observed work count."""
        return {**{f"{k}.calls": v for k, v in self.calls.items()}, **self.counts}
