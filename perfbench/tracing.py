"""Outside-in tracing of stochlp's layers.

The benchmark rebinds the module attributes the solvers call through (and the
two conversion methods of ``StaircaseTable``) to timing wrappers, for the
length of a ``traced`` block, and restores the originals afterwards. No
program source changes. A span's self time is its duration minus the
durations of the spans it encloses.
"""

from __future__ import annotations

import functools
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter

from stochlp import decomposition, density, exactexp, graph, staircase, symbolic, taylor

LAYERS = ("graph", "decomposition", "staircase", "exactexp", "taylor", "symbolic")


@dataclass
class Span:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


class Tracer:
    """Span statistics and counters, collected per query."""

    def __init__(self):
        self.spans: dict[str, Span] = {}
        self.counts: dict[str, float] = {}
        self._open: list[list[float]] = []  # child time of each open span

    def take(self) -> tuple[dict[str, Span], dict[str, float]]:
        """Return what was collected since the last call, and start afresh."""
        out = (self.spans, self.counts)
        self.spans, self.counts = {}, {}
        return out

    def add(self, name: str, amount: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def peak(self, name: str, amount: float) -> None:
        self.counts[name] = max(self.counts.get(name, 0), amount)

    def wrap(self, name: str, fn, hook=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            child = [0.0]
            self._open.append(child)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - t0
                self._open.pop()
                span = self.spans.setdefault(name, Span())
                span.calls += 1
                span.total_s += elapsed
                span.self_s += elapsed - child[0]
                if self._open:
                    self._open[-1][0] += elapsed
            if hook is not None:
                hook(self, args, result)
            return result

        return traced


def _table_bytes(tracer: Tracer, args, table) -> None:
    tracer.peak("staircase.table_bytes.peak", table.values.nbytes)


def _truncation(tracer: Tracer, args, result) -> None:
    tracer.add("symbolic.truncate.terms_in", args[0].term_count())
    tracer.add("symbolic.truncate.terms_out", result.term_count())


_SYMBOLIC = ("multiply", "integrate_out", "substitute", "cumulate", "differentiate",
             "truncate_total_degree")

# (owner, attribute, span name, hook): every place a solver looks a layer up
PATCH_POINTS = (
    (graph, "parse_graph", "graph.parse_graph", None),
    (decomposition, "parse_td", "decomposition.parse_td", None),
    *((solver, "prepare_context", "decomposition.prepare_context", None)
      for solver in (staircase, exactexp, taylor)),
    *((decomposition, name, f"decomposition.{name}", None)
      for name in ("heuristic_td", "validate_td", "binarize_td", "separate", "build_context")),
    (staircase, "approx_dag", "staircase.approx_dag", None),
    (staircase, "bag_staircase", "staircase.bag_staircase", _table_bytes),
    (staircase, "merge_subtree", "staircase.merge_subtree", _table_bytes),
    (staircase, "finite_difference", "staircase.convert", _table_bytes),
    (staircase.StaircaseTable, "to_cumulative", "staircase.convert", _table_bytes),
    (staircase.StaircaseTable, "to_difference", "staircase.convert", _table_bytes),
    (exactexp, "exact_exp", "exactexp.exact_exp", None),
    (exactexp, "bag_density_exp", "exactexp.bag_density_exp", None),
    (exactexp, "merge_bag", "exactexp.merge_bag", None),
    (exactexp, "evaluate", "symbolic.evaluate", None),
    (taylor, "approx_taylor", "taylor.approx_taylor", None),
    (taylor, "bag_taylor", "taylor.bag_taylor", None),
    (taylor, "merge_bag", "taylor.merge_bag", None),
    (taylor, "evaluate", "symbolic.evaluate", None),
    *((owner, name, f"symbolic.{name}",
       _truncation if name == "truncate_total_degree" else None)
      for owner in (density, symbolic) for name in _SYMBOLIC),
)


@contextmanager
def traced(tracer: Tracer):
    """Rebind every patch point to a wrapper reporting to ``tracer``."""
    saved = []
    try:
        for owner, attr, name, hook in PATCH_POINTS:
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, original, hook))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
