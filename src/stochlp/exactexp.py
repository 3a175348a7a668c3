"""Exact distribution of the longest path length for mutually independent
standard-exponential edge lengths, by symbolic integration over a separated
binarized tree decomposition."""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from fractions import Fraction

from .decomposition import (DecompositionContext, SolveReport, TreeDecomposition,
                            prepare_context, solve)
from .density import BagDensity, build_bag_density, describe_sum, exp_edge_factor, merge_bag
from .errors import Budget, InputError, InvariantViolation, finite_horizon
from .graph import Dag, DistKind
from .symbolic import SymbolicSum, evaluate


def bag_density_exp(ctx: DecompositionContext, i: int, budget: Budget | None = None) -> BagDensity:
    """Shifted density of bag i for exponential edges (zero edges from the
    separation contribute step factors)."""
    budget = budget or Budget.default()
    for u, v in ctx.bag_edges[i]:
        kind = ctx.dag.dist_of[(u, v)].kind
        if kind not in (DistKind.EXPONENTIAL, DistKind.ZERO):
            raise InputError(f"exact-exponential needs exp edges, bag {i} has {kind.value}")
    return build_bag_density(ctx, i, exp_edge_factor, budget)


def _check_exponent_bounds(ctx: DecompositionContext, i: int, s: SymbolicSum) -> None:
    """Degree bounds of the poly-exp terms of a subtree density: polynomial
    degree per variable at most |V(D_i)|, exponential degree at most |E(D_i)|
    in absolute value."""
    n_d = ctx.subtree_vertices[i]
    m_d = ctx.subtree_edges[i]
    for terms in s.regions.values():
        for powers, exps, _ in terms:
            for v, a in powers:
                if a > n_d:
                    raise InvariantViolation(f"bag {i}: degree {a} of z{v} exceeds |V(D_i)|={n_d}")
            for v, b in exps:
                if abs(b) > m_d:
                    raise InvariantViolation(f"bag {i}: exp degree {b} of z{v} exceeds |E(D_i)|={m_d}")


@dataclass(kw_only=True)
class ExactExpReport(SolveReport):
    error_radius: float
    symbolic: str

    @property
    def guarantee(self) -> dict:
        return {"kind": "exact", "evaluation_radius": self.error_radius}


def exact_exp(
    g: Dag,
    td: TreeDecomposition | None,
    x,
    budget: Budget | None = None,
    emit_symbolic: bool = False,
    _shuffle_seed: int | None = None,
) -> tuple[float, ExactExpReport]:
    """Exact Pr[longest path length <= x] for standard-exponential edges.

    Returns the evaluated probability and a report carrying the exact
    symbolic expression (rationals and powers of e) when requested.
    """
    g.require_homogeneous(DistKind.EXPONENTIAL)
    xq = Fraction(finite_horizon(x))
    t0 = time.perf_counter()
    budget = budget or Budget.default()
    ctx = prepare_context(g, td)
    rng = random.Random(_shuffle_seed) if _shuffle_seed is not None else None

    def solve_bag(i: int, kids: list[SymbolicSum]) -> SymbolicSum:
        out = merge_bag(ctx, i, bag_density_exp(ctx, i, budget), kids, xq, budget, order_rng=rng)
        _check_exponent_bounds(ctx, i, out)
        return out

    def finish(final: SymbolicSum) -> dict:
        if final.free_vars():
            raise InvariantViolation("root density still has free variables")
        value, radius = evaluate(final)
        return {"value": min(max(value, 0.0), 1.0), "error_radius": radius,
                "symbolic": final.canonical_text() if emit_symbolic else ""}

    return solve(ExactExpReport, ctx, t0, budget, xq, solve_bag, describe_sum, finish,
                 error_radius=0.0, symbolic="0" if emit_symbolic else "")
