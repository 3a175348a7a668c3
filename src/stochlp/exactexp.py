"""Exact distribution of the longest path length for mutually independent
standard-exponential edge lengths, by symbolic integration over a separated
binarized tree decomposition."""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .decomposition import DecompositionContext, TreeDecomposition, prepare_context
from .density import BagDensity, build_bag_density, exp_edge_factor, merge_bag
from .errors import Budget, InputError, InvariantViolation
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


def merge_density(
    ctx: DecompositionContext,
    i: int,
    bag_den: BagDensity,
    child_sums: Sequence[SymbolicSum],
    x: Fraction,
    budget: Budget | None = None,
    fresh=None,
    kept_override: frozenset[int] | None = None,
    order_rng: random.Random | None = None,
) -> SymbolicSum:
    budget = budget or Budget.default()
    if fresh is None:
        counter = [ctx.dag.n]

        def fresh() -> int:
            counter[0] += 1
            return counter[0]

    return merge_bag(
        ctx, i, bag_den, child_sums, x, budget, fresh,
        kept_override=kept_override, order_rng=order_rng,
    )


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


@dataclass
class ExactExpReport:
    value: float
    error_radius: float
    symbolic: str
    separated_width: int
    separated_n: int
    bag_count: int
    regions_peak: int
    terms_peak: int
    elapsed_ms: float = 0.0
    per_bag: list[dict] = field(default_factory=list)


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
    xq = Fraction(x)
    t0 = time.perf_counter()
    budget = budget or Budget.default()
    if xq < 0:
        return 0.0, ExactExpReport(0.0, 0.0, "0", 0, 0, 0, 0, 0)
    ctx, _, _ = prepare_context(g, td)
    counter = [ctx.dag.n]

    def fresh() -> int:
        counter[0] += 1
        return counter[0]

    rng = random.Random(_shuffle_seed) if _shuffle_seed is not None else None
    sums: dict[int, SymbolicSum] = {}
    per_bag: list[dict] = []
    root = ctx.td.root
    for i in ctx.post_order:
        b0 = time.perf_counter()
        den = bag_density_exp(ctx, i, budget)
        kids = [sums.pop(c) for c in ctx.children[i]]
        out = merge_bag(ctx, i, den, kids, xq, budget, fresh, order_rng=rng)
        _check_exponent_bounds(ctx, i, out)
        sums[i] = out
        per_bag.append({
            "bag": i,
            "regions": len(out.regions),
            "terms": out.term_count(),
            "elapsed_ms": (time.perf_counter() - b0) * 1000.0,
        })
    final = sums[root]
    if final.free_vars():
        raise InvariantViolation("root density still has free variables")
    value, radius = evaluate(final)
    value = min(max(value, 0.0), 1.0)
    report = ExactExpReport(
        value=value,
        error_radius=radius,
        symbolic=final.canonical_text() if emit_symbolic else "",
        separated_width=ctx.td.width,
        separated_n=ctx.dag.n,
        bag_count=ctx.b,
        regions_peak=budget.regions_peak,
        terms_peak=budget.terms_peak,
        elapsed_ms=(time.perf_counter() - t0) * 1000.0,
        per_bag=per_bag,
    )
    return value, report
