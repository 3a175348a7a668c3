"""Shared machinery for the symbolic solvers: per-bag shifted-density
construction from the repeated-integral formula, and the subtree merge that
contracts glue variables and freezes variables leaving scope.

Zero-length edges contribute pure step factors whose differentiated point
masses are carried as pending substitution pairs (a, b), meaning a delta
factor delta(z_a - z_b).  Such pairs are consumed either when the tail
variable is integrated inside its own bag or at that bag's merge; they never
survive past it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from .decomposition import DecompositionContext
from .errors import Budget, InvariantViolation
from .graph import DistKind
from .symbolic import (
    SymbolicSum,
    ZERO_ATOM,
    const_atom,
    cumulate,
    differentiate,
    integrate_out,
    multiply,
    substitute,
    truncate_total_degree,
    var_atom,
)

Pending = tuple[int, int]
FactorFn = Callable[[int, int], SymbolicSum]  # (tail, head) -> CDF factor


@dataclass(frozen=True)
class BagDensity:
    """Shifted density of one bag-subgraph: a sum per surviving set of
    pending point-mass pairs.  Free variables are the bag's sources and
    terminals."""

    parts: tuple[tuple[frozenset[Pending], SymbolicSum], ...]


def exp_edge_factor(u: int, v: int) -> SymbolicSum:
    """H(z_u - z_v) (1 - e^{-(z_u - z_v)}): standard exponential CDF of the
    difference."""
    guard = SymbolicSum.guard(var_atom(v), var_atom(u))
    payload = SymbolicSum.const(1) - SymbolicSum.term(1, exps={u: -1, v: 1})
    return multiply(guard, payload)


def poly_edge_factor(u: int, v: int, coeffs: Sequence[Fraction]) -> SymbolicSum:
    """H(z_u - z_v) * P(z_u - z_v) with P given by coefficients of t^j,
    expanded binomially into the two variables."""
    terms: dict = {}
    for j, c in enumerate(coeffs):
        if c == 0:
            continue
        binom = 1
        for i in range(j + 1):
            coeff = c * binom * ((-1) ** (j - i))
            powers = {}
            if i:
                powers[u] = i
            if j - i:
                powers[v] = j - i
            k = (tuple(sorted(powers.items())), (), 0)
            old = terms.get(k)
            terms[k] = coeff if old is None else old + coeff
            binom = binom * (j - i) // (i + 1)
    payload = SymbolicSum({(): terms})
    return multiply(SymbolicSum.guard(var_atom(v), var_atom(u)), payload)


def build_bag_density(
    ctx: DecompositionContext, i: int, factor: FactorFn, budget: Budget
) -> BagDensity:
    """Instantiate the repeated-integral formula on bag i: differentiate each
    tail's successor-factor group, multiply the groups, and integrate out the
    bag's internal variables."""
    g = ctx.dag
    edges = sorted(ctx.bag_edges[i])
    out_of: dict[int, list[tuple[int, DistKind]]] = {}
    for u, v in edges:
        out_of.setdefault(u, []).append((v, g.dist_of[(u, v)].kind))

    branches: dict[frozenset[Pending], SymbolicSum] = {frozenset(): SymbolicSum.one()}
    for u in sorted(ctx.S[i] | ctx.I[i]):
        succ = out_of.get(u, [])
        if not succ:
            raise InvariantViolation(f"bag {i}: vertex {u} classified active without out-edges")
        zero_targets = [v for v, kind in succ if kind is DistKind.ZERO]
        if len(zero_targets) > 1:
            raise InvariantViolation(f"bag {i}: vertex {u} has several zero out-edges")
        real = [v for v, kind in succ if kind is not DistKind.ZERO]

        group = SymbolicSum.one()
        for v in real:
            group = multiply(group, factor(u, v), budget=budget)
        full = group
        for v in zero_targets:
            full = multiply(full, SymbolicSum.guard(var_atom(v), var_atom(u)), budget=budget)
        ordinary = differentiate(full, u)

        new: dict[frozenset[Pending], SymbolicSum] = {}

        def put(pend: frozenset[Pending], s: SymbolicSum) -> None:
            if s.is_zero():
                return
            new[pend] = (new[pend] + s) if pend in new else s

        for pend, ssum in branches.items():
            if not ordinary.is_zero():
                put(pend, multiply(ssum, ordinary, budget=budget))
            if zero_targets:
                pair = (u, zero_targets[0])
                put(pend | {pair}, multiply(ssum, group, budget=budget))
        branches = new

    # integrate the bag's internal variables, consuming point masses on the way
    for u in sorted(ctx.I[i], reverse=True):
        new = {}
        for pend, ssum in branches.items():
            mine = sorted(p for p in pend if u in p)
            if mine:
                a, b = mine[0]
                other = b if u == a else a
                ssum = substitute(ssum, u, var_atom(other), budget=budget)
                remapped = set()
                for p in pend:
                    if p == (a, b):
                        continue
                    x, y = p
                    x = other if x == u else x
                    y = other if y == u else y
                    if x == y:
                        raise InvariantViolation("degenerate point-mass pair")
                    remapped.add((x, y))
                pend = frozenset(remapped)
            else:
                ssum = integrate_out(ssum, u, budget=budget)
            if ssum.is_zero():
                continue
            new[pend] = (new[pend] + ssum) if pend in new else ssum
        branches = new

    active = ctx.S[i] | ctx.T[i]
    for pend, ssum in branches.items():
        loose = (ssum.free_vars() | {v for p in pend for v in p}) - active
        if loose:
            raise InvariantViolation(f"bag {i}: variables {sorted(loose)} escaped classification")
        for a, _ in pend:
            if a not in ctx.S[i]:
                raise InvariantViolation(f"bag {i}: pending pair tail {a} is not a bag source")
    return BagDensity(tuple(sorted(branches.items(), key=lambda kv: sorted(kv[0]))))


def describe_sum(i: int, s: SymbolicSum) -> dict:
    """Per-bag record of a merged subtree density: its guard regions and
    terms."""
    return {"regions": len(s.regions), "terms": s.term_count()}


def merge_bag(
    ctx: DecompositionContext,
    i: int,
    bag_density: BagDensity,
    child_sums: Sequence[SymbolicSum],
    x: Fraction,
    budget: Budget,
    taylor_tau: int | None = None,
    order_rng: random.Random | None = None,
) -> SymbolicSum:
    """Combine a bag density with its child subtree densities.

    The glue variables are integrated over the full line (or over [0, x] with
    truncation to ``taylor_tau`` after each one, in Taylor mode); terminals
    leaving scope are set to 0 and sources leaving scope are cumulatively
    integrated up to x.  A terminal leaving scope has no role below the bag,
    so it is set to 0 on the bag factor before the product with the
    subtrees, unless a pending pair brings it in.

    Every ``cumulate`` integrates its dummy out before it returns, so all of
    them share the id ``ctx.dag.n + 1``, which sorts after every real one.
    """
    taylor = taylor_tau is not None
    kept, frozen_src, frozen_term = ctx.kept[i], ctx.frozen_S[i], ctx.frozen_T[i]
    J = ctx.J[i]
    x_atom = const_atom(x)
    lower = ZERO_ATOM if taylor else None
    dummy = ctx.dag.n + 1

    phi_u = _phi_union(ctx, i, child_sums, taylor, budget)

    # sources shared between the bag and the uncapped subtree: both operands
    # are densities in them, so switch to distribution functions first and
    # differentiate the product once at the end; the context verifier keeps
    # them in the parent bag, so they are all kept
    shared = sorted(ctx.S[i] & ctx.S_U[i])
    if shared and phi_u is not None:
        for s in shared:
            if s in phi_u.free_vars():
                phi_u = cumulate(phi_u, s, dummy, lower=lower, budget=budget)

    def maybe_shuffled(vals: list[int]) -> list[int]:
        if order_rng is not None:
            order_rng.shuffle(vals)
        return vals

    result = SymbolicSum.zero()
    for pend, gsum in bag_density.parts:
        for s in shared:
            if s in gsum.free_vars():
                gsum = cumulate(gsum, s, dummy, lower=lower, budget=budget)
        # eliminate each frozen terminal on the one factor that holds it; one
        # a pending pair brings in waits for the pair
        paired = {v for pair in pend for v in pair}
        for t in maybe_shuffled(sorted((frozen_term & gsum.free_vars()) - paired)):
            gsum = substitute(gsum, t, Fraction(0), budget=budget)
        cur = multiply(gsum, phi_u, budget=budget) if phi_u is not None else gsum
        consumed: set[int] = set()
        for a, b in sorted(pend):
            cur = substitute(cur, a, var_atom(b), budget=budget)
            if a in J:
                consumed.add(a)
            elif a in frozen_src:
                # point mass integrated cumulatively up to the horizon
                cur = multiply(cur, SymbolicSum.guard(var_atom(b), x_atom), budget=budget)
                if taylor:
                    cur = multiply(cur, SymbolicSum.guard(ZERO_ATOM, var_atom(b)), budget=budget)
                consumed.add(a)
            else:
                raise InvariantViolation(f"bag {i}: point-mass tail {a} has no role at the merge")
        for t in maybe_shuffled(sorted(frozen_term & cur.free_vars())):
            cur = substitute(cur, t, Fraction(0), budget=budget)
        for v in maybe_shuffled(sorted(J - consumed)):
            if taylor:
                cur = multiply(cur, SymbolicSum.guard(ZERO_ATOM, var_atom(v)), budget=budget)
                cur = multiply(cur, SymbolicSum.guard(var_atom(v), x_atom), budget=budget)
            cur = integrate_out(cur, v, budget=budget)
            if taylor:
                cur = truncate_total_degree(cur, taylor_tau)
        for s in maybe_shuffled(sorted((frozen_src - consumed) & cur.free_vars())):
            if taylor:
                cur = multiply(cur, SymbolicSum.guard(ZERO_ATOM, var_atom(s)), budget=budget)
            cur = integrate_out(cur, s, upper=x_atom, budget=budget)
            if taylor:
                cur = truncate_total_degree(cur, taylor_tau)
        result = result + cur

    for s in shared:
        result = differentiate(result, s)
    stray = result.free_vars() - kept
    if stray:
        raise InvariantViolation(f"bag {i}: variables {sorted(stray)} survived the merge")
    return result


def _phi_union(
    ctx: DecompositionContext,
    i: int,
    child_sums: Sequence[SymbolicSum],
    taylor: bool,
    budget: Budget,
) -> SymbolicSum | None:
    """Density of the uncapped subtree: product of child distribution
    functions, differentiated along its sources.

    Children with disjoint variables multiply directly; otherwise each child
    density is cumulated to its distribution function first.
    """
    kids = ctx.children[i]
    if not kids:
        return None
    if len(kids) == 1:
        return child_sums[0]
    free = [s.free_vars() for s in child_sums]
    if not (free[0] & free[1]):
        return multiply(child_sums[0], child_sums[1], budget=budget)
    lower = ZERO_ATOM if taylor else None
    dummy = ctx.dag.n + 1  # as in merge_bag
    cdfs = []
    for j, phi in zip(kids, child_sums):
        out = phi
        for s_var in sorted(phi.free_vars() & ctx.S_D[j]):
            out = cumulate(out, s_var, dummy, lower=lower, budget=budget)
        cdfs.append(out)
    prod = multiply(cdfs[0], cdfs[1], budget=budget)
    for s_var in sorted((free[0] | free[1]) & ctx.S_U[i]):
        prod = differentiate(prod, s_var)
    return prod
