"""Shared machinery for the symbolic solvers: per-bag shifted-density
construction from the repeated-integral formula, and the subtree merge that
contracts glue variables and freezes variables leaving scope.

Every edge factor comes from the solver's ``factor``, the step of a
zero-length edge included; its differentiated point masses are carried as
pending substitution pairs (a, b), meaning a delta factor delta(z_a - z_b).
Such pairs are consumed either when one of their
variables is eliminated inside its own bag or at that bag's merge; they never
survive past it.  A source shared by a bag and its subtree is cumulated on
the child density that names it, before the children's product.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Mapping, Sequence

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
    rename,
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

    def renamed(self, names: Mapping[int, int]) -> "BagDensity":
        """This density with each variable v, pending pairs included, named
        ``names[v]``; the map keeps vertex order, so parts keep their order."""
        return BagDensity(tuple((frozenset((names[a], names[b]) for a, b in pend),
                                 rename(s, names)) for pend, s in self.parts))


def exp_edge_factor(u: int, v: int) -> SymbolicSum:
    """H(z_u - z_v) (1 - e^{-(z_u - z_v)}): standard exponential CDF of the
    difference."""
    guard = SymbolicSum.guard(var_atom(v), var_atom(u))
    payload = SymbolicSum.const(1) - SymbolicSum.term(1, exps={u: -1, v: 1})
    return multiply(guard, payload)


def poly_edge_factor(u: int, v: int, coeffs: Sequence[Fraction], x: Fraction) -> SymbolicSum:
    """P(z_u - z_v) on the guard chain 0 < z_v < z_u < x, the only support
    where P, given by coefficients of t^j, stands for the distribution;
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
    support = SymbolicSum.term(1, chain=(ZERO_ATOM, var_atom(v), var_atom(u), const_atom(x)))
    return multiply(support, SymbolicSum({(): terms}))


def build_bag_density(
    ctx: DecompositionContext, i: int, factor: FactorFn, budget: Budget
) -> BagDensity:
    """Instantiate the repeated-integral formula on bag i in one pass over its
    tails, in increasing id: differentiate each tail's successor-factor group
    and multiply it onto every branch.  An internal tail u is eliminated on
    each new product at once: substituted along its first pending pair (the
    other pairs renamed), or else integrated out.

    This is bucket elimination and changes no function: ids are topological
    and an internal vertex has all its in-edges in the bag, so once u's own
    group is in, no later group, guard or pending pair names u."""
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
            full = multiply(full, factor(u, v), budget=budget)
        ordinary = differentiate(full, u)

        new: dict[frozenset[Pending], SymbolicSum] = {}
        internal = u in ctx.I[i]

        def put(pend: frozenset[Pending], s: SymbolicSum) -> None:
            mine = sorted(p for p in pend if u in p)
            if internal and mine:
                a, b = mine[0]
                other = b if u == a else a
                s = substitute(s, u, var_atom(other), budget=budget)
                remapped = set()
                for p in pend - {(a, b)}:
                    x, y = (other if w == u else w for w in p)
                    if x == y:
                        raise InvariantViolation("degenerate point-mass pair")
                    remapped.add((x, y))
                pend = frozenset(remapped)
            elif internal:
                s = integrate_out(s, u, budget=budget)
            if s.is_zero():
                return
            new[pend] = (new[pend] + s) if pend in new else s

        for pend, ssum in branches.items():
            if not ordinary.is_zero():
                put(pend, multiply(ssum, ordinary, budget=budget))
            if zero_targets:
                put(pend | {(u, zero_targets[0])}, multiply(ssum, group, budget=budget))
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

    Each part eliminates before the product, on each factor holding the
    variable: pending pairs a -> b in sorted order (a frozen source a adds
    the guard b < x), then frozen terminals at 0.  The product integrates
    out the glue, then the other frozen sources up to x, each integration
    truncated to total degree ``taylor_tau`` in Taylor mode; the Taylor edge
    factors carry their [0, x] support, so the merge adds no guard of its
    own.  No value moves: substitution distributes over a product, a guard
    commutes with it, and ``substitute`` breaks ties alike on both.  A
    shared source is cumulated on each operand that names it (the children
    in ``_phi_union``) and the sum differentiated in it once at the end.

    Every ``cumulate`` integrates its dummy out before it returns, so all of
    them share the id ``ctx.dag.n + 1``, which sorts after every real one.
    """
    kept, frozen_src, frozen_term = ctx.kept[i], ctx.frozen_S[i], ctx.frozen_T[i]
    J = ctx.J[i]
    x_atom = const_atom(x)
    dummy = ctx.dag.n + 1

    def truncated(s: SymbolicSum) -> SymbolicSum:
        return s if taylor_tau is None else truncate_total_degree(s, taylor_tau)

    # sources shared between the bag and the uncapped subtree: both operands
    # are densities in them, so switch to distribution functions first
    # (``_phi_union`` on the subtree side) and differentiate the product once
    # at the end; the context verifier keeps them in the parent bag, so they
    # are all kept
    phi_u = _phi_union(ctx, i, child_sums, budget)
    shared = sorted(ctx.S[i] & ctx.S_U[i])

    def maybe_shuffled(vals: list[int]) -> list[int]:
        if order_rng is not None:
            order_rng.shuffle(vals)
        return vals

    result = SymbolicSum.zero()
    for pend, gsum in bag_density.parts:
        for s in shared:
            if s in gsum.free_vars():
                gsum = cumulate(gsum, s, dummy, budget=budget)
        phi = phi_u
        consumed = {a for a, _ in pend}
        for a, b in sorted(pend):
            gsum = substitute(gsum, a, var_atom(b), budget=budget)
            if phi is not None and a in phi.free_vars():  # a is glue
                phi = substitute(phi, a, var_atom(b), budget=budget)
            if a in frozen_src:
                # point mass integrated cumulatively up to the horizon
                gsum = multiply(gsum, SymbolicSum.guard(var_atom(b), x_atom), budget=budget)
            elif a not in J:
                raise InvariantViolation(f"bag {i}: point-mass tail {a} has no role at the merge")
        for t in maybe_shuffled(sorted(frozen_term)):
            if t in gsum.free_vars():
                gsum = substitute(gsum, t, Fraction(0), budget=budget)
            if phi is not None and t in phi.free_vars():
                phi = substitute(phi, t, Fraction(0), budget=budget)
        cur = multiply(gsum, phi, budget=budget) if phi is not None else gsum
        for v in maybe_shuffled(sorted(J - consumed)):
            cur = truncated(integrate_out(cur, v, budget=budget))
        for s in maybe_shuffled(sorted((frozen_src - consumed) & cur.free_vars())):
            cur = truncated(integrate_out(cur, s, upper=x_atom, budget=budget))
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
    budget: Budget,
) -> SymbolicSum | None:
    """The uncapped subtree's factor in bag i's merge: the product of the
    child densities, cumulated in the sources shared with the bag
    (``ctx.S[i] & ctx.S_U[i]``), a density in its other sources.

    Each shared source is cumulated on the child density that names it,
    before the product: a factor that does not name the variable comes out
    of the integral.  Children with disjoint variables multiply directly;
    otherwise each child density is cumulated in all its sources first and
    the product is differentiated back in the unshared ones only.
    """
    kids = ctx.children[i]
    if not kids:
        return None
    shared = ctx.S[i] & ctx.S_U[i]
    free = [s.free_vars() for s in child_sums]
    overlap = len(kids) == 2 and bool(free[0] & free[1])
    dummy = ctx.dag.n + 1  # as in merge_bag
    cdfs = []
    for j, phi, names in zip(kids, child_sums, free):
        for s_var in sorted(names & (ctx.S_D[j] if overlap else shared)):
            phi = cumulate(phi, s_var, dummy, budget=budget)
        cdfs.append(phi)
    if len(cdfs) == 1:
        return cdfs[0]
    prod = multiply(cdfs[0], cdfs[1], budget=budget)
    if overlap:
        # the product of distribution functions is continuous in a shared
        # source and 0 at its -inf, so differentiating it there would only
        # be undone by the cumulate it stands for
        for s_var in sorted((free[0] | free[1]) & (ctx.S_U[i] - shared)):
            prod = differentiate(prod, s_var)
    return prod
