"""Test-only references: from-scratch rules and brute-force helpers that the
solvers, oracles and CLI never call.

``classify_subgraph_vertices`` is the role rule that
``stochlp.decomposition._roles`` restates from edge counts;
``enumerate_st_paths`` lists every source-terminal path of a small graph;
``random_series_parallel`` draws a small two-terminal series-parallel DAG;
``bag_cell_count`` counts one bag's cells at a single shift vector, snapped
onto the grid with ``snap``; ``approx_dag_unshared`` and
``exact_exp_unshared`` are the grid and exact-exponential sweeps that build
every bag's result anew, with no ``decomposition.by_shape``, and
``bag_shape`` restates the grid's key of ``decomposition._bag_shape``;
``fraction_add``, ``fraction_scale``, ``fraction_multiply``,
``fraction_substitute`` and ``fraction_integrate_out`` are the symbolic
operations with one reduced ``Fraction`` step per coefficient operation,
which the engine's reduce-once arithmetic must match term for term; they drop
their own zero ``Fraction``s, since ``SymbolicSum._own`` drops only zero
pairs; ``fraction_q`` is the ``Fraction`` recurrence whose reduced pairs
``integrate_out`` computes with one gcd each;
``unique_rows`` is ``np.unique(axis=0)``, the threshold-row grouping that
``staircase._unique_rows`` restates with one sort;
``merge_bag_product_first`` is the subtree merge that forms the product of
the bag factor and the subtree density before it substitutes the pending
point masses and frozen terminals, which ``density.merge_bag`` must match
bit for bit; it still adds the Taylor support guards 0 < b, 0 < v < x and
0 < s at the merge and floors its cumulative integrals at 0 with
``cumulate_floored``, the ``cumulate`` that took a floor, which
``density.merge_bag`` leaves to the support that each Taylor edge factor
carries, so equal bits show those guards redundant; its subtree density
comes from ``phi_union_product_first``, which multiplies the child densities
(or their distribution functions, differentiated back in every subtree
source) before the merge cumulates the product in each shared source, where
``density._phi_union`` cumulates a shared source on the child that names it;
``build_bag_density_two_pass`` is the bag density that multiplies every
tail's group before it eliminates any internal vertex, whose functions
``density.build_bag_density`` must match.  The rest are
small readings of a ``Dag``, a ``SymbolicSum`` or a ``PiecewisePoly`` that
only the tests take.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np

from stochlp.decomposition import DecompositionContext, TreeDecomposition, prepare_context, solve
from stochlp.density import BagDensity, FactorFn, Pending, describe_sum, merge_bag
from stochlp.errors import (Budget, DivergentIntegral, InputError, InvariantViolation,
                            StochLPError)
from stochlp.exactexp import ExactExpReport, bag_density_exp
from stochlp.graph import Dag, DistKind, DistSpec
from stochlp.oracles import PiecewisePoly
from stochlp.staircase import (SRC, TERM, GridSpec, _bag_threshold_rows, accumulate,
                               bag_staircase, merge_subtree)
from stochlp.symbolic import (
    ZERO_ATOM,
    Atom,
    SymbolicSum,
    _chain_consistent,
    _interleavings,
    _is_guard,
    _key_const,
    const_atom,
    cumulate,
    differentiate,
    evaluate,
    integrate_out,
    multiply,
    substitute,
    truncate_total_degree,
    var_atom,
)


class PathLimitExceeded(StochLPError):
    """enumerate_st_paths found more paths than the caller allowed."""


def edge_pairs(g: Dag) -> frozenset[tuple[int, int]]:
    return frozenset((u, v) for u, v, _ in g.edges)


@dataclass(frozen=True)
class SubgraphRef:
    """A subgraph of a host Dag: a vertex subset plus an edge subset."""

    vertices: frozenset[int]
    edges: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        for u, v in self.edges:
            if u not in self.vertices or v not in self.vertices:
                raise InputError(f"subgraph edge ({u},{v}) has endpoint outside vertex set")


def classify_subgraph_vertices(
    g: Dag, sub: SubgraphRef
) -> tuple[frozenset[int], frozenset[int], frozenset[int]]:
    """Classify the vertices of a subgraph into (sources, terminals, internals).

    Local criterion equivalent to the path-based definition: v is a source of
    ``sub`` iff it has an outgoing edge in ``sub`` and either no incoming edge
    in ``g`` at all or some incoming edge of ``g`` missing from ``sub``;
    terminals are symmetric.  Vertices with no incident edge in ``sub`` are
    classified as neither.
    """
    host = edge_pairs(g)
    for u, v in sub.edges:
        if (u, v) not in host:
            raise InputError(f"subgraph edge ({u},{v}) not in host graph")
    if any(not (0 <= v < g.n) for v in sub.vertices):
        raise InputError("subgraph vertex outside host graph")

    out_in: dict[int, list[int]] = {v: [0, 0] for v in sub.vertices}
    for u, v in sub.edges:
        out_in[u][0] += 1
        out_in[v][1] += 1

    sources, terminals, internals = set(), set(), set()
    for v in sub.vertices:
        n_out, n_in = out_in[v]
        if n_out == 0 and n_in == 0:
            continue  # no incident edge in sub: neither role
        g_in = g.predecessors[v]
        g_out = g.successors[v]
        in_absent = any((p, v) not in sub.edges for p in g_in)
        out_absent = any((v, s) not in sub.edges for s in g_out)
        is_src = n_out >= 1 and (not g_in or in_absent)
        is_term = n_in >= 1 and (not g_out or out_absent)
        if is_src:
            sources.add(v)
        if is_term:
            terminals.add(v)
        if not is_src and not is_term:
            internals.add(v)
    return frozenset(sources), frozenset(terminals), frozenset(internals)


def enumerate_st_paths(g: Dag, limit: int = 10_000) -> list[tuple[int, ...]]:
    """All source-terminal paths in lexicographic order of vertex sequences.

    Raises PathLimitExceeded as soon as more than ``limit`` paths exist; meant
    for validation oracles on small instances only.
    """
    paths: list[tuple[int, ...]] = []
    stack: list[int] = []

    def walk(v: int) -> None:
        stack.append(v)
        succs = g.successors[v]
        if not succs:
            if len(paths) >= limit:
                raise PathLimitExceeded(f"more than {limit} source-terminal paths")
            paths.append(tuple(stack))
        else:
            for w in succs:
                walk(w)
        stack.pop()

    for s in sorted(g.sources):
        if g.successors[s]:
            walk(s)
    return paths


def random_series_parallel(seed: int, n: int) -> Dag:
    """A random two-terminal series-parallel DAG (a partial 2-tree) on n
    vertices: each new vertex subdivides an edge or adds a two-edge path
    beside it.  Uniform edges of scale 1-3, ids in topological order."""
    rng = random.Random(seed)
    edges = [(0, 1)]
    for w in range(2, n):
        u, v = edges[rng.randrange(len(edges))]
        if rng.random() < 0.5:
            edges.remove((u, v))
        edges += [(u, w), (w, v)]
    order, indeg = [], {v: sum(1 for _, b in edges if b == v) for v in range(n)}
    ready = [v for v in range(n) if indeg[v] == 0]
    while ready:
        u = ready.pop()
        order.append(u)
        for a, b in edges:
            if a == u:
                indeg[b] -= 1
                if indeg[b] == 0:
                    ready.append(b)
    pos = {v: k for k, v in enumerate(order)}
    return Dag(n=n, edges=tuple((pos[u], pos[v], DistSpec.uniform(rng.randint(1, 3)))
                                for u, v in sorted(edges)))


def snap(grid: GridSpec, vertex_role: str, z: float) -> int:
    """Grid rounding: ceil for source shifts, floor for terminal shifts,
    computed in exact rational arithmetic (no epsilon nudging)."""
    if grid.x == 0.0:
        return 0
    ratio = Fraction(grid.m_res) * Fraction(z) / Fraction(grid.x)
    g = math.ceil(ratio) if vertex_role == SRC else math.floor(ratio)
    return min(max(g, 0), grid.m_res)


def bag_cell_count(
    ctx: DecompositionContext, i: int, z: Mapping[int, float], grid: GridSpec,
    budget: Budget | None = None,
) -> int:
    """Number of cells of the bag's unit box intersecting the constraint
    region at shift vector z (snapped onto the grid per the ceil/floor
    convention)."""
    budget = budget or Budget.default()
    pairs, rows, counts = _bag_threshold_rows(ctx, i, grid, budget)
    missing = (ctx.S[i] | ctx.T[i]) - set(z)
    if missing:
        raise InputError(f"missing shift values for {sorted(missing)}")
    gpt = {v: snap(grid, SRC if v in ctx.S[i] else TERM, z[v]) for v in z}
    total = 0
    for row, cnt in zip(rows, counts):
        if all(gpt[s] - gpt[t] >= q for (s, t), q in zip(pairs, row)):
            total += int(cnt)
    return total


def frozen_terminals_at_zero(ctx: DecompositionContext, i: int) -> dict[int, int]:
    """The ``fixed`` argument ``approx_dag`` gives ``bag_staircase`` for bag
    i: every frozen terminal of the bag at grid index 0."""
    return dict.fromkeys(ctx.frozen_T[i] & ctx.T[i], 0)


def unique_rows(Q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of a 2-d array in lexicographic order, and how often
    each occurs."""
    return np.unique(Q, axis=0, return_counts=True)


def approx_dag_unshared(g: Dag, td: TreeDecomposition | None, x: float, m_res: int,
                        budget: Budget) -> float:
    """``approx_dag``'s value with one ``bag_staircase`` call per bag, so no
    bag table is shared between bags of one shape."""
    ctx = prepare_context(g, td)
    grid = GridSpec(m_res, float(x))
    done = {}
    for i in ctx.post_order:
        kids = [done.pop(c) for c in ctx.children[i]]
        bag = bag_staircase(ctx, i, grid, budget, frozen_terminals_at_zero(ctx, i))
        done[i] = merge_subtree(ctx, i, bag, kids, budget)
    return min(max(accumulate(done[ctx.td.root]), 0.0), 1.0)


def exact_exp_unshared(g: Dag, td: TreeDecomposition | None, x, budget: Budget
                       ) -> tuple[float, ExactExpReport]:
    """``exact_exp``'s value and report, symbolic text included, with one
    ``bag_density_exp`` call per bag, so no bag density is shared between
    bags of one shape."""
    t0 = time.perf_counter()
    xq = Fraction(x)
    ctx = prepare_context(g, td)

    def solve_bag(i: int, kids: list[SymbolicSum]) -> SymbolicSum:
        return merge_bag(ctx, i, bag_density_exp(ctx, i, budget), kids, xq, budget)

    def finish(final: SymbolicSum) -> dict:
        value, radius = evaluate(final)
        return {"value": min(max(value, 0.0), 1.0), "error_radius": radius,
                "symbolic": final.canonical_text()}

    return solve(ExactExpReport, ctx, t0, budget, xq, solve_bag, describe_sum, finish,
                 error_radius=0.0, symbolic="0")


def bag_shape(ctx: DecompositionContext, i: int) -> tuple:
    """Bag i's owned edges with their distributions, its sources, terminals
    and frozen terminals, each vertex named by its position in the sorted
    list of the bag's edge endpoints, sources and terminals."""
    names = sorted({v for e in ctx.bag_edges[i] for v in e} | ctx.S[i] | ctx.T[i])
    pos = names.index
    edges = sorted((pos(u), pos(v), ctx.dag.dist_of[(u, v)]) for u, v in ctx.bag_edges[i])
    roles = (ctx.S[i], ctx.T[i], frozen_terminals_at_zero(ctx, i))
    return (tuple(edges), *(tuple(sorted(map(pos, vs))) for vs in roles))


def max_total_degree(s: SymbolicSum) -> int:
    best = 0
    for terms in s.regions.values():
        for powers, _, _ in terms:
            best = max(best, sum(n for _, n in powers))
    return best


def mass(p: PiecewisePoly) -> Fraction:
    """Total integral of a polynomial density with bounded support: its
    antiderivative at the last shift, once the density is checked to vanish
    beyond it (at one more point than its degree)."""
    if any(q for _, _, q in p.terms):
        raise InputError("density must be piecewise polynomial")
    end = max(a for a, _, _ in p.terms)
    top = max(j for _, j, _ in p.terms)
    if any(p(end + k) for k in range(1, top + 2)):
        raise InputError("density must vanish beyond its last shift")
    return sum((c * Fraction(end - a) ** (j + 1) / (j + 1)
                for (a, j, _), c in p.terms.items()), Fraction(0))


def _merge_pow(p1, p2):
    """Two key tuples of (variable, exponent) multiplied: exponents added in a
    dict, zeros dropped, then sorted."""
    merged = dict(p1)
    for v, n in p2:
        merged[v] = merged.get(v, 0) + n
    return tuple(sorted((v, n) for v, n in merged.items() if n))


def _split(p, v):
    """A key tuple without variable v, and v's exponent there."""
    rest = dict(p)
    n = rest.pop(v, 0)
    return tuple(sorted(rest.items())), n


def _fraction_accumulate(bucket: dict, items) -> None:
    for key, c in items:
        old = bucket.get(key)
        bucket[key] = c if old is None else old + c


def _fraction_own(out: dict, budget: Budget | None = None) -> SymbolicSum:
    """``SymbolicSum._own`` of ``out`` with its zero ``Fraction``s dropped
    first, as an operation's zero pairs would be."""
    return SymbolicSum._own({chain: {key: c for key, c in terms.items() if c}
                             for chain, terms in out.items()}, budget=budget)


def fraction_add(a: SymbolicSum, b: SymbolicSum) -> SymbolicSum:
    """``SymbolicSum.__add__`` with a reduced ``Fraction`` per sum."""
    out = {chain: dict(terms) for chain, terms in a.regions.items()}
    for chain, terms in b.regions.items():
        _fraction_accumulate(out.setdefault(chain, {}), terms.items())
    return _fraction_own(out)


def fraction_scale(a: SymbolicSum, c) -> SymbolicSum:
    """``SymbolicSum.scale`` with a reduced ``Fraction`` per product."""
    q = Fraction(c)
    return _fraction_own({chain: {key: coeff * q for key, coeff in terms.items()}
                          for chain, terms in a.regions.items()})


def _fraction_term_mul(k1, c1, k2, c2):
    p1, e1, q1 = k1
    p2, e2, q2 = k2
    return (_merge_pow(p1, p2), _merge_pow(e1, e2), _key_const(q1 + q2)), c1 * c2


def fraction_multiply(a: SymbolicSum, b: SymbolicSum, budget: Budget | None = None) -> SymbolicSum:
    """``symbolic.multiply`` with a reduced ``Fraction`` per product and sum."""
    out: dict = {}
    unit_a = _is_guard(a)
    unit_b = not unit_a and _is_guard(b)
    pending_terms = 0
    for ch1, terms1 in a.regions.items():
        for ch2, terms2 in b.regions.items():
            if budget is not None:
                budget.charge_work(len(terms1) * len(terms2))
            if unit_a or unit_b:
                prods = terms2 if unit_a else terms1
            else:
                prods = {}
                for k1, c1 in terms1.items():
                    for k2, c2 in terms2.items():
                        key, coeff = _fraction_term_mul(k1, c1, k2, c2)
                        old = prods.get(key)
                        prods[key] = coeff if old is None else old + coeff
            for chain in _interleavings(ch1, ch2):
                bucket = out.get(chain)
                if bucket is None:
                    out[chain] = dict(prods)
                else:
                    _fraction_accumulate(bucket, prods.items())
                pending_terms += len(terms1) * len(terms2)
            if budget is not None:
                budget.note_regions(len(out))
                if pending_terms > 3 * budget.max_terms:
                    budget.note_terms(pending_terms)
    return _fraction_own(out, budget=budget)


def _fraction_at_atom(powers, exps, e_const, coeff: Fraction, alpha: int, beta: int, atom: Atom):
    if atom[0] == "c":
        value = atom[1]
        if beta:
            e_const = _key_const(e_const + beta * value)
        if alpha:
            coeff = coeff * value**alpha
        return (powers, exps, e_const), coeff
    w = atom[1]
    if alpha:
        powers = _merge_pow(powers, ((w, alpha),))
    if beta:
        exps = _merge_pow(exps, ((w, beta),))
    return (powers, exps, e_const), coeff


def fraction_substitute(s: SymbolicSum, v: int, value, budget: Budget | None = None) -> SymbolicSum:
    """``symbolic.substitute`` with a reduced ``Fraction`` per product and sum."""
    target = value if isinstance(value, tuple) else const_atom(value)
    va = var_atom(v)
    out: dict = {}
    for chain, terms in s.regions.items():
        new_chain = chain
        if va in chain:
            idx = chain.index(va)
            if target in chain:
                tpos = chain.index(target)
                if tpos > idx or tpos < idx - 1:
                    continue
                new_chain = chain[:idx] + chain[idx + 1:]
            else:
                new_chain = chain[:idx] + (target,) + chain[idx + 1:]
            if not _chain_consistent(new_chain):
                continue
        bucket = out.setdefault(new_chain, {})
        for (powers, exps, e_const), coeff in terms.items():
            powers, alpha = _split(powers, v)
            exps, beta = _split(exps, v)
            key, c = _fraction_at_atom(powers, exps, e_const, coeff, alpha, beta, target)
            old = bucket.get(key)
            bucket[key] = c if old is None else old + c
    return _fraction_own(out, budget=budget)


def _fraction_antiderivative(alpha: int, beta: int) -> list[tuple[Fraction, int, int]]:
    if beta == 0:
        return [(Fraction(1, alpha + 1), alpha + 1, 0)]
    out = [(Fraction(1, beta), alpha, beta)]
    fall = 1
    for i in range(1, alpha + 1):
        fall *= alpha - i + 1
        out.append((Fraction((-1) ** i * fall, beta ** (i + 1)), alpha - i, beta))
    return out


def fraction_q(p: Mapping[int, Fraction], beta: int) -> dict[int, Fraction]:
    """The coefficients of Q with Q' + beta Q = P, P = sum of p_j v^j, by the
    recurrence on reduced ``Fraction`` steps: the integral of P when beta = 0,
    else q_j = (p_j - (j+1) q_(j+1)) / beta from the top power down."""
    if not beta:
        return {j + 1: Fraction(c) / (j + 1) for j, c in p.items()}
    q: dict[int, Fraction] = {}
    for j in range(max(p), -1, -1):
        q[j] = (p.get(j, 0) - (j + 1) * q.get(j + 1, 0)) / beta
    return q


def fraction_integrate_out(s: SymbolicSum, v: int, upper: Atom | None = None,
                           budget: Budget | None = None) -> SymbolicSum:
    """``symbolic.integrate_out`` with a reduced ``Fraction`` per product and
    sum."""
    if upper is not None:
        s = fraction_multiply(s, SymbolicSum.guard(var_atom(v), upper), budget=budget)
    va = var_atom(v)
    out: dict = {}
    for chain, terms in s.regions.items():
        if va not in chain:
            raise DivergentIntegral(f"variable z{v} is unbounded in a region")
        idx = chain.index(va)
        lo = chain[idx - 1] if idx > 0 else None
        hi = chain[idx + 1] if idx + 1 < len(chain) else None
        bucket = out.setdefault(chain[:idx] + chain[idx + 1:], {})
        for (powers, exps, e_const), coeff in terms.items():
            powers, alpha = _split(powers, v)
            exps, beta = _split(exps, v)
            anti = _fraction_antiderivative(alpha, beta)
            for bound, sign in ((hi, 1), (lo, -1)):
                if bound is None:
                    if beta == 0 or (sign > 0 and beta > 0) or (sign < 0 and beta < 0):
                        raise DivergentIntegral(f"non-vanishing tail integrating z{v}")
                    continue
                for c_a, a_pow, b_exp in anti:
                    c = coeff * c_a
                    key, c = _fraction_at_atom(powers, exps, e_const, c if sign > 0 else -c,
                                               a_pow, b_exp, bound)
                    old = bucket.get(key)
                    bucket[key] = c if old is None else old + c
    return _fraction_own(out, budget=budget)


def cumulate_floored(s: SymbolicSum, v: int, fresh: int, lower: Atom | None,
                     budget: Budget | None = None) -> SymbolicSum:
    """``symbolic.cumulate`` as it was when it took a floor: the cumulative
    integral of ``s`` in ``v``, started at the atom ``lower`` when one is
    given."""
    renamed = substitute(s, v, var_atom(fresh), budget=budget)
    guard = SymbolicSum.guard(var_atom(fresh), var_atom(v))
    if lower is not None:
        guard = multiply(guard, SymbolicSum.guard(lower, var_atom(fresh)))
    renamed = multiply(renamed, guard, budget=budget)
    return integrate_out(renamed, fresh, budget=budget)


def merge_bag_product_first(
    ctx: DecompositionContext,
    i: int,
    bag_density: BagDensity,
    child_sums: Sequence[SymbolicSum],
    x: Fraction,
    budget: Budget,
    taylor_tau: int | None = None,
    order_rng: random.Random | None = None,
) -> SymbolicSum:
    """``density.merge_bag`` as it was with the product first, with the
    subtree density of ``phi_union_product_first``, which it cumulates in
    each shared source: per part, only the frozen
    terminals that no pending pair names are set to 0 on the bag factor; the
    pending pairs, their horizon guards and the other frozen terminals are
    applied to the product with the subtree density.  In Taylor mode it adds
    the support guards that ``density.merge_bag`` no longer adds."""
    taylor = taylor_tau is not None
    kept, frozen_src, frozen_term = ctx.kept[i], ctx.frozen_S[i], ctx.frozen_T[i]
    J = ctx.J[i]
    x_atom = const_atom(x)
    lower = ZERO_ATOM if taylor else None
    dummy = ctx.dag.n + 1
    phi_u = phi_union_product_first(ctx, i, child_sums, budget)
    shared = sorted(ctx.S[i] & ctx.S_U[i])
    if shared and phi_u is not None:
        for s in shared:
            if s in phi_u.free_vars():
                phi_u = cumulate_floored(phi_u, s, dummy, lower, budget=budget)

    def maybe_shuffled(vals: list[int]) -> list[int]:
        if order_rng is not None:
            order_rng.shuffle(vals)
        return vals

    result = SymbolicSum.zero()
    for pend, gsum in bag_density.parts:
        for s in shared:
            if s in gsum.free_vars():
                gsum = cumulate_floored(gsum, s, dummy, lower, budget=budget)
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


def phi_union_product_first(
    ctx: DecompositionContext,
    i: int,
    child_sums: Sequence[SymbolicSum],
    budget: Budget,
) -> SymbolicSum | None:
    """``density._phi_union`` as it was before it cumulated the shared
    sources, copied unchanged: the density of the uncapped subtree, the
    product of child distribution functions differentiated along its
    sources.  Children with disjoint variables multiply directly; otherwise
    each child density is cumulated to its distribution function first."""
    kids = ctx.children[i]
    if not kids:
        return None
    if len(kids) == 1:
        return child_sums[0]
    free = [s.free_vars() for s in child_sums]
    if not (free[0] & free[1]):
        return multiply(child_sums[0], child_sums[1], budget=budget)
    dummy = ctx.dag.n + 1  # as in merge_bag
    cdfs = []
    for j, phi in zip(kids, child_sums):
        out = phi
        for s_var in sorted(phi.free_vars() & ctx.S_D[j]):
            out = cumulate(out, s_var, dummy, budget=budget)
        cdfs.append(out)
    prod = multiply(cdfs[0], cdfs[1], budget=budget)
    for s_var in sorted((free[0] | free[1]) & ctx.S_U[i]):
        prod = differentiate(prod, s_var)
    return prod


def build_bag_density_two_pass(
    ctx: DecompositionContext, i: int, factor: FactorFn, budget: Budget
) -> BagDensity:
    """``density.build_bag_density`` as it was in two passes, copied
    unchanged but for the zero-length edges, whose factors come from
    ``factor`` as they do there: multiply every tail's group onto the
    branches first, then eliminate the internal variables in decreasing
    id."""
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
