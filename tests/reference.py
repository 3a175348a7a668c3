"""Test-only references: from-scratch rules and brute-force helpers that the
solvers, oracles and CLI never call.

``classify_subgraph_vertices`` is the role rule that
``stochlp.decomposition._roles`` restates from edge counts;
``enumerate_st_paths`` lists every source-terminal path of a small graph;
``bag_cell_count`` counts one bag's cells at a single shift vector, snapped
onto the grid with ``snap``; ``approx_dag_unshared`` is the grid sweep that
builds every bag's staircase table anew, and ``bag_shape`` the shape by which
``approx_dag`` shares a bag table among bags; ``fraction_multiply``,
``fraction_substitute`` and ``fraction_integrate_out`` are the symbolic
operations with one reduced ``Fraction`` step per coefficient operation,
which the engine's reduce-once arithmetic must match term for term.  The
rest are small readings of a ``Dag``, a ``SymbolicSum`` or a
``PiecewisePoly`` that only the tests take.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from stochlp.decomposition import DecompositionContext, TreeDecomposition, prepare_context
from stochlp.errors import Budget, DivergentIntegral, InputError, StochLPError
from stochlp.graph import Dag
from stochlp.oracles import PiecewisePoly, _poly_eval, _poly_trim
from stochlp.staircase import (SRC, TERM, GridSpec, _bag_threshold_rows, accumulate,
                               bag_staircase, merge_subtree)
from stochlp.symbolic import (
    Atom,
    SymbolicSum,
    _accumulate,
    _chain_consistent,
    _interleavings,
    _is_guard,
    _key_const,
    _merge_pow,
    _split,
    const_atom,
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
    """Total integral of a density with bounded support."""
    p.support_end()
    if _poly_trim(p.polys[-1]) not in ((), (Fraction(0),)):
        raise InputError("density must vanish beyond its last break")
    total = Fraction(0)
    for i in range(len(p.breaks) - 1):
        anti = (Fraction(0),) + tuple(c / (j + 1) for j, c in enumerate(p.polys[i]))
        total += _poly_eval(anti, p.breaks[i + 1]) - _poly_eval(anti, p.breaks[i])
    return total


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
                    _accumulate(bucket, prods.items())
                pending_terms += len(terms1) * len(terms2)
            if budget is not None:
                budget.note_regions(len(out))
                if pending_terms > 3 * budget.max_terms:
                    budget.note_terms(pending_terms)
    return SymbolicSum._own(out, budget=budget)


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
    return SymbolicSum._own(out, budget=budget)


def _fraction_antiderivative(alpha: int, beta: int) -> list[tuple[Fraction, int, int]]:
    if beta == 0:
        return [(Fraction(1, alpha + 1), alpha + 1, 0)]
    out = [(Fraction(1, beta), alpha, beta)]
    fall = 1
    for i in range(1, alpha + 1):
        fall *= alpha - i + 1
        out.append((Fraction((-1) ** i * fall, beta ** (i + 1)), alpha - i, beta))
    return out


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
    return SymbolicSum._own(out, budget=budget)
