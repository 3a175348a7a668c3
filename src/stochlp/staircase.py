"""Grid-discretization FPTAS for uniformly distributed edge lengths.

Per bag, the probability that every source-terminal path fits inside its
shifts is approximated by counting 1/M-side cells of the unit box whose
minimal corner satisfies all path constraints (an upper staircase for the
true volume).  Subtree results are combined by summing mass increments over
the glue variables and freezing variables that leave scope.

Tables hold staircase values wherever they pass between functions.  Backward
differences put the mass at the grid origin in slot 0, so differencing and
cumulating are exact inverses (``diff(prepend=0)`` vs ``cumsum``) and a
single-bag run reproduces the plain cell count bit for bit.

A merge reads a source its plan freezes at grid index M and a frozen terminal
at 0, and never the rest of the axis.  Only the bag table holds frozen axes: a
variable frozen at a bag is not in its parent bag, so its one edge is owned by
the bag itself and no child subtree gives it a role.  A bag's frozen terminal
axes are never built (``bag_staircase`` with ``fixed``), which leaves every
surviving cell bit-identical, since terminal axes are never differenced or
cumulated and each cell is counted on its own.  A bag's frozen source axes are
still built in full, because ``merge_subtree`` reads their slab at M only
after its float round trip of the bag table, whose result at M depends on the
whole axis.

Within one ``approx_dag`` call, bags of one shape share one bag table.  A
bag table depends only on the bag's owned edges with their distributions, its
source and terminal roles, its frozen terminals, M and x (``_bag_shape``), and
every step of its build follows vertex order only.  Naming the bag's vertices
by their rank keeps that order, so a table built for one bag holds the bits
every bag of its shape would build; later bags get the same read-only array
under their own axis names, and are charged the cells a build would charge,
in the same order.  A table is held only until the last bag of its shape has
it, and ``solve_bag`` passes it straight into ``merge_subtree``.

Memory is what limits M, so no step makes a full-size temporary it can avoid.
A conversion copies its input table once and then works on that copy in
place: cumulating with ``cumsum(out=...)``, differencing with a backward pass
through a scratch buffer of at most ``DIFF_CHUNK_CELLS`` cells.  It never
mutates its input, and it does the same float operations as ``np.cumsum`` and
``np.diff(prepend=0)``, so every value is unchanged bit for bit.
"""

from __future__ import annotations

import math
import time
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, partial
from typing import Mapping, Sequence

import numpy as np

from .decomposition import (DecompositionContext, SolveReport, TreeDecomposition,
                            prepare_context, solve)
from .errors import Budget, InputError, InvariantViolation, finite_horizon
from .graph import Dag, DistKind

SRC = "s"
TERM = "t"

Axis = tuple[int, str]  # (vertex, role)

# largest compressed threshold histogram (cells) the dominance count builds;
# beyond it each bag table is summed up one threshold row at a time
DENSE_HISTOGRAM_CELLS = 20_000_000
# scratch buffer of the in-place backward difference (float64 cells, 1 MB)
DIFF_CHUNK_CELLS = 1 << 17


@dataclass(frozen=True)
class GridSpec:
    """Grid resolution M and horizon x; grid coordinate g maps to g*x/M."""

    m_res: int
    x: float

    def __post_init__(self) -> None:
        if self.m_res < 1:
            raise InputError(f"grid resolution must be >= 1, got {self.m_res}")
        if not (self.x >= 0.0 and math.isfinite(self.x)):
            raise InputError(f"horizon must be finite and >= 0, got {self.x}")


@dataclass(frozen=True)
class StaircaseTable:
    """Dense table of the shifted distribution function's staircase values
    over grid points of the active shift variables.  ``to_difference`` takes
    iterated backward differences along every source axis, with slot 0
    carrying the value at the axis origin, and ``to_cumulative`` sums them
    back.  Each copies the values once, converts the float64 copy in place
    and leaves this table unchanged.
    """

    grid: GridSpec
    axes: tuple[Axis, ...]
    values: np.ndarray

    def __post_init__(self) -> None:
        expect = (self.grid.m_res + 1,) * len(self.axes)
        if self.values.shape != expect:
            raise InvariantViolation(f"table shape {self.values.shape} != {expect}")
        if list(self.axes) != sorted(self.axes):
            raise InvariantViolation("table axes must be sorted by vertex")

    def source_axes(self) -> list[int]:
        return [i for i, (_, role) in enumerate(self.axes) if role == SRC]

    def to_cumulative(self) -> "StaircaseTable":
        vals = np.array(self.values, dtype=np.float64, order="C")
        for ax in self.source_axes():
            np.cumsum(vals, axis=ax, out=vals)
        return StaircaseTable(self.grid, self.axes, vals)

    def to_difference(self) -> "StaircaseTable":
        vals = np.array(self.values, dtype=np.float64, order="C")
        for ax in self.source_axes():
            _difference_in_place(vals, ax)
        return StaircaseTable(self.grid, self.axes, vals)


def _difference_in_place(vals: np.ndarray, ax: int) -> None:
    """``vals = np.diff(vals, axis=ax, prepend=0.0)`` without the full-size
    result: ``vals[k] -= vals[k-1]`` for k from high to low, one block of at
    most ``DIFF_CHUNK_CELLS`` cells at a time.

    ``vals`` must be C-contiguous.  Each block copies the lower slabs it
    reads before subtracting them from the slabs one step up, and blocks go
    from high k to low, so no read sees a slab already differenced.
    """
    if not vals.flags.c_contiguous:
        raise InvariantViolation("in-place difference needs a C-contiguous array")
    n = vals.shape[ax]
    pre = math.prod(vals.shape[:ax])
    post = math.prod(vals.shape[ax + 1:])
    v = vals.reshape(pre, n, post)
    width = min(post, DIFF_CHUNK_CELLS)
    steps = max(1, min(n - 1, DIFF_CHUNK_CELLS // width))
    rows = max(1, min(pre, DIFF_CHUNK_CELLS // (steps * width)))
    for p in range(0, pre, rows):
        for w in range(0, post, width):
            for hi in range(n - 1, 0, -steps):
                lo = max(hi - steps, 0)
                v[p:p + rows, lo + 1:hi + 1, w:w + width] -= v[p:p + rows, lo:hi, w:w + width].copy()


def finite_difference(table: StaircaseTable) -> StaircaseTable:
    """Iterated backward differences along every source axis (``to_difference``)."""
    return table.to_difference()


def choose_M(k: int, n: int, m: int, epsilon: float) -> int:
    """Grid resolution from the approximation-ratio formula, with the ratio
    target clamped into (0, 1]."""
    if not epsilon > 0:  # also rejects NaN
        raise InputError(f"epsilon must be positive, got {epsilon}")
    eps = min(float(epsilon), 1.0)
    M = math.ceil(Fraction((6 * k + 6) * m * n) / Fraction(eps))
    if M > 2**53:
        raise InputError(f"grid resolution M={M} exceeds the representable range")
    return int(M)


# ---------------------------------------------------------------------------
# per-bag cell counting


def _bag_threshold_rows(
    ctx: DecompositionContext, i: int, grid: GridSpec, budget: Budget
) -> tuple[list[tuple[int, int]], np.ndarray, np.ndarray]:
    """For bag i, return (st_pairs, unique threshold rows, counts).

    A cell with integer corner gE intersects the constraint region at shift
    grid point g iff g[s] - g[t] >= Q[(s,t)] for every pair, where Q is the
    per-corner integer threshold derived from the longest corner path.
    """
    M = grid.m_res
    edges = sorted(ctx.bag_edges[i])
    real = [(u, v, ctx.dag.dist_of[(u, v)].scale) for (u, v) in edges
            if ctx.dag.dist_of[(u, v)].kind is DistKind.UNIFORM]
    for u, v in edges:
        kind = ctx.dag.dist_of[(u, v)].kind
        if kind not in (DistKind.UNIFORM, DistKind.ZERO):
            raise InputError(f"FPTAS needs uniform edges, bag {i} has {kind.value}")
    r = len(real)
    ncorners = M**r
    budget.charge_cells(ncorners)

    # corner coordinates, one int64 array per real edge (mixed radix)
    coords: dict[tuple[int, int], np.ndarray] = {}
    idx = np.arange(ncorners, dtype=np.int64)
    for pos, (u, v, _) in enumerate(real):
        stride = M ** (r - 1 - pos)
        coords[(u, v)] = (idx // stride) % M

    sources = sorted(ctx.S[i])
    terminals = sorted(ctx.T[i])
    pair_vals: dict[tuple[int, int], np.ndarray] = {}
    scale_of = {(u, v): a for u, v, a in real}
    for s in sources:
        dist: dict[int, np.ndarray] = {s: np.zeros(ncorners, dtype=np.int64)}
        for u, v in edges:  # already topologically sorted pairs
            if u not in dist:
                continue
            w = scale_of[(u, v)] * coords[(u, v)] if (u, v) in scale_of else 0
            cand = dist[u] + w
            if v in dist:
                np.maximum(dist[v], cand, out=dist[v])
            else:
                dist[v] = cand
        for t in terminals:
            if t in dist:
                pair_vals[(s, t)] = dist[t]

    pairs = sorted(pair_vals)
    if not pairs:
        return [], np.zeros((1, 0), dtype=np.int64), np.array([ncorners], dtype=np.int64)

    # threshold: minimal d with corner_length <= x*d, using the same float
    # comparisons the evaluation grid would use
    xd = grid.x * np.arange(-M, M + 2, dtype=np.float64)
    q_cols = []
    for p in pairs:
        q_cols.append(np.searchsorted(xd, pair_vals[p].astype(np.float64), side="left") - M)
    Q = np.stack(q_cols, axis=1)
    rows, counts = np.unique(Q, axis=0, return_counts=True)
    return pairs, rows, counts


def bag_staircase(
    ctx: DecompositionContext, i: int, grid: GridSpec, budget: Budget | None = None,
    fixed: Mapping[int, int] | None = None,
) -> StaircaseTable:
    """Staircase table of bag i over its active shift variables.

    ``fixed`` maps some active variables to one grid index each; the table
    then has no axis for them and equals the full table taken at those
    indices, bit for bit, since every cell is counted on its own.
    ``approx_dag`` fixes the bag's frozen terminals at 0, the only index of
    them the merge reads.  It does not fix frozen sources: the merge reads
    them at M after differencing and cumulating the whole axis.
    """
    budget = budget or Budget.default()
    fixed = fixed or {}
    M = grid.m_res
    pairs, rows, counts = _bag_threshold_rows(ctx, i, grid, budget)
    active = sorted(ctx.S[i] | ctx.T[i])
    for v, g in fixed.items():
        if v not in active or not 0 <= g <= M:
            raise InputError(f"cannot fix variable {v} of bag {i} at grid index {g}")
    axes = tuple((v, SRC if v in ctx.S[i] else TERM) for v in active if v not in fixed)
    shape = (M + 1,) * len(axes)
    budget.charge_cells(int(np.prod(shape, dtype=np.int64)))

    # each of the M^r corners falls in exactly one threshold row
    total = float(counts.sum())
    # grid index of each active variable, broadcast over the table's axes; a
    # fixed variable is one constant index, not an axis
    axis_of = {v: k for k, (v, _) in enumerate(axes)}
    at: dict[int, np.ndarray] = {}
    for v in active:
        sh = [1] * len(axes)
        if v in fixed:
            at[v] = np.full(sh, fixed[v], dtype=np.int64)
        else:
            sh[axis_of[v]] = M + 1
            at[v] = np.arange(M + 1, dtype=np.int64).reshape(sh)

    if not pairs:
        return StaircaseTable(grid, axes, np.ones(shape))

    # dominance count: a grid point admits the corners whose threshold row it
    # dominates, so histogram the rows on compressed coordinates, prefix-sum,
    # and gather at each grid point's difference vector.  The output table is
    # the only full-size array: the small histogram is divided before the
    # gather, and cells outside the region are zeroed in place.
    uniq = [np.unique(rows[:, p]) for p in range(len(pairs))]
    hist_size = 1
    for u in uniq:
        hist_size *= len(u)
    if hist_size <= DENSE_HISTOGRAM_CELLS:
        hist = np.zeros([len(u) for u in uniq], dtype=np.int64)
        coords = tuple(np.searchsorted(uniq[p], rows[:, p]) for p in range(len(pairs)))
        np.add.at(hist, coords, counts)
        for ax in range(len(pairs)):
            np.cumsum(hist, axis=ax, out=hist)
        gather, outside = [], []
        for p, (s, t) in enumerate(pairs):
            pos = np.searchsorted(uniq[p], at[s] - at[t], side="right") - 1
            outside.append(pos < 0)
            gather.append(np.broadcast_to(np.maximum(pos, 0), shape))
        # a table with no axis left gathers a scalar
        values = np.asarray((hist / total)[tuple(gather)])
        for mask in outside:
            np.copyto(values, 0.0, where=mask)
    else:
        # integer counts below 2**53 add up exactly in float64, so dividing
        # the sum in place gives the bits of the int64 sum divided
        values = np.zeros(shape)
        for row, cnt in zip(rows, counts):
            mask = np.ones(shape, dtype=bool)
            for (s, t), q in zip(pairs, row):
                mask &= (at[s] - at[t]) >= q
            np.add(values, float(cnt), out=values, where=mask)
        values /= total
    return StaircaseTable(grid, axes, values)


# ---------------------------------------------------------------------------
# subtree merging


def _take_frozen(
    vals: np.ndarray, axes: Sequence[Axis], m_res: int,
    frozen_src: frozenset[int], frozen_term: frozenset[int],
) -> tuple[np.ndarray, list[int]]:
    """Take a staircase array's frozen axes at their one read index: a
    source at M, a terminal at 0.  Returns (array, remaining axis vertices)."""
    names = [v for v, _ in axes]
    for ax in reversed(range(len(axes))):
        v, role = axes[ax]
        if v in frozen_src:
            if role != SRC:
                raise InvariantViolation(f"frozen source {v} has terminal role in operand")
            vals = np.take(vals, m_res, axis=ax)
        elif v in frozen_term:
            if role != TERM:
                raise InvariantViolation(f"frozen terminal {v} has source role in operand")
            vals = np.take(vals, 0, axis=ax)
        else:
            continue
        names.pop(ax)
    return vals, names


def _transform_operand(
    vals: np.ndarray, names: Sequence[int], m_res: int,
    density_vars: frozenset[int], kept: frozenset[int], contract: frozenset[int],
) -> np.ndarray:
    """Difference the density-side glue axes of a staircase array the merge
    owns, in place, and lag the other glue axes one grid step.

    Kept axes stay as they are.  The lag pairs each glue-mass interval with
    the value at the interval's lower end, which keeps the merged table an
    upper staircase of the true distribution (value monotonicity absorbs the
    shift into the horizontal error).
    """
    for ax, v in enumerate(names):
        if v in kept:
            continue
        if v not in contract:
            raise InvariantViolation(f"variable {v} has no role at this merge")
        if v in density_vars:
            _difference_in_place(vals, ax)
        else:
            # glue mass of interval ((g-1)h, gh] on the other side meets the
            # value at (g-1)h; the origin atom (slot 0) sits exactly at 0
            idx = np.concatenate(([0], np.arange(0, m_res)))
            vals = np.take(vals, idx, axis=ax)
    return vals


def merge_subtree(
    ctx: DecompositionContext,
    i: int,
    bag: StaircaseTable,
    child_tables: Sequence[StaircaseTable],
    budget: Budget | None = None,
) -> StaircaseTable:
    """Combine the bag table with the child subtree tables at bag i.

    Glue variables are contracted by pairing the mass increments of the side
    that is a density in the variable with the other side's value at each
    mass interval's lower end; the sources/terminals the context's merge plan
    freezes are frozen at x / 0, except the root's sources, which stay for
    the final accumulation.  Takes and returns staircase tables.

    The difference form exists only here: the bag table and the result each
    go through one float difference-and-cumulate round trip, and the value
    bits depend on its rounding.  Each step rebinds its name, which frees the
    table it replaces unless the caller holds it.

    ``bag`` may lack the bag's frozen terminal axes (``bag_staircase`` with
    ``fixed``).  Its frozen source axes arrive full-width: after the round
    trip their slab at M depends on the whole axis.  Children never carry a
    frozen axis: a variable frozen at bag i is not in the parent bag, so its
    one edge (v- -> v* or v* -> v+) is owned by bag i and it has no role in
    the subtrees below.  So it is in neither ``S_U`` nor ``T_U``, and the
    child role check rejects any child axis for it.
    """
    budget = budget or Budget.default()
    bag = finite_difference(bag)
    bag = bag.to_cumulative()
    grid = bag.grid
    M = grid.m_res
    # at the root the sources stay for ``accumulate``: taking them at M
    # before the result's round trip would move value bits
    kept, frozen_src = (ctx.S_D[i], frozenset()) if i == ctx.td.root else (ctx.kept[i], ctx.frozen_S[i])
    frozen_term = ctx.frozen_T[i]
    J = ctx.J[i]

    g_vals, g_names = _take_frozen(bag.values, bag.axes, M, frozen_src, frozen_term)
    g_vals = _transform_operand(g_vals, g_names, M, ctx.S_prime[i], kept, J)
    u_vals, u_names = None, []
    if child_tables:
        for t in child_tables:
            if t.grid != grid:
                raise InputError("child tables use a different grid")
            for v, role in t.axes:
                expected = SRC if v in ctx.S_U[i] else TERM if v in ctx.T_U[i] else None
                if role != expected:
                    raise InvariantViolation(
                        f"child variable {v} has role {role!r} in its table, "
                        f"{expected!r} in the uncapped subtree")
        u_vals, u_names = _product_table(child_tables, budget)
        u_vals = _transform_operand(u_vals, u_names, M, ctx.T_prime[i], kept, J)
        budget.charge_cells(int(g_vals.size))
    elif J:
        raise InvariantViolation(f"leaf bag {i} has nonempty glue set {sorted(J)}")

    if J - (set(g_names) & set(u_names)):
        raise InvariantViolation(f"glue variables {sorted(J)} missing from an operand")

    label = {v: k for k, v in enumerate(sorted(set(g_names) | set(u_names)))}
    out_vars = sorted(kept)
    operands = [g_vals, [label[v] for v in g_names]]
    if u_vals is not None:
        operands += [u_vals, [label[v] for v in u_names]]
    out = np.einsum(*operands, [label[v] for v in out_vars])

    axes = []
    for v in out_vars:
        if v in ctx.S_D[i]:
            axes.append((v, SRC))
        elif v in ctx.T_D[i]:
            axes.append((v, TERM))
        else:
            raise InvariantViolation(f"kept variable {v} is neither source nor terminal of the subtree")
    out = StaircaseTable(grid, tuple(axes), out)
    out = out.to_difference()
    return out.to_cumulative()


def _product_table(
    child_tables: Sequence[StaircaseTable], budget: Budget
) -> tuple[np.ndarray, list[int]]:
    """Pointwise product of the child tables over the union of their axes.
    Returns (array, axis vertex ids).  The product's cells are charged before
    anything is allocated."""
    union = sorted({v for t in child_tables for v, _ in t.axes})
    label = {v: k for k, v in enumerate(union)}
    size = child_tables[0].grid.m_res + 1
    budget.charge_cells(size ** len(union))
    full = np.ones((size,) * len(union), dtype=np.float64)
    for t in child_tables:
        # table axes are sorted by vertex, so they sit in the union in order:
        # inserting size-1 dims aligns them for broadcasting
        shape = [1] * len(union)
        for v, _ in t.axes:
            shape[label[v]] = size
        full *= t.values.reshape(shape)
    return full, union


def accumulate(table: StaircaseTable) -> float:
    """Table value with every source shift at x and every terminal shift at
    0: the solver output at z = x*sigma."""
    M = table.grid.m_res
    idx = tuple(M if role == SRC else 0 for _, role in table.axes)
    return float(table.values[idx])


def _bag_shape(
    ctx: DecompositionContext, i: int, fixed: Mapping[int, int]
) -> tuple[tuple, list[int]]:
    """(shape key, vertices in sorted order) of bag i's staircase table.

    The key holds everything ``bag_staircase`` reads of the bag, with each
    vertex replaced by its rank among the bag's vertices: the sorted owned
    edges with their distributions, the sources, the terminals and the
    ``fixed`` indices.  Every step of the build follows vertex order only,
    and ranks keep that order, so bags with one key get bit-identical values
    over axes that differ only in their vertex names.
    """
    edges = sorted(ctx.bag_edges[i])
    verts = sorted({v for e in edges for v in e} | ctx.S[i] | ctx.T[i])
    rank = {v: r for r, v in enumerate(verts)}
    dist_of = ctx.dag.dist_of
    key = (tuple((rank[u], rank[v], dist_of[(u, v)]) for u, v in edges),
           tuple(sorted(rank[v] for v in ctx.S[i])),
           tuple(sorted(rank[v] for v in ctx.T[i])),
           tuple(sorted((rank[v], g) for v, g in fixed.items())))
    return key, verts


def _shape_plan(ctx: DecompositionContext) -> tuple[dict, Counter]:
    """bag -> (shape id, vertices in sorted order, fixed terminals), and the
    number of bags of each shape id."""
    shapes: dict[int, tuple[int, list[int], dict[int, int]]] = {}
    shape_ids: dict[tuple, int] = {}
    for i in ctx.post_order:
        # the merge reads a frozen terminal at 0 only, so build it only there;
        # one with a source role in this bag is left to the merge's role check
        fixed = dict.fromkeys(ctx.frozen_T[i] & ctx.T[i], 0)
        key, verts = _bag_shape(ctx, i, fixed)
        shapes[i] = shape_ids.setdefault(key, len(shape_ids)), verts, fixed
    return shapes, Counter(sid for sid, _, _ in shapes.values())


@dataclass(kw_only=True)
class ApproxReport(SolveReport):
    m_res: int
    epsilon: float | None
    m_from_formula: bool  # False when m_override chose M

    @property
    def guarantee(self) -> dict:
        if self.m_from_formula:
            return {"kind": "multiplicative", "epsilon": float(self.epsilon)}
        return {"kind": "staircase-sandwich"}


def approx_dag(
    g: Dag,
    td: TreeDecomposition | None,
    x: float,
    epsilon: float | None = None,
    m_override: int | None = None,
    budget: Budget | None = None,
) -> tuple[float, ApproxReport]:
    """Full grid-FPTAS pipeline for uniform edge lengths.

    With the formula M the output satisfies the multiplicative ratio bound;
    with an explicit ``m_override`` only the staircase sandwich property is
    promised.  For x < 0 the answer is 0, after the same input checks.
    """
    g.require_homogeneous(DistKind.UNIFORM)
    if epsilon is None and m_override is None:
        raise InputError("need either epsilon or an explicit grid resolution")
    x = finite_horizon(x)
    t0 = time.perf_counter()
    budget = budget or Budget.default()
    ctx = prepare_context(g, td)
    M = m_override if m_override is not None else choose_M(ctx.k, g.n, g.m, float(epsilon))
    grid = GridSpec(M, max(float(x), 0.0))

    # planned when the sweep asks for its first bag table, so x < 0 plans none
    plan = cache(partial(_shape_plan, ctx))
    # shape id -> (axes as vertex ranks, read-only values) of a table that a
    # later bag still needs
    shared: dict[int, tuple[tuple[Axis, ...], np.ndarray]] = {}

    def bag_table(i: int) -> StaircaseTable:
        shapes, uses = plan()
        sid, verts, fixed = shapes.pop(i)
        uses[sid] -= 1
        if sid in shared:
            ranked, values = shared[sid] if uses[sid] else shared.pop(sid)
            # the two charges bag i's own build would make, in its order
            dist_of = ctx.dag.dist_of
            budget.charge_cells(M ** sum(dist_of[e].kind is DistKind.UNIFORM
                                         for e in ctx.bag_edges[i]))
            budget.charge_cells(values.size)
            return StaircaseTable(grid, tuple((verts[r], role) for r, role in ranked), values)
        table = bag_staircase(ctx, i, grid, budget, fixed)
        if uses[sid]:
            table.values.setflags(write=False)
            rank = {v: r for r, v in enumerate(verts)}
            shared[sid] = tuple((rank[v], role) for v, role in table.axes), table.values
        return table

    def solve_bag(i: int, kids: list[StaircaseTable]) -> StaircaseTable:
        return merge_subtree(ctx, i, bag_table(i), kids, budget)

    def describe(i: int, _) -> dict:
        return {"bag_size": len(ctx.td.bags[i]), "edges": len(ctx.bag_edges[i]),
                "active_vars": len(ctx.S[i] | ctx.T[i])}

    def finish(table: StaircaseTable) -> dict:
        return {"value": min(max(accumulate(table), 0.0), 1.0)}

    return solve(ApproxReport, ctx, t0, budget, x, solve_bag, describe, finish,
                 m_res=M, epsilon=epsilon, m_from_formula=m_override is None)
