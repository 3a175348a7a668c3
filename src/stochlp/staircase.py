"""Grid-discretization FPTAS for uniformly distributed edge lengths.

Per bag, the probability that every source-terminal path fits inside its
shifts is approximated by counting 1/M-side cells of the unit box whose
minimal corner satisfies all path constraints (an upper staircase for the
true volume).  Subtree results are combined by summing difference tables over
the glue variables and freezing variables that leave scope.

Difference tables use backward differences with the mass at the grid origin
stored in slot 0, so cumulative and difference forms are exact inverses
(``cumsum`` vs ``diff(prepend=0)``) and a single-bag run reproduces the plain
cell count bit for bit.

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
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np

from .decomposition import (DecompositionContext, SolveReport, TreeDecomposition,
                            prepare_context, sweep)
from .errors import Budget, InputError, InvariantViolation
from .graph import Dag, DistKind

SRC = "s"
TERM = "t"

Axis = tuple[int, str]  # (vertex, role)

CUMULATIVE = "cumulative"
DIFFERENCE = "difference"

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

    def snap(self, vertex_role: str, z: float) -> int:
        """Grid rounding: ceil for source shifts, floor for terminal shifts,
        computed in exact rational arithmetic (no epsilon nudging)."""
        if self.x == 0.0:
            return 0
        ratio = Fraction(self.m_res) * Fraction(z) / Fraction(self.x)
        g = math.ceil(ratio) if vertex_role == SRC else math.floor(ratio)
        return min(max(g, 0), self.m_res)


@dataclass(frozen=True)
class StaircaseTable:
    """Dense table over grid points of the active shift variables.

    ``cumulative`` tables hold staircase values of the shifted distribution
    function; ``difference`` tables hold iterated backward differences along
    every source axis, with slot 0 carrying the value at the axis origin.
    ``to_cumulative`` and ``to_difference`` copy the values once, convert the
    float64 copy in place and leave this table unchanged.
    """

    grid: GridSpec
    axes: tuple[Axis, ...]
    kind: str
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
        if self.kind == CUMULATIVE:
            return self
        vals = np.array(self.values, dtype=np.float64, order="C")
        for ax in self.source_axes():
            np.cumsum(vals, axis=ax, out=vals)
        return StaircaseTable(self.grid, self.axes, CUMULATIVE, vals)

    def to_difference(self) -> "StaircaseTable":
        if self.kind == DIFFERENCE:
            return self
        vals = np.array(self.values, dtype=np.float64, order="C")
        for ax in self.source_axes():
            _difference_in_place(vals, ax)
        return StaircaseTable(self.grid, self.axes, DIFFERENCE, vals)


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


def finite_difference(table: StaircaseTable, roles: Sequence[int] | None = None) -> StaircaseTable:
    """Iterated backward differences along the given source vertices
    (default: all of them); inverse of cumulative summation.  Converts one
    float64 copy in place and leaves ``table`` unchanged."""
    if table.kind != CUMULATIVE:
        raise InputError("finite_difference expects a cumulative table")
    targets = set(roles) if roles is not None else {v for v, r in table.axes if r == SRC}
    axes = []
    for i, (v, role) in enumerate(table.axes):
        if v in targets:
            if role != SRC:
                raise InputError(f"vertex {v} is not a source axis")
            axes.append(i)
    vals = np.array(table.values, dtype=np.float64, order="C")
    for ax in axes:
        _difference_in_place(vals, ax)
    return StaircaseTable(table.grid, table.axes, DIFFERENCE, vals)


def choose_M(k: int, n: int, m: int, epsilon: float) -> int:
    """Grid resolution from the approximation-ratio formula, with the ratio
    target clamped into (0, 1]."""
    if epsilon <= 0:
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


def _assemble_bag_table(
    ctx: DecompositionContext, i: int, grid: GridSpec, budget: Budget
) -> StaircaseTable:
    M = grid.m_res
    pairs, rows, counts = _bag_threshold_rows(ctx, i, grid, budget)
    active = sorted(ctx.S[i] | ctx.T[i])
    axes = tuple((v, SRC if v in ctx.S[i] else TERM) for v in active)
    shape = (M + 1,) * len(axes)
    budget.charge_cells(int(np.prod(shape, dtype=np.int64)))

    r = sum(1 for (u, v) in ctx.bag_edges[i]
            if ctx.dag.dist_of[(u, v)].kind is DistKind.UNIFORM)
    total = float(M**r)
    axis_pos = {v: k for k, v in enumerate(active)}
    grids = []
    for k in range(len(axes)):
        sh = [1] * len(axes)
        sh[k] = M + 1
        grids.append(np.arange(M + 1, dtype=np.int64).reshape(sh))

    if not pairs:
        return StaircaseTable(grid, axes, CUMULATIVE, np.full(shape, counts.sum() / total))

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
            d = grids[axis_pos[s]] - grids[axis_pos[t]]
            pos = np.searchsorted(uniq[p], d, side="right") - 1
            outside.append(pos < 0)
            gather.append(np.broadcast_to(np.maximum(pos, 0), shape))
        values = (hist / total)[tuple(gather)]
        for mask in outside:
            np.copyto(values, 0.0, where=mask)
    else:
        # integer counts below 2**53 add up exactly in float64, so dividing
        # the sum in place gives the bits of the int64 sum divided
        values = np.zeros(shape)
        for row, cnt in zip(rows, counts):
            mask = np.ones(shape, dtype=bool)
            for (s, t), q in zip(pairs, row):
                mask &= (grids[axis_pos[s]] - grids[axis_pos[t]]) >= q
            np.add(values, float(cnt), out=values, where=mask)
        values /= total
    return StaircaseTable(grid, axes, CUMULATIVE, values)


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
    gpt = {v: grid.snap(SRC if v in ctx.S[i] else TERM, z[v]) for v in z}
    total = 0
    for row, cnt in zip(rows, counts):
        if all(gpt[s] - gpt[t] >= q for (s, t), q in zip(pairs, row)):
            total += int(cnt)
    return total


def bag_staircase(
    ctx: DecompositionContext, i: int, grid: GridSpec, budget: Budget | None = None
) -> StaircaseTable:
    """Cumulative staircase table of bag i over its active shift variables."""
    return _assemble_bag_table(ctx, i, grid, budget or Budget.default())


# ---------------------------------------------------------------------------
# subtree merging


def _axis_take(values: np.ndarray, axis: int, index: int) -> np.ndarray:
    return np.take(values, index, axis=axis)


def _transform_operand(
    table: StaircaseTable,
    density_vars: frozenset[int],
    kept: frozenset[int],
    frozen_src: frozenset[int],
    frozen_term: frozenset[int],
    contract: frozenset[int],
) -> tuple[np.ndarray, list[int]]:
    """Freeze out-of-scope axes, difference the density-side glue axes, and
    lag the plain-side glue axes one grid step.

    Returns (array, axis vertex ids).  Kept axes stay cumulative.  The lag
    pairs each glue-mass interval with the value at the interval's lower end,
    which keeps the merged table an upper staircase of the true distribution
    (value monotonicity absorbs the shift into the horizontal error).
    """
    M = table.grid.m_res
    vals = table.to_cumulative().values
    owned = vals is not table.values  # safe to difference in place
    names: list[int] = [v for v, _ in table.axes]
    roles = {v: r for v, r in table.axes}
    for v in sorted(set(names), reverse=True):
        ax = names.index(v)
        if v in kept or v in contract:
            continue
        if v in frozen_src:
            if roles[v] != SRC:
                raise InvariantViolation(f"frozen source {v} has terminal role in operand")
            vals, owned = _axis_take(vals, ax, M), True
            names.pop(ax)
        elif v in frozen_term:
            if roles[v] != TERM:
                raise InvariantViolation(f"frozen terminal {v} has source role in operand")
            vals, owned = _axis_take(vals, ax, 0), True
            names.pop(ax)
        else:
            raise InvariantViolation(f"variable {v} has no role at this merge")
    for v in names:
        ax = names.index(v)
        if v not in contract:
            continue
        if v in density_vars:
            if not owned:
                vals, owned = np.array(vals, dtype=np.float64, order="C"), True
            _difference_in_place(vals, ax)
        else:
            # glue mass of interval ((g-1)h, gh] on the other side meets the
            # value at (g-1)h; the origin atom (slot 0) sits exactly at 0
            idx = np.concatenate(([0], np.arange(0, M)))
            vals, owned = np.take(vals, idx, axis=ax), True
    return vals, names


def merge_subtree(
    ctx: DecompositionContext,
    i: int,
    lam_g: StaircaseTable,
    child_tables: Sequence[StaircaseTable],
    budget: Budget | None = None,
) -> StaircaseTable:
    """Combine the bag table with the child subtree tables at bag i.

    Glue variables are contracted by pairing the mass increments of the side
    that is a density in the variable with the other side's value at each
    mass interval's lower end; sources/terminals leaving scope are frozen at
    x / 0.  At the root, the subtree sources still on an operand's axes stay
    unfrozen for the final accumulation.  Returns the difference table over
    the surviving variables.
    """
    budget = budget or Budget.default()
    grid = lam_g.grid
    kept = ctx.kept(i)
    if i == ctx.td.root:
        alive = {v for t in (lam_g, *child_tables) for v, _ in t.axes}
        kept = ctx.S_D[i] & frozenset(alive)
    J = ctx.J[i]
    frozen_src = ctx.S_D[i] - kept
    frozen_term = ctx.T_D[i] - kept

    g_vals, g_names = _transform_operand(
        lam_g, density_vars=ctx.S_prime[i], kept=kept,
        frozen_src=frozen_src, frozen_term=frozen_term, contract=J,
    )

    if child_tables:
        for t in child_tables:
            if t.grid != grid:
                raise InputError("child tables use a different grid")
        u_table = _product_table(child_tables)
        for v, role in u_table.axes:
            expected = SRC if v in ctx.S_U[i] else TERM if v in ctx.T_U[i] else None
            if role != expected:
                raise InvariantViolation(
                    f"child variable {v} has role {role!r} in its table, "
                    f"{expected!r} in the uncapped subtree")
        u_vals, u_names = _transform_operand(
            u_table, density_vars=ctx.T_prime[i], kept=kept,
            frozen_src=frozen_src, frozen_term=frozen_term, contract=J,
        )
    else:
        if J:
            raise InvariantViolation(f"leaf bag {i} has nonempty glue set {sorted(J)}")
        u_vals, u_names = None, []

    if J - (set(g_names) & set(u_names)):
        raise InvariantViolation(f"glue variables {sorted(J)} missing from an operand")

    label = {v: k for k, v in enumerate(sorted(set(g_names) | set(u_names)))}
    out_vars = sorted(kept)
    if u_vals is None:
        out = np.einsum(g_vals, [label[v] for v in g_names], [label[v] for v in out_vars])
    else:
        budget.charge_cells(int(g_vals.size) + int(u_vals.size))
        out = np.einsum(
            g_vals, [label[v] for v in g_names],
            u_vals, [label[v] for v in u_names],
            [label[v] for v in out_vars],
        )

    axes = []
    for v in out_vars:
        if v in ctx.S_D[i]:
            axes.append((v, SRC))
        elif v in ctx.T_D[i]:
            axes.append((v, TERM))
        else:
            raise InvariantViolation(f"kept variable {v} is neither source nor terminal of the subtree")
    cum = StaircaseTable(grid, tuple(axes), CUMULATIVE, out)
    return cum.to_difference()


def _product_table(child_tables: Sequence[StaircaseTable]) -> StaircaseTable:
    """Cumulative pointwise product of the child tables over the union of
    their axes, which keep the children's roles (shared axes must agree)."""
    roles: dict[int, str] = {}
    for t in child_tables:
        for v, r in t.axes:
            if roles.setdefault(v, r) != r:
                raise InvariantViolation(f"variable {v} has conflicting roles across children")
    union = sorted(roles)
    label = {v: k for k, v in enumerate(union)}
    size = child_tables[0].grid.m_res + 1
    full = np.ones((size,) * len(union), dtype=np.float64)
    for t in child_tables:
        cum = t.to_cumulative()
        # table axes are sorted by vertex, so they sit in the union in order:
        # inserting size-1 dims aligns them for broadcasting
        shape = [1] * len(union)
        for v, _ in cum.axes:
            shape[label[v]] = size
        full *= cum.values.reshape(shape)
    return StaircaseTable(child_tables[0].grid, tuple(sorted(roles.items())), CUMULATIVE, full)


def accumulate(table: StaircaseTable) -> float:
    """Cumulative value with every source shift at x and every terminal shift
    at 0: the solver output at z = x*sigma."""
    cum = table.to_cumulative()
    M = table.grid.m_res
    idx = tuple(M if role == SRC else 0 for _, role in cum.axes)
    return float(cum.values[idx]) if cum.axes else float(cum.values)


@dataclass(kw_only=True)
class ApproxReport(SolveReport):
    m_res: int
    epsilon: float | None
    cells_used: int


def approx_dag(
    g: Dag,
    td: TreeDecomposition | None,
    x: float,
    epsilon: float | None = None,
    m_override: int | None = None,
    max_cells: int | None = None,
) -> tuple[float, ApproxReport]:
    """Full grid-FPTAS pipeline for uniform edge lengths.

    With the formula M the output satisfies the multiplicative ratio bound;
    with an explicit ``m_override`` only the staircase sandwich property is
    promised.
    """
    g.require_homogeneous(DistKind.UNIFORM)
    if epsilon is None and m_override is None:
        raise InputError("need either epsilon or an explicit grid resolution")
    t0 = time.perf_counter()
    if x < 0:
        raise InputError("horizon x must be >= 0")
    ctx, _, td_bin = prepare_context(g, td)
    M = m_override if m_override is not None else choose_M(td_bin.width, g.n, g.m, float(epsilon))
    grid = GridSpec(M, float(x))
    budget = Budget.default(max_cells=max_cells)

    def solve_bag(i: int, kids: list[StaircaseTable]) -> StaircaseTable:
        lam_g = finite_difference(bag_staircase(ctx, i, grid, budget))
        return merge_subtree(ctx, i, lam_g, kids, budget)

    def describe(i: int, _) -> dict:
        return {"bag_size": len(ctx.td.bags[i]), "edges": len(ctx.bag_edges[i]),
                "active_vars": len(ctx.S[i] | ctx.T[i])}

    table, per_bag = sweep(ctx, solve_bag, describe)
    value = accumulate(table)
    value = min(max(value, 0.0), 1.0)
    return value, ApproxReport.of(ctx, t0, value=value, m_res=M, epsilon=epsilon,
                                  cells_used=budget.cells_used, per_bag=per_bag)
