import math
import random
import tracemalloc
import weakref
from fractions import Fraction

import numpy as np
import pytest

from stochlp import (
    Dag,
    DistKind,
    DistSpec,
    GridSpec,
    InputError,
    InvariantViolation,
    StaircaseTable,
    TreeDecomposition,
    accumulate,
    approx_dag,
    bag_staircase,
    choose_M,
    finite_difference,
    irwin_hall,
    merge_subtree,
    parse_graph,
    riemann_bracket,
)
from stochlp.errors import Budget, BudgetExceeded
from stochlp.generate import gen_chain, gen_diamond_ladder, gen_random_tw, generate
from conftest import assert_shared_report, single_bag_context
from reference import approx_dag_unshared, bag_cell_count, bag_shape


def one_edge_ctx(scale: int = 1):
    g = Dag(n=2, edges=((0, 1, DistSpec.uniform(scale)),))
    return single_bag_context(g)


class TestChooseM:
    def test_formula_values(self):
        assert choose_M(1, 2, 1, 1.0) == 24
        assert choose_M(1, 4, 4, 0.5) == 384

    def test_epsilon_clamped(self):
        assert choose_M(1, 2, 1, 2.0) == choose_M(1, 2, 1, 1.0)

    def test_bad_epsilon(self):
        with pytest.raises(InputError):
            choose_M(1, 2, 1, 0.0)

    def test_nan_epsilon_rejected(self):
        with pytest.raises(InputError, match="epsilon must be positive"):
            choose_M(1, 2, 1, math.nan)
        g = parse_graph("2 1\n1 2 uniform 1\n")
        with pytest.raises(InputError, match="epsilon must be positive"):
            approx_dag(g, None, 0.5, epsilon=math.nan)


class TestBagCellCount:
    def test_full_box(self):
        ctx = one_edge_ctx()
        grid = GridSpec(4, 1.0)
        assert bag_cell_count(ctx, 0, {0: 1.0, 1: 0.0}, grid) == 4

    def test_half_box(self):
        # corners 0, 1/4 and 2/4 all satisfy corner <= 0.5 (step functions
        # include their boundary), so three cells intersect
        ctx = one_edge_ctx()
        grid = GridSpec(4, 1.0)
        assert bag_cell_count(ctx, 0, {0: 0.5, 1: 0.0}, grid) == 3

    def test_zero_corner(self):
        ctx = one_edge_ctx()
        grid = GridSpec(4, 1.0)
        assert bag_cell_count(ctx, 0, {0: 0.0, 1: 0.0}, grid) == 1

    def test_snap_ceil_floor(self):
        ctx = one_edge_ctx()
        grid = GridSpec(4, 1.0)
        # z[s] = 0.3 snaps up to 0.5 for sources (ceil)
        assert bag_cell_count(ctx, 0, {0: 0.3, 1: 0.0}, grid) == bag_cell_count(
            ctx, 0, {0: 0.5, 1: 0.0}, grid
        )
        # z[t] = 0.3 snaps down to 0.25 for terminals (floor)
        assert bag_cell_count(ctx, 0, {0: 1.0, 1: 0.3}, grid) == bag_cell_count(
            ctx, 0, {0: 1.0, 1: 0.25}, grid
        )


class TestBagStaircase:
    def test_full_value_one(self):
        ctx = one_edge_ctx()
        table = bag_staircase(ctx, 0, GridSpec(4, 1.0))
        assert table.values[4, 0] == 1.0

    def test_half(self):
        ctx = one_edge_ctx()
        table = bag_staircase(ctx, 0, GridSpec(4, 1.0))
        assert table.values[2, 0] == 0.75  # three of four cells intersect

    def test_empty_edge_bag_is_one(self):
        # two identical bags: the lower one owns no edges
        g = Dag(n=2, edges=((0, 1, DistSpec.uniform(1)),))
        td = TreeDecomposition((frozenset({0, 1}), frozenset({0, 1})), ((0, 1),))
        from stochlp import build_context

        ctx = build_context(g, td)
        empty = [i for i in range(2) if not ctx.bag_edges[i]][0]
        table = bag_staircase(ctx, empty, GridSpec(4, 1.0))
        assert table.axes == () and float(table.values) == 1.0

    def test_monotone_and_bounded(self):
        for seed in range(5):
            inst = gen_random_tw(2, 4, seed=seed, max_edges=5)
            from stochlp.decomposition import prepare_context

            ctx = prepare_context(inst.dag, inst.td)
            grid = GridSpec(6, 1.3)
            for i in ctx.post_order:
                t = bag_staircase(ctx, i, grid)
                assert t.values.min() >= 0 and t.values.max() <= 1 + 1e-12
                for ax, (_, role) in enumerate(t.axes):
                    d = np.diff(t.values, axis=ax)
                    assert (d >= -1e-12).all() if role == "s" else (d <= 1e-12).all()


class TestFiniteDifference:
    def test_constant_gives_zero(self):
        grid = GridSpec(4, 1.0)
        table = StaircaseTable(grid, ((0, "s"),), np.full(5, 0.7))
        lam = finite_difference(table)
        assert np.allclose(lam.values[1:], 0.0)
        assert lam.values[0] == 0.7

    def test_linear_staircase(self):
        ctx = one_edge_ctx()
        table = bag_staircase(ctx, 0, GridSpec(4, 1.0))
        lam = finite_difference(table)
        # values along the source axis at terminal 0: (0,.25,.5,.75,1)
        assert list(table.values[:, 0]) == [0.25, 0.5, 0.75, 1.0, 1.0]
        assert list(lam.values[1:, 0]) == [0.25, 0.25, 0.25, 0.0]
        assert lam.values[0, 0] == table.values[0, 0]

    def test_two_source_product(self):
        M = 4
        grid = GridSpec(M, 1.0)
        g1 = np.arange(M + 1).reshape(-1, 1)
        g2 = np.arange(M + 1).reshape(1, -1)
        vals = (g1 * g2).astype(float) / M**2
        table = StaircaseTable(grid, ((0, "s"), (1, "s")), vals)
        lam = finite_difference(table)
        assert np.allclose(lam.values[1:, 1:], 1.0 / M**2)

    def test_reconstruction_exact(self):
        ctx = one_edge_ctx()
        table = bag_staircase(ctx, 0, GridSpec(5, 0.8))
        lam = finite_difference(table)
        assert np.allclose(lam.to_cumulative().values, table.values)


class TestMergeAndAccumulate:
    def test_single_bag_accumulate_equals_cell_count(self):
        ctx = one_edge_ctx()
        grid = GridSpec(24, 0.5)
        out = merge_subtree(ctx, 0, bag_staircase(ctx, 0, grid), [])
        v = accumulate(out)
        assert v == pytest.approx(13 / 24)

    def test_leaf_convention_identity(self):
        # a leaf whose variables all live in the parent keeps its table
        g = parse_graph("2 1\n1 2 uniform 1\n")
        td = TreeDecomposition((frozenset({0, 1}), frozenset({0, 1})), ((0, 1),))
        from stochlp import build_context

        ctx = build_context(g, td)
        leaf = [i for i in range(2) if ctx.children[i] == ()][0]
        grid = GridSpec(4, 1.0)
        table = bag_staircase(ctx, leaf, grid)
        out = merge_subtree(ctx, leaf, table, [])
        assert out.axes == table.axes
        assert np.allclose(out.values, table.values)

    def test_merged_dominates_direct_count(self):
        # two-bag separated chain: the merged value is an upper staircase of
        # the direct two-dimensional cell count at the same resolution
        g = parse_graph("3 2\n1 2 uniform 1\n2 3 uniform 1\n")
        td = parse_td_chain()
        from stochlp.decomposition import prepare_context

        for M in (4, 8, 16):
            for x in (1.0, 0.8, 1.37):
                v, _ = approx_dag(g, td, x, m_override=M)
                direct = sum(
                    1
                    for g1 in range(M)
                    for g2 in range(M)
                    if g1 / M + g2 / M <= x
                ) / M**2
                assert v >= direct - 1e-12

    def test_child_role_must_match_uncapped_subtree(self):
        # a child table whose axis role disagrees with S_U/T_U of the parent
        # bag is a bug upstream; the merge must not cumulate along it anyway
        g = parse_graph("3 2\n1 2 uniform 1\n2 3 uniform 1\n")
        from stochlp.decomposition import prepare_context

        ctx = prepare_context(g, parse_td_chain())
        grid = GridSpec(4, 1.0)
        leaf = next(i for i in ctx.post_order if not ctx.children[i])
        child = merge_subtree(ctx, leaf, bag_staircase(ctx, leaf, grid), [])
        (v, role), *rest = child.axes
        flipped = StaircaseTable(grid, ((v, "t" if role == "s" else "s"), *rest), child.values)
        parent = ctx.parent[leaf]
        lam = bag_staircase(ctx, parent, grid)
        merge_subtree(ctx, parent, lam, [child])
        with pytest.raises(InvariantViolation, match=f"child variable {v} has role"):
            merge_subtree(ctx, parent, lam, [flipped])
        # a variable frozen at the parent has no role in the uncapped subtree,
        # so a child axis for it is rejected, not sliced; the parent is the
        # root, where the grid merge freezes the terminals only
        assert parent == ctx.td.root
        f, role = min(ctx.frozen_T[parent]), "t"
        axes = tuple(sorted((*child.axes, (f, role))))
        pos = axes.index((f, role))
        extra = StaircaseTable(grid, axes, np.stack([child.values] * (grid.m_res + 1), axis=pos))
        with pytest.raises(InvariantViolation, match=f"child variable {f} has role"):
            merge_subtree(ctx, parent, lam, [extra])

    def test_x_beyond_support_is_one(self):
        g = parse_graph("3 2\n1 2 uniform 1\n2 3 uniform 1\n")
        v, _ = approx_dag(g, None, 2.0, m_override=8)
        assert v == 1.0

    def test_x_zero_counts_origin_cells(self):
        g = parse_graph("3 2\n1 2 uniform 1\n2 3 uniform 1\n")
        v, _ = approx_dag(g, None, 0.0, m_override=8)
        assert v == pytest.approx(8.0**-2)

    def test_negative_x_still_validates_inputs(self):
        g = parse_graph("3 2\n1 2 uniform 1\n2 3 uniform 1\n")
        td = TreeDecomposition((frozenset({0, 1}),), ())  # vertex 2 in no bag
        with pytest.raises(InputError, match="condition1"):
            approx_dag(g, td, -1, m_override=8)
        with pytest.raises(InputError, match="epsilon must be positive"):
            approx_dag(g, None, -1, epsilon=0)
        with pytest.raises(InputError, match="grid resolution must be >= 1"):
            approx_dag(g, None, -1, m_override=0)
        with pytest.raises(InputError, match="horizon must be finite"):
            approx_dag(g, None, -math.inf, m_override=8)
        b = Budget()
        v, rep = approx_dag(g, None, -1, epsilon=0.5, budget=b)
        assert v == 0.0 and rep.m_res == approx_dag(g, None, 1, epsilon=0.5)[1].m_res
        assert_shared_report(rep, g, None, b)
        assert rep.per_bag == [] and b.cells_used == 0


def parse_td_chain():
    from stochlp import parse_td

    g = parse_graph("3 2\n1 2 uniform 1\n2 3 uniform 1\n")
    return parse_td("s td 2 2 3\nb 1 1 2\nb 2 2 3\n1 2\n").relabel(
        {label: i for i, label in enumerate(g.labels)}
    )


class TestApproxDag:
    def test_per_bag_records(self):
        inst = gen_diamond_ladder(2, dist="uniform")
        b = Budget()
        _, rep = approx_dag(inst.dag, inst.td, 2.0, m_override=4, budget=b)
        assert_shared_report(rep, inst.dag, inst.td, b)
        assert sorted(r["bag"] for r in rep.per_bag) == list(range(rep.bag_count))
        for r in rep.per_bag:
            assert list(r) == ["bag", "bag_size", "edges", "active_vars", "elapsed_ms"]

    def test_formula_m_single_edge(self):
        g = parse_graph("2 1\n1 2 uniform 1\n")
        v, rep = approx_dag(g, None, 0.5, epsilon=1.0)
        assert rep.m_res == 24
        assert 0.5 <= v <= 0.75
        assert v / 0.5 <= 2.0

    def test_scaling_symmetry(self):
        g = parse_graph("2 1\n1 2 uniform 2\n")
        v, _ = approx_dag(g, None, 1.0, epsilon=1.0)
        assert v >= 0.5 and v / 0.5 <= 2.0

    def test_sandwich_on_small_corpus(self):
        corpus = [
            gen_chain(3, dist="uniform"),
            gen_chain(3, dist="uniform-mixed", seed=2),
            gen_diamond_ladder(1, dist="uniform"),
            gen_random_tw(2, 4, seed=1, dist="uniform-mixed", max_edges=5),
        ]
        for inst in corpus:
            g, td = inst.dag, inst.td
            amax = sum(d.scale for _, _, d in g.edges)
            for x in (amax * 0.33, amax * 0.71):
                for M in (8, 16):
                    v, rep = approx_dag(g, td, x, m_override=M)
                    lo = riemann_bracket(g, x, 8).lower_float
                    infl = x * (1 + (rep.separated_width + 1) * rep.separated_n / M)
                    hi = riemann_bracket(g, infl, 8).upper_float
                    assert lo - 1e-12 <= v <= hi + 1e-12

    def test_monotone_in_x_and_bounded(self):
        inst = gen_random_tw(2, 4, seed=4, dist="uniform", max_edges=5)
        g, td = inst.dag, inst.td
        amax = sum(d.scale for _, _, d in g.edges)
        vals = []
        for j in range(6):
            v, _ = approx_dag(g, td, amax * j / 5.0, m_override=8)
            assert 0.0 <= v <= 1.0
            vals.append(v)
        assert vals == sorted(vals)

    def test_convergence_bracket_shrinks(self):
        g = parse_graph("3 2\n1 2 uniform 1\n2 3 uniform 1\n")
        errs = []
        for M in (8, 16, 32, 64):
            v, _ = approx_dag(g, None, 1.0, m_override=M)
            errs.append(abs(v - 0.5))
        assert all(errs[i + 1] <= errs[i] + 1e-12 for i in range(len(errs) - 1))

    def test_permutation_invariance(self):
        # same diamond with two different topological labelings
        g1 = parse_graph("4 4\n1 2 uniform 1\n1 3 uniform 2\n2 4 uniform 2\n3 4 uniform 1\n")
        g2 = parse_graph("4 4\n1 3 uniform 1\n1 2 uniform 2\n3 4 uniform 2\n2 4 uniform 1\n")
        v1, _ = approx_dag(g1, None, 1.5, m_override=8)
        v2, _ = approx_dag(g2, None, 1.5, m_override=8)
        assert v1 == pytest.approx(v2, abs=1e-12)

    def test_mixed_distribution_rejected(self):
        g = parse_graph("3 2\n1 2 uniform 1\n2 3 exp\n")
        with pytest.raises(InputError):
            approx_dag(g, None, 1.0, epsilon=1.0)

    def test_budget_abort(self):
        g = parse_graph("3 2\n1 2 uniform 1\n2 3 uniform 1\n")
        with pytest.raises(BudgetExceeded):
            approx_dag(g, None, 1.0, m_override=64, budget=Budget.default(max_cells=10))

    def test_charges_given_budget(self):
        inst = gen_diamond_ladder(2, dist="uniform")
        b = Budget()
        _, rep = approx_dag(inst.dag, inst.td, 2.0, m_override=4, budget=b)
        assert rep.cells_used == b.cells_used > 0

    def test_deterministic_bits(self):
        inst = gen_random_tw(2, 4, seed=8, dist="uniform-mixed", max_edges=5)
        v1, _ = approx_dag(inst.dag, inst.td, 1.23, m_override=8)
        v2, _ = approx_dag(inst.dag, inst.td, 1.23, m_override=8)
        assert v1 == v2

    def test_negative_x_plans_no_bag_shape(self, monkeypatch):
        def unplanned(*args, **kwargs):
            raise AssertionError("bag shapes planned for x < 0")

        monkeypatch.setattr("stochlp.staircase._bag_shape", unplanned)
        inst = gen_diamond_ladder(2, dist="uniform")
        v, rep = approx_dag(inst.dag, inst.td, -1, m_override=4)
        assert v == 0.0 and rep.per_bag == []

    @pytest.mark.parametrize("epsilon, m_override, guarantee", [
        (0.5, None, {"kind": "multiplicative", "epsilon": 0.5}),
        (None, 8, {"kind": "staircase-sandwich"}),
        (0.5, 8, {"kind": "staircase-sandwich"}),  # the override wins
    ])
    def test_guarantee_says_where_m_came_from(self, epsilon, m_override, guarantee):
        g = parse_graph("2 1\n1 2 uniform 1\n")
        for x in (0.5, -1.0):
            _, rep = approx_dag(g, None, x, epsilon=epsilon, m_override=m_override)
            assert rep.m_from_formula is (m_override is None)
            assert rep.guarantee == guarantee

    @pytest.mark.xfail(strict=True, reason="the formula grid is 1/M of each edge's range "
                       "whatever x is, so a horizon below a cell breaks the ratio")
    def test_formula_m_keeps_ratio_at_small_horizon(self):
        g = parse_graph("2 1\n1 2 uniform 1\n")
        x = 1 / 128
        v, rep = approx_dag(g, None, x, epsilon=0.5)
        assert rep.guarantee == {"kind": "multiplicative", "epsilon": 0.5}
        # reads 1/48 at M=48 against the exact x, a ratio of 2.67
        assert 1.0 <= v / x <= 1.5


class TestDegenerateShapes:
    def test_single_vertex_graph(self):
        g = parse_graph("1 0\n")
        v, _ = approx_dag(g, None, 0.5, m_override=4)
        assert v == 1.0

    def test_isolated_vertex(self):
        g = parse_graph("4 2\n1 2 uniform 1\n2 3 uniform 1\n")
        v, _ = approx_dag(g, None, 1.0, m_override=16)
        g_plain = parse_graph("3 2\n1 2 uniform 1\n2 3 uniform 1\n")
        v_plain, _ = approx_dag(g_plain, None, 1.0, m_override=16)
        assert v == pytest.approx(v_plain, abs=1e-12)


class TestDominanceCountFallback:
    @pytest.mark.parametrize("m_res", [6, 12])
    def test_row_loop_matches_histogram(self, monkeypatch, m_res):
        # lowering the histogram limit forces the row-by-row count
        from stochlp import staircase
        from stochlp.decomposition import prepare_context

        grid = GridSpec(m_res, 1.7)
        for inst in (gen_random_tw(2, 6, seed=4, dist="uniform-mixed", max_edges=8),
                     gen_diamond_ladder(2, dist="uniform-mixed")):
            ctx = prepare_context(inst.dag, inst.td)
            dense = [bag_staircase(ctx, i, grid) for i in ctx.post_order]
            monkeypatch.setattr(staircase, "DENSE_HISTOGRAM_CELLS", 0)
            looped = [bag_staircase(ctx, i, grid) for i in ctx.post_order]
            monkeypatch.undo()
            for a, b in zip(dense, looped):
                assert a.axes == b.axes
                assert np.array_equal(a.values, b.values)


def _bits(values):
    return np.asarray(values, dtype=np.float64).view(np.int64)


def _reference_bag_values(ctx, i, grid):
    """The bag table as an int64 count of admitted corners per grid point,
    divided once: the row-by-row count with no in-place step."""
    from stochlp.staircase import _bag_threshold_rows

    pairs, rows, counts = _bag_threshold_rows(ctx, i, grid, Budget.default())
    active = sorted(ctx.S[i] | ctx.T[i])
    shape = (grid.m_res + 1,) * len(active)
    pts = np.indices(shape)
    at = {v: pts[k] for k, v in enumerate(active)}
    acc = np.zeros(shape, dtype=np.int64)
    for row, cnt in zip(rows, counts):
        mask = np.ones(shape, dtype=bool)
        for (s, t), q in zip(pairs, row):
            mask &= at[s] - at[t] >= q
        acc += int(cnt) * mask
    total = float(grid.m_res ** sum(1 for e in ctx.bag_edges[i]
                                    if ctx.dag.dist_of[e].kind is DistKind.UNIFORM))
    return acc / total


class TestInPlaceConversions:
    """Conversions copy once and work in place: the bits of np.diff and
    np.cumsum, and the input table untouched."""

    ROLES = ("s", "t", "s", "s", "t")

    def _table(self, m_res, roles, seed=0):
        rng = np.random.default_rng(seed)
        vals = rng.random((m_res + 1,) * len(roles))
        axes = tuple((v, r) for v, r in enumerate(roles))
        return StaircaseTable(GridSpec(m_res, 1.0), axes, vals)

    @staticmethod
    def _np_difference(values, axes):
        for ax in axes:
            values = np.diff(values, axis=ax, prepend=0.0)
        return values

    @staticmethod
    def _np_cumulative(values, axes):
        for ax in axes:
            values = np.cumsum(values, axis=ax)
        return values

    def test_one_axis(self):
        cum = self._table(24, ("s",))
        diff = self._table(24, ("s",), seed=1)
        assert np.array_equal(_bits(finite_difference(cum).values),
                              _bits(np.diff(cum.values, prepend=0.0)))
        assert np.array_equal(_bits(diff.to_cumulative().values), _bits(np.cumsum(diff.values)))
        assert np.array_equal(_bits(cum.to_difference().values),
                              _bits(np.diff(cum.values, prepend=0.0)))

    @pytest.mark.parametrize("m_res, chunk", [(4, 1), (6, 50), (6, 7**4 - 1), (6, None)])
    def test_five_axes_any_chunk(self, monkeypatch, m_res, chunk):
        # chunks below one slab ((M+1)**4 cells) split each slab of the pass
        from stochlp import staircase

        if chunk is not None:
            monkeypatch.setattr(staircase, "DIFF_CHUNK_CELLS", chunk)
        src = [ax for ax, r in enumerate(self.ROLES) if r == "s"]
        cum = self._table(m_res, self.ROLES)
        diff = self._table(m_res, self.ROLES, seed=1)
        expect = _bits(self._np_difference(cum.values, src))
        assert np.array_equal(_bits(finite_difference(cum).values), expect)
        assert np.array_equal(_bits(cum.to_difference().values), expect)
        assert np.array_equal(_bits(diff.to_cumulative().values),
                              _bits(self._np_cumulative(diff.values, src)))

    def test_non_contiguous_input(self):
        vals = np.random.default_rng(2).random((9, 9)).T
        cum = StaircaseTable(GridSpec(8, 1.0), ((0, "s"), (1, "s")), vals)
        assert np.array_equal(_bits(finite_difference(cum).values),
                              _bits(self._np_difference(vals, [0, 1])))

    def test_input_unchanged(self):
        cum = self._table(6, self.ROLES)
        diff = self._table(6, self.ROLES, seed=1)
        before_cum, before_diff = cum.values.copy(), diff.values.copy()
        finite_difference(cum)
        cum.to_difference()
        diff.to_cumulative()
        assert np.array_equal(_bits(cum.values), _bits(before_cum))
        assert np.array_equal(_bits(diff.values), _bits(before_diff))

    def test_merge_leaves_operands_unchanged(self):
        from stochlp.decomposition import prepare_context

        inst = gen_diamond_ladder(2, dist="uniform-mixed")
        ctx = prepare_context(inst.dag, inst.td)
        grid = GridSpec(6, 3.1)
        done = {}
        for i in ctx.post_order:
            lam = bag_staircase(ctx, i, grid)
            kids = [done.pop(j) for j in ctx.children[i]]
            before = [t.values.copy() for t in (lam, *kids)]
            done[i] = merge_subtree(ctx, i, lam, kids)
            for t, b in zip((lam, *kids), before):
                assert np.array_equal(_bits(t.values), _bits(b))

    @pytest.mark.parametrize("histogram", [True, False])
    def test_bag_table_bits(self, monkeypatch, histogram):
        from stochlp import staircase
        from stochlp.decomposition import prepare_context

        if not histogram:
            monkeypatch.setattr(staircase, "DENSE_HISTOGRAM_CELLS", 0)
        grid = GridSpec(7, 1.9)
        for inst in (gen_random_tw(2, 6, seed=4, dist="uniform-mixed", max_edges=8),
                     gen_diamond_ladder(2, dist="uniform-mixed"), gen_chain(4)):
            ctx = prepare_context(inst.dag, inst.td)
            for i in ctx.post_order:
                got = bag_staircase(ctx, i, grid).values
                assert got.dtype == np.float64
                assert np.array_equal(_bits(got), _bits(_reference_bag_values(ctx, i, grid)))

    def test_build_and_difference_peak_memory(self):
        # the largest bag of the 2-diamond ladder has 5 active axes: a 25**5
        # float64 table of 78 MB at M=24; building it and differencing one
        # copy should need little beyond those two tables
        from stochlp.decomposition import prepare_context

        inst = generate("diamond-ladder", 2, dist="uniform")
        ctx = prepare_context(inst.dag, inst.td)
        i = max(ctx.post_order, key=lambda j: len(ctx.S[j] | ctx.T[j]))
        grid = GridSpec(24, 2.0)
        tracemalloc.start()
        try:
            lam = finite_difference(bag_staircase(ctx, i, grid))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert lam.values.ndim == 5
        ratio = peak / lam.values.nbytes
        assert ratio <= 2.2, f"build plus difference peaked at {ratio:.2f}x the table"


def _full_table_value(ctx, grid, budget):
    """The grid value from full bag tables: the sweep of ``approx_dag`` with
    no bag axis sliced before the merge freezes it."""
    done = {}
    for i in ctx.post_order:
        lam = bag_staircase(ctx, i, grid, budget)
        done[i] = merge_subtree(ctx, i, lam, [done.pop(j) for j in ctx.children[i]], budget)
    return min(max(accumulate(done[ctx.td.root]), 0.0), 1.0)


class TestFrozenAxesNeverBuilt:
    """Slicing a frozen axis before it is built leaves every value's bits."""

    @pytest.mark.parametrize("histogram", [True, False])
    def test_fixed_bag_table_is_a_slice_of_the_full_table(self, monkeypatch, histogram):
        from stochlp import staircase
        from stochlp.decomposition import prepare_context

        if not histogram:
            monkeypatch.setattr(staircase, "DENSE_HISTOGRAM_CELLS", 0)
        grid = GridSpec(7, 1.9)
        M = grid.m_res
        rng = random.Random(5)
        for inst in (gen_random_tw(2, 6, seed=4, dist="uniform-mixed", max_edges=8),
                     gen_diamond_ladder(2, dist="uniform-mixed"), gen_chain(4)):
            ctx = prepare_context(inst.dag, inst.td)
            for i in ctx.post_order:
                full = bag_staircase(ctx, i, grid)
                names = [v for v, _ in full.axes]
                picked = rng.sample(names, rng.randint(0, len(names)))
                for fixed in ({v: 0 for v, r in full.axes if r == "t"},
                              {v: M for v, r in full.axes if r == "s"},
                              {v: rng.randint(0, M) for v in picked},
                              {v: rng.randint(0, M) for v in names}):
                    got = bag_staircase(ctx, i, grid, fixed=fixed)
                    expect = full.values
                    for ax in reversed(range(len(names))):
                        if names[ax] in fixed:
                            expect = np.take(expect, fixed[names[ax]], axis=ax)
                    assert got.axes == tuple(a for a in full.axes if a[0] not in fixed)
                    assert np.array_equal(_bits(got.values), _bits(expect))

    def test_fixed_outside_bag_or_grid_rejected(self):
        ctx = one_edge_ctx()
        grid = GridSpec(4, 1.0)
        for fixed in ({7: 0}, {1: 5}, {0: -1}):
            with pytest.raises(InputError, match="cannot fix"):
                bag_staircase(ctx, 0, grid, fixed=fixed)

    @pytest.mark.parametrize("m_res", [6, 7, 12])
    def test_approx_dag_matches_full_table_sweep(self, m_res):
        from stochlp.decomposition import prepare_context

        corpus = [gen_random_tw(2, 6, seed=s, dist="uniform-mixed", max_edges=8) for s in range(4)]
        corpus += [gen_diamond_ladder(d, dist="uniform-mixed") for d in (1, 2, 3)]
        corpus += [gen_chain(5, dist="uniform-mixed", seed=1)]
        sliced = 0
        for inst in corpus:
            amax = sum(d.scale for _, _, d in inst.dag.edges)
            for td in (inst.td, None):
                ctx = prepare_context(inst.dag, td)
                for x in (amax * 0.37, amax * 0.71):
                    full_budget, budget = Budget(), Budget()
                    want = _full_table_value(ctx, GridSpec(m_res, x), full_budget)
                    got, _ = approx_dag(inst.dag, td, x, m_override=m_res, budget=budget)
                    assert _bits(got) == _bits(want), (inst.dag.n, td is None, x)
                    assert budget.cells_used <= full_budget.cells_used
                    sliced += budget.cells_used < full_budget.cells_used
        assert sliced > 0

    def test_approx_dag_peak_memory(self):
        # the 2-diamond ladder at M=24 built 25**5-cell tables (78 MB) and
        # read a 25**3 part of them; no caller holds a bag's difference table
        # through the merge, which keeps the peak near 10.5 MB
        inst = generate("diamond-ladder", 2, dist="uniform")
        tracemalloc.start()
        try:
            approx_dag(inst.dag, inst.td, 2.0, m_override=24)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 12e6, f"approx_dag peaked at {peak / 1e6:.1f} MB"

    def test_product_charged_before_it_is_allocated(self):
        from stochlp.decomposition import prepare_context

        inst = gen_random_tw(3, 10, seed=1, dist="uniform", max_edges=20)
        ctx = prepare_context(inst.dag, None)
        grid = GridSpec(24, 2.0)

        def product_cells(i):
            kid_vars = {v for j in ctx.children[i] for v in ctx.kept[j]}
            return (grid.m_res + 1) ** len(kid_vars)

        target = max(ctx.post_order, key=product_cells)
        cells = product_cells(target)
        done = {}
        for i in ctx.post_order:
            kids = [done.pop(j) for j in ctx.children[i]]
            if i == target:
                break
            done[i] = merge_subtree(ctx, i, bag_staircase(ctx, i, grid), kids)
        budget = Budget.default(max_cells=cells - 1)
        lam = bag_staircase(ctx, target, grid, budget)
        assert 8 * cells >= 1e6 and lam.values.size < cells
        tracemalloc.start()
        try:
            with pytest.raises(BudgetExceeded):
                merge_subtree(ctx, target, lam, kids, budget)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * cells, f"peaked at {peak} bytes before a {8 * cells}-byte product"


def _shape_corpus():
    """Instances with repeated and with distinct edge scales."""
    out = []
    for dist, seed in (("uniform", 0), ("uniform-mixed", 1)):
        out += [gen_chain(9, dist, seed=seed), gen_diamond_ladder(3, dist, seed=seed),
                gen_random_tw(2, 6, seed=seed + 2, dist=dist, max_edges=8)]
    return out


def _record_calls(monkeypatch, name):
    """Wrap ``staircase.<name>`` so that each call's arguments and result are
    appended to the returned list."""
    from stochlp import staircase

    calls = []
    real = getattr(staircase, name)

    def wrapper(*args, **kwargs):
        out = real(*args, **kwargs)
        calls.append((args, out))
        return out

    monkeypatch.setattr(staircase, name, wrapper)
    return calls


class TestSharedBagTables:
    """``approx_dag`` builds one staircase table per bag shape and hands it to
    every bag of that shape, with no bit, cell count or budget abort moved."""

    @pytest.mark.parametrize("m_res", [6, 12])
    def test_matches_sweep_that_builds_every_bag(self, monkeypatch, m_res):
        from stochlp.decomposition import prepare_context

        builds = _record_calls(monkeypatch, "bag_staircase")
        bags = shapes = 0
        for inst in _shape_corpus():
            amax = sum(d.scale for _, _, d in inst.dag.edges)
            for td in (inst.td, None):
                ctx = prepare_context(inst.dag, td)
                bags += ctx.b
                shapes += len({bag_shape(ctx, i) for i in ctx.post_order})
                x = amax * 0.17  # values well inside (0, 1), where a moved bit shows
                want_budget, budget = Budget(), Budget()
                want = approx_dag_unshared(inst.dag, td, x, m_res, want_budget)
                got, rep = approx_dag(inst.dag, td, x, m_override=m_res, budget=budget)
                assert got.hex() == want.hex(), (inst.dag.n, td is None)
                assert rep.cells_used == budget.cells_used == want_budget.cells_used
        assert len(builds) == shapes < bags

    def test_budget_aborts_where_every_bag_is_built(self):
        inst = gen_diamond_ladder(3, "uniform")
        full = Budget()
        approx_dag_unshared(inst.dag, inst.td, 2.2, 6, full)
        for cap in range(0, full.cells_used + 1, full.cells_used // 40):
            outcomes = []
            for run in (approx_dag_unshared, lambda g, td, x, m, b: approx_dag(
                    g, td, x, m_override=m, budget=b)):
                budget = Budget.default(max_cells=cap)
                try:
                    run(inst.dag, inst.td, 2.2, 6, budget)
                    outcomes.append(("done", budget.cells_used))
                except BudgetExceeded as exc:
                    outcomes.append((str(exc), budget.cells_used))
            assert outcomes[0] == outcomes[1], cap

    def test_one_build_per_shape_on_long_chain(self, monkeypatch):
        from stochlp.decomposition import prepare_context

        builds = _record_calls(monkeypatch, "bag_staircase")
        inst = gen_chain(300)
        for td in (inst.td, None):
            ctx = prepare_context(inst.dag, td)
            builds.clear()
            approx_dag(inst.dag, td, 150.3, m_override=6)
            shapes = [bag_shape(ctx, i) for i in ctx.post_order]
            built = [bag_shape(ctx, args[1]) for args, _ in builds]
            assert built == list(dict.fromkeys(shapes))
            assert len(built) <= 3 < ctx.b

    def test_shared_tables_are_read_only(self, monkeypatch):
        merged = _record_calls(monkeypatch, "merge_subtree")
        inst = gen_chain(20)
        approx_dag(inst.dag, inst.td, 9.7, m_override=6)
        arrays = [args[2].values for args, _ in merged]
        shared = [a for a in arrays if sum(b is a for b in arrays) > 1]
        assert shared
        for a in shared:
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[...] = 0.0

    def test_no_table_outlives_the_sweep(self, monkeypatch):
        from stochlp import decomposition

        builds = _record_calls(monkeypatch, "bag_staircase")
        # approx_dag sweeps through the driver ``decomposition.solve``
        real_sweep = decomposition.sweep
        checked = []

        def sweep(*args):
            builds.clear()
            out = real_sweep(*args)
            refs = [weakref.ref(t.values) for _, t in builds]
            builds.clear()
            checked.append([r() is None for r in refs])
            return out

        monkeypatch.setattr(decomposition, "sweep", sweep)
        for inst in _shape_corpus():
            approx_dag(inst.dag, inst.td, 2.2, m_override=6)
        assert checked and all(all(dead) for dead in checked)


# approx_dag(...)[0].hex() recorded at dccfd39, keyed by (family, seed,
# decomposition); each tuple runs over (x, M) in (1.3, 2.9) x (6, 12)
NON_DYADIC_BITS = {
    ("ladder", 0, "given"): (
        "0x1.939b551966a84p-10", "0x1.65663075fde4ap-12",
        "0x1.610813aa50c4ap-3", "0x1.2f3ddd1e154dcp-4"),
    ("ladder", 0, "heuristic"): (
        "0x1.3c5c8d3f2bbd4p-9", "0x1.bf93ff3839bf5p-12",
        "0x1.98a83f5daeeb7p-3", "0x1.41de19ac941d3p-4"),
    ("ladder", 1, "given"): (
        "0x1.2d74dc3857b6bp-8", "0x1.31ad33eefceaep-10",
        "0x1.3f469598c1d80p-2", "0x1.44701c17e118ep-3"),
    ("ladder", 1, "heuristic"): (
        "0x1.c6f47d53c5c8cp-8", "0x1.7473ce864d2dbp-10",
        "0x1.3c90ae2da6cdep-2", "0x1.3ac8059e60384p-3"),
    ("ladder", 2, "given"): (
        "0x1.a7db7a8e92c99p-8", "0x1.ac0486b110d12p-10",
        "0x1.385447a34acc6p-2", "0x1.529a96109f31fp-3"),
    ("ladder", 2, "heuristic"): (
        "0x1.31c49d2a91b1dp-7", "0x1.04fcc2efa6b9cp-9",
        "0x1.3641511e8d2b2p-2", "0x1.46a9add3c0ca5p-3"),
    ("random_tw", 0, "given"): (
        "0x1.d7f7926fabb86p-8", "0x1.aa50c4a727ae8p-9",
        "0x1.da12f684bda13p-3", "0x1.593c0ca4587e6p-3"),
    ("random_tw", 0, "heuristic"): (
        "0x1.0db20a88f4695p-7", "0x1.eba1e33452dffp-9",
        "0x1.29161f9add3c2p-2", "0x1.8bf35ba78194dp-3"),
    ("random_tw", 1, "given"): (
        "0x1.3d743c668a5c0p-8", "0x1.105447a34acc7p-9",
        "0x1.2acc60ebfbc90p-2", "0x1.a58813aa50c50p-3"),
    ("random_tw", 1, "heuristic"): (
        "0x1.78732eb47fd2fp-8", "0x1.38fa07b9c44d8p-9",
        "0x1.539f140436c7fp-2", "0x1.d4a5663075fdfp-3"),
    ("random_tw", 2, "given"): (
        "0x1.29c9eba1e3345p-9", "0x1.01ee7113506aap-10",
        "0x1.b93d743c668a7p-3", "0x1.3473889a83562p-3"),
    ("random_tw", 2, "heuristic"): (
        "0x1.7c3219849fa9bp-9", "0x1.45e1ccbad1ff3p-10",
        "0x1.15010db20a88fp-2", "0x1.6fced636145e2p-3"),
}


class TestNonDyadicBits:
    """Grid values at non-dyadic horizons, bit for bit.  The approx goldens
    use a dyadic horizon, where every table entry is exact and no float
    rounding shows; these values move when a float step of the merge is
    dropped or reordered."""

    def test_recorded_bits(self):
        makers = {
            "ladder": lambda s: gen_diamond_ladder(2, "uniform-mixed", seed=s),
            "random_tw": lambda s: gen_random_tw(2, 6, seed=s, dist="uniform-mixed", max_edges=8),
        }
        for (family, seed, decomposition), want in NON_DYADIC_BITS.items():
            inst = makers[family](seed)
            td = inst.td if decomposition == "given" else None
            got = tuple(approx_dag(inst.dag, td, x, m_override=M)[0].hex()
                        for x in (1.3, 2.9) for M in (6, 12))
            assert got == want, (family, seed, decomposition)
