import math
import random
import tracemalloc
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
    bag_cell_count,
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

            ctx, _, _ = prepare_context(inst.dag, inst.td)
            grid = GridSpec(6, 1.3)
            for i in ctx.post_order:
                t = bag_staircase(ctx, i, grid)
                assert t.values.min() >= 0 and t.values.max() <= 1 + 1e-12
                for ax, (_, role) in enumerate(t.axes):
                    d = np.diff(t.values, axis=ax)
                    assert (d >= -1e-12).all() if role == "s" else (d <= 1e-12).all()


class TestFiniteDifference:
    def test_constant_gives_zero(self):
        from stochlp.staircase import CUMULATIVE, StaircaseTable

        grid = GridSpec(4, 1.0)
        table = StaircaseTable(grid, ((0, "s"),), CUMULATIVE, np.full(5, 0.7))
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
        from stochlp.staircase import CUMULATIVE, StaircaseTable

        table = StaircaseTable(grid, ((0, "s"), (1, "s")), CUMULATIVE, vals)
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
        lam = finite_difference(bag_staircase(ctx, 0, grid))
        out = merge_subtree(ctx, 0, lam, [])
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
        lam = finite_difference(bag_staircase(ctx, leaf, grid))
        out = merge_subtree(ctx, leaf, lam, [])
        assert out.axes == lam.axes
        assert np.allclose(out.values, lam.values)

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

        ctx, _, _ = prepare_context(g, parse_td_chain())
        grid = GridSpec(4, 1.0)
        leaf = next(i for i in ctx.post_order if not ctx.children[i])
        child = merge_subtree(ctx, leaf, finite_difference(bag_staircase(ctx, leaf, grid)), [])
        (v, role), *rest = child.axes
        flipped = StaircaseTable(grid, ((v, "t" if role == "s" else "s"), *rest),
                                 child.kind, child.values)
        parent = ctx.parent[leaf]
        lam = finite_difference(bag_staircase(ctx, parent, grid))
        merge_subtree(ctx, parent, lam, [child])
        with pytest.raises(InvariantViolation, match=f"child variable {v} has role"):
            merge_subtree(ctx, parent, lam, [flipped])

    def test_x_beyond_support_is_one(self):
        g = parse_graph("3 2\n1 2 uniform 1\n2 3 uniform 1\n")
        v, _ = approx_dag(g, None, 2.0, m_override=8)
        assert v == 1.0

    def test_x_zero_counts_origin_cells(self):
        g = parse_graph("3 2\n1 2 uniform 1\n2 3 uniform 1\n")
        v, _ = approx_dag(g, None, 0.0, m_override=8)
        assert v == pytest.approx(8.0**-2)


def parse_td_chain():
    from stochlp import parse_td

    g = parse_graph("3 2\n1 2 uniform 1\n2 3 uniform 1\n")
    return parse_td("s td 2 2 3\nb 1 1 2\nb 2 2 3\n1 2\n").relabel(
        {label: i for i, label in enumerate(g.labels)}
    )


class TestApproxDag:
    def test_per_bag_records(self):
        inst = gen_diamond_ladder(2, dist="uniform")
        _, rep = approx_dag(inst.dag, inst.td, 2.0, m_override=4)
        assert_shared_report(rep, inst.dag, inst.td)
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
            approx_dag(g, None, 1.0, m_override=64, max_cells=10)

    def test_deterministic_bits(self):
        inst = gen_random_tw(2, 4, seed=8, dist="uniform-mixed", max_edges=5)
        v1, _ = approx_dag(inst.dag, inst.td, 1.23, m_override=8)
        v2, _ = approx_dag(inst.dag, inst.td, 1.23, m_override=8)
        assert v1 == v2


class TestFiniteDifferenceRoles:
    def test_partial_roles_subset(self):
        from stochlp.staircase import CUMULATIVE, StaircaseTable

        grid = GridSpec(3, 1.0)
        vals = np.arange(16.0).reshape(4, 4) / 16.0
        table = StaircaseTable(grid, ((0, "s"), (1, "s")), CUMULATIVE, np.minimum(vals, 1.0))
        lam = finite_difference(table, roles=[0])
        expect = np.diff(table.values, axis=0, prepend=0.0)
        assert np.allclose(lam.values, expect)

    def test_wrong_role_rejected(self):
        ctx = one_edge_ctx()
        table = bag_staircase(ctx, 0, GridSpec(4, 1.0))
        with pytest.raises(InputError):
            finite_difference(table, roles=[1])  # vertex 1 is a terminal


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
            ctx, _, _ = prepare_context(inst.dag, inst.td)
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

    def _table(self, m_res, roles, kind, seed=0):
        rng = np.random.default_rng(seed)
        vals = rng.random((m_res + 1,) * len(roles))
        axes = tuple((v, r) for v, r in enumerate(roles))
        return StaircaseTable(GridSpec(m_res, 1.0), axes, kind, vals)

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
        from stochlp.staircase import CUMULATIVE, DIFFERENCE

        cum = self._table(24, ("s",), CUMULATIVE)
        diff = self._table(24, ("s",), DIFFERENCE, seed=1)
        assert np.array_equal(_bits(finite_difference(cum).values),
                              _bits(np.diff(cum.values, prepend=0.0)))
        assert np.array_equal(_bits(diff.to_cumulative().values), _bits(np.cumsum(diff.values)))
        assert np.array_equal(_bits(cum.to_difference().values),
                              _bits(np.diff(cum.values, prepend=0.0)))

    @pytest.mark.parametrize("m_res, chunk", [(4, 1), (6, 50), (6, 7**4 - 1), (6, None)])
    def test_five_axes_any_chunk(self, monkeypatch, m_res, chunk):
        # chunks below one slab ((M+1)**4 cells) split each slab of the pass
        from stochlp import staircase
        from stochlp.staircase import CUMULATIVE, DIFFERENCE

        if chunk is not None:
            monkeypatch.setattr(staircase, "DIFF_CHUNK_CELLS", chunk)
        src = [ax for ax, r in enumerate(self.ROLES) if r == "s"]
        cum = self._table(m_res, self.ROLES, CUMULATIVE)
        diff = self._table(m_res, self.ROLES, DIFFERENCE, seed=1)
        expect = _bits(self._np_difference(cum.values, src))
        assert np.array_equal(_bits(finite_difference(cum).values), expect)
        assert np.array_equal(_bits(cum.to_difference().values), expect)
        assert np.array_equal(_bits(diff.to_cumulative().values),
                              _bits(self._np_cumulative(diff.values, src)))

    def test_roles_subset(self):
        from stochlp.staircase import CUMULATIVE

        cum = self._table(6, self.ROLES, CUMULATIVE)
        for roles in ([0], [3], [2, 0], [0, 2, 3]):
            got = finite_difference(cum, roles=roles).values
            assert np.array_equal(_bits(got), _bits(self._np_difference(cum.values, sorted(roles))))

    def test_non_contiguous_input(self):
        from stochlp.staircase import CUMULATIVE

        vals = np.random.default_rng(2).random((9, 9)).T
        cum = StaircaseTable(GridSpec(8, 1.0), ((0, "s"), (1, "s")), CUMULATIVE, vals)
        assert np.array_equal(_bits(finite_difference(cum).values),
                              _bits(self._np_difference(vals, [0, 1])))

    def test_input_unchanged(self):
        from stochlp.staircase import CUMULATIVE, DIFFERENCE

        cum = self._table(6, self.ROLES, CUMULATIVE)
        diff = self._table(6, self.ROLES, DIFFERENCE, seed=1)
        before_cum, before_diff = cum.values.copy(), diff.values.copy()
        finite_difference(cum)
        finite_difference(cum, roles=[2])
        cum.to_difference()
        diff.to_cumulative()
        assert np.array_equal(_bits(cum.values), _bits(before_cum))
        assert np.array_equal(_bits(diff.values), _bits(before_diff))

    def test_merge_leaves_operands_unchanged(self):
        from stochlp.decomposition import prepare_context

        inst = gen_diamond_ladder(2, dist="uniform-mixed")
        ctx, _, _ = prepare_context(inst.dag, inst.td)
        grid = GridSpec(6, 3.1)
        done = {}
        for i in ctx.post_order:
            lam = finite_difference(bag_staircase(ctx, i, grid))
            kids = [done.pop(j) for j in ctx.children[i]]
            before = [t.values.copy() for t in (lam, *kids)]
            done[i] = merge_subtree(ctx, i, lam, kids)
            for t, b in zip((lam, *kids), before):
                assert np.array_equal(_bits(t.values), _bits(b))

    def test_cumulative_operand_differenced_on_a_copy(self):
        # a cumulative operand is the one case where the merge starts from
        # the caller's own array
        from stochlp.staircase import CUMULATIVE, _transform_operand

        cum = self._table(6, ("s", "s"), CUMULATIVE)
        before = cum.values.copy()
        none = frozenset()
        vals, names = _transform_operand(cum, density_vars=frozenset({0}), kept=frozenset({1}),
                                         frozen_src=none, frozen_term=none, contract=frozenset({0}))
        assert names == [0, 1]
        assert np.array_equal(_bits(vals), _bits(np.diff(before, axis=0, prepend=0.0)))
        assert np.array_equal(_bits(cum.values), _bits(before))

    @pytest.mark.parametrize("histogram", [True, False])
    def test_bag_table_bits(self, monkeypatch, histogram):
        from stochlp import staircase
        from stochlp.decomposition import prepare_context

        if not histogram:
            monkeypatch.setattr(staircase, "DENSE_HISTOGRAM_CELLS", 0)
        grid = GridSpec(7, 1.9)
        for inst in (gen_random_tw(2, 6, seed=4, dist="uniform-mixed", max_edges=8),
                     gen_diamond_ladder(2, dist="uniform-mixed"), gen_chain(4)):
            ctx, _, _ = prepare_context(inst.dag, inst.td)
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
        ctx, _, _ = prepare_context(inst.dag, inst.td)
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
